import pytest

from ckqg.config import Config, ConfigError, load_config, parse_config_file


def test_defaults_validate():
    cfg = Config()
    cfg.validate()
    assert cfg.hidden_size == 600
    assert cfg.layers == 2
    assert cfg.dropout == 0.3
    assert cfg.lr == 0.001
    assert cfg.itf_n == 3000
    assert cfg.itf_cycles == 3
    assert cfg.beam == 10
    assert cfg.avg_k == 5
    assert cfg.seed == 13


def test_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\nhidden_size = 64\n\nlr=0.01  # inline\nseed = 7\n")
    assert parse_config_file(str(p)) == {"hidden_size": "64", "lr": "0.01", "seed": "7"}
    cfg = load_config(str(p), env={})
    assert cfg.hidden_size == 64
    assert cfg.lr == pytest.approx(0.01)
    assert cfg.seed == 7
    assert cfg.layers == 2  # untouched default


def test_precedence_file_env_override(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("batch_size = 4\nseed = 1\nbeam = 2\n")
    cfg = load_config(str(p), overrides={"beam": "9"},
                      env={"CKQG_SEED": "5", "CKQG_BEAM": "3", "HOME": "/x"})
    assert cfg.batch_size == 4   # file only
    assert cfg.seed == 5         # env beats file
    assert cfg.beam == 9         # override beats env


def test_unknown_keys_rejected(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("hiden_size = 64\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(str(p), env={})
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(env={"CKQG_HIDEN_SIZE": "64"})
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(env={}, overrides={"nope": "1"})


def test_malformed_lines_name_location(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("hidden_size\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:1"):
        parse_config_file(str(p))
    p.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_file(str(p))


def test_bad_values_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        load_config(env={}, overrides={"hidden_size": "wide"})
    with pytest.raises(ConfigError, match="dropout"):
        load_config(env={}, overrides={"dropout": "1.0"})
    with pytest.raises(ConfigError, match=">= 1"):
        load_config(env={}, overrides={"layers": "0"})
    with pytest.raises(ConfigError, match="positive"):
        load_config(env={}, overrides={"lr": "0"})
    with pytest.raises(ConfigError, match="vocab_size must exceed the 4 reserved ids"):
        load_config(env={}, overrides={"vocab_size": "4"})
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        load_config(env={}, overrides={"seed": "-1"})
    assert load_config(env={}, overrides={"vocab_size": "5", "seed": "0"}).seed == 0


def test_to_dict_round_trip():
    cfg = load_config(env={}, overrides={"hidden_size": "32"})
    d = cfg.to_dict()
    assert d["hidden_size"] == 32
    assert set(d) == {f for f in d}
    assert isinstance(d["dropout"], float)
