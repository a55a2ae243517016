"""End-to-end subcommand tests driving the CLI through its main() entry."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckqg import cli, qg_model, trainer
from ckqg.assets import KB_CONCEPTNET, KB_WORDNET, MINI_CORPUS, asset_path
from ckqg.cli import main
from ckqg.config import Config
from ckqg.corpus import TagVocab, Vocabulary
from ckqg.nn import tensor as T
from ckqg.nn.checkpoint import load_checkpoint, save_checkpoint

MINI = str(asset_path(MINI_CORPUS))
CN = str(asset_path(KB_CONCEPTNET))
WN = str(asset_path(KB_WORDNET))


def run_extract(out_dir, corpus=MINI, kbs=True):
    argv = ["--out", str(out_dir), "extract", "--corpus", corpus]
    if kbs:
        argv += ["--conceptnet", CN, "--wordnet", WN]
    return main(argv)


@pytest.fixture(scope="module")
def annotated(tmp_path_factory):
    out = tmp_path_factory.mktemp("extract")
    assert run_extract(out) == 0
    return out


@pytest.fixture(scope="module")
def split_corpora(annotated, tmp_path_factory):
    """Equipped/pure/dev JSONL files carved out of the annotated corpus."""
    out = tmp_path_factory.mktemp("split")
    rows = [json.loads(line) for line in
            (annotated / "annotated.jsonl").read_text().splitlines()]
    equipped = [r for r in rows if r.get("triples")]
    pure = [r for r in rows if not r.get("triples")]
    paths = {}
    for name, subset in (("equipped", equipped[:3]), ("pure", pure[:3]),
                         ("dev", pure[3:5])):
        p = out / f"{name}.jsonl"
        p.write_text("".join(json.dumps(r) + "\n" for r in subset))
        paths[name] = str(p)
    return paths


@pytest.fixture(scope="module")
def toy_config(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "toy.cfg"
    p.write_text(
        "hidden_size = 3\nlayers = 1\nemb_dim = 4\nfeat_dim = 2\n"
        "dropout = 0.0\nbatch_size = 2\nitf_n = 2\nitf_cycles = 1\n"
        "eval_every = 2\nbeam = 2\nmax_len = 8\nseed = 3\n")
    return str(p)


@pytest.fixture(scope="module")
def trained(split_corpora, toy_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["--config", toy_config, "--out", str(out), "train",
                 "--equipped", split_corpora["equipped"],
                 "--pure", split_corpora["pure"],
                 "--dev", split_corpora["dev"]])
    assert code == 0
    return out


class TestExtract:
    def test_outputs_and_partition(self, annotated):
        rows = [json.loads(line) for line in
                (annotated / "annotated.jsonl").read_text().splitlines()]
        manifest = json.loads((annotated / "partition.json").read_text())
        with_triples = {r["id"] for r in rows if r.get("triples")}
        assert set(manifest["equipped"]) == with_triples
        assert set(manifest["pure"]) == {r["id"] for r in rows} - with_triples
        assert manifest["equipped"] and manifest["pure"]

    def test_known_alignment_survives_pipeline(self, annotated):
        rows = {r["id"]: r for r in (json.loads(line) for line in
                (annotated / "annotated.jsonl").read_text().splitlines())}
        triples = {(t["head"], t["relation"], t["tail"])
                   for r in rows.values() for t in r.get("triples", [])}
        assert ("council", "RelatedTo", "governing") in triples

    def test_rerun_is_byte_identical(self, annotated, tmp_path):
        assert run_extract(tmp_path) == 0
        for name in ("annotated.jsonl", "partition.json"):
            assert (tmp_path / name).read_bytes() == (annotated / name).read_bytes()

    def test_reversed_match_with_head_absent_from_passage_is_kept(self, tmp_path):
        kb_file = tmp_path / "kb.tsv"
        kb_file.write_text("animal\tRelatedTo\tcat\n")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({
            "id": "g1", "passage": ["the", "cat", "sat"], "answer_span": [1, 1],
            "pos": ["det", "noun", "verb"], "ner": ["o", "o", "o"],
            "question": ["what", "animal", "sat"]}) + "\n")
        code = main(["--out", str(tmp_path / "o"), "extract", "--corpus", str(corpus),
                     "--conceptnet", str(kb_file)])
        assert code == 0
        row = json.loads((tmp_path / "o" / "annotated.jsonl").read_text())
        assert [(t["head"], t["relation"], t["tail"], t["swapped"]) for t in row["triples"]] \
            == [("cat", "RelatedTo", "animal", True)]
        manifest = json.loads((tmp_path / "o" / "partition.json").read_text())
        assert manifest["equipped"] == ["g1"]

    def test_no_kb_means_all_pure(self, tmp_path):
        assert run_extract(tmp_path, kbs=False) == 0
        manifest = json.loads((tmp_path / "partition.json").read_text())
        assert manifest["equipped"] == []
        assert len(manifest["pure"]) == 20

    def test_bad_kb_line_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("head\tRelatedTo\ttail\nonly-two\tfields\n")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        # no corpus token reaches the bad line, and it is still checked
        for corpus in (MINI, str(empty)):
            code = main(["--out", str(tmp_path / "o"), "extract", "--corpus", corpus,
                         "--conceptnet", str(bad)])
            assert code == 2
            assert "bad.tsv:2" in capsys.readouterr().err

    def test_missing_stopwords_fails_before_kb_loading(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only-two\tfields\n")
        code = main(["--out", str(tmp_path / "o"), "extract", "--corpus", MINI,
                     "--conceptnet", str(bad), "--stopwords", str(tmp_path / "nope.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert "nope.txt" in err and "bad.tsv" not in err

    def test_missing_out_is_usage_error(self, tmp_path, capsys):
        assert main(["extract", "--corpus", MINI]) == 1
        assert "--out" in capsys.readouterr().err
        # checked before the dumps are read
        bad = tmp_path / "bad.tsv"
        bad.write_text("only-two\tfields\n")
        assert main(["extract", "--corpus", MINI, "--conceptnet", str(bad)]) == 1
        assert "--out" in capsys.readouterr().err

    def test_missing_corpus_is_data_error(self, tmp_path):
        assert run_extract(tmp_path, corpus=str(tmp_path / "nope.jsonl")) == 2

    def test_unknown_flag_is_usage_error(self):
        assert main(["extract", "--corpus", MINI, "--frobnicate"]) == 1


class TestStats:
    def test_report_shape(self, annotated, tmp_path, capsys):
        out_file = tmp_path / "stats.json"
        code = main(["--out", str(out_file), "stats", "--corpus",
                     str(annotated / "annotated.jsonl")])
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report == json.loads(capsys.readouterr().out)
        assert report["total_samples"] == 20
        assert report["equipped_count"] + report["pure_count"] == 20
        assert 0.0 <= report["equipped_fraction"] <= 1.0
        assert set(report["relation_histogram"]) == {
            "Synonymy", "RelatedTo", "IsA", "Hypernymy", "Hyponymy", "Others"}


class TestTrain:
    def test_artifacts_written(self, trained):
        for name in ("model.bin", "train_log.csv", "config.json",
                     "vocab.json", "tags.json"):
            assert (trained / name).exists(), name
        header = (trained / "train_log.csv").read_text().splitlines()[0]
        assert header == "step,phase,L_q,L_r,L_t,L,dev_bleu4"

    def test_log_has_both_phases(self, trained):
        lines = (trained / "train_log.csv").read_text().splitlines()[1:]
        phases = [line.split(",")[1] for line in lines]
        assert "Equipped" in phases and "Pure" in phases

    def test_unknown_config_key_is_usage_error(self, split_corpora, tmp_path,
                                               capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("hiden_size = 4\n")
        code = main(["--config", str(bad), "--out", str(tmp_path / "o"),
                     "train", "--equipped", split_corpora["equipped"]])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg_text, seed, message", [
        ("", "-1", "seed must be >= 0"),
        ("vocab_size = 4\n", "0", "vocab_size must exceed"),
        ("lr = nan\n", "0", "lr must be finite"),
    ])
    def test_out_of_range_setting_is_usage_error(self, split_corpora, tmp_path,
                                                 capsys, cfg_text, seed, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)
        code = main(["--config", str(cfg), "--seed", seed, "--out", str(tmp_path / "o"),
                     "train", "--equipped", split_corpora["equipped"]])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_unknown_dev_tag_is_data_error_before_any_step(
            self, split_corpora, toy_config, tmp_path, capsys, monkeypatch):
        steps = []
        monkeypatch.setattr(trainer.Adam, "step", lambda self: steps.append(self))
        row = json.loads(Path(split_corpora["dev"]).read_text().splitlines()[0])
        row["pos"][0] = "zzz"
        dev = tmp_path / "dev.jsonl"
        dev.write_text(json.dumps(row) + "\n")
        out = tmp_path / "o"
        code = main(["--config", toy_config, "--out", str(out), "train",
                     "--equipped", split_corpora["equipped"],
                     "--pure", split_corpora["pure"], "--dev", str(dev)])
        assert code == 2
        assert f"dev sample {row['id']}: unknown tag 'zzz'" in capsys.readouterr().err
        assert steps == []
        assert not (out / "train_log.csv").exists()

    def test_nan_gradient_is_numeric_failure(self, split_corpora, toy_config, tmp_path,
                                             capsys, monkeypatch):
        clip = trainer.ParameterSet.clip_grads

        def poisoned(self, max_norm):
            self["emb.word"].grad.flat[0] = np.nan
            return clip(self, max_norm)

        monkeypatch.setattr(trainer.ParameterSet, "clip_grads", poisoned)
        code = main(["--config", toy_config, "--out", str(tmp_path / "o"), "train",
                     "--equipped", split_corpora["equipped"],
                     "--pure", split_corpora["pure"]])
        assert code == 3
        err = capsys.readouterr().err
        assert "step 1 (Equipped phase)" in err and "emb.word" in err

    def test_ablation_flags_zero_logged_components(self, split_corpora,
                                                   toy_config, tmp_path):
        out = tmp_path / "ablate"
        code = main(["--config", toy_config, "--out", str(out), "train",
                     "--equipped", split_corpora["equipped"],
                     "--mode", "equipped-only", "--no-tg", "--no-rc"])
        assert code == 0
        lines = (out / "train_log.csv").read_text().splitlines()[1:]
        for line in lines:
            _, _, l_q, l_r, l_t, l, _ = line.split(",")
            assert float(l_r) == 0.0 and float(l_t) == 0.0
            assert float(l) == float(l_q)


class TestGenerate:
    def test_questions_and_determinism(self, trained, split_corpora, tmp_path):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        for out in (out_a, out_b):
            code = main(["--out", str(out), "generate", "--model", str(trained),
                         "--corpus", split_corpora["dev"]])
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        rows = [json.loads(line) for line in out_a.read_text().splitlines()]
        assert len(rows) == 2
        for row in rows:
            assert set(row) == {"id", "question", "score"}
            assert isinstance(row["question"], list)
            assert row["score"] <= 0.0

    def test_beam_override_accepted(self, trained, split_corpora, tmp_path):
        out = tmp_path / "g.jsonl"
        code = main(["--out", str(out), "generate", "--model", str(trained),
                     "--corpus", split_corpora["dev"], "--beam", "1"])
        assert code == 0
        assert len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize("change", [
        {"hidden_size": "8"},
        {"layers": 2.0},
        {"hiden_size": 3},
    ])
    def test_bad_saved_config_is_usage_error(self, trained, split_corpora,
                                             tmp_path, capsys, change):
        model = tmp_path / "model"
        shutil.copytree(trained, model)
        cfg = json.loads((model / "config.json").read_text())
        (model / "config.json").write_text(json.dumps({**cfg, **change}))
        code = main(["generate", "--model", str(model),
                     "--corpus", split_corpora["dev"]])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("name, change", [
        ("tags.json", lambda d: {**d, "pos": 5}),
        ("tags.json", lambda d: {k: v for k, v in d.items() if k != "pos"}),
        ("tags.json", lambda d: list(d.values())),
        ("tags.json", lambda d: {**d, "pos": [[1]]}),
        ("tags.json", lambda d: {**d, "bio": ["O", "C", "I"]}),
        ("vocab.json", lambda d: {"words": d["tokens"]}),
        ("vocab.json", lambda d: d["tokens"]),
        ("vocab.json", lambda d: {"tokens": d["tokens"] + [7]}),
    ], ids=["pos-int", "pos-missing", "tags-list", "pos-nested", "bio-renamed",
            "no-tokens", "vocab-list", "int-token"])
    def test_bad_saved_vocab_or_tags_is_data_error(self, trained, split_corpora,
                                                   tmp_path, capsys, name, change):
        model = tmp_path / "model"
        shutil.copytree(trained, model)
        saved = json.loads((model / name).read_text())
        (model / name).write_text(json.dumps(change(saved)))
        code = main(["generate", "--model", str(model),
                     "--corpus", split_corpora["dev"]])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and name in err

    @pytest.mark.parametrize("name, raw, code, message", [
        ("config.json", b'{"hidden_size": 3', 1, "not valid JSON"),
        ("config.json", b'{"hidden_size": 3}\xff', 1, "not UTF-8 text"),
        ("config.json", b'{"hiden_size": 3}', 1, "unknown config key 'hiden_size'"),
        ("config.json", b'{"hidden_size": 0}', 1, "hidden_size"),
        ("vocab.json", b'{"tokens": ["a"', 2, "not valid JSON"),
        ("vocab.json", b"\xff", 2, "not UTF-8 text"),
        ("tags.json", b'{"pos": ', 2, "not valid JSON"),
        ("tags.json", b'{"pos": ["caf\xff"]}', 2, "not UTF-8 text"),
        ("vocab.json", b'{"tokens": ["a", "b", "a"]}', 2, "duplicate tokens"),
    ], ids=["config-syntax", "config-utf8", "config-key", "config-value",
            "vocab-syntax", "vocab-utf8", "tags-syntax", "tags-utf8", "vocab-twice"])
    def test_unreadable_saved_file_names_itself(self, trained, split_corpora, tmp_path,
                                                 capsys, name, raw, code, message):
        model = tmp_path / "model"
        shutil.copytree(trained, model)
        (model / name).write_bytes(raw)
        assert main(["generate", "--model", str(model),
                     "--corpus", split_corpora["dev"]]) == code
        err = capsys.readouterr().err
        assert err.startswith("config error" if code == 1 else "data error")
        assert f"{model / name}: " in err and message in err

    @pytest.mark.parametrize("beam", ["0", "-2"])
    @pytest.mark.parametrize("empty_corpus", [False, True])
    def test_beam_below_one_is_usage_error(self, trained, split_corpora, tmp_path,
                                           capsys, beam, empty_corpus):
        corpus = split_corpora["dev"]
        if empty_corpus:
            corpus = tmp_path / "empty.jsonl"
            corpus.write_text("")
        code = main(["generate", "--model", str(trained), "--corpus", str(corpus),
                     "--beam", beam])
        assert code == 1
        assert "--beam" in capsys.readouterr().err

    @staticmethod
    def _fresh_checkpoint(model, **change):
        """Overwrite model.bin with a new model whose config differs from
        config.json by ``change``."""
        saved = json.loads((model / "config.json").read_text())
        vocab = Vocabulary(json.loads((model / "vocab.json").read_text())["tokens"])
        tags = {k: TagVocab(v) for k, v in
                json.loads((model / "tags.json").read_text()).items()}
        params = trainer.build_parameters(Config(**{**saved, **change}), vocab, tags,
                                          np.random.default_rng(0))
        save_checkpoint(model / "model.bin", params.state_dict())

    def _generate_err(self, model, split_corpora, capsys):
        code = main(["generate", "--model", str(model),
                     "--corpus", split_corpora["dev"]])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "model.bin" in err
        return err

    def test_checkpoint_deeper_than_config_is_data_error(self, trained, split_corpora,
                                                          tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(trained, model)
        assert json.loads((model / "config.json").read_text())["layers"] == 1
        self._fresh_checkpoint(model, layers=2)
        err = self._generate_err(model, split_corpora, capsys)
        assert "enc.l1.fw.W" in err

    def test_checkpoint_missing_a_parameter_is_data_error(self, trained, split_corpora,
                                                          tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(trained, model)
        state = load_checkpoint(model / "model.bin")
        del state["rc.out.b"]
        save_checkpoint(model / "model.bin", state)
        err = self._generate_err(model, split_corpora, capsys)
        assert "'rc.out.b'" in err

    def test_checkpoint_shape_against_config_is_data_error(self, trained, split_corpora,
                                                           tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(trained, model)
        cfg = json.loads((model / "config.json").read_text())
        (model / "config.json").write_text(json.dumps({**cfg, "emb_dim": cfg["emb_dim"] + 1}))
        rows = load_checkpoint(model / "model.bin")["emb.word"].shape[0]
        err = self._generate_err(model, split_corpora, capsys)
        assert "'emb.word'" in err
        assert str((rows, cfg["emb_dim"])) in err and str((rows, cfg["emb_dim"] + 1)) in err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_is_data_error(self, trained, split_corpora, tmp_path,
                                             capsys, value):
        model = tmp_path / "model"
        shutil.copytree(trained, model)
        state = load_checkpoint(model / "model.bin")
        state["dec.out.b"][1] = value
        save_checkpoint(model / "model.bin", state)
        err = self._generate_err(model, split_corpora, capsys)
        assert f"{model / 'model.bin'}: parameter 'dec.out.b' holds non-finite" in err

    def test_tag_the_model_lacks_names_sample_and_tags_file(self, trained, split_corpora,
                                                            tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(trained, model)
        tags = json.loads((model / "tags.json").read_text())
        corpus = [json.loads(line) for line in
                  Path(split_corpora["dev"]).read_text().splitlines()]
        corpus[1]["pos"][0] = "zzz"
        assert "zzz" not in tags["pos"]
        path = tmp_path / "dev.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in corpus))
        assert main(["generate", "--model", str(model), "--corpus", str(path)]) == 2
        err = capsys.readouterr().err
        key = corpus[1].get("id", "index:1")
        assert f"{path}: sample {key}: unknown tag 'zzz'" in err
        assert str(model / "tags.json") in err

    def test_numeric_failure_names_the_model(self, trained, split_corpora, monkeypatch,
                                             capsys):
        def overflowing(*args, **kwargs):
            raise T.NumericsError("non-finite values produced by op 'matmul'")

        monkeypatch.setattr(qg_model, "beam_search_group", overflowing)
        assert main(["generate", "--model", str(trained),
                     "--corpus", split_corpora["dev"]]) == 3
        err = capsys.readouterr().err
        assert f"decoding with {trained / 'model.bin'}: " in err and "'matmul'" in err

    def test_overflowing_output_layer_names_the_model_and_sample(self, trained,
                                                                  split_corpora,
                                                                  tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(trained, model)
        state = load_checkpoint(model / "model.bin")
        # a saturated readout makes every u exactly 1, so each output logit
        # sums hidden_size terms of 1e308 and overflows
        state["dec.readout.W"][:] = 0.0
        state["dec.readout.b"][:] = 100.0
        state["dec.out.W"][:] = 1e308
        save_checkpoint(model / "model.bin", state)
        with np.errstate(over="ignore"):
            assert main(["generate", "--model", str(model),
                         "--corpus", split_corpora["dev"]]) == 3
        err = capsys.readouterr().err
        first = json.loads(Path(split_corpora["dev"]).read_text().splitlines()[0])
        key = first.get("id", "index:0")
        assert f"decoding with {model / 'model.bin'}: sample {key} (index 0): " in err

    def test_model_adopts_checkpoint_arrays_without_drawing(self, trained, monkeypatch):
        state = load_checkpoint(trained / "model.bin")

        def no_draw(*args, **kwargs):
            raise AssertionError("loading a model drew initial weights")

        monkeypatch.setattr(cli, "load_checkpoint", lambda path: state)
        monkeypatch.setattr(trainer, "initial_value", no_draw)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        params = cli._load_model(trained)[3]
        assert params.names() == list(state)
        assert all(params[name].data is arr for name, arr in state.items())

    def test_missing_model_dir_is_data_error(self, split_corpora, tmp_path):
        code = main(["generate", "--model", str(tmp_path / "nope"),
                     "--corpus", split_corpora["dev"]])
        assert code == 2


MODEL_FILES = ("config.json", "vocab.json", "tags.json", "model.bin")


def mutated(raw: bytes, data) -> bytes:
    """``raw`` cut short, with one bit flipped, or with one byte inserted."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "insert"]), label="kind")
    at = data.draw(st.integers(0, len(raw) - (kind != "insert")), label="at")
    if kind == "truncate":
        return raw[:at]
    if kind == "flip":
        bit = data.draw(st.integers(0, 7), label="bit")
        return raw[:at] + bytes([raw[at] ^ 1 << bit]) + raw[at + 1:]
    return raw[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) + raw[at:]


class TestModelDirFaults:
    """A damaged model directory ends ``ckqg generate`` with a documented
    exit code and no traceback, and a failure names the damaged file. A
    flipped payload bit can leave a valid weight, so exit 0 is allowed."""

    @pytest.mark.parametrize("name", MODEL_FILES)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_damaged_file_fails_cleanly(self, trained, split_corpora, name, data):
        with tempfile.TemporaryDirectory() as tmp:
            model, corpus = Path(tmp) / "model", Path(tmp) / "corpus.jsonl"
            model.mkdir()
            for other in MODEL_FILES:
                shutil.copyfile(trained / other, model / other)
            (model / name).write_bytes(mutated((trained / name).read_bytes(), data))
            # equipped and plain samples, so the knowledge weights are read too
            corpus.write_text("".join(Path(split_corpora[part]).read_text()
                                      for part in ("dev", "equipped")))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["--out", str(Path(tmp) / "hyp.jsonl"), "generate",
                             "--model", str(model), "--corpus", str(corpus)])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert name in err.getvalue()


class TestEvaluate:
    def test_hyp_equals_ref_scores_100(self, split_corpora, tmp_path, capsys):
        code = main(["evaluate", "--task", "qg",
                     "--hyp", split_corpora["dev"], "--ref", split_corpora["dev"]])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bleu4"] == pytest.approx(100.0)
        assert report["rouge_l"] == pytest.approx(100.0)
        assert report["meteor"] == pytest.approx(100.0)

    def test_generated_output_is_valid_hypothesis_file(self, trained,
                                                       split_corpora, tmp_path,
                                                       capsys):
        gen = tmp_path / "gen.jsonl"
        assert main(["--out", str(gen), "generate", "--model", str(trained),
                     "--corpus", split_corpora["dev"]]) == 0
        code = main(["evaluate", "--task", "qg", "--hyp", str(gen),
                     "--ref", split_corpora["dev"]])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["bleu4"] <= 100.0

    def test_rc_accuracy_with_triple_fallback(self, split_corpora, tmp_path,
                                              capsys):
        # hypothesis rows carry bare relations, references fall back to the
        # first triple on each dataset row
        ref_rows = [json.loads(line) for line in
                    Path(split_corpora["equipped"]).read_text(encoding="utf-8").splitlines()]
        hyp = tmp_path / "rc_hyp.jsonl"
        preds = [r["triples"][0]["relation"] for r in ref_rows]
        preds[0] = "Others"  # force one miss
        hyp.write_text("".join(json.dumps({"relation": p}) + "\n" for p in preds))
        code = main(["evaluate", "--task", "rc", "--hyp", str(hyp),
                     "--ref", split_corpora["equipped"]])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        want = 100.0 * (len(preds) - 1) / len(preds)
        assert report["rc_accuracy"] == pytest.approx(want)

    def test_tg_bleu1(self, tmp_path, capsys):
        hyp = tmp_path / "h.jsonl"
        ref = tmp_path / "r.jsonl"
        hyp.write_text(json.dumps({"tail": ["governing", "bodies"]}) + "\n")
        ref.write_text(json.dumps(
            {"triples": [{"tail": "governing bodies"}]}) + "\n")
        code = main(["evaluate", "--task", "tg", "--hyp", str(hyp),
                     "--ref", str(ref)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["tg_bleu1"] == pytest.approx(100.0)

    def test_length_mismatch_is_data_error(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text(json.dumps({"question": ["x"]}) + "\n")
        b.write_text("")
        assert main(["evaluate", "--hyp", str(a), "--ref", str(b)]) == 2

    def test_invalid_json_names_line(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        a.write_text('{"question": ["x"]}\nnot json\n')
        assert main(["evaluate", "--hyp", str(a), "--ref", str(a)]) == 2
        assert "a.jsonl:2" in capsys.readouterr().err

    @pytest.mark.parametrize("task, row, message", [
        ("qg", {"question": 5}, "'question' must be a string or a list of strings"),
        ("qg", {"question": ["x", 5]}, "'question' must be a string or a list of strings"),
        ("rc", {"triples": [5]}, "'triples' must be a list of objects"),
        ("tg", {"triples": [5]}, "'triples' must be a list of objects"),
        ("rc", {"relation": 5}, "'relation' must be a string"),
        ("rc", {"triples": [{"relation": 5}]}, "'relation' must be a string"),
        ("tg", {"tail": 5}, "'tail' must be a string or a list of strings"),
        ("qg", 5, "expected a JSON object"),
        ("rc", ["x"], "expected a JSON object"),
        ("qg", {"q": "x"}, "missing 'question' field"),
        ("rc", {"triples": []}, "no relation on row or its first triple"),
        ("tg", {"triples": [{"relation": "IsA"}]}, "no tail on row or its first triple"),
    ])
    def test_wrong_typed_row_is_data_error(self, tmp_path, capsys, task, row, message):
        good = {"question": "x", "relation": "RelatedTo", "tail": "x"}
        hyp = tmp_path / "hyp.jsonl"
        ref = tmp_path / "ref.jsonl"
        # the blank line counts: the bad row sits on line 3
        hyp.write_text(json.dumps(good) + "\n\n" + json.dumps(row) + "\n")
        ref.write_text((json.dumps(good) + "\n") * 2)
        assert main(["evaluate", "--task", task, "--hyp", str(hyp),
                     "--ref", str(ref)]) == 2
        err = capsys.readouterr().err
        assert "hyp.jsonl:3" in err and message in err


class TestGradcheck:
    def test_settings_win_over_the_toy_values(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "gradcheck.cfg"
        cfg_file.write_text("hidden_size = 4\n")
        monkeypatch.setenv("CKQG_LAYERS", "2")
        args = cli.build_parser().parse_args(
            ["--config", str(cfg_file), "--seed", "9", "gradcheck"])
        cfg = cli._gradcheck_config(args)
        assert (cfg.hidden_size, cfg.layers, cfg.seed) == (4, 2, 9)
        assert cfg.emb_dim == cli._TOY["emb_dim"]   # a key nobody set takes the toy value

    def test_mismatch_exits_3_and_still_writes_the_report(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setattr(cli, "GRADCHECK_TOLERANCE", 0.0)
        out = tmp_path / "gradcheck.json"
        assert main(["--out", str(out), "gradcheck"]) == 3
        captured = capsys.readouterr()
        assert "gradient mismatch" in captured.err
        assert "FAIL" in captured.out and "np." not in captured.out
        report = json.loads(out.read_text())
        assert sorted(report) == ["L", "L_q", "L_r", "L_t"]
        for entry in report.values():
            assert sorted(entry) == ["checked", "max_rel_err", "worst_param"]
            assert entry["checked"] > 0 and entry["worst_param"]


def fails_naming_the_file(tmp_path, capsys, raw: bytes, argv, code, message):
    """Run ``argv`` with ``{bad}`` a file holding ``raw``: exit ``code``, and
    stderr names the file followed by ``message``."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(raw)
    fill = {"bad": str(bad), "out": str(tmp_path / "out")}
    assert main([a.format(**fill) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error" if code == 1 else "data error")
    assert f"{bad}{message}" in err


TRAIN = ["--config", "{bad}", "--out", "{out}", "train", "--equipped", MINI]
GOOD_ROW = {"passage": ["a", "b"], "answer_span": [0, 0], "pos": ["noun", "noun"],
            "ner": ["o", "o"], "question": ["what"]}


def jsonl(*rows) -> bytes:
    return "".join(json.dumps(r) + "\n" for r in rows).encode()


class TestTextInputs:
    @pytest.mark.parametrize("raw, argv, code", [
        (b"seed = 3\n# caf\xff\n", TRAIN, 1),
        (b'{"passage": "caf\xff"}\n', ["stats", "--corpus", "{bad}"], 2),
        (b"cafe\tIsA\tplace\n\xff\tIsA\tthing\n",
         ["--out", "{out}", "extract", "--corpus", MINI, "--conceptnet", "{bad}"], 2),
        (b"the\n\xff\n", ["--out", "{out}", "extract", "--corpus", MINI,
                          "--stopwords", "{bad}"], 2),
        (b'{"question": "caf\xff"}\n', ["evaluate", "--hyp", "{bad}", "--ref", MINI], 2),
    ], ids=["config", "corpus", "kb_dump", "stopwords", "jsonl"])
    def test_non_utf8_input_names_its_file(self, tmp_path, capsys, raw, argv, code):
        fails_naming_the_file(tmp_path, capsys, raw, argv, code, ": not UTF-8 text")

    @pytest.mark.parametrize("raw, argv, code, message", [
        (b"lr =\n", TRAIN, 1, ":1: expected key = value"),
        (b"seed = 3\n= 4\n", TRAIN, 1, ":2: expected key = value"),
        (jsonl({**GOOD_ROW, "passage": [], "pos": [], "ner": []}),
         ["stats", "--corpus", "{bad}"], 2, ":1: empty passage"),
        (jsonl(GOOD_ROW, {**GOOD_ROW, "question": []}),
         ["stats", "--corpus", "{bad}"], 2, ":2: empty question"),
    ], ids=["config-empty-value", "config-empty-key", "corpus-empty-passage",
            "corpus-empty-question"])
    def test_invalid_input_names_its_file(self, tmp_path, capsys, raw, argv, code,
                                          message):
        fails_naming_the_file(tmp_path, capsys, raw, argv, code, message)
