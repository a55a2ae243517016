"""End-to-end subcommand tests driving the CLI through its main() entry."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from ckqg import cli, trainer
from ckqg.assets import KB_CONCEPTNET, KB_WORDNET, MINI_CORPUS, asset_path
from ckqg.cli import main
from ckqg.config import Config
from ckqg.corpus import TagVocab, Vocabulary
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

    def test_no_kb_means_all_pure(self, tmp_path):
        assert run_extract(tmp_path, kbs=False) == 0
        manifest = json.loads((tmp_path / "partition.json").read_text())
        assert manifest["equipped"] == []
        assert len(manifest["pure"]) == 20

    def test_bad_kb_line_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("head\tRelatedTo\ttail\nonly-two\tfields\n")
        code = main(["--out", str(tmp_path / "o"), "extract", "--corpus", MINI,
                     "--conceptnet", str(bad)])
        assert code == 2
        assert "bad.tsv:2" in capsys.readouterr().err

    def test_missing_out_is_usage_error(self, capsys):
        assert main(["extract", "--corpus", MINI]) == 1
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
        monkeypatch.setattr(trainer.Adam, "step",
                            lambda self, trainable=None: steps.append(trainable))
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
        ("vocab.json", lambda d: {"words": d["tokens"]}),
        ("vocab.json", lambda d: d["tokens"]),
        ("vocab.json", lambda d: {"tokens": d["tokens"] + [7]}),
    ], ids=["pos-int", "pos-missing", "tags-list", "pos-nested", "no-tokens",
            "vocab-list", "int-token"])
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
