"""Tests of the benchmark's own logic: input generation, span arithmetic,
tracer installation and the output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from ckqg import cli, corpus  # noqa: E402
from ckqg import kb_extract as kb  # noqa: E402
from ckqg.assets import STOPWORDS, asset_path  # noqa: E402
from oracles import brute_force_extract  # noqa: E402


def _files(d: Path) -> dict[str, bytes]:
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_files(tmp_path, workload):
    _, props_a = gen.generate(workload, 5, tmp_path / "a")
    _, props_b = gen.generate(workload, 5, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert props_a == props_b
    gen.generate(workload, 6, tmp_path / "c")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_generated_corpora_load_and_have_the_promised_shape(tmp_path):
    manifest, props = gen.generate("train", 3, tmp_path / "t")
    loaded = {key: corpus.load_dataset(tmp_path / "t" / manifest[key])
              for key in ("equipped", "pure", "dev")}
    assert all(s.triples for s in loaded["equipped"])
    assert not any(s.triples for s in loaded["pure"])
    assert sum(bool(s.triples) for s in loaded["dev"]) == len(loaded["dev"]) // 2
    assert props["passage_len"] == [40, 100]
    assert 8 <= props["question_len"][0] and props["question_len"][1] <= 15
    assert props["vocab_cap_binds"]
    assert 0.01 < props["passage_oov_share"] < 0.06
    assert 0.3 < props["question_copied_share"] < 0.8
    # every training batch is a contiguous window of 16 and pads to 100
    eq = loaded["equipped"]
    for i in range(0, len(eq), 16):
        assert max(len(s.passage) for s in eq[i:i + 16]) == 100


def _small_extract(tmp_path, seed=2):
    out = tmp_path / "x"
    out.mkdir()
    lex = gen.Lexicon(sorted(kb.load_stopwords(asset_path(STOPWORDS))), gen.N_CONTENT)
    sizes = {"corpus": 48, "conceptnet": 3000, "wordnet": 800}
    return out, gen.gen_extract(seed, out, lex, sizes)


def test_extraction_matches_brute_force_oracle_on_generated_kb(tmp_path):
    out, m = _small_extract(tmp_path)
    stores = [kb.load_knowledge_base(out / m["conceptnet"], "ConceptNet"),
              kb.load_knowledge_base(out / m["wordnet"], "WordNet")]
    stops = kb.load_stopwords(asset_path(STOPWORDS))
    samples = corpus.load_dataset(out / m["corpus"])
    kept = 0
    for s in samples:
        got = kb.extract_for_sample(s.passage, s.question, stops, stores)
        got = [(a.triple.head, a.triple.relation, a.triple.tail, a.triple.source, a.swapped)
               for a in got]
        assert got == brute_force_extract(s.passage, s.question, stores), s.sample_id
        kept += len(got)
    planted = json.loads((out / m["planted"]).read_text())
    assert kept >= len(planted) > 0
    assert any(p["swapped"] for p in planted)
    # only a planted triple's own lines link its two concepts
    pairs = {frozenset((p["triple"][0], p["triple"][2])): p for p in planted}
    for name in ("conceptnet", "wordnet"):
        for line in (out / m[name]).read_text().splitlines():
            if line.startswith("#"):
                continue
            h, _, t = line.split("\t")
            p = pairs.get(frozenset((h, t)))
            if p is not None:
                assert p["where"] in (name, "both")
                assert (h, t) == ((p["triple"][2], p["triple"][0]) if p["swapped"]
                                  else (p["triple"][0], p["triple"][2]))


def test_extract_check_passes_real_output_and_catches_a_lost_triple(tmp_path):
    out, m = _small_extract(tmp_path)
    res = tmp_path / "res"
    rc = cli.main(["--out", str(res), "extract", "--corpus", str(out / m["corpus"]),
                   "--conceptnet", str(out / m["conceptnet"]),
                   "--wordnet", str(out / m["wordnet"])])
    assert rc == 0
    problems, values = checks.check_extract(res, out / m["corpus"], out / m["planted"])
    assert problems == []
    assert values["planted_recovered"] > 0
    # drop the triples of one planted sample: the check must notice
    victim = json.loads((out / m["planted"]).read_text())[0]["id"]
    lines = (res / "annotated.jsonl").read_text().splitlines()
    rows = [json.loads(x) for x in lines]
    for r in rows:
        if r.get("id") == victim:
            r.pop("triples")
    (res / "annotated.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    problems, _ = checks.check_extract(res, out / m["corpus"], out / m["planted"])
    assert any("planted" in p for p in problems)


def test_train_check_passes_real_output_and_catches_a_broken_sum(tmp_path):
    manifest, _ = gen.generate("train", 4, tmp_path / "in")
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("hidden_size = 4\nemb_dim = 4\nfeat_dim = 2\nlayers = 1\n"
                   "batch_size = 2\nitf_n = 1\nitf_cycles = 1\neval_every = 1\n"
                   "vocab_size = 300\nmax_len = 3\n")
    d = tmp_path / "in"
    out = tmp_path / "out"
    rc = cli.main(["--config", str(cfg), "--out", str(out), "train",
                   "--equipped", str(d / manifest["equipped"]),
                   "--pure", str(d / manifest["pure"]), "--dev", str(d / manifest["dev"])])
    assert rc == 0
    problems, values = checks.check_train(out, 2)
    assert problems == [] and values["last_step"]["step"] == 2
    log = (out / "train_log.csv").read_text().splitlines()
    step, phase, lq, lr, lt, total, dev = log[1].split(",")
    log[1] = ",".join([step, phase, lq, lr, lt, repr(float(total) + 1e-9), dev])
    (out / "train_log.csv").write_text("\n".join(log) + "\n")
    problems, _ = checks.check_train(out, 2)
    assert any("L_q + L_r" in p for p in problems)


def test_generate_check_catches_reordered_rows(tmp_path):
    src = tmp_path / "test.jsonl"
    src.write_text("".join(json.dumps({"id": i, "passage": ["a"], "answer_span": [0, 0],
                                       "pos": ["noun"], "ner": ["o"], "question": ["b"]}) + "\n"
                           for i in ("q1", "q2")))
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_text('{"id": "q1", "question": ["x"], "score": -1.5}\n'
                   '{"id": "q2", "question": ["y"], "score": -2.0}\n')
    assert checks.check_generate(hyp, src)[0] == []
    hyp.write_text('{"id": "q2", "question": ["y"], "score": -2.0}\n'
                   '{"id": "q1", "question": ["x"], "score": NaN}\n')
    problems, _ = checks.check_generate(hyp, src)
    assert len(problems) == 2


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, 0)


def test_self_time_subtracts_covered_child_intervals_once():
    recorded = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("a.inner", 1.5, 2.5, 1),
        _span("b", 2.0, 5.0, 0),       # overlaps a: the shared second counts once
        _span("c", 9.0, 12.0, 0),      # runs past its parent: clipped at 10
        _span("d", 6.0, 6.0, 0),       # empty
    ]
    got = spans.self_times(recorded)
    assert got == pytest.approx([10.0 - 4.0 - 1.0, 2.0 - 1.0, 1.0, 3.0, 3.0, 0.0])


def test_tracer_wraps_by_name_imports_records_nesting_and_errors():
    tracer = spans.Tracer()
    before = cli.load_checkpoint
    tracer.install(run._targets(), run.REQUIRED_SITES)
    try:
        assert tracer.missing == []
        for site in run.REQUIRED_SITES:
            assert site in tracer.installed
        with tracer.span("outer"):
            with pytest.raises(OSError):
                cli.load_checkpoint("/nonexistent/model.bin")
            kb.find_span(("a",), ["a"])      # not traced
    finally:
        tracer.uninstall()
    assert cli.load_checkpoint is before
    names = [(s.name, s.parent, s.error) for s in tracer.spans]
    assert names == [("outer", -1, False), ("nn.checkpoint.load", 0, True)]
    metrics = run.layer_metrics(tracer, 1)
    assert metrics["nn.checkpoint.load.errors"] == 1
    assert set(metrics) | {"trace.items_per_s"} == set(run.per_layer_units())


def test_tracer_reports_a_target_it_cannot_find():
    tracer = spans.Tracer()
    tracer.install([spans.Target("gone", "ckqg.corpus", "no_such_function")],
                   ("ckqg.cli.no_such_site",))
    tracer.uninstall()
    assert tracer.missing == ["gone", "ckqg.cli.no_such_site"]


def test_tape_size_counts_each_node_once():
    from ckqg.nn import tensor as T
    x = T.Tensor(np.ones(3), requires_grad=True)
    y = T.add(x, x)                 # x reached twice, counted once
    loss = T.sum_(T.mul(y, y))
    nodes, nbytes = spans.tape_size(loss)
    assert nodes == 4
    assert nbytes == 3 * 8 * 3 + 8


def test_benchmark_json_lists_every_metric_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == run.per_layer_units()
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"items_per_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    import subprocess
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "extract",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
