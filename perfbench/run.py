"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from the seed (perfbench/gen.py, in a child
process so its memory does not count), then runs the workload's ``ckqg``
command in this process, one at a time (a closed loop with one client),
until ``--seconds`` are used. A batch of set-up repetitions runs before each
command and after the last, so the set-up samples span the same stretch of
time as the commands; both figures are medians. Every command's output is
checked. With ``--trace 0`` the last line of standard
output carries the end-to-end metrics; with ``--trace 1`` the package's
public functions are wrapped (perfbench/spans.py) and the last line carries
the per-layer metrics instead. The line before it holds the details: check
values, environment, per-command times and the input properties.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
# Set-up repetitions per batch; a batch runs before each command and after
# the last. An extract set-up loads both dumps (~3 s), the others take
# 0.05-0.15 s. The first train and generate set-ups read cold files and ran
# slower than all later ones, so one untimed set-up precedes the first batch;
# the first extract set-up was not slower.
SETUP_BATCH = {"train": 6, "generate": 4, "extract": 1}
SETUP_WARMUP = {"train": 1, "generate": 1, "extract": 0}
# Commands per run, at least. Ending the window closest to --seconds alone
# would end a train run (17-21 s a command) after one command, and end an
# extract run (8-12 s) after two commands in slow stretches of the host and
# after three in fast ones, which widened the spread between runs.
MIN_COMMANDS = {"train": 2, "generate": 3, "extract": 3}
GEN_TIMEOUT_S = 150
BEAM = 10


# -- workloads -------------------------------------------------------------------


class Workload:
    """Inputs, command line, set-up action and output check of one workload."""

    name = ""
    unit = ""

    def __init__(self, inputs: Path, manifest: dict):
        self.inputs = inputs
        self.m = manifest

    def path(self, key: str) -> str:
        return str(self.inputs / self.m[key])


class Train(Workload):
    name, unit = "train", "training samples (steps x batch size)"

    def __init__(self, inputs, manifest):
        super().__init__(inputs, manifest)
        from ckqg.config import load_config
        self.cfg = load_config(self.path("config"))
        self.steps = self.cfg.itf_n * 2 * self.cfg.itf_cycles
        self.items = self.steps * self.cfg.batch_size

    def argv(self, out: Path) -> list[str]:
        return ["--config", self.path("config"), "--out", str(out), "train",
                "--equipped", self.path("equipped"), "--pure", self.path("pure"),
                "--dev", self.path("dev")]

    def setup(self, scratch: Path) -> None:
        """The public loaders ``train`` runs before step 1, back to back;
        the command itself rejects an empty corpus."""
        import numpy as np
        from ckqg import corpus, trainer
        eq = corpus.load_dataset(self.path("equipped"))
        pure = corpus.load_dataset(self.path("pure"))
        corpus.load_dataset(self.path("dev"))
        vocab = corpus.build_vocab(eq + pure, max_size=self.cfg.vocab_size,
                                   min_freq=self.cfg.min_freq)
        tags = corpus.build_tag_vocabs(eq + pure)
        trainer.build_parameters(self.cfg, vocab, tags, np.random.default_rng(self.cfg.seed))

    def check(self, out: Path):
        import checks
        return checks.check_train(out, self.steps)

    def config(self) -> dict:
        return self.cfg.to_dict()


class Generate(Workload):
    name, unit = "generate", "questions written"

    def __init__(self, inputs, manifest):
        super().__init__(inputs, manifest)
        with open(self.path("test"), encoding="utf-8") as fh:
            self.items = sum(1 for line in fh if line.strip())

    def argv(self, out: Path, corpus: str | None = None) -> list[str]:
        return ["--out", str(out / "hyp.jsonl"), "generate", "--model", self.path("model"),
                "--corpus", corpus or self.path("test"), "--beam", str(BEAM)]

    def setup(self, scratch: Path) -> None:
        """The same command over an empty corpus: loads the model only."""
        empty = scratch / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        _run_cli(self.argv(scratch, str(empty)))

    def check(self, out: Path):
        import checks
        return checks.check_generate(out / "hyp.jsonl", Path(self.path("test")))

    def config(self) -> dict:
        cfg = json.loads((Path(self.path("model")) / "config.json").read_text())
        return {**cfg, "beam": BEAM}


class Extract(Workload):
    name, unit = "extract", "corpus samples annotated"

    def __init__(self, inputs, manifest):
        super().__init__(inputs, manifest)
        with open(self.path("corpus"), encoding="utf-8") as fh:
            self.items = sum(1 for line in fh if line.strip())

    def argv(self, out: Path, corpus: str | None = None) -> list[str]:
        return ["--out", str(out), "extract", "--corpus", corpus or self.path("corpus"),
                "--conceptnet", self.path("conceptnet"), "--wordnet", self.path("wordnet")]

    def setup(self, scratch: Path) -> None:
        """The same command over an empty corpus: loads the KBs and stopwords."""
        empty = scratch / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        _run_cli(self.argv(scratch / "setup_out", str(empty)))

    def check(self, out: Path):
        import checks
        return checks.check_extract(out, Path(self.path("corpus")), Path(self.path("planted")))

    def config(self) -> dict:
        return {"stopwords": "bundled", "conceptnet": self.m["conceptnet"],
                "wordnet": self.m["wordnet"]}


WORKLOADS = {w.name: w for w in (Train, Generate, Extract)}


def _run_cli(argv: list[str]) -> int:
    """Run one in-process ``ckqg`` command with its console output captured.

    An exception escaping ``cli.main`` would end the real command with a
    traceback and exit code 1, so it is reported the same way here."""
    from ckqg import cli
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return 1


# -- tracing targets ---------------------------------------------------------------


def _targets():
    from spans import Target, tape_size
    count = lambda args, result: len(result)  # noqa: E731
    return [
        Target("corpus.load_dataset", "ckqg.corpus", "load_dataset"),
        Target("corpus.encode_batch", "ckqg.corpus", "encode_batch"),
        Target("corpus.save_dataset", "ckqg.corpus", "save_dataset"),
        Target("kb_extract.load_knowledge_base", "ckqg.kb_extract", "load_knowledge_base"),
        Target("kb_extract.extract_for_sample", "ckqg.kb_extract", "extract_for_sample",
               observe=count),
        Target("kb_extract.retrieve_candidates", "ckqg.kb_extract", "retrieve_candidates",
               observe=count),
        Target("kb_extract.align_filter", "ckqg.kb_extract", "align_filter", observe=count),
        Target("qg_model.encode_passage", "ckqg.qg_model", "encode_passage"),
        Target("qg_model.teacher_forced_steps", "ckqg.qg_model", "teacher_forced_steps"),
        Target("qg_model.decode_step", "ckqg.qg_model", "decode_step"),
        Target("qg_model.beam_search", "ckqg.qg_model", "beam_search",
               observe=lambda args, hyp: len(hyp.ids)),
        Target("aux_tasks.encode_triples", "ckqg.aux_tasks", "encode_triples"),
        Target("aux_tasks.rc_forward", "ckqg.aux_tasks", "rc_forward"),
        Target("aux_tasks.tg_teacher_steps", "ckqg.aux_tasks", "tg_teacher_steps"),
        Target("trainer.unified_forward", "ckqg.trainer", "unified_forward"),
        Target("trainer.pure_forward", "ckqg.trainer", "pure_forward"),
        Target("trainer.evaluate_dev", "ckqg.trainer", "evaluate_dev"),
        Target("nn.backward", "ckqg.nn.tensor:Tensor", "backward",
               before=lambda args: tape_size(args[0])),
        Target("nn.optim.step", "ckqg.nn.optim:Adam", "step"),
        Target("nn.params.clip_grads", "ckqg.nn.params:ParameterSet", "clip_grads"),
        Target("nn.params.group_hash", "ckqg.nn.params:ParameterSet", "group_hash"),
        Target("nn.checkpoint.save", "ckqg.nn.checkpoint", "save_checkpoint"),
        Target("nn.checkpoint.load", "ckqg.nn.checkpoint", "load_checkpoint"),
    ]


# Bindings made by ``from x import f``: the callers reach the function
# through these names, so they must be wrapped too.
REQUIRED_SITES = ("ckqg.trainer.save_checkpoint", "ckqg.trainer.encode_batch",
                  "ckqg.cli.load_checkpoint", "ckqg.cli.encode_batch",
                  "ckqg.cli.load_dataset", "ckqg.cli.save_dataset",
                  "ckqg.aux_tasks.teacher_forced_steps")


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer, items: int) -> dict[str, float]:
    """Per-layer figures from the recorded spans; see layers.json."""
    from spans import self_times
    selfs = self_times(tracer.spans)
    by: dict[str, list[int]] = {}
    for i, sp in enumerate(tracer.spans):
        by.setdefault(sp.name, []).append(i)

    def dur_ms(name):
        return [1e3 * (tracer.spans[i].end - tracer.spans[i].start) for i in by.get(name, ())]

    def self_ms(name):
        return [1e3 * selfs[i] for i in by.get(name, ())]

    def values(name):  # a call that raised observed nothing
        return [tracer.spans[i].value for i in by.get(name, ())
                if tracer.spans[i].value is not None]

    # a training step runs from its forward pass to the end of its Adam step
    steps = {"equipped": [], "pure": []}
    fwd = None
    for sp in tracer.spans:
        if sp.name in ("trainer.unified_forward", "trainer.pure_forward"):
            fwd = sp
        elif sp.name == "nn.optim.step" and fwd is not None:
            phase = "equipped" if fwd.name == "trainer.unified_forward" else "pure"
            steps[phase].append(1e3 * (sp.end - fwd.start))
            fwd = None

    tape = values("nn.backward")
    cands = sum(values("kb_extract.retrieve_candidates"))
    kept = sum(values("kb_extract.align_filter"))
    per_sample = values("kb_extract.extract_for_sample")
    m = {}
    for phase in ("equipped", "pure"):
        m[f"trainer.step_ms.{phase}.p50"] = _pct(steps[phase], 0.5)
        m[f"trainer.step_ms.{phase}.p90"] = _pct(steps[phase], 0.9)
    m["trainer.steps"] = len(steps["equipped"]) + len(steps["pure"])
    m["qg_model.encode_passage.ms"] = _mean(self_ms("qg_model.encode_passage"))
    m["qg_model.teacher_forced_steps.ms"] = _mean(dur_ms("qg_model.teacher_forced_steps"))
    m["qg_model.decode_step.calls"] = len(by.get("qg_model.decode_step", ())) / items
    m["qg_model.decode_step.us"] = 1e3 * _mean(self_ms("qg_model.decode_step"))
    m["qg_model.beam_search.ms.p50"] = _pct(dur_ms("qg_model.beam_search"), 0.5)
    m["qg_model.beam_search.ms.p90"] = _pct(dur_ms("qg_model.beam_search"), 0.9)
    m["qg_model.tokens_per_question"] = _mean(values("qg_model.beam_search"))
    for name in ("aux_tasks.encode_triples", "aux_tasks.rc_forward",
                 "aux_tasks.tg_teacher_steps"):
        m[f"{name}.ms"] = _mean(dur_ms(name))
    m["nn.backward.ms"] = _mean(dur_ms("nn.backward"))
    m["nn.tape_nodes"] = _mean(n for n, _ in tape)
    m["nn.tape_mb"] = _mean(b / 2 ** 20 for _, b in tape)
    for name in ("nn.optim.step", "nn.params.clip_grads", "nn.params.group_hash",
                 "nn.checkpoint.save", "nn.checkpoint.load", "trainer.evaluate_dev",
                 "corpus.load_dataset", "corpus.encode_batch", "corpus.save_dataset",
                 "kb_extract.load_knowledge_base", "kb_extract.retrieve_candidates",
                 "kb_extract.align_filter"):
        m[f"{name}.ms"] = _mean(dur_ms(name))
    sample_ms = dur_ms("kb_extract.extract_for_sample")
    m["kb_extract.sample_ms.p50"] = _pct(sample_ms, 0.5)
    m["kb_extract.sample_ms.p90"] = _pct(sample_ms, 0.9)
    m["kb_extract.candidates_per_sample"] = cands / len(per_sample) if per_sample else 0.0
    m["kb_extract.kept_per_candidate"] = kept / cands if cands else 0.0
    m["kb_extract.equipped_share"] = _mean(v > 0 for v in per_sample)
    for target in _targets():
        m[f"{target.span}.errors"] = sum(tracer.spans[i].error for i in by.get(target.span, ()))
    m["trace.missing_wrappers"] = len(tracer.missing)
    return m


def per_layer_units() -> dict[str, str]:
    spec = json.loads((HERE / "layers.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["metrics"]}
    for target in _targets():
        units[f"{target.span}.errors"] = "count"
    return units


# -- one run ---------------------------------------------------------------------


def generate_inputs(workload: str, seed: int, dest: Path) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(dest)],
        capture_output=True, text=True, timeout=GEN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"input generator failed ({proc.returncode}): {proc.stderr[-2000:]}")
    props = json.loads(proc.stdout.strip().splitlines()[-1])
    manifest = json.loads((dest / "manifest.json").read_text())
    return manifest, props


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    # load every module the tracer wraps, and bind the checks to the
    # unwrapped functions so checking stays out of the trace
    import ckqg.cli  # noqa: F401
    import checks  # noqa: F401
    manifest, props = generate_inputs(workload_name, seed, work / "inputs")
    wl = WORKLOADS[workload_name](work / "inputs", manifest)

    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(_targets(), REQUIRED_SITES)

    def spanned(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    setup_times = []

    def setup_batch(reps, timed=True):
        for _ in range(reps):
            scratch = work / "setup"
            scratch.mkdir()
            gc.collect()
            with spanned("bench.setup"):
                t0 = time.perf_counter()
                wl.setup(scratch)
                t1 = time.perf_counter()
            if timed:
                setup_times.append(t1 - t0)
            shutil.rmtree(scratch)
            if tracer is not None:
                tracer.run += 1

    setup_batch(SETUP_WARMUP[workload_name], timed=False)
    durations, problems, check_values = [], [], []
    while True:
        setup_batch(SETUP_BATCH[workload_name])
        out = work / f"out{len(durations)}"
        out.mkdir()
        gc.collect()
        with spanned("bench.command"):
            t0 = time.perf_counter()
            rc = _run_cli(wl.argv(out))
            durations.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.run += 1
        # end the window where whole commands bring it closest to --seconds
        last = rc != 0 or (len(durations) >= MIN_COMMANDS[workload_name] and
                           sum(durations) + statistics.median(durations) / 2 >= seconds)
        if last:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if rc != 0:
            problems.append(f"command {len(durations)} exited with {rc}")
            break
        probs, values = wl.check(out)
        problems += probs
        check_values.append(values)
        shutil.rmtree(out)
        if last:
            break
    setup_batch(SETUP_BATCH[workload_name])
    if tracer is not None:
        tracer.uninstall()

    attempted = wl.items * len(durations)
    failed = attempted if problems else 0
    items_per_s = wl.items / statistics.median(durations)
    if tracer is None:
        metrics = {
            "items_per_s": (items_per_s, "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        units = per_layer_units()
        values = layer_metrics(tracer, attempted)
        values["trace.items_per_s"] = items_per_s
        metrics = {k: (values[k], units[k]) for k in units}
    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": workload_name, "seed": seed, "trace": trace,
        "unit_of_work": wl.unit, "items_per_command": wl.items,
        "command_s": durations, "setup_s_samples": setup_times,
        "problems": problems[:20],
        "check_values": check_values[-1] if check_values else None,
        "checks_identical_across_commands": all(v == check_values[0] for v in check_values),
        "input_properties": props,
        "environment": common.environment({workload_name: wl.config()}),
    }
    if tracer is not None:
        details["missing_wrappers"] = tracer.missing
        details["wrapped_sites"] = len(tracer.installed)
        details["spans"] = len(tracer.spans)
    return result, details


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="ckqg benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    common.prepare_process()
    try:
        common.import_ckqg()
    except (common.MissingPackage, ImportError) as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    common.WORK.mkdir(exist_ok=True)
    work = common.WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            common.WORK.rmdir()
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
