"""Compare this checkout's `ckqg` output with another checkout's on
benchmark workloads' generated inputs.

    python3 scripts/compare_outputs.py --base OTHER_CHECKOUT \
        --workload {extract,train,generate} [...] [--seeds 7 11] \
        [--beams 10] [--blas-threads 1]

For each workload and seed it writes the inputs with ``perfbench/gen.py``,
runs the workload's command as ``perfbench/run.py`` does (same arguments,
no CKQG_* overrides) once per checkout, each in a child process that
imports ``ckqg`` from that checkout's ``src/``, and requires the outputs to
be byte-equal:

    extract   annotated.jsonl, partition.json
    train     model.bin, train_log.csv, config.json, vocab.json, tags.json
    generate  hyp.jsonl, once per beam width of ``--beams`` (10 by default,
              perfbench's; at its model size beams 1 and 3 decode on one lane)

The commands run on ``--blas-threads`` BLAS threads, one by default as in
``perfbench/run.py``; with as many threads as CPUs, ``ckqg generate``
decodes on one lane, so that setting checks the one-lane path. It prints
one JSON line per workload, seed and beam, and exits 1 when a command fails or
any output differs. Where a generate ``hyp.jsonl`` differs, its line also
says what moved (``hyp_moves``): the rows whose ``question`` differs and the
largest |Δscore|.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import common  # noqa: E402

BEAM = 10   # perfbench's generate beam, the default of --beams
OUTPUTS = {"extract": ("annotated.jsonl", "partition.json"),
           "train": ("model.bin", "train_log.csv", "config.json", "vocab.json",
                     "tags.json"),
           "generate": ("hyp.jsonl",)}


def command(workload: str, inputs: Path, out: Path, beam: int) -> list[str]:
    """The ``ckqg`` arguments perfbench runs for ``workload``, at ``beam``
    for generate."""
    m = {k: str(inputs / v) for k, v in
         json.loads((inputs / "manifest.json").read_text()).items()}
    if workload == "extract":
        return ["--out", str(out), "extract", "--corpus", m["corpus"],
                "--conceptnet", m["conceptnet"], "--wordnet", m["wordnet"]]
    if workload == "train":
        return ["--config", m["config"], "--out", str(out), "train", "--equipped",
                m["equipped"], "--pure", m["pure"], "--dev", m["dev"]]
    out.mkdir()
    return ["--out", str(out / "hyp.jsonl"), "generate", "--model", m["model"],
            "--corpus", m["test"], "--beam", str(beam)]


def hyp_moves(base: bytes, here: bytes) -> dict:
    """What moved between two generate ``hyp.jsonl`` files, row by row: the
    number of rows whose ``question`` differs, a row that only one file has
    counting too, and the largest |Δscore| over the rows both have."""
    old, new = ([json.loads(line) for line in data.splitlines()] for data in (base, here))
    pairs = list(zip(old, new))
    return {"questions_differ": sum(a["question"] != b["question"] for a, b in pairs)
            + abs(len(old) - len(new)),
            "max_abs_dscore": max((abs(a["score"] - b["score"]) for a, b in pairs),
                                  default=0.0)}


def run_ckqg(checkout: Path, argv: list[str]) -> str | None:
    """None on success, else the failed command's exit code and last error line."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run([sys.executable, "-m", "ckqg.cli", *argv],
                          env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    lines = proc.stderr.strip().splitlines() or ["(no output)"]
    return f"exit {proc.returncode}: {lines[-1]}"


def compare_seed(base: Path, workload: str, seed: int,
                 beam: int) -> tuple[dict, list[str]]:
    counts: dict = {"workload": workload, "seed": seed}
    if workload == "generate":
        counts["beam"] = beam
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "gen.py"), "--workload",
                        workload, "--seed", str(seed), "--out", str(tmp / "inputs")],
                       capture_output=True, check=True)
        for side, checkout in (("base", base), ("here", ROOT)):
            failure = run_ckqg(checkout, command(workload, tmp / "inputs", tmp / side, beam))
            if failure:
                problems.append(f"{workload} seed {seed}: {side} command failed, {failure}")
        if not problems:
            for name in OUTPUTS[workload]:
                here = (tmp / "here" / name).read_bytes()
                counts[f"{name}_sha256_16"] = hashlib.sha256(here).hexdigest()[:16]
                base_bytes = (tmp / "base" / name).read_bytes()
                if base_bytes != here:
                    if name == "hyp.jsonl":
                        counts.update(hyp_moves(base_bytes, here))
                    problems.append(f"{workload} seed {seed}: {name} differs"
                                    + (f" at beam {beam}" if workload == "generate" else ""))
    counts["equal"] = not problems
    return counts, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    ap.add_argument("--workload", required=True, nargs="+", choices=sorted(OUTPUTS))
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    ap.add_argument("--beams", type=int, nargs="+", default=[BEAM],
                    help=f"beam widths of the generate commands (default {BEAM})")
    ap.add_argument("--blas-threads", type=int, default=1,
                    help="BLAS threads of the ckqg commands (default 1)")
    args = ap.parse_args(argv)
    if args.blas_threads < 1:
        ap.error("--blas-threads must be at least 1")
    if min(args.beams) < 1:
        ap.error("--beams must be at least 1")
    common.prepare_process()   # the ckqg children inherit the pinned environment
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    failed = False
    for workload in args.workload:
        for seed in args.seeds:
            for beam in args.beams if workload == "generate" else [BEAM]:
                counts, problems = compare_seed(args.base.resolve(), workload, seed, beam)
                print(json.dumps({**counts, "blas_threads": args.blas_threads}), flush=True)
                for p in problems:
                    print(f"  {p}")
                failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
