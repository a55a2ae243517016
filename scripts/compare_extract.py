"""Compare this checkout's `ckqg extract` output with another checkout's on
the extract benchmark's generated inputs.

    python3 scripts/compare_extract.py --base OTHER_CHECKOUT [--seeds 7 11]

For each seed it writes the inputs with ``perfbench/gen.py``, runs
``ckqg extract`` over them once per checkout (each in a child process that
imports ``ckqg`` from that checkout's ``src/``) and requires
``annotated.jsonl`` and ``partition.json`` to be byte-equal. It prints the
per-seed counts and exits 1 when any output differs.
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
OUTPUTS = ("annotated.jsonl", "partition.json")


def extract(checkout: Path, inputs: Path, out: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    subprocess.run([sys.executable, "-m", "ckqg.cli", "--out", str(out), "extract",
                    "--corpus", str(inputs / "corpus.jsonl"),
                    "--conceptnet", str(inputs / "conceptnet.tsv"),
                    "--wordnet", str(inputs / "wordnet.tsv")],
                   env=env, capture_output=True, check=True)


def compare_seed(base: Path, seed: int) -> tuple[dict, list[str]]:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "gen.py"), "--workload",
                        "extract", "--seed", str(seed), "--out", str(tmp / "inputs")],
                       capture_output=True, check=True)
        extract(base, tmp / "inputs", tmp / "base")
        extract(ROOT, tmp / "inputs", tmp / "here")
        problems = [f"seed {seed}: {name} differs" for name in OUTPUTS
                    if (tmp / "base" / name).read_bytes() != (tmp / "here" / name).read_bytes()]
        annotated = (tmp / "here" / OUTPUTS[0]).read_bytes()
        rows = [json.loads(line) for line in annotated.splitlines()]
    counts = {"seed": seed, "samples": len(rows),
              "equipped": sum(bool(r.get("triples")) for r in rows),
              "kept": sum(len(r.get("triples") or []) for r in rows),
              "annotated_sha256_16": hashlib.sha256(annotated).hexdigest()[:16],
              "equal": not problems}
    return counts, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    args = ap.parse_args(argv)
    failed = False
    for seed in args.seeds:
        counts, problems = compare_seed(args.base.resolve(), seed)
        print(json.dumps(counts))
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
