"""Run every workload once untraced and once traced, and print one table.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--json FILE]

For each workload it prints items_per_s, setup_s and peak_rss_mb with their
units, items attempted and failed, the check values, and the tracing
overhead (untraced over traced items_per_s). ``--json`` also writes every
run's result and details to FILE.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} trace={trace} failed ({proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--json", help="also write every result and details here")
    args = ap.parse_args(argv)

    record = {}
    for w in (x["name"] for x in spec["workloads"]):
        plain, plain_details = run_once(w, args.seed, args.seconds, 0)
        traced, traced_details = run_once(w, args.seed, args.seconds, 1)
        m = plain["metrics"]
        ratio = m["items_per_s"]["value"] / traced["metrics"]["trace.items_per_s"]["value"]
        print(f"{w}:")
        for name in ("items_per_s", "setup_s", "peak_rss_mb"):
            print(f"  {name:<12} {m[name]['value']:12.4f} {m[name]['unit']}")
        print(f"  items        {plain['attempted']} attempted, {plain['failed']} failed"
              f" ({plain_details['unit_of_work']}); correct={plain['correct']}")
        print(f"  checks       {json.dumps(plain_details['check_values'], sort_keys=True)}")
        print(f"  tracing      untraced/traced items_per_s = {ratio:.3f}; "
              f"missing wrappers: {traced_details['missing_wrappers'] or 'none'}")
        if plain_details["problems"] or traced_details["problems"]:
            print(f"  PROBLEMS     {plain_details['problems'] + traced_details['problems']}")
        record[w] = {"untraced": {"result": plain, "details": plain_details},
                     "traced": {"result": traced, "details": traced_details},
                     "trace_overhead_ratio": ratio}
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
