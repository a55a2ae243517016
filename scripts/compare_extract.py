"""Compare this checkout's triple extraction with another checkout's on the
extract benchmark's generated inputs.

    python3 scripts/compare_extract.py --base OTHER_CHECKOUT [--seeds 7 11]

For each seed it writes the inputs with ``perfbench/gen.py``, extracts in one
child process per checkout (each imports ``ckqg`` from its own ``src/``) and
checks two things:

- every triple the base keeps is kept here, in the same order, with the same
  source, positions and ``swapped`` flag;
- every triple kept only here is a reversed match whose KB head (the stored
  tail) has no non-stop token in the passage.

It prints the per-seed counts and exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def dump(src: str, inputs: str) -> None:
    """Child mode: print one JSON list of kept triples per sample."""
    sys.path.insert(0, src)
    from ckqg import kb_extract as kb
    from ckqg.assets import STOPWORDS, asset_path
    from ckqg.corpus import load_dataset
    d = Path(inputs)
    stores = [kb.load_knowledge_base(d / "conceptnet.tsv", "ConceptNet"),
              kb.load_knowledge_base(d / "wordnet.tsv", "WordNet")]
    stops = kb.load_stopwords(asset_path(STOPWORDS))
    for s in load_dataset(d / "corpus.jsonl"):
        kept = kb.extract_for_sample(s.passage, s.question, stops, stores)
        print(json.dumps([[a.triple.head, a.triple.relation, a.triple.tail, a.triple.source,
                           a.swapped, list(a.head_positions), list(a.tail_positions)]
                          for a in kept]))


def extract(checkout: Path, inputs: Path) -> list[list]:
    out = subprocess.run([sys.executable, __file__, "--dump", str(checkout / "src"),
                          str(inputs)], capture_output=True, text=True, check=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def compare_seed(base: Path, seed: int, stops: frozenset[str]) -> tuple[dict, list[str]]:
    from ckqg.corpus import load_dataset
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "gen.py"), "--workload",
                        "extract", "--seed", str(seed), "--out", str(inputs)],
                       capture_output=True, check=True)
        samples = load_dataset(inputs / "corpus.jsonl")
        old, new = extract(base, inputs), extract(ROOT, inputs)
    problems, added = [], 0
    for s, was, now in zip(samples, old, new, strict=True):
        extra = [t for t in now if t not in was]
        if [t for t in now if t in was] != was:
            problems.append(f"seed {seed} {s.sample_id}: base triples lost or reordered")
        for head, _, tail, _, swapped, _, _ in extra:
            if not swapped or any(tok in s.passage for tok in tail.split() if tok not in stops):
                problems.append(f"seed {seed} {s.sample_id}: added {head!r}-{tail!r} "
                                "is not a reversed match with its KB head absent")
        added += len(extra)
    counts = {"seed": seed, "samples": len(samples), "base_kept": sum(map(len, old)),
              "kept": sum(map(len, new)), "added": added,
              "samples_with_added": sum(len(n) > len(o) for o, n in zip(old, new))}
    return counts, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, help="checkout to compare against")
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    ap.add_argument("--dump", nargs=2, metavar=("SRC", "INPUTS"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump:
        dump(*args.dump)
        return 0
    if args.base is None:
        ap.error("--base is required")
    sys.path.insert(0, str(ROOT / "src"))
    from ckqg.assets import STOPWORDS, asset_path
    from ckqg.kb_extract import load_stopwords
    stops = load_stopwords(asset_path(STOPWORDS))
    failed = False
    for seed in args.seeds:
        counts, problems = compare_seed(args.base.resolve(), seed, stops)
        print(json.dumps(counts))
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
