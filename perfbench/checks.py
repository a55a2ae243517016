"""Output checks for each workload's command.

Each check returns ``(problems, values)``: a list of what is wrong (empty
when the output is correct) and the check values to compare across commits
to see whether a change altered the arithmetic.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from ckqg import trainer
from ckqg.config import Config
from ckqg.corpus import TagVocab, Vocabulary, load_dataset
from ckqg.nn.checkpoint import load_checkpoint


def _contiguous(needle: list[str], hay: list[str]) -> bool:
    n = len(needle)
    return n > 0 and any(hay[i:i + n] == needle for i in range(len(hay) - n + 1))


def check_train(out: Path, expected_steps: int) -> tuple[list[str], dict]:
    problems: list[str] = []
    with open(out / "train_log.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != expected_steps:
        problems.append(f"train_log.csv has {len(rows)} rows, want {expected_steps}")
    last = {}
    for r in rows:
        lq, lr, lt, l = (float(r[k]) for k in ("L_q", "L_r", "L_t", "L"))
        vals = [lq, lr, lt, l] + ([float(r["dev_bleu4"])] if r["dev_bleu4"] else [])
        if not all(math.isfinite(v) for v in vals):
            problems.append(f"step {r['step']}: non-finite value in {vals}")
        # the documented summation order makes this bitwise, not approximate
        if (lq + lr) + lt != l:
            problems.append(f"step {r['step']}: L={l!r} != (L_q + L_r) + L_t")
        if r["phase"] == trainer.PURE and (lr != 0.0 or lt != 0.0):
            problems.append(f"step {r['step']}: Pure row with L_r={lr!r} L_t={lt!r}")
        last = {"step": int(r["step"]), "L_q": r["L_q"], "L_r": r["L_r"],
                "L_t": r["L_t"], "L": r["L"]}

    cfg = Config(**json.loads((out / "config.json").read_text()))
    vocab = Vocabulary(json.loads((out / "vocab.json").read_text())["tokens"])
    tags = {k: TagVocab(v) for k, v in json.loads((out / "tags.json").read_text()).items()}
    expected = trainer.build_parameters(cfg, vocab, tags, np.random.default_rng(0))
    state = load_checkpoint(out / "model.bin")
    if set(state) != set(expected.names()):
        problems.append("model.bin parameter names differ from the model's: "
                        f"missing={sorted(set(expected.names()) - set(state))[:5]} "
                        f"extra={sorted(set(state) - set(expected.names()))[:5]}")
    for name, arr in state.items():
        if name in expected and arr.shape != expected[name].shape:
            problems.append(f"model.bin '{name}' has shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            problems.append(f"model.bin '{name}' holds non-finite values")
    digest = hashlib.sha256((out / "model.bin").read_bytes()).hexdigest()[:16]
    return problems, {"last_step": last, "model_sha256_16": digest}


def check_generate(out_file: Path, corpus: Path) -> tuple[list[str], dict]:
    problems: list[str] = []
    want = [s.sample_id for s in load_dataset(corpus)]
    rows = [json.loads(line) for line in out_file.read_text(encoding="utf-8").splitlines()
            if line.strip()]
    got = [r.get("id") for r in rows]
    if got != want:
        problems.append(f"output ids {got[:4]}... differ from input order {want[:4]}...")
    scores = [r.get("score") for r in rows]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in scores):
        problems.append(f"non-finite or missing scores: {scores}")
    questions = [r.get("question") for r in rows]
    blob = json.dumps(questions, sort_keys=True).encode()
    return problems, {
        "tokens_sha256_16": hashlib.sha256(blob).hexdigest()[:16],
        "decoded_tokens": sum(len(q or []) for q in questions),
        "score_sum": repr(float(sum(v for v in scores if isinstance(v, (int, float))))),
    }


def check_extract(out: Path, corpus: Path, planted_path: Path) -> tuple[list[str], dict]:
    problems: list[str] = []
    n_in = len(load_dataset(corpus))
    samples = load_dataset(out / "annotated.jsonl")
    parts = json.loads((out / "partition.json").read_text())
    n_eq, n_pure = len(parts["equipped"]), len(parts["pure"])
    if n_eq + n_pure != n_in or len(samples) != n_in:
        problems.append(f"partition {n_eq}+{n_pure} and {len(samples)} annotated "
                        f"samples for a corpus of {n_in}")
    kept: dict[str, set] = {}
    for s in samples:
        for a in s.triples:
            t = a.triple
            if not (_contiguous(t.head.split(), s.passage)
                    and _contiguous(t.tail.split(), s.question)):
                problems.append(f"{s.sample_id}: kept triple {t} does not align")
            kept.setdefault(s.sample_id, set()).add((t.head, t.relation, t.tail, a.swapped))
    planted = json.loads(planted_path.read_text())
    missed = [p for p in planted
              if (*p["triple"], p["swapped"]) not in kept.get(p["id"], set())]
    if missed:
        problems.append(f"{len(missed)} of {len(planted)} planted triples not recovered, "
                        f"first {missed[0]}")
    digest = hashlib.sha256((out / "annotated.jsonl").read_bytes()).hexdigest()[:16]
    return problems, {"equipped": n_eq, "pure": n_pure,
                      "kept_triples": sum(len(v) for v in kept.values()),
                      "planted_recovered": len(planted) - len(missed),
                      "annotated_sha256_16": digest}
