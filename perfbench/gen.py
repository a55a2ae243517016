"""Seeded input generator for the three benchmark workloads.

    python3 perfbench/gen.py --workload train --seed 1 --out DIR

writes the workload's input files under DIR, a ``manifest.json`` naming them,
and prints the measured input properties as one JSON line. The same seed
gives byte-identical files.

Token frequencies follow a Zipf law. The top ranks are the package's bundled
stopwords, so knowledge retrieval (which skips stopwords) sees a realistic
number of content tokens per passage. The synthetic content lexicon is large
enough that the 5000-word vocabulary cap binds and a few percent of passage
tokens fall outside it, which exercises the copy path.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import common

if __name__ == "__main__":
    common.prepare_process()

import numpy as np  # noqa: E402

common.import_ckqg()

from ckqg import trainer  # noqa: E402
from ckqg.assets import STOPWORDS, asset_path  # noqa: E402
from ckqg.config import Config  # noqa: E402
from ckqg.corpus import (RESERVED, build_tag_vocabs, build_vocab,  # noqa: E402
                         coarse_tags, load_dataset)
from ckqg.kb_extract import RELATIONS, load_stopwords  # noqa: E402
from ckqg.nn.checkpoint import save_checkpoint  # noqa: E402

WORKLOADS = ("train", "generate", "extract")

# Lexicon and length shape. The vocabulary cap and the Zipf exponent together
# set the OOV share; see the properties the generator prints.
N_CONTENT = 12000
ZIPF_S = 1.2
ZIPF_Q = 2.7
PASSAGE_LEN = (40, 100)
QUESTION_LEN = (8, 15)
ANSWER_LEN = (1, 4)
WH_WORDS = ("what", "which", "who", "where", "when", "why", "how")

# Model shape shared by the train workload and the generate model.
MODEL = {"hidden_size": 128, "emb_dim": 100, "feat_dim": 8, "layers": 2,
         "batch_size": 16, "dropout": 0.3, "vocab_size": 5000}
MODEL_SEED = 13

TRAIN_SIZES = {"equipped": 480, "pure": 480, "dev": 8}
TRAIN_SCHEDULE = {"itf_n": 4, "itf_cycles": 1, "eval_every": 3}
GENERATE_TEST = 8                     # half equipped, half pure
EXTRACT_SIZES = {"corpus": 160, "conceptnet": 200_000, "wordnet": 50_000}
PLANT_SHARE = 0.4
# Popularity law of background KB concepts: heads favour frequent words so
# retrieval returns realistic candidate lists, tails are uniform so few
# background triples align by accident.
KB_HEAD_S = 0.3
KB_TAIL_S = 0.0
UNKNOWN_RELATIONS = ("PartOf", "UsedFor", "AtLocation", "Antonym")


def content_word(i: int) -> str:
    """Deterministic synthetic word for content rank ``i``.

    Every 41st type is a number and every 29th is capitalized, so the
    heuristic tagger yields num/number and entity tags as well as
    noun/verb/o; every 9th ends in a verb suffix.
    """
    if i % 41 == 7:
        return str(1000 + i)
    cons, vowels = "bcdfghklmnprstvz", "aeiou"
    n, sylls = i, []
    while True:
        n, r = divmod(n, len(cons) * len(vowels))
        sylls.append(cons[r // len(vowels)] + vowels[r % len(vowels)])
        if n == 0 and len(sylls) >= 2:
            break
    word = "".join(sylls)
    if i % 9 == 4:
        word += "ing"
    if i % 29 == 11:
        word = word.capitalize()
    return word


class Lexicon:
    """Rank-ordered token types with Zipf sampling weights."""

    def __init__(self, stopwords: list[str], n_content: int):
        stop = set(stopwords)
        content = []
        i = 0
        while len(content) < n_content:
            w = content_word(i)
            if w.lower() not in stop:
                content.append(w)
            i += 1
        self.types = list(stopwords) + content
        ranks = np.arange(1, len(self.types) + 1, dtype=np.float64)
        w = 1.0 / (ranks + ZIPF_Q) ** ZIPF_S
        self.cdf = np.cumsum(w / w.sum())
        self.stop = stop

    def draw(self, rng: np.random.Generator, n: int) -> list[str]:
        idx = np.searchsorted(self.cdf, rng.random(n), side="right")
        idx = np.minimum(idx, len(self.types) - 1)
        return [self.types[i] for i in idx]

    def draw_concepts(self, rng: np.random.Generator, n: int, s: float) -> list[str]:
        """Plain content tokens with weight rank**-s among themselves; KB
        concepts use a flatter law than running text."""
        plain = [t for t in self.types if self.is_plain_content(t)]
        w = np.arange(1, len(plain) + 1, dtype=np.float64) ** -s
        idx = np.searchsorted(np.cumsum(w / w.sum()), rng.random(n), side="right")
        return [plain[i] for i in np.minimum(idx, len(plain) - 1)]

    def is_plain_content(self, tok: str) -> bool:
        """Lowercase alphabetic non-stopword: usable as a KB concept."""
        return tok.isalpha() and tok.islower() and tok not in self.stop


def _stopword_list() -> list[str]:
    return sorted(load_stopwords(asset_path(STOPWORDS)))


def _span_choices(tokens: list[str], lex: Lexicon, max_len: int) -> list[tuple[int, int]]:
    """(start, length) of every run of 1..max_len plain content tokens."""
    out = []
    for start in range(len(tokens)):
        for n in range(1, max_len + 1):
            if start + n > len(tokens) or not lex.is_plain_content(tokens[start + n - 1]):
                break
            out.append((start, n))
    return out


def make_sample(rng: np.random.Generator, lex: Lexicon, sid: str, lp: int, lq: int) -> dict:
    """One raw sample with a passage of ``lp`` tokens and a question of
    ``lq`` that copies part of the passage."""
    passage = lex.draw(rng, lp)
    a_len = int(rng.integers(ANSWER_LEN[0], ANSWER_LEN[1] + 1))
    a_start = int(rng.integers(0, lp - a_len + 1))
    n_copy = int(rng.integers(2, lq // 2 + 1))
    c_start = int(rng.integers(0, lp - n_copy + 1))
    filler = lex.draw(rng, lq - n_copy - 2)
    cut = int(rng.integers(0, len(filler) + 1))
    question = ([WH_WORDS[int(rng.integers(len(WH_WORDS)))]] + filler[:cut]
                + passage[c_start:c_start + n_copy] + filler[cut:] + ["?"])
    pos, ner = coarse_tags(passage)
    return {"id": sid, "passage": passage, "answer_span": [a_start, a_start + a_len - 1],
            "pos": pos, "ner": ner, "question": question}


def attach_triples(rng: np.random.Generator, lex: Lexicon, row: dict) -> bool:
    """Give a sample 1-3 aligned triples: head from the passage, tail from
    the question. Returns False when the sample has no usable concepts."""
    heads = _span_choices(row["passage"], lex, 2)
    tails = _span_choices(row["question"], lex, 2)
    if not heads or not tails:
        return False
    triples, seen = [], set()
    for _ in range(int(rng.integers(1, 4))):
        hs, hn = heads[int(rng.integers(len(heads)))]
        ts, tn = tails[int(rng.integers(len(tails)))]
        head = " ".join(row["passage"][hs:hs + hn])
        tail = " ".join(row["question"][ts:ts + tn])
        rel = RELATIONS[int(rng.integers(len(RELATIONS)))]
        if (head, rel, tail) in seen:
            continue
        seen.add((head, rel, tail))
        triples.append({"head": head, "relation": rel, "tail": tail,
                        "swapped": False, "source": "ConceptNet"})
    row["triples"] = triples
    return True


def _stratified(rng: np.random.Generator, lo: int, hi: int, n: int) -> list[int]:
    """``n`` lengths evenly spread over [lo, hi], in random order."""
    return [int(v) for v in rng.permutation(np.round(np.linspace(lo, hi, n)))]


def make_annotated(rng, lex, n: int, prefix: str, equipped: bool, block: int = 16) -> list[dict]:
    """``n`` samples whose lengths are stratified within each run of
    ``block`` consecutive samples, so every training batch (a contiguous
    window) spans the whole length range and pads to the same width on
    every seed."""
    rows = []
    while len(rows) < n:
        size = min(block, n - len(rows))
        for lp, lq in zip(_stratified(rng, *PASSAGE_LEN, size),
                          _stratified(rng, *QUESTION_LEN, size)):
            while True:
                row = make_sample(rng, lex, f"{prefix}{len(rows):05d}", lp, lq)
                if not equipped or attach_triples(rng, lex, row):
                    break
            rows.append(row)
    return rows


def write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")


def write_config(path: Path, settings: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in sorted(settings.items())),
                    encoding="utf-8")


def train_settings(seed: int) -> dict:
    return {**MODEL, **TRAIN_SCHEDULE, "seed": seed}


# -- workloads ------------------------------------------------------------------


def gen_train(seed: int, out: Path, lex: Lexicon) -> dict:
    rng = np.random.default_rng([seed, 1])
    eq = make_annotated(rng, lex, TRAIN_SIZES["equipped"], "e", True)
    pure = make_annotated(rng, lex, TRAIN_SIZES["pure"], "p", False)
    n_dev = TRAIN_SIZES["dev"]
    dev = (make_annotated(rng, lex, n_dev // 2, "de", True, block=n_dev // 2)
           + make_annotated(rng, lex, n_dev - n_dev // 2, "dp", False, block=n_dev // 2))
    write_jsonl(out / "equipped.jsonl", eq)
    write_jsonl(out / "pure.jsonl", pure)
    write_jsonl(out / "dev.jsonl", dev)
    write_config(out / "train.cfg", train_settings(seed))
    return {"config": "train.cfg", "equipped": "equipped.jsonl",
            "pure": "pure.jsonl", "dev": "dev.jsonl"}


def gen_generate(seed: int, out: Path, lex: Lexicon) -> dict:
    """A random-init model directory at the train shape, and a test corpus
    that is half equipped so the knowledge-memory attention runs."""
    rng = np.random.default_rng([seed, 2])
    corpus = (make_annotated(rng, lex, TRAIN_SIZES["equipped"], "e", True)
              + make_annotated(rng, lex, TRAIN_SIZES["pure"], "p", False))
    half = GENERATE_TEST // 2
    test = (make_annotated(rng, lex, half, "te", True, block=half)
            + make_annotated(rng, lex, GENERATE_TEST - half, "tp", False, block=half))
    order = rng.permutation(len(test))
    test = [test[i] for i in order]
    write_jsonl(out / "model_corpus.jsonl", corpus)
    write_jsonl(out / "test.jsonl", test)
    samples = load_dataset(out / "model_corpus.jsonl")
    cfg = Config(**MODEL, seed=MODEL_SEED)
    vocab = build_vocab(samples, max_size=cfg.vocab_size, min_freq=cfg.min_freq)
    tags = build_tag_vocabs(samples)
    params = trainer.build_parameters(cfg, vocab, tags, np.random.default_rng(cfg.seed))
    model = out / "model"
    model.mkdir()
    save_checkpoint(model / "model.bin", params.state_dict())
    (model / "config.json").write_text(
        json.dumps(cfg.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8")
    (model / "vocab.json").write_text(
        json.dumps({"tokens": vocab.id_to_token[len(RESERVED):]}) + "\n", encoding="utf-8")
    (model / "tags.json").write_text(
        json.dumps({k: v.id_to_tag[1:] for k, v in tags.items()}, sort_keys=True) + "\n",
        encoding="utf-8")
    (out / "model_corpus.jsonl").unlink()
    return {"model": "model", "test": "test.jsonl"}


def _relation_forms(rng, rel: str, n: int) -> tuple[list[str], str]:
    """Surface forms to write in ``n`` dumps, and the label the loader should
    map them to: canonical or case-variant names, or unknown names that all
    map to Others."""
    if rel == "Others" or rng.random() < 0.15:
        names = [UNKNOWN_RELATIONS[int(rng.integers(len(UNKNOWN_RELATIONS)))]
                 for _ in range(n)]
        return names, "Others"
    forms = (rel, rel.lower(), rel.upper())
    return [forms[int(rng.integers(3))] for _ in range(n)], rel


def gen_extract(seed: int, out: Path, lex: Lexicon, sizes: dict = EXTRACT_SIZES) -> dict:
    """Raw corpus plus ConceptNet- and WordNet-style dumps with planted
    bridging triples for about PLANT_SHARE of the samples."""
    rng = np.random.default_rng([seed, 3])
    rows = make_annotated(rng, lex, sizes["corpus"], "x", False)
    dumps = {"conceptnet": [], "wordnet": []}
    planted = []
    # Concept pairs of planted triples. No other line may link a pair in
    # either direction: extraction keeps one triple per (head, relation,
    # tail), so a reversed line with the same relation label would be kept
    # in place of the planted one, swapped the other way.
    pairs = set()
    for row in rows:
        if rng.random() >= PLANT_SHARE:
            continue
        p, q = row["passage"], row["question"]
        q_set = set(q)
        reverse = rng.random() < 0.3
        if reverse:
            # KB head: a question token also in the passage; KB tail: a
            # passage concept absent from the question -> kept swapped
            heads = [(i, 1) for i, t in enumerate(q) if lex.is_plain_content(t) and t in p]
            tails = [(s, n) for s, n in _span_choices(p, lex, 2)
                     if not q_set.intersection(p[s:s + n])]
            src_h, src_t = q, p
        else:
            heads = _span_choices(p, lex, 2)
            tails = _span_choices(q, lex, 2)
            src_h, src_t = p, q
        if not heads or not tails:
            continue
        hs, hn = heads[int(rng.integers(len(heads)))]
        ts, tn = tails[int(rng.integers(len(tails)))]
        head = " ".join(src_h[hs:hs + hn])
        tail = " ".join(src_t[ts:ts + tn])
        if frozenset((head, tail)) in pairs:
            continue
        pairs.add(frozenset((head, tail)))
        rel = RELATIONS[int(rng.integers(len(RELATIONS)))]
        where = ("conceptnet", "wordnet", "both")[int(rng.choice(3, p=[0.5, 0.25, 0.25]))]
        names = ("conceptnet", "wordnet") if where == "both" else (where,)
        surfaces, label = _relation_forms(rng, rel, len(names))
        for name, surface in zip(names, surfaces):
            dumps[name].append(f"{head}\t{surface}\t{tail}")
        kept = (tail, label, head) if reverse else (head, label, tail)
        planted.append({"id": row["id"], "triple": list(kept), "swapped": reverse,
                        "where": where})
    # background triples
    for name in ("conceptnet", "wordnet"):
        need = sizes[name] - len(dumps[name])
        heads = lex.draw_concepts(rng, need, KB_HEAD_S)
        tails = lex.draw_concepts(rng, need, KB_TAIL_S)
        extra = rng.random(need)
        rels = rng.integers(len(RELATIONS), size=need)
        lines = dumps[name]
        for i in range(need):
            h, t = heads[i], tails[i]
            if extra[i] < 0.1:
                h = h + " " + tails[(i + 1) % need]
            elif extra[i] > 0.85:
                t = t + " " + heads[(i + 1) % need]
            if frozenset((h, t)) in pairs:
                continue
            lines.append(f"{h}\t{RELATIONS[rels[i]]}\t{t}")
        # duplicate lines and comments, as real dumps have
        for i in range(0, len(lines), 997):
            lines.append(lines[i])
        order = rng.permutation(len(lines))
        body = [lines[i] for i in order]
        for i in range(0, len(body), 5000):
            body.insert(i, f"# {name} shard {i // 5000}")
        (out / f"{name}.tsv").write_text("\n".join(body) + "\n", encoding="utf-8")
    write_jsonl(out / "corpus.jsonl", rows)
    (out / "planted.json").write_text(json.dumps(planted) + "\n", encoding="utf-8")
    return {"corpus": "corpus.jsonl", "conceptnet": "conceptnet.tsv",
            "wordnet": "wordnet.tsv", "planted": "planted.json"}




# -- properties -------------------------------------------------------------------


def properties(workload: str, out: Path, manifest: dict) -> dict:
    """Measure the generated files: lengths, OOV share, copy share, equipped
    share and planted triples."""
    if workload == "train":
        corpora = [manifest["equipped"], manifest["pure"]]
        samples = [s for c in corpora for s in load_dataset(out / c)]
        vocab = build_vocab(samples, max_size=MODEL["vocab_size"])
        vocab_set = set(vocab.id_to_token)
        types = len({t for s in samples for t in s.passage + s.question})
    elif workload == "generate":
        samples = load_dataset(out / manifest["test"])
        model = out / manifest["model"]
        vocab_set = set(json.loads((model / "vocab.json").read_text())["tokens"])
        types = None
    else:
        samples = load_dataset(out / manifest["corpus"])
        vocab_set, types = None, None
    p_tokens = [t for s in samples for t in s.passage]
    q_tokens = [(t, set(s.passage)) for s in samples for t in s.question]
    props = {
        "samples": len(samples),
        "passage_len": [min(len(s.passage) for s in samples), max(len(s.passage) for s in samples)],
        "question_len": [min(len(s.question) for s in samples), max(len(s.question) for s in samples)],
        "answer_len": [min(s.answer_span[1] - s.answer_span[0] + 1 for s in samples),
                       max(s.answer_span[1] - s.answer_span[0] + 1 for s in samples)],
        "question_copied_share": round(sum(t in p for t, p in q_tokens) / len(q_tokens), 4),
        "equipped_share": round(sum(bool(s.triples) for s in samples) / len(samples), 4),
    }
    if vocab_set is not None:
        props["passage_oov_share"] = round(
            sum(t not in vocab_set for t in p_tokens) / len(p_tokens), 4)
    if types is not None:
        props["distinct_types"] = types
        props["vocab_cap_binds"] = types > MODEL["vocab_size"]
    if workload == "extract":
        planted = json.loads((out / manifest["planted"]).read_text())
        props["planted_triples"] = len(planted)
        props["planted_swapped"] = sum(p["swapped"] for p in planted)
        props["planted_in_both_dumps"] = sum(p["where"] == "both" for p in planted)
        for name in ("conceptnet", "wordnet"):
            with open(out / manifest[name], encoding="utf-8") as fh:
                props[f"{name}_lines"] = sum(1 for _ in fh)
    return props


def generate(workload: str, seed: int, out: Path) -> tuple[dict, dict]:
    """Write one workload's inputs under ``out`` (created, must not exist)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True)
    lex = Lexicon(_stopword_list(), N_CONTENT)
    manifest = {"train": gen_train, "generate": gen_generate,
                "extract": gen_extract}[workload](seed, out, lex)
    props = properties(workload, out, manifest)
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return manifest, props


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to create")
    args = ap.parse_args(argv)
    _, props = generate(args.workload, args.seed, Path(args.out))
    print(json.dumps(props, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
