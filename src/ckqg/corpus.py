"""Dataset loading, vocabulary construction, and padded batch assembly.

Input is JSONL with pre-tokenized fields: `passage: [str]`,
`answer_span: [start, end]` (inclusive), `pos: [str]`, `ner: [str]`,
`question: [str]`, and optionally `triples: [{head, relation, tail, swapped,
source?}]` as produced by the extraction step. Copy handling uses an
extended vocabulary: each sample's out-of-vocabulary passage tokens get ids
vocab_size+0, vocab_size+1, ... in first-occurrence order, and question or
tail tokens that are OOV but copyable from the passage carry those ids.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kb_extract as kb
from .kb_extract import AlignedTriple, KnowledgeTriple
from .textio import read_jsonl

PAD, UNK, BOS, EOS = 0, 1, 2, 3
RESERVED = ("<pad>", "<unk>", "<bos>", "<eos>")


class ValidationError(ValueError):
    pass


def coarse_tags(tokens: list[str]) -> tuple[list[str], list[str]]:
    """Heuristic POS/NER tags for synthetic data generation only.

    Real corpora must ship their own tags; this exists so toy fixtures do
    not need an external tagger.
    """
    pos, ner = [], []
    for tok in tokens:
        if tok.isdigit():
            pos.append("num")
            ner.append("number")
        elif re.search(r"(ing|ed|ize|ate)$", tok.lower()) and len(tok) > 4:
            pos.append("verb")
            ner.append("o")
        else:
            pos.append("noun")
            ner.append("entity" if tok[:1].isupper() else "o")
    return pos, ner


@dataclass
class TrainingSample:
    passage: list[str]
    answer_span: tuple[int, int]
    pos_tags: list[str]
    ner_tags: list[str]
    question: list[str]
    triples: list[AlignedTriple] = field(default_factory=list)
    sample_id: str | None = None

    def validate(self) -> None:
        n = len(self.passage)
        if n == 0:
            raise ValidationError("empty passage")
        if len(self.pos_tags) != n or len(self.ner_tags) != n:
            raise ValidationError(
                f"tag lists must align with passage: {len(self.pos_tags)}/{len(self.ner_tags)} vs {n}")
        start, end = self.answer_span
        if not (0 <= start <= end < n):
            raise ValidationError(f"answer span {self.answer_span} out of range for length {n}")
        if not self.question:
            raise ValidationError("empty question")


def bio_from_span(passage_len: int, span: tuple[int, int]) -> list[str]:
    """B at span start, I through span end, O elsewhere."""
    start, end = span
    if not (0 <= start <= end < passage_len):
        raise ValidationError(f"span {span} out of range for length {passage_len}")
    tags = ["O"] * passage_len
    tags[start] = "B"
    for i in range(start + 1, end + 1):
        tags[i] = "I"
    return tags


class Vocabulary:
    """Token/id bijection with PAD=0, UNK=1, BOS=2, EOS=3 reserved."""

    def __init__(self, tokens: list[str]):
        self.id_to_token = list(RESERVED) + [t for t in tokens if t not in RESERVED]
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValidationError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def encode(self, token: str) -> int:
        return self.token_to_id.get(token, UNK)

    def decode(self, idx: int, oov_tokens: list[str] | None = None) -> str:
        if idx < len(self.id_to_token):
            return self.id_to_token[idx]
        if oov_tokens is not None and idx - len(self.id_to_token) < len(oov_tokens):
            return oov_tokens[idx - len(self.id_to_token)]
        raise ValidationError(f"id {idx} outside vocabulary and OOV list")

    def decode_ids(self, ids, oov_tokens: list[str] | None = None) -> list[str]:
        return [self.decode(int(i), oov_tokens) for i in ids]


class TagVocab:
    """Closed tag set with PAD=0; unknown tags are an error, not UNK."""

    def __init__(self, tags: list[str]):
        self.id_to_tag = ["<pad>"] + list(tags)
        self.tag_to_id = {t: i for i, t in enumerate(self.id_to_tag)}

    def __len__(self) -> int:
        return len(self.id_to_tag)

    def encode(self, tag: str) -> int:
        try:
            return self.tag_to_id[tag]
        except KeyError:
            raise ValidationError(f"unknown tag '{tag}'") from None


BIO_TAGS = ("O", "B", "I")


def build_vocab(samples: list[TrainingSample], max_size: int = 5000,
                min_freq: int = 1) -> Vocabulary:
    """Most frequent passage+question tokens; ties broken lexicographically."""
    if max_size <= len(RESERVED):
        raise ValidationError(f"max_size must exceed {len(RESERVED)}")
    counts = Counter()
    for s in samples:
        counts.update(s.passage)
        counts.update(s.question)
    ranked = sorted((t for t, c in counts.items() if c >= min_freq),
                    key=lambda t: (-counts[t], t))
    return Vocabulary(ranked[:max_size - len(RESERVED)])


def build_tag_vocabs(samples: list[TrainingSample]) -> dict[str, TagVocab]:
    pos = sorted({t for s in samples for t in s.pos_tags})
    ner = sorted({t for s in samples for t in s.ner_tags})
    return {"bio": TagVocab(list(BIO_TAGS)), "pos": TagVocab(pos), "ner": TagVocab(ner)}


@dataclass
class Batch:
    """Padded id arrays for one batch; triple fields are None for batches
    drawn from the pure (no-triple) partition."""
    passage_ids: np.ndarray          # [B, Lp]
    bio_ids: np.ndarray              # [B, Lp]
    pos_ids: np.ndarray              # [B, Lp]
    ner_ids: np.ndarray              # [B, Lp]
    passage_lengths: np.ndarray      # [B]
    copy_ids: np.ndarray             # [B, Lp] extended-vocab ids of source tokens
    question_ids: np.ndarray         # [B, Lq] BOS ... EOS, extended ids for copyable OOV
    question_lengths: np.ndarray     # [B] including BOS and EOS
    oov_tokens: list[list[str]]      # per-sample OOV surface forms, id = V + index
    extended_size: int               # vocab size + max OOV count in batch
    head_ids: np.ndarray | None = None       # [B, Lh]
    head_lengths: np.ndarray | None = None   # [B]
    relation_ids: np.ndarray | None = None   # [B]
    tail_ids: np.ndarray | None = None       # [B, Lt] encoder-side, OOV -> UNK
    tail_lengths: np.ndarray | None = None   # [B]
    tail_gen_ids: np.ndarray | None = None   # [B, Lt+2] BOS ... EOS, extended ids
    tail_gen_lengths: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.passage_ids.shape[0]

    @property
    def has_triples(self) -> bool:
        return self.head_ids is not None


def pad_rows(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id rows with PAD to the longest; returns (ids, lengths)."""
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    out = np.full((len(rows), int(lengths.max())), PAD, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out, lengths


def _target_ids(tokens: list[str], vocab: Vocabulary, oov: list[str]) -> list[int]:
    """BOS, then each token's vocabulary id, or its extended id when it is
    unknown but copyable from the sample's passage (listed in ``oov``), then EOS."""
    ids = [BOS]
    for tok in tokens:
        idx = vocab.encode(tok)
        if idx == UNK and tok in oov:
            idx = len(vocab) + oov.index(tok)
        ids.append(idx)
    ids.append(EOS)
    return ids


def encode_batch(samples: list[TrainingSample], vocab: Vocabulary,
                 tag_vocabs: dict[str, TagVocab]) -> Batch:
    """Assemble one padded batch.

    Triple-equipped and triple-free samples cannot be mixed: the training
    schedule draws batches from one partition at a time, and a half-filled
    knowledge memory has no meaning.
    """
    if not samples:
        raise ValidationError("empty batch")
    for s in samples:
        s.validate()
    with_triples = [bool(s.triples) for s in samples]
    if any(with_triples) and not all(with_triples):
        raise ValidationError("batch mixes triple-equipped and triple-free samples")

    voc_size = len(vocab)
    passage_rows, copy_rows, bio_rows, pos_rows, ner_rows = [], [], [], [], []
    question_rows = []
    oov_lists: list[list[str]] = []
    for s in samples:
        oov: list[str] = []
        p_ids, c_ids = [], []
        for tok in s.passage:
            idx = vocab.encode(tok)
            p_ids.append(idx)
            if idx == UNK:
                if tok not in oov:
                    oov.append(tok)
                c_ids.append(voc_size + oov.index(tok))
            else:
                c_ids.append(idx)
        passage_rows.append(p_ids)
        copy_rows.append(c_ids)
        oov_lists.append(oov)
        bio = bio_from_span(len(s.passage), s.answer_span)
        bio_rows.append([tag_vocabs["bio"].encode(t) for t in bio])
        pos_rows.append([tag_vocabs["pos"].encode(t) for t in s.pos_tags])
        ner_rows.append([tag_vocabs["ner"].encode(t) for t in s.ner_tags])
        question_rows.append(_target_ids(s.question, vocab, oov))

    passage_ids, passage_lengths = pad_rows(passage_rows)
    question_ids, question_lengths = pad_rows(question_rows)
    batch = Batch(
        passage_ids=passage_ids,
        bio_ids=pad_rows(bio_rows)[0],
        pos_ids=pad_rows(pos_rows)[0],
        ner_ids=pad_rows(ner_rows)[0],
        passage_lengths=passage_lengths,
        copy_ids=pad_rows(copy_rows)[0],
        question_ids=question_ids,
        question_lengths=question_lengths,
        oov_tokens=oov_lists,
        extended_size=voc_size + max(len(o) for o in oov_lists),
    )

    if all(with_triples):
        head_rows, tail_rows, tail_gen_rows, rel_ids = [], [], [], []
        for s, oov in zip(samples, oov_lists):
            chosen = kb.select_training_triple(s.triples)
            head_toks = chosen.triple.head.split()
            tail_toks = chosen.triple.tail.split()
            head_rows.append([vocab.encode(t) for t in head_toks])
            tail_rows.append([vocab.encode(t) for t in tail_toks])
            rel_ids.append(kb.RELATION_IDS[chosen.triple.relation])
            tail_gen_rows.append(_target_ids(tail_toks, vocab, oov))
        batch.head_ids, batch.head_lengths = pad_rows(head_rows)
        batch.relation_ids = np.array(rel_ids, dtype=np.int64)
        batch.tail_ids, batch.tail_lengths = pad_rows(tail_rows)
        batch.tail_gen_ids, batch.tail_gen_lengths = pad_rows(tail_gen_rows)
    return batch


def is_str_list(value) -> bool:
    """True for a list of strings; str.join checks the elements at C speed."""
    try:
        "".join(value)
    except TypeError:
        return False
    return type(value) is list


def _check_field_types(raw, where: str) -> None:
    """Reject wrong-typed sample fields; missing ones are reported later."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: sample must be a JSON object")
    for key in ("passage", "pos", "ner", "question"):
        if not is_str_list(raw.get(key, [])):
            raise ValidationError(f"{where}: '{key}' must be a list of strings")
    span = raw.get("answer_span", [0, 0])
    if not (isinstance(span, list) and len(span) == 2
            and all(type(i) is int for i in span)):
        raise ValidationError(f"{where}: 'answer_span' must be two integers")
    triples = raw.get("triples", [])
    if type(triples) is not list or not all(
            type(t) is dict and all(type(t.get(k)) is str
                                    for k in ("head", "relation", "tail"))
            and type(t.get("source", "")) is str
            and type(t.get("swapped", False)) is bool
            for t in triples):
        raise ValidationError(f"{where}: 'triples' must be a list of objects "
                              "with string head, relation and tail, and an "
                              "optional string source and boolean swapped")


def _triple_from_json(raw: dict, passage: list[str], question: list[str],
                      where: str) -> AlignedTriple:
    head, relation, tail = raw["head"], raw["relation"], raw["tail"]
    if relation not in kb.RELATION_IDS:
        raise ValidationError(f"{where}: unknown relation '{relation}'")
    hp = kb.find_span(tuple(head.split()), passage)
    tp = kb.find_span(tuple(tail.split()), question)
    if hp is None or tp is None:
        raise ValidationError(
            f"{where}: triple ({head!r}, {relation}, {tail!r}) does not align with its sample")
    triple = KnowledgeTriple(head, relation, tail, raw.get("source", "ConceptNet"))
    return AlignedTriple(triple, hp, tp, raw.get("swapped", False))


def load_dataset(path: str | Path) -> list[TrainingSample]:
    """Read a JSONL dataset, validating every sample."""
    samples = []
    for where, raw in read_jsonl(path, ValidationError):
        _check_field_types(raw, where)
        try:
            sample = TrainingSample(
                passage=list(raw["passage"]),
                answer_span=tuple(raw["answer_span"]),
                pos_tags=list(raw["pos"]),
                ner_tags=list(raw["ner"]),
                question=list(raw["question"]),
                sample_id=raw.get("id"),
            )
        except KeyError as exc:
            raise ValidationError(f"{where}: missing field {exc}") from None
        try:
            sample.validate()
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
        for t in raw.get("triples", []):
            sample.triples.append(
                _triple_from_json(t, sample.passage, sample.question, where))
        samples.append(sample)
    return samples


def save_dataset(path: str | Path, samples: list[TrainingSample]) -> None:
    """Write samples back to JSONL, including any attached triples."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            row = {
                "passage": s.passage,
                "answer_span": list(s.answer_span),
                "pos": s.pos_tags,
                "ner": s.ner_tags,
                "question": s.question,
            }
            if s.sample_id is not None:
                row["id"] = s.sample_id
            if s.triples:
                row["triples"] = [
                    {"head": a.triple.head, "relation": a.triple.relation,
                     "tail": a.triple.tail, "swapped": a.swapped,
                     "source": a.triple.source}
                    for a in s.triples
                ]
            fh.write(json.dumps(row) + "\n")
