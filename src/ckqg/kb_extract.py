"""Knowledge triple retrieval and alignment filtering.

Triples come from tab-separated KB dumps. For a (passage, question) pair we
keep exactly the triples that bridge the two: the KB head occurs
contiguously in the passage and the KB tail in the question, or the reverse
(KB tail in the passage, KB head in the question), in which case head and
tail are swapped so the stored head is the passage-side concept. A triple
whose KB head is made only of stopwords is never kept. Retrieval finds these
triples by exact lookup of n-grams in an index keyed by whole head concepts:
passage n-grams for forward matches, question n-grams for reversed ones.
A corpus is annotated against stores that hold only the triples made of its
own tokens, the only ones that can bridge any of its samples. Matching is
surface-form, with no lemmatization. Only KB concepts are normalized
(lowercased, surrounding punctuation stripped); corpus tokens are matched
as given, so they must already be normalized the same way.
"""

from __future__ import annotations

import string
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from pathlib import Path

from .textio import open_text

RELATIONS = ("Synonymy", "RelatedTo", "IsA", "Hypernymy", "Hyponymy", "Others")
RELATION_IDS = {r: i for i, r in enumerate(RELATIONS)}
SOURCES = ("ConceptNet", "WordNet")

_CANONICAL = {r.lower(): r for r in RELATIONS[:-1]}


class KBParseError(ValueError):
    pass


def normalize_relation(raw: str) -> str:
    """Map a raw relation string onto the six labels; unknown → Others."""
    return _CANONICAL.get(raw.strip().lower(), "Others")


def normalize_token(token: str) -> str:
    return token.lower().strip(string.punctuation)


def concept_tokens(concept: str) -> tuple[str, ...]:
    """Normalized token sequence of a (possibly multi-word) concept."""
    return tuple(t for t in (normalize_token(p) for p in concept.split()) if t)


@dataclass(frozen=True, slots=True)
class KnowledgeTriple:
    head: str
    relation: str
    tail: str
    source: str


@dataclass(frozen=True)
class AlignedTriple:
    """A kept triple with its match locations.

    head_positions index into the passage, tail_positions into the question;
    swapped records that the stored orientation reverses the KB entry.
    """
    triple: KnowledgeTriple
    head_positions: tuple[int, ...]
    tail_positions: tuple[int, ...]
    swapped: bool = False


class TripleStore:
    """Deduplicated triples plus a whole-concept index.

    Read-only after loading. ``by_head`` maps a concept's normalized token
    tuple to the ids of the triples that have it as KB head, in store order;
    ``tail_tokens`` holds each triple's tail tuple by id. ``max_concept_len``
    is the longest stored concept in tokens, which bounds the n-grams
    retrieval has to look up.

    A store loaded with a vocabulary holds only the triples whose concepts
    are made of its tokens, in the order of the full dump. For text made of
    those tokens it retrieves what the full store does: every triple that
    can match is stored, and ``max_concept_len`` still covers each of them.
    """

    def __init__(self):
        self.triples: list[KnowledgeTriple] = []
        self._seen: set[KnowledgeTriple] = set()
        self.by_head: dict[tuple[str, ...], list[int]] = {}
        self.tail_tokens: list[tuple[str, ...]] = []
        self.max_concept_len = 0

    def __len__(self) -> int:
        return len(self.triples)

    def add(self, triple: KnowledgeTriple, head_tokens: tuple[str, ...],
            tail_tokens: tuple[str, ...]) -> None:
        """Append a triple unless already present. The token tuples are
        ``concept_tokens`` of its head and tail."""
        n_seen = len(self._seen)
        self._seen.add(triple)   # one hash per line: the set grows iff triple is new
        if len(self._seen) == n_seen:
            return
        tid = len(self.triples)
        self.triples.append(triple)
        self.tail_tokens.append(tail_tokens)
        self.by_head.setdefault(head_tokens, []).append(tid)
        self.max_concept_len = max(self.max_concept_len, len(head_tokens), len(tail_tokens))


def load_knowledge_base(path: str | Path, source: str,
                        vocabulary: AbstractSet[str] | None = None) -> TripleStore:
    """Parse a `head<TAB>relation<TAB>tail` dump into a TripleStore.

    Lines starting with '#' and blank lines are skipped. A line with the
    wrong field count, or one whose head or tail is empty after
    normalization, is a parse error reported with its line number.

    With a ``vocabulary`` of normalized tokens, every line is still parsed
    and checked, but a triple is stored only if every token of its head and
    tail is in the vocabulary. Scoped to the tokens of a corpus, the store
    extracts exactly what the full one does for that corpus: retrieval only
    returns triples whose head and tail are n-grams of the passage or the
    question, so every such triple is kept, and the kept ones keep their
    relative order and first-occurrence dedup.

    Each distinct raw concept string is tokenized once, and all triples
    naming it share one normalized string and one token tuple; each distinct
    raw relation string is normalized once.
    """
    if source not in SOURCES:
        raise ValueError(f"unknown KB source '{source}'")
    store = TripleStore()
    # raw concept -> (normalized string, token tuple, all tokens in vocabulary)
    concepts: dict[str, tuple[str, tuple[str, ...], bool]] = {}
    relations: dict[str, str] = {}

    def concept(raw: str) -> tuple[str, tuple[str, ...], bool]:
        toks = concept_tokens(raw)
        in_vocab = vocabulary is None or all(t in vocabulary for t in toks)
        hit = concepts[raw] = (" ".join(toks), toks, in_vocab)
        return hit

    with open_text(path, KBParseError) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise KBParseError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
            raw_head, raw_rel, raw_tail = fields
            head, head_toks, head_in = concepts.get(raw_head) or concept(raw_head)
            tail, tail_toks, tail_in = concepts.get(raw_tail) or concept(raw_tail)
            if not head or not tail:
                raise KBParseError(f"{path}:{lineno}: empty concept after normalization")
            if head_in and tail_in:
                rel = relations.get(raw_rel)
                if rel is None:
                    rel = relations[raw_rel] = normalize_relation(raw_rel)
                store.add(KnowledgeTriple(head, rel, tail, source), head_toks, tail_toks)
    return store


def load_stopwords(path: str | Path) -> frozenset[str]:
    words = set()
    with open_text(path, KBParseError) as fh:
        for line in fh:
            word = line.strip()
            if word and not word.startswith("#"):
                words.add(word)
    return frozenset(words)


def _ngrams(tokens: list[str], max_len: int) -> set[tuple[str, ...]]:
    """Every contiguous token tuple of length 1..max_len."""
    return {tuple(tokens[i:i + n]) for n in range(1, max_len + 1)
            for i in range(len(tokens) - n + 1)}


def retrieve_candidates(passage_tokens: list[str], question_tokens: list[str],
                        stopwords: frozenset[str],
                        store: TripleStore) -> list[KnowledgeTriple]:
    """The triples that bridge passage and question in either orientation.

    Forward: the KB head is a passage n-gram and the KB tail a question
    n-gram. Reverse: the KB head is a question n-gram and the KB tail a
    passage n-gram, so it is the same lookup with the two sides exchanged.
    Only triples whose KB head has a non-stop token are returned; a
    stopword-only tail is still found. Tokens must already be normalized the
    same way the store was built (lowercase, punctuation-stripped). Result
    order is store insertion order.
    """
    p_grams = _ngrams(passage_tokens, store.max_concept_len)
    q_grams = _ngrams(question_tokens, store.max_concept_len)
    hits: set[int] = set()
    for head_side, tail_side in ((p_grams, q_grams), (q_grams, p_grams)):
        for gram in head_side:
            if all(tok in stopwords for tok in gram):
                continue
            for tid in store.by_head.get(gram, ()):
                if store.tail_tokens[tid] in tail_side:
                    hits.add(tid)
    return [store.triples[i] for i in sorted(hits)]


def find_span(needle: tuple[str, ...], haystack: list[str]) -> tuple[int, ...] | None:
    """Indices of the first contiguous occurrence of needle, or None."""
    n = len(needle)
    if n == 0 or n > len(haystack):
        return None
    for start in range(len(haystack) - n + 1):
        if tuple(haystack[start:start + n]) == needle:
            return tuple(range(start, start + n))
    return None


def align_filter(candidates: list[KnowledgeTriple], passage_tokens: list[str],
                 question_tokens: list[str]) -> list[AlignedTriple]:
    """Keep triples bridging passage and question.

    A candidate survives iff its head occurs contiguously in the passage and
    its tail occurs contiguously in the question. When the reverse holds
    (head in question, tail in passage) the triple is kept with head and
    tail swapped so the stored head is always the passage-side concept.
    """
    kept: list[AlignedTriple] = []
    for cand in candidates:
        head_toks = concept_tokens(cand.head)
        tail_toks = concept_tokens(cand.tail)
        hp = find_span(head_toks, passage_tokens)
        tp = find_span(tail_toks, question_tokens)
        if hp is not None and tp is not None:
            kept.append(AlignedTriple(cand, hp, tp, swapped=False))
            continue
        hp = find_span(tail_toks, passage_tokens)
        tp = find_span(head_toks, question_tokens)
        if hp is not None and tp is not None:
            flipped = KnowledgeTriple(cand.tail, cand.relation, cand.head, cand.source)
            kept.append(AlignedTriple(flipped, hp, tp, swapped=True))
    return kept


def select_training_triple(aligned: list[AlignedTriple]) -> AlignedTriple | None:
    """Pick the triple to train on: Synonymy first, then the label order,
    with list position breaking ties."""
    if not aligned:
        return None
    return min(enumerate(aligned),
               key=lambda it: (RELATION_IDS[it[1].triple.relation], it[0]))[1]


def extract_for_sample(passage_tokens: list[str], question_tokens: list[str],
                       stopwords: frozenset[str],
                       stores: list[TripleStore]) -> list[AlignedTriple]:
    """Retrieve + filter against each store, in order, keeping the first
    occurrence per (head, relation, tail). The key ignores source, so the
    same fact from both KBs collapses to the first store's."""
    merged: list[AlignedTriple] = []
    seen: set[tuple[str, str, str]] = set()
    for store in stores:
        cands = retrieve_candidates(passage_tokens, question_tokens, stopwords, store)
        for item in align_filter(cands, passage_tokens, question_tokens):
            key = (item.triple.head, item.triple.relation, item.triple.tail)
            if key not in seen:
                seen.add(key)
                merged.append(item)
    return merged


def annotate_corpus(samples, stopwords: frozenset[str],
                    dumps: list[tuple[str | Path, str]]) -> None:
    """Set each sample's ``triples`` to its extraction against the
    ``(path, source)`` dumps, in that order. Each dump is loaded scoped to
    the corpus's passage and question tokens, which gives the same triples
    as the full dump (see ``load_knowledge_base``). Those tokens are used as
    given, so they must already be normalized as KB concepts are."""
    vocabulary = {tok for s in samples for tok in (*s.passage, *s.question)}
    stores = [load_knowledge_base(path, source, vocabulary) for path, source in dumps]
    for s in samples:
        s.triples[:] = extract_for_sample(s.passage, s.question, stopwords, stores)


def partition_dataset(samples):
    """Split into (equipped, pure): equipped samples carry ≥1 aligned triple.

    Accepts any objects with a `triples` attribute; relative order kept.
    """
    equipped = [s for s in samples if s.triples]
    pure = [s for s in samples if not s.triples]
    return equipped, pure


@dataclass
class StatsReport:
    total_samples: int
    equipped_count: int
    pure_count: int
    equipped_fraction: float
    triples_per_equipped_sample: float
    relation_histogram: dict[str, float]


def stats_report(equipped, pure) -> StatsReport:
    total = len(equipped) + len(pure)
    counts = {r: 0 for r in RELATIONS}
    n_triples = 0
    for s in equipped:
        for item in s.triples:
            counts[item.triple.relation] += 1
            n_triples += 1
    hist = {r: (counts[r] / n_triples if n_triples else 0.0) for r in RELATIONS}
    return StatsReport(
        total_samples=total,
        equipped_count=len(equipped),
        pure_count=len(pure),
        equipped_fraction=(len(equipped) / total if total else 0.0),
        triples_per_equipped_sample=(
            sum(len(s.triples) for s in equipped) / len(equipped) if equipped else 0.0),
        relation_histogram=hist,
    )
