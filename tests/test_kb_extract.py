"""Triple parsing, retrieval, alignment filtering, merging, and stats."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckqg import kb_extract as kb
from ckqg.assets import KB_CONCEPTNET, KB_WORDNET, MINI_CORPUS, STOPWORDS, asset_path
from ckqg.corpus import load_dataset

from oracles import brute_force_extract, contains_contiguous


def make_store(*rows, source="ConceptNet"):
    store = kb.TripleStore()
    for head, rel, tail in rows:
        store.add(kb.KnowledgeTriple(head, rel, tail, source),
                  kb.concept_tokens(head), kb.concept_tokens(tail))
    return store


# ---------------------------------------------------------------------------
# parsing


def test_load_single_line(tmp_path):
    f = tmp_path / "kb.tsv"
    f.write_text("council\tRelatedTo\tgoverning\n")
    store = kb.load_knowledge_base(f, "ConceptNet")
    assert store.triples == [kb.KnowledgeTriple("council", "RelatedTo", "governing", "ConceptNet")]


def test_load_empty_file(tmp_path):
    f = tmp_path / "kb.tsv"
    f.write_text("")
    assert len(kb.load_knowledge_base(f, "WordNet")) == 0


def test_load_dedups_repeated_lines(tmp_path):
    f = tmp_path / "kb.tsv"
    f.write_text("dog\tIsA\tanimal\ndog\tIsA\tanimal\n")
    assert len(kb.load_knowledge_base(f, "ConceptNet")) == 1


def test_load_skips_comments_and_blanks(tmp_path):
    f = tmp_path / "kb.tsv"
    f.write_text("# header\n\ndog\tIsA\tanimal\n  \n")
    assert len(kb.load_knowledge_base(f, "ConceptNet")) == 1


def test_load_reports_malformed_line_number(tmp_path):
    f = tmp_path / "kb.tsv"
    f.write_text("dog\tIsA\tanimal\nno tabs here\n")
    # the bad line's tokens are outside the vocabulary: it is checked anyway
    for vocabulary in (None, {"dog", "animal"}, set()):
        with pytest.raises(kb.KBParseError, match=r":2:"):
            kb.load_knowledge_base(f, "ConceptNet", vocabulary)


def test_load_rejects_empty_concept(tmp_path):
    f = tmp_path / "kb.tsv"
    f.write_text("...\tIsA\tanimal\n")
    with pytest.raises(kb.KBParseError, match=r":1:"):
        kb.load_knowledge_base(f, "ConceptNet")
    # an empty head or tail beside an out-of-vocabulary concept
    f.write_text("dog\tIsA\tanimal\nzebra\tIsA\t!!\n")
    for vocabulary in ({"dog", "animal"}, set()):
        with pytest.raises(kb.KBParseError, match=r":2: empty concept"):
            kb.load_knowledge_base(f, "ConceptNet", vocabulary)
    f.write_text("\"\tIsA\tzebra\n")
    with pytest.raises(kb.KBParseError, match=r":1: empty concept"):
        kb.load_knowledge_base(f, "ConceptNet", {"dog"})


def test_load_rejects_unknown_source(tmp_path):
    f = tmp_path / "kb.tsv"
    f.write_text("dog\tIsA\tanimal\n")
    with pytest.raises(ValueError, match="source"):
        kb.load_knowledge_base(f, "Wikidata")


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        kb.load_knowledge_base(tmp_path / "absent.tsv", "ConceptNet")


def test_relation_normalization():
    assert kb.normalize_relation("synonymy") == "Synonymy"
    assert kb.normalize_relation("RELATEDTO") == "RelatedTo"
    assert kb.normalize_relation(" IsA ") == "IsA"
    assert kb.normalize_relation("AtLocation") == "Others"
    assert kb.normalize_relation("UsedFor") == "Others"
    assert set(kb.RELATIONS) == {
        "Synonymy", "RelatedTo", "IsA", "Hypernymy", "Hyponymy", "Others"}


def test_concept_normalization(tmp_path):
    f = tmp_path / "kb.tsv"
    f.write_text("Legislative  Bodies,\thypernymy\tParliament.\n")
    store = kb.load_knowledge_base(f, "WordNet")
    t = store.triples[0]
    assert (t.head, t.tail) == ("legislative bodies", "parliament")
    # heads are indexed, and tails kept, as normalized token tuples
    assert store.by_head == {("legislative", "bodies"): [0]}
    assert store.tail_tokens == [("parliament",)]
    assert store.max_concept_len == 2


# ---------------------------------------------------------------------------
# retrieval


COUNCIL_STORE_ROWS = (
    ("council", "RelatedTo", "governing"),
    ("council", "RelatedTo", "city"),
    ("council", "Synonymy", "assembly"),
    ("dog", "IsA", "animal"),
)
COUNCIL_STORE = make_store(*COUNCIL_STORE_ROWS)


def test_retrieve_all_triples_for_matching_token():
    # forward hits only: the head is in the passage, the tail in the question
    got = kb.retrieve_candidates(["the", "council", "voted"], ["which", "city", "assembly"],
                                 frozenset({"the"}), COUNCIL_STORE)
    assert [t.tail for t in got] == ["city", "assembly"]


def test_retrieve_stopword_only_passage_is_empty():
    # a KB head made only of stopwords is never returned, in either orientation
    stops = frozenset({"the", "council"})
    assert kb.retrieve_candidates(["the", "council"], ["governing"], stops, COUNCIL_STORE) == []
    assert kb.retrieve_candidates(["governing"], ["the", "council"], stops, COUNCIL_STORE) == []


def test_retrieve_unindexed_words_contribute_nothing():
    assert kb.retrieve_candidates(["platypus"], ["council"], frozenset(), COUNCIL_STORE) == []
    # a head in the passage whose tail is not in the question bridges nothing
    assert kb.retrieve_candidates(["council"], ["platypus"], frozenset(), COUNCIL_STORE) == []


def test_retrieve_order_is_store_insertion_order():
    store = make_store(("b", "IsA", "x"), ("y", "IsA", "a"), ("b", "Synonymy", "z"))
    # forward hits for "b" and a reverse hit for "y"-"a" come in store order,
    # not in the passage's order
    got = kb.retrieve_candidates(["a", "b"], ["x", "y", "z"], frozenset(), store)
    assert [(t.head, t.tail) for t in got] == [("b", "x"), ("y", "a"), ("b", "z")]


def test_retrieve_matches_brute_force_scan():
    store = make_store(*COUNCIL_STORE_ROWS, ("governing", "RelatedTo", "the council"),
                       ("the", "IsA", "dog"), ("slept", "RelatedTo", "the"))
    passage = ["the", "council", "dog", "slept"]
    question = ["governing", "the", "city", "animal"]
    stops = frozenset({"the"})
    got = kb.retrieve_candidates(passage, question, stops, store)
    want = [t for t in store.triples
            if any(tok not in stops for tok in t.head.split())
            and ((contains_contiguous(t.head, passage) and contains_contiguous(t.tail, question))
                 or (contains_contiguous(t.tail, passage)
                     and contains_contiguous(t.head, question)))]
    assert got == want
    assert [(t.head, t.tail) for t in got] == [
        ("council", "governing"), ("council", "city"), ("dog", "animal"),
        ("governing", "the council"), ("slept", "the")]


# ---------------------------------------------------------------------------
# the reversed match whose KB head is absent from the passage


def test_reversed_match_with_head_absent_from_passage_is_kept(tmp_path):
    f = tmp_path / "kb.tsv"
    f.write_text("animal\tRelatedTo\tcat\n")
    store = kb.load_knowledge_base(f, "ConceptNet")
    stops = kb.load_stopwords(asset_path(STOPWORDS))
    got = kb.extract_for_sample(["the", "cat", "sat"], ["what", "animal", "sat"], stops, [store])
    assert got == [kb.AlignedTriple(kb.KnowledgeTriple("cat", "RelatedTo", "animal", "ConceptNet"),
                                    swapped=True)]


def test_reversed_match_with_stopword_only_tail_is_kept():
    # KB tail "the" is all stopwords but sits in the passage; the head is in
    # the question only
    store = make_store(("sleepy", "RelatedTo", "the"))
    got = kb.extract_for_sample(["the", "cat"], ["is", "it", "sleepy"], frozenset({"the", "is", "it"}),
                                [store])
    assert [(a.triple.head, a.triple.tail, a.swapped) for a in got] == [("the", "sleepy", True)]


def test_stopword_only_head_is_never_kept():
    store = make_store(("the", "RelatedTo", "cat"), ("of the", "IsA", "sat"))
    stops = frozenset({"the", "of"})
    # forward: KB head in the passage, KB tail in the question
    assert kb.extract_for_sample(["of", "the", "mat"], ["cat", "sat"], stops, [store]) == []
    # reverse: KB tail in the passage, KB head in the question
    assert kb.extract_for_sample(["cat", "sat"], ["of", "the", "mat"], stops, [store]) == []
    # the same lines bridge once no stopwords are given
    assert len(kb.extract_for_sample(["of", "the", "mat"], ["cat", "sat"], frozenset(),
                                     [store])) == 2


# ---------------------------------------------------------------------------
# alignment filter


def test_find_span():
    assert kb.find_span(("b",), ["a", "b", "c"]) == (1,)
    assert kb.find_span(("b", "c"), ["a", "b", "c"]) == (1, 2)
    assert kb.find_span(("c", "b"), ["a", "b", "c"]) is None
    assert kb.find_span((), ["a"]) is None
    assert kb.find_span(("a", "b"), ["a"]) is None


def test_align_keeps_only_bridging_triple():
    passage = "the european parliament and the council have power".split()
    question = "which governing bodies have legislative veto power ?".split()
    got = kb.align_filter(COUNCIL_STORE.triples[:3], passage, question)
    assert len(got) == 1
    assert got[0].triple == kb.KnowledgeTriple("council", "RelatedTo", "governing", "ConceptNet")
    assert not got[0].swapped


def test_align_swaps_reversed_orientation():
    cand = [kb.KnowledgeTriple("governing", "RelatedTo", "council", "ConceptNet")]
    got = kb.align_filter(cand, ["the", "council"], ["governing", "what"])
    assert len(got) == 1
    assert got[0].triple.head == "council"
    assert got[0].triple.tail == "governing"
    assert got[0].swapped


def test_align_empty_candidates():
    assert kb.align_filter([], ["a"], ["b"]) == []


def test_align_multiword_must_be_contiguous():
    cand = [kb.KnowledgeTriple("parliament", "Hypernymy", "legislative bodies", "ConceptNet")]
    q_split = "which governing bodies have legislative veto power ?".split()
    assert kb.align_filter(cand, ["parliament"], q_split) == []
    q_contig = "which legislative bodies have veto power ?".split()
    got = kb.align_filter(cand, ["parliament"], q_contig)
    assert got == [kb.AlignedTriple(cand[0], swapped=False)]


def test_align_prefers_unswapped_when_both_fit():
    cand = [kb.KnowledgeTriple("light", "RelatedTo", "lamp", "ConceptNet")]
    got = kb.align_filter(cand, ["light", "lamp"], ["light", "lamp"])
    assert len(got) == 1 and not got[0].swapped


# ---------------------------------------------------------------------------
# merge / selection / partition / stats


def _aligned(head, rel, tail, source="ConceptNet", swapped=False):
    return kb.AlignedTriple(kb.KnowledgeTriple(head, rel, tail, source), swapped)


# extract_for_sample merges the stores' aligned triples: one sample, and a
# fact that bridges it
_P, _Q = ["the", "council", "votes", "today"], ["who", "governs", "the", "city", "?"]
_ROW = ("council", "RelatedTo", "governs")


def test_merge_identical_collapses():
    store = make_store(_ROW)
    got = kb.extract_for_sample(_P, _Q, frozenset(), [store, store])
    assert [a.triple for a in got] == [kb.KnowledgeTriple(*_ROW, "ConceptNet")]


def test_merge_ignores_source_first_wins():
    cn, wn = make_store(_ROW), make_store(_ROW, source="WordNet")
    for stores in ([cn, wn], [wn, cn]):
        got = kb.extract_for_sample(_P, _Q, frozenset(), stores)
        assert [a.triple for a in got] == [stores[0].triples[0]]


def test_merge_disjoint_concatenates():
    first = [("votes", "IsA", "city"), ("council", "RelatedTo", "governs")]
    second = [("today", "Others", "city"), ("council", "IsA", "city"),
              ("votes", "RelatedTo", "governs")]
    stores = [make_store(*first), make_store(*second, source="WordNet")]
    got = kb.extract_for_sample(_P, _Q, frozenset(), stores)
    assert [a.triple for a in got] == (
        [kb.KnowledgeTriple(*row, "ConceptNet") for row in first]
        + [kb.KnowledgeTriple(*row, "WordNet") for row in second])


def test_merge_reversed_duplicate_in_one_store_collapses_to_the_first():
    fwd, rev = _ROW, ("governs", "RelatedTo", "council")
    got = kb.extract_for_sample(_P, _Q, frozenset(), [make_store(fwd, rev)])
    assert len(got) == 1 and got[0].triple.head == "council" and not got[0].swapped
    got = kb.extract_for_sample(_P, _Q, frozenset(), [make_store(rev, fwd)])
    assert len(got) == 1 and got[0].triple.head == "council" and got[0].swapped


def test_selection_prefers_synonymy():
    items = [_aligned("a", "RelatedTo", "b"), _aligned("c", "Synonymy", "d")]
    assert kb.select_training_triple(items).triple.head == "c"


def test_selection_priority_chain():
    order = ["Others", "Hyponymy", "Hypernymy", "IsA", "RelatedTo", "Synonymy"]
    items = [_aligned(f"h{i}", rel, f"t{i}") for i, rel in enumerate(order)]
    for expect in reversed(order):
        assert kb.select_training_triple(items).triple.relation == expect
        items = [a for a in items if a.triple.relation != expect]
    assert kb.select_training_triple([]) is None


def test_selection_tie_breaks_by_list_order():
    items = [_aligned("first", "IsA", "x"), _aligned("second", "IsA", "y")]
    assert kb.select_training_triple(items).triple.head == "first"


class _FakeSample:
    def __init__(self, triples):
        self.triples = triples


def test_partition_by_triple_presence():
    eq = _FakeSample([_aligned("a", "IsA", "b"), _aligned("c", "IsA", "d")])
    pure = _FakeSample([])
    got_eq, got_pure = kb.partition_dataset([pure, eq, pure])
    assert got_eq == [eq] and got_pure == [pure, pure]


def test_stats_small_case():
    eq = [_FakeSample([_aligned("a", "Synonymy", "b")]),
          _FakeSample([_aligned("c", "RelatedTo", "d"), _aligned("e", "RelatedTo", "f")]),
          _FakeSample([_aligned("g", "Others", "h")])]
    report = kb.stats_report(eq, [_FakeSample([])])
    assert report.total_samples == 4
    assert report.equipped_count == 3 and report.pure_count == 1
    assert report.equipped_fraction == pytest.approx(0.75)
    assert report.triples_per_equipped_sample == pytest.approx(4 / 3)
    assert report.relation_histogram["RelatedTo"] == pytest.approx(0.5)
    assert sum(report.relation_histogram.values()) == pytest.approx(1.0, abs=1e-9)


def test_stats_empty_corpus():
    report = kb.stats_report([], [])
    assert report.total_samples == 0
    assert report.equipped_fraction == 0.0
    assert sum(report.relation_histogram.values()) == 0.0


# ---------------------------------------------------------------------------
# bundled fixtures end to end


@pytest.fixture(scope="module")
def bundle():
    cn = kb.load_knowledge_base(asset_path(KB_CONCEPTNET), "ConceptNet")
    wn = kb.load_knowledge_base(asset_path(KB_WORDNET), "WordNet")
    stops = kb.load_stopwords(asset_path(STOPWORDS))
    samples = load_dataset(asset_path(MINI_CORPUS))
    return cn, wn, stops, samples


def test_bundle_pipeline_matches_brute_force(bundle):
    cn, wn, stops, samples = bundle
    assert len(samples) == 20
    for s in samples:
        got = kb.extract_for_sample(s.passage, s.question, stops, [cn, wn])
        got_tuples = [(a.triple.head, a.triple.relation, a.triple.tail,
                       a.triple.source, a.swapped) for a in got]
        want = brute_force_extract(s.passage, s.question, [cn, wn], stops)
        assert got_tuples == want, s.sample_id


def test_bundle_table_like_case(bundle):
    cn, wn, stops, samples = bundle
    s = next(x for x in samples if x.sample_id == "s01")
    got = kb.extract_for_sample(s.passage, s.question, stops, [cn, wn])
    kept = {(a.triple.head, a.triple.relation, a.triple.tail) for a in got}
    assert ("council", "RelatedTo", "governing") in kept
    assert ("council", "RelatedTo", "city") not in kept
    assert ("council", "Synonymy", "assembly") not in kept


def test_bundle_stats_match_direct_tally(bundle):
    cn, wn, stops, samples = bundle
    for s in samples:
        s.triples = kb.extract_for_sample(s.passage, s.question, stops, [cn, wn])
    eq, pure = kb.partition_dataset(samples)
    assert len(eq) + len(pure) == len(samples)
    report = kb.stats_report(eq, pure)
    tally = {}
    n = 0
    for s in eq:
        for a in s.triples:
            tally[a.triple.relation] = tally.get(a.triple.relation, 0) + 1
            n += 1
    for rel in kb.RELATIONS:
        assert report.relation_histogram[rel] == pytest.approx(tally.get(rel, 0) / n)
    assert sum(report.relation_histogram.values()) == pytest.approx(1.0, abs=1e-9)
    assert report.equipped_fraction == pytest.approx(len(eq) / 20)


# ---------------------------------------------------------------------------
# properties

_WORDS = st.sampled_from(["a", "b", "c", "d", "e", "f"])
_TOKENS = st.lists(_WORDS, min_size=1, max_size=7)
_CONCEPT = st.lists(_WORDS, min_size=1, max_size=2).map(" ".join)
_RELATION = st.sampled_from(kb.RELATIONS)


@st.composite
def _candidates(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    return [kb.KnowledgeTriple(draw(_CONCEPT), draw(_RELATION), draw(_CONCEPT), "ConceptNet")
            for _ in range(n)]


@given(_candidates(), _TOKENS, _TOKENS)
@settings(max_examples=200)
def test_filter_soundness(cands, passage, question):
    for a in kb.align_filter(cands, passage, question):
        assert contains_contiguous(a.triple.head, passage)
        assert contains_contiguous(a.triple.tail, question)


@given(_candidates(), _TOKENS, _TOKENS)
@settings(max_examples=200)
def test_filter_completeness_vs_brute_force(cands, passage, question):
    got = {(a.triple.head, a.triple.relation, a.triple.tail, a.swapped)
           for a in kb.align_filter(cands, passage, question)}
    want = set()
    for t in cands:
        if contains_contiguous(t.head, passage) and contains_contiguous(t.tail, question):
            want.add((t.head, t.relation, t.tail, False))
        elif contains_contiguous(t.tail, passage) and contains_contiguous(t.head, question):
            want.add((t.tail, t.relation, t.head, True))
    assert got == want


@given(_candidates(), _TOKENS, _TOKENS)
@settings(max_examples=100)
def test_filter_idempotence(cands, passage, question):
    first = kb.align_filter(cands, passage, question)
    again = kb.align_filter([a.triple for a in first], passage, question)
    assert {(a.triple.head, a.triple.relation, a.triple.tail) for a in again} \
        == {(a.triple.head, a.triple.relation, a.triple.tail) for a in first}


@given(_candidates(), _TOKENS, _TOKENS)
@settings(max_examples=50)
def test_filter_determinism(cands, passage, question):
    one = kb.align_filter(list(cands), list(passage), list(question))
    two = kb.align_filter(list(cands), list(passage), list(question))
    assert repr(one) == repr(two)


_STORE_WORDS = st.sampled_from(["a", "b", "c", "d", "the"])
_STORE_TOKENS = st.lists(_STORE_WORDS, min_size=1, max_size=8)
# raw dump spellings: case and punctuation variants normalize onto _STORE_WORDS
_RAW_CONCEPT = st.lists(st.sampled_from(["a", "B", "c,", "(d)", "the", "The"]),
                        min_size=1, max_size=3).map(" ".join)
_RAW_RELATION = st.sampled_from([*kb.RELATIONS, "isa", " relatedto ", "Antonym"])
_FACTS = st.lists(st.tuples(_RAW_CONCEPT, _RAW_RELATION, _RAW_CONCEPT),
                  min_size=1, max_size=8)


def _load_lines(lines, source, vocabulary=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "kb.tsv"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        return kb.load_knowledge_base(path, source, vocabulary)


@st.composite
def _dump_lines(draw, facts=None):
    """Lines of one dump; facts repeat, so the loader has duplicates to drop."""
    facts = facts or draw(_FACTS)
    return ["\t".join(facts[i])
            for i in draw(st.lists(st.integers(0, len(facts) - 1), max_size=10))]


@st.composite
def _two_dumps(draw):
    """Two dumps drawing from one pool of facts, so facts repeat within a
    dump (deduplicated on load) and across dumps (merged)."""
    facts = draw(_FACTS)
    return [(source, draw(_dump_lines(facts))) for source in kb.SOURCES]


@given(_two_dumps(), _STORE_TOKENS, _STORE_TOKENS)
@settings(max_examples=300)
def test_extraction_equals_brute_force_on_random_stores(dumps, passage, question):
    """Stores scoped to the sample's tokens extract exactly what full ones
    do: the same triples in the same order, with source and swapped flag."""
    stops = frozenset({"the"})
    full = [_load_lines(lines, source) for source, lines in dumps]
    scoped = [_load_lines(lines, source, {*passage, *question}) for source, lines in dumps]
    want = brute_force_extract(passage, question, full, stops)
    for stores in (full, scoped):
        got = [(a.triple.head, a.triple.relation, a.triple.tail, a.triple.source, a.swapped)
               for a in kb.extract_for_sample(passage, question, stops, stores)]
        assert got == want


@given(_dump_lines(), st.sets(_STORE_WORDS))
@settings(max_examples=200)
def test_scoped_store_is_the_in_vocabulary_subsequence(lines, vocabulary):
    full = _load_lines(lines, "WordNet")
    scoped = _load_lines(lines, "WordNet", vocabulary)
    assert scoped.triples == [t for t in full.triples
                              if {*t.head.split(), *t.tail.split()} <= vocabulary]
    assert scoped.tail_tokens == [kb.concept_tokens(t.tail) for t in scoped.triples]
    by_head = {}
    for tid, t in enumerate(scoped.triples):
        by_head.setdefault(kb.concept_tokens(t.head), []).append(tid)
    assert scoped.by_head == by_head
    assert scoped.max_concept_len == max(
        (len(c.split()) for t in scoped.triples for c in (t.head, t.tail)), default=0)


@given(st.lists(st.booleans(), max_size=30))
@settings(max_examples=100)
def test_partition_conserves_samples(flags):
    samples = [_FakeSample([_aligned("a", "IsA", "b")] if f else []) for f in flags]
    eq, pure = kb.partition_dataset(samples)
    assert len(eq) + len(pure) == len(samples)
    assert all(s.triples for s in eq)
    assert not any(s.triples for s in pure)
