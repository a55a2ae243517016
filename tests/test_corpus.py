"""Dataset loading, vocabulary, BIO features, and batch encoding."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckqg import corpus
from ckqg.assets import MINI_CORPUS, asset_path
from ckqg.corpus import (BOS, EOS, PAD, UNK, Batch, TagVocab, TrainingSample,
                         ValidationError, Vocabulary, bio_from_span, build_tag_vocabs,
                         build_vocab, encode_batch, load_dataset, save_dataset)
from ckqg.kb_extract import AlignedTriple, KnowledgeTriple


def make_sample(passage, question, span=(0, 0), triples=()):
    passage = passage.split() if isinstance(passage, str) else list(passage)
    question = question.split() if isinstance(question, str) else list(question)
    return TrainingSample(
        passage=passage,
        answer_span=span,
        pos_tags=["noun"] * len(passage),
        ner_tags=["o"] * len(passage),
        question=question,
        triples=list(triples),
    )


def aligned(head, rel, tail):
    return AlignedTriple(KnowledgeTriple(head, rel, tail, "ConceptNet"), (0,), (0,), False)


def tag_vocabs_for(*samples):
    return build_tag_vocabs(list(samples))


def test_bio_examples():
    assert bio_from_span(5, (1, 2)) == ["O", "B", "I", "O", "O"]
    assert bio_from_span(3, (0, 0)) == ["B", "O", "O"]
    assert bio_from_span(4, (3, 3)) == ["O", "O", "O", "B"]


def test_bio_rejects_bad_span():
    with pytest.raises(ValidationError):
        bio_from_span(3, (2, 3))
    with pytest.raises(ValidationError):
        bio_from_span(3, (-1, 1))
    with pytest.raises(ValidationError):
        bio_from_span(3, (2, 1))


@given(st.integers(min_value=1, max_value=40), st.data())
@settings(max_examples=150)
def test_bio_well_formed(n, data):
    start = data.draw(st.integers(min_value=0, max_value=n - 1))
    end = data.draw(st.integers(min_value=start, max_value=n - 1))
    tags = bio_from_span(n, (start, end))
    assert tags.count("B") == 1
    for i, t in enumerate(tags):
        if t == "I":
            assert tags[i - 1] in ("B", "I")
    assert len(tags) == n


def test_vocab_reserved_ids():
    v = Vocabulary([])
    assert len(v) == 4
    assert v.encode("<pad>") == PAD == 0
    assert v.encode("<unk>") == UNK == 1
    assert v.encode("<bos>") == BOS == 2
    assert v.encode("<eos>") == EOS == 3


def test_build_vocab_empty_corpus():
    assert len(build_vocab([], max_size=10)) == 4


def test_build_vocab_contains_tokens():
    v = build_vocab([make_sample("a a b", "q")], max_size=8)
    assert "a" in v and "b" in v and "q" in v


def test_build_vocab_frequency_then_lexicographic():
    v = build_vocab([make_sample("y x z z", "x")], max_size=7)
    # z and x both occur twice; y once; ties break lexicographically
    assert v.id_to_token[4:] == ["x", "z", "y"]


def test_build_vocab_min_freq_filters():
    v = build_vocab([make_sample("a a b", "c")], max_size=100, min_freq=2)
    assert "a" in v and "b" not in v and "c" not in v


def test_build_vocab_max_size_truncates():
    v = build_vocab([make_sample("a a a b b c", "d")], max_size=6)
    assert len(v) == 6
    assert "a" in v and "b" in v and "c" not in v


def test_build_vocab_rejects_tiny_max_size():
    with pytest.raises(ValidationError):
        build_vocab([], max_size=4)


@given(st.lists(st.sampled_from(["cat", "dog", "sat", "mat"]), min_size=1, max_size=10))
@settings(max_examples=50)
def test_vocab_round_trip(tokens):
    sample = make_sample(tokens, "q")
    v = build_vocab([sample], max_size=100)
    ids = [v.encode(t) for t in tokens]
    assert v.decode_ids(ids) == tokens


def test_tag_vocab_rejects_unknown():
    tv = TagVocab(["noun", "verb"])
    assert tv.encode("noun") == 1
    with pytest.raises(ValidationError):
        tv.encode("adj")


# ---------------------------------------------------------------------------
# batch encoding


def test_encode_all_in_vocab_copy_equals_plain():
    s = make_sample("the cat sat", "the cat ?")
    v = build_vocab([s], max_size=100)
    b = encode_batch([s], v, tag_vocabs_for(s))
    np.testing.assert_array_equal(b.copy_ids, b.passage_ids)
    assert b.oov_tokens == [[]]
    assert b.extended_size == len(v)


def test_encode_oov_gets_first_extended_id():
    s = make_sample("zyx cat", "what ?")
    v = build_vocab([make_sample("cat cat", "what ?")], max_size=100)
    b = encode_batch([s], v, tag_vocabs_for(s))
    assert b.passage_ids[0, 0] == UNK
    assert b.copy_ids[0, 0] == len(v)
    assert b.oov_tokens == [["zyx"]]
    assert b.extended_size == len(v) + 1


def test_encode_repeated_oov_shares_extended_id():
    s = make_sample("zyx cat zyx", "what ?")
    v = build_vocab([make_sample("cat", "what ?")], max_size=100)
    b = encode_batch([s], v, tag_vocabs_for(s))
    assert b.copy_ids[0, 0] == b.copy_ids[0, 2] == len(v)
    assert b.oov_tokens == [["zyx"]]


def test_encode_pads_to_batch_max():
    s1 = make_sample("a b c", "q ?")
    s2 = make_sample("a b c d e", "q q q ?")
    v = build_vocab([s1, s2], max_size=100)
    b = encode_batch([s1, s2], v, tag_vocabs_for(s1, s2))
    assert b.passage_ids.shape == (2, 5)
    np.testing.assert_array_equal(b.passage_ids[0, 3:], [PAD, PAD])
    np.testing.assert_array_equal(b.passage_lengths, [3, 5])
    for arr in (b.bio_ids, b.pos_ids, b.ner_ids, b.copy_ids):
        assert arr.shape == (2, 5)
    # question rows: BOS ... EOS then PAD
    assert b.question_ids.shape == (2, 6)
    assert b.question_ids[0, 0] == BOS and b.question_ids[0, 3] == EOS
    np.testing.assert_array_equal(b.question_ids[0, 4:], [PAD, PAD])
    np.testing.assert_array_equal(b.question_lengths, [4, 6])


def test_encode_question_copyable_oov_gets_extended_id():
    s = make_sample("zyx cat", "zyx ?")
    v = build_vocab([make_sample("cat", "a ?")], max_size=100)
    b = encode_batch([s], v, tag_vocabs_for(s))
    assert b.question_ids[0, 1] == len(v)


def test_encode_question_oov_not_in_passage_is_unk():
    s = make_sample("cat", "qqq ?")
    v = build_vocab([make_sample("cat", "a ?")], max_size=100)
    b = encode_batch([s], v, tag_vocabs_for(s))
    assert b.question_ids[0, 1] == UNK


def test_copy_ids_decode_back_to_passage():
    s = make_sample("zyx cat blorp cat", "what ?")
    v = build_vocab([make_sample("cat", "what ?")], max_size=100)
    b = encode_batch([s], v, tag_vocabs_for(s))
    n = int(b.passage_lengths[0])
    decoded = v.decode_ids(b.copy_ids[0, :n], b.oov_tokens[0])
    assert decoded == s.passage


def test_encode_unknown_tag_rejected():
    s = make_sample("cat", "what ?")
    s.pos_tags = ["mystery"]
    v = build_vocab([s], max_size=100)
    tv = {"bio": TagVocab(["O", "B", "I"]), "pos": TagVocab(["noun"]), "ner": TagVocab(["o"])}
    with pytest.raises(ValidationError):
        encode_batch([s], v, tv)


def test_encode_empty_batch_rejected():
    v = Vocabulary([])
    with pytest.raises(ValidationError):
        encode_batch([], v, {"bio": TagVocab([]), "pos": TagVocab([]), "ner": TagVocab([])})


def test_encode_mixed_triple_presence_rejected():
    s1 = make_sample("cat dog", "what ?", triples=[aligned("cat", "IsA", "animal")])
    s2 = make_sample("cat dog", "what ?")
    v = build_vocab([s1, s2], max_size=100)
    with pytest.raises(ValidationError, match="mixes"):
        encode_batch([s1, s2], v, tag_vocabs_for(s1, s2))


def test_encode_triples_build_all_fields():
    s1 = make_sample("the cat sat", "which animal sat ?",
                     triples=[aligned("cat", "IsA", "animal")])
    s2 = make_sample("a big ship sailed", "which large vessel sailed ?",
                     triples=[aligned("big ship", "Synonymy", "large vessel"),
                              aligned("ship", "RelatedTo", "sea")])
    v = build_vocab([s1, s2], max_size=100)
    b = encode_batch([s1, s2], v, tag_vocabs_for(s1, s2))
    assert b.has_triples
    # head rows padded to the longest head (2 tokens)
    assert b.head_ids.shape == (2, 2)
    np.testing.assert_array_equal(b.head_lengths, [1, 2])
    assert b.head_ids[0, 1] == PAD
    assert v.decode_ids(b.head_ids[1]) == ["big", "ship"]
    # selection prefers Synonymy for s2
    np.testing.assert_array_equal(b.relation_ids, [2, 0])
    assert v.decode_ids(b.tail_ids[0, :1]) == ["animal"]
    np.testing.assert_array_equal(b.tail_lengths, [1, 2])
    # generation targets are BOS ... EOS
    assert b.tail_gen_ids[0, 0] == BOS
    assert v.decode_ids(b.tail_gen_ids[1, 1:3]) == ["large", "vessel"]
    assert b.tail_gen_ids[1, 3] == EOS
    np.testing.assert_array_equal(b.tail_gen_lengths, [3, 4])


def test_encode_without_triples_leaves_fields_none():
    s = make_sample("cat", "what ?")
    v = build_vocab([s], max_size=100)
    b = encode_batch([s], v, tag_vocabs_for(s))
    assert not b.has_triples
    assert b.head_ids is None and b.relation_ids is None and b.tail_gen_ids is None


@given(st.data())
@settings(max_examples=50)
def test_encode_shapes_consistent(data):
    words = ["cat", "dog", "sat", "mat", "ran"]
    n = data.draw(st.integers(min_value=1, max_value=4))
    samples = []
    for _ in range(n):
        p = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=6))
        q = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=5))
        samples.append(make_sample(p, q))
    v = build_vocab(samples, max_size=50)
    b = encode_batch(samples, v, tag_vocabs_for(*samples))
    B, Lp = b.passage_ids.shape
    assert B == n
    for arr in (b.bio_ids, b.pos_ids, b.ner_ids, b.copy_ids):
        assert arr.shape == (B, Lp)
    assert b.passage_lengths.max() == Lp
    assert b.question_lengths.max() == b.question_ids.shape[1]
    assert (b.passage_ids[b.copy_ids < len(v)] == b.copy_ids[b.copy_ids < len(v)]).all()


# ---------------------------------------------------------------------------
# dataset IO


def test_load_bundled_corpus():
    samples = load_dataset(asset_path(MINI_CORPUS))
    assert len(samples) == 20
    assert all(s.sample_id for s in samples)
    assert samples[0].passage[5] == "council"


def test_readme_corpus_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Data formats", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "example.jsonl"
    _write_jsonl(path, [json.loads(block)])
    [sample] = load_dataset(path)
    assert sample.sample_id == "s01" and len(sample.triples) == 1


def test_save_load_round_trip(tmp_path):
    s = make_sample("the cat sat", "which animal sat ?", span=(1, 1))
    s.triples = [AlignedTriple(KnowledgeTriple("cat", "IsA", "animal", "WordNet"),
                               (1,), (1,), False)]
    s.sample_id = "t1"
    path = tmp_path / "data.jsonl"
    save_dataset(path, [s])
    loaded = load_dataset(path)
    assert len(loaded) == 1
    got = loaded[0]
    assert got.passage == s.passage and got.question == s.question
    assert got.answer_span == (1, 1)
    assert got.sample_id == "t1"
    assert len(got.triples) == 1
    assert got.triples[0].triple == s.triples[0].triple
    assert got.triples[0].head_positions == (1,)


def _write_jsonl(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    _write_jsonl(path, [{"passage": ["a"], "answer_span": [0, 0], "pos": ["noun"],
                         "ner": ["o"]}])
    with pytest.raises(ValidationError, match="question"):
        load_dataset(path)


def test_load_rejects_bad_span(tmp_path):
    path = tmp_path / "bad.jsonl"
    _write_jsonl(path, [{"passage": ["a"], "answer_span": [0, 1], "pos": ["noun"],
                         "ner": ["o"], "question": ["q"]}])
    with pytest.raises(ValidationError, match="span"):
        load_dataset(path)


def test_load_rejects_misaligned_tags(tmp_path):
    path = tmp_path / "bad.jsonl"
    _write_jsonl(path, [{"passage": ["a", "b"], "answer_span": [0, 0], "pos": ["noun"],
                         "ner": ["o", "o"], "question": ["q"]}])
    with pytest.raises(ValidationError, match="align"):
        load_dataset(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(ValidationError, match="JSON"):
        load_dataset(path)


@pytest.mark.parametrize("field, value", [
    ("answer_span", ["x", "y"]),
    ("answer_span", [0.5, 1]),
    ("answer_span", [True, 0]),
    ("passage", 5),
    ("pos", ["noun", 3]),
    ("question", None),
    ("triples", [{"head": 5, "relation": "IsA", "tail": "q"}]),
    ("triples", "x"),
    ("triples", {"head": "a"}),
    ("triples", [5]),
    ("triples", [{"head": "a", "relation": ["IsA"], "tail": "q"}]),
    ("triples", [{"head": "a", "tail": "q"}]),
    ("triples", [{"head": "a", "relation": "IsA", "tail": "q", "swapped": "no"}]),
    ("triples", [{"head": "a", "relation": "IsA", "tail": "q", "source": 5}]),
])
def test_load_rejects_wrong_typed_field(tmp_path, field, value):
    row = {"passage": ["a"], "answer_span": [0, 0], "pos": ["noun"],
           "ner": ["o"], "question": ["q"], field: value}
    path = tmp_path / "bad.jsonl"
    _write_jsonl(path, [row])
    with pytest.raises(ValidationError, match=rf"^{re.escape(str(path))}:1: '{field}' must be"):
        load_dataset(path)


def test_load_rejects_unknown_relation(tmp_path):
    path = tmp_path / "bad.jsonl"
    _write_jsonl(path, [{"passage": ["cat"], "answer_span": [0, 0], "pos": ["noun"],
                         "ner": ["o"], "question": ["cat", "?"],
                         "triples": [{"head": "cat", "relation": "Bogus", "tail": "cat"}]}])
    with pytest.raises(ValidationError, match="relation"):
        load_dataset(path)


def test_load_rejects_nonaligning_triple(tmp_path):
    path = tmp_path / "bad.jsonl"
    _write_jsonl(path, [{"passage": ["cat"], "answer_span": [0, 0], "pos": ["noun"],
                         "ner": ["o"], "question": ["what", "?"],
                         "triples": [{"head": "dog", "relation": "IsA", "tail": "pet"}]}])
    with pytest.raises(ValidationError, match="align"):
        load_dataset(path)


def test_coarse_tags_cover_all_tokens():
    pos, ner = corpus.coarse_tags(["The", "dog", "jumped", "42"])
    assert len(pos) == len(ner) == 4
    assert pos[3] == "num" and ner[3] == "number"
    assert ner[0] == "entity"
    assert pos[2] == "verb"
