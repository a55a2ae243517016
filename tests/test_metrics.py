import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckqg import metrics as M

from oracles import reference_bleu, reference_rouge_l

VOCAB = ["the", "a", "cat", "dog", "sat", "ran", "on", "mat", "red", "blue",
         "fox", "jumped", "over", "?", "what", "did", "see"]

token = st.sampled_from(VOCAB)
sentence = st.lists(token, min_size=1, max_size=10)


def corrupted(rng: random.Random, ref: list[str]) -> list[str]:
    hyp = [t if rng.random() < 0.6 else rng.choice(VOCAB) for t in ref]
    return hyp[:rng.randint(0, len(hyp))]


@st.composite
def eval_pairs(draw):
    refs = draw(st.lists(sentence, min_size=1, max_size=5))
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    hyps = [list(r) if rng.random() < 0.3 else corrupted(rng, r) for r in refs]
    return hyps, refs


class TestBleu:
    def test_matches_independent_reference(self):
        rng = random.Random(7)
        for _ in range(200):
            refs = [[rng.choice(VOCAB) for _ in range(rng.randint(1, 12))]
                    for _ in range(rng.randint(1, 6))]
            hyps = [list(r) if rng.random() < 0.3 else corrupted(rng, r) for r in refs]
            want = reference_bleu(refs, hyps, max_order=4)
            for order in range(1, 5):
                got = M.bleu(hyps, refs, max_n=order)
                assert got == pytest.approx(want[order - 1], abs=1e-9)

    def test_identical_corpus_scores_100(self):
        refs = [["the", "red", "fox", "jumped"], ["what", "did", "it", "see", "?"]]
        assert M.bleu([list(r) for r in refs], refs) == pytest.approx(100.0)

    def test_disjoint_corpus_scores_0(self):
        assert M.bleu([["cat", "dog"]], [["red", "blue"]]) == 0.0

    def test_empty_hypotheses_score_0(self):
        assert M.bleu([[], []], [["a", "b"], ["c"]]) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            M.bleu([["a"]], [[]])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            M.bleu([["a"]], [["a"], ["b"]])

    def test_smoothing_only_kicks_in_when_higher_order_misses(self):
        # shared bigrams everywhere: smoothed and raw precision must coincide
        refs = [["a", "b", "c", "d"]]
        hyps = [["a", "b", "c", "x"]]
        got = M.bleu(hyps, refs, max_n=2)
        want = 100.0 * math.exp(1.0 - 4 / 4) * math.sqrt((3 / 4) * (2 / 3))
        assert got == pytest.approx(want)

    def test_zero_unigram_overlap_never_smoothed(self):
        # order 1 stays unsmoothed, so the whole score collapses to zero
        assert M.bleu([["x", "y", "z"]], [["a", "b", "c"]], max_n=4) == 0.0

    @given(eval_pairs())
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, pairs):
        hyps, refs = pairs
        for order in range(1, 5):
            score = M.bleu(hyps, refs, max_n=order)
            assert 0.0 <= score <= 100.0

    @given(eval_pairs(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_corpus_order_invariance(self, pairs, rng):
        hyps, refs = pairs
        idx = list(range(len(refs)))
        rng.shuffle(idx)
        shuffled = M.bleu([hyps[i] for i in idx], [refs[i] for i in idx])
        assert shuffled == pytest.approx(M.bleu(hyps, refs), abs=1e-9)


class TestRougeL:
    def test_hand_case(self):
        # LCS("a b c", "a c d") = "a c"; P = R = 2/3 so F collapses to 2/3
        assert M.rouge_l([["a", "b", "c"]], [["a", "c", "d"]]) == pytest.approx(66.67, abs=0.01)

    def test_matches_independent_reference(self):
        rng = random.Random(11)
        for _ in range(200):
            refs = [[rng.choice(VOCAB) for _ in range(rng.randint(1, 12))]
                    for _ in range(rng.randint(1, 6))]
            hyps = [corrupted(rng, r) for r in refs]
            got = M.rouge_l(hyps, refs)
            assert got == pytest.approx(reference_rouge_l(refs, hyps), abs=1e-6)

    def test_identical_scores_100(self):
        refs = [["a", "b"], ["c", "d", "e"]]
        assert M.rouge_l([list(r) for r in refs], refs) == pytest.approx(100.0)

    def test_empty_hypothesis_contributes_zero(self):
        score = M.rouge_l([[], ["a", "b"]], [["a", "b"], ["a", "b"]])
        assert score == pytest.approx(50.0)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            M.rouge_l([["a"]], [[]])

    @given(sentence, sentence, token)
    @settings(max_examples=80, deadline=None)
    def test_recall_grows_with_appended_reference_token(self, hyp, ref, extra):
        # appending a reference token to the hypothesis cannot shrink the LCS
        before = M.lcs_length(hyp, ref)
        after = M.lcs_length(hyp + [ref[0]], ref)
        assert after >= before
        _ = extra

    @given(eval_pairs())
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, pairs):
        hyps, refs = pairs
        assert 0.0 <= M.rouge_l(hyps, refs) <= 100.0


class TestPorterStem:
    CASES = [
        ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
        ("caress", "caress"), ("cats", "cat"), ("feed", "feed"),
        ("agreed", "agre"), ("plastered", "plaster"), ("motoring", "motor"),
        ("sing", "sing"), ("happy", "happi"), ("sky", "sky"),
        ("relational", "relat"), ("conditional", "condit"), ("rational", "ration"),
        ("adoption", "adopt"), ("adjustable", "adjust"), ("hopping", "hop"),
        ("falling", "fall"), ("controlling", "control"), ("filing", "file"),
        ("generalization", "gener"), ("probate", "probat"), ("cease", "ceas"),
        ("rate", "rate"), ("roll", "roll"),
    ]

    @pytest.mark.parametrize("word,stem", CASES)
    def test_canonical_pairs(self, word, stem):
        assert M.porter_stem(word) == stem

    def test_short_words_untouched(self):
        for w in ["a", "is", "by"]:
            assert M.porter_stem(w) == w

    def test_idempotent_on_corpus_tokens(self):
        for w in VOCAB:
            once = M.porter_stem(w)
            assert M.porter_stem(once) == once


class TestMeteorLite:
    def test_identical_pair_scores_exactly_100(self):
        score = M.meteor_lite([["the", "cat", "sat"]], [["the", "cat", "sat"]])
        assert score == 100.0

    def test_reordered_tokens_hand_value(self):
        # three matches in three chunks: frag 2/3, penalty 0.5 * (2/3)^3 = 4/27,
        # P = R = 1 so F = 1, score = 23/27
        score = M.meteor_lite([["the", "cat", "sat"]], [["the", "sat", "cat"]])
        assert score == pytest.approx(100.0 * 23 / 27, abs=1e-9)

    def test_stem_match_counts(self):
        assert M.meteor_lite([["jumping"]], [["jumped"]]) == pytest.approx(100.0)

    def test_exact_match_preferred_before_stems(self):
        # "cats cat" vs "cat cats": exact stage pairs each surface form,
        # leaving a crossed alignment of two chunks rather than one
        score = M.meteor_lite([["cats", "cat"]], [["cat", "cats"]])
        f = 1.0
        frag = (2 - 1) / 2
        assert score == pytest.approx(100.0 * f * (1 - 0.5 * frag ** 3))

    def test_no_overlap_scores_0(self):
        assert M.meteor_lite([["x", "y"]], [["a", "b"]]) == 0.0

    def test_empty_hypothesis_scores_0(self):
        assert M.meteor_lite([[]], [["a"]]) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            M.meteor_lite([["a"]], [[]])

    def test_recall_weighting_favours_coverage(self):
        ref = [["the", "red", "fox", "jumped", "over"]]
        short = M.meteor_lite([["the", "red"]], ref)
        full = M.meteor_lite([["the", "red", "fox", "jumped", "over"]], ref)
        assert full > short

    @given(eval_pairs())
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, pairs):
        hyps, refs = pairs
        assert 0.0 <= M.meteor_lite(hyps, refs) <= 100.0


class TestClassificationMetrics:
    def test_rc_accuracy(self):
        assert M.rc_accuracy([0, 1, 2, 3], [0, 1, 2, 5]) == pytest.approx(75.0)
        assert M.rc_accuracy([1], [1]) == 100.0

    def test_rc_accuracy_mismatch_rejected(self):
        with pytest.raises(ValueError):
            M.rc_accuracy([0, 1], [0])
        with pytest.raises(ValueError):
            M.rc_accuracy([], [])

    def test_tg_bleu1_is_unigram_bleu(self):
        hyps = [["port", "city"], ["governing"]]
        refs = [["port"], ["governing", "bodies"]]
        assert M.tg_bleu1(hyps, refs) == pytest.approx(M.bleu(hyps, refs, max_n=1))


class TestEvalReport:
    def test_qg_report_fields(self):
        refs = [["what", "did", "the", "fox", "see", "?"]]
        hyps = [["what", "did", "the", "dog", "see", "?"]]
        report = M.qg_report(hyps, refs)
        assert report.n_samples == 1
        assert report.bleu1 >= report.bleu2 >= report.bleu3 >= report.bleu4
        d = report.to_dict()
        assert set(d) == {"bleu1", "bleu2", "bleu3", "bleu4", "rouge_l", "meteor",
                          "n_samples"}
