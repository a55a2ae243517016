"""Encoder blend identity, attention hygiene, copy mixture, sequence loss,
and decoding behavior of the question generator."""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import reference_beam_search, reference_greedy_decode

from ckqg import aux_tasks as A
from ckqg import qg_model as M
from ckqg import trainer as TR
from ckqg.config import Config
from ckqg.corpus import (BOS, EOS, UNK, TrainingSample, build_tag_vocabs,
                         build_vocab, coarse_tags, encode_batch)
from ckqg.kb_extract import AlignedTriple, KnowledgeTriple
from ckqg.nn import tensor as T
from ckqg.nn.gradcheck import grad_check
from ckqg.nn.params import ParameterSet, initial_value
from ckqg.nn.tensor import ShapeError, Tensor


def make_sample(text: str, question: str, span: tuple[int, int],
                sid: str) -> TrainingSample:
    toks = text.split()
    pos, ner = coarse_tags(toks)
    return TrainingSample(passage=toks, answer_span=span, pos_tags=pos,
                          ner_tags=ner, question=question.split(), sample_id=sid)


def build_setup(seed: int = 0, hidden: int = 3, layers: int = 2):
    """Two-sample batch where the second passage is mostly OOV."""
    s1 = make_sample("the red fox jumped over the lazy dog",
                     "what did the red fox jump over ?", (6, 7), "a")
    s2 = make_sample("a kraken rose from the deep sea",
                     "what did the kraken rise from ?", (5, 6), "b")
    vocab = build_vocab([s1])
    tags = build_tag_vocabs([s1, s2])
    batch = encode_batch([s1, s2], vocab, tags)
    # the question model's part of the table, which is drawn first
    cfg = Config(emb_dim=4, feat_dim=2, hidden_size=hidden, layers=layers)
    sizes = {k: len(v) for k, v in tags.items()}
    params = ParameterSet(layers)
    rng = np.random.default_rng(seed)
    for name, shape, group, init in TR.model_spec(cfg, len(vocab), sizes):
        if group == "qg_core":
            params.add(name, initial_value(init, shape, rng), group)
    return params, vocab, tags, batch


def single_setup(seed: int = 0):
    params, vocab, tags, _ = build_setup(seed)
    s1 = make_sample("the red fox jumped over the lazy dog",
                     "what did the red fox jump over ?", (6, 7), "a")
    batch = encode_batch([s1], vocab, tags)
    return params, batch


# -- self-match and encoder ---------------------------------------------------


# Frozen from a scalar-loop recomputation of the bilinear attention, the
# gate, and the blend on a fixed 3-position input.
ORACLE_H = [[0.5, -1.0], [1.0, 0.3], [-0.2, 0.8]]
ORACLE_F = [[0.49627595420305126, -0.27250751687665786],
            [0.518306733360453, -0.047741788378809324],
            [0.385910491888082, 0.2205350299693784]]
ORACLE_G = [0.7407065161152947, 0.6265837960450653, 0.46209383382113567]
ORACLE_H_HAT = [[0.4972415750118883, -0.4611415773256444],
                [0.6981788044596449, 0.08211063019410587],
                [0.07074562547259122, 0.5322328104335006]]


def oracle_params() -> ParameterSet:
    params = ParameterSet(layers=1)
    params.add("selfmatch.W", [[0.3, -0.2], [0.1, 0.4]], "qg_core")
    params.add("gate.W", [[0.25], [-0.5], [0.7], [-0.1]], "qg_core")
    params.add("gate.b", [0.05], "qg_core")
    return params


def test_self_match_hand_case():
    params = oracle_params()
    h = Tensor(np.array([ORACLE_H]))
    f, g = M.self_match(params, h, np.ones((1, 3), dtype=bool))
    assert np.allclose(f.data[0], ORACLE_F, atol=1e-12)
    assert np.allclose(g.data[0, :, 0], ORACLE_G, atol=1e-12)
    h_hat = T.add(T.mul(g, f), T.mul(1.0 - g, h))
    assert np.allclose(h_hat.data[0], ORACLE_H_HAT, atol=1e-12)


def test_self_match_zero_weights_gives_means():
    params = oracle_params()
    params["selfmatch.W"].data[:] = 0.0
    h = Tensor(np.array([ORACLE_H]))
    mask = np.array([[True, True, False]])
    f, _ = M.self_match(params, h, mask)
    want = (np.array(ORACLE_H[0]) + np.array(ORACLE_H[1])) / 2.0
    for i in range(3):
        assert np.allclose(f.data[0, i], want, atol=1e-15)


def test_gate_strictly_inside_unit_interval():
    params = oracle_params()
    rng = np.random.default_rng(5)
    h = Tensor(rng.normal(size=(2, 6, 2)))
    _, g = M.self_match(params, h, np.ones((2, 6), dtype=bool))
    assert np.all(g.data > 0.0) and np.all(g.data < 1.0)


def test_encode_shapes_and_mask():
    params, _, _, batch = build_setup()
    enc = M.encode_passage(params, batch)
    nb, lp = batch.passage_ids.shape
    assert enc.h.shape == (nb, lp, 6)
    assert enc.h_hat.shape == (nb, lp, 6)
    assert enc.proj.shape == (nb, lp, 3)
    assert enc.g.shape == (nb, lp, 1)
    assert np.array_equal(enc.mask.sum(axis=1), batch.passage_lengths)


def test_blend_identity_exact():
    params, _, _, batch = build_setup()
    enc = M.encode_passage(params, batch)
    recomputed = enc.g.data * enc.f.data + (1.0 - enc.g.data) * enc.h.data
    assert np.array_equal(enc.h_hat.data, recomputed)


def test_single_position_passage_blend_is_identity():
    params, vocab, tags, _ = build_setup()
    s = make_sample("fox", "what ?", (0, 0), "one")
    batch = encode_batch([s], vocab, tags)
    enc = M.encode_passage(params, batch)
    assert np.array_equal(enc.f.data, enc.h.data)
    assert np.allclose(enc.h_hat.data, enc.h.data, atol=1e-14)


def test_gate_bias_hook_disables_blend():
    params, _, _, batch = build_setup()
    params["gate.b"].data[:] = -1e9
    enc = M.encode_passage(params, batch)
    assert np.all(enc.g.data == 0.0)
    assert np.array_equal(enc.h_hat.data, enc.h.data)


def test_hoisted_projection_matches_direct():
    params, _, _, batch = build_setup()
    enc = M.encode_passage(params, batch)
    assert np.array_equal(enc.proj.data,
                          np.matmul(enc.h_hat.data, params["attn.Wh"].data))


# -- copy distribution --------------------------------------------------------


def test_copy_distribution_aggregates_duplicates():
    alpha = Tensor(np.array([[0.2, 0.5, 0.3]]))
    ids = np.array([[7, 5, 7]])
    p = M.copy_distribution(alpha, ids, 9)
    assert p.data[0, 7] == pytest.approx(0.5)
    assert p.data[0, 5] == pytest.approx(0.5)
    assert p.data.sum() == pytest.approx(1.0, abs=1e-9)


def test_copy_distribution_point_mass():
    alpha = Tensor(np.array([[0.0, 1.0, 0.0]]))
    p = M.copy_distribution(alpha, np.array([[4, 6, 4]]), 8)
    assert p.data[0, 6] == 1.0
    assert p.data.sum() == 1.0


# -- decode step --------------------------------------------------------------


def first_step(params, batch, kmem=None):
    enc = M.encode_passage(params, batch)
    state = M.init_decoder_state(params, "dec", enc.bw_final)
    out, state = M.decode_step(params, "dec", batch.question_ids[:, 0], state,
                               enc, kmem, batch.copy_ids, batch.extended_size)
    return enc, out, state


def test_decode_distributions_normalized():
    params, _, _, batch = build_setup()
    enc, out, state = first_step(params, batch)
    for dist in (out.p_vocab, out.p_copy, out.p):
        assert np.allclose(dist.data.sum(axis=-1), 1.0, atol=1e-9)
    assert np.all(state.alpha.data[~enc.mask] == 0.0)
    assert np.all((state.p_g.data > 0.0) & (state.p_g.data < 1.0))


def test_mixture_identity_recomputed():
    params, vocab, _, batch = build_setup()
    _, out, state = first_step(params, batch)
    pad = batch.extended_size - len(vocab)
    p_vocab_ext = np.concatenate([out.p_vocab.data, np.zeros((batch.size, pad))], axis=-1)
    want = state.p_g.data * p_vocab_ext + (1.0 - state.p_g.data) * out.p_copy.data
    assert np.array_equal(out.p.data, want)


def test_forced_generate_gate_one():
    params, vocab, _, batch = build_setup()
    params["dec.copy.b"].data[:] = 1e9
    _, out, state = first_step(params, batch)
    assert np.all(state.p_g.data == 1.0)
    assert np.array_equal(out.p.data[:, :len(vocab)], out.p_vocab.data)
    assert np.all(out.p.data[:, len(vocab):] == 0.0)


def test_forced_copy_gate_zero():
    params, _, _, batch = build_setup()
    params["dec.copy.b"].data[:] = -1e9
    _, out, state = first_step(params, batch)
    assert np.all(state.p_g.data == 0.0)
    for b in range(batch.size):
        source = set(batch.copy_ids[b, :batch.passage_lengths[b]].tolist())
        nonzero = set(np.nonzero(out.p.data[b])[0].tolist())
        assert nonzero <= source


def test_memory_absent_equals_zero_rows():
    params, _, _, batch = build_setup()
    params["dec.blend.k.W"].data[:] = 0.0
    nb = batch.size
    zero_mem = M.KnowledgeMemory(rows=Tensor(np.zeros((nb, 2, 6))),
                                 mask=np.ones((nb, 2), dtype=bool),
                                 proj=Tensor(np.zeros((nb, 2, 3))))
    _, out_none, _ = first_step(params, batch)
    _, out_mem, _ = first_step(params, batch, kmem=zero_mem)
    assert np.max(np.abs(out_none.p.data - out_mem.p.data)) < 1e-12


def test_knowledge_context_zeros_without_memory():
    params, _, _, batch = build_setup()
    _, _, state = first_step(params, batch)
    assert state.k.shape == (batch.size, 6)
    assert np.all(state.k.data == 0.0)


def test_decoder_init_state():
    params, _, _, batch = build_setup()
    enc = M.encode_passage(params, batch)
    state = M.init_decoder_state(params, "dec", enc.bw_final)
    assert len(state.states) == 2
    for h0, c0 in state.states:
        assert h0.shape == (batch.size, 3)
        assert np.all(c0.data == 0.0)
    assert np.all(state.s_tilde.data == 0.0)


# -- sequence loss ------------------------------------------------------------


def const_steps(rows: list[np.ndarray]) -> list[M.OutputDistribution]:
    steps = []
    for r in rows:
        t = Tensor(np.asarray(r))
        steps.append(M.OutputDistribution(p_vocab=t, p_copy=t, p=t))
    return steps


def test_point_mass_predictions_loss_zero():
    targets = np.array([[BOS, 2, 1]])
    step0 = np.zeros((1, 4)); step0[0, 2] = 1.0
    step1 = np.zeros((1, 4)); step1[0, 1] = 1.0
    loss = M.sequence_nll(const_steps([step0, step1]), targets, np.array([3]))
    assert loss.item() == 0.0


def test_uniform_predictions_loss_ln_vext():
    n = 7
    targets = np.array([[BOS, 5, 2]])
    u = np.full((1, n), 1.0 / n)
    loss = M.sequence_nll(const_steps([u, u]), targets, np.array([3]))
    assert loss.item() == pytest.approx(math.log(n), abs=1e-12)


def test_two_sample_hand_oracle():
    # Sample 0 picks probs 0.4 then 0.25 over its two steps; sample 1 picks
    # 0.1 over its single step. Frozen scalar recomputation:
    # -(ln 0.4 + ln 0.25)/2 averaged with -ln 0.1.
    targets = np.array([[BOS, 3, 1], [BOS, 2, 0]])
    lengths = np.array([3, 2])
    step0 = np.array([[0.2, 0.2, 0.2, 0.4], [0.6, 0.2, 0.1, 0.1]])
    step1 = np.array([[0.25, 0.25, 0.25, 0.25], [0.9, 0.05, 0.03, 0.02]])
    loss = M.sequence_nll(const_steps([step0, step1]), targets, lengths)
    assert loss.item() == pytest.approx(1.7269388197455342, abs=1e-12)


def floor_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records
            if r.name == M.__name__ and "zero-probability" in r.getMessage()]


def test_zero_probability_target_floors_and_counts(caplog):
    targets = np.array([[BOS, 0]])
    step0 = np.array([[0.0, 1.0]])
    loss = M.sequence_nll(const_steps([step0]), targets, np.array([2]))
    assert loss.item() == pytest.approx(-math.log(M.PROB_FLOOR), rel=1e-12)
    assert floor_warnings(caplog) == ["floored 1 zero-probability target tokens"]


def test_pad_steps_do_not_touch_floor_counter(caplog):
    targets = np.array([[BOS, 1, 0], [BOS, 1, 1]])
    ok = np.array([[0.1, 0.9], [0.1, 0.9]])
    bad_on_pad = np.array([[1.0, 0.0], [0.5, 0.5]])
    M.sequence_nll(const_steps([ok, bad_on_pad]), targets, np.array([2, 3]))
    assert floor_warnings(caplog) == []


def test_teacher_forcing_step_count():
    params, _, _, batch = build_setup()
    enc = M.encode_passage(params, batch)
    steps = M.teacher_forced_steps(params, "dec", enc, None, batch.question_ids,
                                   batch.question_lengths, batch.copy_ids,
                                   batch.extended_size, init_source=enc.bw_final)
    assert len(steps) == int(batch.question_lengths.max()) - 1


def test_oov_question_token_reachable_through_copy():
    params, vocab, _, batch = build_setup()
    enc = M.encode_passage(params, batch)
    steps = M.teacher_forced_steps(params, "dec", enc, None, batch.question_ids,
                                   batch.question_lengths, batch.copy_ids,
                                   batch.extended_size, init_source=enc.bw_final)
    qid = batch.question_ids[1]
    ext_positions = np.nonzero(qid >= len(vocab))[0]
    assert ext_positions.size > 0  # "kraken" is copy-only
    for t in ext_positions:
        assert steps[t - 1].p.data[1, qid[t]] > 0.0


def test_loss_gradients_against_finite_differences():
    params, _, _, batch = build_setup(seed=3)

    def loss_fn():
        enc = M.encode_passage(params, batch)
        steps = M.teacher_forced_steps(params, "dec", enc, None,
                                       batch.question_ids, batch.question_lengths,
                                       batch.copy_ids, batch.extended_size,
                                       init_source=enc.bw_final)
        return M.sequence_nll(steps, batch.question_ids, batch.question_lengths)

    report = grad_check(loss_fn, params.items(), eps=1e-6, samples_per_tensor=3,
                        rng=np.random.default_rng(11))
    assert report.max_rel_err < 1e-4, report.worst_param


# -- generation ---------------------------------------------------------------


def test_beam_one_equals_greedy():
    params, batch = single_setup(seed=2)
    enc = M.encode_passage(params, batch)
    greedy = reference_greedy_decode(params, "dec", enc, None, batch.copy_ids,
                                     batch.extended_size, max_len=8)
    hyp = M.beam_search(params, "dec", enc, None, batch.copy_ids,
                        batch.extended_size, beam=1, max_len=8)
    assert hyp.ids == greedy


def test_beam_deterministic():
    params, batch = single_setup(seed=4)
    enc = M.encode_passage(params, batch)
    runs = [M.beam_search(params, "dec", enc, None, batch.copy_ids,
                          batch.extended_size, beam=4, max_len=8)
            for _ in range(2)]
    assert runs[0].ids == runs[1].ids
    assert runs[0].score == runs[1].score


def test_beam_output_well_formed():
    params, batch = single_setup(seed=6)
    enc = M.encode_passage(params, batch)
    hyp = M.beam_search(params, "dec", enc, None, batch.copy_ids,
                        batch.extended_size, beam=3, max_len=8)
    assert len(hyp.ids) <= 8
    assert all(0 <= i < batch.extended_size for i in hyp.ids)
    assert EOS not in hyp.ids
    assert math.isfinite(hyp.score) and hyp.logprob <= 0.0


def test_generation_rejects_multi_sample_batches():
    params, _, _, batch = build_setup()
    enc = M.encode_passage(params, batch)
    with pytest.raises(ShapeError):
        M.beam_search(params, "dec", enc, None, batch.copy_ids,
                      batch.extended_size, beam=2, max_len=4)


def test_beam_rejects_nonpositive_width():
    params, batch = single_setup()
    enc = M.encode_passage(params, batch)
    with pytest.raises(ValueError):
        M.beam_search(params, "dec", enc, None, batch.copy_ids,
                      batch.extended_size, beam=0, max_len=4)


# -- batched beam search against the per-hypothesis reference -------------------


def oracle_world(seed: int, hidden: int, scale: float = 1.0):
    """One-sample batches over a vocabulary that misses most of the second
    passage, so its copy ids reach into the extended vocabulary; the second
    sample carries a triple for the knowledge memory. A ``scale`` above 1
    sharpens the decoder's distributions, so the best hypothesis often
    descends from a lower-ranked row and a wrong back-pointer shows."""
    s1 = make_sample("the red fox jumped over the lazy dog",
                     "what did the red fox jump over ?", (6, 7), "a")
    s2 = make_sample("a kraken rose from the deep sea near the dog",
                     "what did the kraken rise from ?", (5, 6), "b")
    s2.triples.append(AlignedTriple(
        triple=KnowledgeTriple("sea", "RelatedTo", "kraken", "ConceptNet"),
        head_positions=(6,), tail_positions=(3,)))
    vocab = build_vocab([s1])
    tags = build_tag_vocabs([s1, s2])
    cfg = Config(emb_dim=5, feat_dim=2, hidden_size=hidden, layers=2)
    params = TR.build_parameters(cfg, vocab, tags, np.random.default_rng(seed))
    for _, p in params.items():
        p.data *= scale
    return params, [encode_batch([s], vocab, tags) for s in (s1, s2)]


def assert_beam_matches_reference(params, batch, kmem, beam, max_len=8):
    enc = M.encode_passage(params, batch)
    args = (params, "dec", enc, kmem, batch.copy_ids, batch.extended_size)
    got = M.beam_search(*args, beam=beam, max_len=max_len, length_penalty=0.9)
    want = reference_beam_search(*args, beam=beam, max_len=max_len,
                                 length_penalty=0.9)
    assert got.ids == want.ids
    assert got.score == want.score and got.logprob == want.logprob
    return got


@pytest.mark.parametrize("seed", range(20))
def test_batched_beam_matches_per_hypothesis_reference(seed):
    params, (plain, equipped) = oracle_world(seed, hidden=3 + seed % 4 * 5,
                                             scale=(1.0, 10.0, 20.0)[seed % 3])
    assert equipped.copy_ids.max() >= params["emb.word"].shape[0]
    kmem = A.unified_memory(params, A.encode_triples(params, equipped))
    for beam in (1, 3, 10):
        assert_beam_matches_reference(params, plain, None, beam)
        assert_beam_matches_reference(params, equipped, None, beam)
        assert_beam_matches_reference(params, equipped, kmem, beam)


def test_batched_beam_forced_ties_go_to_lowest_ids():
    params, (plain, _) = oracle_world(0, hidden=4)
    for name in ("dec.out.W", "dec.out.b", "dec.copy.W", "dec.copy.b"):
        params[name].data[...] = 0.0
    # the mixture is 0.5/V everywhere but on the passage's own ids, so every
    # other candidate ties and the lowest ids must fill the beam
    for beam in (2, 5):
        assert_beam_matches_reference(params, plain, None, beam)
    enc = M.encode_passage(params, plain)
    out, _ = M.decode_step(params, "dec", np.array([BOS]),
                           M.init_decoder_state(params, "dec", enc.bw_final),
                           enc, None, plain.copy_ids, plain.extended_size)
    lp = np.log(out.p.data[0])
    copied = set(plain.copy_ids[0].tolist())
    free = [i for i in range(plain.extended_size) if i not in copied]
    assert np.all(lp[free] == lp[free[0]])
    top = M._top_tokens(lp, len(copied) + 4).tolist()
    assert set(top[:len(copied)]) == copied and top[len(copied):] == free[:4]


def test_batched_beam_wider_than_extended_vocabulary():
    params, (_, equipped) = oracle_world(1, hidden=4)
    kmem = A.unified_memory(params, A.encode_triples(params, equipped))
    hyp = assert_beam_matches_reference(params, equipped, kmem,
                                        equipped.extended_size + 3, max_len=4)
    assert all(0 <= i < equipped.extended_size for i in hyp.ids)


def k_row_state(params, k: int, rng) -> M.DecoderState:
    """A decoder state of k distinct hypothesis rows."""
    hidden = params["dec.blend.b"].shape[0]

    def rows() -> Tensor:
        return Tensor(rng.normal(size=(k, hidden)))

    return M.DecoderState(states=[(rows(), rows()) for _ in range(params.layers)],
                          s_tilde=rows())


def repeat_rows(enc, kmem, copy_ids, k: int):
    """The one-sample decoder inputs copied as k rows."""
    def rows(t: Tensor) -> Tensor:
        return Tensor(np.repeat(t.data, k, axis=0))

    enc_k = replace(enc, h_hat=rows(enc.h_hat), proj=rows(enc.proj),
                    mask=np.repeat(enc.mask, k, axis=0))
    kmem_k = None if kmem is None else M.KnowledgeMemory(
        rows=rows(kmem.rows), mask=np.repeat(kmem.mask, k, axis=0),
        proj=rows(kmem.proj))
    return enc_k, kmem_k, np.repeat(copy_ids, k, axis=0)


def state_tensors(state: M.DecoderState) -> list[Tensor]:
    return ([t for pair in state.states for t in pair]
            + [state.s_tilde, state.s, state.c, state.alpha, state.k, state.p_g])


@pytest.mark.parametrize("k", [1, 3, 10])
def test_decode_step_broadcasts_one_sample_inputs_over_state_rows(k):
    params, (_, equipped) = oracle_world(k, hidden=4)
    enc = M.encode_passage(params, equipped)
    full_kmem = A.unified_memory(params, A.encode_triples(params, equipped))
    rng = np.random.default_rng(k)
    y = rng.integers(0, equipped.extended_size, size=k)
    for kmem in (None, full_kmem):
        state = k_row_state(params, k, rng)
        got, got_state = M.decode_step(params, "dec", y, state, enc, kmem,
                                       equipped.copy_ids, equipped.extended_size)
        enc_k, kmem_k, copy_k = repeat_rows(enc, kmem, equipped.copy_ids, k)
        want, want_state = M.decode_step(params, "dec", y, state, enc_k, kmem_k,
                                         copy_k, equipped.extended_size)
        for name in ("p", "p_vocab", "p_copy"):
            assert getattr(got, name).shape[0] == k
            assert np.array_equal(getattr(got, name).data,
                                  getattr(want, name).data), name
        for g, w in zip(state_tensors(got_state), state_tensors(want_state),
                        strict=True):
            assert g.shape[0] == k and np.array_equal(g.data, w.data)


def test_beam_passes_the_callers_own_inputs_to_every_step(monkeypatch):
    params, (_, equipped) = oracle_world(0, hidden=4)
    enc = M.encode_passage(params, equipped)
    full_kmem = A.unified_memory(params, A.encode_triples(params, equipped))
    real = M.decode_step
    signature = inspect.signature(real)
    calls = []

    def spy(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(M, "decode_step", spy)
    for kmem in (None, full_kmem):
        calls.clear()
        M.beam_search(params, "dec", enc, kmem, equipped.copy_ids,
                      equipped.extended_size, beam=10, max_len=6)
        assert max(len(c["y_prev"]) for c in calls) > 1
        for c in calls:
            assert c["enc"] is enc and c["kmem"] is kmem
            assert c["copy_ids"] is equipped.copy_ids


def test_top_tokens_equal_full_stable_argsort():
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 40):
        for _ in range(20):
            lp = -rng.integers(0, 4, size=n).astype(np.float64)
            for beam in range(1, n + 3):
                want = np.argsort(-lp, kind="stable")[:beam]
                assert M._top_tokens(lp, beam).tolist() == want.tolist()
