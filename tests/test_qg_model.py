"""Encoder blend identity, attention hygiene, copy mixture, sequence loss,
and decoding behavior of the question generator."""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import (copy_distribution, reference_beam_search, reference_decode_step,
                     reference_greedy_decode)

from ckqg import aux_tasks as A
from ckqg import qg_model as M
from ckqg import trainer as TR
from ckqg.config import Config
from ckqg.corpus import (BOS, EOS, UNK, TrainingSample, Vocabulary,
                         build_tag_vocabs, build_vocab, coarse_tags, encode_batch)
from ckqg.kb_extract import AlignedTriple, KnowledgeTriple
from ckqg.nn import tensor as T
from ckqg.nn.gradcheck import grad_check
from ckqg.nn.layers import bilstm
from ckqg.nn.params import ParameterSet, initial_value
from ckqg.nn.tensor import ShapeError, Tensor, length_mask


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


def memory_of(enc, batch, kmem=None) -> M.DecodeMemory:
    """The question decoder's memory of an encoded batch."""
    return M.DecodeMemory(enc, kmem, batch.copy_ids, batch.extended_size, enc.bw_final)


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
    h_hat = T.add(T.mul(g, f), T.mul(T.add(T.mul(g, -1.0), 1.0), h))
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


def encoder_parts(params, batch) -> tuple[Tensor, Tensor, Tensor]:
    """The contextual states ``h``, self-match summaries ``f`` and gate ``g``
    that encode_passage blends into ``h_hat``, recomputed."""
    h, _, _ = bilstm(params, "enc", M.embed_source(params, batch), batch.passage_lengths)
    f, g = M.self_match(params, h, length_mask(batch.passage_lengths, h.shape[1]))
    return h, f, g


def test_encode_shapes_and_mask():
    params, _, _, batch = build_setup()
    enc = M.encode_passage(params, batch)
    h, _, g = encoder_parts(params, batch)
    nb, lp = batch.passage_ids.shape
    assert h.shape == (nb, lp, 6)
    assert enc.h_hat.shape == (nb, lp, 6)
    assert enc.proj.shape == (nb, lp, 3)
    assert g.shape == (nb, lp, 1)
    assert np.array_equal(enc.mask.sum(axis=1), batch.passage_lengths)


def test_blend_identity_exact():
    params, _, _, batch = build_setup()
    enc = M.encode_passage(params, batch)
    h, f, g = encoder_parts(params, batch)
    recomputed = g.data * f.data + (1.0 - g.data) * h.data
    assert np.array_equal(enc.h_hat.data, recomputed)


def test_single_position_passage_blend_is_identity():
    params, vocab, tags, _ = build_setup()
    s = make_sample("fox", "what ?", (0, 0), "one")
    batch = encode_batch([s], vocab, tags)
    enc = M.encode_passage(params, batch)
    h, f, _ = encoder_parts(params, batch)
    assert np.array_equal(f.data, h.data)
    assert np.allclose(enc.h_hat.data, h.data, atol=1e-14)


def test_gate_bias_hook_disables_blend():
    params, _, _, batch = build_setup()
    params["gate.b"].data[:] = -1e9
    enc = M.encode_passage(params, batch)
    h, _, g = encoder_parts(params, batch)
    assert np.all(g.data == 0.0)
    assert np.array_equal(enc.h_hat.data, h.data)


def test_hoisted_projection_matches_direct():
    params, _, _, batch = build_setup()
    enc = M.encode_passage(params, batch)
    assert np.array_equal(enc.proj.data,
                          np.matmul(enc.h_hat.data, params["attn.Wh"].data))


# -- copy distribution --------------------------------------------------------


def test_copy_distribution_aggregates_duplicates():
    alpha = Tensor(np.array([[0.2, 0.5, 0.3]]))
    ids = np.array([[7, 5, 7]])
    p = copy_distribution(alpha, ids, 9)
    assert p.data[0, 7] == pytest.approx(0.5)
    assert p.data[0, 5] == pytest.approx(0.5)
    assert p.data.sum() == pytest.approx(1.0, abs=1e-9)


def test_copy_distribution_point_mass():
    alpha = Tensor(np.array([[0.0, 1.0, 0.0]]))
    p = copy_distribution(alpha, np.array([[4, 6, 4]]), 8)
    assert p.data[0, 6] == 1.0
    assert p.data.sum() == 1.0


# -- decode step --------------------------------------------------------------


def first_step(params, batch, kmem=None):
    """The first step's full output distribution, by the reference
    composition that decode_step's log probabilities are checked against."""
    enc = M.encode_passage(params, batch)
    state = M.init_decoder_state(params, "dec", enc.bw_final)
    out, state = reference_decode_step(params, "dec", batch.question_ids[:, 0], state,
                                       memory_of(enc, batch, kmem))
    return enc, out, state


def test_decode_distributions_normalized():
    params, _, _, batch = build_setup()
    enc, out, _ = first_step(params, batch)
    for dist in (out.p_vocab, out.p_copy, out.p):
        assert np.allclose(dist.data.sum(axis=-1), 1.0, atol=1e-9)
    assert np.all(out.alpha.data[~enc.mask] == 0.0)
    assert np.all((out.p_g.data > 0.0) & (out.p_g.data < 1.0))


def test_mixture_identity_recomputed():
    params, vocab, _, batch = build_setup()
    _, out, _ = first_step(params, batch)
    pad = batch.extended_size - len(vocab)
    p_vocab_ext = np.concatenate([out.p_vocab.data, np.zeros((batch.size, pad))], axis=-1)
    want = out.p_g.data * p_vocab_ext + (1.0 - out.p_g.data) * out.p_copy.data
    assert np.array_equal(out.p.data, want)


def test_forced_generate_gate_one():
    params, vocab, _, batch = build_setup()
    params["dec.copy.b"].data[:] = 1e9
    _, out, _ = first_step(params, batch)
    assert np.all(out.p_g.data == 1.0)
    assert np.array_equal(out.p.data[:, :len(vocab)], out.p_vocab.data)
    assert np.all(out.p.data[:, len(vocab):] == 0.0)


def test_forced_copy_gate_zero():
    params, _, _, batch = build_setup()
    params["dec.copy.b"].data[:] = -1e9
    _, out, _ = first_step(params, batch)
    assert np.all(out.p_g.data == 0.0)
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


def gold_steps(rows: list[np.ndarray], targets: np.ndarray) -> list[Tensor]:
    """The per-step gold probabilities that fixed distributions give the
    targets, as teacher_forced_steps returns them."""
    return [Tensor(np.asarray(r)[np.arange(len(r)), targets[:, t + 1]])
            for t, r in enumerate(rows)]


def test_point_mass_predictions_loss_zero():
    targets = np.array([[BOS, 2, 1]])
    step0 = np.zeros((1, 4)); step0[0, 2] = 1.0
    step1 = np.zeros((1, 4)); step1[0, 1] = 1.0
    loss = M.sequence_nll(gold_steps([step0, step1], targets), targets, np.array([3]))
    assert loss.item() == 0.0


def test_uniform_predictions_loss_ln_vext():
    n = 7
    targets = np.array([[BOS, 5, 2]])
    u = np.full((1, n), 1.0 / n)
    loss = M.sequence_nll(gold_steps([u, u], targets), targets, np.array([3]))
    assert loss.item() == pytest.approx(math.log(n), abs=1e-12)


def test_two_sample_hand_oracle():
    # Sample 0 picks probs 0.4 then 0.25 over its two steps; sample 1 picks
    # 0.1 over its single step. Frozen scalar recomputation:
    # -(ln 0.4 + ln 0.25)/2 averaged with -ln 0.1.
    targets = np.array([[BOS, 3, 1], [BOS, 2, 0]])
    lengths = np.array([3, 2])
    step0 = np.array([[0.2, 0.2, 0.2, 0.4], [0.6, 0.2, 0.1, 0.1]])
    step1 = np.array([[0.25, 0.25, 0.25, 0.25], [0.9, 0.05, 0.03, 0.02]])
    loss = M.sequence_nll(gold_steps([step0, step1], targets), targets, lengths)
    assert loss.item() == pytest.approx(1.7269388197455342, abs=1e-12)


def floor_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records
            if r.name == M.__name__ and "zero-probability" in r.getMessage()]


def test_zero_probability_target_floors_and_counts(caplog):
    targets = np.array([[BOS, 0]])
    step0 = np.array([[0.0, 1.0]])
    loss = M.sequence_nll(gold_steps([step0], targets), targets, np.array([2]))
    assert loss.item() == pytest.approx(-math.log(M.PROB_FLOOR), rel=1e-12)
    assert floor_warnings(caplog) == ["floored 1 zero-probability target tokens"]


def test_pad_steps_do_not_touch_floor_counter(caplog):
    targets = np.array([[BOS, 1, 0], [BOS, 1, 1]])
    ok = np.array([[0.1, 0.9], [0.1, 0.9]])
    bad_on_pad = np.array([[1.0, 0.0], [0.5, 0.5]])
    M.sequence_nll(gold_steps([ok, bad_on_pad], targets), targets, np.array([2, 3]))
    assert floor_warnings(caplog) == []


def test_steps_must_fit_the_targets():
    targets = np.array([[BOS, 1, 0]])
    with pytest.raises(ShapeError, match="1 steps for targets of width 3"):
        M.sequence_nll(gold_steps([np.array([[0.5, 0.5]])], targets), targets,
                       np.array([3]))
    params, _, _, batch = build_setup()
    enc = M.encode_passage(params, batch)
    memory = replace(memory_of(enc, batch), extended_size=int(batch.question_ids.max()))
    with pytest.raises(ShapeError, match="outside the extended vocabulary"):
        M.teacher_forced_steps(params, "dec", memory, batch.question_ids,
                               batch.question_lengths)


def test_teacher_forcing_step_count():
    params, _, _, batch = build_setup()
    enc = M.encode_passage(params, batch)
    steps = M.teacher_forced_steps(params, "dec", memory_of(enc, batch),
                                   batch.question_ids, batch.question_lengths)
    assert len(steps) == int(batch.question_lengths.max()) - 1


def test_oov_question_token_reachable_through_copy():
    params, vocab, _, batch = build_setup()
    enc = M.encode_passage(params, batch)
    steps = M.teacher_forced_steps(params, "dec", memory_of(enc, batch),
                                   batch.question_ids, batch.question_lengths)
    qid = batch.question_ids[1]
    ext_positions = np.nonzero(qid >= len(vocab))[0]
    assert ext_positions.size > 0  # "kraken" is copy-only
    for t in ext_positions:
        assert steps[t - 1].data[1] > 0.0  # step t - 1 scores qid[t]


def test_loss_gradients_against_finite_differences():
    params, _, _, batch = build_setup(seed=3)

    def loss_fn():
        enc = M.encode_passage(params, batch)
        steps = M.teacher_forced_steps(params, "dec", memory_of(enc, batch),
                                       batch.question_ids, batch.question_lengths)
        return M.sequence_nll(steps, batch.question_ids, batch.question_lengths)

    report = grad_check(loss_fn, params.items(), eps=1e-6, samples_per_tensor=3,
                        rng=np.random.default_rng(11))
    assert report.max_rel_err < 1e-4, report.worst_param


# -- generation ---------------------------------------------------------------


def test_beam_one_equals_greedy():
    params, batch = single_setup(seed=2)
    memory = memory_of(M.encode_passage(params, batch), batch)
    greedy = reference_greedy_decode(params, "dec", memory, max_len=8)
    hyp = M.beam_search(params, "dec", memory, beam=1, max_len=8)
    assert hyp.ids == greedy


def test_beam_deterministic():
    params, batch = single_setup(seed=4)
    memory = memory_of(M.encode_passage(params, batch), batch)
    runs = [M.beam_search(params, "dec", memory, beam=4, max_len=8) for _ in range(2)]
    assert runs[0].ids == runs[1].ids
    assert runs[0].score == runs[1].score


def test_beam_output_well_formed():
    params, batch = single_setup(seed=6)
    memory = memory_of(M.encode_passage(params, batch), batch)
    hyp = M.beam_search(params, "dec", memory, beam=3, max_len=8)
    assert len(hyp.ids) <= 8
    assert all(0 <= i < batch.extended_size for i in hyp.ids)
    assert EOS not in hyp.ids
    assert math.isfinite(hyp.score) and hyp.score <= 0.0


def test_generation_rejects_multi_sample_batches():
    params, _, _, batch = build_setup()
    memory = memory_of(M.encode_passage(params, batch), batch)
    with pytest.raises(ShapeError, match="a decode memory holds one sample"):
        M.beam_search(params, "dec", memory, beam=2, max_len=4)


def test_beam_rejects_nonpositive_width():
    params, batch = single_setup()
    memory = memory_of(M.encode_passage(params, batch), batch)
    with pytest.raises(ValueError):
        M.beam_search(params, "dec", memory, beam=0, max_len=4)


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
    s2.triples.append(AlignedTriple(KnowledgeTriple("sea", "RelatedTo", "kraken", "ConceptNet")))
    vocab = build_vocab([s1])
    tags = build_tag_vocabs([s1, s2])
    cfg = Config(emb_dim=5, feat_dim=2, hidden_size=hidden, layers=2)
    params = TR.build_parameters(cfg, vocab, tags, np.random.default_rng(seed))
    for _, p in params.items():
        p.data *= scale
    return params, [encode_batch([s], vocab, tags) for s in (s1, s2)]


def assert_beam_matches_reference(params, batch, kmem, beam, max_len=8):
    args = (params, "dec", memory_of(M.encode_passage(params, batch), batch, kmem))
    got = M.beam_search(*args, beam=beam, max_len=max_len, length_penalty=0.9)
    want = reference_beam_search(*args, beam=beam, max_len=max_len,
                                 length_penalty=0.9)
    assert got.ids == want.ids
    assert got.score == want.score
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
    out, _ = reference_decode_step(params, "dec", np.array([BOS]),
                                   M.init_decoder_state(params, "dec", enc.bw_final),
                                   memory_of(enc, plain))
    lp = np.log(out.p.data)   # one row
    copied = set(plain.copy_ids[0].tolist())
    free = [i for i in range(plain.extended_size) if i not in copied]
    assert np.all(lp[0, free] == lp[0, free[0]])
    _, top, _ = M._best_candidates(lp, np.zeros(1), np.zeros(1, dtype=np.intp),
                                   len(copied) + 4)
    top = top.tolist()
    assert set(top[:len(copied)]) == copied and top[len(copied):] == free[:4]
    # with the copy gate shut every candidate of every step ties, so from
    # the second step on only the order of the hypotheses' ids ranks them
    params["dec.copy.b"].data[...] = 1e9
    for beam in (2, 5):
        assert_beam_matches_reference(params, plain, None, beam, max_len=4)


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


def repeat_rows(memory: M.DecodeMemory, k: int) -> M.DecodeMemory:
    """A one-sample decoder memory copied as k rows."""
    def rows(t: Tensor) -> Tensor:
        return Tensor(np.repeat(t.data, k, axis=0))

    enc, kmem = memory.enc, memory.kmem
    enc_k = replace(enc, h_hat=rows(enc.h_hat), proj=rows(enc.proj),
                    mask=np.repeat(enc.mask, k, axis=0), bw_final=rows(enc.bw_final))
    kmem_k = None if kmem is None else M.KnowledgeMemory(
        rows=rows(kmem.rows), mask=np.repeat(kmem.mask, k, axis=0),
        proj=rows(kmem.proj))
    return M.DecodeMemory(enc_k, kmem_k, np.repeat(memory.copy_ids, k, axis=0),
                          memory.extended_size, rows(memory.init_source))


def rows_of(state: M.DecoderState, lo: int, hi: int) -> M.DecoderState:
    return M._reorder_state(state, list(range(lo, hi)))


def state_tensors(state: M.DecoderState) -> list[Tensor]:
    return [t for pair in state.states for t in pair] + [state.s_tilde]


@pytest.mark.parametrize("k", [1, 3, 10])
def test_decode_step_broadcasts_one_sample_inputs_over_state_rows(k):
    # a group of three samples: pure, equipped with a knowledge memory, and
    # the equipped one without it; widths 8, 10 and 10, the last two with
    # copy ids past the word vocabulary. Each sample's rows equal the
    # reference over that sample's inputs copied as k rows, bit for bit
    params, (plain, equipped) = oracle_world(k, hidden=4)
    vocab_size = params["emb.word"].shape[0]
    assert equipped.extended_size > plain.extended_size == vocab_size
    rng = np.random.default_rng(k)
    with T.no_grad(), T.batch_invariant():
        batches = (plain, equipped, equipped)
        kmems = [None, A.unified_memory(params, A.encode_triples(params, equipped)), None]
        memories = [memory_of(M.encode_passage(params, b), b, kmem)
                    for b, kmem in zip(batches, kmems)]
        y = rng.integers(0, plain.extended_size, size=3 * k)
        state = k_row_state(params, 3 * k, rng)
        lps, got_state = M.decode_step(params, "dec", y, state, memories, [k] * 3)
        for i, (memory, lp) in enumerate(zip(memories, lps)):
            want, want_state = reference_decode_step(
                params, "dec", y[i * k:(i + 1) * k], rows_of(state, i * k, (i + 1) * k),
                repeat_rows(memory, k))
            assert lp.shape == (k, memory.extended_size)
            assert lp.tobytes() == np.log(np.maximum(want.p.data, M.PROB_FLOOR)).tobytes()
            for g, w in zip(state_tensors(rows_of(got_state, i * k, (i + 1) * k)),
                            state_tensors(want_state), strict=True):
                assert g.data.tobytes() == w.data.tobytes()


def split_output_world(seed: int, question: str = "what did the kraken rise from ?"):
    """A one-sample batch with a triple, and parameters at hidden 64 whose
    ``dec.out.W`` is 4,101 columns wide, as wide as a real vocabulary's. The
    word vocabulary holds the passage's first five tokens only."""
    s = make_sample("a kraken rose from the deep sea near the dog", question, (5, 6), "b")
    s.triples.append(AlignedTriple(KnowledgeTriple("sea", "RelatedTo", "kraken", "ConceptNet")))
    vocab = Vocabulary([f"w{i}" for i in range(4096)] + s.passage[:5])
    tags = build_tag_vocabs([s])
    cfg = Config(emb_dim=5, feat_dim=2, hidden_size=64, layers=2)
    params = TR.build_parameters(cfg, vocab, tags, np.random.default_rng(seed))
    assert params["dec.out.W"].shape == (64, len(vocab))
    return params, vocab, encode_batch([s], vocab, tags)


@pytest.mark.parametrize("k", [3, 10])
def test_decode_step_rows_equal_one_row_calls_across_chunk_boundaries(k):
    # samples of k rows each, alternately without and with the knowledge
    # memory, until the group passes one chunk of rows: at k = 3 six samples
    # make rows 0-17, at k = 10 two make rows 0-19, so a sample's rows
    # straddle row CHUNK_ROWS and the last chunk is padded
    params, _, batch = split_output_world(k)
    enc = M.encode_passage(params, batch)
    n = T.CHUNK_ROWS // k + 1
    assert any(i * k < T.CHUNK_ROWS < (i + 1) * k for i in range(n))
    rng = np.random.default_rng(k)
    y = rng.integers(0, batch.extended_size, size=n * k)
    state = k_row_state(params, n * k, rng)
    with T.no_grad(), T.batch_invariant():
        full_kmem = A.unified_memory(params, A.encode_triples(params, batch))
        memories = [memory_of(enc, batch, (None, full_kmem)[i % 2]) for i in range(n)]
        got, got_state = M.decode_step(params, "dec", y, state, memories, [k] * n)
        for i in range(n * k):
            mem = memories[i // k]
            one, one_state = M.decode_step(params, "dec", y[i:i + 1],
                                           rows_of(state, i, i + 1), [mem], [1])
            assert got[i // k][i % k].tobytes() == one[0][0].tobytes()
            assert (got_state.s_tilde.data[i].tobytes()
                    == one_state.s_tilde.data[0].tobytes())


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", ["equipped", "pure", "oov_copy"])
def test_teacher_forcing_and_decode_step_agree_bitwise(case, seed):
    # the two production step paths over one memory, on the gold prefix:
    # teacher forcing's output product runs as one product, decode_step's
    # in 8-row chunks; the oov_copy target copies "deep sea" from the
    # passage, past the word vocabulary
    question = ("what rose from the deep sea ?" if case == "oov_copy"
                else "what did the kraken rise from ?")
    params, vocab, batch = split_output_world(seed, question)
    ids = batch.question_ids[0, :batch.question_lengths[0]]
    assert (ids.max() >= len(vocab)) == (case == "oov_copy")
    kmem = (A.unified_memory(params, A.encode_triples(params, batch))
            if case == "equipped" else None)
    memory = memory_of(M.encode_passage(params, batch), batch, kmem)
    steps = M.teacher_forced_steps(params, "dec", memory, batch.question_ids,
                                   batch.question_lengths)
    assert len(steps) == len(ids) - 1
    with T.no_grad(), T.batch_invariant():
        state = M.init_decoder_state(params, "dec", memory.init_source)
        for t, step in enumerate(steps):
            [lp], state = M.decode_step(params, "dec", ids[t:t + 1], state, [memory], [1])
            want = np.log(np.maximum(step.data, M.PROB_FLOOR))
            assert lp[0, ids[t + 1]].tobytes() == want[0].tobytes(), t


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
    unique, uniques = np.unique, []

    def counted_unique(*args, **kwargs):
        uniques.append(args[0])
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted_unique)
    for kmem in (None, full_kmem):
        calls.clear()
        uniques.clear()
        M.beam_search(params, "dec", memory_of(enc, equipped, kmem), beam=10, max_len=6)
        assert max(c["rows"][0] for c in calls) > 1
        # the memory's copy ids are bucketed once, not at every step
        assert len(calls) > 1 and len(uniques) == 1
        for c in calls:
            [mem] = c["memories"]
            assert mem.enc.h_hat is enc.h_hat and mem.enc.proj is enc.proj
            assert mem.enc.mask is enc.mask and mem.kmem is kmem
            assert mem.copy_ids is equipped.copy_ids


def reference_selection(lp, logp, ids, beam):
    """Each row's best tokens by a full stable argsort, then every candidate
    sorted by (-total, ids + (token,)), as beam search ranked them."""
    cands = []
    for row in range(lp.shape[0]):
        for tok in np.argsort(-lp[row], kind="stable")[:beam]:
            cands.append((float(logp[row]) + float(lp[row, tok]), ids[row], int(tok), row))
    cands.sort(key=lambda cand: (-cand[0], cand[1] + (cand[2],)))
    return [(row, tok, total) for total, _, tok, row in cands[:beam]]


def test_top_tokens_equal_full_stable_argsort():
    # few distinct values, so ties are everywhere, at the beam threshold too;
    # beams up to past every candidate of the sample
    rng = np.random.default_rng(0)
    for n_rows in (1, 2, 5):
        for ext in (1, 2, 7, 40):
            for _ in range(10):
                lp = -rng.integers(0, 4, size=(n_rows, ext)).astype(np.float64)
                logp = -rng.integers(0, 3, size=n_rows).astype(np.float64)
                ids = rng.permutation(3 ** 3)[:n_rows]   # distinct ids, 3 tokens each
                ids = [tuple(int(d) for d in np.base_repr(i, 3).zfill(3)) for i in ids]
                rank = np.empty(n_rows, dtype=np.intp)
                rank[sorted(range(n_rows), key=lambda r: ids[r])] = np.arange(n_rows)
                for beam in range(1, n_rows * ext + 3):
                    rows, toks, totals = M._best_candidates(lp, logp, rank, beam)
                    got = list(zip(rows.tolist(), toks.tolist(), totals.tolist()))
                    assert got == reference_selection(lp, logp, ids, beam)
