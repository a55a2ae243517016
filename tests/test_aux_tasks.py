"""Triple encoders, passage co-attention, relation classifier, and the tail
generation head."""

import math

import numpy as np
import pytest

from ckqg import aux_tasks as A
from ckqg import qg_model as M
from ckqg import trainer as TR
from ckqg.config import Config
from ckqg.corpus import (BOS, EOS, TrainingSample, ValidationError,
                         build_tag_vocabs, build_vocab, coarse_tags,
                         encode_batch)
from ckqg.kb_extract import AlignedTriple, KnowledgeTriple
from ckqg.nn import tensor as T
from ckqg.nn.gradcheck import grad_check
from ckqg.nn.tensor import Tensor

from oracles import reference_decode_step


def make_sample(text, question, span, sid, triple=None):
    toks = text.split()
    pos, ner = coarse_tags(toks)
    triples = [triple] if triple else []
    return TrainingSample(passage=toks, answer_span=span, pos_tags=pos,
                          ner_tags=ner, question=question.split(),
                          triples=triples, sample_id=sid)


def build_setup(seed: int = 0, hidden: int = 3, layers: int = 2):
    t1 = AlignedTriple(
        triple=KnowledgeTriple("council", "RelatedTo", "governing bodies", "ConceptNet"))
    t2 = AlignedTriple(triple=KnowledgeTriple("harbor", "Synonymy", "port", "ConceptNet"))
    s1 = make_sample("the council of the union has veto power",
                     "which governing bodies hold veto power ?", (6, 7), "a", t1)
    s2 = make_sample("the harbor was busy at dawn",
                     "how busy was the port ?", (3, 3), "b", t2)
    samples = [s1, s2]
    vocab = build_vocab(samples)
    tags = build_tag_vocabs(samples)
    batch = encode_batch(samples, vocab, tags)
    cfg = Config(emb_dim=4, feat_dim=2, hidden_size=hidden, layers=layers)
    params = TR.build_parameters(cfg, vocab, tags, np.random.default_rng(seed))
    return params, vocab, tags, batch


# -- triple encoders ----------------------------------------------------------


def test_head_tail_row_counts():
    params, _, _, batch = build_setup()
    rows, mask = A.encode_head_tail(params, batch.head_ids, batch.head_lengths,
                                    batch.tail_ids, batch.tail_lengths)
    # head + separator + tail: 1+1+2 and 1+1+1
    assert rows.shape == (2, 4, 6)
    assert mask.sum(axis=1).tolist() == [4, 3]


def test_head_tail_rejects_empty_concept():
    params, _, _, batch = build_setup()
    with pytest.raises(ValidationError, match="empty concept"):
        A.encode_head_tail(params, batch.head_ids, np.array([1, 0]),
                           batch.tail_ids, batch.tail_lengths)
    with pytest.raises(ValidationError, match="empty concept"):
        A.encode_head_tail(params, batch.head_ids, batch.head_lengths,
                           batch.tail_ids, np.array([0, 1]))


def test_head_relation_rows_and_final():
    params, _, _, batch = build_setup()
    rows, mask, final = A.encode_head_relation(params, batch.head_ids,
                                               batch.head_lengths,
                                               batch.relation_ids)
    assert rows.shape == (2, 2, 6)
    assert mask.all()
    assert final.shape == (2, 6)


def test_distinct_relations_give_distinct_encodings():
    params, _, _, batch = build_setup()
    a, _, _ = A.encode_head_relation(params, batch.head_ids, batch.head_lengths,
                                     np.array([0, 0]))
    b, _, _ = A.encode_head_relation(params, batch.head_ids, batch.head_lengths,
                                     np.array([1, 1]))
    assert not np.allclose(a.data, b.data)


def test_head_relation_rejects_bad_relation_id():
    params, _, _, batch = build_setup()
    for bad in (np.array([6, 0]), np.array([-1, 0])):
        with pytest.raises(ValidationError, match="relation id"):
            A.encode_head_relation(params, batch.head_ids, batch.head_lengths, bad)


def test_encode_triples_concatenates_memory():
    params, _, _, batch = build_setup()
    trip = A.encode_triples(params, batch)
    lt, lr = trip.t.shape[1], trip.r.shape[1]
    assert trip.k.shape == (2, lt + lr, 6)
    assert np.array_equal(trip.k.data[:, :lt], trip.t.data)
    assert np.array_equal(trip.k.data[:, lt:], trip.r.data)
    assert np.array_equal(trip.k_mask,
                          np.concatenate([trip.t_mask, trip.r_mask], axis=1))


def test_encode_triples_requires_triples():
    params, vocab, tags, _ = build_setup()
    plain = make_sample("the harbor was busy at dawn", "how busy ?", (3, 3), "p")
    batch = encode_batch([plain], vocab, tags)
    with pytest.raises(ValidationError, match="no triples"):
        A.encode_triples(params, batch)


# -- co-attention -------------------------------------------------------------


# Frozen from a scalar-loop recomputation on fixed 2-row/3-row inputs.
CO_R = [[1.0, 0.0], [0.5, -0.5]]
CO_H = [[0.2, 0.4], [-0.3, 0.1], [0.6, -0.2]]
CO_R_HAT = [[0.2947162334054605, 0.052378797047220746,
             0.7715655478973276, -0.22843445210267221],
            [0.2582711071913438, 0.045233384824366396,
             0.7688547307669956, -0.23114526923300435]]


def test_coattend_hand_case():
    r_hat = A.coattend(Tensor(np.array([CO_R])), np.ones((1, 2), dtype=bool),
                       Tensor(np.array([CO_H])), np.ones((1, 3), dtype=bool))
    assert np.allclose(r_hat.data[0], CO_R_HAT, atol=1e-12)


def test_coattend_single_cell():
    r = Tensor(np.array([[[0.4, -0.7]]]))
    h = Tensor(np.array([[[1.5, 0.2]]]))
    ones = np.ones((1, 1), dtype=bool)
    r_hat = A.coattend(r, ones, h, ones)
    assert np.array_equal(r_hat.data[0, 0], [1.5, 0.2, 0.4, -0.7])


def test_coattend_zero_affinity_gives_mean_blend():
    h = Tensor(np.array([CO_H]))
    r = Tensor(np.zeros((1, 2, 2)))
    r_hat = A.coattend(r, np.ones((1, 2), dtype=bool), h, np.ones((1, 3), dtype=bool))
    want = np.concatenate([np.mean(CO_H, axis=0), [0.0, 0.0]])
    for i in range(2):
        assert np.allclose(r_hat.data[0, i], want, atol=1e-15)


def test_coattend_ignores_pad_rows():
    # pad passage rows and pad triple rows carry exactly no attention mass:
    # poisoning them leaves every real row of r_hat unchanged, bit for bit
    params, _, _, batch = build_setup()
    enc = M.encode_passage(params, batch)
    trip = A.encode_triples(params, batch)
    assert not enc.mask.all() and not trip.r_mask.all()
    h_hat, r = enc.h_hat.data.copy(), trip.r.data.copy()
    h_hat[~enc.mask] = 1e6
    r[~trip.r_mask] = 1e6
    a = A.coattend(trip.r, trip.r_mask, enc.h_hat, enc.mask)
    b = A.coattend(Tensor(r), trip.r_mask, Tensor(h_hat), enc.mask)
    assert a.shape == (2, trip.r.shape[1], 12)
    assert a.data[trip.r_mask].tobytes() == b.data[trip.r_mask].tobytes()


# -- relation classification ---------------------------------------------------


def test_classifier_uniform_at_zero_weights():
    params, _, _, batch = build_setup()
    params["rc.out.W"].data[:] = 0.0
    params["rc.out.b"].data[:] = 0.0
    enc = M.encode_passage(params, batch)
    trip = A.encode_triples(params, batch)
    y_r = A.rc_forward(params, enc, trip)
    assert y_r.shape == (2, 6)
    assert np.allclose(y_r.data, 1.0 / 6.0, atol=1e-15)


def test_classifier_pooling_ignores_pad_rows():
    params, _, _, batch = build_setup()
    rng = np.random.default_rng(7)
    base = rng.normal(size=(2, 4, 12))
    mask = np.array([[True, True, True, False], [True, True, False, False]])
    poisoned = base.copy()
    poisoned[~mask] = 1e6
    a = A.classify_relation(params, Tensor(base), mask)
    b = A.classify_relation(params, Tensor(poisoned), mask)
    assert np.array_equal(a.data, b.data)


def test_prediction_argmax_labels():
    params, _, _, batch = build_setup()
    enc = M.encode_passage(params, batch)
    trip = A.encode_triples(params, batch)
    y_r = A.rc_forward(params, enc, trip)
    labels = np.argmax(y_r.data, -1)
    assert labels.shape == (2,) and np.all((labels >= 0) & (labels < A.N_RELATIONS))
    assert np.allclose(y_r.data.sum(axis=-1), 1.0, atol=1e-9)


def test_rc_loss_point_mass_zero():
    y_r = Tensor(np.array([[0, 0, 1.0, 0, 0, 0]]))
    assert A.rc_loss(y_r, np.array([2])).item() == 0.0


def test_rc_loss_uniform_ln6():
    y_r = Tensor(np.array([[1 / 6] * 6]))
    assert A.rc_loss(y_r, np.array([4])).item() == pytest.approx(math.log(6), abs=1e-12)


def test_rc_loss_half_probability():
    y_r = Tensor(np.array([[0.5, 0.3, 0.05, 0.05, 0.05, 0.05]]))
    assert A.rc_loss(y_r, np.array([0])).item() == pytest.approx(0.6931471805599453, abs=1e-12)


def test_rc_loss_batch_mean():
    y_r = Tensor(np.array([[0.5, 0.5, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]]))
    want = (-math.log(0.5) + 0.0) / 2.0
    assert A.rc_loss(y_r, np.array([0, 1])).item() == pytest.approx(want, abs=1e-12)


def test_rc_loss_gold_out_of_range():
    with pytest.raises(T.ShapeError):
        A.rc_loss(Tensor(np.array([[1 / 6] * 6])), np.array([6]))


def test_rc_loss_grad_through_softmax():
    logits = Tensor(np.random.default_rng(5).uniform(-1.0, 1.0, size=(2, 6)),
                    requires_grad=True)

    def loss_fn():
        y_r = T.softmax(logits, axis=-1)
        return A.rc_loss(y_r, np.array([1, 3]))

    report = grad_check(loss_fn, [("logits", logits)], eps=1e-6, samples_per_tensor=12)
    assert report.checked == 12
    assert report.max_rel_err < 1e-7, report.worst_param


def test_rc_gradients_against_finite_differences():
    params, _, _, batch = build_setup(seed=9)

    def loss_fn():
        enc = M.encode_passage(params, batch)
        trip = A.encode_triples(params, batch)
        return A.rc_loss(A.rc_forward(params, enc, trip), batch.relation_ids)

    report = grad_check(loss_fn, params.items("knowledge"), eps=1e-6, samples_per_tensor=2,
                        rng=np.random.default_rng(13))
    assert report.max_rel_err < 1e-4, report.worst_param


# -- tail generation ------------------------------------------------------------


def tg_first_distribution(params, enc, trip, batch):
    """The tail decoder's full output distribution at its first step."""
    memory = M.DecodeMemory(enc, A.tg_memory(params, trip), batch.copy_ids,
                            batch.extended_size, trip.t_final)
    state = M.init_decoder_state(params, "tg.dec", memory.init_source)
    out, _ = reference_decode_step(params, "tg.dec", batch.tail_gen_ids[:, 0], state,
                                   memory)
    return out


def test_tg_steps_and_loss_finite():
    params, _, _, batch = build_setup()
    enc = M.encode_passage(params, batch)
    trip = A.encode_triples(params, batch)
    steps = A.tg_teacher_steps(params, enc, trip, batch)
    assert len(steps) == int(batch.tail_gen_lengths.max()) - 1
    for gold in steps:
        assert gold.shape == (batch.size,)
        assert np.all((gold.data >= 0.0) & (gold.data <= 1.0))
    out = tg_first_distribution(params, enc, trip, batch)
    assert np.allclose(out.p.data.sum(axis=-1), 1.0, atol=1e-9)
    assert np.array_equal(steps[0].data,
                          out.p.data[np.arange(batch.size), batch.tail_gen_ids[:, 1]])
    loss = M.sequence_nll(steps, batch.tail_gen_ids, batch.tail_gen_lengths)
    assert math.isfinite(loss.item()) and loss.item() > 0.0


def test_single_row_memory_context_is_that_row():
    params, _, _, batch = build_setup()
    rng = np.random.default_rng(3)
    enc = M.encode_passage(params, batch)
    rows = Tensor(rng.normal(size=(2, 1, 6)))
    kmem = M.KnowledgeMemory(rows=rows, mask=np.ones((2, 1), dtype=bool),
                             proj=Tensor(rng.normal(size=(2, 1, 3))))
    memory = M.DecodeMemory(enc, kmem, batch.copy_ids, batch.extended_size,
                            Tensor(rng.normal(size=(2, 6))))
    state = M.init_decoder_state(params, "tg.dec", memory.init_source)
    _, s, _ = M._cell_step(params, "tg.dec", batch.tail_gen_ids[:, 0], state)
    _, _, k = M.attention(s, memory)
    assert np.allclose(k.data, rows.data[:, 0, :], atol=1e-15)


def test_tg_forced_copy_emits_passage_tokens_only():
    params, vocab, _, batch = build_setup()
    params["tg.dec.copy.b"].data[:] = -1e9
    enc = M.encode_passage(params, batch)
    trip = A.encode_triples(params, batch)
    out = tg_first_distribution(params, enc, trip, batch)
    for b in range(2):
        source = set(batch.copy_ids[b, :batch.passage_lengths[b]].tolist())
        nonzero = set(np.nonzero(out.p.data[b])[0].tolist())
        assert nonzero <= source


def test_tg_one_token_tail_hand_oracle():
    # picked probabilities 0.7 (tail token) then 0.2 (EOS); frozen scalar
    # value of -(ln 0.7 + ln 0.2) / 2
    targets = np.array([[BOS, 2, EOS]])
    step0 = np.array([[0.1, 0.1, 0.7, 0.1]])
    step1 = np.array([[0.3, 0.3, 0.2, 0.2]])
    steps = [Tensor(s[[0], targets[:, t + 1]]) for t, s in enumerate((step0, step1))]
    loss = M.sequence_nll(steps, targets, np.array([3]))
    assert loss.item() == pytest.approx(0.9830564281864164, abs=1e-12)


def test_tg_gradients_against_finite_differences():
    params, _, _, batch = build_setup(seed=17)

    def loss_fn():
        enc = M.encode_passage(params, batch)
        trip = A.encode_triples(params, batch)
        steps = A.tg_teacher_steps(params, enc, trip, batch)
        return M.sequence_nll(steps, batch.tail_gen_ids, batch.tail_gen_lengths)

    report = grad_check(loss_fn, params.items("knowledge"), eps=1e-6, samples_per_tensor=2,
                        rng=np.random.default_rng(19))
    assert report.max_rel_err < 1e-4, report.worst_param


# -- memories and parameter grouping -------------------------------------------


def test_memory_projections():
    params, _, _, batch = build_setup()
    trip = A.encode_triples(params, batch)
    uni = A.unified_memory(params, trip)
    tgm = A.tg_memory(params, trip)
    assert uni.rows.shape[1] == trip.t.shape[1] + trip.r.shape[1]
    assert tgm.rows.shape[1] == trip.t.shape[1]
    assert np.array_equal(uni.proj.data,
                          np.matmul(trip.k.data, params["know.Wq"].data))
    assert np.array_equal(tgm.proj.data,
                          np.matmul(trip.t.data, params["tg.Wk"].data))


def test_parameter_group_split():
    params, _, _, _ = build_setup()
    knowledge = set(params.names("knowledge"))
    assert "know.special" in knowledge
    assert "know.Wq" in knowledge
    assert "tg.Wk" in knowledge
    assert "rc.out.W" in knowledge
    assert any(n.startswith("ht_enc.") for n in knowledge)
    assert any(n.startswith("hr_enc.") for n in knowledge)
    assert any(n.startswith("tg.dec.") for n in knowledge)
    core = set(params.names("qg_core"))
    assert {"attn.Wh", "emb.word", "dec.blend.k.W"} <= core
    assert not (knowledge & core)
