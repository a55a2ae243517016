"""Phase schedule, loss assembly, freezing, checkpoint averaging, and the
training loop itself at desk scale."""

import numpy as np
import pytest

from ckqg import aux_tasks as A
from ckqg import qg_model as M
from ckqg import trainer as TR
from ckqg.config import Config
from ckqg.corpus import (TrainingSample, ValidationError, build_tag_vocabs,
                         build_vocab, coarse_tags, encode_batch)
from ckqg.kb_extract import AlignedTriple, KnowledgeTriple
from ckqg.nn import tensor as T
from ckqg.nn.checkpoint import load_checkpoint
from ckqg.qg_model import KnowledgeMemory


def make_sample(text, question, span, sid, triple=None):
    toks = text.split()
    pos, ner = coarse_tags(toks)
    return TrainingSample(passage=toks, answer_span=span, pos_tags=pos,
                          ner_tags=ner, question=question.split(),
                          triples=[triple] if triple else [], sample_id=sid)


def equipped_samples():
    t1 = AlignedTriple(
        triple=KnowledgeTriple("council", "RelatedTo", "governing bodies",
                               "ConceptNet"),
        head_positions=(1,), tail_positions=(1, 2))
    t2 = AlignedTriple(
        triple=KnowledgeTriple("harbor", "Synonymy", "port", "ConceptNet"),
        head_positions=(1,), tail_positions=(4,))
    return [
        make_sample("the council of the union has veto power",
                    "which governing bodies hold veto power ?", (6, 7), "e1", t1),
        make_sample("the harbor was busy at dawn",
                    "how busy was the port ?", (3, 3), "e2", t2),
    ]


def pure_samples():
    return [
        make_sample("the red fox jumped over the lazy dog",
                    "what did the red fox jump over ?", (6, 7), "p1"),
        make_sample("rain fell on the quiet harbor at night",
                    "when did rain fall on the harbor ?", (7, 7), "p2"),
    ]


def tiny_config(**kw) -> Config:
    base = dict(hidden_size=3, layers=1, emb_dim=4, feat_dim=2, dropout=0.0,
                vocab_size=200, batch_size=2, lr=0.01, itf_n=2, itf_cycles=1,
                eval_every=1000, ckpt_keep=3, avg_k=3, seed=5, beam=2,
                max_len=12)
    base.update(kw)
    cfg = Config()
    for k, v in base.items():
        setattr(cfg, k, v)
    cfg.validate()
    return cfg


def build_world(seed=0):
    eq = equipped_samples()
    pu = pure_samples()
    vocab = build_vocab(eq + pu)
    tags = build_tag_vocabs(eq + pu)
    cfg = tiny_config(seed=seed)
    params = TR.build_parameters(cfg, vocab, tags, np.random.default_rng(seed))
    return cfg, params, vocab, tags, eq, pu


# -- schedule and freezing ----------------------------------------------------


class TestSchedule:
    def test_two_by_two(self):
        E, P = TR.EQUIPPED, TR.PURE
        assert TR.itf_schedule(TR.ITFConfig(2, 2)) == [E, E, P, P, E, E, P, P]

    def test_minimal(self):
        assert TR.itf_schedule(TR.ITFConfig(1, 1)) == [TR.EQUIPPED, TR.PURE]

    def test_default_scale_totals(self):
        assert len(TR.itf_schedule(TR.ITFConfig(3000, 3))) == 18000

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TR.itf_schedule(TR.ITFConfig(0, 1))
        with pytest.raises(ValueError):
            TR.itf_schedule(TR.ITFConfig(1, 0))

    def test_freeze_mask(self):
        assert TR.freeze_mask(TR.EQUIPPED) == {"qg_core": True, "knowledge": True}
        assert TR.freeze_mask(TR.PURE) == {"qg_core": True, "knowledge": False}
        with pytest.raises(ValueError):
            TR.freeze_mask("warmup")


# -- forward passes -----------------------------------------------------------


class TestForward:
    def test_bundle_additivity_bitwise(self):
        cfg, params, vocab, tags, eq, _ = build_world()
        batch = encode_batch(eq, vocab, tags)
        bundle = TR.unified_forward(params, batch)
        want = (bundle.l_q.data + bundle.l_r.data) + bundle.l_t.data
        assert bundle.l.data == want
        assert bundle.l_q.data >= 0 and bundle.l_r.data >= 0 and bundle.l_t.data >= 0

    def test_dropout_is_active_exactly_when_an_rng_is_passed(self):
        cfg, params, vocab, tags, eq, _ = build_world()
        batch = encode_batch(eq, vocab, tags)
        plain = TR.unified_forward(params, batch).l.data
        no_rng = TR.unified_forward(params, batch, drop_rate=0.3).l.data
        assert no_rng.tobytes() == plain.tobytes()
        dropped = TR.unified_forward(params, batch, drop_rate=0.3,
                                     rng=np.random.default_rng(5)).l.data
        assert dropped != plain

    def test_matches_composition_through_module_apis(self):
        cfg, params, vocab, tags, eq, _ = build_world()
        batch = encode_batch(eq[:1], vocab, tags)
        bundle = TR.unified_forward(params, batch)

        enc = M.encode_passage(params, batch)
        trip = A.encode_triples(params, batch)
        kmem = A.unified_memory(params, trip)
        steps = M.teacher_forced_steps(
            params, "dec", enc, kmem, batch.question_ids,
            batch.question_lengths, batch.copy_ids, batch.extended_size,
            init_source=enc.bw_final)
        l_q = M.sequence_nll(steps, batch.question_ids, batch.question_lengths)
        _, pred = A.rc_forward(params, enc, trip)
        l_r = A.rc_loss(pred, batch.relation_ids)
        tg_steps = A.tg_teacher_steps(params, enc, trip, batch)
        l_t = M.sequence_nll(tg_steps, batch.tail_gen_ids, batch.tail_gen_lengths)

        assert float(bundle.l_q.data) == float(l_q.data)
        assert float(bundle.l_r.data) == float(l_r.data)
        assert float(bundle.l_t.data) == float(l_t.data)

    def test_pure_total_is_question_loss_exactly(self):
        cfg, params, vocab, tags, _, pu = build_world()
        batch = encode_batch(pu, vocab, tags)
        bundle = TR.pure_forward(params, batch)
        assert bundle.l.data == bundle.l_q.data
        assert float(bundle.l_r.data) == 0.0
        assert float(bundle.l_t.data) == 0.0

    def test_pure_leaves_knowledge_without_gradient(self):
        cfg, params, vocab, tags, _, pu = build_world()
        batch = encode_batch(pu, vocab, tags)
        params.zero_grads()
        TR.pure_forward(params, batch).l.backward()
        for name, p in params.items("knowledge"):
            assert p.grad is None, name
        assert any(p.grad is not None for _, p in params.items("qg_core"))

    def test_pure_equals_unified_with_zeroed_memory(self):
        cfg, params, vocab, tags, _, pu = build_world()
        batch = encode_batch(pu, vocab, tags)
        want = TR.pure_forward(params, batch)

        enc = M.encode_passage(params, batch)
        rows = T.Tensor(np.zeros((batch.size, 3, 2 * cfg.hidden_size)))
        kmem = KnowledgeMemory(rows=rows, mask=np.ones((batch.size, 3), dtype=bool),
                               proj=T.matmul(rows, params["know.Wq"]))
        steps = M.teacher_forced_steps(
            params, "dec", enc, kmem, batch.question_ids,
            batch.question_lengths, batch.copy_ids, batch.extended_size,
            init_source=enc.bw_final)
        got = M.sequence_nll(steps, batch.question_ids, batch.question_lengths)
        assert abs(float(got.data) - float(want.l_q.data)) < 1e-12

    def test_ablation_flags_zero_components_exactly(self):
        cfg, params, vocab, tags, eq, _ = build_world()
        batch = encode_batch(eq, vocab, tags)
        no_tg = TR.unified_forward(params, batch, no_tg=True)
        assert float(no_tg.l_t.data) == 0.0
        assert no_tg.l.data == (no_tg.l_q.data + no_tg.l_r.data)
        no_rc = TR.unified_forward(params, batch, no_rc=True)
        assert float(no_rc.l_r.data) == 0.0
        both = TR.unified_forward(params, batch, no_rc=True, no_tg=True)
        assert both.l.data == both.l_q.data

    def test_stripped_variant_still_attends_knowledge(self):
        # with both aux losses off, the triple memory still shifts L_q away
        # from the no-knowledge forward on the same batch
        cfg, params, vocab, tags, eq, _ = build_world()
        batch = encode_batch(eq, vocab, tags)
        both = TR.unified_forward(params, batch, no_rc=True, no_tg=True)
        plain = TR.pure_forward(params, batch)
        assert float(both.l_q.data) != float(plain.l_q.data)


# -- batching -----------------------------------------------------------------


class TestBatching:
    def test_cycling_is_deterministic_and_wraps(self):
        cfg, params, vocab, tags, eq, pu = build_world()
        stream = TR.cycle_batches(pu, vocab, tags, batch_size=1)
        first = [next(stream).passage_ids for _ in range(4)]
        assert np.array_equal(first[0], first[2])
        assert np.array_equal(first[1], first[3])
        assert not np.array_equal(first[0], first[1])

    def test_oversized_batch_wraps_within_one_draw(self):
        cfg, params, vocab, tags, eq, pu = build_world()
        stream = TR.cycle_batches(pu, vocab, tags, batch_size=5)
        assert next(stream).size == 2

    def test_empty_corpus_rejected(self):
        cfg, params, vocab, tags, *_ = build_world()
        with pytest.raises(ValidationError):
            next(TR.cycle_batches([], vocab, tags, 2))


# -- checkpoint averaging -----------------------------------------------------


class TestAveraging:
    def test_identical_checkpoints_fixed_point(self):
        rng = np.random.default_rng(3)
        state = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(4,))}
        out = TR.average_checkpoints([state, dict(state), dict(state),
                                      dict(state), dict(state)])
        for k in state:
            assert np.array_equal(out[k], state[k])

    def test_two_point_mean(self):
        a = {"w": np.array([1.0, 3.0])}
        b = {"w": np.array([2.0, 5.0])}
        out = TR.average_checkpoints([a, b])
        assert np.array_equal(out["w"], np.array([1.5, 4.0]))

    def test_matches_elementwise_recomputation(self):
        # scalar-loop oracle mirroring the recentred mean, bit for bit
        rng = np.random.default_rng(9)
        states = [{"w": rng.normal(size=(3, 2)), "v": rng.normal(size=(5,))}
                  for _ in range(5)]
        out = TR.average_checkpoints(states)
        for key in ("w", "v"):
            want = np.zeros_like(states[0][key])
            flat = want.reshape(-1)
            for i in range(flat.size):
                base = states[0][key].reshape(-1)[i]
                acc = 0.0
                for st in states[1:]:
                    acc = acc + (st[key].reshape(-1)[i] - base)
                flat[i] = base + acc / len(states)
            assert np.array_equal(out[key], want)

    def test_close_snapshots_average_accurately(self):
        # perturbations near machine epsilon of a large base survive
        base = np.full(4, 1e8)
        states = [{"w": base + i * 1e-8} for i in range(5)]
        out = TR.average_checkpoints(states)
        assert np.allclose(out["w"], base + 2e-8, rtol=0, atol=1e-9)

    def test_key_and_shape_mismatches_rejected(self):
        with pytest.raises(ValueError, match="key sets"):
            TR.average_checkpoints([{"a": np.zeros(2)}, {"b": np.zeros(2)}])
        with pytest.raises(ValueError, match="shape"):
            TR.average_checkpoints([{"a": np.zeros(2)}, {"a": np.zeros(3)}])
        with pytest.raises(ValueError):
            TR.average_checkpoints([])


# -- the training loop --------------------------------------------------------


class TestTrainLoop:
    def test_phase_spans_follow_schedule_and_freeze_knowledge(self):
        eq, pu = equipped_samples(), pure_samples()
        cfg = tiny_config(itf_n=2, itf_cycles=2, lr=0.05)
        result = TR.train(eq, pu, [], cfg)
        assert [s.phase for s in result.phase_spans] == [
            TR.EQUIPPED, TR.PURE, TR.EQUIPPED, TR.PURE]
        assert [(s.start, s.end) for s in result.phase_spans] == [
            (1, 2), (3, 4), (5, 6), (7, 8)]
        for span in result.phase_spans:
            if span.phase == TR.PURE:
                assert span.hash_before["knowledge"] == span.hash_after["knowledge"]
            else:
                assert span.hash_before["knowledge"] != span.hash_after["knowledge"]
            assert span.hash_before["qg_core"] != span.hash_after["qg_core"]

    def test_logged_phases_match_schedule(self):
        eq, pu = equipped_samples(), pure_samples()
        cfg = tiny_config(itf_n=1, itf_cycles=2)
        result = TR.train(eq, pu, [], cfg)
        want = TR.itf_schedule(TR.ITFConfig(1, 2))
        assert [r["phase"] for r in result.log_rows] == want
        assert [r["step"] for r in result.log_rows] == [1, 2, 3, 4]

    def test_additivity_holds_for_every_logged_step(self):
        eq, pu = equipped_samples(), pure_samples()
        cfg = tiny_config(itf_n=2, itf_cycles=1)
        result = TR.train(eq, pu, [], cfg)
        for row in result.log_rows:
            assert row["l"] == (row["l_q"] + row["l_r"]) + row["l_t"]
            if row["phase"] == TR.PURE:
                assert row["l_r"] == 0.0 and row["l_t"] == 0.0

    def test_determinism_across_runs(self):
        eq, pu = equipped_samples(), pure_samples()
        cfg = tiny_config(itf_n=2, itf_cycles=1, dropout=0.2)
        a = TR.train(eq, pu, [], cfg)
        b = TR.train(eq, pu, [], cfg)
        assert a.log_rows == b.log_rows
        for g in ("qg_core", "knowledge"):
            assert a.params.group_hash(g) == b.params.group_hash(g)

    def test_equipped_only_mode_never_enters_pure(self):
        eq = equipped_samples()
        cfg = tiny_config(itf_n=2, itf_cycles=2)
        result = TR.train(eq, [], [], cfg, mode="equipped-only")
        assert all(r["phase"] == TR.EQUIPPED for r in result.log_rows)
        assert len(result.log_rows) == cfg.itf_n * cfg.itf_cycles

    def test_itf_requires_both_corpora(self):
        eq = equipped_samples()
        with pytest.raises(ValidationError):
            TR.train(eq, [], [], tiny_config())
        with pytest.raises(ValueError, match="mode"):
            TR.train(eq, pure_samples(), [], tiny_config(), mode="warmup")

    def test_divergence_aborts_with_diagnostic(self):
        # resume from a blown-up snapshot: the forward overflows to inf and
        # the loop must stop with a step/phase diagnostic, not march on
        eq, pu = equipped_samples(), pure_samples()
        cfg = tiny_config(itf_n=3, itf_cycles=1)
        vocab = build_vocab(eq + pu)
        tags = build_tag_vocabs(eq + pu)
        params = TR.build_parameters(cfg, vocab, tags,
                                     np.random.default_rng(cfg.seed))
        poisoned = params.state_dict()
        poisoned["emb.word"] = np.full_like(poisoned["emb.word"], np.inf)
        with pytest.raises(TR.TrainingError, match=r"step 1 \(Equipped"):
            TR.train(eq, pu, [], cfg, vocab=vocab, tag_vocabs=tags,
                     init_state=poisoned)

    def test_dev_eval_ring_and_averaging(self, tmp_path):
        eq, pu = equipped_samples(), pure_samples()
        cfg = tiny_config(itf_n=2, itf_cycles=1, eval_every=1, ckpt_keep=2,
                          avg_k=2)
        result = TR.train(eq, pu, pu[:1], cfg, out_dir=tmp_path)
        assert len(result.checkpoints) == 2  # capacity bound
        assert all(r.score is not None for r in result.checkpoints)
        assert result.best_step >= 1
        assert result.averaged is not None
        saved = load_checkpoint(tmp_path / "model.bin")
        assert set(saved) == set(result.averaged)
        for k in saved:
            assert np.array_equal(saved[k], result.averaged[k])
        log_text = (tmp_path / "train_log.csv").read_text().splitlines()
        assert log_text[0] == "step,phase,L_q,L_r,L_t,L,dev_bleu4"
        assert len(log_text) == 1 + len(result.log_rows)
        # evicted checkpoint files are removed, surviving ones exist
        on_disk = sorted(p.name for p in tmp_path.glob("ckpt-*.bin"))
        assert on_disk == [f"ckpt-{r.step:06d}.bin" for r in result.checkpoints]

    def test_averaged_selection_centers_on_best(self):
        ring = [TR.CheckpointRecord(step=s, state={}) for s in (10, 20, 30, 40, 50)]
        picked = TR._select_for_average(ring, best_step=40, k=3)
        assert [r.step for r in picked] == [30, 40, 50]
        picked = TR._select_for_average(ring, best_step=10, k=3)
        assert [r.step for r in picked] == [10, 20, 30]
        # distance ties resolve toward the earlier save
        picked = TR._select_for_average(ring, best_step=30, k=2)
        assert [r.step for r in picked] == [20, 30]

    def test_loss_falls_in_short_overfit_run(self):
        eq = equipped_samples()
        cfg = tiny_config(itf_n=40, itf_cycles=1, lr=0.05, hidden_size=4)
        result = TR.train(eq, [], [], cfg, mode="equipped-only")
        first = result.log_rows[0]["l_q"]
        last = result.log_rows[-1]["l_q"]
        assert last < first
        # full-batch descent: disjoint 5-step window means never increase
        losses = [r["l"] for r in result.log_rows]
        means = [sum(losses[i:i + 5]) / 5 for i in range(0, len(losses), 5)]
        assert all(b <= a for a, b in zip(means, means[1:])), means

    def test_stop_below_ends_early(self):
        eq = equipped_samples()
        cfg = tiny_config(itf_n=500, itf_cycles=1, lr=0.05, hidden_size=4)
        result = TR.train(eq, [], [], cfg, mode="equipped-only", stop_below=0.5)
        assert result.log_rows[-1]["l_q"] < 0.5
        assert len(result.log_rows) < 500

    def test_decode_sample_returns_tokens(self):
        cfg, params, vocab, tags, eq, pu = build_world()
        toks = TR.decode_sample(params, pu[0], vocab, tags, beam=1, max_len=6)
        assert isinstance(toks, list)
        assert all(isinstance(t, str) for t in toks)
        beam_toks = TR.decode_sample(params, eq[0], vocab, tags, beam=3,
                                     max_len=6)
        assert all(isinstance(t, str) for t in beam_toks)
