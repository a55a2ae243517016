"""Phase schedule, loss assembly, freezing, checkpoint averaging, and the
training loop itself at desk scale."""

import gc
import hashlib
import itertools
import struct
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import reference_teacher_forced_steps, run_one_thread

from ckqg import aux_tasks as A
from ckqg import cli
from ckqg import qg_model as M
from ckqg import trainer as TR
from ckqg.config import Config
from ckqg.corpus import (TrainingSample, ValidationError, build_tag_vocabs,
                         Vocabulary, build_vocab, coarse_tags, encode_batch)
from ckqg.kb_extract import AlignedTriple, KnowledgeTriple
from ckqg.nn import tensor as T
from ckqg.nn.checkpoint import CheckpointError, load_checkpoint
from ckqg.qg_model import KnowledgeMemory


def make_sample(text, question, span, sid, triple=None):
    toks = text.split()
    pos, ner = coarse_tags(toks)
    return TrainingSample(passage=toks, answer_span=span, pos_tags=pos,
                          ner_tags=ner, question=question.split(),
                          triples=[triple] if triple else [], sample_id=sid)


def equipped_samples():
    t1 = AlignedTriple(
        triple=KnowledgeTriple("council", "RelatedTo", "governing bodies", "ConceptNet"))
    t2 = AlignedTriple(triple=KnowledgeTriple("harbor", "Synonymy", "port", "ConceptNet"))
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
        assert TR.itf_schedule(2, 2) == [E, E, P, P, E, E, P, P]

    def test_minimal(self):
        assert TR.itf_schedule(1, 1) == [TR.EQUIPPED, TR.PURE]

    def test_default_scale_totals(self):
        assert len(TR.itf_schedule(3000, 3)) == 18000


# -- forward passes -----------------------------------------------------------


class TestForward:
    def test_bundle_additivity_bitwise(self):
        cfg, params, vocab, tags, eq, _ = build_world()
        batch = encode_batch(eq, vocab, tags)
        bundle = TR.unified_forward(params, batch)
        want = (bundle.l_q.data + bundle.l_r.data) + bundle.l_t.data
        assert bundle.l.data == want
        assert bundle.l_q.data >= 0 and bundle.l_r.data >= 0 and bundle.l_t.data >= 0

    def test_dropout_is_active_exactly_inside_training(self):
        cfg, params, vocab, tags, eq, _ = build_world()
        batch = encode_batch(eq, vocab, tags)
        plain = TR.unified_forward(params, batch).l.data
        with T.training(0.0, np.random.default_rng(5)):
            rate_zero = TR.unified_forward(params, batch).l.data
        assert rate_zero.tobytes() == plain.tobytes()
        with T.training(0.3, np.random.default_rng(5)):
            dropped = TR.unified_forward(params, batch).l.data
        assert dropped != plain
        assert TR.unified_forward(params, batch).l.data.tobytes() == plain.tobytes()

    def test_matches_composition_through_module_apis(self):
        cfg, params, vocab, tags, eq, _ = build_world()
        batch = encode_batch(eq[:1], vocab, tags)
        bundle = TR.unified_forward(params, batch)

        enc = M.encode_passage(params, batch)
        trip = A.encode_triples(params, batch)
        memory = M.DecodeMemory(enc, A.unified_memory(params, trip), batch.copy_ids,
                                batch.extended_size, enc.bw_final)
        steps = M.teacher_forced_steps(params, "dec", memory, batch.question_ids,
                                       batch.question_lengths)
        l_q = M.sequence_nll(steps, batch.question_ids, batch.question_lengths)
        l_r = A.rc_loss(A.rc_forward(params, enc, trip), batch.relation_ids)
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
        memory = M.DecodeMemory(enc, kmem, batch.copy_ids, batch.extended_size,
                                enc.bw_final)
        steps = M.teacher_forced_steps(params, "dec", memory, batch.question_ids,
                                       batch.question_lengths)
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


class TestGoldScoring:
    """Teacher forcing scores only the gold token (nn.tensor.gold_mixture_prob)
    and must equal the full-distribution composition that decoding keeps."""

    @staticmethod
    def world():
        """The forward-test samples over a vocabulary of the pure samples
        alone, so the equipped questions hold copy-only ids past it."""
        eq, pu = equipped_samples(), pure_samples()
        vocab, tags = build_vocab(pu), build_tag_vocabs(eq + pu)
        params = TR.build_parameters(tiny_config(layers=2), vocab, tags,
                                     np.random.default_rng(1))
        return params, vocab, encode_batch(eq, vocab, tags), encode_batch(pu, vocab, tags)

    @staticmethod
    def use_reference(monkeypatch):
        monkeypatch.setattr(M, "teacher_forced_steps", reference_teacher_forced_steps)
        monkeypatch.setattr(A, "teacher_forced_steps", reference_teacher_forced_steps)

    @pytest.mark.parametrize("equipped", [True, False], ids=["equipped", "pure"])
    def test_losses_and_gradients_equal_the_full_distribution_bitwise(
            self, monkeypatch, equipped):
        params, vocab, eq, pu = self.world()
        assert eq.question_ids.max() >= len(vocab)
        forward, batch = (TR.unified_forward, eq) if equipped else (TR.pure_forward, pu)
        runs = []
        for reference in (False, True):
            if reference:
                self.use_reference(monkeypatch)
            params.zero_grads()
            with T.training(0.3, np.random.default_rng(9)):
                bundle = forward(params, batch)
            bundle.l.backward()
            grads = {name: None if p.grad is None else p.grad.tobytes()
                     for name, p in params.items()}
            runs.append((bundle.l_q.data.tobytes(), bundle.l_t.data.tobytes(), grads))
        assert runs[0] == runs[1]

    def test_equipped_tape_holds_no_vocabulary_wide_node(self, monkeypatch):
        params, vocab, batch, _ = self.world()
        widths = {len(vocab), batch.extended_size}

        def wide_nodes() -> int:
            stack, seen, wide = [TR.unified_forward(params, batch).l], set(), 0
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                if (node._backward is not None and node.data.ndim
                        and node.data.shape[-1] in widths):
                    wide += 1
                stack.extend(node._parents)
            return wide

        assert wide_nodes() == 0
        self.use_reference(monkeypatch)
        assert wide_nodes() > 0


# -- the parameter table --------------------------------------------------------


def parameter_digest(params):
    group_of = {n: g for g in ("qg_core", "knowledge") for n in params.names(g)}
    h = hashlib.sha256()
    for name in params.names():
        data = params[name].data
        h.update(f"{name}|{group_of[name]}|{data.shape}|{data.dtype}\n".encode())
        h.update(data.tobytes())
    return h.hexdigest()


def gradient_digest(params):
    h = hashlib.sha256()
    for name in params.names():
        g = params[name].grad
        h.update(f"{name}|{None if g is None else g.shape}\n".encode())
        if g is not None:
            h.update(g.tobytes())
    return h.hexdigest()


class TestModelSpec:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_forward_reaches_every_parameter(self, layers):
        eq, pu = equipped_samples(), pure_samples()
        vocab = build_vocab(eq + pu)
        tags = build_tag_vocabs(eq + pu)
        params = TR.build_parameters(tiny_config(layers=layers), vocab, tags,
                                     np.random.default_rng(0))
        TR.unified_forward(params, encode_batch(eq, vocab, tags)).l.backward()
        assert [n for n, p in params.items() if p.grad is None] == []

    # names, groups, shapes and bytes of a fresh model; a change to the
    # table's order, an initializer or a draw shows here
    @pytest.mark.parametrize("layers, hidden, seed, digest", [
        (1, 3, 5, "863895a3ce6de67f66e5e02b64740a3cab5505d26a431d335cd1e0844306c754"),
        (3, 5, 2, "8fe10636a9b9a94664b4470507a6aaa07f393595648e595ee27c992c0ab54d7c"),
    ])
    def test_build_parameters_digest_is_frozen(self, layers, hidden, seed, digest):
        eq, pu = equipped_samples(), pure_samples()
        vocab = build_vocab(eq + pu)
        tags = build_tag_vocabs(eq + pu)
        cfg = tiny_config(layers=layers, hidden_size=hidden, seed=seed)
        params = TR.build_parameters(cfg, vocab, tags, np.random.default_rng(seed))
        assert parameter_digest(params) == digest

    # every parameter's gradient after one Equipped and one Pure step with
    # dropout on; releasing the tape during backward() must not move a bit
    @pytest.mark.parametrize("layers, equipped_digest, pure_digest", [
        (1, "b1ad39bfe0d85628a22da0c29e74354e10e510a41518dd0bb5f5242f060ae092",
         "d1fb0b0f65ace5fc96a95f526f974557b4698c6509675c856fde9b7fd9bff1c0"),
        (3, "e6f0b1ce604b30ccac3e31169ab4a347adde3f22ee7038e7804ca3d5a28c8067",
         "257265dd66061286645b58fb7cf7657b8b7e3148e4aaf424465a95d3ae4b3e57"),
    ])
    def test_gradient_digests_are_frozen(self, layers, equipped_digest, pure_digest):
        eq, pu = equipped_samples(), pure_samples()
        vocab = build_vocab(eq + pu)
        tags = build_tag_vocabs(eq + pu)
        params = TR.build_parameters(tiny_config(layers=layers), vocab, tags,
                                     np.random.default_rng(0))
        rng = np.random.default_rng(3)
        digests = []
        for forward, samples in ((TR.unified_forward, eq), (TR.pure_forward, pu)):
            params.zero_grads()
            with T.training(0.3, rng):
                bundle = forward(params, encode_batch(samples, vocab, tags))
            bundle.l.backward()
            digests.append(gradient_digest(params))
        assert digests == [equipped_digest, pure_digest]


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

    @pytest.mark.parametrize("as_input", [list, lambda states: iter(states)],
                             ids=["list", "generator"])
    def test_matches_elementwise_recomputation(self, as_input):
        # scalar-loop oracle mirroring the recentred mean, bit for bit
        rng = np.random.default_rng(9)
        states = [{"w": rng.normal(size=(3, 2)), "v": rng.normal(size=(5,))}
                  for _ in range(5)]
        out = TR.average_checkpoints(as_input(states))
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

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no checkpoints to average"):
            TR.average_checkpoints([])


def test_averaging_keeps_one_streamed_state_at_a_time():
    # the first state stays for the whole average; each later one must be
    # gone before the next loads, or peak memory grows by a model
    refs = []

    def tracked(state):
        refs.append(weakref.ref(state["w"]))
        return state

    def states():
        for k in range(4):
            alive = sum(r() is not None for r in refs)
            assert alive <= 1, f"{alive} states alive while loading state {k}"
            yield tracked({"w": np.full(3, float(k))})

    averaged = TR.average_checkpoints(states())
    np.testing.assert_array_equal(averaged["w"], np.full(3, 1.5))


class TestCheckWeights:
    SHAPES = {"a": (2,), "b": (3, 1)}

    def test_fitting_state_is_returned_as_is(self):
        state = {"b": np.zeros((3, 1)), "a": np.zeros(2)}
        assert TR.check_weights(state, self.SHAPES, "w.bin") is state

    @pytest.mark.parametrize("state, message", [
        ({"a": np.zeros(2)}, "w.bin: missing parameter 'b'"),
        ({"a": np.zeros(2), "b": np.zeros((3, 1)), "c": np.zeros(1)},
         r"w.bin: parameters \['c'\] are not in the model"),
        ({"a": np.zeros(2), "b": np.zeros((1, 3))},
         r"w.bin: parameter 'b' has shape \(1, 3\), the model needs \(3, 1\)"),
    ], ids=["missing", "extra", "shape"])
    def test_misfit_names_where_and_the_parameter(self, state, message):
        with pytest.raises(CheckpointError, match=message):
            TR.check_weights(state, self.SHAPES, "w.bin")


# -- the training loop --------------------------------------------------------


class TestTrainLoop:
    def test_phase_spans_follow_schedule_and_freeze_knowledge(self, tmp_path):
        eq, pu = equipped_samples(), pure_samples()
        cfg = tiny_config(itf_n=2, itf_cycles=2, lr=0.05)
        result = TR.train(eq, pu, [], cfg, out_dir=tmp_path)
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

    def test_no_parameter_keeps_a_gradient_after_training(self, tmp_path):
        cfg = tiny_config(itf_n=2, itf_cycles=1)
        result = TR.train(equipped_samples(), pure_samples(), [], cfg, out_dir=tmp_path)
        assert [n for n, p in result.params.items() if p.grad is not None] == []

    def test_logged_phases_match_schedule(self, tmp_path):
        eq, pu = equipped_samples(), pure_samples()
        cfg = tiny_config(itf_n=1, itf_cycles=2)
        result = TR.train(eq, pu, [], cfg, out_dir=tmp_path)
        want = TR.itf_schedule(1, 2)
        assert [r["phase"] for r in result.log_rows] == want
        assert [r["step"] for r in result.log_rows] == [1, 2, 3, 4]

    def test_additivity_holds_for_every_logged_step(self, tmp_path):
        eq, pu = equipped_samples(), pure_samples()
        cfg = tiny_config(itf_n=2, itf_cycles=1)
        result = TR.train(eq, pu, [], cfg, out_dir=tmp_path)
        for row in result.log_rows:
            assert row["l"] == (row["l_q"] + row["l_r"]) + row["l_t"]
            if row["phase"] == TR.PURE:
                assert row["l_r"] == 0.0 and row["l_t"] == 0.0

    def test_determinism_across_runs(self, tmp_path):
        eq, pu = equipped_samples(), pure_samples()
        cfg = tiny_config(itf_n=2, itf_cycles=1, dropout=0.2)
        a = TR.train(eq, pu, [], cfg, out_dir=tmp_path / "a")
        b = TR.train(eq, pu, [], cfg, out_dir=tmp_path / "b")
        assert a.log_rows == b.log_rows
        for g in ("qg_core", "knowledge"):
            assert a.params.group_hash(g) == b.params.group_hash(g)

    def test_dev_evaluation_runs_with_dropout_off(self, tmp_path, monkeypatch):
        # the forward passes draw their masks from the rng handed to
        # training(); dev decoding must neither drop units nor draw from it
        rngs, evals = [], []
        training, evaluate_dev = T.training, TR.evaluate_dev

        def recording_training(rate, rng):
            rngs.append(rng)
            return training(rate, rng)

        def checked_evaluate_dev(*args):
            before = rngs[-1].bit_generator.state
            probe = T.Tensor(np.ones(100))
            assert T.dropout(probe) is probe
            score = evaluate_dev(*args)
            evals.append(rngs[-1].bit_generator.state == before)
            return score

        monkeypatch.setattr(T, "training", recording_training)
        monkeypatch.setattr(TR, "evaluate_dev", checked_evaluate_dev)
        cfg = tiny_config(itf_n=2, itf_cycles=1, dropout=0.3, eval_every=1)
        TR.train(equipped_samples(), pure_samples(), pure_samples()[:1], cfg,
                 out_dir=tmp_path)
        assert len(rngs) == 4 and all(r is rngs[0] for r in rngs)
        assert evals == [True] * 4

    def test_equipped_only_mode_never_enters_pure(self, tmp_path):
        eq = equipped_samples()
        cfg = tiny_config(itf_n=2, itf_cycles=2)
        result = TR.train(eq, [], [], cfg, out_dir=tmp_path, mode="equipped-only")
        assert all(r["phase"] == TR.EQUIPPED for r in result.log_rows)
        assert len(result.log_rows) == cfg.itf_n * cfg.itf_cycles

    def test_itf_requires_both_corpora(self, tmp_path):
        eq = equipped_samples()
        with pytest.raises(ValidationError):
            TR.train(eq, [], [], tiny_config(), out_dir=tmp_path)
        with pytest.raises(ValueError, match="mode"):
            TR.train(eq, pure_samples(), [], tiny_config(), out_dir=tmp_path,
                     mode="warmup")

    def test_divergence_aborts_with_diagnostic(self, tmp_path, monkeypatch):
        # start from blown-up weights: the forward overflows to inf and the
        # loop must stop with a step/phase diagnostic, not march on
        build = TR.build_parameters

        def poisoned(*args):
            params = build(*args)
            params["emb.word"].data[:] = np.inf
            return params

        monkeypatch.setattr(TR, "build_parameters", poisoned)
        with pytest.raises(T.NumericsError, match=r"step 1 \(Equipped"):
            TR.train(equipped_samples(), pure_samples(), [], tiny_config(itf_n=3),
                     out_dir=tmp_path)

    def test_dev_failure_names_the_step_and_phase(self, tmp_path, monkeypatch):
        # dev decoding runs after the step's update, outside the forward and
        # backward pass, yet its failure still names the step and phase
        def overflowing(*args, **kwargs):
            raise T.NumericsError("non-finite values produced by op 'matmul'")

        monkeypatch.setattr(M, "beam_search_group", overflowing)
        cfg = tiny_config(itf_n=2, itf_cycles=1, eval_every=3)
        with pytest.raises(T.NumericsError) as info:
            TR.train(equipped_samples(), pure_samples(), pure_samples()[:1], cfg,
                     out_dir=tmp_path)
        message = str(info.value)
        assert message.startswith(f"dev evaluation after step 3 ({TR.PURE} phase): ")
        assert message.endswith("non-finite values produced by op 'matmul'")

    def test_nan_gradient_stops_before_adam_and_names_the_parameter(self, tmp_path,
                                                                   monkeypatch):
        # a NaN in one gradient at step 3 (the first Pure step) must stop the
        # run there, before Adam writes it into the weights
        clip, seen, updates = TR.ParameterSet.clip_grads, [], []

        def poisoned(self, max_norm):
            seen.append(max_norm)
            if len(seen) == 3:
                self["emb.word"].grad.flat[7] = np.nan
            return clip(self, max_norm)

        adam_step = TR.Adam.step

        def counted_step(self):
            updates.append(self)
            adam_step(self)

        monkeypatch.setattr(TR.ParameterSet, "clip_grads", poisoned)
        monkeypatch.setattr(TR.Adam, "step", counted_step)
        with pytest.raises(T.NumericsError) as info:
            TR.train(equipped_samples(), pure_samples(), [], tiny_config(itf_n=2),
                     out_dir=tmp_path)
        msg = str(info.value)
        assert "step 3 (Pure phase)" in msg
        assert "gradient norm nan" in msg
        assert msg.endswith("non-finite gradient entries in emb.word")
        assert len(updates) == 2

    def test_dev_eval_ring_and_averaging(self, tmp_path):
        # avg_k under ckpt_keep, so model.bin shows which ring files were picked
        eq, pu = equipped_samples(), pure_samples()
        cfg = tiny_config(itf_n=2, itf_cycles=1, eval_every=1, ckpt_keep=3,
                          avg_k=2)
        result = TR.train(eq, pu, pu[:1], cfg, out_dir=tmp_path)
        assert all(r["dev_bleu4"] is not None for r in result.log_rows)
        assert result.best_step >= 1
        # evicted checkpoint files are removed: the capacity bound holds on
        # disk, and the pinned best step and the last step survive
        ring = sorted(int(p.stem.removeprefix("ckpt-"))
                      for p in tmp_path.glob("ckpt-*.bin"))
        assert len(ring) == 3 and result.best_step in ring and ring[-1] == 4
        averaged = TR.average_checkpoints(
            load_checkpoint(tmp_path / f"ckpt-{s:06d}.bin")
            for s in TR._select_for_average(ring, result.best_step, cfg.avg_k))
        saved = load_checkpoint(tmp_path / "model.bin")
        assert list(saved) == list(averaged)
        for k in saved:
            assert saved[k].tobytes() == averaged[k].tobytes(), k
        log_text = (tmp_path / "train_log.csv").read_text().splitlines()
        assert log_text[0] == "step,phase,L_q,L_r,L_t,L,dev_bleu4"
        assert len(log_text) == 1 + len(result.log_rows)

    def test_ring_file_that_misfits_the_model_stops_the_average(self, tmp_path,
                                                                monkeypatch):
        # every ring file lacks rc.out.b: averaging must refuse the first
        # one it reads rather than write a model.bin without the parameter
        save = TR.save_checkpoint

        def lossy(path, tensors):
            if Path(path).name.startswith("ckpt-"):
                tensors = {n: a for n, a in tensors.items() if n != "rc.out.b"}
            save(path, tensors)

        monkeypatch.setattr(TR, "save_checkpoint", lossy)
        eq, pu = equipped_samples(), pure_samples()
        cfg = tiny_config(itf_n=2, itf_cycles=1, eval_every=1, avg_k=2)
        with pytest.raises(CheckpointError) as info:
            TR.train(eq, pu, pu[:1], cfg, out_dir=tmp_path)
        first = sorted(tmp_path.glob("ckpt-*.bin"))[0]
        assert str(info.value).startswith(f"{first}: missing parameter 'rc.out.b'")
        assert not (tmp_path / "model.bin").exists()

    def test_failed_run_leaves_what_reads_its_ring(self, tmp_path, monkeypatch):
        # a run that diverges at step 3, after the dev evals of steps 1 and
        # 2, keeps their ring files next to the config and vocabularies
        # that read them back, and writes no log or model
        written, save = [], TR.save_checkpoint
        monkeypatch.setattr(TR, "save_checkpoint",
                            lambda path, tensors: (written.append(Path(path)),
                                                   save(path, tensors)))
        clip = TR.ParameterSet.clip_grads

        def poisoned(self, max_norm):
            if len(written) == 2:
                self["emb.word"].grad.flat[0] = np.nan
            return clip(self, max_norm)

        monkeypatch.setattr(TR.ParameterSet, "clip_grads", poisoned)
        eq, pu = equipped_samples(), pure_samples()
        cfg = tiny_config(itf_n=2, itf_cycles=1, eval_every=1, ckpt_keep=2,
                          avg_k=2)
        with pytest.raises(T.NumericsError, match="step 3"):
            TR.train(eq, pu, pu[:1], cfg, out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ckpt-000001.bin", "ckpt-000002.bin", "config.json", "tags.json",
            "vocab.json"]
        loaded_cfg, vocab, tags = cli._load_world(tmp_path)
        assert loaded_cfg == cfg
        all_samples = eq + pu
        assert vocab.id_to_token == build_vocab(
            all_samples, max_size=cfg.vocab_size, min_freq=cfg.min_freq).id_to_token
        assert {k: v.id_to_tag for k, v in tags.items()} == {
            k: v.id_to_tag for k, v in build_tag_vocabs(all_samples).items()}

    def test_ring_memory_does_not_grow_with_ckpt_keep(self, tmp_path,
                                                      monkeypatch):
        # snapshots live only in their files, so keeping 10 instead of 3
        # must not raise the traced peak by even one snapshot's bytes; every
        # step is Equipped, so the last steps peak as high as the first
        eq = equipped_samples()
        dev = eq[:1]
        # hidden 12: a snapshot (116 kB) dwarfs the ring records' own bytes
        configs = [tiny_config(itf_n=10, itf_cycles=1, eval_every=1, hidden_size=12,
                               ckpt_keep=keep, avg_k=3) for keep in (3, 10)]
        TR.train(eq, [], dev, configs[0], out_dir=tmp_path / "warm",
                 mode="equipped-only")  # warm caches
        peaks = []
        for cfg in configs:
            out = tmp_path / f"keep{cfg.ckpt_keep}"
            gc.collect()   # leftover cycles freed mid-run would blur the peak
            tracemalloc.start()
            try:
                result = TR.train(eq, [], dev, cfg, out_dir=out, mode="equipped-only")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert sum(r["dev_bleu4"] is not None for r in result.log_rows) == 10
            assert len(list(out.glob("ckpt-*.bin"))) == cfg.ckpt_keep
        snapshot = sum(t.data.nbytes for _, t in result.params.items())
        assert abs(peaks[1] - peaks[0]) < snapshot, (peaks, snapshot)

    def test_averaged_selection_centers_on_best(self):
        ring = [10, 20, 30, 40, 50]
        assert TR._select_for_average(ring, best_step=40, k=3) == [30, 40, 50]
        assert TR._select_for_average(ring, best_step=10, k=3) == [10, 20, 30]
        # distance ties resolve toward the earlier save
        assert TR._select_for_average(ring, best_step=30, k=2) == [20, 30]

    def test_loss_falls_in_short_overfit_run(self, tmp_path):
        eq = equipped_samples()
        cfg = tiny_config(itf_n=40, itf_cycles=1, lr=0.05, hidden_size=4)
        result = TR.train(eq, [], [], cfg, out_dir=tmp_path, mode="equipped-only")
        first = result.log_rows[0]["l_q"]
        last = result.log_rows[-1]["l_q"]
        assert last < first
        # full-batch descent: disjoint 5-step window means never increase
        losses = [r["l"] for r in result.log_rows]
        means = [sum(losses[i:i + 5]) / 5 for i in range(0, len(losses), 5)]
        assert all(b <= a for a, b in zip(means, means[1:])), means

    def test_stop_below_ends_early(self, tmp_path):
        eq = equipped_samples()
        cfg = tiny_config(itf_n=500, itf_cycles=1, lr=0.05, hidden_size=4)
        result = TR.train(eq, [], [], cfg, out_dir=tmp_path, mode="equipped-only",
                          stop_below=0.5)
        assert result.log_rows[-1]["l_q"] < 0.5
        assert len(result.log_rows) < 500

    def test_early_stop_mid_span_closes_the_span_at_the_stop_step(self, tmp_path):
        cfg = tiny_config(itf_n=4, itf_cycles=100, lr=0.05, hidden_size=4)
        result = TR.train(equipped_samples(), pure_samples(), [], cfg,
                          out_dir=tmp_path, stop_below=2.0)
        stop = result.log_rows[-1]["step"]
        spans = result.phase_spans
        assert result.log_rows[-1]["l_q"] < 2.0
        assert spans[-1].start < stop < spans[-1].start + cfg.itf_n - 1
        assert (spans[-1].phase, spans[-1].end) == (result.log_rows[-1]["phase"], stop)
        assert [s.start for s in spans] == [1] + [s.end + 1 for s in spans[:-1]]
        assert spans[-1].hash_after == {g: result.params.group_hash(g)
                                        for g in ("qg_core", "knowledge")}
        assert result.best_step == stop

    @pytest.mark.parametrize("sid, kind, name", [
        ("d1", "pos_tags", "d1"), (None, "ner_tags", "index:1")])
    def test_unknown_dev_tag_fails_before_the_first_step(self, tmp_path, monkeypatch,
                                                         sid, kind, name):
        steps = []
        monkeypatch.setattr(TR.Adam, "step", lambda self: steps.append(self))
        dev = pure_samples()
        dev[1].sample_id = sid
        getattr(dev[1], kind)[2] = "zzz"
        with pytest.raises(ValidationError,
                           match=f"dev sample {name}: unknown tag 'zzz'"):
            TR.train(equipped_samples(), pure_samples(), dev, tiny_config(),
                     out_dir=tmp_path)
        assert steps == []

    def test_decode_sample_returns_tokens(self):
        cfg, params, vocab, tags, eq, pu = build_world()
        short = Config(max_len=6)
        toks = TR.generate(params, [pu[0]], vocab, tags, short, 1)[0][0]
        assert isinstance(toks, list)
        assert all(isinstance(t, str) for t in toks)
        beam_toks = TR.generate(params, [eq[0]], vocab, tags, short, 3)[0][0]
        assert all(isinstance(t, str) for t in beam_toks)


# -- decode lanes ---------------------------------------------------------------


def force_lanes(monkeypatch, lanes):
    """Make decode_lanes give ``lanes``: that many CPUs, one BLAS thread, a
    cap of ``lanes`` and no floor on the work per decode step."""
    monkeypatch.setattr(TR.os, "sched_getaffinity", lambda pid: set(range(lanes)))
    monkeypatch.setattr(TR, "MAX_LANES", lanes)
    monkeypatch.setattr(TR, "LANE_MIN_STEP_WORK", 0)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def zero_params(**settings):
    """A ParameterSet of zeros at a model shape, for counting weights."""
    cfg = Config(**settings)
    params = TR.ParameterSet(cfg.layers)
    for name, shape, group, _ in TR.model_spec(cfg, cfg.vocab_size,
                                               {"bio": 4, "pos": 40, "ner": 20}):
        params.add(name, np.zeros(shape), group)
    return params


def meet_at_first_groups(monkeypatch, lanes):
    """Hold each lane's first group until every lane has taken one, so
    every lane decodes at least one group."""
    barrier, calls = threading.Barrier(lanes, timeout=10), itertools.count()
    beam_search_group = M.beam_search_group

    def held(*args, **kwargs):
        if next(calls) < lanes:
            barrier.wait()
        return beam_search_group(*args, **kwargs)

    monkeypatch.setattr(M, "beam_search_group", held)


def numbered_samples(source):
    """Six samples; sample i holds the first i + 3 tokens of the passage, so
    its decode memory tells which sample it is."""
    return [TrainingSample(passage=source.passage[:n], answer_span=(0, 0),
                           pos_tags=source.pos_tags[:n], ner_tags=source.ner_tags[:n],
                           question=source.question)
            for n in range(3, 9)]


def sample_numbers(memories) -> tuple[int, ...]:
    """The numbered_samples indices of a group's decode memories."""
    return tuple(mem.enc.mask.shape[1] - 3 for mem in memories)


class TestLanes:
    @pytest.mark.parametrize("cpus", [2, 4, 64])
    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    @pytest.mark.parametrize("setting", [None, "1", "2", "abc", "0"])
    def test_lane_rule(self, monkeypatch, cpus, var, setting):
        # unset, zero or not a number: OpenBLAS runs on every CPU already;
        # never more than MAX_LANES
        monkeypatch.setattr(TR.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        if setting is not None:
            monkeypatch.setenv(var, setting)
        work = TR.LANE_MIN_STEP_WORK
        assert TR.MAX_LANES == 2
        assert TR.decode_lanes(100, work) == {"1": 2, "2": min(2, cpus // 2)}.get(setting, 1)
        assert TR.decode_lanes(1, work) == 1
        assert TR.decode_lanes(0, work) == 1

    @pytest.mark.parametrize("cpu_count, lanes", [(4, 2), (1, 1), (None, 1)])
    def test_cpu_count_stands_in_where_affinity_is_unknown(self, monkeypatch,
                                                           cpu_count, lanes):
        # os.sched_getaffinity exists on Linux only
        monkeypatch.delattr(TR.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(TR.os, "cpu_count", lambda: cpu_count)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert TR.decode_lanes(100, TR.LANE_MIN_STEP_WORK) == lanes

    def test_small_decode_steps_run_on_one_lane(self, monkeypatch):
        force_lanes(monkeypatch, 2)
        monkeypatch.setattr(TR, "LANE_MIN_STEP_WORK", 1000)
        assert TR.decode_lanes(100, 999) == 1
        assert TR.decode_lanes(100, 1000) == 2

    def test_decode_step_work_sides(self):
        # benchmark shape: dev BLEU's greedy steps stay on one lane, beam-10
        # generate gets lanes; greedy decoding at the default hidden size too
        shape = dict(hidden_size=128, emb_dim=100, feat_dim=8, layers=2, vocab_size=5000)
        small = zero_params(**shape)
        per_row = TR.decode_step_work(small, 1)
        assert per_row == sum(t.data.size for name, t in small.items()
                              if name.startswith("dec.") and ".init." not in name)
        assert TR.decode_step_work(small, 10) == 10 * per_row
        assert per_row < TR.LANE_MIN_STEP_WORK <= 10 * per_row
        wide = zero_params(**{**shape, "hidden_size": 600})
        assert TR.decode_step_work(wide, 1) >= TR.LANE_MIN_STEP_WORK

    def test_openblas_setting_wins_over_omp(self, monkeypatch):
        monkeypatch.setattr(TR.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert TR.decode_lanes(100, TR.LANE_MIN_STEP_WORK) == 1

    @pytest.mark.parametrize("beam", [2, 10])
    def test_results_are_bitwise_equal_on_any_lane_count(self, monkeypatch, beam):
        cfg, params, vocab, tags, eq, pu = build_world(seed=3)
        samples = [eq[0], pu[0], eq[1], pu[1], pu[0], eq[0]]
        decoded = {}
        for lanes in (1, 2, 3):
            with monkeypatch.context() as mp:
                force_lanes(mp, lanes)
                meet_at_first_groups(mp, lanes)
                assert TR.decode_lanes(len(samples),
                                       TR.decode_step_work(params, beam)) == lanes
                decoded[lanes] = TR.generate(params, samples, vocab, tags, cfg, beam)
        for lanes in (2, 3):
            assert [toks for toks, _ in decoded[lanes]] == [toks for toks, _ in decoded[1]]
            assert ([struct.pack("<d", s) for _, s in decoded[lanes]]
                    == [struct.pack("<d", s) for _, s in decoded[1]])

    def test_every_sample_is_decoded_once_under_contention(self, monkeypatch):
        # more lanes than cores and a short switch interval, so lanes race
        # for the pool's queue; a group taken twice would decode twice
        cfg, params, vocab, tags, eq, pu = build_world()
        short = tiny_config(max_len=3)
        samples = (eq + pu) * 8
        one_lane = TR.generate(params, samples, vocab, tags, short, 2)
        calls, beam_search_group = [], M.beam_search_group

        def counted(params, prefix, memories, **kwargs):
            calls.append(len(memories))
            return beam_search_group(params, prefix, memories, **kwargs)

        force_lanes(monkeypatch, 6)
        monkeypatch.setattr(M, "beam_search_group", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            decoded = TR.generate(params, samples, vocab, tags, short, 2)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == [2] + [6] * 5   # 32 samples over 6 lanes
        assert decoded == one_lane

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_decode_steps_stay_within_the_group_cap(self, monkeypatch, lanes):
        # 20 samples make groups of MAX_GROUP, MAX_GROUP and 4 on one lane
        # or two; a step never carries more than MAX_GROUP x beam rows
        cfg, params, vocab, tags, eq, pu = build_world()
        beam, sizes, steps = 3, [], []
        decode_step, beam_search_group = M.decode_step, M.beam_search_group

        def grouped(params, prefix, memories, **kwargs):
            sizes.append(len(memories))
            return beam_search_group(params, prefix, memories, **kwargs)

        def step(params, prefix, y_prev, state, memories, rows):
            steps.append((len(y_prev), sum(rows)))
            return decode_step(params, prefix, y_prev, state, memories, rows)

        force_lanes(monkeypatch, lanes)
        monkeypatch.setattr(M, "beam_search_group", grouped)
        monkeypatch.setattr(M, "decode_step", step)
        TR.generate(params, (eq + pu) * 5, vocab, tags, tiny_config(max_len=4), beam)
        assert sorted(sizes) == [4, TR.MAX_GROUP, TR.MAX_GROUP]
        assert all(n == total for n, total in steps)
        assert max(n for n, _ in steps) == TR.MAX_GROUP * beam

    @pytest.mark.parametrize("cpus, beam", [(1, 2), (2, 1)])
    def test_one_lane_starts_no_thread(self, monkeypatch, cpus, beam):
        # one CPU, or a decode step below the work floor
        cfg, params, vocab, tags, eq, pu = build_world()
        force_lanes(monkeypatch, cpus)
        monkeypatch.setattr(TR, "LANE_MIN_STEP_WORK", TR.decode_step_work(params, 2))

        def no_thread(*args, **kwargs):
            raise AssertionError("one lane started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert len(TR.generate(params, eq + pu, vocab, tags, cfg, beam)) == 4

    def test_no_samples_decode_to_nothing_on_no_thread(self, monkeypatch):
        # an empty corpus on a host that would give beam 10 two lanes
        cfg, params, vocab, tags, eq, pu = build_world()
        force_lanes(monkeypatch, 2)

        def no_thread(*args, **kwargs):
            raise AssertionError("an empty corpus started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert TR.generate(params, [], vocab, tags, cfg, 10) == []

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_lowest_index_failure_is_raised(self, monkeypatch, lanes):
        # groups of two; sample 1 fails only after sample 3 has: each failing
        # group is decoded again one sample at a time up to its failing
        # sample, generate still raises 1's error, and no group starts after
        # the first failure
        cfg, params, vocab, tags, eq, pu = build_world()
        samples = numbered_samples(pu[0])
        started, failed_3 = [], threading.Event()
        beam_search_group = M.beam_search_group

        def failing(params, prefix, memories, **kwargs):
            numbers = sample_numbers(memories)
            started.append(numbers)
            if 1 in numbers:
                failed_3.wait(timeout=5 if lanes > 1 else 0)
                raise T.NumericsError("sample 1")
            if 3 in numbers:
                failed_3.set()
                raise T.NumericsError("sample 3")
            return beam_search_group(params, prefix, memories, **kwargs)

        force_lanes(monkeypatch, lanes)
        monkeypatch.setattr(TR, "MAX_GROUP", 2)
        monkeypatch.setattr(M, "beam_search_group", failing)
        with pytest.raises(T.NumericsError, match="sample 1"):
            TR.generate(params, samples, vocab, tags, cfg, 2)
        want = [(0, 1), (0,), (1,)]
        if lanes > 1:
            want += [(2, 3), (2,), (3,)]
        assert sorted(started) == sorted(want)

    def test_an_error_in_a_group_is_decoded_alone(self, monkeypatch):
        # a group fails once as a whole; its samples, decoded one at a time,
        # give what the group would have given
        cfg, params, vocab, tags, eq, pu = build_world(seed=3)
        samples = [eq[0], pu[0], eq[1], pu[1]]
        want = TR.generate(params, samples, vocab, tags, cfg, 3)
        calls, beam_search_group = [], M.beam_search_group

        def failing_once(params, prefix, memories, **kwargs):
            calls.append(len(memories))
            if len(calls) == 1:
                raise T.NumericsError("the whole group")
            return beam_search_group(params, prefix, memories, **kwargs)

        monkeypatch.setattr(M, "beam_search_group", failing_once)
        assert TR.generate(params, samples, vocab, tags, cfg, 3) == want
        assert calls == [4, 1, 1, 1, 1]

    def test_no_sample_starts_after_a_failure(self, monkeypatch):
        # groups of two; group (0, 1) ends only after sample 2 has failed on
        # the other lane; no lane may then decode (4, 5), and the failing
        # group stops at its failing sample
        cfg, params, vocab, tags, eq, pu = build_world()
        started, failed_2 = [], threading.Event()
        beam_search_group = M.beam_search_group

        def failing(params, prefix, memories, **kwargs):
            numbers = sample_numbers(memories)
            started.append(numbers)
            if 2 in numbers:
                failed_2.set()
                raise T.NumericsError("sample 2")
            if 0 in numbers:
                failed_2.wait(timeout=5)
            return beam_search_group(params, prefix, memories, **kwargs)

        force_lanes(monkeypatch, 2)
        monkeypatch.setattr(TR, "MAX_GROUP", 2)
        monkeypatch.setattr(M, "beam_search_group", failing)
        with pytest.raises(T.NumericsError, match="sample 2"):
            TR.generate(params, numbered_samples(pu[0]), vocab, tags, cfg, 2)
        assert sorted(started) == [(0, 1), (2,), (2, 3)]

    def test_an_interrupt_outside_a_sample_stops_the_other_lanes(self, monkeypatch):
        # the caller is interrupted while the pool starts its second worker;
        # the first ends its group, decodes no other, and is joined before
        # generate raises
        cfg, params, vocab, tags, eq, pu = build_world()
        decoding, workers, joining = [], [], threading.Event()
        beam_search_group = M.beam_search_group
        start, join = threading.Thread.start, threading.Thread.join

        def held(*args, **kwargs):
            decoding.append(threading.get_ident())
            joining.wait(timeout=10)
            return beam_search_group(*args, **kwargs)

        def start_one(thread):
            if workers:
                raise KeyboardInterrupt
            workers.append(thread)
            start(thread)

        def joined(thread, *args, **kwargs):
            joining.set()
            join(thread, *args, **kwargs)

        force_lanes(monkeypatch, 3)
        monkeypatch.setattr(M, "beam_search_group", held)
        monkeypatch.setattr(threading.Thread, "start", start_one)
        monkeypatch.setattr(threading.Thread, "join", joined)
        with pytest.raises(KeyboardInterrupt):
            TR.generate(params, numbered_samples(pu[0]), vocab, tags, cfg, 2)
        assert decoding == [workers[0].ident]
        assert not workers[0].is_alive()


# -- group encoding -------------------------------------------------------------


def group_world():
    """Parameters at hidden 40 over two layers, and six samples that
    alternate equipped and pure, with passages of 1, 5, 8, 9, 12 and 15
    tokens. The vocabulary holds the first two samples' tokens and the last
    sample's last token only, so the longer passages carry OOV tokens and
    extended ids."""
    words = "harbor council of the union has veto power at dawn in the quiet spring rain"
    words = words.split()
    heads = ["harbor", "veto power", "the quiet spring"]
    tails = ["port", "governing bodies", "season"]
    samples = []
    for i, n in enumerate((1, 5, 8, 9, 12, 15)):
        triple = None
        if i % 2 == 0:
            triple = AlignedTriple(KnowledgeTriple(heads[i // 2], "RelatedTo",
                                                   tails[i // 2], "ConceptNet"))
        samples.append(make_sample(" ".join(words[:n]), "what is near the harbor ?",
                                   (0, 0), f"g{i}", triple))
    vocab = Vocabulary(words[:5] + ["rain"])
    tags = build_tag_vocabs(samples)
    cfg = Config(emb_dim=8, feat_dim=4, hidden_size=40, layers=2)
    params = TR.build_parameters(cfg, vocab, tags, np.random.default_rng(11))
    return params, vocab, tags, samples


def group_encoding_mismatches() -> list[str]:
    """What differs between each group_world sample's decode memory encoded
    in the group and the one it gets encoded alone by encode_passage and
    unified_memory, both under no_grad and batch_invariant."""
    params, vocab, tags, samples = group_world()
    with T.no_grad(), T.batch_invariant():
        grouped = TR.decode_memories(params, samples, vocab, tags)
        problems = []
        for sample, (got, oov) in zip(samples, grouped):
            batch = encode_batch([sample], vocab, tags)
            enc = M.encode_passage(params, batch)
            kmem = (A.unified_memory(params, A.encode_triples(params, batch))
                    if sample.triples else None)
            pairs = {"h_hat": (got.enc.h_hat.data, enc.h_hat.data),
                     "proj": (got.enc.proj.data, enc.proj.data),
                     "mask": (got.enc.mask, enc.mask),
                     "bw_final": (got.enc.bw_final.data, enc.bw_final.data),
                     "init_source": (got.init_source.data, enc.bw_final.data),
                     "copy_ids": (got.copy_ids, batch.copy_ids),
                     "extended_size": (np.array(got.extended_size),
                                       np.array(batch.extended_size)),
                     "oov": (np.array(oov), np.array(batch.oov_tokens[0]))}
            if (got.kmem is None) != (kmem is None):
                problems.append(f"{sample.sample_id}: knowledge memory")
            elif kmem is not None:
                pairs.update({"k rows": (got.kmem.rows.data, kmem.rows.data),
                              "k proj": (got.kmem.proj.data, kmem.proj.data),
                              "k mask": (got.kmem.mask, kmem.mask)})
            problems += [f"{sample.sample_id}: {name}" for name, (a, b) in pairs.items()
                         if a.shape != b.shape or a.dtype != b.dtype
                         or a.tobytes() != b.tobytes()]
    return problems


class TestGroupEncoding:
    def test_group_world_spans_what_a_group_may_mix(self):
        params, vocab, tags, samples = group_world()
        lengths = [len(s.passage) for s in samples]
        assert min(lengths) == 1 and min(lengths) < 8 < max(lengths)
        assert {bool(s.triples) for s in samples} == {True, False}
        batch = encode_batch([replace(s, triples=[]) for s in samples], vocab, tags)
        assert len({len(oov) for oov in batch.oov_tokens}) > 1

    def test_group_encoding_equals_each_sample_encoded_alone(self):
        assert group_encoding_mismatches() == []

    def test_group_encoding_equals_each_sample_encoded_alone_at_one_thread(self):
        proc = run_one_thread("import test_trainer\n"
                              "print(test_trainer.group_encoding_mismatches())")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_an_encoding_failure_names_its_sample(self, monkeypatch):
        # the passage biLSTM's word-embedding input weights saturated at 1,
        # and a huge embedding row for a token only sample g5 holds, overflow
        # that sample's input projection alone: the group fails in encoding,
        # and decoding its samples one at a time names g5
        params, vocab, tags, samples = group_world()
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)   # one lane
        params["enc.l0.fw.W"].data[:params["emb.word"].shape[1]] = 1.0
        params["emb.word"].data[vocab.encode("rain")] = 1e308
        assert ["rain" in s.passage for s in samples] == [False] * 5 + [True]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                T.NumericsError, match=r"^sample g5 \(index 5\): non-finite values "
                                       r"produced by op 'lstm_sequence'$"):
            TR.generate(params, samples, vocab, tags, Config(max_len=4), 2)
