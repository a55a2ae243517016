"""Gradient and value checks for the autodiff primitives.

Every differentiable op is validated against central finite differences
computed here, independently of nn.gradcheck. Value oracles: mpmath for
softmax, closed forms elsewhere.
"""

import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import run_one_thread, scatter_sum

import ckqg.nn.tensor as T
from ckqg.nn.tensor import GraphReleasedError, NumericsError, ShapeError, Tensor

RNG = np.random.default_rng(7)


def nll(logp, target):
    """Cross-entropy as the loss path builds it: the negated gold log-probability."""
    return T.mul(T.gather_last(logp, target), -1.0)


def fd_check(build, tensors, eps=1e-6, tol=1e-7):
    """Check d(build())/d(t) for every coordinate of every tensor in `tensors`.

    `build` must rebuild the graph from current .data each call and return a
    scalar Tensor. Independent of ckqg.nn.gradcheck by construction.
    """
    for t in tensors:
        t.grad = None
    loss = build()
    loss.backward()
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(build().data)
            flat[i] = orig - eps
            fm = float(build().data)
            flat[i] = orig
            numeric = (fp - fm) / (2 * eps)
            a = analytic.reshape(-1)[i]
            assert abs(a - numeric) <= tol * max(1.0, abs(a), abs(numeric)), (
                f"coord {i}: analytic {a} vs numeric {numeric}")


def rand_tensor(*shape):
    return Tensor(RNG.uniform(-1.0, 1.0, size=shape), requires_grad=True)


def scalarize(out, seed=3):
    w = np.random.default_rng(seed).uniform(-1.0, 1.0, size=out.shape)
    return T.sum_(T.mul(out, w))


class TestValues:
    def test_tanh_zero(self):
        assert T.tanh(Tensor(0.0)).item() == 0.0

    def test_sigmoid_zero(self):
        assert T.sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_equals_two_branch_formula_bitwise(self):
        # the masked two-branch form: 1 / (1 + e^-v) on v >= 0, e^v / (1 + e^v) below
        rng = np.random.default_rng(53)
        v = np.concatenate([rng.normal(scale=s, size=300) for s in (0.1, 3.0, 50.0, 800.0)]
                           + [np.array([0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0])])
        pos = v >= 0
        want = np.empty_like(v)
        want[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        want[~pos] = ev / (1.0 + ev)
        np.testing.assert_array_equal(T.sigmoid(Tensor(v)).data, want)

    def test_concat(self):
        out = T.concat([Tensor([1.0, 2.0]), Tensor([3.0])], axis=0)
        assert out.data.tolist() == [1.0, 2.0, 3.0]

    def test_softmax_uniform(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_softmax_shift_invariance(self):
        x = RNG.uniform(-3, 3, size=7)
        a = T.softmax(Tensor(x)).data
        b = T.softmax(Tensor(x + 123.456)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_high_precision_oracle(self):
        # Expected values computed with mpmath at 50 decimal digits:
        #   import mpmath; mpmath.mp.dps = 50
        #   es = [mpmath.exp(v) for v in (1, 2, 3)]; s = sum(es)
        #   [e / s for e in es]
        expected = [0.09003057317038045, 0.24472847105479767, 0.6652409557748219]
        out = T.softmax(Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.data, expected, rtol=1e-14)

    def test_softmax_mask_exact_zero(self):
        mask = np.array([True, True, False, True])
        out = T.softmax(Tensor([1.0, 2.0, 3.0, 4.0]), mask=mask)
        assert out.data[2] == 0.0
        assert abs(out.data.sum() - 1.0) < 1e-9

    def test_softmax_fully_masked_row_rejected(self):
        with pytest.raises(NumericsError):
            T.softmax(Tensor([[1.0, 2.0]]), mask=np.array([[False, False]]))

    def test_softmax_nan_rejected(self):
        with pytest.raises(NumericsError):
            T.softmax(Tensor(np.array([np.nan, 1.0])))

    def test_maxout_pairs(self):
        out = T.maxout(Tensor([1.0, 3.0, 2.0, 5.0]))
        assert out.data.tolist() == [3.0, 5.0]

    def test_maxout_equal_pairs(self):
        out = T.maxout(Tensor([4.0, 4.0, -2.0, -2.0]))
        assert out.data.tolist() == [4.0, -2.0]

    def test_maxout_odd_length_rejected(self):
        with pytest.raises(ShapeError):
            T.maxout(Tensor([1.0, 2.0, 3.0]))

    def test_cross_entropy_point_mass(self):
        logp = Tensor(np.log(np.array([1e-12, 1.0 - 2e-12, 1e-12])))
        assert nll(logp, np.array(1)).item() < 1e-11

    def test_cross_entropy_uniform(self):
        v = 10
        logp = Tensor(np.full(v, -math.log(v)))
        assert abs(nll(logp, np.array(3)).item() - math.log(v)) < 1e-12

    def test_cross_entropy_quarter(self):
        # -ln 0.25 = 1.3862943611198906 by direct computation
        logp = Tensor(np.log(np.array([0.25, 0.75])))
        assert abs(nll(logp, np.array(0)).item() - 1.3862943611198906) < 1e-12

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(rand_tensor(2, 3), rand_tensor(2, 3))

    def test_nonfinite_forward_rejected(self):
        big = Tensor(np.array([1e308, 1.0]), requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="'mul'"):
            T.mul(big, 10.0)


class TestGradients:
    def test_add_broadcast(self):
        a, b = rand_tensor(3, 4), rand_tensor(4)
        fd_check(lambda: scalarize(T.add(a, b)), [a, b])

    def test_mul_broadcast(self):
        a, b = rand_tensor(2, 3, 4), rand_tensor(3, 1)
        fd_check(lambda: scalarize(T.mul(a, b)), [a, b])

    def test_matmul_2d(self):
        a, b = rand_tensor(3, 4), rand_tensor(4, 2)
        fd_check(lambda: scalarize(T.matmul(a, b)), [a, b])

    def test_matmul_batched_shared_weight(self):
        a, b = rand_tensor(2, 3, 4), rand_tensor(4, 5)
        fd_check(lambda: scalarize(T.matmul(a, b)), [a, b])

    def test_matmul_batched_both(self):
        a, b = rand_tensor(2, 3, 4), rand_tensor(2, 4, 5)
        fd_check(lambda: scalarize(T.matmul(a, b)), [a, b])

    def test_tanh(self):
        x = rand_tensor(5)
        fd_check(lambda: scalarize(T.tanh(x)), [x])

    def test_sigmoid(self):
        x = rand_tensor(5)
        fd_check(lambda: scalarize(T.sigmoid(x)), [x])

    def test_log(self):
        x = Tensor(RNG.uniform(0.5, 2.0, size=6), requires_grad=True)
        fd_check(lambda: scalarize(T.log(x)), [x])

    def test_clamp_min(self):
        x = Tensor(np.array([0.5, 2.0, -1.0]), requires_grad=True)
        fd_check(lambda: scalarize(T.clamp_min(x, 1.0)), [x])

    def test_softmax_grad(self):
        x = rand_tensor(2, 5)
        fd_check(lambda: scalarize(T.softmax(x, axis=-1)), [x])

    def test_softmax_masked_grad(self):
        x = rand_tensor(2, 5)
        mask = np.array([[True, True, False, True, True]] * 2)
        fd_check(lambda: scalarize(T.softmax(x, axis=-1, mask=mask)), [x])

    def test_concat_grad(self):
        a, b = rand_tensor(2, 3), rand_tensor(2, 2)
        fd_check(lambda: scalarize(T.concat([a, b], axis=-1)), [a, b])

    def test_split_grad(self):
        x = rand_tensor(2, 6)
        fd_check(lambda: scalarize(T.concat([T.tanh(p) for p in T.split(x, 3, axis=-1)], -1)), [x])

    def test_stack_grad(self):
        a, b = rand_tensor(3), rand_tensor(3)
        fd_check(lambda: scalarize(T.stack([a, b], axis=0)), [a, b])

    def test_reshape_swapaxes_grad(self):
        x = rand_tensor(2, 6)
        fd_check(lambda: scalarize(T.swapaxes(T.reshape(x, (2, 3, 2)), 0, 1)), [x])

    def test_sum_mean_grad(self):
        x = rand_tensor(3, 4)
        fd_check(lambda: T.add(T.add(T.sum_(T.mul(x, x)), T.sum_(T.mean(x, axis=0))),
                               scalarize(T.mean(x, axis=1))), [x])

    def test_embedding_grad_accumulates_duplicates(self):
        w = rand_tensor(5, 3)
        ids = np.array([[0, 2, 0], [1, 1, 4]])
        fd_check(lambda: scalarize(T.embedding(w, ids)), [w])

    def test_gather_last_grad(self):
        x = rand_tensor(3, 4)
        idx = np.array([1, 0, 3])
        fd_check(lambda: scalarize(T.gather_last(x, idx)), [x])

    def test_scatter_sum_grad(self):
        w = rand_tensor(2, 4)
        ids = np.array([[0, 2, 2, 1], [3, 3, 0, 0]])
        fd_check(lambda: scalarize(scatter_sum(w, ids, 5)), [w])

    def test_maxout_grad_flows_to_max_only(self):
        x = Tensor(np.array([1.0, 3.0, 2.0, 5.0]), requires_grad=True)
        out = T.sum_(T.maxout(x))
        out.backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0, 1.0])

    def test_maxout_fd(self):
        x = rand_tensor(3, 8)
        fd_check(lambda: scalarize(T.maxout(x)), [x])

    def test_dropout_grad_fixed_mask(self):
        x = rand_tensor(4, 4)

        def f():   # a fresh rng per call, so every call draws the same mask
            with T.training(0.4, np.random.default_rng(11)):
                return scalarize(T.dropout(x))

        fd_check(f, [x])

    def test_first_gradient_does_not_alias_the_incoming_array(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        g = np.array([1.0, -2.0, 3.0])
        x._accumulate(g)
        assert not np.shares_memory(x.grad, g)
        x._accumulate(g)
        np.testing.assert_array_equal(g, [1.0, -2.0, 3.0])
        np.testing.assert_array_equal(x.grad, [2.0, -4.0, 6.0])
        # reshape hands its input a view of its own gradient
        y = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        z = T.reshape(y, (6,))
        T.sum_(T.mul(z, z)).backward()
        assert y.grad.base is None


# A word vocabulary of V = 5 ids and passages of 4 positions: each case is one
# row's copy ids, its passage length and its gold id; a plain row follows it.
GOLD_ROWS = {
    "copy_only": ([6, 2, 6, 1], 4, 6),
    "absent_from_passage": ([1, 3, 4, 1], 4, 2),
    "at_two_positions": ([3, 1, 3, 4], 4, 3),
    "at_three_positions": ([3, 3, 1, 3], 4, 3),   # summed in position order
    "padded": ([2, 4, 0, 0], 2, 0),
}


class TestGoldMixtureProb:
    @staticmethod
    def inputs(case):
        ids, length, gold = GOLD_ROWS[case]
        leaves = [rand_tensor(2, 3), rand_tensor(3, 5), rand_tensor(5),
                  rand_tensor(2, 4), rand_tensor(2, 1)]
        mask = T.length_mask(np.array([length, 4]), 4)
        return leaves, (np.array([ids, [1, 2, 3, 4]]), mask, np.array([gold, 2]))

    @staticmethod
    def build(leaves, rows, fused=True):
        """The gold probabilities with attention masked on pads, fused or as
        the composition over the extended vocabulary of 7 ids."""
        u, w, b, x, z = leaves
        copy_ids, mask, gold = rows
        alpha, p_g = T.softmax(x, mask=mask), T.sigmoid(z)
        if fused:
            return T.gold_mixture_prob(u, w, b, alpha, p_g, copy_ids, gold)
        p_vocab = T.concat([T.softmax(T.add(T.matmul(u, w), b)), Tensor(np.zeros((2, 2)))])
        p_copy = scatter_sum(alpha, copy_ids, 7)
        p = T.add(T.mul(p_vocab, p_g), T.mul(p_copy, T.add(T.mul(p_g, -1.0), 1.0)))
        return T.gather_last(p, gold)

    @pytest.mark.parametrize("case", sorted(GOLD_ROWS))
    def test_grad(self, case):
        leaves, rows = self.inputs(case)
        fd_check(lambda: scalarize(self.build(leaves, rows)), leaves)

    @pytest.mark.parametrize("case", sorted(GOLD_ROWS))
    def test_equals_the_composition_bitwise(self, case):
        for _ in range(20):   # summation-order slips show on some draws only
            leaves, rows = self.inputs(case)
            got = []
            for fused in (True, False):
                for t in leaves:
                    t.grad = None
                out = self.build(leaves, rows, fused)
                scalarize(out).backward()
                got.append([out.data.tobytes()] + [t.grad.tobytes() for t in leaves])
            assert got[0] == got[1]

    @pytest.mark.parametrize("poisoned", [0, 1])
    def test_nan_in_readout_or_weight_names_the_op(self, poisoned):
        leaves, rows = self.inputs("copy_only")
        leaves[poisoned].data[0, 0] = np.nan
        with pytest.raises(NumericsError, match="gold_mixture_prob"):
            self.build(leaves, rows)


class TestRelease:
    @staticmethod
    def small_graph(a, b):
        h = T.tanh(T.matmul(a, T.reshape(b, (2, 1))))
        return h, T.sum_(T.mul(h, h))

    def test_backward_releases_interior_nodes_and_keeps_leaf_grads(self):
        a, b = rand_tensor(3, 2), rand_tensor(2)
        _, loss = self.small_graph(a, b)
        interior, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if node._parents:
                interior[id(node)] = node
                stack.extend(node._parents)
        assert len(interior) == 5
        loss.backward()
        for node in interior.values():
            assert node.grad is None and node._parents == ()
        assert a.grad.shape == (3, 2) and b.grad.shape == (2,)

    def test_a_consumed_graph_raises_on_reuse(self):
        a, b = rand_tensor(3, 2), rand_tensor(2)
        h, loss = self.small_graph(a, b)
        loss.backward()
        want = a.grad.copy(), b.grad.copy()
        with pytest.raises(GraphReleasedError, match="already consumed"):
            loss.backward()
        with pytest.raises(GraphReleasedError):
            T.sum_(T.mul(h, 2.0)).backward()
        a.grad = b.grad = None
        self.small_graph(a, b)[1].backward()
        assert a.grad.tobytes() == want[0].tobytes()
        assert b.grad.tobytes() == want[1].tobytes()

    @staticmethod
    def backward_peak_bytes(depth):
        h = Tensor(np.linspace(-1.0, 1.0, 100_000), requires_grad=True)
        for _ in range(depth):
            h = T.tanh(h)
        loss = T.sum_(h)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_backward_peak_does_not_grow_with_the_chain(self):
        # each released node frees its activation and gradient, so the walk
        # holds a few arrays at a time however long the chain is
        assert self.backward_peak_bytes(40) < 1.5 * self.backward_peak_bytes(10)


class TestProperties:
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_softmax_normalized_nonneg(self, xs):
        out = T.softmax(Tensor(np.array(xs))).data
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) <= 1e-9

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_no_nan_inf_within_50(self, xs):
        x = Tensor(np.array(xs), requires_grad=True)
        for op in (T.tanh, T.sigmoid, T.softmax):
            out = op(x)
            assert np.all(np.isfinite(out.data))

    def test_scatter_sum_aggregates_duplicates(self):
        alpha = Tensor(np.array([[0.2, 0.5, 0.3]]))
        ids = np.array([[7, 2, 7]])
        out = scatter_sum(alpha, ids, 9)
        assert out.data[0, 7] == pytest.approx(0.5)
        assert out.data[0, 2] == pytest.approx(0.5)
        assert out.data.sum() == pytest.approx(1.0)

    def test_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(42)
            x = Tensor(rng.uniform(-1, 1, (4, 6)), requires_grad=True)
            w = Tensor(rng.uniform(-1, 1, (6, 3)), requires_grad=True)
            with T.training(0.3, rng):
                loss = T.sum_(T.tanh(T.matmul(T.dropout(x), w)))
            loss.backward()
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1.tobytes() == l2.tobytes()
        assert gx1.tobytes() == gx2.tobytes()
        assert gw1.tobytes() == gw2.tobytes()


# Each row of a batch_invariant() product against that row padded with zero
# rows alone to one chunk, and against the product of that row alone under
# the mode, printing the rows that differ. The (K, N) shapes are decoding's
# and training's at hidden 128 and 600, and odd column counts, where 16-row
# chunks gave rows 12-15 other last bits at one BLAS thread. The row counts
# fill one chunk partly or fully, and span two, five and twelve chunks.
CHUNK_PRODUCTS = """
import numpy as np
import ckqg.nn.tensor as T
rng = np.random.default_rng(7)
for k, n in ((128, 512), (356, 512), (256, 128), (384, 256), (128, 5000),
             (600, 2400), (600, 5000), (228, 512), (1800, 600), (130, 300),
             (228, 300), (600, 301), (128, 4101), (128, 5003), (2, 1)):
    b = rng.uniform(-1, 1, (k, n))
    for m in (1, 7, 8, 9, 15, 16, 37, 89):
        a = rng.uniform(-1, 1, (m, k))
        with T.batch_invariant():
            rows = T.matmul(T.Tensor(a), T.Tensor(b)).data
            singles = [T.matmul(T.Tensor(a[i:i + 1]), T.Tensor(b)).data[0]
                       for i in range(m)]
        for i in range(m):
            alone = np.zeros((T.CHUNK_ROWS, k))
            alone[0] = a[i]
            if rows[i].tobytes() != np.matmul(alone, b)[0].tobytes():
                print(f"K={k} N={n} rows={m}: row {i} differs from it alone in a chunk")
            if rows[i].tobytes() != singles[i].tobytes():
                print(f"K={k} N={n} rows={m}: row {i} depends on the batch")
"""


class TestNoGrad:
    def test_ops_inside_record_no_graph(self):
        w = rand_tensor(3, 2)
        with T.no_grad():
            out = T.tanh(T.matmul(rand_tensor(4, 3), w))
        assert not out.requires_grad and out._parents == ()
        assert out._backward is None
        assert T.tanh(T.matmul(rand_tensor(4, 3), w)).requires_grad

    def test_mode_restored_after_nesting_and_exceptions(self):
        w = rand_tensor(2)
        with T.no_grad():
            with T.no_grad():
                pass
            assert not T.mul(w, 2.0).requires_grad
        assert T.mul(w, 2.0).requires_grad
        with pytest.raises(RuntimeError, match="boom"):
            with T.no_grad():
                raise RuntimeError("boom")
        assert T.mul(w, 2.0).requires_grad

    def test_training_mode_restored_after_nesting_and_exceptions(self):
        x = Tensor(np.ones(50))

        def dropped() -> bool:
            return bool((T.dropout(x).data == 0.0).any())

        rng = np.random.default_rng(4)
        with T.training(0.5, rng):
            with T.training(0.0, rng):
                assert not dropped()
            assert dropped()
        assert not dropped()
        with pytest.raises(RuntimeError, match="boom"):
            with T.training(0.5, rng):
                raise RuntimeError("boom")
        assert not dropped()

    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5, float("nan")])
    def test_training_rejects_a_rate_outside_zero_one(self, rate):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            T.training(rate, np.random.default_rng(0))

    def test_training_at_rate_zero_draws_nothing(self):
        rng = np.random.default_rng(6)
        before = rng.bit_generator.state
        with T.training(0.0, rng):
            T.dropout(rand_tensor(3, 4))
        assert rng.bit_generator.state == before

    def test_nan_inside_still_names_the_op(self):
        with T.no_grad(), np.errstate(invalid="ignore"):
            with pytest.raises(NumericsError, match="'mul'"):
                T.mul(Tensor([np.inf]), 0.0)

    def test_batch_invariant_rows_equal_each_row_alone_in_a_chunk(self):
        # The reference is numpy's own product of one padded chunk, so it
        # runs under one BLAS thread, in a child process: with more threads
        # OpenBLAS may split a wide chunk between them, and where the split
        # falls moves the reference's own last bits. The child also checks
        # that no row depends on the batch, as the next test does in this
        # process at the default thread count.
        proc = run_one_thread(CHUNK_PRODUCTS)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""

    def test_batch_invariant_rows_do_not_depend_on_the_batch(self):
        # one partial chunk at 7x130 @ 130x300; two full chunks and a
        # partial one at 37x128 @ 128x5003
        for m, k, n in ((7, 130, 300), (37, 128, 5003)):
            a, b = RNG.uniform(-1, 1, (m, k)), RNG.uniform(-1, 1, (k, n))
            with T.batch_invariant():
                rows = T.matmul(Tensor(a), Tensor(b)).data
                singles = [T.matmul(Tensor(a[i:i + 1]), Tensor(b)).data[0]
                           for i in range(m)]
            assert all(rows[i].tobytes() == singles[i].tobytes() for i in range(m))
            np.testing.assert_allclose(T.matmul(Tensor(a), Tensor(b)).data, rows,
                                       rtol=0, atol=1e-12)

    def test_decoding_records_no_tape(self, monkeypatch):
        from ckqg import qg_model, trainer
        from ckqg.config import Config
        from ckqg.corpus import (TrainingSample, build_tag_vocabs, build_vocab,
                                 coarse_tags, encode_batch)

        toks = "the red fox jumped over the lazy dog".split()
        pos, ner = coarse_tags(toks)
        sample = TrainingSample(passage=toks, answer_span=(6, 7), pos_tags=pos,
                                ner_tags=ner, question="what did it jump ?".split())
        vocab, tags = build_vocab([sample]), build_tag_vocabs([sample])
        cfg = Config(hidden_size=3, layers=2, emb_dim=4, feat_dim=2, max_len=5)
        params = trainer.build_parameters(cfg, vocab, tags, np.random.default_rng(0))
        outputs, threads = [], set()

        def record(fn):
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                outputs.append(result[1].s_tilde if isinstance(result, tuple)
                               else result.proj)
                threads.add(threading.get_ident())
                return result
            return wrapped

        monkeypatch.setattr(qg_model, "decode_step", record(qg_model.decode_step))
        monkeypatch.setattr(qg_model, "encode_passage", record(qg_model.encode_passage))
        batch = encode_batch([sample], vocab, tags)
        enc = qg_model.encode_passage(params, batch)
        memory = qg_model.DecodeMemory(enc, None, batch.copy_ids, batch.extended_size,
                                       enc.bw_final)
        qg_model.beam_search(params, "dec", memory, beam=3, max_len=5)
        trainer.evaluate_dev(params, [sample], vocab, tags, cfg)
        # beam decoding on two lanes, each holding its first group until the
        # other has one, so both pool threads decode; the caller only waits
        monkeypatch.setattr(trainer.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(trainer, "LANE_MIN_STEP_WORK", 0)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        barrier, calls = threading.Barrier(2, timeout=10), itertools.count()
        beam_search_group = qg_model.beam_search_group

        def meet(*args, **kwargs):
            if next(calls) < 2:
                barrier.wait()
            return beam_search_group(*args, **kwargs)

        monkeypatch.setattr(qg_model, "beam_search_group", meet)
        trainer.generate(params, [sample] * 4, vocab, tags, cfg, 2)
        assert len(outputs) > 3 and len(threads) == 3
        assert all(t._parents == () for t in outputs[1:])
        assert outputs[0].requires_grad  # the caller's own encoding keeps its tape
        assert all(p.grad is None for _, p in params.items())
