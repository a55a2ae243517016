"""Recurrent layers, parameter registry, Adam, checkpoint IO, grad checker."""

import struct

import numpy as np
import pytest

from ckqg.nn import tensor as T
from ckqg.nn import layers as L
from ckqg.nn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from ckqg.nn.gradcheck import grad_check
from ckqg.nn.optim import Adam
from ckqg.nn.params import ParameterSet, initial_value
from ckqg.nn.tensor import ShapeError, Tensor
from oracles import reference_run_lstm


def _fd(loss_fn, t, eps=1e-6):
    """Two-sided numeric gradient of the scalar loss_fn() w.r.t. tensor t."""
    g = np.zeros_like(t.data)
    it = np.nditer(t.data, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        keep = t.data[ix]
        t.data[ix] = keep + eps
        up = float(loss_fn().data)
        t.data[ix] = keep - eps
        dn = float(loss_fn().data)
        t.data[ix] = keep
        g[ix] = (up - dn) / (2 * eps)
        it.iternext()
    return g


def lstm_stack(prefix, input_dim, hidden, layers, rng, bidirectional=True):
    """A set holding one LSTM stack, drawn as trainer.model_spec lists a stack:
    per layer and direction, the fused weight and then the gate biases."""
    params = ParameterSet(layers)
    for k in range(layers):
        n_in = input_dim if k == 0 else (2 if bidirectional else 1) * hidden
        cells = [f"{prefix}.l{k}.fw", f"{prefix}.l{k}.bw"] if bidirectional else [f"{prefix}.l{k}"]
        for cell in cells:
            params.add(f"{cell}.W", initial_value("uniform", (n_in + hidden, 4 * hidden), rng),
                       "qg_core")
            params.add(f"{cell}.b", initial_value("lstm_bias", (4 * hidden,), rng), "qg_core")
    return params


# ---------------------------------------------------------------------------
# lstm_cell


def test_lstm_cell_zero_weights_zero_state():
    # all gates sit at sigmoid(0)=0.5, candidate at tanh(0)=0, so h = c = 0
    x = Tensor(np.array([[2.0, -3.0, 0.5]]))
    h0 = Tensor(np.zeros((1, 2)))
    c0 = Tensor(np.zeros((1, 2)))
    w = Tensor(np.zeros((5, 8)))
    b = Tensor(np.zeros(8))
    h, c = L.lstm_cell(x, h0, c0, w, b)
    assert np.array_equal(h.data, np.zeros((1, 2)))
    assert np.array_equal(c.data, np.zeros((1, 2)))


def test_lstm_cell_fixed_input_oracle():
    # frozen values recomputed by hand from the gate equations (i,f,g,o order)
    x = Tensor(np.array([[0.5, -1.0]]))
    h0 = Tensor(np.array([[0.1, 0.2]]))
    c0 = Tensor(np.array([[-0.3, 0.4]]))
    w = Tensor(np.array([[((i * 8 + j) % 7 - 3) / 10 for j in range(8)] for i in range(4)]))
    b = Tensor(np.array([(j - 4) / 20 for j in range(8)]))
    h, c = L.lstm_cell(x, h0, c0, w, b)
    np.testing.assert_allclose(
        c.data[0], [-0.22443860052252493, 0.09177076969301279], rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        h.data[0], [-0.13792258692851952, 0.05009088908152257], rtol=0, atol=1e-14)


def test_lstm_cell_hidden_state_bounded():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(scale=10.0, size=(4, 3)))
    h0 = Tensor(rng.normal(size=(4, 5)))
    c0 = Tensor(rng.normal(scale=5.0, size=(4, 5)))
    w = Tensor(rng.normal(size=(8, 20)))
    b = Tensor(rng.normal(size=20))
    h, _ = L.lstm_cell(x, h0, c0, w, b)
    assert np.all(np.abs(h.data) < 1.0)


def test_lstm_cell_gradients():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    h0 = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    c0 = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    w = Tensor(rng.normal(scale=0.5, size=(5, 8)), requires_grad=True)
    b = Tensor(rng.normal(scale=0.1, size=8), requires_grad=True)

    def loss():
        h, c = L.lstm_cell(x, h0, c0, w, b)
        return T.sum_(T.add(h, c))

    for t in (x, h0, c0, w, b):
        t.grad = None
    out = loss()
    out.backward()
    for t in (x, h0, c0, w, b):
        numeric = _fd(loss, t)
        np.testing.assert_allclose(t.grad, numeric, rtol=0, atol=1e-7)


# ---------------------------------------------------------------------------
# run_lstm / bilstm


def _rand_lstm_weights(rng, input_dim, hidden):
    w = Tensor(rng.normal(scale=0.3, size=(input_dim + hidden, 4 * hidden)))
    b = Tensor(rng.normal(scale=0.1, size=4 * hidden))
    return w, b


def test_run_lstm_final_state_sits_at_true_length():
    rng = np.random.default_rng(3)
    xs = Tensor(rng.normal(size=(2, 4, 3)))
    w, b = _rand_lstm_weights(rng, 3, 2)
    lengths = np.array([3, 1])
    outs, h_fin = L.run_lstm(xs, lengths, w, b)
    assert outs.shape == (2, 4, 2)
    np.testing.assert_array_equal(h_fin.data[0], outs.data[0, 2])
    np.testing.assert_array_equal(h_fin.data[1], outs.data[1, 0])
    # padded rows must not advance the state
    np.testing.assert_array_equal(outs.data[1, 0], outs.data[1, 3])


def test_run_lstm_reverse_equals_flipped_forward():
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(2, 5, 3))
    w, b = _rand_lstm_weights(rng, 3, 4)
    lengths = np.array([5, 5])
    rev, h_rev = L.run_lstm(Tensor(xs), lengths, w, b, reverse=True)
    fwd, h_fwd = L.run_lstm(Tensor(xs[:, ::-1].copy()), lengths, w, b)
    np.testing.assert_array_equal(rev.data, fwd.data[:, ::-1])
    np.testing.assert_array_equal(h_rev.data, h_fwd.data)


def test_bilstm_shapes_and_final_slices():
    rng = np.random.default_rng(9)
    params = lstm_stack("enc", 3, 2, 2, rng)
    xs = Tensor(rng.normal(size=(2, 4, 3)))
    lengths = np.array([4, 2])
    outs, fw_fin, bw_fin = L.bilstm(params, "enc", xs, lengths)
    assert outs.shape == (2, 4, 4)
    for i, n in enumerate(lengths):
        np.testing.assert_array_equal(fw_fin.data[i], outs.data[i, n - 1, :2])
        np.testing.assert_array_equal(bw_fin.data[i], outs.data[i, 0, 2:])


def test_bilstm_padding_matches_per_sample_runs():
    """Batching with pad rows must reproduce each sample run at its own length."""
    rng = np.random.default_rng(13)
    params = lstm_stack("enc", 3, 4, 2, rng)
    xs = rng.normal(size=(3, 5, 3))
    lengths = np.array([5, 3, 1])
    outs, fw_fin, bw_fin = L.bilstm(params, "enc", Tensor(xs), lengths)
    for i, n in enumerate(lengths):
        solo, solo_fw, solo_bw = L.bilstm(
            params, "enc", Tensor(xs[i:i + 1, :n].copy()), np.array([n]))
        np.testing.assert_allclose(outs.data[i, :n], solo.data[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(fw_fin.data[i], solo_fw.data[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(bw_fin.data[i], solo_bw.data[0], rtol=0, atol=1e-12)


def test_bilstm_length_one_tied_directions_agree():
    # on a single token both directions see the same input and start state
    rng = np.random.default_rng(17)
    params = lstm_stack("enc", 3, 2, 1, rng)
    params["enc.l0.bw.W"].data = params["enc.l0.fw.W"].data.copy()
    params["enc.l0.bw.b"].data = params["enc.l0.fw.b"].data.copy()
    xs = Tensor(rng.normal(size=(2, 1, 3)))
    outs, _, _ = L.bilstm(params, "enc", xs, np.array([1, 1]))
    np.testing.assert_array_equal(outs.data[:, 0, :2], outs.data[:, 0, 2:])


def test_bilstm_rejects_empty_sequence():
    params = lstm_stack("enc", 3, 2, 1, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        L.bilstm(params, "enc", Tensor(np.zeros((1, 0, 3))), np.array([0]))


def test_bilstm_gradients_via_checker():
    rng = np.random.default_rng(19)
    params = lstm_stack("enc", 2, 2, 2, rng)
    xs = Tensor(rng.normal(size=(2, 3, 2)))
    lengths = np.array([3, 2])

    def loss():
        outs, fw_fin, bw_fin = L.bilstm(params, "enc", xs, lengths)
        return T.add(T.sum_(T.mul(outs, outs)), T.sum_(T.add(fw_fin, bw_fin)))

    report = grad_check(loss, list(params.items()), eps=1e-5, samples_per_tensor=6)
    assert report.max_rel_err < 1e-6, str(report)


# ---------------------------------------------------------------------------
# lstm_sequence: the fused recurrence against the per-step chain


def _grads_of(run, xs, w, b, weights):
    """Gradients of sum(H * R) + sum(h_final * r) for fixed random R, r."""
    for t in (xs, w, b):
        t.grad = None
    outs, h_fin = run()[:2]
    loss = T.add(T.sum_(T.mul(outs, weights[0])), T.sum_(T.mul(h_fin, weights[1])))
    loss.backward()
    return outs, h_fin, [t.grad.copy() for t in (xs, w, b)]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_sequence_matches_per_step_reference(seed, reverse):
    rng = np.random.default_rng(100 + seed)
    nb = 1 if seed % 4 == 0 else int(rng.integers(2, 6))
    nl = 1 if seed % 3 == 0 else int(rng.integers(2, 9))
    dim, hidden = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    lengths = rng.integers(1, nl + 1, size=nb)
    lengths[0] = nl
    xs = Tensor(rng.normal(size=(nb, nl, dim)), requires_grad=True)
    w = Tensor(rng.normal(scale=0.5, size=(dim + hidden, 4 * hidden)), requires_grad=True)
    b = Tensor(rng.normal(scale=0.3, size=4 * hidden), requires_grad=True)
    weights = (rng.normal(size=(nb, nl, hidden)), rng.normal(size=(nb, hidden)))

    fused = _grads_of(lambda: L.run_lstm(xs, lengths, w, b, reverse=reverse), xs, w, b, weights)
    ref = _grads_of(lambda: reference_run_lstm(xs, lengths, w, b, reverse=reverse),
                    xs, w, b, weights)
    np.testing.assert_allclose(fused[0].data, ref[0].data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fused[1].data, ref[1].data, rtol=0, atol=1e-12)
    for got, want in zip(fused[2], ref[2]):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


def test_lstm_sequence_gradcheck_padded_reverse():
    rng = np.random.default_rng(37)
    xs = Tensor(rng.normal(size=(3, 5, 2)), requires_grad=True)
    w, b = _rand_lstm_weights(rng, 2, 3)
    w.requires_grad = b.requires_grad = True
    lengths = np.array([5, 3, 1])
    weights = rng.normal(size=(3, 5, 3))

    def loss():
        return T.sum_(T.mul(T.lstm_sequence(xs, lengths, w, b, reverse=True), weights))

    report = grad_check(loss, [("w", w), ("b", b), ("xs", xs)], eps=1e-5,
                        samples_per_tensor=12)
    assert report.max_rel_err < 1e-4, str(report)


def test_lstm_sequence_overflow_names_op():
    xs = Tensor(np.full((2, 3, 2), 1e10))
    w = Tensor(np.full((4, 8), 1e300), requires_grad=True)
    b = Tensor(np.zeros(8), requires_grad=True)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(T.NumericsError, match="'lstm_sequence'"):
        T.lstm_sequence(xs, np.array([3, 2]), w, b)


@pytest.mark.parametrize("w_shape, b_shape, named", [
    ((6, 8), (8,), ["(6, 8)", "(2, 3, 3)"]),   # rows must be D + h = 5
    ((5, 8), (9,), ["(9,)", "(5, 8)"]),
])
def test_lstm_sequence_shape_error_names_shapes(w_shape, b_shape, named):
    xs = Tensor(np.zeros((2, 3, 3)))
    with pytest.raises(ShapeError, match="lstm_sequence") as err:
        T.lstm_sequence(xs, np.array([3, 1]), Tensor(np.zeros(w_shape)),
                        Tensor(np.zeros(b_shape)))
    for shape in named:
        assert shape in str(err.value)


def _tape_nodes(root):
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def test_bilstm_tape_size_does_not_grow_with_length():
    rng = np.random.default_rng(41)
    params = lstm_stack("enc", 3, 2, 2, rng)
    counts = []
    for nl in (3, 30):
        xs = Tensor(rng.normal(size=(2, nl, 3)), requires_grad=True)
        outs, fw_fin, bw_fin = L.bilstm(params, "enc", xs, np.array([nl, 2]))
        counts.append(_tape_nodes(T.add(T.sum_(outs), T.sum_(T.add(fw_fin, bw_fin)))))
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# stacked_lstm_step


def test_stacked_lstm_step_matches_manual_stack():
    rng = np.random.default_rng(23)
    params = lstm_stack("dec", 3, 2, 2, rng, bidirectional=False)
    x = Tensor(rng.normal(size=(2, 3)))
    states = [(Tensor(rng.normal(size=(2, 2))), Tensor(rng.normal(size=(2, 2))))
              for _ in range(2)]
    top, new_states = L.stacked_lstm_step(params, "dec", x, states)
    h0, c0 = L.lstm_cell(x, states[0][0], states[0][1], params["dec.l0.W"], params["dec.l0.b"])
    h1, c1 = L.lstm_cell(h0, states[1][0], states[1][1], params["dec.l1.W"], params["dec.l1.b"])
    np.testing.assert_array_equal(top.data, h1.data)
    np.testing.assert_array_equal(new_states[0][0].data, h0.data)
    np.testing.assert_array_equal(new_states[0][1].data, c0.data)
    np.testing.assert_array_equal(new_states[1][1].data, c1.data)


def test_stacked_lstm_step_gradients():
    rng = np.random.default_rng(29)
    params = lstm_stack("dec", 2, 2, 2, rng, bidirectional=False)
    x = Tensor(rng.normal(size=(1, 2)))
    states = [(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2)))) for _ in range(2)]

    def loss():
        top, new_states = L.stacked_lstm_step(params, "dec", x, states)
        pieces = [T.sum_(top)]
        for h, c in new_states:
            pieces.append(T.sum_(c))
        return T.add(T.add(pieces[0], pieces[1]), pieces[2])

    report = grad_check(loss, list(params.items()), eps=1e-5, samples_per_tensor=8)
    assert report.max_rel_err < 1e-6, str(report)


# ---------------------------------------------------------------------------
# linear helper


def test_linear_adds_bias():
    rng = np.random.default_rng(31)
    params = ParameterSet(layers=1)
    params.add("proj.W", initial_value("uniform", (3, 2), rng), "qg_core")
    params.add("proj.b", initial_value("zeros", (2,), rng), "qg_core")
    assert "proj.b" in params
    x = np.array([[1.0, -1.0, 2.0]])
    got = L.linear(params, "proj", Tensor(x))
    want = x @ params["proj.W"].data + params["proj.b"].data
    np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-15)


def test_init_lstm_forget_gate_bias():
    params = lstm_stack("cell", 3, 4, 1, np.random.default_rng(0), bidirectional=False)
    b = params["cell.l0.b"].data
    np.testing.assert_array_equal(b[4:8], np.ones(4))
    np.testing.assert_array_equal(b[:4], np.zeros(4))
    np.testing.assert_array_equal(b[8:], np.zeros(8))


# ---------------------------------------------------------------------------
# dropout statistics (inverted scaling keeps the expectation)


def test_dropout_preserves_mean_and_zero_fraction():
    rng = np.random.default_rng(37)
    x = Tensor(np.ones(200_000))
    out = T.dropout(x, 0.3, rng=rng)
    zero_frac = float(np.mean(out.data == 0.0))
    assert abs(zero_frac - 0.3) < 0.02
    assert abs(float(np.mean(out.data)) - 1.0) < 0.02
    kept = out.data[out.data != 0.0]
    np.testing.assert_allclose(kept, 1.0 / 0.7, rtol=1e-12)


def test_dropout_inference_is_identity():
    x = Tensor(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(T.dropout(x, 0.3).data, x.data)
    np.testing.assert_array_equal(
        T.dropout(x, 0.0, rng=np.random.default_rng(0)).data, x.data)


# ---------------------------------------------------------------------------
# ParameterSet


def test_parameter_registration_and_groups():
    params = ParameterSet(layers=1)
    w = params.add("enc.W", np.ones((2, 2)), "qg_core")
    params.add("rc.W", np.zeros(3), "knowledge")
    assert w.requires_grad
    assert len(params) == 2
    assert params.names("qg_core") == ["enc.W"]
    assert params.group_of("rc.W") == "knowledge"
    assert "enc.W" in params and "dec.W" not in params
    with pytest.raises(ValueError):
        params.add("enc.W", np.ones(1), "qg_core")
    with pytest.raises(ValueError):
        params.add("other", np.ones(1), "nonexistent_group")


def test_state_dict_roundtrip_and_validation():
    params = ParameterSet(layers=1)
    params.add("a", np.array([1.0, 2.0]), "qg_core")
    params.add("b", np.eye(2), "knowledge")
    snap = params.state_dict()
    params["a"].data[:] = 99.0
    params.load_state_dict(snap)
    np.testing.assert_array_equal(params["a"].data, [1.0, 2.0])
    with pytest.raises(ValueError):
        params.load_state_dict({"a": snap["a"]})
    with pytest.raises(ValueError):
        params.load_state_dict({**snap, "c": np.zeros(1)})
    with pytest.raises(ValueError):
        params.load_state_dict({"a": np.zeros(3), "b": snap["b"]})


def test_group_hash_tracks_only_its_group():
    params = ParameterSet(layers=1)
    params.add("a", np.array([1.0]), "qg_core")
    params.add("k", np.array([2.0]), "knowledge")
    h_core = params.group_hash("qg_core")
    h_know = params.group_hash("knowledge")
    params["a"].data[0] = 5.0
    assert params.group_hash("qg_core") != h_core
    assert params.group_hash("knowledge") == h_know


def test_grad_clipping_global_norm():
    params = ParameterSet(layers=1)
    params.add("a", np.zeros(1), "qg_core")
    params.add("b", np.zeros(1), "qg_core")
    params["a"].grad = np.array([3.0])
    params["b"].grad = np.array([4.0])
    pre = params.clip_grads(1.0)
    assert pre == pytest.approx(5.0, abs=1e-12)
    assert params.grad_norm() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(params["a"].grad, [0.6], atol=1e-12)
    # under the threshold nothing moves
    params["a"].grad = np.array([0.1])
    params["b"].grad = np.array([0.0])
    pre = params.clip_grads(1.0)
    assert pre == pytest.approx(0.1, abs=1e-15)
    np.testing.assert_array_equal(params["a"].grad, [0.1])
    params.zero_grads()
    assert params["a"].grad is None


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_closed_form():
    params = ParameterSet(layers=1)
    p = params.add("w", np.array([1.0, -2.0, 3.0]), "qg_core")
    g = np.array([0.5, -1.5, 2.0])
    p.grad = g.copy()
    opt = Adam(params, lr=0.01)
    opt.step()
    # at t=1 bias correction cancels both moments: step is lr * g / (|g| + eps)
    want = np.array([1.0, -2.0, 3.0]) - 0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p.data, want, rtol=1e-12, atol=0)


def test_adam_ignores_missing_gradients():
    params = ParameterSet(layers=1)
    p = params.add("w", np.array([1.0]), "qg_core")
    opt = Adam(params)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0])
    assert "w" not in opt.m


def test_adam_frozen_names_keep_data_and_moments():
    params = ParameterSet(layers=1)
    a = params.add("a", np.array([1.0]), "qg_core")
    k = params.add("k", np.array([1.0]), "knowledge")
    opt = Adam(params, lr=0.1)
    for _ in range(3):
        a.grad = np.array([1.0])
        k.grad = np.array([1.0])
        opt.step(trainable={"a"})
    np.testing.assert_array_equal(k.data, [1.0])
    assert "k" not in opt.m and opt.t["a"] == 3
    # after unfreezing the first update is a fresh t=1 step
    k.grad = np.array([2.0])
    opt.step(trainable={"a", "k"})
    assert opt.t["k"] == 1
    np.testing.assert_allclose(k.data, 1.0 - 0.1 * 2.0 / (2.0 + 1e-8), rtol=1e-12)


def test_adam_runs_are_bitwise_deterministic():
    def run():
        params = ParameterSet(layers=1)
        p = params.add("w", np.linspace(-1, 1, 8), "qg_core")
        opt = Adam(params, lr=0.05)
        rng = np.random.default_rng(42)
        for _ in range(5):
            p.grad = rng.normal(size=8)
            opt.step()
        return p.data.tobytes()

    assert run() == run()


# ---------------------------------------------------------------------------
# checkpoint container


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(43)
    tensors = {
        "scalar": np.array(3.5),
        "vec": rng.normal(size=7),
        "mat": rng.normal(size=(3, 4)),
        "cube": rng.normal(size=(2, 3, 2)),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(tensors)
    for name, arr in tensors.items():
        assert loaded[name].tobytes() == np.asarray(arr, dtype=np.float64).tobytes()
        assert loaded[name].shape == np.asarray(arr).shape


def test_checkpoint_byte_layout(tmp_path):
    """Walk the documented layout by hand over a file the package wrote."""
    arr = np.arange(6, dtype=np.float64).reshape(2, 3)
    path = tmp_path / "one.ckpt"
    save_checkpoint(path, {"enc.W": arr})
    raw = path.read_bytes()
    assert raw[:4] == b"CKQG"
    version, count = struct.unpack_from("<II", raw, 4)
    assert (version, count) == (1, 1)
    off = 12
    (name_len,) = struct.unpack_from("<H", raw, off)
    off += 2
    assert raw[off:off + name_len] == b"enc.W"
    off += name_len
    (ndim,) = struct.unpack_from("<B", raw, off)
    off += 1
    assert ndim == 2
    dims = struct.unpack_from("<2I", raw, off)
    off += 8
    assert dims == (2, 3)
    (dtype_code,) = struct.unpack_from("<B", raw, off)
    off += 1
    assert dtype_code == 1
    assert raw[off:off + 48] == arr.tobytes()
    assert len(raw) == off + 48


def test_checkpoint_reads_hand_written_file(tmp_path):
    want = np.array([1.5, -2.5])
    buf = (b"CKQG" + struct.pack("<II", 1, 1)
           + struct.pack("<H", 1) + b"w"
           + struct.pack("<B", 1) + struct.pack("<I", 2)
           + struct.pack("<B", 1) + want.tobytes())
    path = tmp_path / "hand.ckpt"
    path.write_bytes(buf)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(loaded["w"], want)


def test_checkpoint_rejects_corrupt_files(tmp_path):
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, {"w": np.ones(4)})
    raw = good.read_bytes()

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_magic)

    bad_version = tmp_path / "version.ckpt"
    bad_version.write_bytes(raw[:4] + struct.pack("<I", 9) + raw[8:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_version)

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(raw[:-4])
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)

    bad_dtype = tmp_path / "dtype.ckpt"
    # dtype code byte sits right before the payload
    body = bytearray(raw)
    body[-8 * 4 - 1] = 7
    bad_dtype.write_bytes(bytes(body))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_dtype)


def test_checkpoint_every_proper_prefix_is_rejected(tmp_path):
    # cuts land in the header, a name, the dims, the dtype byte and a payload
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, {"scalar": np.float64(2.0), "w": np.ones((2, 3))})
    raw = good.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(CheckpointError):
            load_checkpoint(cut)


# ---------------------------------------------------------------------------
# grad_check utility


def test_grad_check_quadratic_agrees():
    x = Tensor(np.array([3.0]), requires_grad=True)
    report = grad_check(lambda: T.sum_(T.mul(x, x)), [("x", x)], eps=1e-4)
    # d/dx x^2 at 3 is 6 and a central difference is exact for quadratics
    assert report.max_rel_err < 1e-8
    assert report.checked == 1


def test_grad_check_flags_wrong_backward():
    x = Tensor(np.array([3.0]), requires_grad=True)

    def bad_square(t):
        def backward(g):
            t._accumulate(g * 3.0 * t.data)  # deliberately wrong: true rule is 2x
        return Tensor._from_op(t.data * t.data, (t,), backward, "bad_square")

    report = grad_check(lambda: T.sum_(bad_square(x)), [("x", x)], eps=1e-4)
    assert report.max_rel_err > 0.1
    assert report.worst_param == "x"
