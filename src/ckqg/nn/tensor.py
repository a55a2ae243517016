"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps a dense array plus the bookkeeping needed to replay the
computation backwards: parent nodes and a closure that routes the incoming
gradient to those parents. Calling ``backward()`` on a scalar loss walks the
graph in reverse topological order, accumulates ``.grad`` on the leaves that
require it, and consumes the graph as it goes: each interior node drops its
gradient, its closure (and the activations that holds) and its parents once
its rule has run. Backpropagating through a consumed node again raises
``GraphReleasedError``.

Every forward op validates that its output is finite; NaN/Inf anywhere
raises ``NumericsError`` immediately so divergence is caught at the op that
produced it, not three modules later. Inside ``no_grad()`` ops still check
their outputs but record no graph, which is how inference runs.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np


class NumericsError(RuntimeError):
    """Raised when an op produces (or receives) NaN/Inf values."""


class ShapeError(ValueError):
    """Raised on incompatible operand shapes; message names both shapes."""


class GraphReleasedError(RuntimeError):
    """Raised on backpropagating through a graph backward() already consumed."""


def _released(g) -> None:
    raise GraphReleasedError(
        "graph already consumed by backward(); run the forward pass again")


def _as_array(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    return a


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite values produced by op '{op}'")


class _Mode(threading.local):
    grad = True          # ops record parents and backward closures
    row_by_row = False   # 2-D matmuls run as one vector-matrix product per row


_mode = _Mode()


@contextlib.contextmanager
def _set_mode(name: str, value: bool):
    prev = getattr(_mode, name)
    setattr(_mode, name, value)
    try:
        yield
    finally:
        setattr(_mode, name, prev)


def no_grad():
    """Within the block (in this thread) ops record no parents and no
    backward closure, so nothing is kept for a ``backward()`` that inference
    never calls. Nests, and restores the previous mode on exit."""
    return _set_mode("grad", False)


def row_by_row():
    """Within the block (in this thread) a 2-D matmul computes each row of
    its output as a one-row product would, bit for bit, whatever other rows
    share the batch. BLAS sums a multi-row product in another order than a
    one-row product, so the last bits would otherwise depend on the batch."""
    return _set_mode("row_by_row", True)


class Tensor:
    """Autodiff value node: data, optional grad, and the backward rule."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple["Tensor", ...], backward, op: str) -> "Tensor":
        _check_finite(data, op)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        req = _mode.grad and any(p.requires_grad for p in parents)
        out.requires_grad = req
        if req:
            out._parents = parents
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    # -- basic protocol --------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray) -> None:
        # g has this node's shape and dtype; copied, because callers may keep
        # or reuse it and later gradients are added in place
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph, once.

        Leaves (tensors no op built) keep ``.grad``. Each interior node is
        released at its turn, after its rule has run: ``grad`` None, parents
        dropped, and a rule that raises ``GraphReleasedError`` from then on."""
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.data.shape}")
        topo: list[Tensor | None] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for i in range(len(topo) - 1, -1, -1):
            node, topo[i] = topo[i], None
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _released, ()

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -_as_array(other))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over the axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# -- arithmetic -----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from None

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return Tensor._from_op(data, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from None

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return Tensor._from_op(data, (a, b), backward, "mul")


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    if _mode.row_by_row and a.ndim == 2 and b.ndim == 2:
        data = np.matmul(a.data[:, None, :], b.data)[:, 0, :]
    else:
        data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.shape))

    return Tensor._from_op(data, (a, b), backward, "matmul")


# -- elementwise nonlinearities -------------------------------------------


def tanh(x: Tensor) -> Tensor:
    x = _coerce(x)
    data = np.tanh(x.data)

    def backward(g):
        x._accumulate(g * (1.0 - data * data))

    return Tensor._from_op(data, (x,), backward, "tanh")


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|v|, and each
    element is 1 / (1 + e^-v) for v >= 0 and e^v / (1 + e^v) below."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x: Tensor) -> Tensor:
    x = _coerce(x)
    out = _sigmoid(x.data)

    def backward(g):
        x._accumulate(g * out * (1.0 - out))

    return Tensor._from_op(out, (x,), backward, "sigmoid")


def log(x: Tensor) -> Tensor:
    x = _coerce(x)
    if np.any(x.data <= 0.0):
        raise NumericsError("log of non-positive value")
    data = np.log(x.data)

    def backward(g):
        x._accumulate(g / x.data)

    return Tensor._from_op(data, (x,), backward, "log")


def clamp_min(x: Tensor, floor: float) -> Tensor:
    """Elementwise max(x, floor); clamped entries get zero gradient."""
    x = _coerce(x)
    data = np.maximum(x.data, floor)
    keep = x.data > floor

    def backward(g):
        x._accumulate(g * keep)

    return Tensor._from_op(data, (x,), backward, "clamp_min")


# -- softmax ---------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1, mask: np.ndarray | None = None) -> Tensor:
    """Shift-invariant softmax along ``axis``.

    ``mask`` (bool, broadcastable to x.shape) marks valid positions; invalid
    positions receive exactly 0 probability and pass no gradient. Rows with
    no valid position are an error.
    """
    x = _coerce(x)
    if not np.all(np.isfinite(x.data)):
        raise NumericsError("softmax received non-finite input")
    v = x.data
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), v.shape)
        if not np.all(mask.any(axis=axis)):
            raise NumericsError("softmax row is fully masked")
        v = np.where(mask, v, -np.inf)
    m = np.max(v, axis=axis, keepdims=True)
    e = np.exp(v - m)
    if mask is not None:
        e = np.where(mask, e, 0.0)
    s = np.sum(e, axis=axis, keepdims=True)
    out = e / s

    def backward(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        x._accumulate(out * (g - dot))

    return Tensor._from_op(out, (x,), backward, "softmax")


# -- shape manipulation ------------------------------------------------------


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis if axis >= 0 else t.ndim + axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return Tensor._from_op(data, tuple(tensors), backward, "concat")


def split(x: Tensor, sections: int, axis: int = -1) -> list[Tensor]:
    """Split into ``sections`` equal parts along ``axis``."""
    x = _coerce(x)
    n = x.shape[axis]
    if n % sections != 0:
        raise ShapeError(f"split: axis size {n} not divisible by {sections}")
    step = n // sections
    outs = []
    for k in range(sections):
        idx = [slice(None)] * x.ndim
        idx[axis] = slice(k * step, (k + 1) * step)
        idx = tuple(idx)
        part = x.data[idx]

        def backward(g, idx=idx):
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[idx] += g

        outs.append(Tensor._from_op(part.copy(), (x,), backward, "split"))
    return outs


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        slabs = np.split(g, len(tensors), axis=axis)
        for t, slab in zip(tensors, slabs):
            if t.requires_grad:
                t._accumulate(np.squeeze(slab, axis=axis))

    return Tensor._from_op(data, tuple(tensors), backward, "stack")


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _coerce(x)
    data = x.data.reshape(shape)

    def backward(g):
        x._accumulate(g.reshape(x.shape))

    return Tensor._from_op(data, (x,), backward, "reshape")


def swapaxes(x: Tensor, a1: int, a2: int) -> Tensor:
    x = _coerce(x)
    data = np.swapaxes(x.data, a1, a2).copy()

    def backward(g):
        x._accumulate(np.swapaxes(g, a1, a2))

    return Tensor._from_op(data, (x,), backward, "swapaxes")


# -- reductions ---------------------------------------------------------------


def sum_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _coerce(x)
    data = np.sum(x.data, axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            x._accumulate(np.broadcast_to(g, x.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            x._accumulate(np.broadcast_to(gg, x.shape).copy())

    return Tensor._from_op(np.asarray(data), (x,), backward, "sum")


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _coerce(x)
    data = np.mean(x.data, axis=axis, keepdims=keepdims)
    if axis is None:
        count = x.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= x.shape[ax]

    def backward(g):
        if axis is None:
            x._accumulate(np.broadcast_to(g / count, x.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            x._accumulate(np.broadcast_to(gg / count, x.shape).copy())

    return Tensor._from_op(np.asarray(data), (x,), backward, "mean")


# -- gather / scatter ----------------------------------------------------------


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``weight[ids]``; duplicate ids accumulate gradient."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[0]):
        raise ShapeError(f"embedding: id out of range for table of {weight.shape[0]} rows")
    data = weight.data[ids]

    def backward(g):
        if weight.grad is None:
            weight.grad = np.zeros_like(weight.data)
        np.add.at(weight.grad, ids, g)

    return Tensor._from_op(data, (weight,), backward, "embedding")


def gather_last(x: Tensor, idx: np.ndarray) -> Tensor:
    """Pick one entry along the last axis per leading position."""
    x = _coerce(x)
    idx = np.asarray(idx, dtype=np.intp)
    if idx.shape != x.shape[:-1]:
        raise ShapeError(f"gather_last: index shape {idx.shape} vs data {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[-1]):
        raise ShapeError(f"gather_last: index out of range for last axis {x.shape[-1]}")
    data = np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx[..., None], g[..., None], axis=-1)
        x._accumulate(gx)

    return Tensor._from_op(data, (x,), backward, "gather_last")


def scatter_sum(weights: Tensor, ids: np.ndarray, size: int) -> Tensor:
    """Sum ``weights[b, l]`` into output bucket ``ids[b, l]`` per batch row.

    The copy-distribution primitive: attention mass on positions holding the
    same extended-vocabulary id aggregates.
    """
    w = _coerce(weights)
    ids = np.asarray(ids, dtype=np.intp)
    if ids.shape != w.shape:
        raise ShapeError(f"scatter_sum: ids shape {ids.shape} vs weights {w.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        raise ShapeError(f"scatter_sum: id out of range for size {size}")
    nb = w.shape[0]
    data = np.zeros((nb, size), dtype=np.float64)
    rows = np.arange(nb)[:, None]
    np.add.at(data, (rows, ids), w.data)

    def backward(g):
        w._accumulate(g[rows, ids])

    return Tensor._from_op(data, (w,), backward, "scatter_sum")


# -- structured ops -------------------------------------------------------------


def maxout(x: Tensor) -> Tensor:
    """Pairwise max over consecutive pairs of the last axis (2k -> k)."""
    x = _coerce(x)
    n = x.shape[-1]
    if n % 2 != 0:
        raise ShapeError(f"maxout needs an even last axis, got {n}")
    pairs = x.data.reshape(x.shape[:-1] + (n // 2, 2))
    arg = np.argmax(pairs, axis=-1)
    data = np.take_along_axis(pairs, arg[..., None], axis=-1)[..., 0]

    def backward(g):
        gp = np.zeros_like(pairs)
        np.put_along_axis(gp, arg[..., None], g[..., None], axis=-1)
        x._accumulate(gp.reshape(x.shape))

    return Tensor._from_op(data, (x,), backward, "maxout")


def length_mask(lengths: np.ndarray, width: int) -> np.ndarray:
    """Bool [B, width] marking real (non-pad) positions."""
    return np.arange(width)[None, :] < np.asarray(lengths)[:, None]


def lstm_sequence(xs: Tensor, lengths: np.ndarray, w: Tensor, b: Tensor,
                  reverse: bool = False) -> Tensor:
    """One LSTM direction over [B, L, D] as one node; returns H [B, L, h].

    ``w`` is [D + h, 4h] (input rows, then recurrent rows) with gate order
    i, f, g, o, and ``b`` is [4h]. The input projection of every step is one
    product; only ``h @ W_h`` and the gates run per step. A pad step
    (position >= length) carries the previous state, so H at the last step
    (forward) or the first (reverse) is each sample's final state. The
    backward pass is masked backpropagation through time: it collects the
    gate gradients of all steps, then forms the weight, bias and input
    gradients with one product or sum each.
    """
    xs, w, b = _coerce(xs), _coerce(w), _coerce(b)
    nb, nl, dim = xs.shape
    hidden = w.shape[-1] // 4
    if w.shape != (dim + hidden, 4 * hidden):
        raise ShapeError(f"lstm_sequence: weight {w.shape} does not fit input {xs.shape}; "
                         f"needs [D + h, 4h]")
    if b.shape != (4 * hidden,):
        raise ShapeError(f"lstm_sequence: bias {b.shape} does not fit weight {w.shape}")
    w_x, w_h = w.data[:dim], w.data[dim:]
    valid = length_mask(lengths, nl)[:, :, None]
    steps = range(nl - 1, -1, -1) if reverse else range(nl)
    x2d = xs.data.reshape(nb * nl, dim)
    zx = (x2d @ w_x).reshape(nb, nl, 4 * hidden) + b.data
    gates = np.empty((nb, nl, 4 * hidden))   # activated i, f, g, o
    cells = np.empty((nb, nl, hidden))
    out = np.empty((nb, nl, hidden))
    h = np.zeros((nb, hidden))
    c = np.zeros((nb, hidden))
    for t in steps:
        z = zx[:, t] + h @ w_h
        # finite pre-activations keep every gate, cell and state finite
        _check_finite(z, "lstm_sequence")
        a = _sigmoid(z)
        a[:, 2 * hidden:3 * hidden] = np.tanh(z[:, 2 * hidden:3 * hidden])
        i, f, g, o = np.split(a, 4, axis=1)
        c_new = f * c + i * g
        m = valid[:, t]
        c = np.where(m, c_new, c)
        h = np.where(m, o * np.tanh(c_new), h)
        gates[:, t], cells[:, t], out[:, t] = a, c, h

    def before(seq: np.ndarray) -> np.ndarray:
        # the state each step starts from: its predecessor's, zero at the start
        prev = np.zeros_like(seq)
        if reverse:
            prev[:, :-1] = seq[:, 1:]
        else:
            prev[:, 1:] = seq[:, :-1]
        return prev

    def backward(g_out):
        i, f, g, o = np.split(gates, 4, axis=2)
        tc = np.tanh(cells)   # equals tanh of the new cell on real steps
        # partial derivatives of c by the i, f, g pre-activations, of h by the
        # o pre-activation and of h by c; zero on pad steps, which add nothing
        # to the gate gradients
        dc_dz = np.stack([g * i * (1.0 - i), before(cells) * f * (1.0 - f),
                          i * (1.0 - g * g)], axis=2) * valid[:, :, None]
        dh_dzo = tc * o * (1.0 - o) * valid
        dh_dc = o * (1.0 - tc * tc) * valid
        w_h_t = w_h.T
        dz_all = np.empty_like(gates)
        dh = np.zeros((nb, hidden))
        dc = np.zeros((nb, hidden))
        for t in reversed(steps):
            dh = dh + g_out[:, t]
            dc = dc + dh * dh_dc[:, t]
            dz = dz_all[:, t]
            dz[:, :3 * hidden] = (dc_dz[:, t] * dc[:, None, :]).reshape(nb, 3 * hidden)
            dz[:, 3 * hidden:] = dh * dh_dzo[:, t]
            dh = np.where(valid[:, t], dz @ w_h_t, dh)
            # pads end the forward pass and start the reverse one, so a pad
            # step's cell gradient is zero or flows only to the zero start
            dc = dc * f[:, t]
        dz2d = dz_all.reshape(nb * nl, 4 * hidden)
        if xs.requires_grad:
            xs._accumulate((dz2d @ w_x.T).reshape(xs.shape))
        if w.requires_grad:
            h_prev = before(out).reshape(nb * nl, hidden)
            w._accumulate(np.concatenate([x2d.T @ dz2d, h_prev.T @ dz2d]))
        if b.requires_grad:
            b._accumulate(dz2d.sum(axis=0))

    return Tensor._from_op(out, (xs, w, b), backward, "lstm_sequence")


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-rate); identity without an rng."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = _coerce(x)
    if rng is None or rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)

    def backward(g):
        x._accumulate(g * keep)

    return Tensor._from_op(x.data * keep, (x,), backward, "dropout")
