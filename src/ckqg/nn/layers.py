"""LSTM cells, stacked bidirectional encoders, and small layer helpers.

All sequence layers are batched: inputs are [B, L, D] with per-sample
lengths, and each recurrence step blends new state with carried state via a
validity mask so padded positions never contaminate hidden states (the
backward direction in particular must start from each sample's true last
token, not from pad rows).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .params import ParameterSet


def init_uniform(rng: np.random.Generator, shape: tuple[int, ...], scale: float = 0.1) -> np.ndarray:
    return rng.uniform(-scale, scale, size=shape)


def init_lstm(params: ParameterSet, prefix: str, group: str, input_dim: int, hidden: int,
              rng: np.random.Generator) -> None:
    """One LSTM direction: fused gate weights [in+hid, 4h], forget bias +1."""
    w = init_uniform(rng, (input_dim + hidden, 4 * hidden))
    b = np.zeros(4 * hidden)
    b[hidden:2 * hidden] = 1.0
    params.add(f"{prefix}.W", w, group)
    params.add(f"{prefix}.b", b, group)


def init_linear(params: ParameterSet, prefix: str, group: str, in_dim: int, out_dim: int,
                rng: np.random.Generator) -> None:
    params.add(f"{prefix}.W", init_uniform(rng, (in_dim, out_dim)), group)
    params.add(f"{prefix}.b", np.zeros(out_dim), group)


def linear(params: ParameterSet, prefix: str, x: Tensor) -> Tensor:
    return T.add(T.matmul(x, params[f"{prefix}.W"]), params[f"{prefix}.b"])


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor, w: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """Standard LSTM gate equations; gate order i, f, g, o in the fused weight."""
    z = T.add(T.matmul(T.concat([x, h_prev], axis=-1), w), b)
    i, f, g, o = T.split(z, 4, axis=-1)
    i = T.sigmoid(i)
    f = T.sigmoid(f)
    g = T.tanh(g)
    o = T.sigmoid(o)
    c = T.add(T.mul(f, c_prev), T.mul(i, g))
    h = T.mul(o, T.tanh(c))
    return h, c


def length_mask(lengths: np.ndarray, width: int) -> np.ndarray:
    """Bool [B, width] marking real (non-pad) positions."""
    return np.arange(width)[None, :] < np.asarray(lengths)[:, None]


def _masked_carry(new: Tensor, prev: Tensor, m: np.ndarray) -> Tensor:
    # m is [B, 1]: True inside the sample, False on pads
    return T.add(T.mul(new, m), T.mul(prev, 1.0 - m))


def run_lstm(xs: Tensor, lengths: np.ndarray, w: Tensor, b: Tensor,
             reverse: bool = False) -> tuple[Tensor, Tensor, Tensor]:
    """Run one LSTM direction over [B, L, D]; returns (H [B,L,h], h_final, c_final).

    Masked steps keep the previous state, so h_final/c_final hold the state at
    each sample's last real token (forward) or first token (reverse).
    """
    nb, nl, dim = xs.shape
    hidden = w.shape[1] // 4
    h = Tensor(np.zeros((nb, hidden)))
    c = Tensor(np.zeros((nb, hidden)))
    valid = length_mask(lengths, nl)
    xs_t = T.split(xs, nl, axis=1)
    steps = range(nl - 1, -1, -1) if reverse else range(nl)
    outs: list[Tensor | None] = [None] * nl
    for t in steps:
        x_t = T.reshape(xs_t[t], (nb, dim))
        m = valid[:, t:t + 1]
        h_new, c_new = lstm_cell(x_t, h, c, w, b)
        h = _masked_carry(h_new, h, m)
        c = _masked_carry(c_new, c, m)
        outs[t] = h
    return T.stack(outs, axis=1), h, c


def lstm_depth(params: ParameterSet, prefix: str) -> int:
    """Depth of the stack init_bilstm or init_stacked_lstm registered under
    ``prefix``; load_state_dict keeps these names equal to the config's."""
    n = 0
    while f"{prefix}.l{n}.W" in params or f"{prefix}.l{n}.fw.W" in params:
        n += 1
    return n


def init_bilstm(params: ParameterSet, prefix: str, group: str, input_dim: int, hidden: int,
                layers: int, rng: np.random.Generator) -> None:
    for layer in range(layers):
        dim = input_dim if layer == 0 else 2 * hidden
        init_lstm(params, f"{prefix}.l{layer}.fw", group, dim, hidden, rng)
        init_lstm(params, f"{prefix}.l{layer}.bw", group, dim, hidden, rng)


def bilstm(params: ParameterSet, prefix: str, xs: Tensor, lengths: np.ndarray,
           drop_rate: float = 0.0,
           rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Stacked bidirectional LSTM.

    Returns (H [B,L,2h], fw_final [B,h], bw_final [B,h]) where the finals come
    from the top layer. With an rng, dropout applies to each layer's output sequence.
    """
    if xs.shape[1] == 0:
        raise T.ShapeError("bilstm: empty sequence")
    cur = xs
    fw_h = bw_h = None
    for layer in range(lstm_depth(params, prefix)):
        fw_out, fw_h, _ = run_lstm(cur, lengths, params[f"{prefix}.l{layer}.fw.W"],
                                   params[f"{prefix}.l{layer}.fw.b"])
        bw_out, bw_h, _ = run_lstm(cur, lengths, params[f"{prefix}.l{layer}.bw.W"],
                                   params[f"{prefix}.l{layer}.bw.b"], reverse=True)
        cur = T.dropout(T.concat([fw_out, bw_out], axis=-1), drop_rate, rng)
    return cur, fw_h, bw_h


def init_stacked_lstm(params: ParameterSet, prefix: str, group: str, input_dim: int, hidden: int,
                      layers: int, rng: np.random.Generator) -> None:
    for layer in range(layers):
        dim = input_dim if layer == 0 else hidden
        init_lstm(params, f"{prefix}.l{layer}", group, dim, hidden, rng)


def stacked_lstm_step(params: ParameterSet, prefix: str, x: Tensor,
                      states: list[tuple[Tensor, Tensor]],
                      drop_rate: float = 0.0, rng: np.random.Generator | None = None
                      ) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
    """One time step through a stacked unidirectional LSTM (decoder use)."""
    layers = lstm_depth(params, prefix)
    new_states = []
    cur = x
    for layer in range(layers):
        h, c = lstm_cell(cur, states[layer][0], states[layer][1],
                         params[f"{prefix}.l{layer}.W"], params[f"{prefix}.l{layer}.b"])
        new_states.append((h, c))
        cur = h
        if layer < layers - 1:
            cur = T.dropout(cur, drop_rate, rng)
    return cur, new_states
