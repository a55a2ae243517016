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


def bilstm(params: ParameterSet, prefix: str, xs: Tensor, lengths: np.ndarray
           ) -> tuple[Tensor, Tensor, Tensor]:
    """Stacked bidirectional LSTM.

    Returns (H [B,L,2h], fw_final [B,h], bw_final [B,h]) where the finals come
    from the top layer of the ``params.layers`` deep stack. Inside
    ``T.training()`` dropout applies to each layer's output sequence.
    """
    if xs.shape[1] == 0:
        raise T.ShapeError("bilstm: empty sequence")
    cur = xs
    for layer in range(params.layers):
        fw_out = T.lstm_sequence(cur, lengths, params[f"{prefix}.l{layer}.fw.W"],
                                 params[f"{prefix}.l{layer}.fw.b"])
        bw_out = T.lstm_sequence(cur, lengths, params[f"{prefix}.l{layer}.bw.W"],
                                 params[f"{prefix}.l{layer}.bw.b"], reverse=True)
        cur = T.dropout(T.concat([fw_out, bw_out], axis=-1))
    # pad steps carry the state, so the last step (forward) and the first
    # (reverse) hold each sample's state after all of its real tokens
    nb, nl, hidden = fw_out.shape
    fw_h = T.gather_last(T.swapaxes(fw_out, 1, 2), np.full((nb, hidden), nl - 1))
    bw_h = T.gather_last(T.swapaxes(bw_out, 1, 2), np.full((nb, hidden), 0))
    return cur, fw_h, bw_h


def stacked_lstm_step(params: ParameterSet, prefix: str, x: Tensor,
                      states: list[tuple[Tensor, Tensor]]
                      ) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
    """One time step through a stacked unidirectional LSTM (decoder use), one
    layer per entry of ``states``. Inside ``T.training()`` dropout applies
    between layers."""
    layers = len(states)
    new_states = []
    cur = x
    for layer in range(layers):
        h, c = lstm_cell(cur, states[layer][0], states[layer][1],
                         params[f"{prefix}.l{layer}.W"], params[f"{prefix}.l{layer}.b"])
        new_states.append((h, c))
        cur = h
        if layer < layers - 1:
            cur = T.dropout(cur)
    return cur, new_states
