"""Named trainable parameters partitioned into freezable groups.

Two groups exist: ``qg_core`` (embeddings, QG encoder/decoder, self-attention,
readout, copy gate) and ``knowledge`` (triple encoders, co-attention
classifier, tail-concept decoder, knowledge-attention projections). Group
membership is fixed when a parameter is registered and drives the iterative
training framework's freezing. The set also records the depth of every LSTM
stack it holds, so layers read it instead of probing parameter names.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .tensor import Tensor

GROUPS = ("qg_core", "knowledge")


def initial_value(init: str, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """First value of one parameter: ``uniform`` draws U(-0.1, 0.1) from rng;
    ``zeros`` and ``lstm_bias`` (fused i, f, g, o gate biases with the forget
    quarter at 1) draw nothing."""
    if init == "uniform":
        return rng.uniform(-0.1, 0.1, size=shape)
    data = np.zeros(shape)
    if init == "lstm_bias":
        quarter = shape[0] // 4
        data[quarter:2 * quarter] = 1.0
    elif init != "zeros":
        raise ValueError(f"unknown initializer '{init}'")
    return data


class ParameterSet:
    def __init__(self, layers: int):
        self.layers = layers
        self._params: dict[str, Tensor] = {}
        self._groups: dict[str, str] = {}

    def add(self, name: str, data: np.ndarray, group: str) -> Tensor:
        if group not in GROUPS:
            raise ValueError(f"unknown parameter group '{group}'")
        if name in self._params:
            raise ValueError(f"parameter '{name}' already registered")
        t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        self._groups[name] = group
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self, group: str | None = None) -> list[str]:
        if group is None:
            return list(self._params)
        return [n for n, g in self._groups.items() if g == group]

    def items(self, group: str | None = None):
        for n in self.names(group):
            yield n, self._params[n]

    def group_of(self, name: str) -> str:
        return self._groups[name]

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        missing = set(self._params) - set(state)
        extra = set(state) - set(self._params)
        if missing or extra:
            raise ValueError(f"state dict mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for n, arr in state.items():
            t = self._params[n]
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ValueError(f"shape mismatch for '{n}': {arr.shape} vs {t.data.shape}")
            t.data = arr.copy()

    def group_hash(self, group: str) -> str:
        """Content hash of one group, for freezing invariants."""
        h = hashlib.sha256()
        for n in sorted(self.names(group)):
            h.update(n.encode())
            h.update(self._params[n].data.tobytes())
        return h.hexdigest()

    def grad_norm(self) -> float:
        total = 0.0
        for t in self._params.values():
            if t.grad is not None:
                total += float(np.sum(t.grad * t.grad))
        return float(np.sqrt(total))

    def clip_grads(self, max_norm: float) -> float:
        """Global L2 clipping over all parameters; returns the pre-clip norm."""
        norm = self.grad_norm()
        if norm > max_norm > 0.0:
            scale = max_norm / norm
            for t in self._params.values():
                if t.grad is not None:
                    t.grad *= scale
        return norm
