"""Adam optimizer over a ParameterSet.

A parameter is updated exactly when it holds a gradient, so freezing is by
construction: one that no loss reaches in a step (the knowledge group in a
Pure step, ``rc.out`` under ``--no-rc``) keeps its weights, moments and own
step counter, which keeps bias correction self-consistent when it resumes.
"""

from __future__ import annotations

import numpy as np

from .params import ParameterSet


class Adam:
    def __init__(self, params: ParameterSet, lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, int] = {}

    def step(self) -> None:
        """Update every parameter that holds a gradient; leave the rest as they are."""
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
                self.t[name] = 0
            self.t[name] += 1
            t = self.t[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
