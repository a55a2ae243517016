"""Adam optimizer over a ParameterSet.

A parameter is updated exactly when it holds a gradient, so freezing is by
construction: one that no loss reaches in a step (the knowledge group in a
Pure step, ``rc.out`` under ``--no-rc``) keeps its weights, moments and own
step counter, which keeps bias correction self-consistent when it resumes.
"""

from __future__ import annotations

import numpy as np

from .params import ParameterSet


BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params: ParameterSet, lr: float = 1e-3):
        self.params = params
        self.lr = lr
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
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / (1.0 - BETA1 ** t)
            v_hat = v / (1.0 - BETA2 ** t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
