"""Finite-difference validation of analytic gradients.

Central differences in double precision with a configurable eps. Per
coordinate the reported error is |a - n| / max(|a|, |n|, 1): relative for
O(1)-and-larger gradients, with a unit floor so coordinates whose true
gradient is near zero are judged on absolute error instead of amplifying
finite-difference noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import NumericsError, Tensor


@dataclass
class GradCheckReport:
    max_rel_err: float = 0.0
    worst_param: str = ""
    worst_index: tuple = ()
    checked: int = 0

    def __str__(self) -> str:
        return (f"max rel err {self.max_rel_err:.3e} at {self.worst_param}{self.worst_index} "
                f"({self.checked} coordinates)")


def grad_check(f, named_params: list[tuple[str, Tensor]], eps: float = 1e-4,
               samples_per_tensor: int = 5,
               rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare analytic gradients of the scalar ``f()`` against central differences.

    ``f`` must be a deterministic re-runnable forward pass (dropout off);
    every call rebuilds the graph from the current parameter values. For each
    tensor up to ``samples_per_tensor`` coordinates are sampled.
    """
    rng = rng or np.random.default_rng(0)
    for _, p in named_params:
        p.grad = None
    loss = f()
    if not np.isfinite(loss.data).all():
        raise NumericsError("grad_check: non-finite loss")
    loss.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in named_params}

    report = GradCheckReport()
    for name, p in named_params:
        n = p.data.size
        k = min(samples_per_tensor, n)
        flat_ids = rng.choice(n, size=k, replace=False)
        for fid in flat_ids:
            idx = np.unravel_index(fid, p.data.shape)
            orig = p.data[idx]
            p.data[idx] = orig + eps
            f_plus = float(f().data)
            p.data[idx] = orig - eps
            f_minus = float(f().data)
            p.data[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(analytic[name][idx])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            report.checked += 1
            if err > report.max_rel_err:
                report.max_rel_err = err
                report.worst_param = name
                report.worst_index = idx
    return report
