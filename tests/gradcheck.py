"""Central-difference gradient oracle: checks hand-written reverse mode against
finite differences of the loss alone."""

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np


@dataclass
class GradCheckReport:
    checked: int
    max_rel_err: float
    tol: float
    failures: list[tuple[str, tuple[int, ...], float, float, float]]

    @property
    def ok(self) -> bool:
        return not self.failures


def grad_check(
    loss_fn: Callable[[Mapping[str, np.ndarray]], tuple[float, Mapping[str, np.ndarray]]],
    params: Mapping[str, np.ndarray],
    tol: float = 1e-4,
    samples_per_tensor: int = 4,
    step: float = 1e-5,
    seed: int = 0,
) -> GradCheckReport:
    """Central-difference verification of analytic gradients.

    ``loss_fn(params)`` must return (loss, grads) computed from the live
    arrays in ``params``; coordinates are perturbed in place and restored.
    """
    _, grads = loss_fn(params)
    rng = np.random.default_rng(seed)
    checked = 0
    max_rel = 0.0
    failures = []
    for name in sorted(params):
        arr = params[name]
        size = arr.size
        n_samples = min(samples_per_tensor, size)
        picks = rng.choice(size, size=n_samples, replace=False)
        for flat_idx in picks:
            orig = arr.flat[flat_idx]
            arr.flat[flat_idx] = orig + step
            loss_plus, _ = loss_fn(params)
            arr.flat[flat_idx] = orig - step
            loss_minus, _ = loss_fn(params)
            arr.flat[flat_idx] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            analytic = float(grads[name].flat[flat_idx])
            rel = abs(analytic - numeric) / max(1.0, abs(analytic))
            checked += 1
            max_rel = max(max_rel, rel)
            if rel >= tol:
                idx = np.unravel_index(flat_idx, arr.shape)
                failures.append((name, tuple(int(i) for i in idx), analytic, numeric, rel))
    return GradCheckReport(checked=checked, max_rel_err=max_rel, tol=tol, failures=failures)
