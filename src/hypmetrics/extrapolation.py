"""Limit estimation from finite sample sequences.

Limit statements are operationalized as convergence checks along sequences
that tend to the limit point. There is one method: Richardson extrapolation,
Neville's quadratic through the last three finite samples, taken to 0 in the
small variable each caller passes. Each caller's variable is the one its
error is a power series in, so the quadratic removes the first two terms:

  * 1 - x at the sample point x for the phi, disk and annulus witnesses,
    whose functionals are smooth in 1 - x up to x = 1;
  * 1/log(1/|z|) for example1, the Hopf limits and the dichotomy, whose
    errors go as powers of 1/log(1/|z|): a delta-squared step on the
    values alone, blind to the variable, leaves example1 0.029 off its
    limit where this step leaves 1.5e-4.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def neville(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Neville polynomial extrapolation of (xs, ys) to x = 0."""
    t = [float(y) for y in ys]
    xs = [float(x) for x in xs]
    n = len(t)
    for m in range(1, n):
        for i in range(n - m):
            t[i] = (xs[i] * t[i + 1] - xs[i + m] * t[i]) / (xs[i] - xs[i + m])
    return t[0]


def diffs_shrinking(values: Sequence[float]) -> bool:
    """True when the last three consecutive differences do not grow."""
    tail = np.abs(np.diff(np.asarray(values, dtype=float)))[-3:]
    return bool(np.all(tail[1:] <= tail[:-1] + 1e-300))


@dataclass(frozen=True)
class LimitEstimate:
    value: float
    method: str          # "richardson" | "last"
    trend_ok: bool
    raw_last: float


def extrapolate(values: Sequence[float], xs: Sequence[float]) -> LimitEstimate:
    """Estimate the limit of a sample sequence by Richardson extrapolation.

    xs is the small variable of each sample (tending to 0). Fewer than three
    finite samples give the last finite one (method "last", no trend).
    """
    v = np.asarray(values, dtype=float)
    finite = v[np.isfinite(v)]
    if finite.size == 0:
        return LimitEstimate(float("nan"), "last", False, float("nan"))
    if finite.size < 3:
        return LimitEstimate(float(finite[-1]), "last", False, float(finite[-1]))
    x = np.asarray(xs, dtype=float)[np.isfinite(v)]
    return LimitEstimate(neville(x[-3:], finite[-3:]), "richardson",
                         diffs_shrinking(finite), float(finite[-1]))
