"""Limit estimation from finite sample sequences.

Limit statements are operationalized as convergence checks along sequences
(typically |z| = 10^-k). Two error profiles occur:

  * geometric errors (consecutive differences shrinking by a factor >= 2),
    handled by Aitken delta-squared acceleration on the last three samples;
  * harmonic errors ~ 1/log(1/|z|), for which Aitken is ineffective and
    Richardson (polynomial extrapolation to 0 in the natural small variable,
    e.g. x = 1/log(1/|z|)) is used instead.

extrapolate() picks between the two from the observed difference ratios.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def aitken(values: Sequence[float]) -> float:
    """Aitken delta-squared acceleration using the last three values."""
    v = np.asarray(values, dtype=float)
    v0, v1, v2 = v[-3], v[-2], v[-1]
    denom = v2 - 2.0 * v1 + v0
    if denom == 0.0:
        return float(v2)
    return float(v2 - (v2 - v1) ** 2 / denom)


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
    method: str          # "aitken" | "richardson" | "last"
    trend_ok: bool
    raw_last: float


def extrapolate(values: Sequence[float], xs: Sequence[float]) -> LimitEstimate:
    """Estimate the limit of a sample sequence.

    xs is the natural small variable of each sample (tending to 0), used for
    Richardson extrapolation when the differences do not shrink
    geometrically.
    """
    v = np.asarray(values, dtype=float)
    finite = v[np.isfinite(v)]
    if finite.size == 0:
        return LimitEstimate(float("nan"), "last", False, float("nan"))
    if finite.size < 3:
        return LimitEstimate(float(finite[-1]), "last", False, float(finite[-1]))
    trend = diffs_shrinking(finite)
    d = np.abs(np.diff(finite))
    geometric = d[-2] > 0 and (d[-1] / d[-2]) <= 0.55
    if geometric:
        return LimitEstimate(aitken(finite), "aitken", trend, float(finite[-1]))
    x = np.asarray(xs, dtype=float)[np.isfinite(v)]
    return LimitEstimate(neville(x[-3:], finite[-3:]), "richardson", trend, float(finite[-1]))
