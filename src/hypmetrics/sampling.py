"""Seeded point sampling and deterministic evaluation grids.

All randomness goes through numpy's PCG64 generator with an explicit seed,
so identical configurations reproduce identical samples byte for byte.
"""
from __future__ import annotations

import math

import numpy as np


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def sample_annular(seed: int, n: int, rmin: float, rmax: float) -> np.ndarray:
    """n seeded points with rmin < |z| < rmax, uniform in (radius, angle)."""
    rng = rng_for(seed)
    radii = rng.uniform(rmin, rmax, n)
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    return radii * np.exp(1j * angles)


def sample_log_annular(seed: int, n: int, rmin: float, rmax: float) -> np.ndarray:
    """n seeded points with log-uniform radii (resolves a puncture)."""
    rng = rng_for(seed)
    radii = np.exp(rng.uniform(math.log(rmin), math.log(rmax), n))
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    return radii * np.exp(1j * angles)


def cartesian_grid(n: int, half_width: float = 0.99) -> np.ndarray:
    """n x n grid on [-w, w]^2 (outer loop Re, inner loop Im)."""
    xs = np.linspace(-half_width, half_width, n)
    return (xs[:, None] + 1j * xs[None, :]).ravel()


def polar_grid(n: int, rmin: float, rmax: float) -> np.ndarray:
    """n x n polar grid, log-spaced radii (outer loop radius, inner loop angle)."""
    radii = np.geomspace(rmin, rmax, n)
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return (radii[:, None] * np.exp(1j * angles[None, :])).ravel()
