"""Seeded point sampling and deterministic evaluation grids.

All randomness comes from `_PCG64`, O'Neill's PCG64 (XSL-RR 128/64,
https://www.pcg-random.org/paper.html), in Python integer and float
arithmetic. It is seeded as numpy seeds it: SeedSequence hashes the seed's
32-bit words into a pool of 4 and draws 4 64-bit words from it
(`generate_state(4, uint64)`), which give the 128-bit initial state and
stream of PCG's `srandom`. Each draw steps the LCG, then outputs
rotr(high ^ low, state >> 122); a double is (x >> 11)·2**-53, and a uniform
value low + (high - low)·u. So `uniform` reproduces
``np.random.Generator(np.random.PCG64(seed)).uniform(low, high, n)`` bit for
bit, and identical configurations reproduce identical samples byte for byte,
without loading numpy.random. The tests keep numpy as the reference.
"""
from __future__ import annotations

import math
import operator

import numpy as np

from .errors import BadParameter

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier


def _hasher(hash_const: int, multiplier: int):
    """SeedSequence's hashmix on 32-bit words: xor, multiply and xorshift, with
    a constant that is multiplied by `multiplier` on each call."""
    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * multiplier & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16
    return hashmix


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64): the seed's 32-bit words
    hashed into a pool of 4 (words past the fourth mixed in one at a time),
    then drawn out as 8 words, paired little-endian."""
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in (entropy + [0] * 3)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    draw = _hasher(0x8B51F9DD, 0x58F38DED)
    words = [draw(pool[i % 4]) for i in range(8)]
    return [words[2 * k] | words[2 * k + 1] << 32 for k in range(4)]


class _PCG64:
    """numpy's PCG64(seed) stream, for uniform doubles only."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise BadParameter(f"seed must be a non-negative integer, got {seed}")
        s0, s1, i0, i1 = _seed_words(seed)
        # srandom: state 0, step, add the initial state, step
        self._inc = (i0 << 64 | i1) << 1 & _MASK128 | 1
        self._state = ((self._inc + (s0 << 64 | s1)) * _MULTIPLIER + self._inc) & _MASK128

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        """n doubles low + (high - low)·u, u = (x >> 11)·2**-53 for each
        step-then-output XSL-RR draw x."""
        span, state, inc, out = high - low, self._state, self._inc, []
        if not 0.0 <= span < math.inf:  # numpy refuses these too
            raise BadParameter(f"need finite low <= high, got [{low}, {high}]")
        for _ in range(n):
            state = (state * _MULTIPLIER + inc) & _MASK128
            x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
            x = (x >> rot | x << (64 - rot)) & _MASK64
            out.append(low + span * ((x >> 11) * 2.0 ** -53))
        self._state = state
        return np.array(out)


def sample_annular(seed: int, n: int, rmin: float, rmax: float) -> np.ndarray:
    """n seeded points with rmin < |z| < rmax, uniform in (radius, angle)."""
    rng = _PCG64(seed)
    radii = rng.uniform(rmin, rmax, n)
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    return radii * np.exp(1j * angles)


def sample_log_annular(seed: int, n: int, rmin: float, rmax: float) -> np.ndarray:
    """n seeded points with log-uniform radii (resolves a puncture)."""
    rng = _PCG64(seed)
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
