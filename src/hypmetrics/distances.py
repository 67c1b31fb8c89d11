"""Hyperbolic distances for the model domains (curvature -4 normalization).

With the curvature -4 convention every distance is half the classical
curvature -1 value; the factor is centralized in HALF below.

Closed forms:

    disk        d(z1,z2) = (1/2) log((1+rho)/(1-rho)),
                rho = |(z1-z2)/(1 - conj(z1) z2)|
    half-plane  d(w1,w2) = (1/2) arccosh(1 + |w1-w2|^2/(2 Im w1 Im w2))

arccosh(1 + q) is evaluated as 2 asinh(sqrt(q/2)), exact for small q.
sqrt(q/2) is formed without squares: |w1-w2| / (2 sqrt(Im w1) sqrt(Im w2))
in the half-plane, and |z1-z2| / sqrt((1-|z1|^2)(1-|z2|^2)) in the disk,
where rho would round to 1 near the edge.

The half-plane and strip forms carry each factor as a pair (m, e) with
x = m 2^e, m from math.frexp, so that no product, quotient, square root or
sum of squares leaves the double range: each step is the plain step on the
mantissas, with the exponents added apart. Scaling by 2^e is exact, so a
value whose plain arithmetic stays in the normal range keeps its bits; the
squares are taken of plain values wherever they are normal, since x**2 is
not scale-invariant. Past the double range asinh x is log 2x, and a strip
distance past it raises NumericOverflow. Where Re(z1 - z2) overflows, half
of it is carried, with an exponent shift of 1.

The punctured disk and annulus are handled by lifting through the covering
zeta -> e^(i zeta): the punctured disk lifts to the upper half-plane
(zeta = arg z + i log(1/|z|)), the annulus A_r to the strip
{0 < Im zeta < log(1/r)}. Distances are minimized over the deck
translations zeta -> zeta + 2 pi k, and the minimizing k is recorded. Lifts
take arg z in (-pi, pi], so the real separation x of two lifts satisfies
|x| < 2 pi, and both lifted distances increase with |x - 2 pi k|; the
minimum is therefore attained at some k in {-1, 0, 1}, and only those three
translations are evaluated. Nearby points take the separation of their
lifts from their quotient (see _lifts), so it keeps its digits.

Every distance checks its points with DomainModel.check, so non-finite and
outside points raise OutsideDomain.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .domains import DomainModel
from .errors import NumericOverflow

HALF = 0.5  # curvature -4 normalization: half of the curvature -1 distance
_LN2 = math.log(2.0)
_SMALL = -510  # below 2^-510, sin u = sinh u = u, and a product of two leaves the normal range
SWEEP_N = 720  # angles of the circle sweep in circle_max, before refinement

_DISK = DomainModel.disk()
_PUNCTURED_DISK = DomainModel.punctured_disk()
_HALF_PLANE = DomainModel.half_plane()


class DistanceMethod(Enum):
    CLOSED_FORM = "closed_form"
    LIFT_MINIMIZATION = "lift_minimization"
    GRID_ORACLE = "grid_oracle"


@dataclass(frozen=True)
class DistanceResult:
    value: float
    method: DistanceMethod
    deck_index: Optional[int] = None


def dist_disk(z1, z2) -> DistanceResult:
    """Hyperbolic distance in the unit disk."""
    z1, z2 = _DISK.check(z1), _DISK.check(z2)
    r1, r2 = abs(z1), abs(z2)
    scale = math.sqrt((1.0 - r1) * (1.0 + r1) * (1.0 - r2) * (1.0 + r2))
    return DistanceResult(HALF * 2.0 * math.asinh(abs(z1 - z2) / scale),
                          DistanceMethod.CLOSED_FORM)


def _split(x: float, e: int = 0) -> tuple[float, int]:
    """x 2^e as (m, e) with 1/2 <= |m| < 1, or m = 0."""
    m, ex = math.frexp(x)
    return m, ex + e


def _sqrt(m: float, e: int) -> tuple[float, int]:
    """sqrt(m 2^e), an even exponent taken out first, so that it rounds as sqrt."""
    return math.sqrt(math.ldexp(m, e & 1)), e >> 1


def _asinh(m: float, e: int) -> float:
    """asinh(m 2^e) for m >= 0; past the double range, where asinh x = log 2x,
    from the log of each part."""
    m, ex = math.frexp(m)
    e += ex
    if e <= 1024 or not m:
        return math.asinh(math.ldexp(m, e))
    return math.log(2.0 * m) + e * _LN2


def _scaled(z: complex) -> tuple[complex, int]:
    """z as (c, e) with z = c 2^e, the larger part of c in [1/2, 1)."""
    e = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    return complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)), e


def _gap(z1: complex, z2: complex) -> tuple[complex, int]:
    """z1 - z2 as (dz, shift) with z1 - z2 = dz 2^shift: where the difference
    overflows, half of it."""
    dz = z1 - z2
    return (0.5 * z1 - 0.5 * z2, 1) if cmath.isinf(dz) else (dz, 0)


def _halfplane_value(dws: list[complex], y1: float, y2: float, shift: int = 0) -> list[float]:
    """Distances between half-plane points at heights y1, y2 that differ by
    dw 2^shift, one for each dw in dws; the heights' factors are taken once."""
    (s1, e1), (s2, e2) = _sqrt(*math.frexp(y1)), _sqrt(*math.frexp(y2))
    s, es = s1 * s2, shift - e1 - e2 - 1
    values = []
    for dw in dws:
        c, e = _scaled(dw)
        values.append(HALF * 2.0 * _asinh(abs(c) / s, e + es))
    return values


def dist_halfplane(w1, w2) -> DistanceResult:
    """Hyperbolic distance in the upper half-plane (density 1/(2 Im w))."""
    w1, w2 = _HALF_PLANE.check(w1), _HALF_PLANE.check(w2)
    dw, shift = _gap(w1, w2)
    return DistanceResult(_halfplane_value([dw], w1.imag, w2.imag, shift)[0],
                          DistanceMethod.CLOSED_FORM)


def _strip_value(dzs: list[complex], y1: float, y2: float, h: float,
                 shift: int = 0) -> list[float]:
    """Distances between points at heights y1, y2 that differ by dz 2^shift in
    the strip {0 < Im z < h}, one for each dz in dzs, via the exponential map
    to H; the heights' factors are taken once.

    Written in terms of differences so that widely separated lifts do not
    overflow: with a = pi Re z / h, b = pi Im z / h,

        cosh(2d) = 1 + (2 sinh^2((a1-a2)/2) + 2 sin^2((b1-b2)/2)) / (sin b1 sin b2),

    the numerator being cosh(a1-a2) - cos(b1-b2) without its cancellation.
    Where |a1 - a2| > 300, cosh(2d) ~ e^|a1-a2| / (2 sin b1 sin b2).
    """
    mh, eh = math.frexp(h)

    def sine(y: float) -> tuple[float, int]:  # sin(pi y / h)
        m, e = _split(y, -eh)
        b = math.pi * m / mh
        return (math.sin(math.ldexp(b, e)), 0) if e > _SMALL else (b, e)

    (s1, e1), (s2, e2) = sine(y1), sine(y2)
    sb, eb = s1 * s2, e1 + e2
    ms, es = _split(sb, eb)
    values = []
    for dz in dzs:
        c, e = _scaled(dz)
        u, v, k = math.pi * c.real / mh, math.pi * c.imag / mh, e + shift - eh - 1
        # (a1-a2)/2 and (b1-b2)/2 are u 2^k and v 2^k
        ma, ea = _split(u, k + 1)  # a1 - a2; from 2^10 on it exceeds 300 whatever ma is
        if math.ldexp(abs(ma), min(ea, 10)) > 300.0:
            half_da = math.ldexp(abs(ma), ea - 1) if ea <= 1025 else math.inf
            values.append(half_da - HALF * (math.log(sb) + eb * _LN2))
            continue
        if k > _SMALL:
            u, v, k = math.sinh(math.ldexp(u, k)), math.sin(math.ldexp(v, k)), 0
        mn, en = _split(u ** 2 + v ** 2, 2 * k)
        values.append(HALF * 2.0 * _asinh(*_sqrt(mn / ms, en - es)))
    return values


def dist_strip(z1, z2, h: float) -> DistanceResult:
    """Hyperbolic distance in the strip {0 < Im z < h}; NumericOverflow where
    it is past the double range."""
    dom = DomainModel.strip(h)
    z1, z2 = dom.check(z1), dom.check(z2)
    dz, shift = _gap(z1, z2)
    [value] = _strip_value([dz], z1.imag, z2.imag, h, shift)
    if value == math.inf:
        raise NumericOverflow(f"distance from z={z1} to z={z2} in {dom.label()} "
                              "is not finite in double precision")
    return DistanceResult(value, DistanceMethod.CLOSED_FORM)

def _lifts(z1: complex, z2: complex) -> tuple[complex, int, float, float]:
    """The lifts zeta = arg z + i log(1/|z|), arg z in (-pi, pi], of z1 and z2
    as (dw, j, y1, y2): zeta2 - zeta1 = dw + 2 pi j and y = Im zeta.

    Nearby points (|d| <= 1/2, d = (z2 - z1)/z1) take dw from d, as
    arg(1 + d) - i log|1 + d|, so it keeps its digits (each lift on its own
    rounds arg z to ~ulp(pi)); j counts the turns of the branch cut between
    them. Far points take dw from the lifts, with j = 0.
    """
    y1, y2 = -math.log(abs(z1)), -math.log(abs(z2))
    darg = math.atan2(z2.imag, z2.real) - math.atan2(z1.imag, z1.real)
    d = (z2 - z1) / z1
    if abs(d) > 0.5:
        return complex(darg, y2 - y1), 0, y1, y2
    near = math.atan2(d.imag, 1.0 + d.real)
    dw = complex(near, -0.5 * math.log1p(2.0 * d.real + abs(d) ** 2))
    return dw, round((darg - near) / (2.0 * math.pi)), y1, y2


def _deck_minimize(values: list[float]) -> tuple[float, int]:
    """The least of a lifted distance's values at the deck translations
    2 pi k, k = -1, 0, 1, and its k; ties go to the first of them, the
    smallest k. Only those k can attain the minimum (see the module
    docstring)."""
    least = min(values)
    return least, values.index(least) - 1


def dist_punctured_disk(z1, z2) -> DistanceResult:
    """Distance in the punctured unit disk via the half-plane lift."""
    return _dist_punctured(_PUNCTURED_DISK, z1, z2)


def _dist_punctured(dom: DomainModel, z1, z2) -> DistanceResult:
    """Distance in the punctured disk dom = {0 < |z| < R} via the half-plane
    lift zeta + i log R, so that no point is scaled by 1/R (R = 1e300 sends
    z = 1e-300 to 0)."""
    z1, z2 = dom.check(z1), dom.check(z2)
    dw, j, y1, y2 = _lifts(z1, z2)
    log_r = math.log(dom.hi)
    y1, y2 = log_r + y1, log_r + y2  # exact for R = 1: 0.0 + y = y
    gaps = [dw + 2.0 * math.pi * (j + k) for k in (-1, 0, 1)]
    value, k = _deck_minimize(_halfplane_value(gaps, y1, y2))
    return DistanceResult(value, DistanceMethod.LIFT_MINIMIZATION, k)


def dist_annulus(z1, z2, r: float) -> DistanceResult:
    """Distance in the annulus {r < |z| < 1} via the strip lift."""
    dom = DomainModel.annulus(r)
    z1, z2 = dom.check(z1), dom.check(z2)
    s = math.log(1.0 / r)
    dw, j, y1, y2 = _lifts(z1, z2)
    gaps = [dw + 2.0 * math.pi * (j + k) for k in (-1, 0, 1)]
    value, k = _deck_minimize(_strip_value(gaps, y1, y2, s))
    return DistanceResult(value, DistanceMethod.LIFT_MINIMIZATION, k)


def covering_decay_ratio(z) -> float:
    """The ratio e^(-2 d_D(z,0)) / (1 - |z|), which equals 1/(1+|z|).

    Along any sequence |z| -> 1 the ratio tends to 1/2; this is the
    covering-decay normalization relating the hyperbolic error scale
    e^(-2d) to the Euclidean boundary gap.
    """
    z = _DISK.check(z)
    d = dist_disk(z, 0.0).value
    return math.exp(-2.0 * d) / (1.0 - abs(z))


def _golden_max(f, a: float, b: float) -> float:
    """Golden-section search for the maximum of f on [a, b], to width 1e-8."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > 1e-8:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return f(0.5 * (a + b))


def circle_max(sweep, at) -> float:
    """Maximum over a circle of a function of the angle theta.

    sweep(thetas) gives its values at SWEEP_N equally spaced angles from 0,
    at(theta) its value at one angle; the best sweep angle is refined by
    golden-section search within one sweep step either side, and the larger
    of the two maxima is returned (ties go to the sweep value).
    """
    thetas = np.linspace(0.0, 2.0 * math.pi, SWEEP_N, endpoint=False)
    vals = sweep(thetas)
    i = int(np.argmax(vals))
    width = 2.0 * math.pi / SWEEP_N
    return max(float(vals[i]), _golden_max(at, thetas[i] - width, thetas[i] + width))


def comparability_constants(q) -> tuple[float, float, float]:
    """Comparability constants (c1, c2, gamma) for the punctured disk.

    gamma is the maximum over |w| = |q| of the punctured-disk distance from w
    to q, found by circle_max;
    then c1 = |log|q|| e^(-2 gamma) and c2 = |log|q|| + pi. These sandwich
    log(1/|z|) e^(-2 d(z,q)) between c1 and c2 for all 0 < |z| < 1.
    """
    q = _PUNCTURED_DISK.check(q)
    aq = abs(q)
    base = math.atan2(q.imag, q.real)

    def d_at(theta: float) -> float:
        w = aq * complex(math.cos(base + theta), math.sin(base + theta))
        return dist_punctured_disk(w, q).value

    gamma = circle_max(lambda thetas: [d_at(t) for t in thetas], d_at)
    logq = abs(math.log(aq))
    return logq * math.exp(-2.0 * gamma), logq + math.pi, gamma
