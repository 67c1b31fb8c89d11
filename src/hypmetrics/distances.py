"""Hyperbolic distances for the model domains (curvature -4 normalization).

With the curvature -4 convention every distance is half the classical
curvature -1 value; the factor is centralized in HALF below.

Closed forms:

    disk        d(z1,z2) = (1/2) log((1+rho)/(1-rho)),
                rho = |(z1-z2)/(1 - conj(z1) z2)|
    half-plane  d(w1,w2) = (1/2) arccosh(1 + |w1-w2|^2/(2 Im w1 Im w2))

arccosh(1 + q) is evaluated as 2 asinh(sqrt(q/2)), exact for small q.
sqrt(q/2) is formed without squares, so that it neither overflows nor
underflows: |w1-w2| / (2 sqrt(Im w1) sqrt(Im w2)) in the half-plane, and
|z1-z2| / sqrt((1-|z1|^2)(1-|z2|^2)) in the disk, where rho would round to
1 near the edge. Only where a difference or that quotient still leaves the
double range (points ~1e308 apart, or heights near 5e-324) is asinh x taken
as log 2x from the logs of the factors, so a value that the plain form
gives finite keeps its bits. A strip distance past the double range raises
NumericOverflow. Where a product or a quotient falls below the normal range
(heights near 5e-324, or nearly coincident strip points), the half-plane
value is taken at 2^600 times the points, and the strip value from the
factors' exponents apart (_strip_extended).

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
_TINY = 2.0 ** -1022  # the least normal double
_SCALE = 2.0 ** 600  # an exact scale, with the exact square root 2^300
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


def _asinh_quotient(num: float, s1: float, s2: float) -> float:
    """asinh(num / (sqrt(s1) sqrt(s2))) for num >= 0 and s1, s2 > 0; past the
    double range the quotient x is kept as logs, where asinh x = log 2x."""
    x = num / (math.sqrt(s1) * math.sqrt(s2))
    if x < math.inf:
        return math.asinh(x)
    return math.log(2.0) + math.log(num) - 0.5 * (math.log(s1) + math.log(s2))


def _halfplane_value(dw: complex, y1: float, y2: float) -> float:
    """Distance between half-plane points at heights y1, y2 that differ by dw."""
    p = 2.0 * math.sqrt(y1) * math.sqrt(y2)
    if p < _TINY and abs(dw) < 2.0 ** 400:  # subnormal: take the points 2^600 times as far out
        dw, y1, y2 = _SCALE * dw, _SCALE * y1, _SCALE * y2
        p = 2.0 * math.sqrt(y1) * math.sqrt(y2)
    x = abs(dw) / p
    if x < math.inf:
        return HALF * 2.0 * math.asinh(x)
    return HALF * 2.0 * _asinh_quotient(0.5 * abs(dw), y1, y2)


def dist_halfplane(w1, w2) -> DistanceResult:
    """Hyperbolic distance in the upper half-plane (density 1/(2 Im w))."""
    w1, w2 = _HALF_PLANE.check(w1), _HALF_PLANE.check(w2)
    dw = w1 - w2
    if cmath.isinf(dw):  # |w1 - w2| overflows, and half of it does not
        value = HALF * 2.0 * _asinh_quotient(abs(0.5 * w1 - 0.5 * w2), w1.imag, w2.imag)
    else:
        value = _halfplane_value(dw, w1.imag, w2.imag)
    return DistanceResult(value, DistanceMethod.CLOSED_FORM)


def _strip_value(dz: complex, y1: float, y2: float, h: float) -> float:
    """Distance between points at heights y1, y2 that differ by dz, in the
    strip {0 < Im z < h}, via the exponential map to H.

    Written in terms of differences so that widely separated lifts do not
    overflow: with a = pi Re z / h, b = pi Im z / h,

        cosh(2d) = 1 + (2 sinh^2((a1-a2)/2) + 2 sin^2((b1-b2)/2)) / (sin b1 sin b2),

    the numerator being cosh(a1-a2) - cos(b1-b2) without its cancellation.
    Where a1 - a2 overflows, or sin b1 sin b2 underflows to 0, or q
    overflows, the logs of the factors are taken apart: sqrt(q/2) is
    |sinh((dz pi/h)/2)| / sqrt(sin b1 sin b2). Where pi Im z overflows, or
    a factor falls below the normal range, _strip_extended takes over.
    """
    da = math.pi * dz.real / h
    db = math.pi * dz.imag / h  # not b1 - b2, which rounds both
    py1, py2 = math.pi * y1, math.pi * y2
    if not (_TINY <= min(py1, py2) and max(py1, py2) < math.inf):
        return _strip_extended(dz, y1, y2, h)
    s1, s2 = math.sin(py1 / h), math.sin(py2 / h)
    sb = s1 * s2
    if min(s1, s2) < _TINY or 0.0 < sb < _TINY:
        return _strip_extended(dz, y1, y2, h)
    if abs(da) > 300.0:
        # cosh(da) ~ e^|da|/2; arccosh(1+x) ~ log(2x) for huge x
        if sb > 0.0 and abs(da) < math.inf:
            return HALF * (abs(da) - math.log(sb))
        return HALF * math.pi * (abs(dz.real) / h) - HALF * (math.log(s1) + math.log(s2))
    if sb > 0.0:
        q = 2.0 * (math.sinh(0.5 * da) ** 2 + math.sin(0.5 * db) ** 2) / sb
        if q < _TINY:
            return _strip_extended(dz, y1, y2, h)
        if q < math.inf:
            return HALF * 2.0 * math.asinh(math.sqrt(q / 2.0))
    num = math.hypot(math.sinh(0.5 * da), math.sin(0.5 * db))
    if num < _TINY:
        return _strip_extended(dz, y1, y2, h)
    return HALF * 2.0 * _asinh_quotient(num, s1, s2)


def _strip_extended(dz: complex, y1: float, y2: float, h: float) -> float:
    """_strip_value where pi Im z overflows, or a factor of the closed form
    falls below the normal range: each factor is kept as m 2^e, with the
    mantissa m from math.frexp and the exponent e apart, and sin u and
    sinh u are u below |u| ~ 6e-9, where they agree to double precision."""
    mh, eh = math.frexp(h)

    def factor(f, t: float, shift: int = 0) -> tuple[float, int]:  # f(pi t / h / 2^shift)
        m, e = math.frexp(t)
        m, e = math.pi * m / mh, e - eh - shift
        return math.frexp(f(math.ldexp(m, e))) if e > -30 else (m, e)

    (m1, e1), (m2, e2) = factor(math.sin, y1), factor(math.sin, y2)
    log_sb = math.log(m1 * m2) + (e1 + e2) * math.log(2.0)
    da = abs(math.pi * dz.real / h)
    if da > 300.0:  # as in _strip_value
        return HALF * (da if da < math.inf else math.pi * (abs(dz.real) / h)) - HALF * log_sb
    (ma, ea), (mb, eb) = factor(math.sinh, dz.real, 1), factor(math.sin, dz.imag, 1)
    if not (ma and mb):  # hypot(sinh(da/2), sin(db/2)) as m 2^e
        mn, en = (abs(ma), ea) if ma else (abs(mb), eb)
    else:
        en = max(ea, eb)
        mn = math.hypot(math.ldexp(ma, ea - en), math.ldexp(mb, eb - en))
    if not mn:
        return 0.0
    e, odd = divmod(e1 + e2, 2)  # sqrt(sin b1 sin b2) = sqrt(m1 m2 2^odd) 2^e
    mx, ex = mn / math.sqrt(m1 * m2 * 2.0 ** odd), en - e
    if ex > 30:  # asinh x = log 2x to double precision for x > 1e8
        return HALF * 2.0 * (math.log(2.0 * mx) + ex * math.log(2.0))
    return HALF * 2.0 * math.asinh(math.ldexp(mx, ex))


def dist_strip(z1, z2, h: float) -> DistanceResult:
    """Hyperbolic distance in the strip {0 < Im z < h}; NumericOverflow where
    it is past the double range."""
    dom = DomainModel.strip(h)
    z1, z2 = dom.check(z1), dom.check(z2)
    w1, w2, height = z1, z2, h
    if cmath.isinf(z1 - z2):  # Re(z1 - z2) overflows: z -> z/2 maps onto the strip of height h/2
        w1, w2, height = 0.5 * z1, 0.5 * z2, 0.5 * h
    value = _strip_value(w1 - w2, w1.imag, w2.imag, height)
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


def _deck_minimize(value_at_k):
    """Minimize a lifted distance over the deck translations 2 pi k.

    Only k in {-1, 0, 1} can attain the minimum (see the module docstring);
    ties go to the first of them, the smallest k.
    """
    vals = [value_at_k(k) for k in (-1, 0, 1)]
    i = int(np.argmin(vals))
    return vals[i], i - 1


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
    value, k = _deck_minimize(lambda k: _halfplane_value(dw + 2.0 * math.pi * (j + k), y1, y2))
    return DistanceResult(value, DistanceMethod.LIFT_MINIMIZATION, k)


def dist_annulus(z1, z2, r: float) -> DistanceResult:
    """Distance in the annulus {r < |z| < 1} via the strip lift."""
    dom = DomainModel.annulus(r)
    z1, z2 = dom.check(z1), dom.check(z2)
    s = math.log(1.0 / r)
    dw, j, y1, y2 = _lifts(z1, z2)
    value, k = _deck_minimize(lambda k: _strip_value(dw + 2.0 * math.pi * (j + k), y1, y2, s))
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
