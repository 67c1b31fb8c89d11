"""Sharpness witnesses and their limit functionals.

Two explicit maps witness that the boundary rigidity error terms cannot be
relaxed from little-o to big-O:

  * phi(z) = z - (z-1)^3/12 on the disk, with
        (1-x^2) (phi*lambda_D)(x) = 1 + kappa2 (1-x)^2 + o((1-x)^2);
    the documented target for the quadratic coefficient is -1/12, while
    direct evaluation of the exact closed form gives -1/6 (see the notes the
    checks carry). The related disk functional
        (phi*lambda_D/lambda_D - 1) e^(4 d_D(x,0))
    accordingly tends to 4*kappa2.

  * example1 f(z) = z exp(-(1+z)/(1-z)) on the punctured disk, with
        (lambda_pdisk(f(z)) |f'(z)| / lambda_pdisk(z) - 1) log(1/|z|) -> -1.

The annulus functional transfers the phi witness into the annulus A_r:
    (phi*lambda_D(x)/lambda_A_r(x) - 1) e^(4 d_norm(x)) ->
        -1/3 - pi^2 / (6 log(1/r)^2),
where d_norm is the annulus distance from x to the core circle point
sqrt(r), additively calibrated by -log(2s/pi)/2 (s = log(1/r)) so that
e^(2 d_norm) ~ 1/log(1/|x|); the limit constant is reproduced exactly under
this strip-cover normalization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import distances, extrapolation
from .domains import DomainModel
from .errors import OutsideDomain
from .extrapolation import LimitEstimate

# The suites import this module only when a witness suite runs, so it calls
# the distances and the extrapolation through their modules: a tracer that
# wraps module attributes for a while (perfbench/spans.py) sees those calls
# even when this module was first imported inside its window.

PHI_EXPANSION_TARGET = -1.0 / 12.0   # documented target; direct evaluation gives -1/6
DISK_FUNCTIONAL_TARGET = -1.0 / 3.0  # documented target; direct evaluation gives -2/3

_EXPANSION_NOTE = ("documented coefficient -1/12 is inconsistent with direct "
                   "evaluation of the pinned closed forms, which gives -1/6")
_DISK_NOTE = ("documented limit -1/3 is inconsistent with direct evaluation, "
              "which gives -2/3 = 4*(-1/6)")


@dataclass(frozen=True)
class WitnessLimit:
    sample_points: tuple
    functional_values: tuple
    extrapolated_limit: float
    expected: float
    trend_ok: bool
    note: str = ""

    @property
    def matches_expected(self) -> bool:
        return math.isfinite(self.extrapolated_limit) and \
            abs(self.extrapolated_limit - self.expected) <= 1e-4


def _phi_factors(u: float) -> tuple[float, float, float]:
    """1 - phi(x), 1 + phi(x) and phi'(x) at x = 1 - u.

    Grouped through u so that the 1 - phi(x)^2 factor carries no
    cancellation; the functionals magnify ratio - 1 by (1-x)^-2.
    """
    return u * (1.0 - u * u / 12.0), 2.0 - u + u ** 3 / 12.0, 1.0 - u * u / 4.0


def _phi_ratio(x: float) -> float:
    """(1-x^2) (phi*lambda_D)(x) for real x in (0, 1)."""
    u = 1.0 - x
    one_minus_phi, one_plus_phi, dphi = _phi_factors(u)
    return u * (2.0 - u) * dphi / (one_minus_phi * one_plus_phi)


# x = 1 - 10^-k, k = 1..4. Stop at 1 - 1e-4: the functional's signal is
# O((1-x)^2) and drowns in double-precision cancellation noise much past that.
_PHI_POINTS = (0.9, 0.99, 0.999, 0.9999)


def phi_expansion_check() -> WitnessLimit:
    """Quadratic coefficient functional ((1-x^2) phi*lambda_D(x) - 1)/(1-x)^2."""
    values = [(_phi_ratio(x) - 1.0) / (1.0 - x) ** 2 for x in _PHI_POINTS]
    est = extrapolation.extrapolate(values, xs=[1.0 - x for x in _PHI_POINTS])
    return WitnessLimit(_PHI_POINTS, tuple(values), est.value, PHI_EXPANSION_TARGET,
                        est.trend_ok, _EXPANSION_NOTE)


def disk_sharpness_functional() -> WitnessLimit:
    """The unit-disk functional (phi*lambda_D/lambda_D - 1) e^(4 d_D(x,0))."""
    values = []
    for x in _PHI_POINTS:
        ratio = _phi_ratio(x)  # equals phi*lambda_D / lambda_D at real x
        e4d = math.exp(4.0 * distances.dist_disk(x, 0.0).value)
        values.append((ratio - 1.0) * e4d)
    est = extrapolation.extrapolate(values, xs=[1.0 - x for x in _PHI_POINTS])
    return WitnessLimit(_PHI_POINTS, tuple(values), est.value, DISK_FUNCTIONAL_TARGET,
                        est.trend_ok, _DISK_NOTE)


def example1_ratio(z: complex) -> float:
    """Closed-form distortion lambda_pdisk(f(z))|f'(z)|/lambda_pdisk(z) of example1."""
    z = complex(z)
    az = abs(z)
    if not 0.0 < az < 1.0:
        raise OutsideDomain(f"example1 ratio needs 0 < |z| < 1, got {z}")
    L = math.log(1.0 / az)
    A = abs(1.0 - 4.0 * z + z * z) / abs(1.0 - z) ** 2
    B = (1.0 - az * az) / abs(1.0 - z) ** 2
    return A * L / (L + B)


def example1_limit(z_values: Sequence[complex] | None = None) -> WitnessLimit:
    """The punctured-disk functional (ratio - 1) log(1/|z|) for example1, by
    default at z = 10^-k, k = 2..8."""
    zs = [complex(z) for z in z_values] if z_values is not None else \
        [complex(10.0 ** (-k), 0.0) for k in range(2, 9)]
    values = [(example1_ratio(z) - 1.0) * math.log(1.0 / abs(z)) for z in zs]
    Ls = [math.log(1.0 / abs(z)) for z in zs]
    est = extrapolation.extrapolate(values, xs=[1.0 / L for L in Ls])
    return WitnessLimit(tuple(zs), tuple(values), est.value, -1.0, est.trend_ok)


def annulus_expected_limit(r: float) -> float:
    """-1/3 - pi^2/(6 log(1/r)^2), the annulus sharpness constant."""
    s = math.log(1.0 / r)
    return -1.0 / 3.0 - math.pi ** 2 / (6.0 * s * s)


def annulus_sharpness_limit(r: float, x_values: Sequence[float] | None = None) -> WitnessLimit:
    """Annulus functional (phi*lambda_D(x)/lambda_A_r(x) - 1) e^(4 d_norm(x)).

    d_norm(x) = d_{A_r}(x, sqrt(r)) - log(2s/pi)/2, measured from the
    core-circle point sqrt(r), pins the additive normalization of the annulus
    distance against the strip-cover closed form; with it the documented
    limit constant is reproduced by the exact density formulas.
    """
    DomainModel.annulus(r)  # raises BadParameter unless 0 < r < 1
    s = math.log(1.0 / r)
    x0 = math.sqrt(r)
    xs = list(x_values) if x_values is not None else \
        [1.0 - 10.0 ** (-k) for k in range(2, 6)]
    if any(not r < x < 1.0 for x in xs):
        raise OutsideDomain("x values must lie in the annulus")
    calibration = 0.5 * math.log(2.0 * s / math.pi)
    values = []
    for x in xs:
        # phi*lambda_D(x) / lambda_A_r(x); the functional magnifies
        # ratio - 1 by e^(4d) ~ u^-2
        u = 1.0 - x
        one_minus_phi, one_plus_phi, dphi = _phi_factors(u)
        L = -math.log1p(-u)
        ratio = (dphi * 2.0 * x * s * math.sin(math.pi * L / s)
                 / (math.pi * one_minus_phi * one_plus_phi))
        d = distances.dist_annulus(x, x0, r).value - calibration
        values.append((ratio - 1.0) * math.exp(4.0 * d))
    est: LimitEstimate = extrapolation.extrapolate(values, xs=[1.0 - x for x in xs])
    return WitnessLimit(tuple(xs), tuple(values), est.value, annulus_expected_limit(r),
                        est.trend_ok, note="strip-cover normalization: d - log(2s/pi)/2")
