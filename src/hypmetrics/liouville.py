"""Radial constant-curvature Gauss equation in log-radius coordinates.

For a radially symmetric density lambda(rho) with Gauss curvature -4, the
substitution t = log rho, w(t) = log lambda + t (i.e. w = log(rho lambda))
turns the curvature equation into the autonomous ODE

    w'' = 4 e^(2w),

with first integral E = (w')^2 - 4 e^(2w). The closed-form solution
families and their profiles:

    pdisk            w(t) = -log(-2t)                            E = 0
    pdiskR (R >= 1)  w(t) = -log(2 (log R - t))                  E = 0
    conical(alpha)   w(t) = log s + s t - log(1 - e^(2st))       E = s^2
    conical-scaled   w(t) = log(s c) + s t - log(1 - c^2 e^(2st))
                     (s = 1 - alpha, 0 < c <= 1)                 E = s^2

A solution has a logarithmic singularity when w(t) + log(-2t) stays bounded
as t -> -infinity, and a conical singularity of order alpha < 1 when
w(t) - (1-alpha) t stays bounded. E alone tells the two apart (0, or
(1-alpha)^2 > 0) on any stretch of a profile: classify_singularity reads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import extrapolation
from .domains import DomainModel
from .errors import BadParameter, NumericOverflow
from .metrics import conical_scaled_metric
from .reports import Check, VerificationReport

OVERFLOW_GUARD = 300.0

LOGARITHMIC = "logarithmic"
CONICAL = "conical"
UNCLASSIFIED = "unclassified"
CONSTANT_TOL = 1e-6  # spread of E, relative to the largest (w')^2, that counts as constant


@dataclass(frozen=True)
class RadialProfile:
    """w(t) = log lambda(e^t) + t and w' on an increasing t grid, with the exact w and w'
    of a closed-form family; a solution of the ODE has a constant first_integral."""
    t_grid: np.ndarray
    w_values: np.ndarray
    derivation: str
    dw_values: np.ndarray
    w_func: Optional[Callable] = None
    dw_func: Optional[Callable] = None

    def lambda_values(self) -> np.ndarray:
        """Density lambda = e^(w - t) on the grid; NumericOverflow where it is
        past the double range."""
        with np.errstate(over="ignore"):  # checked below
            lam = np.exp(self.w_values - self.t_grid)
        finite = lam < math.inf
        if not finite.all():
            raise NumericOverflow(f"density e^(w - t) at t={self.t_grid[~finite][0]} "
                                  "is not finite in double precision")
        return lam

    def first_integral(self) -> np.ndarray:
        """E = (w')^2 - 4 e^(2w) on the grid."""
        return self.dw_values ** 2 - 4.0 * np.exp(2.0 * self.w_values)


@dataclass(frozen=True)
class SingularityProfile:
    """A verdict of classify_singularity; remainder_bound is the spread of E."""
    kind: str
    alpha: Optional[float] = None
    remainder_bound: float = float("nan")


def radial_rhs(w: float) -> float:
    """Right side 4 e^(2w) of the autonomous radial curvature equation."""
    if w > OVERFLOW_GUARD:
        raise NumericOverflow(f"w={w} exceeds the overflow guard {OVERFLOW_GUARD}")
    return 4.0 * math.exp(2.0 * w)


def integrate_radial(w0: float, dw0: float, t0: float, t1: float,
                     steps: int) -> RadialProfile:
    """Fixed-step classical RK4 integration of w'' = 4 e^(2w).

    Global error is O(step^4) on smooth solutions and the first integral
    E = (w')^2 - 4 e^(2w) is conserved to the same order. NumericOverflow
    when the solution blows up past the overflow guard.
    """
    if steps < 10:
        raise BadParameter(f"steps must be >= 10, got {steps}")
    if not all(math.isfinite(v) for v in (w0, dw0, t0, t1)):
        raise BadParameter(
            f"initial data must be finite, got w0={w0}, dw0={dw0}, t0={t0}, t1={t1}")
    if t0 == t1:
        raise BadParameter("t0 and t1 must differ")
    from array import array

    h = (t1 - t0) / steps
    w, dw = float(w0), float(dw0)
    ts, ws, dws = array("d", [t0]), array("d", [w]), array("d", [dw])  # 8 bytes a value
    for i in range(steps):
        k1w, k1d = dw, radial_rhs(w)
        k2w, k2d = dw + 0.5 * h * k1d, radial_rhs(w + 0.5 * h * k1w)
        k3w, k3d = dw + 0.5 * h * k2d, radial_rhs(w + 0.5 * h * k2w)
        k4w, k4d = dw + h * k3d, radial_rhs(w + h * k3w)
        w = w + h / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        dw = dw + h / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        if w > OVERFLOW_GUARD:
            raise NumericOverflow(f"solution blew up at t={t0 + (i + 1) * h}")
        ts.append(t0 + (i + 1) * h)
        ws.append(w)
        dws.append(dw)
    t, w_arr, dw_arr = (np.frombuffer(a) for a in (ts, ws, dws))  # views, no copy
    if t[0] > t[-1]:  # keep t_grid strictly increasing
        t, w_arr, dw_arr = t[::-1], w_arr[::-1], dw_arr[::-1]
    return RadialProfile(t, w_arr, "integrated", dw_arr)


def closed_form_family(name: str, R: float = 1.0, alpha: float = 0.0, c: float = 1.0,
                       t_min: float = -40.0, t_max: float = -1.0,
                       n: int = 2000) -> RadialProfile:
    """Exact radial profiles of the closed-form solution families.

    name is one of "pdisk", "pdiskR", "conical", "conical-scaled". The
    returned profile carries exact w and w' evaluators alongside the grid.
    """
    if name == "pdisk":
        name, R = "pdiskR", 1.0
    if name == "conical":
        name, c = "conical-scaled", 1.0
    if name == "pdiskR":
        DomainModel.punctured_disk_r(R)  # raises BadParameter unless R is a valid radius
        logR = math.log(R)
        w_func = lambda t: -np.log(2.0 * (logR - t))
        dw_func = lambda t: 1.0 / (logR - t)
        label = "pdisk" if R == 1.0 else f"pdiskR:{R}"
    elif name == "conical-scaled":
        conical_scaled_metric(alpha, c)  # raises BadParameter unless alpha < 1, 0 < c <= 1
        s = 1.0 - alpha
        logsc = math.log(s) + math.log(c)
        c2 = c * c
        w_func = lambda t: logsc + s * t - np.log1p(-c2 * np.exp(2.0 * s * t))
        dw_func = lambda t: s * (1.0 + c2 * np.exp(2.0 * s * t)) / (1.0 - c2 * np.exp(2.0 * s * t))
        label = f"conical:{alpha}" if c == 1.0 else f"conical-scaled:{alpha},{c}"
    else:
        raise BadParameter(f"unknown closed-form family {name!r}")
    if not t_min < t_max < 0.0:
        raise BadParameter(f"need t_min < t_max < 0, got [{t_min}, {t_max}]")
    t = np.linspace(t_min, t_max, n)
    return RadialProfile(t, w_func(t), label, dw_func(t), w_func, dw_func)


def classify_singularity(profile: RadialProfile) -> SingularityProfile:
    """Classify the singularity type of a radial profile at rho -> 0 by its
    first integral E alone, on the whole grid. Unclassified unless E is
    constant: its spread at most CONSTANT_TOL times the largest (w')^2.
    Logarithmic when |median E| is at most the spread (or 8 ulps of that
    largest (w')^2), conical of order 1 - sqrt(E) above, unclassified below.
    The remainder bound is the spread of E.
    """
    E = profile.first_integral()
    scale = float(np.max(profile.dw_values ** 2))
    spread, level = float(np.ptp(E)), float(np.median(E))
    constant = spread <= CONSTANT_TOL * scale  # False on a nan spread
    floor = max(spread, 8.0 * np.finfo(float).eps * scale)
    if constant and abs(level) <= floor:
        return SingularityProfile(LOGARITHMIC, remainder_bound=spread)
    if constant and level > floor:  # E < 0 solves nothing on a half-line
        return SingularityProfile(CONICAL, alpha=1.0 - math.sqrt(level), remainder_bound=spread)
    return SingularityProfile(UNCLASSIFIED, remainder_bound=spread)


def dichotomy_verify_part_a(R: float) -> VerificationReport:
    """Bounded-deviation check for the radius-R punctured-disk density.

    Evaluates |log lambda^(R) - log lambda_pdisk| * log(1/|z|) at
    |z| = 10^-k, k = 2..10. The deviation increases to log R; the check
    passes when the sup stays below log R + 0.01, and the extrapolated limit
    is compared to log R.
    """
    DomainModel.punctured_disk_r(R)  # raises BadParameter unless R is a valid radius
    logR = math.log(R)
    Ls = np.array([k * math.log(10.0) for k in range(2, 11)])
    values = Ls * np.log1p(logR / Ls)  # |log ratio| * L, exact closed form
    report = VerificationReport(suite="dichotomy-part-a")
    report.add(Check.at_most(f"sup-deviation[R={R}]", float(values.max()),
                             logR + 0.01, "paper"))
    if logR > 0.0:
        limit = extrapolation.extrapolate(values, 1.0 / Ls).value
        report.add(Check.close(f"limit-deviation[R={R}]", limit, logR, 2e-2, "derived",
                               note="Richardson extrapolation in 1/log(1/|z|)"))
    else:
        report.add(Check.close(f"limit-deviation[R={R}]", float(values.max()), 0.0,
                               1e-15, "trivial"))
    return report
