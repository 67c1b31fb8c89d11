"""Pointwise inequalities and limit functionals for negatively curved metrics.

Implements the comparison machinery used across the verification suites,
reading every density by density_at or log_density_at, so that a point off a
metric's domain raises OutsideDomain; each takes an array or (domains.pointwise) a point:

  * the Ahlfors bound lambda/lambda_ref <= 1 for curvature <= -4 metrics;
  * the distortion bound of the sharpened Schwarz-Pick inequality,
    bound(f_q, d) = (f_q + tanh 2d)/(1 + f_q tanh 2d);
  * the boundary Harnack bound near an isolated singularity,
    lambda(z) <= M^(C_r(z)) lambda_ref(z),
    C_r(z) = log r / log|z| (0 < r < 1), M the ratio max on |xi| = r;
  * its conical analogue with exponent v_alpha(z)/v_alpha(r),
    v_alpha(z) = |z|^(2(1-alpha)) / (1 - |z|^(2(1-alpha)));
  * the Hopf limit functionals log(lambda/lambda_ref) * log(1/|z|) and
    log(lambda/lambda_alpha) * |z|^(2(alpha-1)), whose limsup as z -> 0 is
    strictly negative unless the metrics coincide;
  * the auxiliary radial functions v(z) = 1/log(1/|z|) and v_alpha, which
    solve Laplacian(v) = 8 lambda_pdisk(z)^2 v.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import laplacian
from .distances import _PUNCTURED_DISK, circle_max
from .domains import pointwise
from .errors import BadParameter, NonpositiveDensity, NumericOverflow, OutsideDomain
from .metrics import (MetricDensity, conical_gap, conical_metric, density_at,
                      log_density_at, punctured_disk_metric)
from .reports import Check


# --- Ahlfors --------------------------------------------------------------

def ahlfors_check(metric: MetricDensity, reference: MetricDensity,
                  grid: np.ndarray, kind: str = "pullback") -> Check:
    """Verify lambda/lambda_ref <= 1 on a sample grid.

    Checks the maximum of lambda/lambda_ref - 1; passes when it is at most
    1e-12 for closed-form pairs (kind="closed") or 1e-9 for pullbacks.
    """
    grid = np.asarray(grid, dtype=complex).ravel()
    ratios = density_at(metric, grid) / density_at(reference, grid)
    excess = float(np.max(ratios) - 1.0)
    tol = 1e-12 if kind == "closed" else 1e-9
    return Check.at_most(f"ahlfors-max-excess[{metric.label}]", excess, tol, "paper")


# --- Beardon-Minda --------------------------------------------------------

def beardon_minda_bound(f_distortion_q: float, d: float) -> float:
    """Distortion bound (f_q + tanh 2d)/(1 + f_q tanh 2d).

    Distortions computed in floating point may exceed 1 by a few ulps
    (e.g. for the identity map); those are clamped.
    """
    if not -1e-12 <= f_distortion_q <= 1.0 + 1e-12:
        raise BadParameter(f"distortion must lie in [0,1], got {f_distortion_q}")
    f_q = min(max(f_distortion_q, 0.0), 1.0)
    if d < 0.0:
        raise BadParameter(f"distance must be nonnegative, got {d}")
    t = math.tanh(2.0 * d)
    return (f_q + t) / (1.0 + f_q * t)


# --- Harnack --------------------------------------------------------------

@dataclass(frozen=True)
class HarnackBoundSpec:
    r: float
    boundary_max_ratio: float

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise BadParameter(f"need 0 < r < 1, got r={self.r}")
        if not 0.0 < self.boundary_max_ratio <= 1.0:
            raise BadParameter(
                f"boundary max ratio must lie in (0,1], got {self.boundary_max_ratio}")

    @pointwise
    def exponent(self, z):
        """C_r(z) = log r / log|z|, in (0,1) for 0 < |z| < r."""
        return math.log(self.r) / np.log(np.abs(z))


def boundary_max_ratio(metric: MetricDensity, reference: MetricDensity,
                       r: float) -> float:
    """max over |xi| = r of lambda(xi)/lambda_ref(xi).

    Found by distances.circle_max, sweeping on whole arrays; ties broken by
    the smallest argument (first maximizer in sweep order).
    """
    def ratio(theta):  # at one angle or an array of them
        xi = r * np.exp(1j * theta)
        return density_at(metric, xi) / density_at(reference, xi)

    return circle_max(ratio, ratio)


def _within_radius(z, r: float, what: str):
    """OutsideDomain names the first z of the array z off 0 < |z| < r."""
    out = z[~((0.0 < np.abs(z)) & (np.abs(z) < r))]
    if out.size:
        raise OutsideDomain(f"{what} needs 0 < |z| < {r}, got {complex(out[0])}")


@pointwise
def harnack_bound(spec: HarnackBoundSpec, reference: MetricDensity, z):
    """Right side of the boundary Harnack inequality at z, 0 < |z| < r."""
    _within_radius(z, spec.r, "harnack bound")
    return spec.boundary_max_ratio ** spec.exponent(z) * density_at(reference, z)


@pointwise
def aux_v_alpha(alpha: float, z):
    """v_alpha(z) = |z|^(2s) / (1 - |z|^(2s)), s = 1 - alpha, over the exact conical gap."""
    az, s = np.abs(_PUNCTURED_DISK.check(z)), 1.0 - alpha
    return az ** (2.0 * s) / conical_gap(s, np.log(az))


@pointwise
def harnack_conical_bound(alpha: float, spec: HarnackBoundSpec, z):
    """Conical Harnack right side M^(v_alpha(z)/v_alpha(r)) lambda_alpha(z), with r and M
    from spec, at z, 0 < |z| < r."""
    _within_radius(z, spec.r, "conical harnack bound")
    return (spec.boundary_max_ratio ** (aux_v_alpha(alpha, z) / aux_v_alpha(alpha, spec.r))
            * density_at(conical_metric(alpha), z))


# --- Hopf functionals -----------------------------------------------------

def hopf_functional(metric: MetricDensity, reference: MetricDensity, z):
    """log(lambda(z)/lambda_ref(z)) * log(1/|z|) at z in the punctured disk, from one
    log_density_at per metric. OutsideDomain off either domain, NonpositiveDensity where a
    density is 0 (its log -inf), NumericOverflow where the value is not finite."""
    return _weighted_log_ratio(metric, reference, z, lambda az: -np.log(az), "densities")


def hopf_conical_functional(metric: MetricDensity, alpha: float, z):
    """log(lambda(z)/lambda_alpha(z)) * |z|^(2(alpha-1)), read as hopf_functional is."""
    return _weighted_log_ratio(metric, conical_metric(alpha), z,
                               lambda az: az ** (2.0 * (alpha - 1.0)), "density")


@pointwise
def _weighted_log_ratio(metric, reference, z, weight, what: str):
    z = _PUNCTURED_DISK.check(z)
    log_m, log_ref = log_density_at(metric, z), log_density_at(reference, z)
    zero = np.isneginf(log_m) | np.isneginf(log_ref)
    if np.any(zero):
        raise NonpositiveDensity(f"{what} must be positive at z={complex(z[zero][0])}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        value = (log_m - log_ref) * weight(np.abs(z))
    finite = np.isfinite(value)
    if not np.all(finite):
        raise NumericOverflow(f"Hopf functional at z={complex(z[~finite][0])} "
                              "is not finite in double precision")
    return value


@pointwise
def aux_v(z):
    """v(z) = 1/log(1/|z|), the bounded radial solution of Dv = 8 lambda^2 v, taken as
    -1/log|z| (1/|z| would round)."""
    return -1.0 / np.log(np.abs(_PUNCTURED_DISK.check(z)))


# --- radial solution space ------------------------------------------------

def radial_solution_space_check(h: float) -> list[Check]:
    """Checks of the radial solution space of Dv = 8 lambda_pdisk^2 v.

    Both 1/log(1/|z|) and (log(1/|z|))^2 must satisfy the PDE up to the
    O(h^2) discretization error (C h^2 with C = 3e4 covering the fourth
    derivatives on the radii window [0.25, 0.8], plus an explicit 100x
    scaling check between h and 10h); log(1/|z|) is harmonic and serves as
    a negative control with residual bounded away from zero.
    StencilOutsideDomain when a stencil of step h or 10h leaves the
    punctured disk (h >= 0.02 does) or has a point equal to its centre
    (h <= 1e-17 does).
    """
    if not h > 0.0:
        raise BadParameter(f"stencil size must be positive, got {h}")
    pd = punctured_disk_metric()
    radii = np.geomspace(0.25, 0.8, 100)

    def residual(f, z: np.ndarray, step: float) -> np.ndarray:
        return np.abs(laplacian(f, z, step, pd.domain) - 8.0 * density_at(pd, z) ** 2 * f(z))

    v2 = lambda z: np.log(np.abs(z)) ** 2  # log(1/|z|) as -log|z|, as in aux_v
    v_bad = lambda z: -np.log(np.abs(z))

    tol = 3e4 * h * h
    checks = []
    for name, f in (("1/log(1/|z|)", aux_v), ("(log(1/|z|))^2", v2)):
        res = residual(f, radii, h)
        res_coarse = residual(f, radii, 10.0 * h)
        checks.append(Check.at_most(f"residual[{name}]", float(res.max()), tol, "paper"))
        checks.append(Check.h2_order(f"h2-scaling[{name}]", res_coarse.max(), res.max(),
                                     "max-residual ratio for 10h vs h"))
        res_half = float(residual(f, np.array([0.5]), h)[0])
        checks.append(Check.at_most(f"residual-at-0.5[{name}]", res_half, 1e-5, "paper"))
    bad_min = float(residual(v_bad, radii, h).min())
    checks.append(Check.at_least("negative-control[log(1/|z|)]", bad_min, 1.0, 0.0, "derived",
                                 note="harmonic function must violate the PDE"))
    return checks
