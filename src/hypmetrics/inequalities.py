"""Pointwise inequalities and limit functionals for negatively curved metrics.

Implements the comparison machinery used across the verification suites:

  * the Ahlfors bound lambda/lambda_ref <= 1 for curvature <= -4 metrics;
  * the distortion bound of the sharpened Schwarz-Pick inequality,
    bound(f_q, d) = (f_q + tanh 2d)/(1 + f_q tanh 2d);
  * the boundary Harnack bound near an isolated singularity,
    lambda(z) <= M^(C_{r,R}(z)) lambda_ref(z),
    C_{r,R}(z) = log(r/R)/log(|z|/R), M the ratio max on |xi| = r;
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
from .distances import _PUNCTURED_DISK, SWEEP_N, _golden_max
from .errors import BadParameter, NonpositiveDensity, OutsideDomain
from .metrics import MetricDensity, conical_metric, eval_many, punctured_disk_metric
from .reports import Check


# --- Ahlfors --------------------------------------------------------------

def ahlfors_check(metric: MetricDensity, reference: MetricDensity,
                  grid: np.ndarray, kind: str = "pullback") -> Check:
    """Verify lambda/lambda_ref <= 1 on a sample grid.

    Checks the maximum of lambda/lambda_ref - 1; passes when it is at most
    1e-12 for closed-form pairs (kind="closed") or 1e-9 for pullbacks.
    """
    grid = np.asarray(grid, dtype=complex).ravel()
    ratios = eval_many(metric, grid) / eval_many(reference, grid)
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
    R: float
    boundary_max_ratio: float

    def __post_init__(self):
        if not 0.0 < self.r < self.R:
            raise BadParameter(f"need 0 < r < R, got r={self.r}, R={self.R}")
        if not 0.0 < self.boundary_max_ratio <= 1.0:
            raise BadParameter(
                f"boundary max ratio must lie in (0,1], got {self.boundary_max_ratio}")

    def exponent(self, z) -> float:
        """C_{r,R}(z) = log(r/R)/log(|z|/R), in (0,1) for 0 < |z| < r."""
        az = abs(complex(z))
        return math.log(self.r / self.R) / math.log(az / self.R)


def boundary_max_ratio(metric: MetricDensity, reference: MetricDensity,
                       r: float) -> float:
    """max over |xi| = r of lambda(xi)/lambda_ref(xi).

    Dense circle sampling refined by golden-section search; ties broken by
    the smallest argument (first maximizer in sweep order).
    """
    thetas = np.linspace(0.0, 2.0 * math.pi, SWEEP_N, endpoint=False)
    xi = r * np.exp(1j * thetas)
    ratios = eval_many(metric, xi) / eval_many(reference, xi)
    i = int(np.argmax(ratios))

    def ratio_at(theta: float) -> float:
        w = r * complex(math.cos(theta), math.sin(theta))
        return float(metric.eval(w) / reference.eval(w))

    width = 2.0 * math.pi / SWEEP_N
    _, refined = _golden_max(ratio_at, thetas[i] - width, thetas[i] + width)
    return max(float(ratios[i]), refined)


def harnack_bound(spec: HarnackBoundSpec, reference: MetricDensity, z) -> float:
    """Right side of the boundary Harnack inequality at z, 0 < |z| < r."""
    z = complex(z)
    if not 0.0 < abs(z) < spec.r:
        raise OutsideDomain(f"harnack bound needs 0 < |z| < {spec.r}, got {z}")
    return spec.boundary_max_ratio ** spec.exponent(z) * float(reference.eval(z))


def aux_v_alpha(alpha: float, z) -> float:
    """v_alpha(z) = |z|^(2(1-alpha)) / (1 - |z|^(2(1-alpha)))."""
    p = abs(_PUNCTURED_DISK.check(z)) ** (2.0 * (1.0 - alpha))
    return p / (1.0 - p)


def harnack_conical_bound(alpha: float, r: float, boundary_max_ratio: float,
                          z) -> float:
    """Conical Harnack right side M^(v_alpha(z)/v_alpha(r)) lambda_alpha(z)."""
    lam_alpha = conical_metric(alpha)
    z = complex(z)
    if not 0.0 < abs(z) < r < 1.0:
        raise OutsideDomain(f"conical harnack needs 0 < |z| < r < 1, got {z}, r={r}")
    exponent = aux_v_alpha(alpha, z) / aux_v_alpha(alpha, r)
    return float(boundary_max_ratio ** exponent * lam_alpha.eval(z))


# --- Hopf functionals -----------------------------------------------------

def hopf_functional(metric: MetricDensity, reference: MetricDensity, z) -> float:
    """log(lambda(z)/lambda_ref(z)) * log(1/|z|).

    Computed from the log densities so that values deep near the puncture do
    not lose precision. Raises NonpositiveDensity when either density
    vanishes at z.
    """
    z = _PUNCTURED_DISK.check(z)
    az = abs(z)
    if metric.eval(z) <= 0.0 or reference.eval(z) <= 0.0:
        raise NonpositiveDensity(f"densities must be positive at z={z}")
    diff = float(metric.log_eval(z)) - float(reference.log_eval(z))
    return diff * math.log(1.0 / az)


def hopf_conical_functional(metric: MetricDensity, alpha: float, z) -> float:
    """log(lambda(z)/lambda_alpha(z)) * |z|^(2(alpha-1))."""
    z = _PUNCTURED_DISK.check(z)
    az = abs(z)
    if metric.eval(z) <= 0.0:
        raise NonpositiveDensity(f"density must be positive at z={z}")
    diff = float(metric.log_eval(z)) - float(conical_metric(alpha).log_eval(z))
    return diff * az ** (2.0 * (alpha - 1.0))


def aux_v(z) -> float:
    """v(z) = 1/log(1/|z|), the bounded radial solution of Dv = 8 lambda^2 v."""
    return 1.0 / math.log(1.0 / abs(_PUNCTURED_DISK.check(z)))


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
        lam = pd.eval(z)
        return np.abs(laplacian(f, z, step, pd.domain) - 8.0 * lam * lam * f(z))

    v1 = lambda z: 1.0 / np.log(1.0 / np.abs(z))
    v2 = lambda z: np.log(1.0 / np.abs(z)) ** 2
    v_bad = lambda z: np.log(1.0 / np.abs(z))

    tol = 3e4 * h * h
    checks = []
    for name, f in (("1/log(1/|z|)", v1), ("(log(1/|z|))^2", v2)):
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
