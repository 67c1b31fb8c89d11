"""Boundary rigidity conditions as decay-rate estimators and classifiers.

Boundary rigidity: lambda/lambda_ref = 1 + o(e^(-beta* d)) along a sequence
approaching the boundary forces lambda = lambda_ref, with threshold
exponent beta* = 4 for general boundary points, 2 for punctures, and (in
Euclidean form, regressing on log|z_n|) 2(1-alpha) for conical
singularities.

Little-o conditions are undecidable from finitely many samples, so the
classifier reports threshold-relative evidence: a least-squares fit of
log(1 - ratio) against the distance (or log-radius), compared to the
threshold with an explicit margin. RigidityForced additionally requires
r^2 >= R2_MIN. Ratios exactly equal to 1 are left out of the fit, and a
sample of nothing else is DegenerateSample: equality at one point forces
equality everywhere (the interior equality case).

build_sample (whose rows `rigidity sample` prints) reads densities through
density_at. The dichotomy report computes nothing of its own: the
singularity type comes from liouville.classify_singularity, the values from
inequalities.hopf_functional and the extrapolation variable 1/log(1/|z|)
from inequalities.aux_v, all imported where it runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import (BadParameter, DegenerateSample, TooFewPoints,
                     WrongSingularityOrder)
from .metrics import (MetricDensity, check_conical_order, density_at, log_density_at,
                      punctured_disk_metric)
from .reports import Check, VerificationReport

RATIO_EQUALITY_TOL = 1e-12
R2_MIN = 0.99  # fit quality that RigidityForced requires
TRIGGER_TOL = 1e-3  # |limit| below which the dichotomy's part (b) fires


@dataclass(frozen=True)
class Setting:
    """A rigidity threshold beta* and the decay variable the fit regresses on."""
    threshold: float
    regressor: str = "distance"

    @staticmethod
    def general() -> "Setting":
        return Setting(4.0)

    @staticmethod
    def puncture() -> "Setting":
        return Setting(2.0)

    @staticmethod
    def conical(alpha: float) -> "Setting":
        check_conical_order(alpha)
        return Setting(2.0 * (1.0 - alpha), "log_radius")


class Classification(Enum):
    RIGIDITY_FORCED = "RigidityForced"
    INCONCLUSIVE = "Inconclusive"
    STRICTLY_BELOW = "StrictlyBelow"


@dataclass(frozen=True)
class BoundarySequenceSample:
    points: tuple
    ratios: tuple
    distances: tuple

    def __post_init__(self):
        n = len(self.points)
        if len(self.ratios) != n or len(self.distances) != n:
            raise BadParameter("points, ratios and distances must have equal length")
        if any(not 0.0 < rho <= 1.0 + RATIO_EQUALITY_TOL for rho in self.ratios):
            raise BadParameter("ratios must lie in (0, 1]")

    def sorted_by_distance(self) -> "BoundarySequenceSample":
        order = np.argsort(self.distances)
        return BoundarySequenceSample(
            tuple(self.points[i] for i in order),
            tuple(self.ratios[i] for i in order),
            tuple(self.distances[i] for i in order))


def build_sample(metric: MetricDensity, reference: MetricDensity,
                 points: Sequence[complex], q: complex, dist_fn) -> BoundarySequenceSample:
    """The sample of lambda/lambda_ref at the points, with distances
    dist_fn(z, q), sorted by distance.

    Both densities are evaluated through density_at, so a point off either
    domain raises OutsideDomain; a ratio outside (0, 1] raises BadParameter.
    """
    pts = np.asarray(list(points), dtype=complex)
    ratios = density_at(metric, pts) / density_at(reference, pts)
    dists = tuple(float(dist_fn(z, q)) for z in pts)
    return BoundarySequenceSample(tuple(pts.tolist()), tuple(ratios.tolist()),
                                  dists).sorted_by_distance()


@dataclass(frozen=True)
class DecayEstimate:
    beta: float
    c: float
    r2: float
    regressor: str = "distance"
    n_used: int = 0
    n_equality: int = 0
    classification: Optional[Classification] = None


def decay_exponent_fit(sample: BoundarySequenceSample,
                       regressor: str = "distance") -> DecayEstimate:
    """Least-squares fit of log(1 - ratio) against the decay variable.

    regressor="distance" fits against d_n (model 1 - ratio ~ c e^(-beta d));
    regressor="log_radius" fits against log(1/|z_n|) (the Euclidean/conical
    form, model 1 - ratio ~ c |z_n|^beta). Exact-equality points are removed
    and counted; an all-equality sample raises DegenerateSample, which
    certifies rigidity through the interior equality case, and so does a
    sample whose decay variable takes one value, which fixes no slope.
    """
    if regressor not in ("distance", "log_radius"):
        raise BadParameter(f"unknown regressor {regressor!r}")
    ratios = np.asarray(sample.ratios, dtype=float)
    eq = np.abs(ratios - 1.0) <= RATIO_EQUALITY_TOL
    n_eq = int(eq.sum())
    if n_eq == ratios.size:
        raise DegenerateSample(
            "all ratios equal 1; interior equality certifies rigidity")
    keep = ~eq
    if regressor == "distance":
        x = np.asarray(sample.distances, dtype=float)[keep]
    else:
        x = np.log(1.0 / np.abs(np.asarray(sample.points, dtype=complex)))[keep]
    y = np.log(1.0 - ratios[keep])
    if x.size < 5:
        raise TooFewPoints(f"fit needs >= 5 usable points, got {x.size}")
    if x.min() == x.max():
        raise DegenerateSample(f"fit needs two distinct {regressor} values")
    dx = x - x.mean()  # centred least squares: no LAPACK call
    slope = float(dx @ (y - y.mean())) / float(dx @ dx)
    intercept = float(y.mean()) - slope * float(x.mean())
    yhat = slope * x + intercept
    ss_res = float(((y - yhat) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayEstimate(beta=float(-slope), c=float(math.exp(intercept)), r2=r2,
                         regressor=regressor, n_used=int(x.size), n_equality=n_eq)


def classify_boundary_condition(estimate: DecayEstimate, setting: Setting,
                                margin: float = 0.1) -> Classification:
    """Compare a fitted decay exponent against the rigidity threshold.

    RigidityForced requires beta > threshold with fit quality r2 >= R2_MIN;
    StrictlyBelow requires beta < threshold - margin; anything else is
    Inconclusive. This is threshold-relative evidence, never a proof.
    """
    thr = setting.threshold
    if estimate.beta > thr and estimate.r2 >= R2_MIN:
        return Classification.RIGIDITY_FORCED
    if estimate.beta < thr - margin:
        return Classification.STRICTLY_BELOW
    return Classification.INCONCLUSIVE


def classify_sample(sample: BoundarySequenceSample, setting: Setting,
                    margin: float = 0.1) -> DecayEstimate:
    """Fit and classify in one step, using the setting's natural regressor."""
    est = decay_exponent_fit(sample, regressor=setting.regressor)
    cls = classify_boundary_condition(est, setting, margin)
    return replace(est, classification=cls)


# --- dichotomy report -------------------------------------------------------

def dichotomy_report(metric: MetricDensity, sequence: Sequence[complex]) -> VerificationReport:
    """Two-sided dichotomy check for a metric with a logarithmic singularity.

    The metric's radial profile w(t) = log lambda(e^t) + t on -200 <= t <= -20,
    w' by a central difference of step 1e-3, must be logarithmic by
    liouville.classify_singularity; a conical or unclassified profile raises
    WrongSingularityOrder. Along the sequence the report evaluates the Hopf
    functional w(z_n) * log(1/|z_n|), w = log lambda - log lambda_pdisk (one
    inequalities.hopf_functional call, which raises OutsideDomain off the
    punctured disk), and reports (a) its boundedness and (b) whether it tends
    to 0, which for curvature <= -4 metrics certifies lambda = lambda_pdisk.
    The curvature hypothesis itself is recorded as an assumption, not certified.
    """
    from .extrapolation import extrapolate
    from .inequalities import aux_v, hopf_functional
    from .liouville import CONICAL, LOGARITHMIC, RadialProfile, classify_singularity

    t = np.linspace(-200.0, -20.0, 60) + np.array([[0.0], [1e-3], [-1e-3]])  # t, t +- step
    w = log_density_at(metric, np.exp(t)) + t
    singularity = classify_singularity(RadialProfile(t[0], w[0], metric.label,
                                                     (w[1] - w[2]) / (t[1] - t[2])))
    if singularity.kind == CONICAL:
        raise WrongSingularityOrder(f"metric {metric.label} has conical order "
                                    f"~{singularity.alpha:.6g}, not logarithmic")
    if singularity.kind != LOGARITHMIC:
        raise WrongSingularityOrder(
            f"metric {metric.label} has unclassified singularity "
            f"(first-integral spread {singularity.remainder_bound:.3g})")

    pts = np.asarray(list(sequence), dtype=complex)
    pts = pts[np.argsort(-np.abs(pts))]  # |z| decreasing, toward the puncture
    values = hopf_functional(metric, punctured_disk_metric(), pts)
    est = extrapolate(values, xs=aux_v(pts))

    report = VerificationReport(suite="dichotomy")
    bound = float(np.abs(values).max())
    # a finiteness test: part (a) states no explicit bound, so expected and tol are nan
    report.add(Check(name=f"part-a-bounded[{metric.label}]", value=bound,
                     expected=float("nan"), tol=float("nan"),
                     passed=bool(np.isfinite(bound)), provenance="paper",
                     note="assumption: curvature <= -4 (spot-checkable only)"))
    triggered = est.trend_ok and abs(est.value) <= TRIGGER_TOL
    # passes on a conjunction: a shrinking trend and a limit within TRIGGER_TOL of 0
    report.add(Check(name=f"part-b-trigger[{metric.label}]",
                     value=est.value, expected=0.0, tol=TRIGGER_TOL,
                     passed=triggered, provenance="paper",
                     note="trigger certifies lambda = lambda_pdisk when curvature <= -4"))
    return report
