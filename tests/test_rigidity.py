"""Decay-rate fitting and boundary rigidity classification."""
import math
import re

import numpy as np
import pytest

from hypmetrics.distances import dist_punctured_disk
from hypmetrics.errors import (BadParameter, DegenerateSample, OutsideDomain, TooFewPoints,
                               WrongSingularityOrder)
from hypmetrics.maps import example1_map
from hypmetrics.metrics import (conical_metric, pullback, punctured_disk_metric,
                                punctured_disk_metric_r)
from hypmetrics.rigidity import (BoundarySequenceSample, Classification, Setting,
                                 build_sample, classify_boundary_condition,
                                 classify_sample, decay_exponent_fit,
                                 dichotomy_report)


def _synthetic(beta, c=0.5, d=None, n=10):
    d = np.linspace(0.5, 2.5, n) if d is None else np.asarray(d)
    ratios = 1.0 - c * np.exp(-beta * d)
    return BoundarySequenceSample(tuple([0.1 + 0j] * len(d)), tuple(ratios), tuple(d))


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0, 6.0])
def test_planted_exponent_recovery(beta):
    est = decay_exponent_fit(_synthetic(beta))
    assert est.beta == pytest.approx(beta, abs=1e-9)
    assert est.c == pytest.approx(0.5, abs=1e-9)
    assert est.r2 == pytest.approx(1.0, abs=1e-12)


def test_spec_synthetic_case():
    est = decay_exponent_fit(_synthetic(3.0, d=np.linspace(1.0, 4.0, 8)))
    assert est.beta == pytest.approx(3.0, abs=1e-9)


def test_subsampling_preserves_classification():
    full = _synthetic(5.0, d=np.linspace(0.5, 2.5, 12))
    sub = BoundarySequenceSample(full.points[::2], full.ratios[::2],
                                 full.distances[::2])
    c1 = classify_boundary_condition(decay_exponent_fit(full), Setting.general())
    c2 = classify_boundary_condition(decay_exponent_fit(sub), Setting.general())
    assert c1 == c2 == Classification.RIGIDITY_FORCED


def test_base_point_shift_leaves_beta_unchanged():
    base = _synthetic(2.0)
    shifted = BoundarySequenceSample(base.points, base.ratios,
                                     tuple(d + 0.37 for d in base.distances))
    b1 = decay_exponent_fit(base).beta
    b2 = decay_exponent_fit(shifted).beta
    assert b1 == pytest.approx(b2, abs=1e-6)


def test_classification_thresholds():
    est = decay_exponent_fit(_synthetic(5.0))
    assert classify_boundary_condition(est, Setting.general()) is \
        Classification.RIGIDITY_FORCED
    assert classify_boundary_condition(est, Setting.puncture()) is \
        Classification.RIGIDITY_FORCED
    est2 = decay_exponent_fit(_synthetic(1.5))
    assert classify_boundary_condition(est2, Setting.puncture()) is \
        Classification.STRICTLY_BELOW
    assert classify_boundary_condition(est2, Setting.general()) is \
        Classification.STRICTLY_BELOW
    est3 = decay_exponent_fit(_synthetic(3.95))
    assert classify_boundary_condition(est3, Setting.general()) is \
        Classification.INCONCLUSIVE


def test_degenerate_sample():
    s = BoundarySequenceSample(tuple([0.1 + 0j] * 6), tuple([1.0] * 6),
                               tuple(np.linspace(1, 2, 6)))
    with pytest.raises(DegenerateSample):
        decay_exponent_fit(s)


def test_too_few_points():
    with pytest.raises(TooFewPoints):
        decay_exponent_fit(_synthetic(2.0, n=4))


def test_example1_puncture_fit():
    pd = punctured_disk_metric()
    pulled = pullback(pd, example1_map(), pd.domain)
    pts = [complex(10.0 ** (-n), 0.0) for n in range(2, 9)]
    sample = build_sample(pulled, pd, pts, q=0.5 + 0j,
                          dist_fn=lambda z, q: dist_punctured_disk(z, q).value)
    est = classify_sample(sample, Setting.puncture())
    assert est.beta == pytest.approx(2.0, abs=0.1)
    assert est.r2 >= 0.99
    # at the threshold: consistent with big-O but not little-o (sharpness)
    assert est.classification in (Classification.INCONCLUSIVE,
                                  Classification.STRICTLY_BELOW)


def test_pdiskR_family_puncture_fit_not_forced():
    pd = punctured_disk_metric()
    fam = punctured_disk_metric_r(math.e)
    pts = [complex(10.0 ** (-n), 0.0) for n in range(2, 9)]
    sample = build_sample(fam, pd, pts, q=0.5 + 0j,
                          dist_fn=lambda z, q: dist_punctured_disk(z, q).value)
    est = classify_sample(sample, Setting.puncture())
    # the finite-sample slope 2L/(L+1) averages below the asymptotic 2
    assert 1.6 <= est.beta <= 2.0
    assert est.classification is not Classification.RIGIDITY_FORCED


@pytest.mark.parametrize("alpha", [1.0, math.nan, -math.inf])
def test_conical_setting_requires_finite_order_below_one(alpha):
    with pytest.raises(BadParameter, match="finite alpha < 1"):
        Setting.conical(alpha)


def test_conical_setting_regresses_on_log_radius():
    # synthetic conical data: 1 - ratio = 0.4 |z|^(2(1-alpha)) at alpha = 0.25
    alpha = 0.25
    pts = [complex(10.0 ** (-n), 0.0) for n in range(1, 8)]
    ratios = [1.0 - 0.4 * abs(z) ** (2 * (1 - alpha)) for z in pts]
    sample = BoundarySequenceSample(tuple(pts), tuple(ratios),
                                    tuple(float(n) for n in range(1, 8)))
    est = decay_exponent_fit(sample, regressor="log_radius")
    # deep samples store 1 - ratio near the rounding floor, so recovery is
    # good to ~1e-7 here (the machine-exact case is the distance regressor)
    assert est.beta == pytest.approx(2 * (1 - alpha), abs=1e-6)
    # planting exactly at the threshold is a knife edge; float noise decides
    assert classify_boundary_condition(est, Setting.conical(alpha)) in (
        Classification.INCONCLUSIVE, Classification.RIGIDITY_FORCED)
    # clearly inside the margin and clearly above it
    slow = [1.0 - 0.4 * abs(z) ** (2 * (1 - alpha) - 0.05) for z in pts]
    est_slow = decay_exponent_fit(
        BoundarySequenceSample(tuple(pts), tuple(slow),
                               tuple(float(n) for n in range(1, 8))),
        regressor="log_radius")
    assert classify_boundary_condition(est_slow, Setting.conical(alpha)) is \
        Classification.INCONCLUSIVE
    fast = [1.0 - 0.4 * abs(z) ** (2 * (1 - alpha) + 0.2) for z in pts]
    est_fast = decay_exponent_fit(
        BoundarySequenceSample(tuple(pts), tuple(fast),
                               tuple(float(n) for n in range(1, 8))),
        regressor="log_radius")
    assert classify_boundary_condition(est_fast, Setting.conical(alpha)) is \
        Classification.RIGIDITY_FORCED


def test_euclidean_form_matches_hyperbolic_classification():
    # comparability-normalized distances d = log(log(1/|z|))/2 classify the same
    # way as the true punctured-disk distances on the test families
    pd = punctured_disk_metric()
    pts = [complex(10.0 ** (-n), 0.0) for n in range(2, 9)]
    for metric in (pullback(pd, example1_map(), pd.domain),
                   punctured_disk_metric_r(math.e)):
        true_sample = build_sample(metric, pd, pts, q=0.5 + 0j,
                                   dist_fn=lambda z, q: dist_punctured_disk(z, q).value)
        norm_sample = build_sample(metric, pd, pts, q=0.5 + 0j,
                                   dist_fn=lambda z, q: 0.5 * math.log(math.log(1 / abs(z))))
        c_true = classify_sample(true_sample, Setting.puncture()).classification
        c_norm = classify_sample(norm_sample, Setting.puncture()).classification
        assert c_true == c_norm


def test_dichotomy_report_trigger_only_for_pdisk():
    pd = punctured_disk_metric()
    pts = [complex(10.0 ** (-k), 0.0) for k in range(2, 9)]
    fired = {}
    for metric, label in [(pd, "pdisk"),
                          (punctured_disk_metric_r(math.e), "pdiskR:e"),
                          (punctured_disk_metric_r(math.e ** 2), "pdiskR:e2"),
                          (pullback(pd, example1_map(), pd.domain), "pull")]:
        rep = dichotomy_report(metric, pts)
        trigger = [c for c in rep.checks if c.name.startswith("part-b")][0]
        bounded = [c for c in rep.checks if c.name.startswith("part-a")][0]
        assert bounded.passed
        fired[label] = trigger.passed
    assert fired == {"pdisk": True, "pdiskR:e": False, "pdiskR:e2": False,
                     "pull": False}


# E = (1 - alpha)^2 stands above the spread of E on the report's grid (about
# 5e-12, from the central difference) up to order 0.99999, where E = 1e-10.
@pytest.mark.parametrize("alpha", [0.5, 0.985, 0.99, 0.9999, 0.99999])
def test_dichotomy_report_rejects_conical(alpha):
    pts = [complex(10.0 ** (-k), 0.0) for k in range(2, 9)]
    message = f"metric conical:{alpha} has conical order ~{alpha}, not logarithmic"
    with pytest.raises(WrongSingularityOrder, match=f"^{re.escape(message)}$"):
        dichotomy_report(conical_metric(alpha), pts)


# Unchecked, the pdisk densities at |z| = 1.5 are both negative, with ratio 1,
# and at |z| = 1 the ratio is nan.
@pytest.mark.parametrize("z", [1.0, 1.5])
def test_build_sample_refuses_a_point_off_the_domain(z):
    pd = punctured_disk_metric()
    pts = [complex(10.0 ** (-k), 0.0) for k in range(2, 9)] + [z]
    with pytest.raises(OutsideDomain, match=r"is not in pdisk"):
        build_sample(pd, pd, pts, q=0.5 + 0j, dist_fn=lambda z, q: abs(z - q))


@pytest.mark.parametrize("z", [1.0, 1.5])
def test_dichotomy_report_refuses_a_point_off_the_domain(z):
    pts = [complex(10.0 ** (-k), 0.0) for k in range(2, 9)] + [z]
    with pytest.raises(OutsideDomain, match=r"is not in pdisk"):
        dichotomy_report(punctured_disk_metric(), pts)


def test_dichotomy_limits_match_log_R():
    pts = [complex(10.0 ** (-k), 0.0) for k in range(2, 9)]
    rep = dichotomy_report(punctured_disk_metric_r(math.e ** 2), pts)
    trigger = [c for c in rep.checks if c.name.startswith("part-b")][0]
    assert trigger.value == pytest.approx(-2.0, abs=2e-2)
