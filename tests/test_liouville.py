"""Radial curvature ODE: solver accuracy, families, classification."""
import math

import numpy as np
import pytest

from hypmetrics.errors import (BadParameter, NumericOverflow)
from hypmetrics.liouville import (CONICAL, LOGARITHMIC, UNCLASSIFIED, RadialProfile,
                                  classify_singularity, closed_form_family,
                                  dichotomy_verify_part_a, integrate_radial, radial_rhs)


def test_radial_rhs_values():
    assert radial_rhs(-math.log(2.0)) == pytest.approx(1.0, rel=1e-15)
    assert radial_rhs(0.0) == 4.0
    with pytest.raises(NumericOverflow):
        radial_rhs(301.0)


def test_rhs_consistency_with_pdisk_profile():
    # w(t) = -log(-2t) has w'' = 1/t^2 = 4 e^(2w)
    for t in (-0.5, -1.0, -3.0, -10.0):
        assert radial_rhs(-math.log(-2.0 * t)) == pytest.approx(1.0 / t ** 2,
                                                                rel=1e-14)


def test_integration_matches_pdisk_closed_form():
    prof = integrate_radial(-math.log(2.0), 1.0, -1.0, -5.0, 10 ** 4)
    # t_grid is stored increasing; the terminal point t = -5 is first
    assert prof.t_grid[0] == -5.0
    assert abs(prof.w_values[0] - (-math.log(10.0))) <= 1e-8
    E = prof.first_integral()
    assert abs(E[-1] - E[0]) <= 1e-8
    assert np.all(prof.lambda_values() > 0.0)


def test_integration_matches_conical_closed_form():
    fam = closed_form_family("conical", alpha=0.5)
    w0 = float(fam.w_func(-1.0))
    dw0 = float(fam.dw_func(-1.0))
    prof = integrate_radial(w0, dw0, -1.0, -5.0, 10 ** 4)
    assert abs(prof.w_values[0] - float(fam.w_func(-5.0))) <= 1e-8
    E = prof.first_integral()
    assert E[0] == pytest.approx(0.25, abs=1e-10)  # E = (1-alpha)^2
    assert abs(E[-1] - E[0]) <= 1e-8


def test_fourth_order_convergence():
    target = -math.log(10.0)
    e1 = abs(integrate_radial(-math.log(2.0), 1.0, -1.0, -5.0, 100).w_values[0] - target)
    e2 = abs(integrate_radial(-math.log(2.0), 1.0, -1.0, -5.0, 200).w_values[0] - target)
    assert e1 / e2 >= 15.0


# the pdisk profile w = -log(-2t) from t = -1 down to -5, and back up
@pytest.mark.parametrize("w0, dw0, t0, t1", [(-math.log(2.0), 1.0, -1.0, -5.0),
                                             (-math.log(10.0), 0.2, -5.0, -1.0)])
def test_integrate_radial_matches_a_list_based_loop(w0, dw0, t0, t1):
    # the same RK4 steps, kept in Python lists and converted at the end
    steps = 1000
    h = (t1 - t0) / steps
    ts, ws, dws, w, dw = [t0], [w0], [dw0], w0, dw0
    for i in range(steps):
        k1w, k1d = dw, radial_rhs(w)
        k2w, k2d = dw + 0.5 * h * k1d, radial_rhs(w + 0.5 * h * k1w)
        k3w, k3d = dw + 0.5 * h * k2d, radial_rhs(w + 0.5 * h * k2w)
        k4w, k4d = dw + h * k3d, radial_rhs(w + h * k3w)
        w = w + h / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        dw = dw + h / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        ts.append(t0 + (i + 1) * h)
        ws.append(w)
        dws.append(dw)
    order = slice(None, None, -1 if t0 > t1 else 1)
    prof = integrate_radial(w0, dw0, t0, t1, steps)
    for got, want in zip((prof.t_grid, prof.w_values, prof.dw_values), (ts, ws, dws)):
        assert got.dtype == np.float64
        assert np.array_equal(got, np.asarray(want)[order])

def test_blow_up_policies():
    # large initial slope toward increasing w blows up quickly
    with pytest.raises(NumericOverflow):
        integrate_radial(1.0, 50.0, 0.0, 40.0, 2000)


def test_lambda_past_the_double_range_is_refused():
    # e^(w - t) overflows for t < w - 709.78; lambda was inf, with a RuntimeWarning.
    # The first t of the grid past the range is named
    prof = integrate_radial(-5.0, 0.0, -700.0, -715.0, 10)
    assert prof.t_grid[0] == -715.0 and prof.t_grid[-1] == -700.0
    with pytest.raises(NumericOverflow, match=r"^density e\^\(w - t\) at t=-715.0 is not "
                                              r"finite in double precision$"):
        prof.lambda_values()


def test_closed_form_families_satisfy_ode():
    # the first integral is constant on every solution, here to rounding
    for name, kw in [("pdisk", {}), ("pdiskR", {"R": math.e}),
                     ("conical", {"alpha": 0.3}),
                     ("conical-scaled", {"alpha": 0.3, "c": 0.5})]:
        prof = closed_form_family(name, **kw)
        E = prof.first_integral()
        assert float(np.abs(E - E[0]).max()) <= 1e-9


def test_family_identities():
    # c = 1 recovers the conical model; R = 1 recovers the punctured disk
    a = closed_form_family("conical-scaled", alpha=0.4, c=1.0)
    b = closed_form_family("conical", alpha=0.4)
    assert np.allclose(a.w_values, b.w_values, rtol=0, atol=1e-14)
    p1 = closed_form_family("pdiskR", R=1.0)
    p2 = closed_form_family("pdisk")
    assert np.allclose(p1.w_values, p2.w_values, rtol=0, atol=1e-14)


def test_scaled_family_ratio_tends_to_c():
    # lambda_{alpha,c} / lambda_alpha -> c as rho -> 0
    alpha, c = 0.5, 0.9
    scaled = closed_form_family("conical-scaled", alpha=alpha, c=c)
    plain = closed_form_family("conical", alpha=alpha)
    for t in (-10.0, -20.0, -35.0):
        ratio = math.exp(float(scaled.w_func(t)) - float(plain.w_func(t)))
        assert ratio == pytest.approx(c, abs=1e-4)
    # Ahlfors within the family: scaled <= plain everywhere, strictly for c<1
    t = np.linspace(-30.0, -1.0, 500)
    assert np.all(scaled.w_func(t) < plain.w_func(t))


def test_interior_rigidity_monotone_in_c():
    # at fixed z, lambda_{alpha,c}(z) is strictly increasing in c, so equality
    # with lambda_alpha at one point forces c = 1
    alpha, t0 = 0.5, -2.0
    vals = [float(closed_form_family("conical-scaled", alpha=alpha, c=c).w_func(t0))
            for c in (0.1, 0.5, 0.9, 1.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_classifier_on_families():
    assert classify_singularity(closed_form_family("pdisk")).kind == LOGARITHMIC
    # e^(-w)/2 + t is log R on the whole family, at the default grid; the test
    # of w + log(-2t) called these unclassified, and 1e300 conical
    for R in (1.5, math.e, 100.0, 1e300):
        assert classify_singularity(closed_form_family("pdiskR", R=R)).kind == LOGARITHMIC
    for alpha in (-0.5, 0.3, 0.7):
        prof = classify_singularity(closed_form_family("conical", alpha=alpha))
        assert prof.kind == CONICAL
        assert prof.alpha == pytest.approx(alpha, abs=1e-3)
    scaled = classify_singularity(closed_form_family("conical-scaled",
                                                     alpha=0.3, c=0.5))
    assert scaled.kind == CONICAL
    assert scaled.alpha == pytest.approx(0.3, abs=1e-3)


def _steep_wavy_profile() -> RadialProfile:
    """Neither logarithmic (e^(-w) overflows) nor conical (w is not linear)."""
    t = np.linspace(-40.0, -1.0, 2000)
    w = 20.0 * t + np.sin(t)
    return RadialProfile(t, w, "steep-wavy", 20.0 + np.cos(t))


# The tested variation is the spread of the first integral E on the whole
# grid, for every verdict; conical 0.99 has E = 1e-4, constant to 2.4e-15.
@pytest.mark.parametrize("profile, kind", [
    (closed_form_family("pdisk"), LOGARITHMIC),
    (closed_form_family("pdiskR", R=1e300), LOGARITHMIC),
    (closed_form_family("conical", alpha=0.3), CONICAL),
    (closed_form_family("conical", alpha=-20.0), CONICAL),
    (closed_form_family("conical", alpha=0.99), CONICAL),
    (_steep_wavy_profile(), UNCLASSIFIED),
], ids=["pdisk", "pdiskR-1e300", "conical-0.3", "conical-minus-20", "conical-0.99",
        "steep-wavy"])
def test_remainder_bound_is_the_tested_variation(profile, kind):
    got = classify_singularity(profile)
    assert got.kind == kind
    assert got.remainder_bound == np.ptp(profile.first_integral())


# Orders near 1 have E = (1 - alpha)^2 near 0 (1e-12 at 1 - 1e-6), yet E is
# constant to a few ulps, so they are conical and no pdiskR is.
@pytest.mark.parametrize("family, param, kind", [
    *(("conical", alpha, CONICAL) for alpha in (0.5, 0.99, 0.9999, 1.0 - 1e-6)),
    *(("pdiskR", R, LOGARITHMIC) for R in (1.0, 1.5, math.e, 100.0, 1e300)),
])
def test_closed_forms_classify_by_first_integral(family, param, kind):
    key = "alpha" if family == "conical" else "R"
    got = classify_singularity(closed_form_family(family, **{key: param}))
    assert got.kind == kind
    if kind == CONICAL:
        assert got.alpha == pytest.approx(param, abs=1e-6)


def test_classifier_on_integrated_profile():
    fam = closed_form_family("conical", alpha=0.3)
    prof = integrate_radial(float(fam.w_func(-1.0)), float(fam.dw_func(-1.0)),
                            -1.0, -20.0, 4000)
    got = classify_singularity(prof)
    assert got.kind == CONICAL
    assert got.alpha == pytest.approx(0.3, abs=1e-3)


def test_classifier_invariances():
    fam = closed_form_family("conical", alpha=0.3, n=4000)
    coarse = closed_form_family("conical", alpha=0.3, n=800)
    assert classify_singularity(fam).alpha == pytest.approx(
        classify_singularity(coarse).alpha, abs=1e-6)
    # truncating the shallow end does not change the verdict
    trunc = closed_form_family("conical", alpha=0.3, t_max=-10.0)
    assert classify_singularity(trunc).kind == CONICAL


@pytest.mark.parametrize("family, kw, alpha", [
    ("pdisk", {}, None), ("pdiskR", {"R": 2.0}, None),
    ("conical", {"alpha": 0.5}, 0.5), ("conical", {"alpha": 0.99}, 0.99),
], ids=["pdisk", "pdiskR-2", "conical-0.5", "conical-0.99"])
def test_classifier_on_a_shallow_grid(family, kw, alpha):
    # the first integral is constant on every radial solution, so t in
    # [-10, -1] classifies as well as a grid reaching deep into the tail
    prof = classify_singularity(closed_form_family(family, t_min=-10.0, t_max=-1.0, **kw))
    assert prof.kind == (LOGARITHMIC if alpha is None else CONICAL)
    if alpha is not None:
        assert prof.alpha == pytest.approx(alpha, abs=1e-6)


def test_bad_parameters():
    with pytest.raises(BadParameter):
        closed_form_family("conical", alpha=1.5)
    with pytest.raises(BadParameter):
        closed_form_family("pdiskR", R=0.5)
    for value in (math.nan, math.inf, -math.inf):
        for family, kw in (("conical", "alpha"), ("conical-scaled", "alpha"),
                           ("pdiskR", "R")):
            with pytest.raises(BadParameter, match="finite"):
                closed_form_family(family, **{kw: value})
        with pytest.raises(BadParameter, match="finite"):
            dichotomy_verify_part_a(value)
    with pytest.raises(BadParameter):
        integrate_radial(0.0, 1.0, -1.0, -1.0, 100)
    with pytest.raises(BadParameter):
        integrate_radial(0.0, 1.0, -1.0, -2.0, 5)
    for w0, dw0, t0, t1 in ((math.nan, 1.0, -2.0, -1.0), (0.0, math.inf, -2.0, -1.0),
                            (0.0, 1.0, -math.inf, -1.0), (0.0, 1.0, -2.0, math.inf)):
        with pytest.raises(BadParameter, match="finite"):
            integrate_radial(w0, dw0, t0, t1, 100)


def test_dichotomy_part_a():
    for R, logR in [(math.e, 1.0), (math.e ** 2, 2.0)]:
        rep = dichotomy_verify_part_a(R)
        assert rep.passed
        limit = [c for c in rep.checks if c.name.startswith("limit")][0]
        assert limit.value == pytest.approx(logR, abs=2e-2)
        sup = [c for c in rep.checks if c.name.startswith("sup")][0]
        assert sup.value <= logR + 0.01
    rep1 = dichotomy_verify_part_a(1.0)
    assert rep1.passed  # identically zero deviation
