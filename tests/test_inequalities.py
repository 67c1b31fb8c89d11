"""Ahlfors, distortion-bound, Harnack and Hopf machinery."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from hypmetrics.distances import dist_disk
from hypmetrics.errors import (BadParameter, NonpositiveDensity, NumericOverflow,
                               OutsideDomain, StencilOutsideDomain)
from hypmetrics.extrapolation import extrapolate
from hypmetrics.inequalities import (HarnackBoundSpec, ahlfors_check, aux_v,
                                     aux_v_alpha, beardon_minda_bound,
                                     boundary_max_ratio, harnack_bound,
                                     harnack_conical_bound,
                                     hopf_conical_functional, hopf_functional,
                                     radial_solution_space_check)
from hypmetrics.domains import DomainModel
from hypmetrics.maps import MAPS, example1_map, phi_map
from hypmetrics.metrics import (MetricDensity, annulus_metric, conical_metric,
                                conical_scaled_metric, disk_metric, eval_many,
                                half_plane_metric, pullback, punctured_disk_metric,
                                punctured_disk_metric_r)
from hypmetrics.sampling import cartesian_grid, polar_grid, sample_annular


def _pulled_example1():
    pd = punctured_disk_metric()
    return pullback(pd, example1_map(), pd.domain), pd


def test_ahlfors_identity_pair():
    grid = cartesian_grid(20, 0.9)
    rep = ahlfors_check(disk_metric(), disk_metric(), grid[np.abs(grid) < 0.98],
                        kind="closed")
    assert rep.passed
    assert rep.value == 0.0


# Each entry point reads its densities through density_at, so a point off a
# metric's domain is refused. Unchecked, the closed forms answered there: the
# half-plane density is negative below the axis and divides by zero on it,
# and the annulus density is negative inside the inner circle. 60 of the 400
# points of cartesian_grid(20, 0.9) lie off the disk. The conical Harnack
# bound's own range check 0 < |z| < r < 1 already kept z in the punctured
# disk; it is here so that every entry point is pinned.
_SPEC = HarnackBoundSpec(0.1, 0.5)
_OFF_DOMAIN = {
    "ahlfors-disk-grid": lambda: ahlfors_check(disk_metric(), disk_metric(),
                                               cartesian_grid(20, 0.9), kind="closed"),
    "ahlfors-halfplane": lambda: ahlfors_check(half_plane_metric(), half_plane_metric(),
                                               [0.3 + 0.1j, 0.3 - 0.1j], kind="closed"),
    "boundary-max-ratio": lambda: boundary_max_ratio(half_plane_metric(),
                                                     half_plane_metric(), 0.5),
    "harnack-annulus": lambda: harnack_bound(_SPEC, annulus_metric(0.5), 0.05),
    "harnack-halfplane": lambda: harnack_bound(_SPEC, half_plane_metric(), 0.05),
    "harnack-conical": lambda: harnack_conical_bound(0.5, HarnackBoundSpec(0.5, 0.9), 1.5),
    "hopf-annulus": lambda: hopf_functional(annulus_metric(0.5), punctured_disk_metric(), 0.3),
    "hopf-halfplane": lambda: hopf_functional(half_plane_metric(), punctured_disk_metric(),
                                              0.3),
    "hopf-conical-annulus": lambda: hopf_conical_functional(annulus_metric(0.5), 0.5, 0.3),
}


@pytest.mark.parametrize("call", _OFF_DOMAIN.values(), ids=_OFF_DOMAIN.keys())
def test_a_point_off_the_domain_is_refused(call):
    with pytest.raises(OutsideDomain):
        call()


def test_ahlfors_phi_pullback_passes():
    lam = disk_metric()
    grid = cartesian_grid(50, 0.95)
    grid = grid[np.abs(grid) < 0.95]
    rep = ahlfors_check(pullback(lam, phi_map(), lam.domain), lam, grid)
    assert rep.passed
    assert rep.value < 0.0  # strictly below 1


def test_ahlfors_example1_pullback_passes():
    metric, pd = _pulled_example1()
    rep = ahlfors_check(metric, pd, polar_grid(50, 1e-3, 0.95))
    assert rep.passed


# Schwarz-Pick: a holomorphic self-map f of the disk pulls the disk density
# back to lambda(f(z)) |f'(z)| <= lambda(z), with equality for the
# automorphisms (identity, mobius). Points and mobius parameters lie up to
# 0.999 of the way to the edge; the worst excess over these examples is
# 5.8e-14 (mobius, a point 1e-3 from the edge), far inside the 1e-9 pullback
# tolerance.
_DISK_POINT = st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)),
                        st.floats(0.0, 0.999), st.floats(-math.pi, math.pi))
_DISK_SELF_MAPS = sorted(name for name, m in MAPS.items() if m.source == DomainModel.disk())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(_DISK_SELF_MAPS), a=_DISK_POINT,
       grid=st.lists(_DISK_POINT, min_size=1, max_size=40))
def test_ahlfors_ratio_of_disk_self_map_pullbacks_is_at_most_one(name, a, grid):
    make, source, takes_param = MAPS[name]
    lam = disk_metric()
    pulled = pullback(lam, make(a) if takes_param else make(), source)
    assert ahlfors_check(pulled, lam, np.array(grid)).passed


def test_beardon_minda_trivial_values():
    assert beardon_minda_bound(0.5, 0.0) == 0.5
    assert beardon_minda_bound(0.0, 0.9) == pytest.approx(math.tanh(1.8), rel=1e-15)
    assert beardon_minda_bound(0.5, 50.0) == pytest.approx(1.0, abs=1e-12)


def test_beardon_minda_monotonicity():
    ds = np.linspace(0.0, 3.0, 40)
    vals = [beardon_minda_bound(0.3, d) for d in ds]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    qs = np.linspace(0.0, 1.0, 40)
    vals = [beardon_minda_bound(q, 0.7) for q in qs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_beardon_minda_dominates_phi_distortion():
    lam = disk_metric()
    pulled = pullback(lam, phi_map(), lam.domain)
    q = 0.0
    dq = float(np.real(pulled.eval(q + 0j)) / np.real(lam.eval(q + 0j)))
    for z in sample_annular(51, 100, 0.02, 0.9):
        dz = float(np.real(pulled.eval(z)) / np.real(lam.eval(z)))
        bound = beardon_minda_bound(dq, dist_disk(z, q).value)
        assert dz <= bound + 1e-10


def test_beardon_minda_dominates_all_builtin_self_maps():
    from hypmetrics.maps import identity_map, mobius_map, square_map
    lam = disk_metric()
    for map_ in (identity_map(), square_map(), mobius_map(0.3 + 0.2j), phi_map()):
        pulled = pullback(lam, map_, lam.domain)
        zs = sample_annular(53, 30, 0.05, 0.85)
        qs = sample_annular(54, 30, 0.05, 0.85)
        for z, q in zip(zs, qs):
            dz = float(np.real(pulled.eval(z)) / np.real(lam.eval(z)))
            dq = float(np.real(pulled.eval(q)) / np.real(lam.eval(q)))
            assert dz <= beardon_minda_bound(dq, dist_disk(z, q).value) + 1e-10


def test_harnack_exponent_endpoints():
    spec = HarnackBoundSpec(0.1, 0.5)
    assert spec.exponent(0.1j) == pytest.approx(1.0, abs=1e-12)
    assert spec.exponent(0.01) == pytest.approx(0.5, abs=1e-12)
    # strictly increasing in |z| on (0, r)
    rs = np.geomspace(1e-6, 0.0999, 50)
    cs = [spec.exponent(complex(r_, 0)) for r_ in rs]
    assert all(b > a for a, b in zip(cs, cs[1:]))


def test_harnack_inequality_example1():
    metric, pd = _pulled_example1()
    M = boundary_max_ratio(metric, pd, 0.1)
    assert 0.0 < M < 1.0
    spec = HarnackBoundSpec(0.1, M)
    pts = polar_grid(25, 1e-6, 0.0999)[:500]
    lam = eval_many(metric, pts)
    bounds = np.array([harnack_bound(spec, pd, z) for z in pts])
    assert float(((bounds - lam) / bounds).min()) >= -1e-9


def test_harnack_conical_inequality_scaled_family():
    alpha, c, r = 0.5, 0.9, 0.5
    lam_alpha = conical_metric(alpha)
    metric = conical_scaled_metric(alpha, c)
    M = boundary_max_ratio(metric, lam_alpha, r)
    # the ratio is radial and decreasing, so the circle max is ratio(r)
    assert M == pytest.approx(c * (1 - r) / (1 - c * c * r), rel=1e-12)
    pts = polar_grid(15, 1e-4, r * 0.999)[:300]
    lam = eval_many(metric, pts)
    spec = HarnackBoundSpec(r, M)
    bounds = np.array([harnack_conical_bound(alpha, spec, z) for z in pts])
    assert float(((bounds - lam) / bounds).min()) >= -1e-9


# One call on an array gives the values of one call per point, and the range
# error names the first point out of range.
@pytest.mark.parametrize("bound", [
    lambda z: harnack_bound(HarnackBoundSpec(0.1, 0.5), punctured_disk_metric(), z),
    lambda z: harnack_conical_bound(0.5, HarnackBoundSpec(0.1, 0.9), z),
], ids=["harnack", "harnack-conical"])
def test_harnack_bounds_take_a_point_or_an_array(bound):
    pts = polar_grid(5, 1e-4, 0.0999)
    values = bound(pts)
    assert isinstance(bound(pts[0]), float)
    assert values == pytest.approx([bound(z) for z in pts], rel=1e-15, abs=0.0)
    with pytest.raises(OutsideDomain, match=r"got \(0\.2\+0j\)"):
        bound(np.array([0.05, 0.2, 0.3 + 0.1j]))


# the conical bound took r and M bare: at z = 0.1 it gave 1.897 for M = 2
# (above lambda_alpha = 1.757), 0.0 for M = 0, a complex number for M = -1,
# and OutsideDomain for r = 1
@pytest.mark.parametrize("r, M", [(0.5, 2.0), (0.5, 0.0), (0.5, -1.0), (1.0, 0.5)])
def test_conical_harnack_bound_refuses_bad_data(r, M):
    with pytest.raises(BadParameter):
        harnack_conical_bound(0.5, HarnackBoundSpec(r, M), 0.1)
    with pytest.raises(TypeError):  # r and M come only through the spec that checks them
        harnack_conical_bound(0.5, r, M, 0.1)


def test_hopf_functional_zero_for_identical_metrics():
    pd = punctured_disk_metric()
    assert hopf_functional(pd, pd, 0.037) == 0.0


def test_hopf_functional_limit_pdiskR():
    # log ratio * L = -L log(1 + log R / L) -> -log R
    pd = punctured_disk_metric()
    for R, target in [(math.e, -1.0), (math.e ** 2, -2.0)]:
        fam = punctured_disk_metric_r(R)
        values, xs = [], []
        for k in range(2, 9):
            z = complex(10.0 ** (-k), 0.0)
            values.append(hopf_functional(fam, pd, z))
            xs.append(1.0 / math.log(1.0 / abs(z)))
        est = extrapolate(values, xs=xs)
        assert est.value == pytest.approx(target, abs=2e-2)
        # raw value at k=8 is still ~1/(2L) away from the limit
        assert abs(values[-1] - target) > 1e-2


def test_hopf_functionals_take_an_array():
    fam, pd = punctured_disk_metric_r(math.e), punctured_disk_metric()
    pts = polar_grid(10, 1e-6, 0.9)
    values = hopf_functional(fam, pd, pts)
    assert values.shape == pts.shape
    assert values.tolist() == [hopf_functional(fam, pd, z) for z in pts]
    conical = hopf_conical_functional(fam, 0.5, pts)
    assert conical.tolist() == [hopf_conical_functional(fam, 0.5, z) for z in pts]
    assert type(hopf_functional(fam, pd, 0.3)) is float


# log(1/|z|) is -log|z|: 1/|z| overflowed below |z| ~ 5.6e-309, which gave
# -inf with a RuntimeWarning
@pytest.mark.parametrize("z", [1e-310, 5e-324])
def test_hopf_functional_at_a_subnormal_radius(z):
    value = hopf_functional(punctured_disk_metric_r(2.0), punctured_disk_metric(), z)
    # log ratio * L = -L log(1 + log 2 / L) with L = log(1/|z|), near -log 2;
    # the two log densities (~737) cancel to ~1e-3, which costs ~1e-10
    L = -math.log(z)
    assert value == pytest.approx(-L * math.log1p(math.log(2.0) / L), rel=1e-9)


# Fewer than three finite values leave nothing to extrapolate: the last
# finite value is returned, or nan when there is none, with no trend.
@pytest.mark.parametrize("values, expected", [
    ([math.nan, math.inf], math.nan),
    ([], math.nan),
    ([math.nan, -0.5, math.inf, -0.7], -0.7),
    ([-0.5], -0.5),
], ids=["no-finite", "empty", "two-finite", "one"])
def test_extrapolate_short_input(values, expected):
    est = extrapolate(values, xs=[0.1 * (i + 1) for i in range(len(values))])
    assert est.method == "last" and not est.trend_ok
    assert est.value == pytest.approx(expected, nan_ok=True)
    assert est.raw_last == pytest.approx(expected, nan_ok=True)


# Richardson in the sequence's own variable is exact on a quadratic in it; the
# Aitken branch that a 0.55 ratio test once chose here was 1.9e-6 and 5.3e-6 off
@pytest.mark.parametrize("a, b", [(0.3, 2.0), (-1.0, 5.0)])
def test_extrapolate_is_exact_on_a_quadratic_in_its_variable(a, b):
    xs = [10.0 ** -k for k in range(1, 5)]
    est = extrapolate([-1.0 / 6.0 + a * x + b * x * x for x in xs], xs=xs)
    assert est.method == "richardson"
    assert abs(est.value + 1.0 / 6.0) <= 1e-15


def test_hopf_functional_nonpositive_whenever_ahlfors_holds():
    metric, pd = _pulled_example1()
    for z in polar_grid(10, 1e-4, 0.9):
        assert hopf_functional(metric, pd, z) <= 0.0


def test_hopf_functional_raises_on_zero_density():
    # the pullback of example1 vanishes at the root of 1 - 4z + z^2; in
    # floating point the root is only approximate, so drive the error path
    # with an exactly vanishing density
    pd = punctured_disk_metric()
    zero = MetricDensity(pd.domain, lambda z: 0.0 * np.real(z), "zero",
                         lambda z: np.full(np.shape(z), -np.inf))
    with pytest.raises(NonpositiveDensity, match=r"^densities must be positive at z=\(0\.3\+0j\)$"):
        hopf_functional(zero, pd, 0.3)
    with pytest.raises(NonpositiveDensity, match=r"^density must be positive at z=\(0\.3\+0j\)$"):
        hopf_conical_functional(zero, 0.5, 0.3)
    with pytest.raises(NonpositiveDensity, match=r"at z=\(0\.2\+0j\)$"):  # the first point
        hopf_functional(zero, pd, np.array([0.2, 0.3]))
    metric, pd = _pulled_example1()
    z0 = 2.0 - math.sqrt(3.0)
    assert float(np.real(metric.eval(complex(z0, 0.0)))) < 1e-12


def test_hopf_conical_functional_trivial_and_divergent():
    alpha = 0.5
    lam_alpha = conical_metric(alpha)
    assert hopf_conical_functional(lam_alpha, alpha, 0.2) == pytest.approx(0.0,
                                                                           abs=1e-12)
    scaled = conical_scaled_metric(alpha, 0.9)
    vals = [hopf_conical_functional(scaled, alpha, 10.0 ** (-k)) for k in range(1, 7)]
    assert all(v < 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))  # diverges to -inf


# the weight |z|^(2(alpha-1)) overflows at a subnormal |z|; it raised a bare
# OverflowError
def test_hopf_conical_functional_overflow_is_refused():
    with pytest.raises(NumericOverflow,
                       match=r"^Hopf functional at z=\(1e-310\+0j\) is not finite"):
        hopf_conical_functional(conical_scaled_metric(0.5, 0.9), 0.5, 1e-310)


def test_aux_v_values():
    assert aux_v(math.exp(-2.0)) == pytest.approx(0.5, rel=1e-15)
    assert aux_v_alpha(0.0, 1.0 / math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(OutsideDomain):
        aux_v(0.0)


# aux_v took 1/log(1/|z|), in which 1/|z| rounds: 2.3e-11, 1.0e-10 and 1.1e-3 off
# at these points
@pytest.mark.parametrize("x", [1.0 - 1e-6, 1.0 - 1e-10, 1.0 - 1e-13])
def test_aux_v_near_the_circle_against_mpmath(x):
    with mp.workdps(50):
        exact = -1 / mp.log(mp.mpf(x))
        assert abs(aux_v(x) - exact) <= 1e-15 * exact


# v_alpha took p/(1 - p) with p = |z|^(2(1-alpha)) rounded, so 1 - p cancelled:
# 1.1e-11 off at alpha = 0, |z| = 1 - 1e-6, and 1.1e-3 at alpha = 0.9, 1 - 1e-13
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9])
@pytest.mark.parametrize("x", [1.0 - 1e-6, 1.0 - 1e-10, 1.0 - 1e-13])
def test_aux_v_alpha_near_the_circle_against_mpmath(alpha, x):
    with mp.workdps(50):
        p = mp.mpf(x) ** (2 * (1 - mp.mpf(alpha)))
        exact = p / (1 - p)
        assert abs(aux_v_alpha(alpha, x) - exact) <= 1e-15 * exact


def test_aux_v_alpha_differential_inequality():
    # v_alpha is a supersolution: Laplacian(v_alpha) >= 8 lambda_alpha^2 v_alpha
    def lap(f, z, h=1e-4):
        return (f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4 * f(z)) / h ** 2

    for alpha in (-0.5, 0.3, 0.7):
        lam = conical_metric(alpha)
        for rho in np.geomspace(0.05, 0.9, 20):
            z = complex(rho, 0.0)
            lhs = lap(lambda w: aux_v_alpha(alpha, w), z)
            rhs = 8.0 * float(np.real(lam.eval(z))) ** 2 * aux_v_alpha(alpha, z)
            assert lhs >= rhs - 1e-6


def test_radial_solution_space():
    checks = radial_solution_space_check(h=1e-4)
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    assert any("negative-control" in n for n in names)


@pytest.mark.parametrize("h", [0.0, -1e-4, math.nan])
def test_radial_solution_space_refuses_bad_stencil(h):
    with pytest.raises(BadParameter, match="stencil size must be positive"):
        radial_solution_space_check(h=h)


# The stencils of step h and 10h round radii 0.25-0.8 stay in the punctured
# disk only for h < 0.02 (0.8 + 10h < 1 and 0.25 - 10h > 0).
@pytest.mark.parametrize("h", [0.02, 0.03, 0.5, 1.0, math.inf])
def test_radial_solution_space_refuses_stencils_outside_the_disk(h):
    with np.errstate(all="raise"):  # refused before any stray evaluation
        with pytest.raises(StencilOutsideDomain, match="leaves pdisk"):
            radial_solution_space_check(h=h)


# h = 1e-300 underflows h^2 to 0, and at 1e-17 the stencil points round onto
# the radii: either gave nan or noise residuals instead of an error.
@pytest.mark.parametrize("h", [1e-300, 1e-17])
def test_radial_solution_space_refuses_stencils_lost_to_rounding(h):
    with np.errstate(all="raise"):  # refused before dividing by h^2
        with pytest.raises(StencilOutsideDomain, match="lost to rounding"):
            radial_solution_space_check(h=h)


def test_radial_solution_space_evaluates_stencils_just_inside_the_disk():
    with np.errstate(all="raise"):
        checks = radial_solution_space_check(h=0.0199)
    assert all(np.isfinite(c.value) for c in checks)
