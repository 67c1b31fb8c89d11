"""Hyperbolic distances: closed forms, lifts, deck minimization, constants."""
import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

from hypmetrics.distances import (DistanceMethod, comparability_constants,
                                  covering_decay_ratio, dist_annulus,
                                  dist_disk, dist_halfplane,
                                  dist_punctured_disk, dist_strip)
from hypmetrics import distances
from hypmetrics.errors import HypMetricsError, NumericOverflow, OutsideDomain, SingularPoint
from hypmetrics.inequalities import (aux_v, aux_v_alpha, hopf_conical_functional,
                                     hopf_functional)
from hypmetrics.maps import mobius_map, phi_map, square_map
from hypmetrics.metrics import (annulus_metric, density_at, log_density_at,
                                punctured_disk_metric)
from hypmetrics.oracle import geodesic_oracle
from hypmetrics.sampling import sample_annular, sample_log_annular
from hypmetrics.specparse import domain_distance, domain_metric, parse_domain
from hypmetrics.witnesses import example1_ratio


def test_disk_radial_formula():
    # d_D(w, 0) = (1/2) log((1+|w|)/(1-|w|))
    res = dist_disk(0.0, 0.5)
    assert res.value == pytest.approx(0.5 * math.log(3.0), rel=1e-15)
    assert res.method is DistanceMethod.CLOSED_FORM


def test_disk_coincident_points():
    assert dist_disk(0.3 + 0.4j, 0.3 + 0.4j).value == 0.0


def test_disk_mobius_reduction():
    # invariance: d(0.3i, -0.3i) equals the radial distance of the Mobius image
    rho = abs((0.3j - (-0.3j)) / (1 - (0.3j).conjugate() * (-0.3j)))
    assert dist_disk(0.3j, -0.3j).value == pytest.approx(dist_disk(0.0, rho).value,
                                                         rel=1e-14)


def test_halfplane_values():
    assert dist_halfplane(1j, 1j).value == 0.0
    assert dist_halfplane(1j, 2j).value == pytest.approx(0.5 * math.log(2.0), rel=1e-14)
    assert dist_halfplane(1j, 1 + 1j).value == pytest.approx(0.5 * math.acosh(1.5),
                                                             rel=1e-14)


@pytest.mark.parametrize("z1,z2", [
    (1 - 1e-9, -(1 - 1e-9) * 1j), (0.999999999999, 0.999999999999j),
    (0.3 + 0.2j, -0.5j), (0.9, 0.0), (0.5, 0.5 + 1e-12j)])
def test_disk_distance_matches_mpmath(z1, z2):
    # near the edge rho = |(z1 - z2)/(1 - conj(z1) z2)| rounds to 1
    w1, w2 = mp.mpc(complex(z1)), mp.mpc(complex(z2))
    with mp.workdps(50):
        exact = float(mp.atanh(abs((w1 - w2) / (1 - mp.conj(w1) * w2))))
    assert dist_disk(z1, z2).value == pytest.approx(exact, rel=1e-15)


def test_halfplane_extreme_heights():
    # squaring |dw| or multiplying the heights would overflow or underflow
    assert dist_halfplane(1e-300j, 1e300j).value == pytest.approx(300.0 * math.log(10.0),
                                                                  rel=1e-14)
    assert dist_halfplane(1e-300j, 2e-300j).value == pytest.approx(0.5 * math.log(2.0),
                                                                   rel=1e-14)


def _exact_distance(domain: str, z1: complex, z2: complex):
    """The half-plane or strip distance in mpmath at 50 digits, at the exact doubles;
    the strip through w = e^(pi z / h), which maps it onto the half-plane."""
    with mp.workdps(50):
        w1, w2 = mp.mpc(z1.real, z1.imag), mp.mpc(z2.real, z2.imag)
        if domain == "halfplane":
            return mp.asinh(abs(w1 - w2) / (2 * mp.sqrt(w1.imag) * mp.sqrt(w2.imag)))
        h = mp.mpf(float(domain.partition(":")[2]))
        dw = (w1 - w2) * mp.pi / h
        num = mp.sqrt(mp.sinh(dw.real / 2) ** 2 + mp.sin(dw.imag / 2) ** 2)
        return mp.asinh(num / mp.sqrt(mp.sin(mp.pi * w1.imag / h) * mp.sin(mp.pi * w2.imag / h)))


# |w1 - w2|, its quotient by the heights, a1 - a2 or sin b1 sin b2 of the
# strip's formula leave the double range here: these distances printed inf, or
# raised ZeroDivisionError or ValueError. From ("strip:1.5e308", ...) on, pi Im z
# overflows, or a product of heights or q falls below the normal range: these
# raised ValueError or ZeroDivisionError, read a silent 0, or were 1.1e-15 to
# 1.5e-4 off
@pytest.mark.parametrize("domain,z1,z2", [
    ("halfplane", 1j, 1e308 + 1e-308j),
    ("halfplane", 5e-324j, 1e10 + 5e-324j),
    ("halfplane", -1e308 + 1j, 1e308 + 1j),
    ("halfplane", -1e308 + 1e308j, 1e308 + 1e308j),
    ("halfplane", -1e308 + 1e-300j, 1e308 + 3j),
    ("strip:1", 0.5j, 1e308 + 0.5j),
    ("strip:1", 1e-300j, 1 + 1e-300j),
    ("strip:1", 1e-300j, 1000 + 1e-300j),
    ("strip:1", 1e-100j, 95 + 1e-100j),
    ("strip:1", 1e-300j, 1e-300 + 1e-300j),
    ("strip:1", 1e-300j, 1e-300j),
    ("strip:1", 1e-200j, 1 + 1e-160j),
    ("strip:4", -1e308 + 1j, 1e308 + 1j),
    ("strip:1e308", -1e308 + 5e307j, 1e308 + 5e307j),
    ("strip:1.5e308", 1e308j, 1 + 1e308j),
    ("halfplane", 1e-320j, 2e-320j),
    ("strip:1", 1e-320j, 2e-320j),
    ("strip:10", 5e-324j, 1 + 5e-324j),
    ("strip:1", 0.5j, 1e-170 + 0.5j),
    ("strip:1", 1e-155j, 2e-155j),
    ("halfplane", 1e-317j, 6e-306j),
    ("strip:1e183", 4e-132j, 1.7e-16j),
    # Re(z1 - z2) overflows at subnormal heights: halving the points took the heights
    # to 0 (ValueError); strip:1 is 3.14e308, past the double range
    ("strip:1", -1e308 + 5e-324j, 1e308 + 5e-324j),
    ("strip:10", -1e308 + 5e-324j, 1e308 + 5e-324j),
    ("strip:1e10", -1e308 + 5e-324j, 1e308 + 5e-324j),
    # |w1 - w2| overflows while both parts are finite: abs(dw) raised OverflowError
    ("halfplane", 1j, 1.5e308 + 1.5e308j),
    ("halfplane", 1e-300j, 1.5e308 + 1.5e308j),
    # pi Re(z1 - z2) overflows before the division by h, and the pair read as far
    # apart: 1454.0623470044927, 3e-5 off
    ("strip:1e308", -5e307 + 5e-324j, 5e307 + 5e-324j),
    # coincident points where the heights alone would put the quotient past 2^1024
    ("halfplane", 5e-324j, 5e-324j),
    ("strip:1", 5e-324j, 5e-324j),
])
def test_distances_at_extreme_coordinates(domain, z1, z2):
    exact = float(_exact_distance(domain, z1, z2))
    if exact == math.inf:
        with pytest.raises(NumericOverflow, match="is not finite in double precision"):
            domain_distance(parse_domain(domain), z1, z2)
        return
    got = domain_distance(parse_domain(domain), z1, z2).value
    assert got == pytest.approx(exact, rel=1e-15, abs=0.0)


def _coordinate(rnd: random.Random, lo: int = -1074) -> float:
    """A double from 2^lo to 2^1023, with an exponent uniform in that range."""
    return math.ldexp(rnd.uniform(1.0, 2.0), rnd.randint(lo, 1022))


def _nearby(rnd: random.Random, x: float) -> float:
    """x moved by a few ulps, or by up to a tenth of itself."""
    if rnd.random() < 0.5:
        return x + rnd.randint(-3, 3) * math.ulp(x)
    return x * (1.0 + rnd.uniform(-1.0, 1.0) * 10.0 ** rnd.uniform(-15.0, -1.0))


@pytest.mark.parametrize("domain", ["halfplane", "strip"])
def test_closed_forms_across_the_double_range(domain):
    # heights, real parts and strip heights h from 5e-324 to 1.8e308, a third of the
    # pairs nearly coincident; strip points at most h/2 high. A distance below the
    # normal range is rounded to the subnormal grid, an ulp of 0 apart
    rnd = random.Random(29)
    for _ in range(600):
        h = _coordinate(rnd, -1000)
        top = h / 2.0 if domain == "strip" else math.inf

        def height(y: float) -> float:
            return min(max(y, math.ulp(0.0)), top)

        y1 = height(_coordinate(rnd))
        x1 = rnd.choice((-1.0, 0.0, 1.0)) * _coordinate(rnd)
        if rnd.random() < 1.0 / 3.0:
            x2, y2 = _nearby(rnd, x1), height(_nearby(rnd, y1))
        else:
            x2 = rnd.choice((-1.0, 0.0, 1.0)) * _coordinate(rnd)
            y2 = height(_coordinate(rnd))
        z1, z2 = complex(x1, y1), complex(x2, y2)
        if domain == "halfplane":
            exact, dist = _exact_distance(domain, z1, z2), lambda: dist_halfplane(z1, z2)
        else:
            exact, dist = _exact_distance(f"strip:{h!r}", z1, z2), lambda: dist_strip(z1, z2, h)
        if float(exact) == math.inf:
            with pytest.raises(NumericOverflow):
                dist()
            continue
        assert dist().value == pytest.approx(float(exact), rel=1e-15, abs=math.ulp(0.0)), \
            (z1, z2, h)


def test_a_strip_distance_past_the_double_range_is_refused():
    # (pi/2) 1e10 / 1e-300 = 1.57e310
    with pytest.raises(NumericOverflow, match=r"^distance from z=5e-301j to "
                                              r"z=\(10000000000\+5e-301j\) in strip:1e-300 is "
                                              r"not finite in double precision$"):
        dist_strip(5e-301j, 1e10 + 5e-301j, 1e-300)


def test_punctured_disk_same_ray():
    # (1/2) |log(log|z| / log|q|)| for points on one ray
    res = dist_punctured_disk(0.01, 0.1)
    assert res.value == pytest.approx(0.5 * math.log(2.0), rel=1e-12)
    assert res.method is DistanceMethod.LIFT_MINIMIZATION
    assert res.deck_index == 0


def test_punctured_disk_antipodal_uses_angle():
    res = dist_punctured_disk(0.1, -0.1)
    L = math.log(10.0)
    expected = 0.5 * math.acosh(1.0 + math.pi ** 2 / (2.0 * L * L))
    assert res.value == pytest.approx(expected, rel=1e-12)


def test_annulus_core_circle_first_order_length():
    # the circle |z| = sqrt(r) is the core geodesic: for small angle theta the
    # distance is density * arclength + O(theta^3)
    r = 0.5
    x0 = math.sqrt(r)
    theta = 1e-3
    lam = float(np.real(annulus_metric(r).eval(complex(x0, 0.0))))
    expected = lam * x0 * theta
    got = dist_annulus(x0, x0 * complex(math.cos(theta), math.sin(theta)), r).value
    assert got == pytest.approx(expected, abs=1e-6)


def test_annulus_strip_closed_form():
    # real points: d = (1/2) arccosh(1/sin(pi L / s)) relative to sqrt(r)
    r = 0.5
    s = math.log(1.0 / r)
    for x in (0.7, 0.9, 0.99):
        L = math.log(1.0 / x)
        expected = 0.5 * math.acosh(1.0 / math.sin(math.pi * L / s))
        assert dist_annulus(x, math.sqrt(r), r).value == pytest.approx(expected,
                                                                       rel=1e-12)


def test_annulus_boundary_asymptotic_is_minus_half_loglog():
    r = 0.5
    diffs = []
    for k in range(2, 7):
        x = 1.0 - 10.0 ** (-k)
        d = dist_annulus(x, math.sqrt(r), r).value
        diffs.append(d + 0.5 * math.log(math.log(1.0 / x)))
    # bounded difference (tends to log(2s/pi)/2)
    assert max(diffs) - min(diffs) < 0.05
    expected_const = 0.5 * math.log(2.0 * math.log(2.0) / math.pi)
    assert diffs[-1] == pytest.approx(expected_const, abs=1e-3)


def _hard_pairs(radii):
    """Antipodal pairs at many angles, and pairs on both sides of the branch
    cut of arg (including the signed zeros), where deck ties and |k| = 1
    minima occur."""
    pairs = []
    for a in radii:
        for b in radii:
            for theta in np.linspace(-math.pi, math.pi, 25):
                u = complex(math.cos(theta), math.sin(theta))
                pairs.append((a * u, -b * u))
            pairs += [(complex(-a, 0.0), complex(-b, -0.0)),
                      (complex(-a, -0.0), complex(-b, 0.0)),
                      (complex(-a, 1e-12), complex(-b, -1e-12)),
                      (complex(-a, 0.1 * a), complex(-b, -0.1 * b))]
    return pairs


def _wide_scan(value_at_k):
    """Reference deck minimum: first argmin over k in [-64, 64]."""
    vals = [value_at_k(k) for k in range(-64, 65)]
    i = int(np.argmin(vals))
    return vals[i], i - 64


def test_deck_minimum_matches_wide_scan():
    two_pi = 2.0 * math.pi
    for z1, z2 in _hard_pairs((1e-6, 0.05, 0.3, 0.9)):
        dw, j, y1, y2 = distances._lifts(z1, z2)
        res = dist_punctured_disk(z1, z2)
        want = _wide_scan(
            lambda k: distances._halfplane_value([dw + two_pi * (j + k)], y1, y2)[0])
        assert (res.value, res.deck_index) == want, (z1, z2)
    r = 0.5
    s = math.log(1.0 / r)
    for z1, z2 in _hard_pairs((0.51, 0.7, 0.99)):
        dw, j, y1, y2 = distances._lifts(z1, z2)
        res = dist_annulus(z1, z2, r)
        want = _wide_scan(
            lambda k: distances._strip_value([dw + two_pi * (j + k)], y1, y2, s)[0])
        assert (res.value, res.deck_index) == want, (z1, z2)


_PD = punctured_disk_metric()

# every function that takes a point, with the label of the domain it checks
# the point against
POINT_CHECKS = {
    lambda z: dist_disk(z, 0.1): "disk",
    lambda z: dist_halfplane(z, 1j): "halfplane",
    lambda z: dist_strip(z, 0.5j, 1.0): "strip:1.0",
    lambda z: dist_punctured_disk(z, 0.1): "pdisk",
    lambda z: dist_annulus(z, 0.7, 0.5): "annulus:0.5",
    lambda z: domain_distance(parse_domain("pdiskR:2"), 0.1, z): "pdiskR:2.0",
    covering_decay_ratio: "disk",
    comparability_constants: "pdisk",
    aux_v: "pdisk",
    lambda z: aux_v_alpha(0.5, z): "pdisk",
    lambda z: hopf_functional(_PD, _PD, z): "pdisk",
    lambda z: hopf_conical_functional(_PD, 0.5, z): "pdisk",
    example1_ratio: "pdisk",
    lambda z: density_at(annulus_metric(0.5), z): "annulus:0.5",
    lambda z: log_density_at(_PD, z): "pdisk",
    lambda z: geodesic_oracle(parse_domain("strip:1"), 0.5j, z, 100): "strip:1.0",
}


# 2.5 lies outside each of these domains; pdiskR:2 must name 2.5, not 2.5/2
@pytest.mark.parametrize("call", POINT_CHECKS)
def test_distances_reject_nonfinite(call):
    for z in (complex(math.nan, 0.5), complex(math.inf, 0.5), complex(0.5, math.nan), 2.5):
        with pytest.raises(OutsideDomain) as info:
            call(z)
        assert str(info.value) == f"z={complex(z)} is not in {POINT_CHECKS[call]}"


def test_the_puncture_is_a_singular_point():
    for call in (lambda: density_at(_PD, 0.0), lambda: dist_punctured_disk(0.1, 0.0),
                 lambda: domain_distance(parse_domain("pdiskR:2"), 0j, 0.1),
                 lambda: dist_annulus(0.0, 0.7, 0.5), lambda: aux_v(0.0)):
        with pytest.raises(SingularPoint, match=r"^z=0j is not in (pdisk|pdiskR:2|annulus:0)"):
            call()


def test_radius_r_points_are_not_scaled():
    # 1e-300 / 1e300 underflows to 0; the lift log R - log|z| keeps both
    # points on the positive axis at heights 600 log 10 and 301 log 10
    d = domain_distance(parse_domain("pdiskR:1e300"), 1e-300, 0.1)
    assert d.value == pytest.approx(0.5 * math.log(600.0 / 301.0), rel=1e-15)
    assert domain_distance(parse_domain("pdiskR:2"), 1.5, 1.5j).value == pytest.approx(
        dist_punctured_disk(0.75, 0.75j).value, rel=1e-15)


def test_symmetry_and_triangle_inequality():
    rng = np.random.Generator(np.random.PCG64(99))
    pts = sample_annular(31, 30, 0.1, 0.85)
    for _ in range(200):
        z1, z2, z3 = rng.choice(pts, 3)
        d12 = dist_disk(z1, z2).value
        d21 = dist_disk(z2, z1).value
        assert d12 == pytest.approx(d21, abs=1e-9)
        assert d12 <= dist_disk(z1, z3).value + dist_disk(z3, z2).value + 1e-9
    pts = sample_log_annular(37, 30, 1e-3, 0.85)
    for _ in range(200):
        z1, z2, z3 = rng.choice(pts, 3)
        d12 = dist_punctured_disk(z1, z2).value
        assert d12 == pytest.approx(dist_punctured_disk(z2, z1).value, abs=1e-9)
        assert d12 <= (dist_punctured_disk(z1, z3).value
                       + dist_punctured_disk(z3, z2).value + 1e-9)


@pytest.mark.parametrize("map_", [square_map(), phi_map(), mobius_map(0.3 + 0.2j)])
def test_schwarz_pick_contraction(map_):
    pts = sample_annular(41, 40, 0.05, 0.9)
    for z1, z2 in zip(pts[:20], pts[20:]):
        w1, w2 = complex(map_.value(z1)), complex(map_.value(z2))
        assert dist_disk(w1, w2).value <= dist_disk(z1, z2).value + 1e-12


def test_domain_monotonicity_of_distance():
    # D >= D' >= A_r pointwise domains give increasing distances
    pts = sample_annular(43, 20, 0.55, 0.9)
    for z1, z2 in zip(pts[:10], pts[10:]):
        dd = dist_disk(z1, z2).value
        dp = dist_punctured_disk(z1, z2).value
        da = dist_annulus(z1, z2, 0.5).value
        assert dd <= dp + 1e-12
        assert dp <= da + 1e-12


def test_strip_distance_matches_halfplane_transport():
    # map the strip onto H with exp(pi z / h) and compare
    h = 2.0
    z1, z2 = 0.3 + 0.5j, -1.2 + 1.4j
    w1 = complex(np.exp(math.pi * z1 / h))
    w2 = complex(np.exp(math.pi * z2 / h))
    assert dist_strip(z1, z2, h).value == pytest.approx(
        dist_halfplane(w1, w2).value, rel=1e-12)


def test_comparability_constants():
    c1, c2, gamma = comparability_constants(0.1)
    assert c2 == pytest.approx(math.log(10.0) + math.pi, rel=1e-15)
    # the antipodal point maximizes the circle distance by symmetry
    assert gamma == pytest.approx(dist_punctured_disk(-0.1, 0.1).value, abs=1e-9)
    assert c1 == pytest.approx(math.log(10.0) * math.exp(-2.0 * gamma), rel=1e-12)
    assert 0.0 < c1 < c2


def test_comparability_sandwich():
    q = 0.1
    c1, c2, _ = comparability_constants(q)
    for arg in (0.0, math.pi / 3.0, math.pi, 2.5):
        for rho in np.geomspace(1e-8, 0.1, 50):
            z = rho * complex(math.cos(arg), math.sin(arg))
            val = math.log(1.0 / rho) * math.exp(-2.0 * dist_punctured_disk(z, q).value)
            assert c1 - 1e-12 <= val <= c2 + 1e-12


def test_covering_decay_ratio():
    assert covering_decay_ratio(0.0) == pytest.approx(1.0, abs=1e-15)
    assert covering_decay_ratio(0.9) == pytest.approx(1.0 / 1.9, abs=1e-12)
    seq = [covering_decay_ratio(1.0 - 10.0 ** (-k)) for k in (1, 2, 3)]
    assert seq[0] > seq[1] > seq[2]
    assert seq[2] == pytest.approx(0.5, abs=5e-4)
    with pytest.raises(OutsideDomain):
        covering_decay_ratio(1.0)


def _point_in(dom, u, v):
    """The point of dom at fraction u between the edges of |z| (radial kinds) or
    Im z (the half-plane is cut at Im z = 100), at angle or real part v."""
    if dom.radial:
        lo = max(dom.lo, 0.0)
        return (lo + u * (dom.hi - lo)) * complex(math.cos(v), math.sin(v))
    return complex(v, u * min(dom.hi, 100.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spec=st.sampled_from(["disk", "pdisk", "pdiskR:2.5", "annulus:0.5", "halfplane",
                             "strip:2.0"]),
       u=st.floats(1e-3, 1.0 - 1e-3), v=st.floats(-math.pi, math.pi),
       phi=st.floats(-math.pi, math.pi))
def test_short_distance_is_density_times_length(spec, u, v, phi):
    # d(z, z + eps) = lambda(z) |eps| (1 + O(|eps|)); nearly coincident points
    # must not lose the separation to rounding (1 + q, cosh - cos)
    dom = parse_domain(spec)
    z = _point_in(dom, u, v)
    z2 = z + 1e-8 * dom.boundary_distance(z) * complex(math.cos(phi), math.sin(phi))
    d = domain_distance(dom, z, z2).value
    assert abs(d / (density_at(domain_metric(dom), z) * abs(z2 - z)) - 1.0) <= 1e-3


# Metric axioms and isometries, 0.1% to 99.9% of the way across each domain.
# Transforming a point rounds it by an ulp or so, which moves a distance by
# ~1e-13 at most here: hence the absolute floor under the 1e-9 relative bound.
_SPECS = ["disk", "pdisk", "pdiskR:2.5", "annulus:0.5", "halfplane", "strip:2.0"]
_U = st.floats(1e-3, 1.0 - 1e-3)
_V = st.floats(-math.pi, math.pi)
_ISOMETRY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _close(a: float, b: float) -> bool:
    return a == pytest.approx(b, rel=1e-9, abs=1e-12)


@_ISOMETRY
@given(spec=st.sampled_from(_SPECS), u=st.tuples(_U, _U, _U), v=st.tuples(_V, _V, _V))
def test_distance_is_symmetric_and_satisfies_the_triangle_inequality(spec, u, v):
    dom = parse_domain(spec)
    a, b, c = (_point_in(dom, ui, vi) for ui, vi in zip(u, v))
    d = lambda z1, z2: domain_distance(dom, z1, z2).value
    assert _close(d(a, b), d(b, a))
    assert d(a, c) <= (1.0 + 1e-9) * (d(a, b) + d(b, c)) + 1e-12


@_ISOMETRY
@given(spec=st.sampled_from(["pdisk", "pdiskR:2.5", "annulus:0.5"]),
       u=st.tuples(_U, _U), v=st.tuples(_V, _V), theta=_V)
def test_distance_is_invariant_under_rotation(spec, u, v, theta):
    dom = parse_domain(spec)
    a, b = (_point_in(dom, ui, vi) for ui, vi in zip(u, v))
    turn = complex(math.cos(theta), math.sin(theta))
    assert _close(domain_distance(dom, turn * a, turn * b).value,
                  domain_distance(dom, a, b).value)


@_ISOMETRY
@given(spec=st.sampled_from(["halfplane", "strip:2.0"]), u=st.tuples(_U, _U),
       v=st.tuples(_V, _V), shift=st.floats(-100.0, 100.0))
def test_distance_is_invariant_under_real_translation(spec, u, v, shift):
    dom = parse_domain(spec)
    a, b = (_point_in(dom, ui, vi) for ui, vi in zip(u, v))
    assert _close(domain_distance(dom, a + shift, b + shift).value,
                  domain_distance(dom, a, b).value)


@_ISOMETRY
@given(u=st.tuples(_U, _U, _U), v=st.tuples(_V, _V, _V))
def test_disk_distance_is_invariant_under_mobius_maps(u, v):
    dom = parse_domain("disk")
    a, b, c = (_point_in(dom, ui, vi) for ui, vi in zip(u, v))
    f = mobius_map(c)
    assert _close(dist_disk(complex(f.value(a)), complex(f.value(b))).value,
                  dist_disk(a, b).value)


# Each kind of _SPECS written out, so that the property below does not lean
# on DomainModel.contains; points on an edge or not finite lie outside.
_INSIDE = {
    "disk": lambda z: abs(z) < 1.0,
    "pdisk": lambda z: 0.0 < abs(z) < 1.0,
    "pdiskR:2.5": lambda z: 0.0 < abs(z) < 2.5,
    "annulus:0.5": lambda z: 0.5 < abs(z) < 1.0,
    "halfplane": lambda z: 0.0 < z.imag,
    "strip:2.0": lambda z: 0.0 < z.imag < 2.0,
}
_COORD = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, -1.0]))
_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec=st.sampled_from(_SPECS),
       z=st.one_of(st.builds(complex, _NONFINITE, _COORD), st.builds(complex, _COORD, _NONFINITE),
                   st.builds(complex, _COORD, _COORD)),
       u=_U, v=_V)
def test_points_outside_the_domain_raise_typed_errors(spec, z, u, v):
    # never a NaN, an inf or a value: a HypMetricsError, before any solve
    assume(not (cmath.isfinite(z) and _INSIDE[spec](z)))
    dom = parse_domain(spec)
    good = _point_in(dom, u, v)
    for call in (lambda: domain_distance(dom, z, good), lambda: domain_distance(dom, good, z),
                 lambda: density_at(domain_metric(dom), z),
                 lambda: geodesic_oracle(dom, z, good, 100),
                 lambda: geodesic_oracle(dom, good, z, 100)):
        with pytest.raises(HypMetricsError):
            call()


@pytest.mark.parametrize("call, expected", [
    (lambda: dist_halfplane(1j, 1j + 1e-8), 5e-9),
    (lambda: dist_strip(0.5j, 0.5j + 1e-9j, 1.0), 0.5e-9 * math.pi),
    (lambda: dist_punctured_disk(0.5, 0.5 + 1e-9), 1e-9 / math.log(2.0)),
], ids=["halfplane", "strip", "pdisk"])
def test_nearly_coincident_points_keep_their_distance(call, expected):
    assert call().value == pytest.approx(expected, rel=1e-6)



def _lifted_distance_mp(z1: complex, z2: complex, r=None):
    """Punctured-disk (r None) or annulus distance of the exact float points
    z1, z2, from their 50-digit lifts."""
    with mp.workdps(50):
        w1, w2 = mp.mpc(z1.real, z1.imag), mp.mpc(z2.real, z2.imag)
        y1, y2 = -mp.log(abs(w1)), -mp.log(abs(w2))
        values = []
        for k in (-1, 0, 1):
            x = mp.arg(w2) - mp.arg(w1) + 2 * mp.pi * k
            if r is None:
                q = (x ** 2 + (y1 - y2) ** 2) / (2 * y1 * y2)
            else:
                s = -mp.log(r)
                q = 2 * (mp.sinh(mp.pi * x / (2 * s)) ** 2
                         + mp.sin(mp.pi * (y1 - y2) / (2 * s)) ** 2) / (
                    mp.sin(mp.pi * y1 / s) * mp.sin(mp.pi * y2 / s))
            values.append(mp.asinh(mp.sqrt(q / 2)))
        return min(values)


@pytest.mark.parametrize("r,radius", [(None, 0.999), (0.5, 0.999), (0.5, 0.5005)],
                         ids=["pdisk-0.999", "annulus-0.999", "annulus-0.5005"])
def test_lift_distances_at_tiny_separations_match_mpmath(r, radius):
    # each lift on its own rounds arg z by ~ulp(pi): off by up to 2.7e-4 here
    worst = 0.0
    for theta in (0.3, 2.0, -3.1, math.pi):
        z1 = radius * cmath.exp(1j * theta)
        for eps in (1e-8, 1e-10, 1e-11, 1e-12):
            for direction in (1.0, 1j, cmath.exp(0.25j * math.pi), -1j):
                z2 = z1 + eps * direction * cmath.exp(1j * theta)
                got = (dist_punctured_disk(z1, z2) if r is None else dist_annulus(z1, z2, r)).value
                worst = max(worst, float(abs(got / _lifted_distance_mp(z1, z2, r) - 1)))
    assert worst <= 1e-12
