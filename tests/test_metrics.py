"""Densities: closed forms, domains, pullbacks, and the Ahlfors grid bound."""
import math

import numpy as np
import pytest
from mpmath import mp

from hypmetrics.domains import DomainModel
from hypmetrics.errors import BadParameter, NumericOverflow, OutsideDomain, SingularPoint
from hypmetrics.maps import example1_map, identity_map, mobius_map, phi_map, square_map
from hypmetrics.metrics import (MetricDensity, annulus_metric, conical_metric,
                                conical_scaled_metric, density_at, disk_metric,
                                eval_many, half_plane_metric, log_density_at,
                                pullback, punctured_disk_metric,
                                punctured_disk_metric_r, strip_metric)
from hypmetrics.sampling import cartesian_grid, polar_grid, sample_annular

mp.dps = 40


def test_disk_density_at_origin():
    assert density_at(disk_metric(), 0.0) == 1.0


def test_punctured_disk_density_high_precision_oracle():
    # independent oracle: evaluate 1/(2|z| log(1/|z|)) at |z| = 1/e in mpmath
    expected = float(1 / (2 * mp.exp(-1) * mp.log(mp.exp(1))))
    got = density_at(punctured_disk_metric(), complex(math.exp(-1), 0.0))
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(math.e / 2, rel=1e-15)


def test_conical_density_hand_value():
    # (1-a) |z|^-a / (1 - |z|^(2(1-a))) at a=1/2, z=1/4:
    # (1/2) * 2 / (1 - (1/4)^1) = 4/3
    expected = float(mp.mpf(1) / 2 * (mp.mpf(1) / 4) ** (mp.mpf(-1) / 2)
                     / (1 - (mp.mpf(1) / 4) ** 1))
    assert expected == pytest.approx(4.0 / 3.0, rel=1e-30)
    assert density_at(conical_metric(0.5), 0.25) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_annulus_density_closed_form_simplification():
    # r = e^-pi, |z| = e^-pi/2: the sine factor is sin(pi/2) = 1,
    # so lambda = e^(pi/2)/2
    r = math.exp(-math.pi)
    z = complex(math.exp(-math.pi / 2.0), 0.0)
    assert density_at(annulus_metric(r), z) == pytest.approx(math.exp(math.pi / 2) / 2,
                                                             rel=1e-13)


def test_punctured_disk_R_restriction():
    lam_e = punctured_disk_metric_r(math.e)
    z = 0.3
    expected = 1.0 / (2.0 * z * (1.0 - math.log(z)))
    assert density_at(lam_e, z) == pytest.approx(expected, rel=1e-15)
    # R = 1 is the punctured disk density, bit for bit
    lam_1, pd = punctured_disk_metric_r(1.0), punctured_disk_metric()
    pts = np.concatenate([sample_annular(5, 200, 1e-6, 1.0 - 1e-9), [1e-310, 0.37]])
    for f in ("eval", "log_eval"):
        assert getattr(lam_1, f)(pts).tobytes() == getattr(pd, f)(pts).tobytes()


# pdisk's eval took log(1/|z|), in which 1/|z| rounds: it gave 0.0 (with a
# RuntimeWarning) at 1e-310, and was 1.1e-3 off at 1 - 1e-13.
@pytest.mark.parametrize("x", [1e-310, 1e-300, 1e-30, 0.3, 1.0 - 1e-13])
def test_punctured_disk_density_against_mpmath(x):
    m = punctured_disk_metric()
    with mp.workdps(50):
        lam = 1 / (2 * mp.mpf(x) * mp.log(1 / mp.mpf(x)))
        log_lam = mp.log(lam)
    got, got_log = density_at(m, x), log_density_at(m, x)
    assert abs(got - lam) <= 1e-15 * lam
    assert abs(got_log - log_lam) <= 1e-15 * abs(log_lam)


def test_density_out_of_double_range_is_refused():
    # the true lambda ~ 1.4e320 at the least subnormal; its log still fits
    m = punctured_disk_metric()
    with pytest.raises(NumericOverflow, match=r"^density of pdisk at z=\(5e-324\+0j\) "
                                              "is not finite in double precision$"):
        density_at(m, 5e-324)
    assert log_density_at(m, 5e-324) == pytest.approx(
        float(mp.log(1 / (2 * mp.mpf(5e-324) * mp.log(1 / mp.mpf(5e-324))))), rel=1e-15)


@pytest.mark.parametrize("metric", [
    disk_metric(), punctured_disk_metric(), punctured_disk_metric_r(2.0), annulus_metric(0.5),
    conical_metric(0.3), half_plane_metric(), strip_metric(1.0),
    pullback(disk_metric(), phi_map(), DomainModel.disk()),
    pullback(disk_metric(), square_map(), DomainModel.disk()),  # lambda = 0 at 0
], ids=lambda m: m.label)
def test_checked_evaluation_of_an_array_is_eval_many(metric):
    pts = np.concatenate([cartesian_grid(21, 1.5), polar_grid(15, 1e-300, 0.999)])
    pts = pts[metric.domain.contains(pts)].reshape(1, -1)
    lam, log_lam = density_at(metric, pts), log_density_at(metric, pts)
    assert lam.shape == log_lam.shape == pts.shape and lam.dtype == log_lam.dtype == float
    assert lam.tobytes() == eval_many(metric, pts).tobytes()
    with np.errstate(divide="ignore"):
        assert log_lam.tobytes() == np.asarray(metric.log_eval(pts), dtype=float).tobytes()


def test_checked_evaluation_of_an_array_names_the_first_bad_point():
    pdisk = punctured_disk_metric()
    pts = np.array([0.5, 1e-320, 5e-324, 0.25j])  # lambda overflows at the middle two
    with pytest.raises(NumericOverflow, match=r"^density of pdisk at z=\(1e-320\+0j\) "):
        density_at(pdisk, pts)
    assert np.isfinite(log_density_at(pdisk, pts)).all()
    with pytest.raises(SingularPoint, match=r"^z=0j is not in pdisk$"):
        density_at(pdisk, np.array([0.5, 0.0, 2.0]))
    with pytest.raises(OutsideDomain, match=r"^z=\(2\+0j\) is not in pdisk$"):
        log_density_at(pdisk, np.array([0.5, 2.0, 0.0]))
    # -inf, the exact log of a zero density, passes; nan is named
    square = pullback(disk_metric(), square_map(), DomainModel.disk())
    assert log_density_at(square, np.array([0.5, 0.0]))[1] == -math.inf
    nan_log = MetricDensity(DomainModel.disk(), disk_metric().eval, "nanlog",
                            lambda z: np.where(np.abs(z) < 0.2, np.nan, 0.0))
    with pytest.raises(NumericOverflow, match=r"^log density of nanlog at z=0.1j "):
        log_density_at(nan_log, np.array([0.5, 0.1j, 0.0]))


def test_half_plane_and_strip_densities():
    assert density_at(half_plane_metric(), 2j) == pytest.approx(0.25, rel=1e-15)
    # mid-strip value pi/(2h)
    h = 2.0
    assert density_at(strip_metric(h), 1j) == pytest.approx(math.pi / (2 * h), rel=1e-15)


def test_half_plane_density_where_twice_the_height_overflows():
    # 2 Im z overflowed to inf: lambda read 0.0 and log lambda -inf
    m = half_plane_metric()
    lam, log_lam = density_at(m, 1e308j), log_density_at(m, np.array([1e308j, 1.7e308j]))
    with mp.workdps(50):
        assert lam == float(1 / (2 * mp.mpf(1e308)))  # subnormal: 5e-309 to its rounding
        for got, y in zip(log_lam, (1e308, 1.7e308)):
            assert got == pytest.approx(float(-mp.log(2 * mp.mpf(y))), rel=1e-15)
    # elsewhere the bits of 1 / (2 Im z) and -log(2 Im z)
    y = np.geomspace(1e-300, 8e307, 10001)
    assert np.array_equal(density_at(m, 1j * y), 1.0 / (2.0 * y))
    assert np.array_equal(log_density_at(m, 1j * y), -np.log(2.0 * y))


@pytest.mark.parametrize("h, y", [(1e308, 1.0), (1.5e308, 1e308)],
                         ids=["2h-overflows", "pi-im-z-overflows"])
def test_strip_density_at_extreme_heights(h, y):
    # 2h overflowed for strip:1e308 (lambda read 0.0, log lambda -inf), and
    # pi Im z for strip:1.5e308 (NumericOverflow where lambda is 1.2e-308)
    m = strip_metric(h)
    with mp.workdps(60):
        lam = mp.pi / (2 * mp.mpf(h) * mp.sin(mp.pi * mp.mpf(y) / mp.mpf(h)))
        assert density_at(m, 1j * y) == pytest.approx(float(lam), rel=1e-15, abs=0.0)
        assert log_density_at(m, 1j * y) == pytest.approx(float(mp.log(lam)), rel=1e-15)
    # elsewhere the bits of pi / (2h sin(pi Im z / h)), wherever pi Im z is finite
    h = 8e307
    y = np.geomspace(1e-10, 5e307, 1001)
    assert np.array_equal(density_at(strip_metric(h), 1j * y),
                          np.pi / (2.0 * h * np.sin(np.pi * y / h)))


def test_domain_errors():
    with pytest.raises(SingularPoint):
        density_at(punctured_disk_metric(), 0.0)
    with pytest.raises(OutsideDomain):
        density_at(disk_metric(), 1.5)
    with pytest.raises(OutsideDomain):
        density_at(annulus_metric(0.5), 0.3)
    with pytest.raises(BadParameter):
        DomainModel.annulus(1.2)
    with pytest.raises(BadParameter):
        conical_metric(1.0)
    with pytest.raises(BadParameter):
        conical_scaled_metric(0.5, 0.0)
    for a in (1.0, complex(math.nan, 0.0)):  # nan passed the old |a| >= 1 test
        with pytest.raises(BadParameter, match="mobius parameter"):
            mobius_map(a)


def test_log_density_matches_log_of_density():
    metrics = [disk_metric(), punctured_disk_metric(), annulus_metric(0.5),
               conical_metric(0.3), punctured_disk_metric_r(2.0),
               conical_scaled_metric(0.4, 0.7)]
    for m in metrics:
        for z in sample_annular(7, 20, 0.55, 0.9):
            if not m.domain.contains(z):
                continue
            assert log_density_at(m, z) == pytest.approx(
                math.log(density_at(m, z)), abs=1e-12)


def test_log_density_deep_in_the_puncture():
    # direct eval overflows no sooner than the log form; check consistency
    # at a depth where both still work, and finiteness much deeper
    m = punctured_disk_metric()
    z = 1e-150
    assert log_density_at(m, z) == pytest.approx(math.log(density_at(m, z)), rel=1e-12)
    assert np.isfinite(log_density_at(m, 1e-300))


def test_pullback_identity_and_square():
    lam = disk_metric()
    assert density_at(pullback(lam, identity_map(), lam.domain), 0.3) == \
        pytest.approx(1.0 / 0.91, rel=1e-15)
    got = density_at(pullback(lam, square_map(), lam.domain), 0.5)
    assert got == pytest.approx(1.0 / 0.9375, rel=1e-15)  # lambda_D(1/4) * |2 z|


def test_pullback_example1_matches_ratio_formula():
    # independent route: the closed-form distortion ratio times the density
    pd = punctured_disk_metric()
    pulled = pullback(pd, example1_map(), pd.domain)
    z = mp.mpf(1) / 2
    f = z * mp.exp(-(1 + z) / (1 - z))
    ratio = (abs(1 - 4 * z + z * z) / abs(1 - z) ** 2
             * mp.log(1 / z) / mp.log(1 / f))
    expected = float(ratio / (2 * z * mp.log(1 / z)))
    assert density_at(pulled, 0.5) == pytest.approx(expected, rel=1e-13)


def test_pullback_degenerate_point_gives_zero_density():
    lam = disk_metric()
    assert density_at(pullback(lam, square_map(), lam.domain), 0.0) == 0.0
    # its log is -inf exactly, not an overflow
    assert log_density_at(pullback(lam, square_map(), lam.domain), 0.0) == -math.inf


def test_pullback_outside_domain_detection():
    # phi(D) does not stay inside the annulus: evaluation must flag the
    # wrong caller assertion
    pulled = pullback(annulus_metric(0.5), phi_map(), DomainModel.disk())
    with pytest.raises(OutsideDomain):
        pulled.eval(complex(-0.7, 0.0))


def test_domain_monotonicity_of_densities():
    # lambda_D <= lambda_pdisk <= lambda_annulus on the annulus
    disk, pd, ann = disk_metric(), punctured_disk_metric(), annulus_metric(0.5)
    pts = sample_annular(11, 200, 0.55, 0.95)
    ld, lp, la = eval_many(disk, pts), eval_many(pd, pts), eval_many(ann, pts)
    assert np.all(ld <= lp * (1 + 1e-14))
    assert np.all(lp <= la * (1 + 1e-14))


@pytest.mark.parametrize("map_", [identity_map(), square_map(), phi_map(),
                                  mobius_map(0.3 + 0.2j)])
def test_ahlfors_bound_for_disk_self_maps(map_):
    lam = disk_metric()
    pulled = pullback(lam, map_, lam.domain)
    grid = cartesian_grid(50, 0.97)
    grid = grid[np.abs(grid) < 0.97]
    ratios = eval_many(pulled, grid) / eval_many(lam, grid)
    assert float(ratios.max()) <= 1.0 + 1e-12


def test_holomorphic_map_derivatives_match_finite_differences():
    h = 1e-5
    for m in [phi_map(), example1_map(), square_map(), mobius_map(0.3 + 0.2j)]:
        for z in sample_annular(3, 25, 0.1, 0.7):
            fd = (m.value(z + h) - m.value(z - h)) / (2.0 * h)
            exact = m.derivative(z)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_grids_are_deterministic():
    assert np.array_equal(polar_grid(10, 0.1, 0.9), polar_grid(10, 0.1, 0.9))
    assert np.array_equal(sample_annular(5, 10, 0.1, 0.9),
                          sample_annular(5, 10, 0.1, 0.9))
