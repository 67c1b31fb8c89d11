"""Discrete Gauss curvature: -4 for the model metrics, pullback invariance."""
import math

import pytest

import numpy as np

from hypmetrics.curvature import curvature_at, laplacian
from hypmetrics.domains import DomainModel
from hypmetrics.errors import (NonpositiveDensity, NumericOverflow, OutsideDomain,
                               SingularPoint, StencilOutsideDomain)
from hypmetrics.maps import mobius_map, phi_map, square_map
from hypmetrics.metrics import (annulus_metric, conical_metric, disk_metric,
                                half_plane_metric, pullback, punctured_disk_metric,
                                punctured_disk_metric_r)
from hypmetrics.sampling import sample_annular
from hypmetrics.suites import _curvature_cases


def test_disk_curvature_at_paper_point():
    assert curvature_at(disk_metric(), complex(0.3, 0.2), 1e-3) == \
        pytest.approx(-4.0, abs=1e-5)


def test_annulus_curvature():
    assert curvature_at(annulus_metric(0.5), 0.7, 1e-3) == pytest.approx(-4.0, abs=1e-4)


def test_conical_curvature():
    assert curvature_at(conical_metric(0.5), 0.3, 1e-3) == pytest.approx(-4.0, abs=1e-4)


def test_pullback_square_curvature():
    lam = disk_metric()
    pulled = pullback(lam, square_map(), lam.domain)
    assert curvature_at(pulled, 0.5, 1e-3) == pytest.approx(-4.0, abs=1e-4)


@pytest.mark.parametrize("metric,rmin,rmax", [
    (disk_metric(), 0.10, 0.75),
    (punctured_disk_metric(), 0.30, 0.75),
    (annulus_metric(0.5), 0.66, 0.86),
    (conical_metric(0.5), 0.30, 0.75),
    (punctured_disk_metric_r(math.e), 0.45, 0.85),
])
def test_constant_curvature_with_second_order_convergence(metric, rmin, rmax):
    pts = sample_annular(17, 100, rmin, rmax)
    err_fine = max(abs(curvature_at(metric, z, 1e-3) + 4.0) for z in pts)
    err_coarse = max(abs(curvature_at(metric, z, 1e-2) + 4.0) for z in pts)
    assert err_fine <= 1e-4
    assert 50.0 <= err_coarse / err_fine <= 200.0


@pytest.mark.parametrize("map_,rmin,rmax", [
    (square_map(), 0.45, 0.70),  # discrete error blows up toward f'(0) = 0
    (mobius_map(0.3 + 0.2j), 0.30, 0.60),
    (phi_map(), 0.30, 0.60),
])
def test_curvature_invariance_under_pullback(map_, rmin, rmax):
    lam = disk_metric()
    pulled = pullback(lam, map_, lam.domain)
    for z in sample_annular(23, 20, rmin, rmax):
        if abs(map_.derivative(z)) < 1e-6:
            continue
        k_pull = curvature_at(pulled, z, 1e-3)
        k_base = curvature_at(lam, complex(map_.value(z)), 1e-3)
        assert k_pull == pytest.approx(k_base, abs=1e-4)


def test_stencil_shrinks_near_boundary():
    # the stencil halves to stay inside; accuracy degrades there (the
    # discretization error scales like (h/edge)^2), so only sanity-check it
    kappa, h_used = curvature_at(disk_metric(), 0.9995, 1e-3, full_output=True)
    assert h_used == pytest.approx(0.00025, rel=1e-9)  # half the edge distance
    assert math.isfinite(kappa) and kappa < -3.0


# |z| = 1 is not an edge of pdiskR:2: the stencil shrank to 2.5e-4 there while
# the density lived on the unit punctured disk
def test_stencil_does_not_shrink_inside_pdiskR():
    kappa, h_used = curvature_at(punctured_disk_metric_r(2.0), 0.9995, 1e-3, full_output=True)
    assert h_used == 1e-3
    assert kappa == pytest.approx(-4.0, abs=1e-5)


def test_stencil_shrinks_near_puncture():
    kappa, h_used = curvature_at(punctured_disk_metric(), 1e-4, 1e-3, full_output=True)
    assert h_used == pytest.approx(5e-5, rel=1e-9)


def test_refuses_at_degenerate_pullback_point():
    lam = disk_metric()
    pulled = pullback(lam, square_map(), lam.domain)
    with pytest.raises(NonpositiveDensity,
                       match=r"^pull:square:disk is not positive on the stencil at z=0j$"):
        curvature_at(pulled, 0.0, 1e-3)


# A point off the domain is refused by the point check, before any stencil
# is built.
def test_refuses_outside_domain():
    with pytest.raises(OutsideDomain, match=r"^z=\(1\.2\+0j\) is not in disk$"):
        curvature_at(disk_metric(), 1.2, 1e-3)
    with pytest.raises(SingularPoint, match=r"^z=0j is not in pdisk$"):
        curvature_at(punctured_disk_metric(), 0.0, 1e-3)
    with pytest.raises(StencilOutsideDomain):
        curvature_at(disk_metric(), 0.5, -1.0)
    # a NaN stencil size is refused as such, not blamed on the domain
    with pytest.raises(StencilOutsideDomain, match="stencil size must be positive"):
        curvature_at(disk_metric(), 0.5, float("nan"))


@pytest.mark.parametrize("metric, pts", [pytest.param(m, pts, id=m.label)
                                         for m, pts in _curvature_cases(42)])
def test_array_call_equals_pointwise_calls(metric, pts):
    grid = pts.reshape(10, 10)
    for h in (1e-3, 1e-2):
        kappa, h_used = curvature_at(metric, grid, h, full_output=True)
        assert kappa.shape == h_used.shape == grid.shape
        pointwise = [curvature_at(metric, z, h, full_output=True) for z in pts]
        assert kappa.ravel().tolist() == [k for k, _ in pointwise]
        assert h_used.ravel().tolist() == [hu for _, hu in pointwise]


def test_point_returns_python_floats():
    kappa, h_used = curvature_at(disk_metric(), 0.3, 1e-3, full_output=True)
    assert type(kappa) is float and type(h_used) is float


def test_one_point_off_domain_refuses_the_array():
    pts = np.array([0.3, 0.5j, 1.2, 2.0, -0.4])
    with pytest.raises(OutsideDomain, match=r"^z=\(1\.2\+0j\) is not in disk$"):
        curvature_at(disk_metric(), pts, 1e-3)
    with pytest.raises(SingularPoint):
        curvature_at(punctured_disk_metric(), np.array([0.3, 0.0]), 1e-3)


# A stencil point that rounds onto its centre, or an h^2 that underflows to
# 0, gave nan or a silent -0.0; a lambda^2 that overflows gave nan.
@pytest.mark.parametrize("metric,z,h", [
    (disk_metric(), 0.3, 1e-300),  # h^2 = 0 and 0.3 + h == 0.3
    (disk_metric(), 0.3, 1e-160),  # h^2 is subnormal, but 0.3 + h == 0.3
    (punctured_disk_metric(), 1e-300, 1e-3),  # shrunk to h = 5e-301, h^2 = 0
    # 1e17 + h == 1e17; this read -4.000002, right only because the
    # half-plane density ignores Re z
    (half_plane_metric(), 1e17 + 1j, 1e-3),
], ids=["disk-1e-300", "disk-1e-160", "pdisk-1e-300", "halfplane-1e17"])
def test_stencil_lost_to_rounding_is_refused(metric, z, h):
    with pytest.raises(StencilOutsideDomain, match="lost to rounding"):
        curvature_at(metric, z, h)


def test_one_stencil_lost_to_rounding_refuses_the_array():
    pts = np.array([0.3, 1e-300])
    with pytest.raises(StencilOutsideDomain, match=r"step 5e-301 at z=\(1e-300\+0j\)"):
        curvature_at(punctured_disk_metric(), pts, 1e-3)
    with pytest.raises(StencilOutsideDomain, match=r"step 1e-17 at z=\(0\.25\+0j\)"):
        laplacian(lambda w: np.abs(w) ** 2, np.array([1e-3, 0.25]), 1e-17, DomainModel.disk())


def test_nonfinite_curvature_is_refused():
    # at |z| = 1e-160 the stencil (h = 5e-161) resolves, but lambda^2 overflows
    with pytest.raises(NumericOverflow, match="not finite"):
        curvature_at(punctured_disk_metric(), 1e-160, 1e-3)


# A density that underflows to 0 while its log stays finite (conical:-20
# below |z| ~ 1e-15) has no finite curvature; only a log of -inf on the
# stencil (lambda = 0 exactly) is NonpositiveDensity.
@pytest.mark.parametrize("z", [1e-17, 1e-15])
def test_density_underflowing_on_the_stencil_is_refused(z):
    with pytest.raises(NumericOverflow, match=rf"^curvature of conical:-20\.0 at "
                                              rf"z=\({z}\+0j\) is not finite"):
        curvature_at(conical_metric(-20.0), z, 1e-3)


def test_laplacian_is_exact_on_quadratics():
    z = np.array([0.1 + 0.2j, -0.7 + 0.3j])
    lap = laplacian(lambda w: np.abs(w) ** 2, z, 1e-2, DomainModel.disk())  # of x^2 + y^2: 4
    assert lap == pytest.approx([4.0, 4.0], rel=1e-9)


def test_laplacian_refuses_a_stencil_leaving_the_domain_before_evaluating():
    def f(w):
        raise AssertionError("f was called")

    with pytest.raises(StencilOutsideDomain, match=r"^stencil at z=\(0\.995\+0j\) leaves disk$"):
        laplacian(f, np.array([0.5, 0.995]), 1e-2, DomainModel.disk())
