"""Finite-difference Gauss curvature of a conformal density.

The Gauss curvature of lambda(z)|dz| is

    kappa(z) = -Laplacian(log lambda)(z) / lambda(z)^2,

discretized with the 5-point `laplacian` below at stencil size h, on a point
or an array of points. The discretization error is O(h^2) for C^4 densities.
Every point must lie in the domain (`DomainModel.check` names the first one
that does not), and so must its stencil: `laplacian` refuses one that
leaves it. Near the domain edge the stencil is shrunk to half the distance
to the edge, and the h actually used is reported.
"""
from __future__ import annotations

import numpy as np

from .domains import DomainModel
from .errors import NonpositiveDensity, NumericOverflow, StencilOutsideDomain
from .metrics import MetricDensity, density_at, log_density_at

DEFAULT_STENCIL = 1e-3


def laplacian(f, z, h, domain: DomainModel):
    """5-point Laplacian (f(z+h) + f(z-h) + f(z+ih) + f(z-ih) - 4 f(z)) / h^2, with
    h a number or an array of z's shape; f is called once, on the whole stencil.
    StencilOutsideDomain, before f is called, when a stencil leaves the domain,
    and when a stencil point rounds onto its centre or h^2 underflows to 0:
    such a stencil measures nothing."""
    z = np.asarray(z, dtype=complex)
    stencil = np.stack([z, z + h, z - h, z + 1j * h, z - 1j * h])
    inside = domain.contains(stencil).all(axis=0)
    if not inside.all():
        raise StencilOutsideDomain(f"stencil at z={z[~inside][0]} leaves {domain.label()}")
    v = f(stencil)
    h2 = h ** 2
    lost = (stencil[1:] == z).any(axis=0) | (h2 == 0.0)
    if lost.any():
        step = np.broadcast_to(h, z.shape)[lost][0]
        raise StencilOutsideDomain(f"stencil of step {step} at z={z[lost][0]} "
                                   "is lost to rounding")
    return (v[1] + v[2] + v[3] + v[4] - 4.0 * v[0]) / h2


def curvature_at(metric: MetricDensity, z, h: float = DEFAULT_STENCIL,
                 full_output: bool = False):
    """Discrete Gauss curvature of the metric at z (a point or an array).

    Returns kappa, or (kappa, h_used) when full_output is set, as floats for
    a point and as arrays in the shape of z otherwise, from one log_density_at
    on the whole stencil and one density_at at z. Refuses the first point
    off the domain with the point check's OutsideDomain (SingularPoint at a
    puncture) before any stencil is built, with NonpositiveDensity when log
    lambda is -inf (lambda = 0) anywhere on a stencil, with
    StencilOutsideDomain when no admissible stencil fits or a stencil point
    rounds onto its centre (see laplacian), and with NumericOverflow when a
    density or kappa is not finite (lambda^2 overflows or underflows to 0).
    """
    if not h > 0.0:
        raise StencilOutsideDomain(f"stencil size must be positive, got h={h}")
    point = np.ndim(z) == 0
    dom = metric.domain
    # numpy scalars round powers differently from arrays, so a point goes
    # through the array path too and matches an array call bit for bit
    z = dom.check(np.atleast_1d(z))
    h_used = np.minimum(float(h), 0.5 * dom.boundary_distance(z))

    def log_lambda(stencil):
        v = log_density_at(metric, stencil)
        zero = np.isneginf(v).any(axis=0)
        if zero.any():
            raise NonpositiveDensity(
                f"{metric.label} is not positive on the stencil at z={z[zero][0]}")
        return v

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        kappa = -laplacian(log_lambda, z, h_used, dom) / density_at(metric, z) ** 2
    finite = np.isfinite(kappa)
    if not finite.all():
        raise NumericOverflow(f"curvature of {metric.label} at z={z[~finite][0]} "
                              "is not finite in double precision")
    if point:
        kappa, h_used = float(kappa[0]), float(h_used[0])
    return (kappa, h_used) if full_output else kappa
