"""Finite-difference Gauss curvature of a conformal density.

The Gauss curvature of lambda(z)|dz| is

    kappa(z) = -Laplacian(log lambda)(z) / lambda(z)^2,

discretized with the 5-point `laplacian` below at stencil size h, on a point
or an array of points. The discretization error is O(h^2) for C^4 densities.
Near the domain edge the stencil is shrunk to half the distance to the edge,
and the h actually used is reported.
"""
from __future__ import annotations

import numpy as np

from .errors import NonpositiveDensity, NumericOverflow, StencilOutsideDomain
from .metrics import MetricDensity

DEFAULT_STENCIL = 1e-3


def laplacian(f, z, h):
    """5-point Laplacian (f(z+h) + f(z-h) + f(z+ih) + f(z-ih) - 4 f(z)) / h^2, with
    h a number or an array of z's shape; f is called once, on the whole stencil.
    StencilOutsideDomain when a stencil point rounds onto its centre or h^2
    underflows to 0: such a stencil measures nothing."""
    z = np.asarray(z, dtype=complex)
    stencil = np.stack([z, z + h, z - h, z + 1j * h, z - 1j * h])
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
    a point and as arrays in the shape of z otherwise. Refuses with
    NonpositiveDensity when lambda <= 0 anywhere on a stencil (curvature is
    defined only where the density is positive), with StencilOutsideDomain
    when no admissible stencil fits or a stencil point rounds onto its
    centre (see laplacian), and with NumericOverflow when kappa is not finite (near a
    puncture lambda^2 overflows).
    """
    if not h > 0.0:
        raise StencilOutsideDomain(f"stencil size must be positive, got h={h}")
    point = np.ndim(z) == 0
    # numpy scalars round powers differently from arrays, so a point goes
    # through the array path too and matches an array call bit for bit
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    dom = metric.domain
    h_used = np.minimum(float(h), 0.5 * dom.boundary_distance(z))  # < 0 off the domain

    def log_lambda(stencil):
        inside = dom.contains(stencil).all(axis=0)
        if not inside.all():
            raise StencilOutsideDomain(f"stencil at z={z[~inside][0]} leaves {dom.label()}")
        positive = (metric.eval(stencil) > 0.0).all(axis=0)
        if not positive.all():
            raise NonpositiveDensity(
                f"{metric.label} is not positive on the stencil at z={z[~positive][0]}")
        return metric.log_density(stencil)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        kappa = -laplacian(log_lambda, z, h_used) / metric.eval(z) ** 2
    finite = np.isfinite(kappa)
    if not finite.all():
        raise NumericOverflow(f"curvature of {metric.label} at z={z[~finite][0]} "
                              "is not finite in double precision")
    if point:
        kappa, h_used = float(kappa[0]), float(h_used[0])
    return (kappa, h_used) if full_output else kappa
