"""Conformal metric densities on the model domains.

A MetricDensity wraps a nonnegative density lambda(z) together with its
domain and an exact log-density evaluator. The builtins (curvature -4
normalization throughout):

    lambda_D(z)      = 1 / (1 - |z|^2)                       unit disk
    lambda^(R)(z)    = 1 / (2 |z| (log R - log|z|))          punctured disk
                       0 < |z| < R of radius R >= 1
    lambda_D'(z)     = lambda^(1)(z) = 1 / (2 |z| log(1/|z|))  punctured disk
                       (pdisk is pdiskR at R = 1: one closure pair for both)
    lambda_A_r(z)    = pi / (2 |z| s sin(pi log(1/|z|)/s)),  s = log(1/r)
    lambda_alpha(z)  = (1-alpha) |z|^(-alpha) / (1 - |z|^(2(1-alpha)))
    lambda_{alpha,c} = (1-alpha) c |z|^(-alpha) / (1 - c^2 |z|^(2(1-alpha)))
    half-plane       1 / (2 Im z)
    strip of height h: pi / (2 h sin(pi Im z / h))

The scaled conical family lambda_{alpha,c} (0 < c <= 1) is the general
radially symmetric constant-curvature -4 metric with a conical singularity
of order alpha; c = 1 recovers lambda_alpha.

Densities near singularities span many orders of magnitude, so every density
carries an exact closed-form log-density, used by the curvature operator.
Both are closures that accept numpy arrays of points and return real arrays
of the same shape; no grids are stored here. density_at and log_density_at
are their one checked evaluation, on an array or (domains.pointwise) a point.
A density's value and its log read the same terms, each formed once (as the annulus's -log|z|).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .domains import DomainModel, pointwise
from .errors import BadParameter, NumericOverflow, OutsideDomain
from .maps import HolomorphicMap


@dataclass(frozen=True)
class MetricDensity:
    domain: DomainModel
    eval: Callable
    label: str
    log_eval: Callable


def density_at(metric: MetricDensity, z):
    """lambda at z after DomainModel.check; NumericOverflow names the first
    point where it is not finite in double precision."""
    return _finite_at(metric, z, metric.eval, "density")


def log_density_at(metric: MetricDensity, z):
    """Evaluate log lambda, with the checks of density_at."""
    return _finite_at(metric, z, metric.log_eval, "log density")


@pointwise
def _finite_at(metric: MetricDensity, z, f, what: str):
    z = metric.domain.check(z)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        value = np.asarray(f(z), dtype=float)
    finite = value < math.inf  # -inf, the log of a zero density, is exact
    if not finite.all():
        raise NumericOverflow(f"{what} of {metric.label} at z={complex(z[~finite][0])} "
                              "is not finite in double precision")
    return value


# --- builtin densities ----------------------------------------------------

def disk_metric() -> MetricDensity:
    def ev(z):
        return 1.0 / (1.0 - np.abs(z) ** 2)

    def logev(z):
        return -np.log1p(-np.abs(z) ** 2)

    return MetricDensity(DomainModel.disk(), ev, "disk", logev)


def punctured_disk_metric() -> MetricDensity:
    """The punctured disk's density: pdiskR at R = 1, where log R = 0.0, on pdisk."""
    return replace(punctured_disk_metric_r(1.0), domain=DomainModel.punctured_disk(), label="pdisk")


def punctured_disk_metric_r(R: float) -> MetricDensity:
    """Hyperbolic density of pdiskR:R on that whole domain, the punctured disk 0 < |z| < R."""
    dom = DomainModel.punctured_disk_r(R)
    logR = np.log(R)

    def ev(z):
        az = np.abs(z)
        return 1.0 / (2.0 * az * (logR - np.log(az)))

    def logev(z):
        az = np.abs(z)
        return -np.log(2.0) - np.log(az) - np.log(logR - np.log(az))

    return MetricDensity(dom, ev, f"pdiskR:{R}", logev)


def annulus_metric(r: float) -> MetricDensity:
    dom = DomainModel.annulus(r)
    s = np.log(1.0 / r)

    def sin_t(az):  # sin(pi log(1/|z|) / s), with log(1/|z|) taken as -log|z|
        return np.sin(-np.pi * np.log(az) / s)

    def ev(z):
        az = np.abs(z)
        return np.pi / (2.0 * az * s * sin_t(az))

    def logev(z):
        az = np.abs(z)
        return np.log(np.pi) - np.log(2.0) - np.log(az) - np.log(s) - np.log(sin_t(az))

    return MetricDensity(dom, ev, f"annulus:{r}", logev)


def check_conical_order(alpha: float) -> None:
    """Raise BadParameter unless alpha is a finite conical order alpha < 1."""
    if not (math.isfinite(alpha) and alpha < 1.0):
        raise BadParameter(f"conical order requires finite alpha < 1, got {alpha}")


def conical_metric(alpha: float) -> MetricDensity:
    """The order-alpha conical model density lambda_alpha, alpha < 1."""
    return replace(conical_scaled_metric(alpha, 1.0), label=f"conical:{alpha}")


def conical_gap(s: float, log_r, c: float = 1.0):
    """1 - c^2 |z|^(2s) from log_r = log|z|, as -expm1(2 s log|z| + 2 log c): exact
    near |z| -> 1, where 1 - c^2 |z|^(2s) would cancel."""
    return -np.expm1(2.0 * s * log_r + 2.0 * np.log(c))


def conical_scaled_metric(alpha: float, c: float) -> MetricDensity:
    """The scaled conical family lambda_{alpha,c}; c = 1 recovers lambda_alpha."""
    check_conical_order(alpha)
    if not 0.0 < c <= 1.0:
        raise BadParameter(f"conical scale requires 0 < c <= 1, got {c}")
    s = 1.0 - alpha

    def ev(z):
        az = np.abs(z)
        return s * c * az ** (-alpha) / conical_gap(s, np.log(az), c)

    def logev(z):
        la = np.log(np.abs(z))
        return np.log(s) + np.log(c) - alpha * la - np.log(conical_gap(s, la, c))

    return MetricDensity(DomainModel.punctured_disk(), ev, f"conical-scaled:{alpha},{c}", logev)


def half_plane_metric() -> MetricDensity:
    def ev(z):  # the bits of 1 / (2 Im z), also where 2 Im z overflows
        return 0.5 / np.imag(z)

    def logev(z):
        y = np.imag(z)
        with np.errstate(over="ignore"):  # 2 Im z overflows above half the double range
            value = -np.log(2.0 * y)
        return np.where(np.isneginf(value), -np.log(2.0) - np.log(y), value)

    return MetricDensity(DomainModel.half_plane(), ev, "halfplane", logev)


def strip_metric(h: float) -> MetricDensity:
    dom = DomainModel.strip(h)
    mh, eh = np.frexp(h)

    def arg(z):  # b = pi Im z / h on the mantissas of Im z and h: pi Im z cannot overflow
        m, e = np.frexp(np.imag(z))
        return np.ldexp(np.pi * m / mh, e - eh)

    def ev(sin_b):
        return 0.5 * np.pi / (h * sin_b)

    def logev(sin_b):  # log(pi/2) - log(h sin b), h sin b as mh ms 2^(eh + es): no cancellation
        ms, es = np.frexp(sin_b)
        return np.log(0.5 * np.pi) - np.log(mh * ms) - (eh + es) * np.log(2.0)

    edge = half_plane_metric()

    def of_z(f, f_edge):
        """f(sin b), and where b is below the normal range, where sin b = b and
        lambda = pi / (2 h b) = 1 / (2 Im z), the half-plane's f_edge(z)."""
        def value(z):
            b = arg(z)
            below = b < np.finfo(float).tiny
            if not np.any(below):
                return f(np.sin(b))
            with np.errstate(divide="ignore", over="ignore"):
                return np.where(below, f_edge(z), f(np.sin(b)))
        return value

    return MetricDensity(dom, of_z(ev, edge.eval), f"strip:{h}", of_z(logev, edge.log_eval))


# --- pullback -------------------------------------------------------------

def pullback(metric: MetricDensity, map_: HolomorphicMap,
             source_domain: DomainModel) -> MetricDensity:
    """The pullback density z -> lambda(f(z)) |f'(z)| on source_domain.

    The caller asserts that the map sends source_domain into the metric's
    domain; evaluations that land outside raise OutsideDomain, which signals
    a wrong caller assertion. Points with f'(z) = 0 evaluate to density 0.
    """

    def _target(z):
        w = map_.value(z)
        inside = np.asarray(metric.domain.contains(w))
        if not inside.all():  # name the first source point, as DomainModel.check does
            raise OutsideDomain(f"{map_.label} maps z={complex(np.asarray(z)[~inside][0])} "
                                f"outside the domain of {metric.label}")
        return w

    def ev(z):
        w = _target(z)
        return metric.eval(w) * np.abs(map_.derivative(z))

    def logev(z):
        w = _target(z)
        with np.errstate(divide="ignore"):
            return metric.log_eval(w) + np.log(np.abs(map_.derivative(z)))

    return MetricDensity(source_domain, ev, f"pull:{map_.label}:{metric.label}", logev)


def eval_many(metric: MetricDensity, zs: np.ndarray) -> np.ndarray:
    """The oracle's unchecked evaluation on an array, as a float array of its shape."""
    return np.asarray(metric.eval(np.asarray(zs, dtype=complex)), dtype=float)
