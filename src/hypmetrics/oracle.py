"""Independent oracle for hyperbolic distances.

It uses only the density, never closed forms or covering lifts. A straight
seed (the segment z1 -> z2; for punctured domains and annuli the segment in
log z, once each way round the puncture) is spaced evenly in metric length
and relaxed onto a discrete geodesic: its points minimize the energy
sum L_k^2, L_k the Simpson length of segment k, by damped Newton. The
Simpson length of the result is returned; of the two seeds round a
puncture, the shorter wins. Simpson weights make a segment pay for the
density at its ends as well as at its midpoint, so no long chord can skip
a region where the density is large.

Each Newton iteration evaluates the density once on a 9-point stencil round
every point and midpoint of the path, which gives the energy, its gradient
and its Hessian. The stencil's centre is the line-search trial that the
last iteration accepted, so one call evaluates only the 8 points round it,
and the length returned at convergence is that trial's. The Hessian is exact
up to the stencil: L_k depends on the two ends of segment k alone, so it is
a sum of one 4x4 block per segment, banded. The blocks are built as arrays
over all segments at once and added straight into the band storage of
LAPACK's band solver gbsv, which each step calls once. When the accepted
step was undamped, it is the full Newton step that the convergence test
asks for, so that test solves nothing more.
"""
import cmath
import math

import numpy as np

from .distances import DistanceMethod, DistanceResult
from .domains import DomainModel
from .errors import BadParameter, GeodesicSolveFailed, OutsideDomain
from .metrics import MetricDensity, eval_many
from .specparse import domain_metric

_BAND = 3  # a segment's 4x4 Hessian block couples unknowns at most 3 apart
# +-h, +-ih and the diagonals round a centre: lambda's gradient and Hessian
# in one call.
_STENCIL = np.array([1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
# Difference and stopping steps, relative to the point spacing (which shrinks
# near the boundary). Gradient rounding moves points by ~1e-9 of the spacing;
# at a minimum the undamped Newton step stays below ~3e-2 of it (1e-9 from
# the disk's edge), while a solve stalled by damping asks for steps of ~1.
# A step also counts as small below _ROUNDING |p|, a few ulp of the point's
# coordinates: points far from 0 and nearly coincident cannot move by less.
_DIFF_STEP, _STEP_TOL, _FULL_STEP_TOL = 1e-5, 1e-7, 0.1
_ROUNDING = 8.0 * np.finfo(float).eps


def _seeds(domain: DomainModel, z1: complex, z2: complex, m: int) -> list:
    """m-point straight seeds: the segment z1 -> z2, or for the doubly
    connected kinds the segment in log z, once each way round the puncture."""
    t = np.linspace(0.0, 1.0, m)
    if not domain.doubly_connected:
        return [z1 + t * (z2 - z1)]
    one_way = cmath.log(z2) - cmath.log(z1)
    seeds = []
    for log_ratio in (one_way, one_way - math.copysign(2.0 * math.pi, one_way.imag) * 1j):
        seed = z1 * np.exp(t * log_ratio)
        seed[-1] = z2
        seeds.append(seed)
    return seeds


def _with_midpoints(p: np.ndarray) -> np.ndarray:
    """The 2m - 1 points p[0], midpoint, p[1], ..., p[m - 1] of the polyline p."""
    q = np.empty(2 * p.size - 1, dtype=complex)
    q[0::2], q[1::2] = p, 0.5 * (p[1:] + p[:-1])
    return q


def _simpson(lam: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Simpson lengths of the segments of the polyline p, lam the density at
    _with_midpoints(p)."""
    return (lam[:-2:2] + 4.0 * lam[1::2] + lam[2::2]) / 6.0 * np.abs(np.diff(p))


def _segment_lengths(metric: MetricDensity, p: np.ndarray) -> np.ndarray:
    """Simpson quadrature of the metric length of each segment of the polyline p."""
    return _simpson(eval_many(metric, _with_midpoints(p)), p)


def _respaced(metric: MetricDensity, p: np.ndarray) -> np.ndarray:
    """The points of the polyline p moved along it to equal Simpson arc
    length, again while that length falls by more than 0.1%: Simpson's rule
    misjudges segments over which the density varies much, so one pass
    leaves too few points where the density is large."""
    length = math.inf
    for _ in range(50):
        arc = np.concatenate([[0.0], np.cumsum(_segment_lengths(metric, p))])
        if not arc[-1] < (1.0 - 1e-3) * length:
            break
        length = arc[-1]
        targets = np.linspace(0.0, length, p.size)
        p = np.interp(targets, arc, p.real) + 1j * np.interp(targets, arc, p.imag)
    return p


def _diff_steps(q: np.ndarray) -> np.ndarray:
    """Stencil steps: _DIFF_STEP times |np.gradient(q)|, its differences
    written out (the same bits)."""
    d = np.empty_like(q)
    d[0], d[-1] = q[1] - q[0], q[-1] - q[-2]
    d[1:-1] = (q[2:] - q[:-2]) / 2.0
    return _DIFF_STEP * np.abs(d)


def _energy_derivatives(metric: MetricDensity, q: np.ndarray, lam: np.ndarray,
                        h: np.ndarray):
    """The energy sum L_k^2 of the polyline q[::2] (q from _with_midpoints, lam
    the density at q), its gradient in the interior points as d/dx + i d/dy,
    and its exact Hessian in gbsv's band storage, unknowns in (Re, Im) order:
    3 _BAND + 1 rows in Fortran order, the top _BAND of them zero (gbsv's
    room for the fill-in of its pivoting).

    L_k = M_k s_k, M_k = (lambda_a + 4 lambda_c + lambda_b) / 6 and s_k = |b - a|,
    depends on the two ends a, b of segment k (c its midpoint) alone, so
    Hess(L_k^2) = 2 grad L grad L^T + 2 L Hess L is one 4x4 block, with
    Hess L = s Hess M + grad M grad s^T + grad s grad M^T + M Hess s. The
    gradient and Hessian of lambda at q come from a 9-point stencil of step h,
    whose centre is lam.
    """
    off = eval_many(metric, q + h * _STENCIL[:, None])  # the 8 points round q
    h2 = h ** 2
    g = np.empty((2, q.size))  # d/dx, d/dy of lambda
    g[0], g[1] = off[0] - off[1], off[2] - off[3]
    g /= 2.0 * h
    hess = np.empty((2, 2, q.size))
    hess[0, 0] = (off[0] - 2.0 * lam + off[1]) / h2
    hess[1, 1] = (off[2] - 2.0 * lam + off[3]) / h2
    hess[0, 1] = hess[1, 0] = (off[4] - off[5] - off[6] + off[7]) / (4.0 * h2)

    # Per segment, with the four coordinates of (a, b) as the leading axes.
    n_seg = q.size // 2
    mean = (lam[:-2:2] + 4.0 * lam[1::2] + lam[2::2]) / 6.0
    seg = q[2::2] - q[:-2:2]
    s = np.abs(seg)
    u = seg.view(np.float64).reshape(-1, 2).T / s
    d_mean = np.empty((4, n_seg))
    d_mean[:2] = g[:, :-2:2] + 2.0 * g[:, 1::2]
    d_mean[2:] = g[:, 2::2] + 2.0 * g[:, 1::2]
    d_mean /= 6.0
    d_s = np.empty((4, n_seg))
    d_s[:2], d_s[2:] = -u, u
    h_c = hess[:, :, 1::2]
    h_mean = np.empty((4, 4, n_seg))
    h_mean[:2, :2] = hess[:, :, :-2:2] + h_c
    h_mean[:2, 2:] = h_mean[2:, :2] = h_c
    h_mean[2:, 2:] = hess[:, :, 2::2] + h_c
    h_mean /= 6.0
    proj = (np.eye(2)[:, :, None] - u[:, None] * u[None, :]) / s
    h_s = np.empty((4, 4, n_seg))
    h_s[:2, :2] = h_s[2:, 2:] = proj
    h_s[:2, 2:] = h_s[2:, :2] = -proj
    length = mean * s
    d_len = s * d_mean + mean * d_s
    cross = d_mean[:, None] * d_s[None, :]
    h_len = s * h_mean + cross + cross.transpose(1, 0, 2) + mean * h_s
    blocks = 2.0 * (d_len[:, None] * d_len[None, :] + length * h_len)

    d_energy = 2.0 * length * d_len  # d/da, d/db per segment
    grad = np.empty(n_seg - 1, dtype=complex)
    grad.real = d_energy[2, :-1] + d_energy[0, 1:]
    grad.imag = d_energy[3, :-1] + d_energy[1, 1:]
    # Segment k's block sits on unknowns 2k - 2 .. 2k + 1: its column j on
    # coordinate j % 2 of point k + j // 2, the second axis of ab here; in
    # Fortran order that axis interleaves with the points. The columns of
    # ab start 2 early and are trimmed on return: the fixed ends' entries
    # land in the trimmed columns or in band corners that gbsv never reads.
    ab = np.zeros((3 * _BAND + 1, 2, n_seg + 1), order="F")
    for j in range(4):
        ab[2 * _BAND - j:2 * _BAND - j + 4, j % 2, j // 2:j // 2 + n_seg] += blocks[:, j]
    return float(np.sum(length ** 2)), grad, ab.reshape(3 * _BAND + 1, -1, order="F")[:, 2:-2]


def _newton_step(ab: np.ndarray, grad: np.ndarray, damping: float, label: str) -> np.ndarray:
    """Solve (H + damping |diag H|) step = -grad, H the banded Hessian in gbsv's
    storage ab, by LAPACK dgbsv; GeodesicSolveFailed when the system is singular."""
    from scipy.linalg.lapack import dgbsv

    lu = ab.copy(order="F")  # dgbsv factors it in place
    lu[2 * _BAND] += damping * np.abs(ab[2 * _BAND])
    _, _, step, info = dgbsv(_BAND, _BAND, lu, -grad.view(np.float64),
                             overwrite_ab=True, overwrite_b=True)
    if info > 0:  # e.g. a path that no longer spans its ends
        raise GeodesicSolveFailed(f"singular energy Hessian in {label}")
    return step.view(np.complex128)


def _geodesic_length(metric: MetricDensity, p: np.ndarray) -> float:
    """Minimize the energy sum L_k^2 from the polyline p, ends fixed, by
    Levenberg-Marquardt damped Newton steps; return the Simpson length of
    the minimizer. The accepted trial of each line search keeps its points
    with midpoints q and the density lam there for the next iteration."""
    dom = metric.domain
    damping = 0.0
    q = _with_midpoints(p)
    with np.errstate(invalid="ignore", divide="ignore"):  # checked below
        lam = eval_many(metric, q)
    for _ in range(100):
        with np.errstate(invalid="ignore", divide="ignore"):  # checked just below
            energy, grad, ab = _energy_derivatives(metric, q, lam, _diff_steps(q))
        if not (np.isfinite(grad).all() and np.isfinite(ab).all()):
            raise GeodesicSolveFailed(f"non-finite energy gradient in {dom.label()}")
        spacing = np.abs(p[2:] - p[:-2])
        for _ in range(40):
            step = _newton_step(ab, grad, damping, dom.label())
            new = p.copy()
            new[1:-1] += step
            new_q = _with_midpoints(new)
            if dom.contains(new_q).all():
                new_lam = eval_many(metric, new_q)
                lengths = _simpson(new_lam, new)
                if float(np.sum(lengths ** 2)) <= energy:
                    break
            damping = max(1e-3, 10.0 * damping)
        else:
            raise GeodesicSolveFailed(f"geodesic solve cannot lower the energy in {dom.label()}")
        # Rounding may force damping at the minimum; a step that damping made
        # small shows convergence only when the full Newton step is small too.
        size = np.abs(step)
        small = (size / spacing < _STEP_TOL) | (size < _ROUNDING * np.abs(p[1:-1]))
        if small.all():
            full = step if damping == 0.0 else _newton_step(ab, grad, 0.0, dom.label())
            if np.max(np.abs(full) / spacing) < _FULL_STEP_TOL:
                return float(lengths.sum())
        p, q, lam = new, new_q, new_lam
        damping = 0.0 if damping <= 1e-3 else 0.1 * damping
    raise GeodesicSolveFailed(f"geodesic solve did not converge in {dom.label()}")


def geodesic_oracle(domain: DomainModel, z1, z2, grid_n: int = 300,
                    refine: bool = True) -> DistanceResult:
    """Discrete-geodesic estimate of the hyperbolic distance between z1 and z2.

    grid_n is the number of path points (>= 100). Each straight seed (see
    _seeds) is spaced evenly in metric length and relaxed onto a discrete
    geodesic; the smaller Simpson length is returned, or with refine=False
    that of the seeds themselves (an upper bound up to quadrature error).
    GeodesicSolveFailed is raised when the solve turns non-finite or
    singular, cannot lower the energy or stalls.
    """
    if grid_n < 100:
        raise BadParameter(f"grid_n must be >= 100, got {grid_n}")
    z1, z2 = complex(z1), complex(z2)
    for z in (z1, z2):
        if not domain.contains(z):
            raise OutsideDomain(f"z={z} is not in {domain.label()}")
    if z1 == z2:
        return DistanceResult(0.0, DistanceMethod.GRID_ORACLE)

    metric = domain_metric(domain)
    seeds = [_respaced(metric, seed) for seed in _seeds(domain, z1, z2, grid_n)]
    lengths = [_geodesic_length(metric, p) if refine else _segment_lengths(metric, p).sum()
               for p in seeds]
    return DistanceResult(float(min(lengths)), DistanceMethod.GRID_ORACLE)
