"""Independent oracle for hyperbolic distances.

It uses only the density, never closed forms or covering lifts. A straight
seed (the segment z1 -> z2; for punctured domains and annuli the segment in
log z the short way round the puncture) is spaced evenly in metric length
and relaxed onto a discrete geodesic: its points minimize the energy
sum L_k^2, L_k the Simpson length of segment k, by damped Newton. The
Simpson length of the result is returned. Simpson weights make a segment
pay for the density at its ends as well as at its midpoint, so no long
chord can skip a region where the density is large. Points closer than the
path can resolve get the Simpson length of their chord when that chord is
too short, in metric length, to differ from the geodesic.

One seed is enough round a puncture. The doubly connected kinds are
rotationally symmetric, so in w = log z the density depends on Re w alone
and reflection in any line Im w = c is an isometry. A path from w1 to the
lift of z2 farther from w1 in Im w, reflected after it crosses the line
halfway between two lifts, is a path no longer to the nearer lift; so the
class whose angle change is at most pi is never the longer.

The relaxation starts from the density that the last spacing pass
evaluated. A Newton iteration evaluates the density once on a 9-point
stencil round every point and midpoint of the path, which gives the
energy, its gradient and its Hessian. The stencil's centre is the
line-search trial that the last iteration accepted, so one call evaluates
only the 8 points round it, and the length returned at convergence is that
trial's. The Hessian is exact up to the stencil: L_k depends on the two
ends of segment k alone, so it is a sum of one 4x4 block per segment,
banded. The blocks are built as arrays over all segments at once and added
straight into the band storage of LAPACK's band LU, dgbtrf, whose factors
dgbtrs solves with. Both are called through ctypes from the LAPACK that
numpy's linalg extension already links (see _band_lu_routines), so no
library is loaded for them. When the accepted step was undamped, it is the
full Newton step that the convergence test asks for, so that test solves
nothing more.

Once the solve is plainly inside the Newton basin, the Hessian hardly
changes: while each accepted step is undamped, below _FULL_STEP_TOL of the
point spacing and below _FULL_STEP_TOL of the step before it, the LU
factors of the last undamped Hessian are kept. An iteration on kept
factors evaluates only the 4 axis points of the stencil, which give the
energy and its gradient, and solves on those factors; a damped trial in it
damps the last Hessian built. Any other step drops the factors.

Overflow and invalid operations are not warned about; a non-finite seed
length, energy or derivative raises GeodesicSolveFailed instead.
"""
import cmath
import ctypes
import math

import numpy as np
from numpy.linalg import _umath_linalg

from .distances import DistanceMethod, DistanceResult
from .domains import DomainModel
# domain.check raises OutsideDomain; callers may still catch it as oracle.OutsideDomain
from .errors import BadParameter, GeodesicSolveFailed, OutsideDomain  # noqa: F401
from .metrics import MetricDensity, eval_many
from .specparse import domain_metric

_BAND = 3  # a segment's 4x4 Hessian block couples unknowns at most 3 apart
# +-h, +-ih and the diagonals round a centre: lambda's gradient and Hessian
# in one call; the first _AXES points alone give its gradient.
_STENCIL = np.array([1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
_AXES = 4
_EYE = np.eye(2)
# Difference and stopping steps, relative to the point spacing (which shrinks
# near the boundary). Gradient rounding moves points by ~1e-9 of the spacing;
# at a minimum the undamped Newton step stays below ~3e-2 of it (1e-9 from
# the disk's edge), while a solve stalled by damping asks for steps of ~1.
# A step also counts as small below _ROUNDING |p|, a few ulp of the point's
# coordinates: points far from 0 and nearly coincident cannot move by less.
_DIFF_STEP, _STEP_TOL, _FULL_STEP_TOL = 1e-5, 1e-7, 0.1
_ROUNDING = 8.0 * np.finfo(float).eps
# A chord of hyperbolic length L, across which the density changes by O(L),
# is longer than the geodesic by O(L^2) relative: below rounding from here.
_CHORD_LENGTH = 1e-8


# dgbtrf's symbol and LAPACK's integer type in the builds numpy links; dgbtrs
# is named alike. The ILP64 names come first: an LP64 dgbtrf_ called with
# 64-bit integers would misread them.
_LAPACK_SYMBOLS = (
    ("scipy_dgbtrf_64_", ctypes.c_int64),  # numpy >= 2 wheels (scipy-openblas64)
    ("dgbtrf_64_", ctypes.c_int64),  # numpy 1.2x wheels (openblas64_)
    ("dgbtrf_", ctypes.c_int32),  # LP64 builds
)


def _band_lu_routines(lib):
    """dgbtrf, dgbtrs and their integer type from the shared library lib, by
    the first row of _LAPACK_SYMBOLS that lib resolves; ImportError if none."""
    for name, int_type in _LAPACK_SYMBOLS:
        try:
            trf, trs = getattr(lib, name), getattr(lib, name.replace("trf", "trs"))
        except AttributeError:
            continue
        ptr, addr = ctypes.POINTER(int_type), ctypes.c_void_p  # addr: an _ARRAY
        # M, N, KL, KU, AB, LDAB, IPIV, INFO
        trf.argtypes = [ptr, ptr, ptr, ptr, addr, ptr, ptr, ptr]
        # TRANS, N, KL, KU, NRHS, AB, LDAB, IPIV, B, LDB, INFO, and TRANS's
        # length, which Fortran passes after the arguments
        trs.argtypes = [ctypes.c_char_p, ptr, ptr, ptr, ptr, addr, ptr, ptr, addr, ptr, ptr,
                        ctypes.c_size_t]
        trf.restype = trs.restype = None
        return trf, trs, int_type
    tried = ", ".join(f"{name}/{name.replace('trf', 'trs')}" for name, _ in _LAPACK_SYMBOLS)
    raise ImportError(f"no LAPACK band LU in {lib._name}: none of the symbols {tried}")


# The handle of numpy's loaded linalg extension: dlsym through it also
# searches the libraries the extension links, its LAPACK among them.
_DGBTRF, _DGBTRS, _INT = _band_lu_routines(ctypes.CDLL(_umath_linalg.__file__))
# The arguments every call passes alike, made once: KL = KU, LDAB, NRHS.
_KL, _LDAB, _NRHS = _INT(_BAND), _INT(3 * _BAND + 1), _INT(1)
# _ARRAY.from_buffer(a) shares the memory of the C-contiguous array a, and
# passes as its address: cheaper than a.ctypes.data.
_ARRAY = ctypes.c_char * 1


def _seed(domain: DomainModel, z1: complex, z2: complex, m: int) -> np.ndarray:
    """The m-point straight seed: the segment z1 -> z2, or for the doubly
    connected kinds the segment in log z whose angle change is at most pi."""
    t = np.linspace(0.0, 1.0, m)
    if not domain.doubly_connected:
        return z1 + t * (z2 - z1)
    log_ratio = cmath.log(z2) - cmath.log(z1)
    if abs(log_ratio.imag) > math.pi:  # the other way round is the short one
        log_ratio = log_ratio - math.copysign(2.0 * math.pi, log_ratio.imag) * 1j
    seed = z1 * np.exp(t * log_ratio)
    seed[-1] = z2
    return seed


def _with_midpoints(p: np.ndarray) -> np.ndarray:
    """The 2m - 1 points p[0], midpoint, p[1], ..., p[m - 1] of the polyline p."""
    q = np.empty(2 * p.size - 1, dtype=complex)
    q[0::2], q[1::2] = p, 0.5 * (p[1:] + p[:-1])
    return q


def _simpson(lam: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Simpson lengths of the segments of the polyline p, lam the density at
    _with_midpoints(p)."""
    return (lam[:-2:2] + 4.0 * lam[1::2] + lam[2::2]) / 6.0 * np.abs(p[1:] - p[:-1])


def _respaced(metric: MetricDensity, p: np.ndarray):
    """The points of the polyline p moved along it to equal Simpson arc
    length, again while that length falls by more than 0.1%: Simpson's rule
    misjudges segments over which the density varies much, so one pass
    leaves too few points where the density is large. Returns the points
    and the density at their _with_midpoints."""
    length = math.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        for _ in range(50):
            lam = eval_many(metric, _with_midpoints(p))
            arc = np.concatenate([[0.0], np.cumsum(_simpson(lam, p))])
            if not np.isfinite(arc[-1]):
                raise GeodesicSolveFailed(f"non-finite seed length in {metric.domain.label()}")
            if not arc[-1] < (1.0 - 1e-3) * length:
                return p, lam
            length = arc[-1]
            targets = np.linspace(0.0, length, p.size)
            p = np.interp(targets, arc, p.real) + 1j * np.interp(targets, arc, p.imag)
        return p, eval_many(metric, _with_midpoints(p))


def _diff_steps(q: np.ndarray) -> np.ndarray:
    """Stencil steps: _DIFF_STEP times |np.gradient(q)|, its differences
    written out (the same bits)."""
    d = np.empty_like(q)
    d[0], d[-1] = q[1] - q[0], q[-1] - q[-2]
    np.subtract(q[2:], q[:-2], out=d[1:-1])
    d[1:-1] /= 2.0
    h = np.abs(d)
    h *= _DIFF_STEP
    return h


def _energy_derivatives(metric: MetricDensity, q: np.ndarray, lam: np.ndarray,
                        h: np.ndarray, hessian: bool = True):
    """The energy sum L_k^2 of the polyline q[::2] (q from _with_midpoints, lam
    the density at q), its gradient in the interior points as d/dx + i d/dy,
    and its exact Hessian in gbtrf's band storage, unknowns in (Re, Im) order:
    3 _BAND + 1 rows in Fortran order, the top _BAND of them zero (gbtrf's
    room for the fill-in of its pivoting). With hessian=False the Hessian is
    None and only the _AXES points of the stencil are evaluated.

    L_k = M_k s_k, M_k = (lambda_a + 4 lambda_c + lambda_b) / 6 and s_k = |b - a|,
    depends on the two ends a, b of segment k (c its midpoint) alone, so
    Hess(L_k^2) = 2 grad L grad L^T + 2 L Hess L is one 4x4 block, with
    Hess L = s Hess M + grad M grad s^T + grad s grad M^T + M Hess s. The
    gradient and Hessian of lambda at q come from a 9-point stencil of step h,
    whose centre is lam.
    """
    stencil = _STENCIL if hessian else _STENCIL[:_AXES]
    off = eval_many(metric, q + h * stencil[:, None])  # the points round q
    g = np.empty((2, q.size))  # d/dx, d/dy of lambda
    g[0], g[1] = off[0] - off[1], off[2] - off[3]
    g /= 2.0 * h

    # Per segment, with the four coordinates of (a, b) as the leading axes.
    n_seg = q.size // 2
    mean = (lam[:-2:2] + 4.0 * lam[1::2] + lam[2::2]) / 6.0
    seg = q[2::2] - q[:-2:2]
    s = np.abs(seg)
    u = seg.view(np.float64).reshape(-1, 2).T / s
    g_c = 2.0 * g[:, 1::2]
    d_mean = np.empty((4, n_seg))
    np.add(g[:, :-2:2], g_c, out=d_mean[:2])
    np.add(g[:, 2::2], g_c, out=d_mean[2:])
    d_mean /= 6.0
    d_s = np.empty((4, n_seg))
    d_s[:2], d_s[2:] = -u, u
    length = mean * s
    d_len = s * d_mean
    d_len += mean * d_s
    d_energy = 2.0 * length * d_len  # d/da, d/db per segment
    grad = np.empty(n_seg - 1, dtype=complex)
    grad.real = d_energy[2, :-1] + d_energy[0, 1:]
    grad.imag = d_energy[3, :-1] + d_energy[1, 1:]
    energy = float(np.sum(length ** 2))
    if not hessian:
        return energy, grad, None

    h2 = h ** 2
    two_lam = 2.0 * lam
    hess = np.empty((2, 2, q.size))
    hess[0, 0] = (off[0] - two_lam + off[1]) / h2
    hess[1, 1] = (off[2] - two_lam + off[3]) / h2
    hess[0, 1] = hess[1, 0] = (off[4] - off[5] - off[6] + off[7]) / (4.0 * h2)
    h_c = hess[:, :, 1::2]
    h_mean = np.empty((4, 4, n_seg))
    h_mean[:2, :2] = hess[:, :, :-2:2] + h_c
    h_mean[:2, 2:] = h_mean[2:, :2] = h_c
    h_mean[2:, 2:] = hess[:, :, 2::2] + h_c
    h_mean /= 6.0
    proj = _EYE[:, :, None] - u[:, None] * u[None, :]
    proj /= s
    h_s = np.empty((4, 4, n_seg))
    h_s[:2, :2] = h_s[2:, 2:] = proj
    h_s[:2, 2:] = h_s[2:, :2] = -proj
    cross = d_mean[:, None] * d_s[None, :]
    h_len = s * h_mean
    h_len += cross
    h_len += cross.transpose(1, 0, 2)
    h_s *= mean
    h_len += h_s
    h_len *= length
    blocks = d_len[:, None] * d_len[None, :]
    blocks += h_len
    blocks *= 2.0

    # Segment k's block sits on unknowns 2k - 2 .. 2k + 1: its column j on
    # coordinate j % 2 of point k + j // 2, the second axis of ab here; in
    # Fortran order that axis interleaves with the points. The columns of
    # ab start 2 early and are trimmed on return: the fixed ends' entries
    # land in the trimmed columns or in band corners that gbtrf never reads.
    ab = np.zeros((3 * _BAND + 1, 2, n_seg + 1), order="F")
    for j in range(4):
        ab[2 * _BAND - j:2 * _BAND - j + 4, j % 2, j // 2:j // 2 + n_seg] += blocks[:, j]
    return energy, grad, ab.reshape(3 * _BAND + 1, -1, order="F")[:, 2:-2]


def _band_lu(ab: np.ndarray, damping: float, label: str):
    """LAPACK dgbtrf's LU factors and pivots of H + damping |diag H|, H the
    banded Hessian in its storage ab; GeodesicSolveFailed when H is singular."""
    lu = ab.astype(np.float64, order="F")  # a copy, which dgbtrf factors in place
    if lu.shape[0] != 3 * _BAND + 1:
        raise ValueError(f"band storage has {lu.shape[0]} rows, not {3 * _BAND + 1}")
    if damping:  # +0.0 would leave ab's diagonal as it is: summed from +0.0, it has no -0.0
        lu[2 * _BAND] += damping * np.abs(ab[2 * _BAND])
    n, info = _INT(lu.shape[1]), _INT()
    piv = (_INT * lu.shape[1])()
    _DGBTRF(n, n, _KL, _KL, _ARRAY.from_buffer(lu.T), _LDAB, piv, info)
    if info.value > 0:  # e.g. a path that no longer spans its ends
        raise GeodesicSolveFailed(f"singular energy Hessian in {label}")
    if info.value < 0:  # an argument LAPACK refuses: a bug here, not a bad path
        raise RuntimeError(f"dgbtrf refused its argument {-info.value}")
    return lu, piv


def _newton_step(factors, grad: np.ndarray) -> np.ndarray:
    """The step -H^-1 grad, by LAPACK dgbtrs on the _band_lu factors of H."""
    lu, piv = factors
    step = -grad.view(np.float64)  # a copy, which dgbtrs overwrites with the solution
    if step.size != lu.shape[1]:
        raise ValueError(f"{step.size} unknowns for factors of order {lu.shape[1]}")
    n, info = _INT(step.size), _INT()
    _DGBTRS(b"N", n, _KL, _KL, _NRHS, _ARRAY.from_buffer(lu.T), _LDAB, piv,
            _ARRAY.from_buffer(step), n, info, 1)
    if info.value:
        raise RuntimeError(f"dgbtrs refused its argument {-info.value}")
    return step.view(np.complex128)


def _geodesic_length(metric: MetricDensity, p: np.ndarray, lam: np.ndarray) -> float:
    """Minimize the energy sum L_k^2 from the polyline p, ends fixed, by
    Levenberg-Marquardt damped Newton steps; return the Simpson length of
    the minimizer. lam is the density at _with_midpoints(p). The accepted
    trial of each line search keeps its points with midpoints q and the
    density lam there for the next iteration, and the LU factors of the
    undamped Hessian while the steps contract tenfold (see the module)."""
    label = metric.domain.label()
    damping, kept, last = 0.0, None, math.inf
    q = _with_midpoints(p)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        for _ in range(100):
            if kept is None:
                energy, grad, ab = _energy_derivatives(metric, q, lam, _diff_steps(q))
            else:  # the gradient alone, for a step on the kept factors
                energy, grad, _ = _energy_derivatives(metric, q, lam, _diff_steps(q),
                                                      hessian=False)
            if not (math.isfinite(energy) and np.isfinite(grad).all()
                    and np.isfinite(ab).all()):
                raise GeodesicSolveFailed(f"non-finite energy gradient in {label}")
            spacing = np.abs(p[2:] - p[:-2])
            for _ in range(40):
                factors = kept if kept and damping == 0.0 else _band_lu(ab, damping, label)
                step = _newton_step(factors, grad)
                new = p.copy()
                new[1:-1] += step
                new_q = _with_midpoints(new)
                if metric.domain.contains(new_q).all():
                    new_lam = eval_many(metric, new_q)
                    lengths = _simpson(new_lam, new)
                    if float(np.sum(lengths ** 2)) <= energy:
                        break
                damping = max(1e-3, 10.0 * damping)
            else:
                raise GeodesicSolveFailed(f"geodesic solve cannot lower the energy in {label}")
            # Rounding may force damping at the minimum; a step that damping
            # made small shows convergence only when the full Newton step is
            # small too.
            size = np.abs(step)
            rel = size / spacing
            small = (rel < _STEP_TOL) | (size < _ROUNDING * np.abs(p[1:-1]))
            if small.all():
                full = step if damping == 0.0 else _newton_step(
                    kept or _band_lu(ab, 0.0, label), grad)
                if np.max(np.abs(full) / spacing) < _FULL_STEP_TOL:
                    return float(lengths.sum())
            rel = np.max(rel)
            inside = damping == 0.0 and rel < _FULL_STEP_TOL and rel < _FULL_STEP_TOL * last
            kept, last = factors if inside else None, rel
            p, q, lam = new, new_q, new_lam
            damping = 0.0 if damping <= 1e-3 else 0.1 * damping
    raise GeodesicSolveFailed(f"geodesic solve did not converge in {label}")


def geodesic_oracle(domain: DomainModel, z1, z2, grid_n: int = 300,
                    refine: bool = True) -> DistanceResult:
    """Discrete-geodesic estimate of the hyperbolic distance between z1 and z2.

    grid_n is the number of path points (>= 100). The straight seed (see
    _seed) is spaced evenly in metric length and relaxed onto a discrete
    geodesic, whose Simpson length is returned, or with refine=False that of
    the seed itself (an upper bound up to quadrature error). Points at most
    grid_n rounding floors _ROUNDING max(|z1|, |z2|) apart, which no such
    path resolves, get the Simpson length of their chord when it is at most
    _CHORD_LENGTH, and so the geodesic's to double precision. GeodesicSolveFailed
    is raised when the solve turns non-finite or singular, cannot lower the
    energy or stalls.
    """
    if grid_n < 100:
        raise BadParameter(f"grid_n must be >= 100, got {grid_n}")
    z1, z2 = domain.check(z1), domain.check(z2)
    if z1 == z2:
        return DistanceResult(0.0, DistanceMethod.GRID_ORACLE)

    metric = domain_metric(domain)
    if abs(z2 - z1) <= grid_n * _ROUNDING * max(abs(z1), abs(z2)):
        chord = np.array([z1, z2])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
            length = float(_simpson(eval_many(metric, _with_midpoints(chord)), chord).sum())
        if length <= _CHORD_LENGTH:
            return DistanceResult(length, DistanceMethod.GRID_ORACLE)
    p, lam = _respaced(metric, _seed(domain, z1, z2, grid_n))
    if refine:
        return DistanceResult(_geodesic_length(metric, p, lam), DistanceMethod.GRID_ORACLE)
    return DistanceResult(float(_simpson(lam, p).sum()), DistanceMethod.GRID_ORACLE)
