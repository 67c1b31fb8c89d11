"""Independent grid oracle for hyperbolic distances.

It uses only the density, never closed forms or covering lifts. Dijkstra on
a grid graph (Cartesian for simply connected domains, polar in
(log|z|, arg z) for punctured domains and annuli, so the singularity is
resolved), each 8-neighbor edge weighted by density(midpoint) * |edge|,
gives a path whose length has a direction bias (up to ~8%) that grid
refinement does not remove. The path seeds a discrete geodesic: 129 points
minimizing sum lambda(midpoint)^2 |segment|^2 by damped Newton, whose
Simpson length is returned. A polar grid is cut along a ray, so its path
passes the puncture on one side; of one grid per side, the shorter wins.
"""
import cmath
import math

import numpy as np

from .distances import DistanceMethod, DistanceResult
from .domains import DomainModel
from .errors import BadParameter, GeodesicSolveFailed, OutsideDomain
from .metrics import MetricDensity, eval_many
from .specparse import domain_metric

_OFFSETS = [(1, 0), (0, 1), (1, 1), (1, -1)]  # undirected 8-neighbor generators
_BAND = 3  # a gradient component depends on the unknowns at most 3 away
# Difference and stopping steps, relative to the point spacing (which shrinks
# near the boundary); gradient rounding moves points by ~1e-9 of the spacing.
_DIFF_STEP, _STEP_TOL = 1e-5, 1e-7


def _cartesian_nodes(domain: DomainModel, z1: complex, z2: complex, n: int):
    """Box of the simply connected kinds: the disk (the radial one), the
    half-plane (Im z unbounded above) and the strip."""
    if domain.radial:
        rbox = min(0.995, max(abs(z1), abs(z2)) + 0.15)
        xs = np.linspace(-rbox, rbox, n)
        ys = xs
    elif domain.hi == math.inf:
        x1, y1, x2, y2 = z1.real, z1.imag, z2.real, z2.imag
        if abs(x1 - x2) < 1e-12:
            apex = max(y1, y2)
            cx, half = x1, 0.5 * abs(y1 - y2) + 0.5
        else:
            c = (abs(z1) ** 2 - abs(z2) ** 2) / (2.0 * (x1 - x2))
            apex = abs(z1 - c)
            cx, half = c, 1.15 * apex
        xs = np.linspace(cx - half, cx + half, n)
        ys = np.linspace(0.75 * min(y1, y2), 1.15 * max(apex, y1, y2), n)
    else:
        h = domain.hi
        pad = 2.0 + 0.5 * abs(z1.real - z2.real)
        xs = np.linspace(min(z1.real, z2.real) - pad, max(z1.real, z2.real) + pad, n)
        ys = np.linspace(h * 1e-3, h * (1.0 - 1e-3), n)
    return xs[:, None] + 1j * ys[None, :]


def _polar_nodes(domain: DomainModel, z1: complex, z2: complex, n: int, cut: float):
    """Polar grid with columns from arg z = cut to just short of cut + 2 pi,
    and no edge between the last and the first: no path crosses that ray."""
    t1, t2 = math.log(abs(z1)), math.log(abs(z2))
    t_hi = math.log(domain.hi)
    if domain.lo > 0.0:
        # annulus: the whole radial range, inset by 0.2% at both edges
        t_lo = math.log(domain.lo)
        inset = 0.002 * (t_hi - t_lo)
        t_lo, t_hi = t_lo + inset, t_hi - inset
    else:
        depth = max(-t1, -t2)
        t_lo = -(depth + 0.5 * math.pi + 0.5)
        t_hi = min(t_hi - 1e-4, max(t1, t2) + 0.2)
    ts = np.linspace(t_lo, t_hi, n)
    thetas = cut + np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.exp(ts[:, None] + 1j * thetas[None, :])


def _build_graph(metric: MetricDensity, nodes: np.ndarray):
    from scipy.sparse import coo_matrix

    nr, nc = nodes.shape
    mask = metric.domain.contains(nodes)
    m = int(mask.sum())
    idx = -np.ones((nr, nc), dtype=np.int64)
    idx[mask] = np.arange(m)
    rows, cols, weights = [], [], []
    for di, dj in _OFFSETS:
        tail = (slice(0, nr - di), slice(max(0, -dj), nc - max(0, dj)))
        head = (slice(di, nr), slice(max(0, dj), nc + min(0, dj)))
        mid = 0.5 * (nodes[tail] + nodes[head])
        ok = mask[tail] & mask[head] & metric.domain.contains(mid)
        weights.append(eval_many(metric, mid[ok]) * np.abs((nodes[head] - nodes[tail])[ok]))
        rows.append(idx[tail][ok])
        cols.append(idx[head][ok])
    graph = coo_matrix((np.concatenate(weights),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(m, m)).tocsr()
    return graph, nodes[mask]


def _grid_path(metric: MetricDensity, nodes: np.ndarray, z1: complex, z2: complex):
    """Dijkstra on the grid: the graph length, and the node path with its end
    nodes replaced by z1 and z2 (which removes the snap error)."""
    from scipy.sparse.csgraph import dijkstra

    graph, flat_nodes = _build_graph(metric, nodes)
    src = int(np.argmin(np.abs(flat_nodes - z1)))
    dst = int(np.argmin(np.abs(flat_nodes - z2)))
    dist_row, pred = dijkstra(graph, directed=False, indices=src, return_predecessors=True)
    if not np.isfinite(dist_row[dst]):
        raise OutsideDomain(f"no grid path between {z1} and {z2} in {metric.domain.label()}")
    node_path = [dst]
    while node_path[-1] != src:
        node_path.append(int(pred[node_path[-1]]))
    return float(dist_row[dst]), np.concatenate([[z1], flat_nodes[node_path[-2:0:-1]], [z2]])


def _segment_lengths(metric: MetricDensity, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Simpson quadrature of the metric length of straight segments a -> b."""
    mid = 0.5 * (a + b)
    lam = (eval_many(metric, a) + 4.0 * eval_many(metric, mid) + eval_many(metric, b)) / 6.0
    return lam * np.abs(b - a)


def _resample(metric: MetricDensity, pts: np.ndarray, m: int) -> np.ndarray:
    """m points along the polyline pts, equally spaced in metric arc length."""
    arc = np.concatenate([[0.0], np.cumsum(_segment_lengths(metric, pts[:-1], pts[1:]))])
    targets = np.linspace(0.0, arc[-1], m)
    return np.interp(targets, arc, pts.real) + 1j * np.interp(targets, arc, pts.imag)


def _energy(metric: MetricDensity, p: np.ndarray) -> float:
    """Discrete energy sum lambda(midpoint)^2 |segment|^2 of the polyline p."""
    return float(np.sum((eval_many(metric, 0.5 * (p[1:] + p[:-1])) * np.abs(np.diff(p))) ** 2))


def _energy_gradient(metric: MetricDensity, p: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Gradient of _energy in the interior points, as d/dx + i d/dy; the
    gradient of lambda^2 comes from central differences of step h."""
    seg = np.diff(p)
    mid = 0.5 * (p[1:] + p[:-1])
    w = eval_many(metric, np.stack([mid, mid + h, mid - h, mid + 1j * h, mid - 1j * h])) ** 2
    grad_w = ((w[1] - w[2]) + 1j * (w[3] - w[4])) / (2.0 * h)
    pull = 2.0 * w[0] * seg  # from |segment|^2, with opposite signs at its two ends
    push = 0.5 * np.abs(seg) ** 2 * grad_w  # from lambda(midpoint)^2, the same at both ends
    return pull[:-1] - pull[1:] + push[:-1] + push[1:]


def _banded_hessian(metric: MetricDensity, p: np.ndarray, grad: np.ndarray, h: np.ndarray):
    """Hessian of _energy in solve_banded's storage, unknowns in (Re, Im) order.
    Unknowns 7 apart touch disjoint rows: one gradient gives 1 column in 7."""
    width = 2 * _BAND + 1
    n = 2 * (p.size - 2)
    rows = np.arange(n)
    delta = _DIFF_STEP * np.repeat(np.abs(p[2:] - p[:-2]), 2)
    ab = np.zeros((width, n))
    for first in range(width):
        shifted = p.copy()
        shifted[1:-1].view(np.float64)[first::width] += delta[first::width]
        dg = (_energy_gradient(metric, shifted, h) - grad).view(np.float64)
        cols = rows - _BAND + (first - rows + _BAND) % width  # the one within reach of each row
        ok = (cols >= 0) & (cols < n)
        ab[_BAND + rows[ok] - cols[ok], cols[ok]] = dg[ok] / delta[cols[ok]]
    return ab


def _geodesic_length(metric: MetricDensity, pts: np.ndarray) -> float:
    """Minimize _energy from pts by Levenberg-Marquardt damped Newton steps;
    return the Simpson length of the minimizer."""
    from scipy.linalg import solve_banded

    dom = metric.domain
    p = _resample(metric, pts, 129)
    damping = 0.0
    for _ in range(100):
        h = _DIFF_STEP * np.abs(np.diff(p))
        with np.errstate(invalid="ignore", divide="ignore"):  # checked just below
            grad = _energy_gradient(metric, p, h)
            ab = _banded_hessian(metric, p, grad, h)
        if not (np.isfinite(grad).all() and np.isfinite(ab).all()):
            raise GeodesicSolveFailed(f"non-finite energy gradient in {dom.label()}")
        energy, spacing = _energy(metric, p), np.abs(p[2:] - p[:-2])
        for _ in range(40):
            damped = ab.copy()
            damped[_BAND] += damping * np.abs(ab[_BAND])
            step = solve_banded((_BAND, _BAND), damped, -grad.view(np.float64),
                                check_finite=False).view(np.complex128)
            new = p.copy()
            new[1:-1] += step
            if (dom.contains(new).all() and dom.contains(0.5 * (new[1:] + new[:-1])).all()
                    and _energy(metric, new) <= energy):
                break
            damping = max(1e-3, 10.0 * damping)
        else:
            raise GeodesicSolveFailed(f"geodesic solve cannot lower the energy in {dom.label()}")
        if np.max(np.abs(step) / spacing) < _STEP_TOL:  # rounding may force damping here
            return float(_segment_lengths(metric, new[:-1], new[1:]).sum())
        p = new
        damping = 0.0 if damping <= 1e-3 else 0.1 * damping
    raise GeodesicSolveFailed(f"geodesic solve did not converge in {dom.label()}")


def geodesic_oracle(domain: DomainModel, z1, z2, grid_n: int = 300,
                    refine: bool = True) -> DistanceResult:
    """Grid-graph estimate of the hyperbolic distance between z1 and z2.

    grid_n is the grid resolution per axis (>= 100). Returns the discrete
    geodesic's length, or with refine=False the raw graph length (an upper
    bound up to the 8-neighbor bias); for the punctured disks and the annulus
    the smaller of the two cut grids' values. GeodesicSolveFailed is raised
    when the solve turns non-finite, cannot lower the energy or stalls.
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
    if domain.doubly_connected:
        cut = 0.5 * (cmath.phase(z1) + cmath.phase(z2))  # between z1 and z2, one way round
        grids = [_polar_nodes(domain, z1, z2, grid_n, c) for c in (cut, cut + math.pi)]
    else:
        grids = [_cartesian_nodes(domain, z1, z2, grid_n)]
    paths = [_grid_path(metric, nodes, z1, z2) for nodes in grids]
    lengths = [_geodesic_length(metric, pts) if refine else raw for raw, pts in paths]
    return DistanceResult(min(lengths), DistanceMethod.GRID_ORACLE)
