"""Independent grid oracle for hyperbolic distances.

The oracle never uses closed forms or covering lifts: it builds a graph on a
grid over the domain (Cartesian for simply connected domains, polar in
(log|z|, arg z) for punctured domains and annuli, so the singularity is
resolved), weights each 8-neighbor edge by density(midpoint) * |edge|, and
runs Dijkstra.

A plain 8-neighbor shortest path overestimates the true distance by a
direction-quantization factor (up to ~8%) that does not vanish under grid
refinement, so the Dijkstra path is post-processed by continuous
path-straightening: interior vertices descend on the metric length of the
polyline (Simpson quadrature per segment) with a shrinking trust radius.
The refined length converges to the true distance and stays independent of
the closed-form route; refine=False returns the raw graph value, which is
an upper bound.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra as _dijkstra

from .distances import DistanceMethod, DistanceResult
from .domains import DomainModel
from .errors import BadParameter, OutsideDomain
from .metrics import MetricDensity, eval_many
from .specparse import domain_metric

_OFFSETS = [(1, 0), (0, 1), (1, 1), (1, -1)]  # undirected 8-neighbor generators


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
    return xs[:, None] + 1j * ys[None, :], False


def _polar_nodes(domain: DomainModel, z1: complex, z2: complex, n: int):
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
    thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.exp(ts[:, None] + 1j * thetas[None, :]), True


def _build_graph(metric: MetricDensity, nodes: np.ndarray, periodic: bool):
    nr, nc = nodes.shape
    mask = metric.domain.contains(nodes)
    idx = -np.ones((nr, nc), dtype=np.int64)
    idx[mask] = np.arange(int(mask.sum()))
    rows, cols, weights = [], [], []
    for di, dj in _OFFSETS:
        i = np.arange(0, nr - di)
        if periodic:
            j = np.arange(0, nc)
            jj = (j + dj) % nc
        else:
            j = np.arange(max(0, -dj), nc - max(0, dj))
            jj = j + dj
        a = nodes[np.ix_(i, j)]
        b = nodes[np.ix_(i + di, jj)]
        ok = mask[np.ix_(i, j)] & mask[np.ix_(i + di, jj)]
        mid = 0.5 * (a + b)
        ok &= metric.domain.contains(mid)
        if not ok.any():
            continue
        w = eval_many(metric, mid[ok]) * np.abs((b - a)[ok])
        rows.append(idx[np.ix_(i, j)][ok])
        cols.append(idx[np.ix_(i + di, jj)][ok])
        weights.append(w)
    m = int(mask.sum())
    graph = coo_matrix((np.concatenate(weights),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(m, m)).tocsr()
    return graph, idx, nodes[mask]


def _segment_lengths(metric: MetricDensity, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Simpson quadrature of the metric length of straight segments a -> b."""
    mid = 0.5 * (a + b)
    lam = (eval_many(metric, a) + 4.0 * eval_many(metric, mid) + eval_many(metric, b)) / 6.0
    return lam * np.abs(b - a)


def _resample(pts: np.ndarray, m: int) -> np.ndarray:
    seg = np.abs(np.diff(pts))
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    if arc[-1] == 0.0:
        return np.full(m, pts[0])
    targets = np.linspace(0.0, arc[-1], m)
    re = np.interp(targets, arc, pts.real)
    im = np.interp(targets, arc, pts.imag)
    out = re + 1j * im
    out[0], out[-1] = pts[0], pts[-1]
    return out


def _path_contained(dom, pts: np.ndarray) -> bool:
    mids = 0.5 * (pts[:-1] + pts[1:])
    return bool(np.all(dom.contains(pts)) and np.all(dom.contains(mids)))


def _sweep_level(metric: MetricDensity, pts: np.ndarray, sweeps: int) -> np.ndarray:
    """Red-black coordinate descent on the interior vertices of a polyline."""
    dom = metric.domain
    m = pts.size
    dirs = np.exp(2j * math.pi * np.arange(8) / 8.0)
    radius = 1.5 * max(float(np.abs(np.diff(pts)).mean()), 1e-12)
    for _ in range(sweeps):
        for parity in (1, 0):
            i = np.arange(1 + parity, m - 1, 2)
            if i.size == 0:
                continue
            left, mid_pts, right = pts[i - 1], pts[i], pts[i + 1]
            cost = (_segment_lengths(metric, left, mid_pts)
                    + _segment_lengths(metric, mid_pts, right))
            for d in dirs:
                cand = mid_pts + radius * d
                ok = (dom.contains(cand)
                      & dom.contains(0.5 * (left + cand))
                      & dom.contains(0.5 * (cand + right)))
                if not ok.any():
                    continue
                new_cost = np.full_like(cost, np.inf)
                new_cost[ok] = (_segment_lengths(metric, left[ok], cand[ok])
                                + _segment_lengths(metric, cand[ok], right[ok]))
                better = new_cost < cost
                mid_pts = np.where(better, cand, mid_pts)
                cost = np.where(better, new_cost, cost)
            pts[i] = mid_pts
        radius *= 0.70
    return pts


def _refine_path(metric: MetricDensity, pts: np.ndarray,
                 sweeps: int = 34, m_final: int = 129) -> float:
    """Multiscale straightening: relax a coarse polyline first (long-wave
    geometry moves fast there), then subdivide and repeat. Coarsening is
    skipped when the resampled chord would leave the domain."""
    dom = metric.domain
    m = 9
    levels = []
    while m < m_final:
        levels.append(m)
        m = 2 * m - 1
    levels.append(m_final)
    for level, m in enumerate(levels):
        cand = _resample(pts, m)
        if not _path_contained(dom, cand):
            continue
        pts = _sweep_level(metric, cand, sweeps if level < len(levels) - 1 else sweeps + 12)
    return float(_segment_lengths(metric, pts[:-1], pts[1:]).sum())


def geodesic_oracle(domain: DomainModel, z1, z2, grid_n: int = 300,
                    refine: bool = True) -> DistanceResult:
    """Grid-graph estimate of the hyperbolic distance between z1 and z2.

    grid_n is the grid resolution per axis (>= 100). With refine=True
    (default) the Dijkstra path is straightened in the continuum and the
    refined length is returned; with refine=False the raw graph length is
    returned, which converges to the true distance from above only up to the
    8-neighbor direction-quantization bias.
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
        nodes, periodic = _polar_nodes(domain, z1, z2, grid_n)
    else:
        nodes, periodic = _cartesian_nodes(domain, z1, z2, grid_n)
    graph, idx, flat_nodes = _build_graph(metric, nodes, periodic)

    src = int(np.argmin(np.abs(flat_nodes - z1)))
    dst = int(np.argmin(np.abs(flat_nodes - z2)))
    dist_row, pred = _dijkstra(graph, directed=False, indices=src,
                               return_predecessors=True)
    if not np.isfinite(dist_row[dst]):
        raise OutsideDomain(f"no grid path between {z1} and {z2} in {domain.label()}")

    node_path = [dst]
    while node_path[-1] != src:
        node_path.append(int(pred[node_path[-1]]))
    pts = flat_nodes[node_path[::-1]].astype(complex)
    pts[0], pts[-1] = z1, z2  # remove endpoint snap error

    if refine:
        value = _refine_path(metric, pts)
    else:
        value = float(dist_row[dst])
    return DistanceResult(value, DistanceMethod.GRID_ORACLE)
