"""Independent reference implementations used to check the package.

Everything here is deliberately written with different algorithms than the
code under test: Floyd-Warshall and Bellman-Ford instead of Dijkstra, the closed-form
characteristic-cubic solution instead of LAPACK's eigh, winding numbers
instead of ray casting, dense boundary sampling instead of exact
segment distances, a per-tract loop (in floats or exact fractions)
instead of the batched Moran kernel, and a scan over every node id in
sorted order instead of the snap index, and scalar loops over every
(provider, part) and every tract pair instead of the batched numpy
segment kernel. Tests that need scipy compare
against it where it is installed: csgraph's Dijkstra and LAPACK's eigh
through scipy.linalg; likewise networkx's multi-source Dijkstra.
"""

from __future__ import annotations

import math

import numpy as np

from access_atlas.errors import DomainError, SnapError
from access_atlas.geometry import (
    ADJACENCY_EPS,
    Polygon,
    boundary_distance,
    circle_intersects_polygon,
    parts_bounds,
)


def floyd_warshall(n: int, edges: list[tuple[int, int, float]]) -> np.ndarray:
    """All-pairs shortest distances on an undirected weighted graph."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for a, b, w in edges:
        if w < d[a, b]:
            d[a, b] = w
            d[b, a] = w
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def bellman_ford(
    edges: list[tuple[str, str, float]], sources: set[str]
) -> dict[str, float]:
    """Distance from every reachable node to its nearest source, by relaxing
    every undirected edge until nothing changes. Each distance is the
    smallest float sum over all paths, taken from the source outward, as in
    Dijkstra, but reached in no particular order."""
    dist = {s: 0.0 for s in sources}
    changed = True
    while changed:
        changed = False
        for a, b, w in edges:
            for u, v in ((a, b), (b, a)):
                if u in dist and dist[u] + w < dist.get(v, math.inf):
                    dist[v] = dist[u] + w
                    changed = True
    return dist


def cubic_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Roots of the characteristic polynomial of a symmetric 3x3 matrix,
    via the trigonometric closed form; returned in descending order."""
    a = np.asarray(a, dtype=float)
    p1 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    if p1 == 0.0:
        return np.sort(np.diag(a))[::-1]
    q = np.trace(a) / 3.0
    p2 = (a[0, 0] - q) ** 2 + (a[1, 1] - q) ** 2 + (a[2, 2] - q) ** 2 + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    r = min(1.0, max(-1.0, np.linalg.det(b) / 2.0))
    phi = math.acos(r) / 3.0
    e1 = q + 2.0 * p * math.cos(phi)
    e3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return np.array([e1, 3.0 * q - e1 - e3, e3])


def cubic_eigenvector(a: np.ndarray, lam: float) -> np.ndarray:
    """Unit eigenvector for an eigenvalue of a symmetric 3x3 matrix,
    from the cross product of two rows of (A - lam I)."""
    m = np.asarray(a, dtype=float) - lam * np.eye(3)
    best = None
    best_norm = -1.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        v = np.cross(m[i], m[j])
        nv = np.linalg.norm(v)
        if nv > best_norm:
            best, best_norm = v, nv
    return best / np.linalg.norm(best)


def pearson_brute(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation from the raw covariance/sd definition."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    mx, my = x.mean(), y.mean()
    cov = sum((x[i] - mx) * (y[i] - my) for i in range(n)) / (n - 1)
    sx = math.sqrt(sum((v - mx) ** 2 for v in x) / (n - 1))
    sy = math.sqrt(sum((v - my) ** 2 for v in y) / (n - 1))
    return cov / (sx * sy)


def winding_inside(pt, rings) -> bool:
    """Point-in-polygon via the winding number over all rings combined
    (nonzero winding for the exterior minus holes reduces to parity when
    ring orientations are mixed, so holes are handled by counting each
    ring separately and XOR-ing the results)."""
    inside = False
    for ring in rings:
        wn = 0
        for i in range(len(ring) - 1):
            x0, y0 = ring[i]
            x1, y1 = ring[i + 1]
            if y0 <= pt[1]:
                if y1 > pt[1] and _is_left(x0, y0, x1, y1, pt) > 0:
                    wn += 1
            elif y1 <= pt[1] and _is_left(x0, y0, x1, y1, pt) < 0:
                wn -= 1
        if wn != 0:
            inside = not inside
    return inside


def _is_left(x0, y0, x1, y1, pt) -> float:
    return (x1 - x0) * (pt[1] - y0) - (pt[0] - x0) * (y1 - y0)


def sampled_boundary_distance(rings, center, step_m: float = 1.0) -> float:
    """Min distance from center to the polygon boundary, by sampling every
    ring segment at step_m intervals. Overestimates by < step_m/2."""
    cx, cy = center
    best = math.inf
    for ring in rings:
        for i in range(len(ring) - 1):
            x0, y0 = ring[i]
            x1, y1 = ring[i + 1]
            seg_len = math.hypot(x1 - x0, y1 - y0)
            n = max(1, int(math.ceil(seg_len / step_m)))
            ts = np.linspace(0.0, 1.0, n + 1)
            xs = x0 + ts * (x1 - x0)
            ys = y0 + ts * (y1 - y0)
            d = float(np.min(np.hypot(xs - cx, ys - cy)))
            if d < best:
                best = d
    return best


def disk_intersects_sampled(rings, center, radius_m, step_m: float = 1.0) -> bool:
    """Boundary-sampling disk/polygon intersection oracle."""
    if winding_inside(center, rings):
        return True
    return sampled_boundary_distance(rings, center, step_m) <= radius_m


def moran_loop(values, neighbors, number=float):
    """Global Moran's I, one tract at a time:
    (n / S0) * sum_i (1/|N(i)|) z_i sum_{j in N(i)} z_j / sum_i z_i^2.

    With number=Fraction the arithmetic is exact, provided the values are
    exact in binary floating point (integers, halves, ...)."""
    x = [number(v) for v in values]
    n = len(x)
    mean = sum(x) / n
    z = [v - mean for v in x]
    num = sum(
        z[i] * sum(z[j] for j in neigh) / len(neigh)
        for i, neigh in enumerate(neighbors)
        if neigh
    )
    s0 = sum(1 for neigh in neighbors if neigh)
    return n * num / (s0 * sum(v * v for v in z))


def _node_id_key(node_id: str) -> tuple[int, int, str]:
    # Decimal ids order numerically, everything else lexicographically.
    if node_id.isdecimal():
        return (0, int(node_id), node_id)
    return (1, 0, node_id)


def snap_loop(pt, net, max_snap_m: float = 500.0) -> str:
    """Nearest node by scanning every id in sorted order and keeping the
    first strict minimum of math.hypot (the first id when every distance
    overflows to inf); a drop-in for network.snap_point."""
    if not net.nodes:
        raise DomainError("cannot snap onto an empty network")
    ordered = sorted(net.nodes, key=_node_id_key)
    best_id = ordered[0]
    best_d = math.inf
    for nid in ordered:
        npt = net.nodes[nid]
        d = math.hypot(pt.x - npt.x, pt.y - npt.y)
        if d < best_d:
            best_d = d
            best_id = nid
    if best_d > max_snap_m:
        raise SnapError(
            f"nearest node {best_id!r} is {best_d:.1f} m away (max {max_snap_m:.0f} m)",
            best_d,
        )
    return best_id


def _parts(tract) -> list:
    return [tract] if isinstance(tract, Polygon) else list(tract)


def availability_loop(tract, providers) -> int:
    """Providers, as (location, radius_m) pairs, whose disk meets any part
    of the tract: one scalar circle_intersects_polygon per (provider, part);
    a drop-in for one tract of geometry.availability_counts."""
    parts = _parts(tract)
    return sum(
        1
        for location, radius in providers
        if any(circle_intersects_polygon(location, radius, part) for part in parts)
    )


def queen_adjacency_loop(tracts, eps: float = ADJACENCY_EPS) -> list[set[int]]:
    """Neighbour sets by testing every bbox-overlapping pair of tracts:
    some vertex of one within eps of the other's boundary, by the scalar
    boundary_distance, in either direction; a drop-in for the neighbors of
    geometry.queen_adjacency."""
    parts_list = [_parts(t) for t in tracts]
    verts = [[v for part in parts for ring in part.rings for v in ring[:-1]] for parts in parts_list]
    boxes = [parts_bounds(parts) for parts in parts_list]

    def near(vertices, parts) -> bool:
        return any(boundary_distance(v, part) <= eps for v in vertices for part in parts)

    adj: list[set[int]] = [set() for _ in tracts]
    for i in range(len(tracts)):
        for j in range(i + 1, len(tracts)):
            bi, bj = boxes[i], boxes[j]
            if (
                bi[2] + eps < bj[0]
                or bj[2] + eps < bi[0]
                or bi[3] + eps < bj[1]
                or bj[3] + eps < bi[1]
            ):
                continue
            if near(verts[i], parts_list[j]) or near(verts[j], parts_list[i]):
                adj[i].add(j)
                adj[j].add(i)
    return adj
