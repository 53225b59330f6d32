"""Independent reference implementations used to check the package.

Everything here is deliberately written with different algorithms than the
code under test: Floyd-Warshall and Bellman-Ford instead of Dijkstra, the
closed-form characteristic-cubic solution instead of LAPACK's eigh, winding
numbers instead of ray casting, dense boundary sampling instead of exact
segment distances, a per-tract loop (in floats or exact fractions) instead
of the batched Moran kernel, row-standardised weights built one tract at a
time instead of by array operations on the CSR adjacency, a scan over every
node id in sorted order, one point and one tract at a time, instead of
blocks of points against the coordinate arrays and per-tract sums by
bincount, scalar loops over every (provider, part) and every tract pair,
measuring one segment at a time (`boundary_distance`,
`circle_intersects_polygon`), instead of the batched numpy segment kernel,
list-form polygons (`Polygon`, rings of ProjectedPoint tuples) with scalar
shoelace loops for area, centroid and bbox instead of the packed
`geometry.Tracts` and its array sums, a row-by-row road loader and graph
build instead of the column passes, `csv.reader` one row at a time for
every CSV text instead of splitting plain text whole, and a box-map
renderer that draws one map per call instead of one shared frame for every
map, an if/elif chain per value instead of one np.select for the
box-map classes, and json.JSONEncoder(indent=2) over the parsed input
geometry instead of the scores.geojson layout written from the tract
arrays. Tests that need scipy compare against it where it is
installed: csgraph's Dijkstra and LAPACK's eigh through scipy.linalg;
likewise networkx's multi-source Dijkstra.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from access_atlas.errors import DegenerateGeometry, DomainError, SchemaError, SnapError
from access_atlas.geometry import (
    ADJACENCY_EPS,
    BOUNDARY_EPS,
    Tracts,
    pack_tracts,
    project_lonlat,
)
from access_atlas.network import (
    DEFAULT_ROAD_CLASSES,
    RoadNetwork,
    multisource_shortest_distances,
    origin_points,
    parse_finite,
)
from access_atlas.report import (
    BOX_CLASSES,
    BOX_PALETTE,
    CLASS_LABELS,
    SVG_HEIGHT,
    SVG_WIDTH,
    _interpolated_quantile,
)
from access_atlas.stats import MoranWeights


class ProjectedPoint(NamedTuple):
    """A point of the list-form oracles, meters east/north of the reference."""

    x: float
    y: float


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


def read_csv_table_loop(
    path: str, headers: Sequence[tuple[str, ...]], what: str
) -> tuple[tuple[str, ...], list[int], list[list[str]]]:
    """network.read_csv_table written out on its own, by csv.reader one row
    at a time: the header matched inline, each blank row skipped and each
    row's width checked as the row is read, and the columns taken from the
    list of rows at the end."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty {what} file")
            cols = [h.strip().lower() for h in header]
            matched = [h for h in headers if [c.lower() for c in h] == cols]
            if not matched:
                allowed = " or ".join(",".join(h) for h in headers)
                raise SchemaError(f"{path}: header must be {allowed}, got {header}")
            width = len(cols)
            row_nos, rows = [], []
            for row_no, row in enumerate(reader, start=2):
                if not "".join(row).strip():
                    continue
                if len(row) != width:
                    raise SchemaError(
                        f"{path} row {row_no}: expected {width} fields, got {len(row)}"
                    )
                row_nos.append(row_no)
                rows.append(row)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise SchemaError(f"{path}: not a UTF-8 CSV file: {exc}") from None
    return matched[0], row_nos, [
        list(map(str.strip, map(operator.itemgetter(i), rows))) for i in range(width)
    ]


def road_network_loop(
    nodes_path, edges_path, ref_lon=None, ref_lat=None, allowed_classes=DEFAULT_ROAD_CLASSES
) -> RoadNetwork:
    """The road stage one row at a time: every node row checked and parsed,
    then every node projected by project_lonlat in file order, every edge
    row checked and parsed, the kept edges checked in file order, the kept
    ids sorted from a set and each CSR row built as a Python list; a
    drop-in for build_network(load_road_edges(edges_path),
    load_road_nodes(nodes_path, ref_lon, ref_lat), allowed_classes)."""
    path = nodes_path
    header, row_nos, columns = read_csv_table_loop(
        path, [("node_id", "x", "y"), ("node_id", "lon", "lat")], "node"
    )
    geographic = header[1] == "lon"
    if geographic and (ref_lon is None or ref_lat is None):
        raise SchemaError(f"{path}: lon/lat nodes need a projection reference")
    nodes: dict[str, ProjectedPoint] = {}
    for row_no, nid, raw_u, raw_v in zip(row_nos, *columns):
        if not nid:
            raise SchemaError(f"{path} row {row_no}: empty node_id")
        if nid in nodes:
            raise SchemaError(f"{path} row {row_no}: duplicate node_id {nid!r}")
        u = parse_finite(raw_u, f"{path} row {row_no} {header[1]}")
        v = parse_finite(raw_v, f"{path} row {row_no} {header[2]}")
        nodes[nid] = ProjectedPoint(u, v)
    if geographic:  # only once every row is checked, as for the providers
        for row_no, (nid, (u, v)) in zip(row_nos, nodes.items()):
            where = f"{path} row {row_no}: "
            nodes[nid] = ProjectedPoint(*project_lonlat(u, v, ref_lon, ref_lat, where))

    path = edges_path
    _, row_nos, columns = read_csv_table_loop(
        path, [("from_node", "to_node", "length_m", "road_class")], "edge"
    )
    edges = []
    for row_no, a, b, raw_len, road_class in zip(row_nos, *columns):
        if not a or not b:
            raise SchemaError(f"{path} row {row_no}: empty endpoint id")
        length = parse_finite(raw_len, f"{path} row {row_no} length_m") if raw_len else None
        edges.append((a, b, length, road_class))

    kept = []
    for a, b, length, road_class in edges:
        if road_class not in allowed_classes:
            continue
        if a not in nodes or b not in nodes:
            missing = a if a not in nodes else b
            raise SchemaError(f"edge {a}-{b}: references missing node {missing!r}")
        if length is None:
            length = math.hypot(nodes[a].x - nodes[b].x, nodes[a].y - nodes[b].y)
        if not (length > 0) or not math.isfinite(length):
            raise SchemaError(f"edge {a}-{b}: non-positive length {length}")
        kept.append((a, b, float(length)))
    ids = sorted({nid for a, b, _ in kept for nid in (a, b)}, key=_node_id_key)
    index = {nid: i for i, nid in enumerate(ids)}
    rows = [[] for _ in ids]
    for a, b, w in kept:
        rows[index[a]].append((index[b], w))
        rows[index[b]].append((index[a], w))
    return RoadNetwork(
        ids,
        np.array([nodes[nid].x for nid in ids], dtype=float),
        np.array([nodes[nid].y for nid in ids], dtype=float),
        np.array([0, *accumulate(map(len, rows))], dtype=np.intp),
        np.array([v for row in rows for v, _ in row], dtype=np.intp),
        np.array([w for row in rows for _, w in row], dtype=float),
    )


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


def csr(neighbour_sets):
    """The (indptr, nbr) intp pair of a list of neighbour sets, each row
    ascending: a hand-made graph in the form geometry.queen_adjacency
    returns."""
    indptr = np.array([0, *accumulate(len(s) for s in neighbour_sets)], dtype=np.intp)
    nbr = np.array([j for s in neighbour_sets for j in sorted(s)], dtype=np.intp)
    return indptr, nbr


def neighbour_sets(adjacency) -> list[set[int]]:
    """The neighbour set of every row of a CSR pair (indptr, nbr)."""
    indptr, nbr = adjacency
    bounds = indptr.tolist()
    return [set(nbr[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:])]


def moran_weights_loop(neighbors) -> MoranWeights:
    """Pair-form weights one tract at a time, from neighbour sets; a
    drop-in for stats.moran_weights."""
    a: list[int] = []
    b: list[int] = []
    c: list[float] = []
    for i, neigh in enumerate(neighbors):
        for j in sorted(neigh):
            if j > i:
                a.append(i)
                b.append(j)
                c.append(1.0 / len(neigh) + 1.0 / len(neighbors[j]))
    s0 = sum(1 for neigh in neighbors if neigh)
    if not s0:
        raise DomainError("no tract has a neighbor; Moran's I is undefined")
    return MoranWeights(
        ab=np.array(a + b, dtype=np.intp), c=np.array(c, dtype=float), s0=float(s0)
    )


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


def snap_loop(pt, net) -> tuple[int, float]:
    """Index of the nearest node and its distance, by scanning every id in
    sorted order and keeping the first strict minimum of math.hypot (the
    first id, at inf, when every distance overflows); a drop-in for one
    point of network.snap_points."""
    if not net.ids:
        raise DomainError("cannot snap onto an empty network")
    ordered = sorted(range(len(net.ids)), key=lambda i: _node_id_key(net.ids[i]))
    best = ordered[0]
    best_d = math.inf
    for i in ordered:
        d = math.hypot(pt.x - float(net.xs[i]), pt.y - float(net.ys[i]))
        if d < best_d:
            best_d = d
            best = i
    return best, best_d


def tract_network_distance_loop(points, net, distances, max_snap_m: float) -> float | None:
    """Network distance from one tract to its nearest supermarket: the mean
    of `distances` at the snap_loop nodes of its origin points, added left
    to right from 0.0, over the points that reach one; None when none does.
    The first point beyond max_snap_m raises SnapError with its distance."""
    reached = []
    for pt in points:
        i, d = snap_loop(pt, net)
        if d > max_snap_m:
            raise SnapError(f"nearest node {net.ids[i]!r} is {d:.1f} m away", d)
        reached.append(float(distances[i]))
    values = [d for d in reached if d < math.inf]
    if not values:
        return None
    total = 0.0
    for v in values:  # not sum(): from Python 3.12 it compensates float sums
        total += v
    return total / len(values)


def ace_net_loop(tracts, providers, net, mode: str, max_snap_m: float):
    """ACE_NET of every tract, in tract_id order, one point and one snap at
    a time: ({tract_id: value} of the tracts kept, [(tract_id, reason)] of
    those dropped as unsnappable or unreachable). The origin points are
    those of network.origin_points, as one list per tract. The first
    supermarket among the ingest.Providers beyond max_snap_m raises
    SnapError. This is ingest.assemble_variable_table's ACE_NET for tracts
    whose demographics are complete."""
    sources = set()
    xs, ys = providers.xs.tolist(), providers.ys.tolist()
    for pid, kind, x, y in zip(providers.ids, providers.kinds, xs, ys):
        if kind != "supermarket":
            continue
        i, d = snap_loop(ProjectedPoint(x, y), net)
        if d > max_snap_m:
            raise SnapError(
                f"supermarket {pid}: nearest node {net.ids[i]!r} is {d:.1f} m away "
                f"(max {max_snap_m:.0f} m)",
                d,
            )
        sources.add(i)
    distances = multisource_shortest_distances(net, sources)
    order = sorted(range(len(tracts.ids)), key=tracts.ids.__getitem__)
    px, py, owner = origin_points(tracts, order, mode)
    points = [[] for _ in order]
    for x, y, k in zip(px.tolist(), py.tolist(), owner.tolist()):
        points[k].append(ProjectedPoint(x, y))
    kept, dropped = {}, []
    for i, pts in zip(order, points):
        try:
            value = tract_network_distance_loop(pts, net, distances, max_snap_m)
        except SnapError as exc:
            dropped.append((tracts.ids[i], f"unsnappable ({exc.distance_m:.0f} m)"))
            continue
        if value is None:
            dropped.append((tracts.ids[i], "unreachable"))
        else:
            kept[tracts.ids[i]] = value
    return kept, dropped


@dataclass
class Polygon:
    """A polygon in list form: an exterior ring and optional holes, each a
    list of ProjectedPoint vertices.

    Rings are stored closed (first vertex repeated at the end). The first
    ring is the exterior; any further rings are holes. Construction closes
    unclosed rings and rejects rings with fewer than 3 distinct vertices;
    area validity is checked by polygon_area_centroid.
    """

    rings: list[list[ProjectedPoint]]

    def __post_init__(self) -> None:
        if not self.rings:
            raise DegenerateGeometry("polygon has no rings")
        closed = []
        for ring in self.rings:
            pts = [ProjectedPoint(float(p[0]), float(p[1])) for p in ring]
            if len(set(pts)) < 3:
                raise DegenerateGeometry(
                    f"ring needs >= 3 distinct vertices, got {len(set(pts))}"
                )
            if pts[0] != pts[-1]:
                pts.append(pts[0])
            closed.append(pts)
        self.rings = closed


def parts_bounds(parts) -> tuple[float, float, float, float]:
    """(xmin, ymin, xmax, ymax) over every ring of every part."""
    xs = [p.x for part in parts for ring in part.rings for p in ring]
    ys = [p.y for part in parts for ring in part.rings for p in ring]
    return min(xs), min(ys), max(xs), max(ys)


def ring_signed_area_centroid(ring) -> tuple[float, float, float]:
    """Signed shoelace area and centroid of one closed ring, by a scalar
    loop over its vertices; the centroid is independent of orientation."""
    a2 = 0.0  # twice the signed area
    cx = 0.0
    cy = 0.0
    for i in range(len(ring) - 1):
        x0, y0 = ring[i]
        x1, y1 = ring[i + 1]
        cross = x0 * y1 - x1 * y0
        a2 += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    if a2 == 0.0:
        return 0.0, 0.0, 0.0
    area = 0.5 * a2
    return area, cx / (6.0 * area), cy / (6.0 * area)


def polygon_area_centroid(p: Polygon) -> tuple[float, ProjectedPoint]:
    """Net area (holes subtracted) and area-weighted centroid of a polygon;
    DegenerateGeometry when the net area is not positive."""
    net = 0.0
    mx = 0.0
    my = 0.0
    for k, ring in enumerate(p.rings):
        area, cx, cy = ring_signed_area_centroid(ring)
        w = abs(area) if k == 0 else -abs(area)
        net += w
        mx += w * cx
        my += w * cy
    if net <= 0.0:
        raise DegenerateGeometry(f"polygon net area {net} is not positive")
    return net, ProjectedPoint(mx / net, my / net)


def parts_area_centroid(parts) -> tuple[float, ProjectedPoint]:
    """Combined area and area-weighted centroid of a multi-part geometry."""
    total = 0.0
    mx = 0.0
    my = 0.0
    for part in parts:
        area, c = polygon_area_centroid(part)
        total += area
        mx += area * c.x
        my += area * c.y
    if total <= 0.0:
        raise DegenerateGeometry("multi-part geometry has no positive area")
    return total, ProjectedPoint(mx / total, my / total)


def _segment_distance(pt: ProjectedPoint, a, b) -> float:
    """Euclidean distance from pt to the closed segment [a, b]."""
    ax, ay = a
    bx, by = b
    dx = bx - ax
    dy = by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return math.hypot(pt.x - ax, pt.y - ay)
    t = ((pt.x - ax) * dx + (pt.y - ay) * dy) / seg2
    t = max(0.0, min(1.0, t))
    return math.hypot(pt.x - (ax + t * dx), pt.y - (ay + t * dy))


def boundary_distance(pt: ProjectedPoint, rings: Sequence[Sequence[tuple[float, float]]]) -> float:
    """Minimum distance from pt to any segment of the closed rings of one
    polygon, each a sequence of (x, y) vertices."""
    best = math.inf
    for ring in rings:
        for i in range(len(ring) - 1):
            d = _segment_distance(pt, ring[i], ring[i + 1])
            if d < best:
                best = d
    return best


def circle_intersects_polygon(
    center: ProjectedPoint, radius_m: float, rings: Sequence[Sequence[tuple[float, float]]]
) -> bool:
    """True iff the closed disk of radius_m around center meets the polygon
    whose closed rings (exterior and holes) are `rings`.

    Exact test: either some boundary segment comes within radius_m (and
    never less than BOUNDARY_EPS) of the center, or the center lies inside
    by the even-odd rule: a horizontal ray cast east from it crosses the
    rings (exterior and holes together) an odd number of times. Tangency
    counts.
    """
    if not (radius_m > 0):
        raise DomainError(f"radius must be > 0, got {radius_m}")
    if boundary_distance(center, rings) <= max(radius_m, BOUNDARY_EPS):
        return True
    inside = False
    for ring in rings:
        for i in range(len(ring) - 1):
            xi, yi = ring[i]
            xj, yj = ring[i + 1]
            if (yi > center.y) != (yj > center.y):
                x_cross = (xj - xi) * (center.y - yi) / (yj - yi) + xi
                if center.x < x_cross:
                    inside = not inside
    return inside


def point_in_polygon(pt, p: Polygon) -> bool:
    """The scalar point-in-polygon test: a disk of radius BOUNDARY_EPS, so
    the boundary counts as inside and a point in a hole is outside."""
    return circle_intersects_polygon(pt, BOUNDARY_EPS, p.rings)


def _parts(tract) -> list:
    return [tract] if isinstance(tract, Polygon) else list(tract)


def _rings(part) -> list:
    return part.rings if isinstance(part, Polygon) else part


def pack(tracts, ids=None) -> Tracts:
    """geometry.pack_tracts of list-form tracts, with ids t0, t1, ... unless
    given: each tract a Polygon or a list of parts, each part a Polygon or a
    list of rings of (x, y) vertices, closed or not. The vertices stand for
    the input positions too, and a tract given as a list of parts is a
    MultiPolygon."""
    parts_list = [_parts(t) for t in tracts]
    parts = [part for ps in parts_list for part in ps]
    rings = [ring for part in parts for ring in _rings(part)]
    vertices = [v for ring in rings for v in ring]
    x, y = [v[0] for v in vertices], [v[1] for v in vertices]
    return pack_tracts(
        list(ids or (f"t{i}" for i in range(len(tracts)))),
        x,
        y,
        x,
        y,
        [len(ring) for ring in rings],
        [len(_rings(part)) for part in parts],
        [len(ps) for ps in parts_list],
        [not isinstance(t, Polygon) for t in tracts],
        [None] * len(tracts),
    )


def part_rings(tracts: Tracts, p: int) -> list[list[tuple[float, float]]]:
    """The closed rings of packed part p as (x, y) vertex lists: the starts
    of each ring's segments, then the first again."""
    bounds = tracts.ring_seg[tracts.part_ring[p] : tracts.part_ring[p + 1] + 1].tolist()
    rings = [
        list(zip(tracts.ax[lo:hi].tolist(), tracts.ay[lo:hi].tolist()))
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return [ring + ring[:1] for ring in rings]


def list_form(tracts: Tracts, index) -> list[list[Polygon]]:
    """The tracts of `index` as lists of list-form parts."""
    return [
        [
            Polygon(part_rings(tracts, p))
            for p in range(tracts.part_start[i], tracts.part_start[i + 1])
        ]
        for i in index
    ]


def availability_loop(tract, providers) -> int:
    """Providers, as (location, radius_m) pairs, whose disk meets any part
    of the tract: one scalar circle_intersects_polygon per (provider, part);
    a drop-in for one tract of geometry.availability_counts."""
    parts = _parts(tract)
    return sum(
        1
        for location, radius in providers
        if any(circle_intersects_polygon(location, radius, part.rings) for part in parts)
    )


def queen_adjacency_loop(tracts, eps: float = ADJACENCY_EPS) -> list[set[int]]:
    """Neighbour sets by testing every bbox-overlapping pair of tracts:
    some vertex of one within eps of the other's boundary, by the scalar
    boundary_distance, in either direction; the neighbour_sets of
    geometry.queen_adjacency."""
    parts_list = [_parts(t) for t in tracts]
    verts = [[v for part in parts for ring in part.rings for v in ring[:-1]] for parts in parts_list]
    boxes = [parts_bounds(parts) for parts in parts_list]

    def near(vertices, parts) -> bool:
        return any(boundary_distance(v, part.rings) <= eps for v in vertices for part in parts)

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


def boxmap_classify_loop(values, hinge: float = 1.5) -> list[str]:
    """Box-map classes one value at a time, by an if/elif chain on the
    hinge fences and the quartiles; a drop-in for report.boxmap_classify on
    5 or more values."""
    x = np.asarray(values, dtype=float)
    s = np.sort(x)
    q1 = _interpolated_quantile(s, 0.25)
    q2 = _interpolated_quantile(s, 0.50)
    q3 = _interpolated_quantile(s, 0.75)
    iqr = q3 - q1
    lower_fence = q1 - hinge * iqr
    upper_fence = q3 + hinge * iqr
    classes = []
    for v in x:
        if v < lower_fence:
            classes.append("lower_outlier")
        elif v > upper_fence:
            classes.append("upper_outlier")
        elif v <= q1:
            classes.append("q1")
        elif v <= q2:
            classes.append("q2")
        elif v <= q3:
            classes.append("q3")
        else:
            classes.append("q4")
    return classes


def svg_choropleth_loop(tracts, classes, component_index) -> str:
    """The box map of one component, classes[i] filling tracts[i], each a
    list of Polygon parts: bounds, scale, paths and legend drawn afresh,
    each vertex transformed by a closure; a drop-in for one file of
    report.emit_svg_choropleth."""
    xs = [p.x for parts in tracts for part in parts for ring in part.rings for p in ring]
    ys = [p.y for parts in tracts for part in parts for ring in part.rings for p in ring]
    xmin, ymin, xmax, ymax = min(xs), min(ys), max(xs), max(ys)
    pad, legend_w = 10.0, 150.0
    scale = min(
        (SVG_WIDTH - legend_w - 2 * pad) / (xmax - xmin or 1.0),
        (SVG_HEIGHT - 2 * pad) / (ymax - ymin or 1.0),
    )

    def to_svg(p):
        return (pad + (p.x - xmin) * scale, pad + (ymax - p.y) * scale)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<text x="{pad:.0f}" y="{SVG_HEIGHT - 2:.0f}" font-size="12" font-family="sans-serif">'
        f"PC{component_index + 1} box map (hinge classes)</text>",
        '<g stroke="#333333" stroke-width="1" fill-rule="evenodd">',
    ]
    for parts, cls in zip(tracts, classes, strict=True):
        rings = [ring[:-1] for part in parts for ring in part.rings]
        d = " ".join(
            "M " + " L ".join(f"{to_svg(p)[0]:.2f},{to_svg(p)[1]:.2f}" for p in ring) + " Z"
            for ring in rings
        )
        lines.append(f'<path d="{d}" fill="{BOX_PALETTE[cls]}"/>')
    lines.append("</g>")
    lx = SVG_WIDTH - legend_w
    for i, cls in enumerate(BOX_CLASSES):
        ly = pad + i * 24
        label = CLASS_LABELS[cls].replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        lines.append(
            f'<rect class="legend-swatch" x="{lx:.0f}" y="{ly:.0f}" width="18" height="18" '
            f'fill="{BOX_PALETTE[cls]}" stroke="#333333"/>'
        )
        lines.append(
            f'<text x="{lx + 24:.0f}" y="{ly + 14:.0f}" font-size="12" '
            f'font-family="sans-serif">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def scores_geojson_encoder(geometries, tracts: Tracts, table, scores, classes) -> str:
    """scores.geojson as the whole document of dicts, encoded by
    json.JSONEncoder(indent=2).iterencode, then "\\n"; geometries[t] is the
    parsed input geometry of tract t. A drop-in for the joined stream of
    report.emit_geojson."""
    row_of = dict(zip(table.index.tolist(), range(table.n)))
    dropped = dict(table.dropped)
    features = []
    for tract_id, t in sorted(zip(tracts.ids, range(len(tracts.ids)))):
        i = row_of.get(t)
        props: dict[str, object] = {"tract_id": tract_id}
        for c in range(len(classes)):
            props[f"pc{c + 1}_score"] = None if i is None else round(float(scores[i, c]), 6)
        for c, column in enumerate(classes):
            props[f"pc{c + 1}_class"] = None if i is None else column[i]
        if i is None:
            props["dropped_reason"] = dropped[tract_id]
        features.append({"type": "Feature", "properties": props, "geometry": geometries[t]})
    doc = {"type": "FeatureCollection", "features": features}
    return "".join(json.JSONEncoder(indent=2).iterencode(doc)) + "\n"
