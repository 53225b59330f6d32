"""Planar geometry kernel for tract-level access analysis.

Everything works in a local projected plane (meters east/north of a
reference point). The kernel covers exactly what the pipeline needs:

- equirectangular projection of lon/lat input,
- polygon area / centroid (shoelace, holes subtracted),
- point-in-polygon (even-odd ray casting, closed-set boundary rule),
- circle vs. polygon intersection (exact segment distances, used for
  provider buffer counts),
- queen-contiguity adjacency between tracts.

All predicates follow a closed-set convention: boundary points are inside,
and a disk tangent to a polygon edge intersects it. That keeps behaviour
deterministic at exact-threshold inputs.

`circle_intersects_polygon` is the one scalar predicate. The batched
callers (`availability_counts`, `queen_adjacency`, `points_in_tract`) pack
the ring segments of all their tracts into flat arrays once and run one
numpy kernel, `_scan`, over (query point, part) pairs in chunks of
KERNEL_BUDGET elements. It repeats the scalar float operations in the same
order, so only np.hypot can differ from math.hypot; a pair whose distance
lies within 1e-9 * max(r, 1) of its threshold r is decided again by the
scalar code, and every result equals the scalar one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateGeometry, DomainError

EARTH_RADIUS_M = 6_371_000.0

# Tolerance for "point lies on the boundary" checks, in meters.
BOUNDARY_EPS = 1e-9

# Queen contiguity: polygons within this distance share a boundary point.
# Below digitization noise at metric scale, above float noise.
ADJACENCY_EPS = 1e-3


class ProjectedPoint(NamedTuple):
    """A point in the local projected plane, meters east/north of reference."""

    x: float
    y: float


@dataclass
class Polygon:
    """A polygon with an exterior ring and optional holes.

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


def parts_bounds(parts: Sequence[Polygon]) -> tuple[float, float, float, float]:
    """(xmin, ymin, xmax, ymax) over every ring of every part."""
    xs = [p.x for part in parts for ring in part.rings for p in ring]
    ys = [p.y for part in parts for ring in part.rings for p in ring]
    return min(xs), min(ys), max(xs), max(ys)


def project_lonlat(
    lon: float, lat: float, ref_lon: float, ref_lat: float
) -> ProjectedPoint:
    """Project geographic coordinates to local meters (equirectangular).

    x = R * (lon - ref_lon) * pi/180 * cos(ref_lat * pi/180)
    y = R * (lat - ref_lat) * pi/180

    Adequate at city scale; latitudes must stay clear of the poles.
    """
    if not (-89.0 < lat < 89.0) or not (-89.0 < ref_lat < 89.0):
        raise DomainError(f"latitude out of range (-89, 89): lat={lat}, ref_lat={ref_lat}")
    rad = math.pi / 180.0
    x = EARTH_RADIUS_M * (lon - ref_lon) * rad * math.cos(ref_lat * rad)
    y = EARTH_RADIUS_M * (lat - ref_lat) * rad
    if abs(x) >= 1e7 or abs(y) >= 1e7:
        raise DomainError(
            f"projected point ({x:.0f}, {y:.0f}) exceeds local-plane validity"
        )
    return ProjectedPoint(x, y)


def _ring_signed_area_centroid(ring: Sequence[ProjectedPoint]) -> tuple[float, float, float]:
    """Signed shoelace area and centroid of one closed ring.

    The centroid formula divides by the signed area, so the returned
    centroid is independent of vertex orientation.
    """
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
    """Net area (holes subtracted) and area-weighted centroid of a polygon.

    Raises DegenerateGeometry when the net area is not positive.
    """
    net = 0.0
    mx = 0.0
    my = 0.0
    for k, ring in enumerate(p.rings):
        area, cx, cy = _ring_signed_area_centroid(ring)
        w = abs(area) if k == 0 else -abs(area)
        net += w
        mx += w * cx
        my += w * cy
    if net <= 0.0:
        raise DegenerateGeometry(f"polygon net area {net} is not positive")
    return net, ProjectedPoint(mx / net, my / net)


def parts_area_centroid(parts: Sequence[Polygon]) -> tuple[float, ProjectedPoint]:
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


def _segment_distance(pt: ProjectedPoint, a: ProjectedPoint, b: ProjectedPoint) -> float:
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


def boundary_distance(pt: ProjectedPoint, p: Polygon) -> float:
    """Minimum distance from pt to any ring segment of the polygon."""
    best = math.inf
    for ring in p.rings:
        for i in range(len(ring) - 1):
            d = _segment_distance(pt, ring[i], ring[i + 1])
            if d < best:
                best = d
    return best


def point_in_polygon(pt: ProjectedPoint, p: Polygon) -> bool:
    """Even-odd test over all rings; the boundary (within BOUNDARY_EPS)
    counts as inside, so a point inside a hole is outside the polygon while
    a point on the hole's rim is still inside."""
    return circle_intersects_polygon(pt, BOUNDARY_EPS, p)


def circle_intersects_polygon(
    center: ProjectedPoint, radius_m: float, p: Polygon
) -> bool:
    """True iff the closed disk of radius_m around center meets the polygon.

    Exact test: either some boundary segment comes within radius_m (and
    never less than BOUNDARY_EPS) of the center, or the center lies inside
    by the even-odd rule: a horizontal ray cast east from it crosses the
    rings (exterior and holes together) an odd number of times. Tangency
    counts.
    """
    if not (radius_m > 0):
        raise DomainError(f"radius must be > 0, got {radius_m}")
    if boundary_distance(center, p) <= max(radius_m, BOUNDARY_EPS):
        return True
    inside = False
    for ring in p.rings:
        for i in range(len(ring) - 1):
            xi, yi = ring[i]
            xj, yj = ring[i + 1]
            if (yi > center.y) != (yj > center.y):
                x_cross = (xj - xi) * (center.y - yi) / (yj - yi) + xi
                if center.x < x_cross:
                    inside = not inside
    return inside


def _reach(threshold, scale: float):
    """`threshold` widened by far more than the rounding of any coordinate
    up to `scale`: a point farther than this from a bbox is, in float
    arithmetic, farther than `threshold` from every segment inside it and
    outside every ring by the crossing rule."""
    return threshold + 1e-9 * np.maximum(np.maximum(threshold, 1.0), scale)


def _within(x, y, reach, box) -> np.ndarray:
    """Whether (x, y) lies within reach of the bbox (xmin, ymin, xmax, ymax)."""
    xmin, ymin, xmax, ymax = box
    return (x + reach >= xmin) & (x - reach <= xmax) & (y + reach >= ymin) & (y - reach <= ymax)


@dataclass(frozen=True)
class _Segments:
    """The ring segments of many tracts, packed once into flat arrays.

    Segment s runs from (ax[s], ay[s]) to (ax[s] + dx[s], by[s]); dx, dy
    and seg2 are computed as in `_segment_distance`. The segments of part p
    are start[p]:start[p] + count[p], and the parts of tract i are
    part_start[i]:part_start[i + 1]. The segment starts are the ring
    vertices without the closing repeat, so tract i's vertices are the
    segments vstart[i]:vstart[i + 1].
    """

    parts: list[Polygon]
    part_start: np.ndarray
    start: np.ndarray
    count: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    by: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    seg2: np.ndarray
    vstart: np.ndarray
    bounds: np.ndarray  # (tracts, 4): xmin, ymin, xmax, ymax
    scale: float  # largest absolute coordinate


def _pack(tracts: Sequence[Polygon | Sequence[Polygon]]) -> _Segments:
    parts_list = [[t] if isinstance(t, Polygon) else list(t) for t in tracts]
    if not all(parts_list):
        raise DegenerateGeometry("tract has no polygon parts")
    parts = [p for ps in parts_list for p in ps]
    rings = [ring for part in parts for ring in part.rings]
    xy = np.array([pt for ring in rings for pt in ring], dtype=float)
    # segment k of a ring runs from its vertex k to k + 1; the closing vertex starts none
    first = np.ones(len(xy), dtype=bool)
    first[np.cumsum([len(ring) for ring in rings]) - 1] = False
    first = np.flatnonzero(first)
    ax, ay = xy[first, 0], xy[first, 1]
    bx, by = xy[first + 1, 0], xy[first + 1, 1]
    dx = bx - ax
    dy = by - ay
    count = np.array([sum(len(ring) - 1 for ring in part.rings) for part in parts])
    start = np.cumsum(count) - count
    part_start = np.cumsum([0] + [len(ps) for ps in parts_list])
    vstart = np.append(start[part_start[:-1]], len(ax))
    bounds = np.stack(
        [
            np.minimum.reduceat(ax, vstart[:-1]),
            np.minimum.reduceat(ay, vstart[:-1]),
            np.maximum.reduceat(ax, vstart[:-1]),
            np.maximum.reduceat(ay, vstart[:-1]),
        ],
        axis=1,
    )
    return _Segments(
        parts, part_start, start, count, ax, ay, by, dx, dy, dx * dx + dy * dy,
        vstart, bounds, float(np.abs(xy).max()),
    )


# Query point x segment elements the kernel evaluates in one numpy pass. Its
# peak memory is about 16 arrays of this length (a part with more segments
# than this is evaluated whole).
KERNEL_BUDGET = 8192


def _ranges(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges first[k]:first[k] + count[k], concatenated, and the k of
    each element."""
    owner = np.repeat(np.arange(len(count)), count)
    offsets = np.cumsum(count) - count
    return first[owner] + np.arange(len(owner)) - offsets[owner], owner


def _chunks(weights: np.ndarray):
    """(lo, hi) slices of consecutive items whose weights sum to at most
    KERNEL_BUDGET, or of one item heavier than that."""
    ends = np.cumsum(weights)
    lo = 0
    while lo < len(weights):
        limit = ends[lo] - weights[lo] + KERNEL_BUDGET
        hi = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
        yield lo, hi
        lo = hi


def _scan(
    segs: _Segments, px: np.ndarray, py: np.ndarray, part: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum boundary distance and odd crossing parity of each query
    point (px[k], py[k]) against part[k].

    The float operations are those of `_segment_distance` and of the ray
    cast in `circle_intersects_polygon`, in the same order, so the parity
    is bitwise the scalar one and the distance differs only where np.hypot
    differs from math.hypot (by an ulp or so).
    """
    dmin = np.empty(len(px))
    odd = np.empty(len(px), dtype=bool)
    count = segs.count[part]
    for lo, hi in _chunks(count):
        s, q = _ranges(segs.start[part[lo:hi]], count[lo:hi])
        offsets = np.cumsum(count[lo:hi]) - count[lo:hi]
        x, y = px[lo:hi][q], py[lo:hi][q]
        ax, ay, dx, dy, seg2 = segs.ax[s], segs.ay[s], segs.dx[s], segs.dy[s], segs.seg2[s]
        ex = x - ax
        ey = y - ay
        degenerate = seg2 == 0.0
        t = (ex * dx + ey * dy) / np.where(degenerate, 1.0, seg2)
        t = np.maximum(0.0, np.minimum(1.0, t))
        t[degenerate] = 0.0
        d = np.hypot(x - (ax + t * dx), y - (ay + t * dy))
        dmin[lo:hi] = np.minimum.reduceat(d, offsets)
        spans = (ay > y) != (segs.by[s] > y)
        x_cross = dx * ey / np.where(spans, dy, 1.0) + ax
        odd[lo:hi] = np.logical_xor.reduceat(spans & (x < x_cross), offsets)
    return dmin, odd


def _decide(dmin: np.ndarray, threshold, scalar) -> np.ndarray:
    """dmin <= threshold, with every query in the tie band
    |dmin - threshold| <= 1e-9 * max(threshold, 1) decided by scalar(k)."""
    hit = dmin <= threshold
    for k in np.flatnonzero(np.abs(dmin - threshold) <= 1e-9 * np.maximum(threshold, 1.0)):
        hit[k] = scalar(int(k))
    return hit


def _disk_hits(segs: _Segments, px, py, radius, part) -> np.ndarray:
    """circle_intersects_polygon(query k, radius[k], part[k]) for every k."""
    radius = np.broadcast_to(radius, px.shape)
    dmin, odd = _scan(segs, px, py, part)

    def scalar(k: int) -> bool:
        center = ProjectedPoint(float(px[k]), float(py[k]))
        return circle_intersects_polygon(center, float(radius[k]), segs.parts[part[k]])

    return odd | _decide(dmin, np.maximum(radius, BOUNDARY_EPS), scalar)


def availability_counts(
    tracts: Sequence[Polygon | Sequence[Polygon]],
    providers: Sequence[tuple[ProjectedPoint, float]],
) -> np.ndarray:
    """Number of providers whose buffer disk intersects each tract.

    `providers` holds (location, radius_m) pairs. A provider counts at most
    once per tract, even when the tract has several parts, and order does
    not matter. Only providers whose disk, widened by `_reach`, meets a
    tract's bbox are tested against it.
    """
    if not tracts or not providers:
        return np.zeros(len(tracts), dtype=np.int64)
    segs = _pack(tracts)
    n = len(tracts)
    cx = np.array([pt.x for pt, _ in providers], dtype=float)
    cy = np.array([pt.y for pt, _ in providers], dtype=float)
    radius = np.array([r for _, r in providers], dtype=float)
    if not (radius > 0).all():
        raise DomainError(f"buffer radius must be > 0, got {radius.min()}")
    scale = max(segs.scale, float(np.abs(cx).max()), float(np.abs(cy).max()))
    reach = _reach(np.maximum(radius, BOUNDARY_EPS), scale)
    near = [np.flatnonzero(_within(cx, cy, reach, box)) for box in segs.bounds]
    tract = np.repeat(np.arange(n), [len(k) for k in near])
    provider = np.concatenate(near)
    part, pair = _ranges(segs.part_start[tract], np.diff(segs.part_start)[tract])
    k = provider[pair]
    met = np.zeros(len(tract), dtype=bool)
    met[pair[_disk_hits(segs, cx[k], cy[k], radius[k], part)]] = True
    return np.bincount(tract[met], minlength=n)


def points_in_tract(
    points: Sequence[ProjectedPoint], tract: Polygon | Sequence[Polygon]
) -> np.ndarray:
    """point_in_polygon of each point against any part of the tract."""
    segs = _pack([tract])
    parts = len(segs.parts)
    px = np.repeat(np.array([p.x for p in points], dtype=float), parts)
    py = np.repeat(np.array([p.y for p in points], dtype=float), parts)
    part = np.tile(np.arange(parts), len(points))
    hits = _disk_hits(segs, px, py, BOUNDARY_EPS, part)
    return hits.reshape(len(points), parts).any(axis=1)


def queen_adjacency(
    tracts: Sequence[Polygon | Sequence[Polygon]],
    eps: float = ADJACENCY_EPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Queen-contiguity adjacency: tracts sharing any boundary point.

    Two tracts are neighbors when some vertex of one lies within eps of the
    other's boundary (vertex-to-vertex or vertex-to-segment), checked in
    both directions. Multi-part tracts are tested against every part.
    Returns (indptr, nbr), intp arrays in CSR form like RoadNetwork's:
    tract i's neighbours are nbr[indptr[i]:indptr[i + 1]], in ascending
    order. The relation is symmetric and irreflexive.

    Candidate pairs, whose bboxes come within eps, are found by a sort and
    sweep on bbox xmin; only the vertices within `_reach(eps)` of the other
    tract's bbox are measured.
    """
    n = len(tracts)
    if n < 2:
        raise DomainError("queen adjacency needs at least 2 tracts")
    segs = _pack(tracts)
    xmin, ymin, xmax, ymax = segs.bounds.T
    order = np.argsort(xmin, kind="stable")
    stop = np.searchsorted(xmin[order], xmax[order] + eps, side="right")
    later, earlier = _ranges(np.arange(1, n + 1), stop - np.arange(1, n + 1))
    a, b = order[earlier], order[later]
    overlap = ~(
        (xmax[a] + eps < xmin[b])
        | (xmax[b] + eps < xmin[a])
        | (ymax[a] + eps < ymin[b])
        | (ymax[b] + eps < ymin[a])
    )
    a, b = a[overlap], b[overlap]
    # both directions: the vertices of src against the parts of dst
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    pair = np.tile(np.arange(len(a)), 2)
    vcount = np.diff(segs.vstart)[src]
    nparts = np.diff(segs.part_start)
    reach = _reach(eps, segs.scale)
    touching = np.zeros(len(a), dtype=bool)
    for lo, hi in _chunks(vcount):
        v, q = _ranges(segs.vstart[src[lo:hi]], vcount[lo:hi])
        near = _within(segs.ax[v], segs.ay[v], reach, segs.bounds[dst[lo:hi][q]].T)
        v, q = v[near], q[near]
        target = dst[lo:hi][q]
        part, w = _ranges(segs.part_start[target], nparts[target])
        px, py = segs.ax[v][w], segs.ay[v][w]
        dmin, _ = _scan(segs, px, py, part)

        def scalar(k: int) -> bool:
            vertex = ProjectedPoint(float(px[k]), float(py[k]))
            return boundary_distance(vertex, segs.parts[part[k]]) <= eps

        touching[pair[lo:hi][q[w[_decide(dmin, eps, scalar)]]]] = True
    both = np.tile(touching, 2)
    tail, head = src[both], dst[both]
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(tail, minlength=n), out=indptr[1:])
    return indptr, head[np.lexsort((head, tail))]
