"""Planar geometry kernel for tract-level access analysis, in a local
projected plane (meters east/north of a reference point): equirectangular
projection, the packed tracts with their areas, centroids and bboxes,
point-in-tract, circle vs. polygon intersection (AV_INT) and queen
contiguity.

All predicates follow a closed-set convention: boundary points are inside,
and a disk tangent to a polygon edge intersects it. That keeps behaviour
deterministic at exact-threshold inputs.

`pack_tracts` builds the one tract structure of a run, `Tracts`: the ring
segments with ring, part and tract offsets, each tract's area, centroid
and bbox, and the input positions that scores.geojson echoes. The segment
starts are the one copy of the ring vertices, which the predicates and the
SVG read. An area or centroid is a sum taken in vertex order, one vertex
position at a time across all rings (`_sums_in_order`), so it keeps the
bits of the scalar shoelace loop; a pairwise sum such as np.add.reduceat
would not.

The predicates (`disks_meet`, behind AV_INT and the grid-K sampler, and
`queen_adjacency`) take the Tracts and the indices of the tracts they work
on, and run one numpy kernel, `_scan`, over (query point, part) pairs in
chunks of KERNEL_BUDGET elements. It repeats the float operations of a
scalar segment-distance loop in the same order, so only np.hypot can
differ from math.hypot; a pair whose distance lies within
1e-9 * max(r, 1) of its threshold r is measured again by `_scan` with
math.hypot, and every result equals that of the scalar loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, DomainError

EARTH_RADIUS_M = 6_371_000.0

# Tolerance for "point lies on the boundary" checks, in meters.
BOUNDARY_EPS = 1e-9

# Queen contiguity: polygons within this distance share a boundary point.
# Below digitization noise at metric scale, above float noise.
ADJACENCY_EPS = 1e-3


def project_points(lon, lat, ref_lon: float, ref_lat: float):
    """Project geographic coordinates to local meters (equirectangular),
    elementwise on floats or arrays alike:

    x = R * (lon - ref_lon) * pi/180 * cos(ref_lat * pi/180)
    y = R * (lat - ref_lat) * pi/180

    Returns x, y and whether each point is valid: lat and ref_lat inside
    (-89, 89) and |x|, |y| below 1e7 m. Adequate at city scale.
    """
    rad = math.pi / 180.0
    x = EARTH_RADIUS_M * (lon - ref_lon) * rad * math.cos(ref_lat * rad)
    y = EARTH_RADIUS_M * (lat - ref_lat) * rad
    valid = (-89.0 < lat) & (lat < 89.0) & (-89.0 < ref_lat < 89.0)
    return x, y, valid & (abs(x) < 1e7) & (abs(y) < 1e7)


def project_lonlat(
    lon: float, lat: float, ref_lon: float, ref_lat: float, where: str = ""
) -> tuple[float, float]:
    """project_points of one point; DomainError, its message prefixed by
    `where` (the input the point came from), if it is not valid."""
    x, y, valid = project_points(lon, lat, ref_lon, ref_lat)
    if not valid:
        if not (-89.0 < lat < 89.0) or not (-89.0 < ref_lat < 89.0):
            raise DomainError(
                f"{where}latitude out of range (-89, 89): lat={lat}, ref_lat={ref_lat}"
            )
        raise DomainError(f"{where}projected point ({x:.0f}, {y:.0f}) exceeds local-plane validity")
    return x, y


@dataclass(frozen=True, eq=False)
class Tracts:
    """The tracts of a run, packed once into flat arrays by `pack_tracts`.

    Tract i is ids[i]. Its parts are part_start[i]:part_start[i + 1];
    the rings of part p are part_ring[p]:part_ring[p + 1], the exterior
    first. area and centroid are each tract's net area and area-weighted
    centroid, and bounds its (xmin, ymin, xmax, ymax).

    The segments of ring r are ring_seg[r]:ring_seg[r + 1], and those of
    part p are seg_start[p]:seg_start[p + 1] (seg_start is
    ring_seg[part_ring]). Segment s runs from (ax[s], ay[s]) to
    (ax[s] + dx[s], by[s]), with dx = bx - ax, dy = by - ay and
    seg2 = dx * dx + dy * dy. The segment starts of a ring are its
    vertices in order, without the closing repeat: the one copy of the
    rings.

    What scores.geojson echoes of the input: lon and lat hold every input
    position as given, and the positions of ring r are
    ring_pos[r]:ring_pos[r + 1] of them, so an open ring stays open. Tract
    i is a MultiPolygon if multi[i], else a Polygon. verbatim[i] is its
    parsed geometry object if that is not plain, else None: a plain one has
    the keys type then coordinates and no others, and every position is
    exactly two floats, so lon, lat and the offsets say all of it.
    """

    ids: list[str]
    lon: np.ndarray
    lat: np.ndarray
    ring_pos: np.ndarray
    multi: np.ndarray  # bool, per tract
    verbatim: list[dict | None]
    part_ring: np.ndarray
    part_start: np.ndarray
    ring_seg: np.ndarray
    area: np.ndarray
    centroid: np.ndarray  # (tracts, 2)
    bounds: np.ndarray  # (tracts, 4)
    seg_start: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    by: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    seg2: np.ndarray


def _offsets(counts) -> np.ndarray:
    """[0, counts[0], counts[0] + counts[1], ...] as intp."""
    out = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=out[1:])
    return out


def _sums_in_order(terms: np.ndarray, counts) -> np.ndarray:
    """The sums of consecutive groups of columns of terms, group g being the
    next counts[g] columns, each added from 0.0 one column at a time in
    order, as a scalar `+=` loop adds; one step per column position, across
    every group at once."""
    counts = np.asarray(counts, dtype=np.intp)
    first = _offsets(counts)[:-1]
    total = np.zeros((len(terms), len(counts)))
    order = np.argsort(counts, kind="stable")[::-1]  # longest group first
    # the number of groups longer than j, for each column position j
    positions = np.arange(counts.max(initial=0))
    longer = len(counts) - np.searchsorted(counts[order[::-1]], positions, side="right")
    for j, m in enumerate(longer.tolist()):
        total[:, order[:m]] += terms[:, first[order[:m]] + j]
    return total


def pack_tracts(
    ids, lon, lat, x, y, ring_sizes, ring_counts, part_counts, multi, verbatim
) -> Tracts:
    """Pack tracts given as flat projected vertices: ring r is the next
    ring_sizes[r] vertices of x and y, part p the next ring_counts[p] rings
    (exterior first), tract i the next part_counts[i] parts. lon and lat
    are the same positions as given, multi and verbatim each tract's
    geometry type and non-plain geometry object (see `Tracts`); they are
    kept for the echo and not checked.

    An open ring is closed by repeating its first vertex. A part with no
    rings, a ring with fewer than 3 distinct vertices, a part whose net
    area is not positive and a tract with no parts raise DegenerateGeometry
    prefixed `tract <id>:`, for the first such tract. Within it the rings of
    every part are checked, in order, before any part's area.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    ring_counts, part_counts = np.asarray(ring_counts, np.intp), np.asarray(part_counts, np.intp)
    ring_pos = _offsets(ring_sizes)
    first, end = ring_pos[:-1], ring_pos[1:]
    filled = np.flatnonzero(end > first)
    is_open = np.zeros(len(end), dtype=bool)
    head, tail = first[filled], end[filled] - 1
    is_open[filled] = (x[head] != x[tail]) | (y[head] != y[tail])
    x, y = (np.insert(v, end[is_open], v[first[is_open]]) for v in (x, y))
    ring_start = _offsets(end - first + is_open)
    part_ring, part_start = _offsets(ring_counts), _offsets(part_counts)
    # segment k of a ring runs from its vertex k to k + 1; the closing vertex starts none
    nseg = np.maximum(np.diff(ring_start) - 1, 0)
    seg, _ = _ranges(ring_start[:-1], nseg)
    ax, ay, bx, by = x[seg], y[seg], x[seg + 1], y[seg + 1]

    # the shoelace sums of each ring, then of each part, then of each tract
    cross = ax * by - bx * ay
    a2, sx, sy = _sums_in_order(np.stack([cross, (ax + bx) * cross, (ay + by) * cross]), nseg)
    with np.errstate(divide="ignore", invalid="ignore"):
        ring_area = 0.5 * a2
        rx, ry = (np.where(a2 == 0.0, 0.0, s / (6.0 * ring_area)) for s in (sx, sy))
        w = -np.abs(ring_area)  # a hole counts negative, the exterior of its part positive
        w[part_ring[:-1][ring_counts > 0]] *= -1.0
        net, mx, my = _sums_in_order(np.stack([w, w * rx, w * ry]), ring_counts)
        px, py = mx / net, my / net
        area, tx, ty = _sums_in_order(np.stack([net, net * px, net * py]), part_counts)
        centroid = np.stack([tx, ty], axis=1) / area[:, None]

    def fault(i: int) -> str | None:
        parts = range(part_start[i], part_start[i + 1])
        for p in parts:
            if ring_counts[p] == 0:
                return "polygon has no rings"
            for r in range(part_ring[p], part_ring[p + 1]):
                lo, hi = ring_start[r], ring_start[r + 1]
                distinct = len(set(zip(x[lo:hi].tolist(), y[lo:hi].tolist())))
                if distinct < 3:
                    return f"ring needs >= 3 distinct vertices, got {distinct}"
        for p in parts:
            if net[p] <= 0.0:
                return f"polygon net area {float(net[p])} is not positive"
        return None if parts else "multi-part geometry has no positive area"

    # only a ring of no area can have too few distinct vertices; a part with no rings has no area
    part_tract = np.repeat(np.arange(len(part_counts)), part_counts)
    suspect = part_counts == 0
    suspect[part_tract[net <= 0.0]] = True
    suspect[np.repeat(part_tract, ring_counts)[a2 == 0.0]] = True
    for i in np.flatnonzero(suspect).tolist():
        message = fault(i)
        if message is not None:
            raise DegenerateGeometry(f"tract {ids[i]}: {message}")

    ring_seg = _offsets(nseg)
    seg_start = ring_seg[part_ring]
    vstart = seg_start[part_start[:-1]]  # the first segment of each tract
    low = [np.minimum.reduceat(v, vstart) for v in (ax, ay)]
    high = [np.maximum.reduceat(v, vstart) for v in (ax, ay)]
    dx, dy = bx - ax, by - ay
    return Tracts(
        list(ids), np.asarray(lon, dtype=float), np.asarray(lat, dtype=float), ring_pos,
        np.asarray(multi, dtype=bool), list(verbatim), part_ring, part_start, ring_seg,
        area, centroid, np.stack(low + high, axis=1), seg_start, ax, ay, by, dx, dy,
        dx * dx + dy * dy,
    )


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


def exact_hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """math.hypot of each pair: correctly rounded, where np.hypot may be an
    ulp off. It iterates the arrays themselves: list copies of both would
    be the largest transient of `network.build_network`."""
    return np.fromiter(map(math.hypot, x, y), dtype=float, count=len(x))


def _scan(
    tracts: Tracts, px: np.ndarray, py: np.ndarray, part: np.ndarray, hypot=np.hypot
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum boundary distance and odd crossing parity of each query
    point (px[k], py[k]) against part[k].

    Per segment, in the order of a scalar loop: t = ((x - ax) * dx +
    (y - ay) * dy) / seg2 clamped to [0, 1] (0 on a zero-length segment),
    the distance hypot(x - (ax + t * dx), y - (ay + t * dy)), and whether
    the segment crosses the ray cast east from the point. The parity is
    bitwise that of the scalar ray cast; with `exact_hypot` the distance
    is bitwise the scalar one too, and with np.hypot it may differ by an
    ulp or so.
    """
    dmin = np.empty(len(px))
    odd = np.empty(len(px), dtype=bool)
    first = tracts.seg_start[part]
    count = tracts.seg_start[part + 1] - first
    for lo, hi in _chunks(count):
        s, q = _ranges(first[lo:hi], count[lo:hi])
        offsets = np.cumsum(count[lo:hi]) - count[lo:hi]
        x, y = px[lo:hi][q], py[lo:hi][q]
        ax, ay, dx, dy = tracts.ax[s], tracts.ay[s], tracts.dx[s], tracts.dy[s]
        seg2 = tracts.seg2[s]
        ex = x - ax
        ey = y - ay
        degenerate = seg2 == 0.0
        t = (ex * dx + ey * dy) / np.where(degenerate, 1.0, seg2)
        t = np.maximum(0.0, np.minimum(1.0, t))
        t[degenerate] = 0.0
        d = hypot(x - (ax + t * dx), y - (ay + t * dy))
        dmin[lo:hi] = np.minimum.reduceat(d, offsets)
        spans = (ay > y) != (tracts.by[s] > y)
        x_cross = dx * ey / np.where(spans, dy, 1.0) + ax
        odd[lo:hi] = np.logical_xor.reduceat(spans & (x < x_cross), offsets)
    return dmin, odd


def _decide(tracts: Tracts, px, py, part, dmin: np.ndarray, threshold) -> np.ndarray:
    """dmin <= threshold, dmin being _scan's distances of the queries; the
    queries in the tie band |dmin - threshold| <= 1e-9 * max(threshold, 1)
    are measured again with `exact_hypot`."""
    threshold = np.broadcast_to(threshold, dmin.shape)
    hit = dmin <= threshold
    band = np.flatnonzero(np.abs(dmin - threshold) <= 1e-9 * np.maximum(threshold, 1.0))
    exact, _ = _scan(tracts, px[band], py[band], part[band], exact_hypot)
    hit[band] = exact <= threshold[band]
    return hit


def disks_meet(tracts: Tracts, px, py, radius, tract) -> np.ndarray:
    """Whether the closed disk around (px[k], py[k]), of radius[k] or of one
    shared radius, never less than BOUNDARY_EPS, meets any part of
    tract[k]: its centre lies inside the part by the even-odd rule (a
    point in a hole is outside), or the part's boundary comes within the
    radius. Tangency counts."""
    px, py = np.asarray(px, dtype=float), np.asarray(py, dtype=float)
    tract = np.asarray(tract, dtype=np.intp)
    part, k = _ranges(tracts.part_start[tract], np.diff(tracts.part_start)[tract])
    qx, qy = px[k], py[k]
    r = np.broadcast_to(np.maximum(radius, BOUNDARY_EPS), px.shape)[k]
    dmin, odd = _scan(tracts, qx, qy, part)
    met = np.zeros(len(px), dtype=bool)
    met[k[odd | _decide(tracts, qx, qy, part, dmin, r)]] = True
    return met


def availability_counts(tracts: Tracts, index: np.ndarray, cx, cy, radius) -> np.ndarray:
    """Number of providers whose buffer disk intersects each tract of
    `index` (indices into tracts).

    Provider k is the disk of radius[k] meters around (cx[k], cy[k]). A
    provider counts at most once per tract, even when the tract has several
    parts, and order does not matter. Only providers whose disk, widened by
    `_reach`, meets a tract's bbox are tested against it, by `disks_meet`.
    """
    index = np.asarray(index, dtype=np.intp)
    cx, cy, radius = (np.asarray(v, dtype=float) for v in (cx, cy, radius))
    n = len(index)
    if not n or not len(radius):
        return np.zeros(n, dtype=np.int64)
    if not (radius > 0).all():
        raise DomainError(f"buffer radius must be > 0, got {radius.min()}")
    boxes = tracts.bounds[index]
    scale = max(float(np.abs(boxes).max()), float(np.abs(cx).max()), float(np.abs(cy).max()))
    reach = _reach(np.maximum(radius, BOUNDARY_EPS), scale)
    near = [np.flatnonzero(_within(cx, cy, reach, box)) for box in boxes]
    row = np.repeat(np.arange(n), [len(k) for k in near])
    k = np.concatenate(near)
    return np.bincount(row[disks_meet(tracts, cx[k], cy[k], radius[k], index[row])], minlength=n)


def queen_adjacency(tracts: Tracts, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Queen-contiguity adjacency among the tracts of `index`: tracts
    sharing any boundary point.

    Two tracts are neighbors when some vertex of one lies within
    ADJACENCY_EPS of the other's boundary (vertex-to-vertex or
    vertex-to-segment), checked in both directions. Multi-part tracts are
    tested against every part. Returns (indptr, nbr), intp arrays in CSR
    form like RoadNetwork's over the positions in `index`: the neighbours
    of index[i] are the nbr[indptr[i]:indptr[i + 1]], in ascending order.
    The relation is symmetric and irreflexive.

    Candidate pairs, whose bboxes come within ADJACENCY_EPS, are found by a
    sort and sweep on bbox xmin; only the vertices within
    `_reach(ADJACENCY_EPS)` of the other tract's bbox are measured.
    """
    index = np.asarray(index, dtype=np.intp)
    n = len(index)
    if n < 2:
        raise DomainError("queen adjacency needs at least 2 tracts")
    boxes = tracts.bounds[index]
    xmin, ymin, xmax, ymax = boxes.T
    order = np.argsort(xmin, kind="stable")
    stop = np.searchsorted(xmin[order], xmax[order] + ADJACENCY_EPS, side="right")
    later, earlier = _ranges(np.arange(1, n + 1), stop - np.arange(1, n + 1))
    a, b = order[earlier], order[later]
    overlap = ~(
        (xmax[a] + ADJACENCY_EPS < xmin[b])
        | (xmax[b] + ADJACENCY_EPS < xmin[a])
        | (ymax[a] + ADJACENCY_EPS < ymin[b])
        | (ymax[b] + ADJACENCY_EPS < ymin[a])
    )
    a, b = a[overlap], b[overlap]
    # both directions: the vertices of src against the parts of dst
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    pair = np.tile(np.arange(len(a)), 2)
    vstart = tracts.seg_start[tracts.part_start]
    vcount = vstart[index[src] + 1] - vstart[index[src]]
    target = index[dst]
    reach = _reach(ADJACENCY_EPS, float(np.abs(boxes).max()))
    touching = np.zeros(len(a), dtype=bool)
    for lo, hi in _chunks(vcount):
        v, q = _ranges(vstart[index[src[lo:hi]]], vcount[lo:hi])
        near = _within(tracts.ax[v], tracts.ay[v], reach, tracts.bounds[target[lo:hi][q]].T)
        v, q = v[near], q[near]
        t = target[lo:hi][q]
        part, w = _ranges(tracts.part_start[t], np.diff(tracts.part_start)[t])
        px, py = tracts.ax[v][w], tracts.ay[v][w]
        dmin, _ = _scan(tracts, px, py, part)
        touching[pair[lo:hi][q[w[_decide(tracts, px, py, part, dmin, ADJACENCY_EPS)]]]] = True
    both = np.tile(touching, 2)
    tail, head = src[both], dst[both]
    return _offsets(np.bincount(tail, minlength=n)), head[np.lexsort((head, tail))]
