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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

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


@dataclass(frozen=True)
class BufferSpec:
    """Service radius of a food provider, in meters."""

    radius_m: float

    def __post_init__(self) -> None:
        if not (self.radius_m > 0):
            raise DomainError(f"buffer radius must be > 0, got {self.radius_m}")


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


@dataclass
class AdjacencyList:
    """Symmetric, irreflexive neighbor sets, indexed by tract position."""

    neighbors: list[set[int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.neighbors)

    def __getitem__(self, i: int) -> set[int]:
        return self.neighbors[i]


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


def availability_count(
    tract: Polygon | Sequence[Polygon],
    providers: Sequence[tuple[ProjectedPoint, BufferSpec]],
) -> int:
    """Number of providers whose buffer disk intersects the tract.

    Each provider counts at most once, even when the tract has several
    parts. Order of the provider list does not matter.
    """
    parts = [tract] if isinstance(tract, Polygon) else list(tract)
    count = 0
    for location, spec in providers:
        if any(circle_intersects_polygon(location, spec.radius_m, part) for part in parts):
            count += 1
    return count


def _geometry_vertices(parts: Sequence[Polygon]) -> list[ProjectedPoint]:
    verts = []
    for part in parts:
        for ring in part.rings:
            verts.extend(ring[:-1])
    return verts


def _vertex_near_boundary(v: ProjectedPoint, parts: Sequence[Polygon], eps: float) -> bool:
    return any(boundary_distance(v, part) <= eps for part in parts)


def queen_adjacency(
    tracts: Sequence[Polygon | Sequence[Polygon]],
    eps: float = ADJACENCY_EPS,
) -> AdjacencyList:
    """Queen-contiguity adjacency: tracts sharing any boundary point.

    Two tracts are neighbors when some vertex of one lies within eps of the
    other's boundary (vertex-to-vertex or vertex-to-segment), checked in
    both directions. Multi-part tracts are tested against every part.
    Output is symmetric and irreflexive.
    """
    if len(tracts) < 2:
        raise DomainError("queen adjacency needs at least 2 tracts")
    parts_list: list[list[Polygon]] = [
        [t] if isinstance(t, Polygon) else list(t) for t in tracts
    ]
    verts = [_geometry_vertices(parts) for parts in parts_list]
    boxes = [parts_bounds(parts) for parts in parts_list]
    n = len(parts_list)
    adj: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            bi, bj = boxes[i], boxes[j]
            if (
                bi[2] + eps < bj[0]
                or bj[2] + eps < bi[0]
                or bi[3] + eps < bj[1]
                or bj[3] + eps < bi[1]
            ):
                continue
            touching = any(
                _vertex_near_boundary(v, parts_list[j], eps) for v in verts[i]
            ) or any(_vertex_near_boundary(v, parts_list[i], eps) for v in verts[j])
            if touching:
                adj[i].add(j)
                adj[j].add(i)
    return AdjacencyList(adj)
