import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from access_atlas import geometry
from access_atlas.errors import DegenerateGeometry, DomainError
from access_atlas.geometry import (
    Polygon,
    ProjectedPoint,
    availability_counts,
    circle_intersects_polygon,
    parts_area_centroid,
    point_in_polygon,
    polygon_area_centroid,
    project_lonlat,
    queen_adjacency,
)

from _oracles import disk_intersects_sampled

KM_SQUARE = Polygon([[(0, 0), (1000, 0), (1000, 1000), (0, 1000)]])


def square(x0, y0, size=1000.0):
    return Polygon([[(x0, y0), (x0 + size, y0), (x0 + size, y0 + size), (x0, y0 + size)]])


# ---------------------------------------------------------------- projection


def test_project_reference_maps_to_origin():
    assert project_lonlat(-87.7, 41.85, -87.7, 41.85) == (0.0, 0.0)


def test_project_small_latitude_offset():
    # independent evaluation of the projection formula
    expected_y = 6_371_000 * 0.01 * math.pi / 180.0
    p = project_lonlat(-87.7, 41.86, -87.7, 41.85)
    assert p.x == 0.0
    assert p.y == pytest.approx(expected_y, abs=1e-9)
    assert p.y == pytest.approx(1111.95, abs=0.01)


def test_project_longitude_shrinks_with_latitude():
    expected_x = 6_371_000 * 0.01 * math.pi / 180.0 * math.cos(math.radians(41.85))
    p = project_lonlat(-87.69, 41.85, -87.7, 41.85)
    assert p.x == pytest.approx(expected_x, abs=1e-9)


def test_project_rejects_pole():
    with pytest.raises(DomainError):
        project_lonlat(0.0, 90.0, 0.0, 41.85)
    with pytest.raises(DomainError):
        project_lonlat(0.0, 41.85, 0.0, -89.0)


def test_project_rejects_out_of_plane():
    with pytest.raises(DomainError):
        project_lonlat(90.0, 0.0, -90.0, 0.0)


# ----------------------------------------------------------- area / centroid


def test_unit_square_area_centroid():
    area, c = polygon_area_centroid(KM_SQUARE)
    assert area == pytest.approx(1e6)
    assert c == pytest.approx((500.0, 500.0))


def test_l_shape_area_centroid():
    # decomposes into a 2000x1000 and a 1000x1000 rectangle
    l_shape = Polygon(
        [[(0, 0), (2000, 0), (2000, 1000), (1000, 1000), (1000, 2000), (0, 2000)]]
    )
    area, c = polygon_area_centroid(l_shape)
    assert area == pytest.approx(3e6)
    assert c.x == pytest.approx(2500 / 3, rel=1e-12)
    assert c.y == pytest.approx(2500 / 3, rel=1e-12)


def test_collinear_ring_is_degenerate():
    collinear = Polygon([[(0, 0), (1000, 1000), (2000, 2000)]])
    with pytest.raises(DegenerateGeometry):
        polygon_area_centroid(collinear)


def test_too_few_vertices_rejected_at_construction():
    with pytest.raises(DegenerateGeometry):
        Polygon([[(0, 0), (1000, 0), (0, 0)]])


def test_hole_subtracted_from_area_and_centroid():
    holed = Polygon(
        [
            [(0, 0), (1000, 0), (1000, 1000), (0, 1000)],
            [(0, 0), (200, 0), (200, 200), (0, 200)],
        ]
    )
    area, c = polygon_area_centroid(holed)
    assert area == pytest.approx(1e6 - 4e4)
    # weighted subtraction: (1e6*(500,500) - 4e4*(100,100)) / 9.6e5
    assert c.x == pytest.approx((1e6 * 500 - 4e4 * 100) / 9.6e5)
    assert c.y == pytest.approx((1e6 * 500 - 4e4 * 100) / 9.6e5)


def test_multi_part_centroid_is_area_weighted():
    a = square(0, 0, 1000)  # area 1e6, centroid (500, 500)
    b = square(3000, 0, 500)  # area 2.5e5, centroid (3250, 250)
    area, c = parts_area_centroid([a, b])
    assert area == pytest.approx(1.25e6)
    assert c.x == pytest.approx((1e6 * 500 + 2.5e5 * 3250) / 1.25e6)
    assert c.y == pytest.approx((1e6 * 500 + 2.5e5 * 250) / 1.25e6)


def test_centroid_translates_with_polygon():
    rng = np.random.default_rng(42)
    for _ in range(20):
        pts = rng.uniform(0, 1000, size=(5, 2))
        # star-shaped ordering keeps the ring simple
        center = pts.mean(axis=0)
        order = np.argsort(np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0]))
        ring = [tuple(p) for p in pts[order]]
        dx, dy = rng.uniform(-5000, 5000, size=2)
        moved = [(x + dx, y + dy) for x, y in ring]
        a0, c0 = polygon_area_centroid(Polygon([ring]))
        a1, c1 = polygon_area_centroid(Polygon([moved]))
        assert a1 == pytest.approx(a0, rel=1e-9)
        assert c1.x == pytest.approx(c0.x + dx, abs=1e-6)
        assert c1.y == pytest.approx(c0.y + dy, abs=1e-6)


# ----------------------------------------------------------- point in polygon


def test_point_inside():
    assert point_in_polygon(ProjectedPoint(500, 500), KM_SQUARE)


def test_point_outside():
    assert not point_in_polygon(ProjectedPoint(1500, 500), KM_SQUARE)


def test_point_on_edge_counts_inside():
    assert point_in_polygon(ProjectedPoint(1000, 500), KM_SQUARE)


def test_point_on_vertex_counts_inside():
    assert point_in_polygon(ProjectedPoint(1000, 1000), KM_SQUARE)


def test_point_in_hole_is_outside_but_hole_rim_is_inside():
    holed = Polygon(
        [
            [(0, 0), (1000, 0), (1000, 1000), (0, 1000)],
            [(400, 400), (600, 400), (600, 600), (400, 600)],
        ]
    )
    assert not point_in_polygon(ProjectedPoint(500, 500), holed)
    assert point_in_polygon(ProjectedPoint(400, 500), holed)
    assert point_in_polygon(ProjectedPoint(300, 500), holed)


# ------------------------------------------------------- circle intersection


def test_center_inside_any_radius():
    assert circle_intersects_polygon(ProjectedPoint(500, 500), 1e-6, KM_SQUARE)


def test_tangent_disk_intersects():
    # distance from (4000, 500) to the edge x=1000 is exactly 3000
    assert circle_intersects_polygon(ProjectedPoint(4000, 500), 3000, KM_SQUARE)


def test_separated_disk_does_not_intersect():
    assert not circle_intersects_polygon(ProjectedPoint(1600, 500), 500, KM_SQUARE)


HOLED = Polygon(
    [
        [(0, 0), (1000, 0), (1000, 1000), (0, 1000)],
        [(400, 400), (600, 400), (600, 600), (400, 600)],
    ]
)


@pytest.mark.parametrize(
    "center, radius, hit",
    [
        ((1600, 500), 500.0, False),
        ((500, 500), 50.0, False),  # inside the hole
        ((300, 500), 50.0, True),  # inside by the crossing count
        ((1000, 500), 1.0, True),  # on the boundary
        ((1500, 500), 600.0, True),  # within reach of an edge
    ],
)
def test_disk_test_measures_each_segment_at_most_once(monkeypatch, center, radius, hit):
    segments = sum(len(ring) - 1 for ring in HOLED.rings)
    calls = []
    real = geometry._segment_distance
    monkeypatch.setattr(geometry, "_segment_distance", lambda *a: calls.append(a) or real(*a))
    pt = ProjectedPoint(*center)
    assert circle_intersects_polygon(pt, radius, HOLED) == hit
    assert len(calls) <= segments
    calls.clear()
    point_in_polygon(pt, HOLED)
    assert len(calls) <= segments


def test_corner_distance_is_exact():
    d = math.hypot(1000, 1000)
    assert not circle_intersects_polygon(ProjectedPoint(2000, 2000), d - 1e-6, KM_SQUARE)
    assert circle_intersects_polygon(ProjectedPoint(2000, 2000), d + 1e-6, KM_SQUARE)


@given(
    r1=st.floats(min_value=1.0, max_value=5000.0),
    r2=st.floats(min_value=0.0, max_value=5000.0),
    cx=st.floats(min_value=-4000, max_value=5000),
    cy=st.floats(min_value=-4000, max_value=5000),
)
def test_intersection_monotone_in_radius(r1, r2, cx, cy):
    center = ProjectedPoint(cx, cy)
    if circle_intersects_polygon(center, r1, KM_SQUARE):
        assert circle_intersects_polygon(center, r1 + r2 + 1e-9, KM_SQUARE)


@given(
    cx=st.floats(min_value=0, max_value=1000),
    cy=st.floats(min_value=0, max_value=1000),
    r=st.floats(min_value=1e-9, max_value=1e6),
)
def test_containment_implies_intersection(cx, cy, r):
    center = ProjectedPoint(cx, cy)
    assert point_in_polygon(center, KM_SQUARE)
    assert circle_intersects_polygon(center, r, KM_SQUARE)


def test_matches_sampling_oracle_on_fixed_cases():
    rings = [[(0, 0), (800, 200), (1000, 1000), (300, 700), (0, 1000), (0, 0)]]
    poly = Polygon([rings[0][:-1]])
    rng = np.random.default_rng(7)
    for _ in range(25):
        center = ProjectedPoint(*rng.uniform(-2000, 3000, size=2))
        base = max(10.0, float(rng.uniform(10, 2500)))
        got = circle_intersects_polygon(center, base, poly)
        want = disk_intersects_sampled([[tuple(p) for p in r] for r in poly.rings], center, base)
        # skip the +-2 m band where the 1 m sampling oracle may disagree
        from _oracles import sampled_boundary_distance, winding_inside

        if not winding_inside(center, poly.rings) and abs(
            sampled_boundary_distance(poly.rings, center) - base
        ) < 2.0:
            continue
        assert got == want


def test_convex_fixture_matches_disk_grid_oracle():
    # alternative oracle: sample the disk's interior and boundary on a 1 m
    # grid and ask whether any sampled point falls inside the polygon
    from _oracles import winding_inside

    hexagon = Polygon(
        [[(300 * math.cos(a), 300 * math.sin(a)) for a in np.linspace(0, 2 * math.pi, 7)[:-1]]]
    )
    rings = [[(p.x, p.y) for p in r] for r in hexagon.rings]

    def disk_grid_hits(center, radius):
        xs = np.arange(center.x - radius, center.x + radius + 1.0, 1.0)
        ys = np.arange(center.y - radius, center.y + radius + 1.0, 1.0)
        for x in xs:
            for y in ys:
                if math.hypot(x - center.x, y - center.y) <= radius and winding_inside(
                    (x, y), rings
                ):
                    return True
        return False

    rng = np.random.default_rng(19)
    for _ in range(12):
        center = ProjectedPoint(*rng.uniform(-700, 700, size=2))
        radius = float(rng.uniform(20, 300))
        want = disk_grid_hits(center, radius)
        got = circle_intersects_polygon(center, radius, hexagon)
        if want != got:
            # the grid oracle misses by up to ~1.5 m near tangency
            from _oracles import sampled_boundary_distance

            assert abs(sampled_boundary_distance(rings, center) - radius) < 2.0
        else:
            assert got == want


# --------------------------------------------------------- availability count


def availability_count(tract, providers) -> int:
    return int(availability_counts([tract], providers)[0])


def test_availability_empty():
    assert availability_count(KM_SQUARE, []) == 0
    assert availability_counts([], [(ProjectedPoint(0, 0), 1.0)]).shape == (0,)


def test_availability_supermarket_within_reach():
    # nearest boundary point 2900 m away, buffer 3000 m
    provider = (ProjectedPoint(3900, 500), 3000.0)
    assert circle_intersects_polygon(provider[0], 3000, KM_SQUARE)
    assert availability_count(KM_SQUARE, [provider]) == 1


def test_availability_composition():
    inside = (ProjectedPoint(500, 500), 3000.0)
    cart = (ProjectedPoint(1600, 500), 500.0)  # 600 m out of reach
    assert availability_count(KM_SQUARE, [inside, cart]) == 1


def test_availability_counts_provider_once_for_multipart_tract():
    parts = [square(0, 0), square(1500, 0)]
    provider = (ProjectedPoint(1250, 500), 400.0)  # reaches both parts
    assert availability_count(parts, [provider]) == 1


def test_availability_order_invariant_and_additive():
    rng = np.random.default_rng(11)
    providers = [
        (ProjectedPoint(*rng.uniform(-2000, 3000, size=2)), float(rng.uniform(100, 2000)))
        for _ in range(12)
    ]
    total = availability_count(KM_SQUARE, providers)
    shuffled = [providers[i] for i in rng.permutation(len(providers))]
    assert availability_count(KM_SQUARE, shuffled) == total
    assert availability_count(KM_SQUARE, providers[:5]) + availability_count(
        KM_SQUARE, providers[5:]
    ) == total


def test_availability_rejects_non_positive_radius():
    with pytest.raises(DomainError):
        availability_counts([KM_SQUARE], [(ProjectedPoint(0, 0), 0.0)])


# ------------------------------------------------------------ queen adjacency


def test_shared_edge_is_adjacent():
    adj = queen_adjacency([square(0, 0), square(1000, 0)])
    assert adj[0] == {1} and adj[1] == {0}


def test_corner_touch_is_adjacent():
    adj = queen_adjacency([square(0, 0), square(1000, 1000)])
    assert adj[0] == {1} and adj[1] == {0}


def test_separated_squares_not_adjacent():
    adj = queen_adjacency([square(0, 0), square(1010, 0)])
    assert adj[0] == set() and adj[1] == set()


def test_adjacency_symmetric_irreflexive_translation_invariant():
    tracts = [square(i * 1000, j * 1000) for i in range(3) for j in range(3)]
    adj = queen_adjacency(tracts)
    for i, neigh in enumerate(adj.neighbors):
        assert i not in neigh
        for j in neigh:
            assert i in adj[j]
    moved = [
        Polygon([[(p.x + 12345.0, p.y - 777.0) for p in ring] for ring in t.rings])
        for t in tracts
    ]
    assert queen_adjacency(moved).neighbors == adj.neighbors


def test_vertex_on_segment_counts_as_touching():
    # T-junction: right square's corner lies mid-edge on the left square
    left = square(0, 0, 1000)
    right = square(1000, 250, 500)
    adj = queen_adjacency([left, right])
    assert adj[0] == {1}


def test_adjacency_needs_two_tracts():
    with pytest.raises(DomainError):
        queen_adjacency([KM_SQUARE])


def test_grid_adjacency_expected_neighbor_sets():
    # 3x3 grid of km squares, row-major from the south-west corner
    tracts = [square(c * 1000, r * 1000) for r in range(3) for c in range(3)]
    adj = queen_adjacency(tracts)
    idx = lambda r, c: r * 3 + c
    assert adj[idx(0, 0)] == {idx(0, 1), idx(1, 0), idx(1, 1)}
    assert adj[idx(1, 1)] == {i for i in range(9) if i != idx(1, 1)}
    assert adj[idx(0, 1)] == {idx(0, 0), idx(0, 2), idx(1, 0), idx(1, 1), idx(1, 2)}


def test_disk_reaching_into_hole_intersects_hole_rim():
    holed = Polygon(
        [
            [(0, 0), (1000, 0), (1000, 1000), (0, 1000)],
            [(400, 400), (600, 400), (600, 600), (400, 600)],
        ]
    )
    center = ProjectedPoint(500, 500)  # inside the hole, outside the polygon
    assert not point_in_polygon(center, holed)
    assert not circle_intersects_polygon(center, 99.0, holed)  # rim is 100 m away
    assert circle_intersects_polygon(center, 100.0, holed)  # tangent to the rim
