"""The numpy segment kernel behind availability_counts, queen_adjacency and
the grid-K sampler, against the scalar loops in _oracles.

Planted cases sit inside the kernel's tie band (|d - r| <= 1e-9 * max(r, 1)),
where np.hypot and math.hypot may disagree; each test checks that the kernel
really measured them again with math.hypot, and every comparison is repeated
with a kernel budget of a few elements, so that results cannot depend on
chunk bounds.
"""

import math

import numpy as np
import pytest

from access_atlas import geometry
from access_atlas.errors import DegenerateGeometry
from access_atlas.geometry import (
    ADJACENCY_EPS,
    BOUNDARY_EPS,
    disks_meet,
    queen_adjacency,
)
from access_atlas.network import origin_points

from conftest import TINY_BUDGETS, counts_of_disks, each_budget, recording_scans
from _oracles import (
    Polygon,
    ProjectedPoint,
    availability_loop,
    boundary_distance,
    circle_intersects_polygon,
    neighbour_sets,
    pack,
    parts_bounds,
    point_in_polygon,
    polygon_area_centroid,
    queen_adjacency_loop,
)


def measured_again(scans) -> int:
    """The queries that the exact passes among recorded _scan calls measured
    again with math.hypot: those in the tie band."""
    return sum(queries for exact, queries, _ in scans if exact)


def star(rng, cx, cy, r_min, r_max, n):
    """A simple polygon ring: n vertices at sorted angles about (cx, cy)."""
    angles = np.sort(rng.uniform(0.0, 2 * math.pi, size=n))
    radii = rng.uniform(r_min, r_max, size=n)
    return [(cx + r * math.cos(a), cy + r * math.sin(a)) for a, r in zip(angles, radii)]


def random_tract(rng, cx, cy):
    """One to three star-shaped parts, some with a hole, some with a
    repeated consecutive vertex (a zero-length segment). A hole that would
    leave its part no positive area is left out."""
    parts = []
    for k in range(int(rng.integers(1, 4))):
        px, py = cx + 2500.0 * k, cy
        rings = [star(rng, px, py, 600.0, 1000.0, int(rng.integers(3, 12)))]
        if rng.random() < 0.5:
            rings.append(star(rng, px, py, 100.0, 300.0, int(rng.integers(3, 7))))
        if rng.random() < 0.5:
            ring = rings[0]
            i = int(rng.integers(0, len(ring)))
            ring.insert(i, ring[i])
        try:
            polygon_area_centroid(Polygon(rings))
        except DegenerateGeometry:
            del rings[1:]
        parts.append(Polygon(rings))
    return parts


def planted_centers(rng, parts):
    """Centres on vertices, on edges, on hole rims, inside holes, and random."""
    centers = []
    for part in parts:
        for ring in part.rings:
            i = int(rng.integers(0, len(ring) - 1))
            a, b = ring[i], ring[i + 1]
            t = float(rng.random())
            centers.append(a)
            centers.append(ProjectedPoint(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
        if len(part.rings) > 1:
            hole = np.array(part.rings[1][:-1])
            centers.append(ProjectedPoint(*hole.mean(axis=0)))  # star centre: inside the hole
    for _ in range(6):
        centers.append(ProjectedPoint(*rng.uniform(-3000.0, 9000.0, size=2)))
    return centers


def test_exact_scan_is_the_scalar_boundary_distance():
    """The premise of the tie band: with math.hypot, _scan gives the scalar
    boundary_distance bit for bit and the scalar ray-cast parity, and with
    np.hypot it stays within the band of that. Star and holed parts, one
    with a zero-length segment, near the origin and near 1e6 m."""
    rng = np.random.default_rng(808)
    tracts = [random_tract(rng, cx, cy) for cx, cy in [(0.0, 0.0), (1e6, 1e6), (-1e6, 9.9e5)]]
    ring, hole = star(rng, 1e6, -1e6, 600.0, 1000.0, 9), star(rng, 1e6, -1e6, 100.0, 300.0, 5)
    ring.insert(4, ring[4])
    tracts.append([Polygon([ring, hole])])
    packed = pack(tracts)
    px, py, part, want, inside = [], [], [], [], []
    for t, parts in enumerate(tracts):
        cx, cy = packed.centroid[t].tolist()
        points = planted_centers(rng, parts)
        points += [ProjectedPoint(*xy) for xy in rng.uniform(-3000.0, 3000.0, (20, 2)) + (cx, cy)]
        for j, polygon in enumerate(parts):
            for pt in points:
                px.append(pt.x)
                py.append(pt.y)
                part.append(packed.part_start[t] + j)
                want.append(boundary_distance(pt, polygon.rings))
                inside.append(point_in_polygon(pt, polygon))
    px, py, part = np.array(px), np.array(py), np.array(part)
    exact, odd = geometry._scan(packed, px, py, part, geometry.exact_hypot)
    assert exact.tolist() == want
    off_rim = exact > geometry.BOUNDARY_EPS
    assert odd[off_rim].tolist() == np.array(inside)[off_rim].tolist()
    fast, fast_odd = geometry._scan(packed, px, py, part)
    assert np.all(np.abs(fast - exact) < 1e-9 * np.maximum(exact, 1.0))
    assert np.array_equal(fast_odd, odd)


def test_availability_matches_oracle_on_random_tracts(monkeypatch):
    rng = np.random.default_rng(101)
    tracts = [random_tract(rng, 8000.0 * (i % 3), 4000.0 * (i // 3)) for i in range(6)]
    providers = []
    for parts in tracts:
        for center in planted_centers(rng, parts):
            providers.append((center, float(rng.uniform(1.0, 1500.0))))
    want = [availability_loop(parts, providers) for parts in tracts]
    packed, index = pack(tracts), np.arange(len(tracts))
    for got in each_budget(monkeypatch, lambda: counts_of_disks(packed, index, providers)):
        assert got.tolist() == want


def test_tangent_disks_fall_back_to_the_scalar_predicate(monkeypatch):
    """r equal to the scalar corner distance, and 1 ulp either side of it:
    every such disk is measured again with math.hypot."""
    rng = np.random.default_rng(202)
    tracts = [random_tract(rng, 0.0, 0.0), [Polygon([[(0, 0), (1000, 0), (1000, 1000), (0, 1000)]])]]
    providers = []
    for parts in tracts:
        for part in parts:
            for _ in range(8):
                vertex = part.rings[0][int(rng.integers(0, len(part.rings[0]) - 1))]
                center = ProjectedPoint(
                    vertex.x + float(rng.uniform(-900, 900)), vertex.y + float(rng.uniform(-900, 900))
                )
                d = boundary_distance(center, part.rings)
                if d == 0.0:
                    continue
                providers += [(center, r) for r in (math.nextafter(d, 0.0), d, math.nextafter(d, math.inf))]
    # the square's corner at exactly its scalar distance
    corner = math.hypot(1000.0, 1000.0)
    providers += [(ProjectedPoint(2000.0, 2000.0), r) for r in (math.nextafter(corner, 0.0), corner)]
    want = [availability_loop(parts, providers) for parts in tracts]
    packed, index = pack(tracts), np.arange(len(tracts))
    scans = recording_scans(monkeypatch)
    got = each_budget(monkeypatch, lambda: counts_of_disks(packed, index, providers))
    assert all(g.tolist() == want for g in got)
    # each is in the band of its part
    assert measured_again(scans) >= len(TINY_BUDGETS) * len(providers)


def test_queen_adjacency_matches_oracle_at_eps_plus_minus_1e12(monkeypatch):
    """Squares whose edges and corners come within ADJACENCY_EPS +- 1e-12."""
    rng = np.random.default_rng(303)
    gaps = (0.0, ADJACENCY_EPS - 1e-12, ADJACENCY_EPS, ADJACENCY_EPS + 1e-12, 5e-3)
    for _ in range(6):
        tracts = []
        y = 0.0
        for _row in range(3):
            x = 0.0
            for _col in range(3):
                dense = int(rng.integers(1, 4))  # collinear cuts per side
                side = [i / dense for i in range(dense)]
                ring = (
                    [(x + 1000 * s, y) for s in side]
                    + [(x + 1000, y + 1000 * s) for s in side]
                    + [(x + 1000 * (1 - s), y + 1000) for s in side]
                    + [(x, y + 1000 * (1 - s)) for s in side]
                )
                tracts.append([Polygon([ring])])
                x += 1000.0 + float(rng.choice(gaps))
            y += 1000.0 + float(rng.choice(gaps))
        want = queen_adjacency_loop(tracts)
        packed, index = pack(tracts), np.arange(len(tracts))
        scans = recording_scans(monkeypatch)
        got = each_budget(monkeypatch, lambda: neighbour_sets(queen_adjacency(packed, index)))
        assert all(g == want for g in got)
        assert measured_again(scans)  # some vertex lies in the band round ADJACENCY_EPS


def test_queen_adjacency_matches_oracle_on_random_multipart_tracts(monkeypatch):
    """Grid cells dealt at random to multi-part tracts, one cell with a hole
    that another tract fills, beside star tracts that overlap but never touch."""
    rng = np.random.default_rng(404)
    island = Polygon([[(1400, 1400), (1600, 1400), (1600, 1600), (1400, 1600)]])
    dealt = [[] for _ in range(5)]
    for r in range(4):
        for c in range(4):
            x, y = 1000.0 * c, 1000.0 * r
            rings = [[(x, y), (x + 1000, y), (x + 1000, y + 1000), (x, y + 1000)]]
            if (r, c) == (1, 1):
                rings.append(island.rings[0])
            dealt[int(rng.integers(0, 5))].append(Polygon(rings))
    # a half-size square on the grid's top edge: only its vertices touch
    stacked = Polygon([[(1250, 4000), (1750, 4000), (1750, 4500), (1250, 4500)]])
    tracts = [[island], [stacked], *[parts for parts in dealt if parts]]
    tracts += [random_tract(rng, 6000.0 + 1900.0 * (i % 2), 1900.0 * (i // 2)) for i in range(4)]
    want = queen_adjacency_loop(tracts)
    assert len(want[0]) == 1  # the island touches the rim of its hole only
    assert len(want[1]) == 1
    packed, index = pack(tracts), np.arange(len(tracts))
    for indptr, nbr in each_budget(monkeypatch, lambda: queen_adjacency(packed, index)):
        assert indptr.dtype == nbr.dtype == np.intp
        assert indptr[0] == 0 and indptr[-1] == len(nbr) == sum(map(len, want))
        assert len(indptr) == len(tracts) + 1 and np.all(np.diff(indptr) >= 0)
        rows = np.repeat(np.arange(len(tracts)), np.diff(indptr))
        assert np.all(np.diff(nbr)[rows[1:] == rows[:-1]] > 0)  # each row strictly ascending
        assert np.all(nbr != rows)  # irreflexive
        assert sorted(zip(rows.tolist(), nbr.tolist())) == sorted(zip(nbr.tolist(), rows.tolist()))
        assert neighbour_sets((indptr, nbr)) == want


def test_grid_samples_on_a_tract_edge_fall_back(monkeypatch):
    # the 4 x 4 sample grid puts (375, 625), (625, 375), ... on the notch edges
    ell = [Polygon([[(0, 0), (1000, 0), (1000, 375), (375, 375), (375, 1000), (0, 1000)]])]
    rng = np.random.default_rng(505)
    # grid-3 samples the holed square at its centre, which lies in the hole
    hole = [(300, 300), (600, 300), (600, 600), (300, 600)]
    holed = [Polygon([[(0, 0), (900, 0), (900, 900), (0, 900)], hole])]
    # grid-1 samples the ell at its bbox centre, which lies in the notch
    cases = [(ell, 4), (ell, 1), (holed, 3)]
    cases += [(random_tract(rng, 0.0, 0.0), int(rng.integers(1, 9))) for _ in range(6)]
    for parts, k in cases:
        xmin, ymin, xmax, ymax = parts_bounds(parts)
        grid = [
            ProjectedPoint(xmin + (i + 0.5) * (xmax - xmin) / k, ymin + (j + 0.5) * (ymax - ymin) / k)
            for j in range(k)
            for i in range(k)
        ]
        # the tract beside a copy of it: one call samples both
        packed = pack([parts, parts])
        want = [pt for pt in grid if any(point_in_polygon(pt, part) for part in parts)]
        want = want or [ProjectedPoint(*packed.centroid[0].tolist())]
        scans = recording_scans(monkeypatch)
        got = each_budget(monkeypatch, lambda: origin_points(packed, [1, 0], f"grid-{k}"))
        for px, py, owner in got:
            assert list(zip(px.tolist(), py.tolist())) == want + want
            assert owner.tolist() == [0] * len(want) + [1] * len(want)
        if parts is ell and k == 4:
            # 4 edge samples and the notch vertex, in each copy
            assert measured_again(scans) >= len(TINY_BUDGETS) * 10
            assert ProjectedPoint(625.0, 375.0) in want
        if parts is holed:
            assert len(want) == 8 and ProjectedPoint(450.0, 450.0) not in want


def test_points_in_tract_matches_point_in_polygon(monkeypatch):
    """disks_meet with a radius of at most BOUNDARY_EPS, 0.0 included,
    shared or one per query, is the scalar point-in-tract test: the rim is
    inside, a hole outside. A wider shared radius acts as that radius
    repeated per query, and as the scalar disk test."""
    rng = np.random.default_rng(606)
    tracts = [random_tract(rng, 0.0, 0.0) for _ in range(5)]
    points = [planted_centers(rng, parts) for parts in tracts]
    want = [
        any(point_in_polygon(pt, part) for part in parts)
        for parts, pts in zip(tracts, points)
        for pt in pts
    ]
    wide = [
        any(circle_intersects_polygon(pt, 40.0, part.rings) for part in parts)
        for parts, pts in zip(tracts, points)
        for pt in pts
    ]
    packed = pack(tracts)
    px = np.array([pt.x for pts in points for pt in pts])
    py = np.array([pt.y for pts in points for pt in pts])
    tract = np.repeat(np.arange(len(tracts)), [len(pts) for pts in points])
    n = len(px)
    for radius, expected in [
        (BOUNDARY_EPS, want),
        (0.0, want),
        (np.zeros(n), want),
        (np.full(n, BOUNDARY_EPS), want),
        (40.0, wide),
        (np.full(n, 40.0), wide),
    ]:
        for got in each_budget(monkeypatch, lambda: disks_meet(packed, px, py, radius, tract)):
            assert got.tolist() == expected


@pytest.mark.parametrize("budget", [1, 7, 64])
def test_chunk_bounds_do_not_change_the_scan(monkeypatch, budget):
    rng = np.random.default_rng(707)
    tracts = pack([random_tract(rng, 0.0, 0.0) for _ in range(3)])
    n = 200
    part = rng.integers(0, len(tracts.part_ring) - 1, size=n)
    px, py = rng.uniform(-1500, 6500, size=(2, n))
    whole = geometry._scan(tracts, px, py, part)
    monkeypatch.setattr(geometry, "KERNEL_BUDGET", budget)
    chunked = geometry._scan(tracts, px, py, part)
    assert np.array_equal(whole[0], chunked[0]) and np.array_equal(whole[1], chunked[1])


def test_chunks_fill_the_budget(monkeypatch):
    monkeypatch.setattr(geometry, "KERNEL_BUDGET", 6)
    weights = np.array([3, 3, 3, 3, 10, 1, 2, 2])
    assert list(geometry._chunks(weights)) == [(0, 2), (2, 4), (4, 5), (5, 8)]
