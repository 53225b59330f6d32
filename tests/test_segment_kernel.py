"""The numpy segment kernel behind availability_counts, queen_adjacency and
the grid-K sampler, against the scalar loops in _oracles.

Planted cases sit inside the kernel's tie band (|d - r| <= 1e-9 * max(r, 1)),
where np.hypot and math.hypot may disagree; each test checks that the scalar
fallback really ran on them, and every comparison is repeated with a kernel
budget of a few elements, so that results cannot depend on chunk bounds.
"""

import math

import numpy as np
import pytest

from access_atlas import geometry
from access_atlas.geometry import (
    ADJACENCY_EPS,
    Polygon,
    ProjectedPoint,
    availability_counts,
    boundary_distance,
    point_in_polygon,
    points_in_tract,
    queen_adjacency,
)
from access_atlas.network import _grid_sample_points

from _oracles import availability_loop, queen_adjacency_loop

TINY_BUDGETS = (None, 1, 5, 17)


def counting(monkeypatch, name: str) -> list:
    """Wrap geometry.<name> so that every call through the module is recorded."""
    calls = []
    real = getattr(geometry, name)
    monkeypatch.setattr(geometry, name, lambda *a: calls.append(a) or real(*a))
    return calls


def each_budget(monkeypatch, compute):
    """compute() under the default KERNEL_BUDGET and under tiny ones; then
    undoes every monkeypatch of the test, counting wrappers included."""
    results = []
    for budget in TINY_BUDGETS:
        if budget is not None:
            monkeypatch.setattr(geometry, "KERNEL_BUDGET", budget)
        results.append(compute())
    monkeypatch.undo()
    return results


def star(rng, cx, cy, r_min, r_max, n):
    """A simple polygon ring: n vertices at sorted angles about (cx, cy)."""
    angles = np.sort(rng.uniform(0.0, 2 * math.pi, size=n))
    radii = rng.uniform(r_min, r_max, size=n)
    return [(cx + r * math.cos(a), cy + r * math.sin(a)) for a, r in zip(angles, radii)]


def random_tract(rng, cx, cy):
    """One to three star-shaped parts, some with a hole, some with a
    repeated consecutive vertex (a zero-length segment)."""
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


def test_availability_matches_oracle_on_random_tracts(monkeypatch):
    rng = np.random.default_rng(101)
    tracts = [random_tract(rng, 8000.0 * (i % 3), 4000.0 * (i // 3)) for i in range(6)]
    providers = []
    for parts in tracts:
        for center in planted_centers(rng, parts):
            providers.append((center, float(rng.uniform(1.0, 1500.0))))
    want = [availability_loop(parts, providers) for parts in tracts]
    for got in each_budget(monkeypatch, lambda: availability_counts(tracts, providers)):
        assert got.tolist() == want


def test_tangent_disks_fall_back_to_the_scalar_predicate(monkeypatch):
    """r equal to the scalar corner distance, and 1 ulp either side of it."""
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
                d = boundary_distance(center, part)
                if d == 0.0:
                    continue
                providers += [(center, r) for r in (math.nextafter(d, 0.0), d, math.nextafter(d, math.inf))]
    # the square's corner at exactly its scalar distance
    corner = math.hypot(1000.0, 1000.0)
    providers += [(ProjectedPoint(2000.0, 2000.0), r) for r in (math.nextafter(corner, 0.0), corner)]
    want = [availability_loop(parts, providers) for parts in tracts]
    calls = counting(monkeypatch, "circle_intersects_polygon")
    got = each_budget(monkeypatch, lambda: availability_counts(tracts, providers))
    assert all(g.tolist() == want for g in got)
    assert len(calls) >= len(TINY_BUDGETS) * len(providers)  # each is in the band of its part


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
        calls = counting(monkeypatch, "boundary_distance")
        got = each_budget(monkeypatch, lambda: queen_adjacency(tracts).neighbors)
        assert all(g == want for g in got)
        assert calls  # some vertex lies in the band round ADJACENCY_EPS


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
    for got in each_budget(monkeypatch, lambda: queen_adjacency(tracts).neighbors):
        assert got == want


def test_grid_samples_on_a_tract_edge_fall_back(monkeypatch):
    # the 4 x 4 sample grid puts (375, 625), (625, 375), ... on the notch edges
    ell = [Polygon([[(0, 0), (1000, 0), (1000, 375), (375, 375), (375, 1000), (0, 1000)]])]
    rng = np.random.default_rng(505)
    for parts, k in [(ell, 4), *[(random_tract(rng, 0.0, 0.0), int(rng.integers(1, 9))) for _ in range(6)]]:
        xmin, ymin, xmax, ymax = geometry.parts_bounds(parts)
        grid = [
            ProjectedPoint(xmin + (i + 0.5) * (xmax - xmin) / k, ymin + (j + 0.5) * (ymax - ymin) / k)
            for j in range(k)
            for i in range(k)
        ]
        want = [pt for pt in grid if any(point_in_polygon(pt, part) for part in parts)]
        calls = counting(monkeypatch, "circle_intersects_polygon")
        got = each_budget(monkeypatch, lambda: _grid_sample_points(parts, k))
        assert all(g == want for g in got)
        if parts is ell:
            assert len(calls) >= len(TINY_BUDGETS) * 5  # 4 edge samples and the notch vertex
            assert ProjectedPoint(625.0, 375.0) in want


def test_points_in_tract_matches_point_in_polygon(monkeypatch):
    rng = np.random.default_rng(606)
    for _ in range(5):
        parts = random_tract(rng, 0.0, 0.0)
        points = planted_centers(rng, parts)
        want = [any(point_in_polygon(pt, part) for part in parts) for pt in points]
        for got in each_budget(monkeypatch, lambda: points_in_tract(points, parts)):
            assert got.tolist() == want


@pytest.mark.parametrize("budget", [1, 7, 64])
def test_chunk_bounds_do_not_change_the_scan(monkeypatch, budget):
    rng = np.random.default_rng(707)
    segs = geometry._pack([random_tract(rng, 0.0, 0.0) for _ in range(3)])
    n = 200
    part = rng.integers(0, len(segs.parts), size=n)
    px, py = rng.uniform(-1500, 6500, size=(2, n))
    whole = geometry._scan(segs, px, py, part)
    monkeypatch.setattr(geometry, "KERNEL_BUDGET", budget)
    chunked = geometry._scan(segs, px, py, part)
    assert np.array_equal(whole[0], chunked[0]) and np.array_equal(whole[1], chunked[1])


def test_chunks_fill_the_budget(monkeypatch):
    monkeypatch.setattr(geometry, "KERNEL_BUDGET", 6)
    weights = np.array([3, 3, 3, 3, 10, 1, 2, 2])
    assert list(geometry._chunks(weights)) == [(0, 2), (2, 4), (4, 5), (5, 8)]
