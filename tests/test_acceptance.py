"""Acceptance suite: one test per release criterion.

Each test prints a PASS line when its criterion holds at the stated
tolerance; run with `pytest tests/test_acceptance.py -v` to get one
pass/fail line per criterion.

The frozen reference tables below are a known-good 4-decimal result set
for the ten access variables: a 10x10 loading matrix (columns =
components), its variance proportions, and the correlation matrix between
the variables' loading profiles. They pin the numerical conventions
(thresholds, profile correlation, orthonormality checks) independently of
any fixture this repo generates.
"""

import os
import time

import numpy as np
import pytest

from access_atlas import cli
from access_atlas.geometry import queen_adjacency
from access_atlas.ingest import VARIABLE_COLUMNS
from access_atlas.network import multisource_shortest_distances
from access_atlas.report import boxmap_classify
from access_atlas.stats import (
    classify_contributors,
    correlation_matrix,
    loading_profile_correlation,
    morans_i,
    pca,
)

from conftest import disk_meets, network_from_records
from _oracles import (
    Polygon,
    ProjectedPoint,
    csr,
    cubic_eigenvalues,
    disk_intersects_sampled,
    floyd_warshall,
    moran_loop,
    neighbour_sets,
    sampled_boundary_distance,
    winding_inside,
)

VARIABLES = (
    "AV_INT", "AV_POP", "ACE_NET", "ACE_NV", "ACE_ELD",
    "ACE_DIS", "AFF_POV", "AFF_UNEMP", "ACO_ENG", "ACO_SNAP",
)

REFERENCE_PROPORTIONS = np.array(
    [0.4068, 0.2056, 0.1127, 0.0939, 0.0498, 0.0486, 0.0294, 0.0273, 0.0141, 0.0118]
)

# rows = variables (order above), columns = PC1..PC10
REFERENCE_LOADINGS = np.array([
    [ 0.2829,  0.3406,  0.2905, -0.0098,  0.0999, -0.8138, -0.2051,  0.0674, -0.0216, -0.0119],
    [-0.1845,  0.5316,  0.1506,  0.0789, -0.5102,  0.2748, -0.4744,  0.1729,  0.2120,  0.1367],
    [-0.2541, -0.2855, -0.4735, -0.1457, -0.6200, -0.4622,  0.0505,  0.0437,  0.0771, -0.0113],
    [-0.3167,  0.1955,  0.4965, -0.2898, -0.1618, -0.0475,  0.6843, -0.0250,  0.1720,  0.0639],
    [-0.0998, -0.4463,  0.4630,  0.4842, -0.2021, -0.0411, -0.0085,  0.4350, -0.3256,  0.0648],
    [-0.3744, -0.2304,  0.2442,  0.3293,  0.0861, -0.1291, -0.2388, -0.5867,  0.4109, -0.2111],
    [-0.4246,  0.2851, -0.0664, -0.0194,  0.0519, -0.0131, -0.0299,  0.0102, -0.5328, -0.6678],
    [-0.4215, -0.0074, -0.1687, -0.0066,  0.4725, -0.0989, -0.0528,  0.6128,  0.4271, -0.0086],
    [ 0.1278,  0.3538, -0.3109,  0.7315, -0.0584, -0.0503,  0.4469, -0.0051,  0.1354, -0.0522],
    [-0.4435,  0.1512, -0.1367,  0.1001,  0.2039, -0.1246, -0.0400, -0.2324, -0.3995,  0.6924],
])

# reference correlation between the loading-profile rows above
REFERENCE_PROFILE_CORR = np.array([
    [ 1.0000, -0.0007,  0.0052, -0.0015, -0.0006,  0.0014,  0.0030, -0.0015, -0.0028,  0.0004],
    [-0.0007,  1.0000,  0.1081, -0.0311, -0.0127,  0.0281,  0.0615, -0.0301, -0.0568,  0.0090],
    [ 0.0052,  0.1081,  1.0000,  0.2199,  0.0899, -0.1984, -0.4341,  0.2127,  0.4009, -0.0634],
    [-0.0015, -0.0311,  0.2199,  1.0000, -0.0259,  0.0571,  0.1250, -0.0612, -0.1154,  0.0183],
    [-0.0006, -0.0127,  0.0899, -0.0259,  1.0000,  0.0233,  0.0511, -0.0250, -0.0472,  0.0075],
    [ 0.0014,  0.0281, -0.1984,  0.0571,  0.0233,  1.0000, -0.1127,  0.0552,  0.1041, -0.0165],
    [ 0.0030,  0.0615, -0.4341,  0.1250,  0.0511, -0.1127,  1.0000,  0.1209,  0.2278, -0.0361],
    [-0.0015, -0.0301,  0.2127, -0.0612, -0.0250,  0.0552,  0.1209,  1.0000, -0.1116,  0.0177],
    [-0.0028, -0.0568,  0.4009, -0.1154, -0.0472,  0.1041,  0.2278, -0.1116,  1.0000,  0.0333],
    [ 0.0004,  0.0090, -0.0634,  0.0183,  0.0075, -0.0165, -0.0361,  0.0177,  0.0333,  1.0000],
])

FIXED_6X3 = np.array([
    [2.1, 3.4, 0.2],
    [4.3, 1.2, 5.6],
    [0.5, 4.8, 2.2],
    [3.7, 2.9, 4.1],
    [5.2, 0.8, 3.3],
    [1.9, 5.5, 1.0],
])


def test_c1_loading_profile_correlation_reproduces_reference():
    start = time.monotonic()
    got = loading_profile_correlation(REFERENCE_LOADINGS, list(VARIABLES))
    iu = np.triu_indices(10, 1)
    worst = np.abs(got - REFERENCE_PROFILE_CORR)[iu].max()
    assert worst <= 2e-3, f"worst off-diagonal deviation {worst}"
    pov, snap = VARIABLES.index("AFF_POV"), VARIABLES.index("ACO_SNAP")
    avi, avp = VARIABLES.index("AV_INT"), VARIABLES.index("AV_POP")
    assert got[pov, snap] == pytest.approx(-0.0361, abs=2e-3)
    assert got[avi, avp] == pytest.approx(-0.0007, abs=2e-3)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nPASS c1: all 45 profile correlations within 2e-3 (worst {worst:.2e}, {elapsed:.2f}s)")


def test_c2_reference_table_internal_consistency():
    assert REFERENCE_PROPORTIONS.sum() == pytest.approx(1.0, abs=2e-3)
    assert REFERENCE_PROPORTIONS[:4].sum() == pytest.approx(0.8190, abs=1e-3)
    norms = np.linalg.norm(REFERENCE_LOADINGS, axis=0)
    assert np.abs(norms - 1.0).max() <= 5e-3
    gram = REFERENCE_LOADINGS.T @ REFERENCE_LOADINGS
    off = gram[~np.eye(10, dtype=bool)]
    assert np.abs(off).max() <= 5e-3
    print(
        "\nPASS c2: proportions sum "
        f"{REFERENCE_PROPORTIONS.sum():.4f}, first four {REFERENCE_PROPORTIONS[:4].sum():.4f}, "
        f"column norms within {np.abs(norms - 1).max():.1e}, dots within {np.abs(off).max():.1e}"
    )


def test_c3_first_component_contributor_sets():
    column = list(zip(VARIABLES, REFERENCE_LOADINGS[:, 0]))
    significant, secondary = classify_contributors(column)
    assert significant == {"AFF_POV", "AFF_UNEMP", "ACO_SNAP"}
    assert secondary == {"AV_INT", "AV_POP", "ACE_NET", "ACE_NV", "ACE_DIS", "ACO_ENG"}
    assert "ACE_ELD" not in significant | secondary  # |-0.0998| < 0.1000
    print("\nPASS c3: significant = {AFF_POV, AFF_UNEMP, ACO_SNAP}; ACE_ELD excluded")


def test_c4_minitown_end_to_end_determinism(minitown_config, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["report", "--config", minitown_config, "--out", str(out_a)]) == 0
    assert cli.main(["report", "--config", minitown_config, "--out", str(out_b)]) == 0
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        a = (out_a / name).read_bytes()
        b = (out_b / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    print(f"\nPASS c4: minitown report rerun byte-identical across {len(names)} files")


def test_c5_pca_matches_characteristic_cubic_oracle():
    start = time.monotonic()
    result = pca(FIXED_6X3)
    corr = correlation_matrix(FIXED_6X3)
    oracle = cubic_eigenvalues(corr)
    worst_eig = np.abs(result.eigenvalues - oracle).max()
    assert worst_eig < 1e-8
    rebuilt = result.loadings @ np.diag(result.eigenvalues) @ result.loadings.T
    worst_rec = np.abs(rebuilt - corr).max()
    assert worst_rec < 1e-8
    assert abs(result.eigenvalues.sum() - 3.0) < 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(
        f"\nPASS c5: eigenvalues within {worst_eig:.1e} of cubic roots, "
        f"reconstruction within {worst_rec:.1e}, trace conserved ({elapsed:.2f}s)"
    )


def test_c6_dijkstra_matches_floyd_warshall_on_30_graphs():
    start = time.monotonic()
    rng = np.random.default_rng(60)
    for g in range(30):
        n = int(rng.integers(4, 51))
        nodes = {
            str(i): ProjectedPoint(float(rng.uniform(0, 1e4)), float(rng.uniform(0, 1e4)))
            for i in range(n)
        }
        edges = []
        for i in range(1, n):
            j = int(rng.integers(0, i))
            edges.append((str(i), str(j), float(rng.uniform(1, 400)), "residential"))
        for _ in range(int(rng.integers(0, 2 * n))):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                edges.append((str(i), str(j), float(rng.uniform(1, 400)), "residential"))
        net = network_from_records(edges, nodes)
        k = int(rng.integers(1, min(n, 5) + 1))
        sources = {str(int(s)) for s in rng.choice(n, size=k, replace=False)}
        dist = multisource_shortest_distances(net, {net.ids.index(s) for s in sources})
        got = dict(zip(net.ids, dist.tolist()))
        dmat = floyd_warshall(n, [(int(a), int(b), w) for a, b, w, _ in edges])
        for v in range(n):
            want = min(dmat[int(s), v] for s in sources)
            assert got[str(v)] == pytest.approx(want, rel=1e-9), f"graph {g} node {v}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nPASS c6: 30 random graphs match the all-pairs oracle ({elapsed:.2f}s)")


def test_c7_moran_exact_values_and_permutation_null(minitown_table):
    start = time.monotonic()
    chain = csr([{1}, {0, 2}, {1, 3}, {2}])
    chain_values = np.array([[1.0, 5.0], [-1.0, 5.0], [1.0, 0.0], [-1.0, 0.0]])
    alternating, blocked = morans_i(chain_values, chain, 99, 0)
    assert alternating.I == -1.0
    assert blocked.I == 0.5

    tracts, table = minitown_table
    neighbors = neighbour_sets(queen_adjacency(tracts, table.index))
    values = table.values[:, VARIABLE_COLUMNS.index("AFF_POV")]
    rng = np.random.default_rng(70)
    n = len(values)
    sims = np.empty(10_000)
    for t in range(10_000):
        sims[t] = moran_loop(values[rng.permutation(n)], neighbors)
    null_mean = sims.mean()
    expected = -1.0 / (n - 1)
    assert abs(null_mean - expected) <= 0.01, f"null mean {null_mean} vs {expected}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        f"\nPASS c7: chain values exact; permutation null mean {null_mean:.4f} "
        f"within 0.01 of {expected:.4f} ({elapsed:.2f}s)"
    )


def _random_simple_polygon(rng, convex):
    cx, cy = rng.uniform(-500, 500, size=2)
    k = int(rng.integers(5, 10))
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=k))
    if np.min(np.diff(angles)) < 1e-3:
        angles = np.linspace(0, 2 * np.pi, k, endpoint=False)
    if convex:
        radii = np.full(k, float(rng.uniform(300, 900)))
    else:
        radii = rng.uniform(200, 900, size=k)  # star polygon, usually concave
    ring = [
        (cx + r * np.cos(a), cy + r * np.sin(a)) for r, a in zip(radii, angles)
    ]
    return Polygon([ring])


def test_c8_geometry_oracle_and_boxmap_hand_classes():
    start = time.monotonic()
    rng = np.random.default_rng(80)
    checked = 0
    fixtures = 0
    while fixtures < 100:
        poly = _random_simple_polygon(rng, convex=fixtures % 2 == 0)
        rings = [[(p.x, p.y) for p in ring] for ring in poly.rings]
        for _ in range(4):
            center = ProjectedPoint(*rng.uniform(-2500, 2500, size=2))
            if winding_inside(center, rings):
                radius = float(rng.uniform(10, 2000))
            else:
                d = sampled_boundary_distance(rings, center)
                radius = d * float(rng.choice([0.7, 1.3])) + float(rng.choice([-5.0, 5.0]))
                if radius <= 0 or abs(d - radius) < 2.0:
                    continue  # stay out of the sampling oracle's error band
            got = disk_meets(center, radius, poly)
            want = disk_intersects_sampled(rings, center, radius)
            assert got == want, f"fixture {fixtures}, center {center}, r={radius}"
            checked += 1
        fixtures += 1

    classes = boxmap_classify(np.array([1, 2, 3, 4, 5, 6, 7, 100], dtype=float))
    assert classes == ["q1", "q1", "q2", "q2", "q3", "q3", "q4", "upper_outlier"]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(
        f"\nPASS c8: {checked} disk/polygon queries over 100 fixtures match the "
        f"1 m sampling oracle; hand-computed box-map classes reproduced ({elapsed:.2f}s)"
    )
