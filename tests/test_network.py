import csv
import dataclasses
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from access_atlas import ingest, network
from access_atlas.errors import DomainError, SchemaError
from access_atlas.network import (
    RoadEdges,
    RoadNodes,
    build_network,
    load_road_edges,
    load_road_nodes,
    multisource_shortest_distances,
    snap_points,
)

from conftest import each_budget, full_demographics, network_from_records, providers_of
from _oracles import (
    Polygon,
    ProjectedPoint,
    _node_id_key,
    bellman_ford,
    floyd_warshall,
    pack,
    read_csv_table_loop,
    road_network_loop,
    snap_loop,
)


def index(net, node_id):
    """Index of a node id in the network."""
    return net.ids.index(node_id)


def by_id(net, dist):
    """A distance array as {id: distance} over its reachable (finite) entries."""
    return {nid: d for nid, d in zip(net.ids, dist.tolist()) if math.isfinite(d)}


def distances_by_id(net, source_ids):
    """multisource_shortest_distances from the given ids, as {id: distance}."""
    return by_id(net, multisource_shortest_distances(net, {index(net, s) for s in source_ids}))


def row(net, node_id):
    """A node's CSR row as (neighbour id, length) pairs."""
    i = index(net, node_id)
    lo, hi = net.indptr[i], net.indptr[i + 1]
    return [(net.ids[v], w) for v, w in zip(net.nbr[lo:hi].tolist(), net.length[lo:hi].tolist())]


def edgeless_network(nodes):
    """A network of exactly these nodes: each carries a self-loop, so that
    build_network keeps it, and no edge joins two of them."""
    return network_from_records([(nid, nid, 1.0, "residential") for nid in nodes], nodes)


def chain_network():
    nodes = {"A": ProjectedPoint(0, 0), "B": ProjectedPoint(100, 0), "C": ProjectedPoint(300, 0)}
    edges = [("A", "B", 100.0, "residential"), ("B", "C", 200.0, "residential")]
    return network_from_records(edges, nodes)


def random_graph(rng, n):
    """Connected undirected graph: random spanning tree plus extra edges."""
    nodes = {str(i): ProjectedPoint(float(rng.uniform(0, 1e4)), float(rng.uniform(0, 1e4))) for i in range(n)}
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((str(i), str(j), float(rng.uniform(1, 500)), "residential"))
    for _ in range(int(rng.integers(0, 2 * n))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.append((str(i), str(j), float(rng.uniform(1, 500)), "residential"))
    return nodes, edges


# ------------------------------------------------------------------ building


def test_build_passes_allowed_classes_through():
    net = chain_network()
    assert len(net.ids) == 3
    assert len(net.nbr) == 2 * 2


def test_build_filters_disallowed_classes():
    nodes = {"A": ProjectedPoint(0, 0), "B": ProjectedPoint(100, 0), "C": ProjectedPoint(300, 0)}
    edges = [("A", "B", 100.0, "residential"), ("B", "C", 200.0, "residential")]
    net = network_from_records(edges, nodes, frozenset({"motorway"}))
    assert len(net.nbr) == 0
    assert net.ids == []  # isolated nodes dropped


def test_build_rejects_negative_length():
    nodes = {"A": ProjectedPoint(0, 0), "B": ProjectedPoint(100, 0)}
    edges = [("A", "B", 5.0, "motorway"), ("A", "B", -5.0, "residential")]
    with pytest.raises(SchemaError) as info:
        network_from_records(edges, nodes)
    assert str(info.value) == "edge A-B: non-positive length -5.0"


def test_build_rejects_missing_node():
    nodes = {"A": ProjectedPoint(0, 0)}
    edges = [("A", "A", 5.0, "motorway"), ("A", "Z", 10.0, "residential")]
    with pytest.raises(SchemaError) as info:
        network_from_records(edges, nodes)
    assert str(info.value) == "edge A-Z: references missing node 'Z'"


def test_build_sorts_ids_once_into_a_symmetric_csr(monkeypatch):
    # build_network is the one owner of node order: ids in sorted order, at
    # most one key call per kept node, and none from snapping or Dijkstra
    rng = np.random.default_rng(12)
    calls = []
    original = network._node_sort_key

    def counted(node_id):
        calls.append(node_id)
        return original(node_id)

    monkeypatch.setattr(network, "_node_sort_key", counted)
    for _ in range(100):
        nodes, edges, _ = order_prone_graph(rng)
        if rng.random() < 0.5:  # plain decimal ids of up to 18 digits
            values = rng.choice(10**6, size=len(nodes), replace=False)
            plain = dict(zip(nodes, map(str, (values * 10 ** int(rng.integers(0, 13))).tolist())))
            nodes = {plain[nid]: p for nid, p in nodes.items()}
            edges = [(plain[a], plain[b], w) for a, b, w in edges]
        records = [(a, b, w, str(rng.choice(["residential", "motorway"]))) for a, b, w in edges]
        kept = [(a, b, w) for a, b, w, road_class in records if road_class == "residential"]
        kept_ids = {nid for a, b, _ in kept for nid in (a, b)}
        calls.clear()
        net = network_from_records(records, nodes)
        assert net.ids == sorted(kept_ids, key=_node_id_key)
        assert len(calls) <= len(kept_ids)
        assert net.indptr[0] == 0 and net.indptr[-1] == len(net.nbr) == len(net.length)
        arcs = Counter((nid, *arc) for nid in net.ids for arc in row(net, nid))
        assert arcs == Counter([(a, b, w) for a, b, w in kept] + [(b, a, w) for a, b, w in kept])
        assert all(arcs[(b, a, w)] == count for (a, b, w), count in arcs.items())
        calls.clear()
        if net.ids:
            snap_points(net, [0.0], [0.0])
            multisource_shortest_distances(net, {0, len(net.ids) - 1})
        assert calls == []


def test_build_computes_euclidean_length_when_missing():
    nodes = {"A": ProjectedPoint(0, 0), "B": ProjectedPoint(300, 400)}
    net = network_from_records([("A", "B", None, "residential")], nodes)
    assert row(net, "A")[0] == ("B", 500.0)


# ------------------------------------------------------------------ snapping


def snap(net, pt):
    """snap_points of one point, as (index, distance)."""
    node, dist = snap_points(net, [pt.x], [pt.y])
    return int(node[0]), float(dist[0])


def test_snap_exact_node():
    net = chain_network()
    assert snap(net, ProjectedPoint(300, 0)) == (index(net, "C"), 0.0)


def test_snap_tie_breaks_to_lowest_id():
    nodes = {"3": ProjectedPoint(-100, 0), "9": ProjectedPoint(100, 0)}
    net = network_from_records([("3", "9", 200.0, "residential")], nodes)
    assert net.ids[snap(net, ProjectedPoint(0, 0))[0]] == "3"


def test_snap_numeric_ids_order_numerically():
    nodes = {"9": ProjectedPoint(-100, 0), "10": ProjectedPoint(100, 0)}
    net = network_from_records([("9", "10", 200.0, "residential")], nodes)
    assert net.ids[snap(net, ProjectedPoint(0, 0))[0]] == "9"


def test_snap_beyond_max_returns_its_distance():
    # snap_points knows no max_snap_m: the caller compares the distance
    net = chain_network()
    assert snap(net, ProjectedPoint(0, 800)) == (index(net, "A"), 800.0)


def test_non_decimal_digit_id_sorts_as_text():
    # "²".isdigit() is True but int("²") raises; such an id sorts as text,
    # after every decimal id.
    nodes = {"²": ProjectedPoint(-100, 0), "7": ProjectedPoint(100, 0)}
    net = network_from_records([("²", "7", 200.0, "residential")], nodes)
    assert row(net, "²") == [("7", 200.0)]
    assert net.ids[snap(net, ProjectedPoint(0, 0))[0]] == "7"
    assert distances_by_id(net, {"²"}) == {"²": 0.0, "7": 200.0}


def random_snap_network(rng):
    """Nodes on a coarse lattice, so distances tie exactly, with duplicated
    coordinates, mirrored pairs, a ring of nodes around one point whose
    squared distances and math.hypot distances can order differently in
    the last bit, and mixed numeric, leading-zero and alphabetic ids, all
    optionally offset by 1e6 m."""
    offset = float(rng.choice([0.0, 1e6]))
    step = float(rng.choice([0.5, 7.0, 125.0]))
    id_pool = [str(i) for i in range(40)] + ["0" + str(i) for i in range(10)]
    id_pool += ["n" + str(i) for i in range(10)] + ["A", "B", "a", "b", "Z9", "node"]
    ids = [id_pool[i] for i in rng.permutation(len(id_pool))[: int(rng.integers(1, 40))]]
    ring_center = (offset + float(rng.uniform(-1e3, 1e3)), offset + float(rng.uniform(-1e3, 1e3)))
    ring_radius = float(rng.uniform(1, 300))
    coords = []
    for k in range(len(ids)):
        if rng.random() < 0.2:
            theta = float(rng.uniform(0, 2 * math.pi))
            coords.append(
                (ring_center[0] + ring_radius * math.cos(theta),
                 ring_center[1] + ring_radius * math.sin(theta))
            )
        elif k and rng.random() < 0.2:
            coords.append(coords[int(rng.integers(0, k))])  # duplicate
        elif k and rng.random() < 0.2:
            cx, cy = offset + step * 4, offset + step * 4
            mx, my = coords[int(rng.integers(0, k))]
            coords.append((2 * cx - mx, 2 * cy - my))  # mirror about (cx, cy)
        else:
            i, j = rng.integers(-8, 9, size=2)
            coords.append((offset + step * float(i), offset + step * float(j)))
    nodes = {nid: ProjectedPoint(x, y) for nid, (x, y) in zip(ids, coords)}
    points = [ProjectedPoint(offset + step * 4, offset + step * 4), ProjectedPoint(*ring_center)]
    for _ in range(30):
        i, j = rng.integers(-20, 21, size=2)
        points.append(ProjectedPoint(offset + step * i / 2.0, offset + step * j / 2.0))
        a, b = rng.integers(0, len(coords), size=2)
        points.append(
            ProjectedPoint((coords[a][0] + coords[b][0]) / 2, (coords[a][1] + coords[b][1]) / 2)
        )
        u, v = rng.uniform(-1e4, 1e4, size=2)
        points.append(ProjectedPoint(offset + float(u), offset + float(v)))
    max_snap_m = float(rng.choice([0.0, 3 * step, 500.0]))
    return edgeless_network(nodes), points, max_snap_m


def test_snap_point_matches_sorted_scan_oracle():
    rng = np.random.default_rng(20241018)
    ties = snapped = too_far = 0
    for _ in range(200):
        net, points, max_snap_m = random_snap_network(rng)
        node, dist = snap_points(net, [pt.x for pt in points], [pt.y for pt in points])
        coords = list(zip(net.xs.tolist(), net.ys.tolist()))
        for pt, got in zip(points, zip(node.tolist(), dist.tolist())):
            want, best = snap_loop(pt, net)
            assert got == (want, best)
            if best > max_snap_m:
                too_far += 1
                continue
            snapped += 1
            ties += sum(math.hypot(pt.x - x, pt.y - y) == best for x, y in coords) > 1
    assert min(ties, snapped, too_far) > 500


@pytest.mark.parametrize("spots, copies", [(12, 5), (3, 2)])  # blocks of 136 or 1365 points
def test_snap_points_blocks_match_sorted_scan_oracle(monkeypatch, spots, copies):
    # every coordinate is held by several ids, so the block edges, moved by
    # the kernel budget, fall between points whose nearest nodes tie
    rng = np.random.default_rng(1018 + spots)
    at = [(float(x), float(y)) for x, y in rng.integers(-5, 6, size=(spots, 2)) * 40.0]
    ids = [str(i) for i in rng.permutation(spots * copies)]
    net = edgeless_network({nid: ProjectedPoint(*at[k % spots]) for k, nid in enumerate(ids)})
    px, py = (rng.integers(-12, 13, size=(2, 500)) * 20.0).tolist()
    want = [snap_loop(ProjectedPoint(x, y), net) for x, y in zip(px, py)]
    for node, dist in each_budget(monkeypatch, lambda: snap_points(net, px, py)):
        assert list(zip(node.tolist(), dist.tolist())) == want


@pytest.mark.parametrize("px, py", [(0.0, 0.0), (-1e308, -1e308), (1e308, 1e308), (3e307, -1e154)])
def test_snap_point_with_overflowing_squares_matches_oracle(px, py):
    nodes = {
        "1": ProjectedPoint(1e308, 1e308),
        "2": ProjectedPoint(-1e200, 5.0),
        "3": ProjectedPoint(2.0, -1.0),
        "x": ProjectedPoint(1e155, 0.0),
    }
    net = edgeless_network(nodes)
    pt = ProjectedPoint(px, py)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert snap(net, pt) == snap_loop(pt, net)


def test_snap_overflowing_distance_is_inf():
    # math.hypot overflows to inf for both nodes: the first id in order
    # wins, beyond any finite max_snap_m
    nodes = {"2": ProjectedPoint(-1.7e308, 1.7e308), "1": ProjectedPoint(1.7e308, 1.7e308)}
    net = edgeless_network(nodes)
    assert snap(net, ProjectedPoint(0.0, -1e7)) == (index(net, "1"), math.inf)


def test_snap_point_does_not_sort_per_call(monkeypatch):
    rng = np.random.default_rng(11)
    n = 300
    nodes, edges = random_graph(rng, n)
    net = network_from_records(edges, nodes)
    calls = []
    original = network._node_sort_key

    def counted(node_id):
        calls.append(1)
        return original(node_id)

    monkeypatch.setattr(network, "_node_sort_key", counted)
    points = rng.uniform(0, 1e4, size=(200, 2))
    for x, y in points:
        snap_points(net, [x], [y])
    snap_points(net, points[:, 0], points[:, 1])
    assert len(calls) <= n


# ------------------------------------------------------------ shortest paths


def test_chain_single_source():
    net = chain_network()
    assert distances_by_id(net, {"C"}) == {"A": 300.0, "B": 200.0, "C": 0.0}


def test_chain_two_sources():
    net = chain_network()
    assert distances_by_id(net, {"A", "C"}) == {"A": 0.0, "B": 100.0, "C": 0.0}


def test_empty_sources_rejected():
    with pytest.raises(DomainError):
        multisource_shortest_distances(chain_network(), set())


def test_unknown_source_rejected():
    for source in (3, -1):
        with pytest.raises(DomainError):
            multisource_shortest_distances(chain_network(), {source})


def test_matches_floyd_warshall_on_random_graphs():
    rng = np.random.default_rng(2024)
    for _ in range(8):
        n = int(rng.integers(5, 40))
        nodes, edges = random_graph(rng, n)
        net = network_from_records(edges, nodes)
        k = int(rng.integers(1, 4))
        sources = {str(int(s)) for s in rng.choice(n, size=k, replace=False)}
        got = distances_by_id(net, sources)
        dmat = floyd_warshall(n, [(int(a), int(b), w) for a, b, w, _ in edges])
        for v in range(n):
            want = min(dmat[int(s), v] for s in sources)
            assert got[str(v)] == pytest.approx(want, rel=1e-12)


def test_matches_scipy_dijkstra_on_random_graphs():
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    rng = np.random.default_rng(2025)
    for _ in range(10):
        n = int(rng.integers(5, 60))
        nodes, edges = random_graph(rng, n)
        # a second component that no source reaches
        m = int(rng.integers(2, 6))
        far_nodes, far_edges = random_graph(rng, m)
        nodes.update({str(n + int(i)): pt for i, pt in far_nodes.items()})
        edges += [(str(n + int(a)), str(n + int(b)), w, c) for a, b, w, c in far_edges]
        net = network_from_records(edges, nodes)
        sources = {str(int(s)) for s in rng.choice(n, size=int(rng.integers(1, 4)), replace=False)}
        shortest: dict[tuple[int, int], float] = {}
        for a, b, w, _ in edges:
            key = (min(int(a), int(b)), max(int(a), int(b)))
            shortest[key] = min(w, shortest.get(key, math.inf))
        rows, cols = zip(*shortest)
        graph = sparse.csr_matrix((list(shortest.values()), (rows, cols)), shape=(n + m, n + m))
        want = csgraph.dijkstra(
            graph, directed=False, indices=sorted(int(s) for s in sources), min_only=True
        )
        got = distances_by_id(net, sources)
        assert set(got) == {str(v) for v in range(n + m) if math.isfinite(want[v])}
        assert set(got) == {str(v) for v in range(n)}
        for node, d in got.items():
            assert d == pytest.approx(want[int(node)], rel=1e-12)


def test_matches_networkx_dijkstra_on_random_multigraphs():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(4242)
    for _ in range(60):
        nodes, edges, sources = order_prone_graph(rng)
        graph = nx.MultiGraph()
        graph.add_nodes_from(nodes)
        graph.add_weighted_edges_from(edges)
        want = nx.multi_source_dijkstra_path_length(graph, set(sources))
        net = network_from_records([(a, b, w, "residential") for a, b, w in edges], nodes)
        assert distances_by_id(net, sources) == want


def test_multisource_equals_per_source_minimum():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(6, 50))
        nodes, edges = random_graph(rng, n)
        net = network_from_records(edges, nodes)
        sources = {str(int(s)) for s in rng.choice(n, size=3, replace=False)}
        combined = distances_by_id(net, sources)
        singles = [distances_by_id(net, {s}) for s in sources]
        for v in combined:
            assert combined[v] == min(d[v] for d in singles)


def test_triangle_inequality_along_edges():
    rng = np.random.default_rng(5)
    nodes, edges = random_graph(rng, 30)
    net = network_from_records(edges, nodes)
    dist = distances_by_id(net, {"0"})
    for u in net.ids:
        for v, w in row(net, u):
            assert dist[v] <= dist[u] + w + 1e-9


def test_adding_source_never_increases_distances():
    rng = np.random.default_rng(6)
    nodes, edges = random_graph(rng, 30)
    net = network_from_records(edges, nodes)
    base = distances_by_id(net, {"0"})
    more = distances_by_id(net, {"0", "7"})
    for node, d in base.items():
        assert more[node] <= d + 1e-12


def test_scaling_edge_lengths_scales_distances():
    rng = np.random.default_rng(8)
    nodes, edges = random_graph(rng, 20)
    net = network_from_records(edges, nodes)
    scaled = network_from_records([(a, b, w * 3.5, c) for a, b, w, c in edges], nodes)
    base = distances_by_id(net, {"0"})
    got = distances_by_id(scaled, {"0"})
    for node, d in base.items():
        assert got[node] == pytest.approx(3.5 * d, rel=1e-12)


def order_prone_graph(rng):
    """Random multigraph whose lengths make float sums depend on the order
    they are added in (0.1 + 0.2 != 0.3, 1/3, 1e-17 beside 1e16), drawn from
    a small pool, 0.1, 0.2 and 0.3 twice as often, so that many nodes tie in
    distance; with mixed numeric and alphabetic ids and a two-node component
    that no source reaches."""
    pool = [0.1, 0.2, 0.3, 0.1, 0.2, 0.3, 0.6, 0.7, 1 / 3, 2 / 3, 1e-17, 1e16]
    n = int(rng.integers(3, 30))
    ids = [str(i) if rng.random() < 0.7 else f"n{i}" for i in range(n)]
    edges = [
        (ids[i], ids[int(rng.integers(0, i))], float(rng.choice(pool)))
        for i in range(1, n)
    ]
    for _ in range(int(rng.integers(n, 4 * n))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.append((ids[i], ids[j], float(rng.choice(pool))))
    edges.append(("far-a", "far-b", 0.1))
    nodes = {nid: ProjectedPoint(0.0, 0.0) for nid in [*ids, "far-a", "far-b"]}
    sources = [ids[int(i)] for i in rng.choice(n, size=int(rng.integers(1, 4)), replace=False)]
    return nodes, edges, sources


def test_distances_independent_of_adjacency_edge_and_source_order():
    rng = np.random.default_rng(77)
    for _ in range(300):
        nodes, edges, sources = order_prone_graph(rng)
        records = [(a, b, w, "residential") for a, b, w in edges]
        want = bellman_ford(edges, set(sources))
        assert "far-a" not in want and "far-b" not in want
        net = network_from_records(records, nodes)
        assert distances_by_id(net, sources) == want
        reversed_net = network_from_records(records[::-1], nodes)
        assert distances_by_id(reversed_net, sources[::-1]) == want
        # every CSR row in a random order
        perm = np.concatenate(
            [lo + rng.permutation(hi - lo) for lo, hi in zip(net.indptr[:-1], net.indptr[1:])]
        )
        shuffled_net = dataclasses.replace(net, nbr=net.nbr[perm], length=net.length[perm])
        reordered = [sources[i] for i in rng.permutation(len(sources))]
        assert distances_by_id(shuffled_net, reordered) == want


def test_result_independent_of_edge_order():
    rng = np.random.default_rng(9)
    nodes, edges = random_graph(rng, 25)
    net = network_from_records(edges, nodes)
    shuffled = [edges[i] for i in rng.permutation(len(edges))]
    net2 = network_from_records(shuffled, nodes)
    assert distances_by_id(net, {"0", "3"}) == distances_by_id(net2, {"0", "3"})


# ------------------------------------------------------- per-tract distances


def tract_at(x0, y0, size=100.0):
    return [
        Polygon(
            [[(x0, y0), (x0 + size, y0), (x0 + size, y0 + size), (x0, y0 + size)]]
        )
    ]


def distance_to(parts, net, sources, mode="centroid", max_snap_m=network.DEFAULT_SNAP_MAX_M):
    """ACE_NET of one list-form tract from assemble_variable_table, with a
    supermarket on each node of `sources`: its value, or its drop reason. A
    second tract, 1 m wide on a source node, keeps the table from being
    empty."""
    def at(node_id):
        i = index(net, node_id)
        return ProjectedPoint(float(net.xs[i]), float(net.ys[i]))

    x, y = at(min(sources))
    anchor = tract_at(x - 0.5, y - 0.5, size=1.0)
    supermarkets = providers_of((s, "supermarket", at(s), 3000.0) for s in sorted(sources))
    demographics = full_demographics(["a", "b"])
    table = ingest.assemble_variable_table(
        pack([parts, anchor], ids=["a", "b"]),
        supermarkets,
        net,
        demographics,
        ace_net_mode=mode,
        max_snap_m=max_snap_m,
    )
    if table.tract_ids[0] == "a":
        return float(table.values[0, ingest.VARIABLE_COLUMNS.index("ACE_NET")])
    return dict(table.dropped)["a"]


def test_centroid_mode_uses_snapped_centroid():
    net = chain_network()
    parts = tract_at(-50, -50)  # centroid (0, 0) snaps to A
    assert distance_to(parts, net, {"C"}) == 300.0


def test_grid_mode_degenerates_to_single_node():
    net = chain_network()
    parts = tract_at(-50, -50)
    # all four samples snap to A
    assert distance_to(parts, net, {"C"}, "grid-2", max_snap_m=500) == 300.0


def test_grid_mode_averages_distinct_nodes():
    nodes = {
        "L": ProjectedPoint(0, 0),
        "R": ProjectedPoint(1000, 0),
        "S": ProjectedPoint(2000, 0),
    }
    net = network_from_records(
        [("L", "R", 1000.0, "residential"), ("R", "S", 1000.0, "residential")], nodes
    )
    parts = [Polygon([[(-100, -50), (1100, -50), (1100, 50), (-100, 50)]])]
    # grid-2 samples at x=200 (snap L, 2000 m) and x=800 (snap R, 1000 m)
    assert distance_to(parts, net, {"S"}, "grid-2", max_snap_m=600) == pytest.approx(1500.0)
    # centroid (500, 0) is equidistant from L and R; tie goes to L
    assert distance_to(parts, net, {"S"}, max_snap_m=600) == 2000.0


def test_disconnected_tract_is_unreachable():
    nodes = {
        "A": ProjectedPoint(0, 0),
        "B": ProjectedPoint(100, 0),
        "X": ProjectedPoint(5000, 0),
        "Y": ProjectedPoint(5100, 0),
    }
    net = network_from_records(
        [("A", "B", 100.0, "residential"), ("X", "Y", 100.0, "residential")], nodes
    )
    parts = tract_at(-50, -50)  # snaps to A, component {A, B}
    assert distance_to(parts, net, {"X"}) == "unreachable"


def test_far_tract_is_dropped_unsnappable():
    net = chain_network()
    parts = tract_at(10000, 10000)  # centroid (10050, 10050), 14,002 m from C
    assert distance_to(parts, net, {"C"}) == "unsnappable (14002 m)"


def test_bad_mode_rejected():
    net = chain_network()
    for mode in ("hexgrid", "grid-0", "grid-03", "grid-+3", "grid- 3"):
        with pytest.raises(DomainError):
            distance_to(tract_at(-50, -50), net, {"C"}, mode)


def test_sampling_grid_size():
    assert network.sampling_grid_size("centroid") is None
    assert network.sampling_grid_size("grid-1") == 1
    assert network.sampling_grid_size("grid-10") == 10
    for mode in ("grid-3\n", "grid-٣", "Centroid", "grid-"):
        with pytest.raises(DomainError):
            network.sampling_grid_size(mode)


def test_road_csvs_tolerate_crlf_and_blank_lines(tmp_path):
    nodes_path = tmp_path / "n.csv"
    nodes_path.write_bytes(b"node_id,x,y\r\na,0,0\r\n\r\nb,100,0\r\n")
    edges_path = tmp_path / "e.csv"
    edges_path.write_bytes(b"from_node,to_node,length_m,road_class\r\na,b,,residential\r\n")
    nodes = load_road_nodes(str(nodes_path))
    net = build_network(load_road_edges(str(edges_path)), nodes)
    assert row(net, "a")[0] == ("b", 100.0)


# --------------------------------------------- column loaders against the row loop

REF = (-87.70, 41.85)
ID_POOL = [
    "007", "7", "07", "²", "a", "0", "1", "01", "10", "2", "3", "٣", "99", "b", "n3", "Z", "x7",
    "99999999999999999999",
]
CLASSES = ["residential", "primary", "motorway", "footway", "tertiary"]


def pad(cell, rng):
    return " " * int(rng.integers(0, 2)) + cell + "\t" * int(rng.integers(0, 2))


def csv_text(header, rows, rng):
    """Header, then the rows with padded cells and blank or whitespace-only
    rows between them."""
    lines = [header]
    for cells in rows:
        if rng.random() < 0.15:
            lines.append(str(rng.choice(["", " , ,", "\t", ",,,"])))
        lines.append(",".join(pad(c, rng) for c in cells))
    return "\n".join(lines) + "\n"


def plain_csv_text(header, rows, rng):
    """Header, then the rows as they are: no padding and no blank rows; a
    BOM now and then, and the final newline or none."""
    text = "\n".join([header, *map(",".join, rows)])
    return ("\ufeff" if rng.random() < 0.1 else "") + text + ("\n" if rng.random() < 0.8 else "")


def random_road_files(rng, plain=False):
    """Node and edge CSV texts, the node header `node_id,x,y` or
    `node_id,lon,lat`, with edges among the nodes, empty lengths, and
    classes the default filter keeps and drops. The ids mix ID_POOL with
    decimal numbers, or in about a third of the files are decimal numbers
    alone, so that the node order mixes the two kinds of key or is numeric.

    With `plain`, both files are strictly plain for the numeric route of
    load_road_network: decimal ids of at most 18 digits, no padded cell
    and no blank row; the lengths all empty, all given or mixed."""
    geographic = rng.random() < 0.5
    if plain or rng.random() < 0.3:  # plain decimal ids of up to 18 digits only
        k = int(rng.integers(2, 40))
        values = rng.choice(10**6, size=k, replace=False) * 10 ** int(rng.integers(0, 13))
        ids = list(map(str, values.tolist()))
    else:
        k = int(rng.integers(2, len(ID_POOL) + 1))
        ids = [ID_POOL[i] for i in rng.permutation(len(ID_POOL))[:k]]
        extra = rng.choice(5000, size=int(rng.integers(0, 30)), replace=False) + 100
        ids += [str(int(i)) for i in extra]
    if geographic:
        header = str(rng.choice(["node_id,lon,lat", " NODE_ID , Lon,lat"]))
        coords = [(REF[0] + rng.uniform(-0.05, 0.05), REF[1] + rng.uniform(-0.05, 0.05)) for _ in ids]
    else:
        header = "node_id,x,y"
        coords = [tuple(rng.uniform(-5e3, 5e3, size=2)) for _ in ids]
    digits = int(rng.integers(4, 10))
    nodes = [(nid, f"{u:.{digits}f}", f"{v:.{digits}f}") for nid, (u, v) in zip(ids, coords)]
    edges = []
    empty_share = float(rng.choice([0.0, 0.5, 1.0])) if plain else 0.4
    for _ in range(int(rng.integers(0, 3 * len(ids)))):
        a, b = rng.choice(len(ids), size=2, replace=False)
        empty = rng.random() < empty_share
        length = "" if empty else f"{rng.uniform(0.5, 900):.{digits}f}"
        edges.append((ids[a], ids[b], length, str(rng.choice(CLASSES))))
    text = plain_csv_text if plain else csv_text
    return (
        text(header, nodes, rng),
        text("from_node,to_node,length_m,road_class", edges, rng),
    )


def road_stage(nodes_path, edges_path, classes):
    """The road stage as the CLI runs it: load both files, build the graph."""
    nodes = load_road_nodes(nodes_path, *REF)
    return build_network(load_road_edges(edges_path), nodes, classes)


def outcome(fn, *args):
    """fn's network, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001  (any difference is a failure)
        return type(exc), str(exc)


def assert_same_network(got, want):
    assert got.ids == want.ids
    for name in ("xs", "ys", "indptr", "nbr", "length"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def test_column_loaders_match_row_loop_on_random_csvs(tmp_path):
    rng = np.random.default_rng(1313)
    built = 0
    for trial in range(200):
        nodes_text, edges_text = random_road_files(rng)
        nodes_path, edges_path = tmp_path / f"n{trial}.csv", tmp_path / f"e{trial}.csv"
        nodes_path.write_text(nodes_text, encoding="utf-8")
        edges_path.write_text(edges_text, encoding="utf-8")
        classes = network.DEFAULT_ROAD_CLASSES if rng.random() < 0.7 else frozenset(
            rng.choice(CLASSES, size=2, replace=False).tolist()
        )
        args = (str(nodes_path), str(edges_path))
        want = road_network_loop(*args, *REF, classes)
        assert_same_network(road_stage(*args, classes), want)
        built += len(want.ids) > 0
    assert built > 150


def general_route_calls(monkeypatch):
    """Wrap network.read_csv_table, recording the path of every call: the
    general route of load_road_network reads both road files through it,
    the numeric route neither."""
    paths = []
    real = network.read_csv_table

    def counted(path, *args):
        paths.append(path)
        return real(path, *args)

    monkeypatch.setattr(network, "read_csv_table", counted)
    return paths


def test_load_road_network_matches_row_loop_on_random_csvs(tmp_path, monkeypatch):
    # half the trials write strictly plain files, which the numeric route
    # takes, and half the files of the test above, which it mostly declines:
    # both give the row loop's network, or its exception and message
    rng = np.random.default_rng(2727)
    general = general_route_calls(monkeypatch)
    accepted = Counter()
    for trial in range(240):
        plain = trial % 2 == 0
        nodes_text, edges_text = random_road_files(rng, plain=plain)
        nodes_path, edges_path = tmp_path / f"n{trial}.csv", tmp_path / f"e{trial}.csv"
        nodes_path.write_text(nodes_text, encoding="utf-8")
        edges_path.write_text(edges_text, encoding="utf-8")
        classes = network.DEFAULT_ROAD_CLASSES if rng.random() < 0.7 else frozenset(
            rng.choice(CLASSES, size=2, replace=False).tolist()
        )
        args = (str(nodes_path), str(edges_path))
        general.clear()
        got = outcome(network.load_road_network, *args, classes, *REF)
        want = outcome(road_network_loop, *args, *REF, classes)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_network(got, want)
        accepted[plain] += not general
    # a plain trial declines only for an edge file with no row
    assert accepted[True] >= 110, accepted


# A strictly plain file pair that the numeric route takes, and changes to
# it: (file, old text, new text), or a function of the two texts. Each
# change of PLAIN_DECLINES breaks one rule of that route and sends the pair
# to the general route; each of PLAIN_TAKES keeps the pair on it. Either
# way load_road_network returns the general route's network or error.
PLAIN_NODES = (
    "node_id,lon,lat\n1,-87.7,41.85\n2,-87.69,41.85\n3,-87.69,41.86\n40,-87.7,41.86\n"
)
PLAIN_EDGES = (
    "from_node,to_node,length_m,road_class\n"
    "1,2,,residential\n2,3,,primary\n3,40,,motorway\n40,1,,residential\n"
)


def relabel(old, new):
    """Rename node `old` in both files, where its id is the only text
    equal to `old`."""
    return lambda nodes, edges: (nodes.replace(old, new), edges.replace(old, new))


def all_lengths(*lengths):
    """The edge file with these lengths, in row order."""
    def change(nodes, edges):
        header, *rows = edges.splitlines()
        rows = [row.replace(",,", f",{w},") for row, w in zip(rows, lengths)]
        return nodes, "\n".join([header, *rows]) + "\n"
    return change


def uneven_widths(nodes, edges):
    """One edge row a field too wide, the next a field too narrow: the
    comma count is right, and every cell parses as a number where the
    reader looks."""
    nodes, edges = all_lengths("120.5", "80", "60", "95.25")(nodes, edges)
    edges = edges.replace(",motorway\n", ",motorway,7\n").replace(",95.25,residential", ",95.25")
    return nodes, edges


PLAIN_DECLINES = {
    "padded-cell": ("nodes", "2,-87.69,", "2, -87.69,"),
    "blank-row": ("nodes", "\n3,", "\n\n3,"),
    "id-leading-zero": relabel("40", "007"),
    "id-sign": relabel("40", "+5"),
    "id-decimal-point": relabel("40", "1.0"),
    "id-exponent": relabel("40", "1e2"),
    "id-19-digits": relabel("40", "9300000000000000000"),  # above 2**63
    "underscore-length": all_lengths("120.5", "1_0", "80", "95.25"),
    "nan-coordinate": ("nodes", "3,-87.69,41.86", "3,-87.69,nan"),
    "nan-projected-coordinate": lambda nodes, edges: (
        nodes.replace("node_id,lon,lat", "node_id,x,y") + "5,-87.69,nan\n",
        edges,
    ),
    "infinite-coordinate": ("nodes", "3,-87.69,41.86", "3,inf,41.86"),
    "overflowing-coordinate": ("nodes", "3,-87.69,41.86", "3,-87.69,1e999"),
    "latitude-out-of-range": ("nodes", "3,-87.69,41.86", "3,-87.69,89.5"),
    "duplicate-id": ("nodes", "40,-87.7,41.86\n", "40,-87.7,41.86\n2,-87.68,41.85\n"),
    "missing-endpoint": ("edges", "1,2,,residential", "1,9,,residential"),
    "nan-length-beside-empty-ones": ("edges", "2,3,,", "2,3,nan,"),
    "infinite-length-of-a-dropped-edge": all_lengths("120.5", "80", "inf", "95.25"),
    "non-ascii-cell": ("edges", "primary", "prímary"),
    "separator-byte": ("edges", "2,3,,primary", "2,3,,primary\x1c"),
    "tab": ("nodes", "41.85\n", "41.85\t\n"),
    "quoted-cell": ("edges", "1,2,", '"1",2,'),
    "crlf": ("nodes", "\n", "\r\n"),
    "nul": ("edges", "motorway", "motor\0way"),
    "wrong-width": ("nodes", "3,-87.69,41.86", "3,-87.69,41.86,7"),
    "uneven-widths": uneven_widths,
    "over-long-line": ("nodes", "3,-87.69,41.86", "3,-87.69,41.86" + "0" * csv.field_size_limit()),
    "header-only-edges": ("edges", PLAIN_EDGES, "from_node,to_node,length_m,road_class\n"),
    "header-only-nodes": ("nodes", PLAIN_NODES, "node_id,lon,lat\n"),
}

# the one build raises the error of a kept edge, or fills an empty length,
# on either route
PLAIN_TAKES = {
    "mixed-lengths": ("edges", "2,3,,", "2,3,950.5,"),
    "zero-length": all_lengths("120.5", "0", "80", "95.25"),
    "motorway-to-missing-node": ("edges", "3,40,,motorway", "3,9,,motorway"),
}


def changed_pair_outcomes(tmp_path, monkeypatch, change):
    """Write the plain pair with `change` made; return load_road_network's
    outcome, the row loop's, and the paths the general route read."""
    nodes_text, edges_text = PLAIN_NODES, PLAIN_EDGES
    if callable(change):
        nodes_text, edges_text = change(nodes_text, edges_text)
    elif change is not None:
        file, old, new = change
        assert old in (nodes_text if file == "nodes" else edges_text)
        if file == "nodes":
            nodes_text = nodes_text.replace(old, new, 1)
        else:
            edges_text = edges_text.replace(old, new, 1)
    nodes_path, edges_path = tmp_path / "n.csv", tmp_path / "e.csv"
    nodes_path.write_bytes(nodes_text.encode())
    edges_path.write_bytes(edges_text.encode())
    args = (str(nodes_path), str(edges_path))
    general = general_route_calls(monkeypatch)
    with warnings.catch_warnings():
        # no warning of numpy's reader (a body with no rows, an int column
        # meeting "1.0") may reach a user
        warnings.simplefilter("error")
        got = outcome(network.load_road_network, *args, network.DEFAULT_ROAD_CLASSES, *REF)
    want = outcome(road_network_loop, *args, *REF)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_network(got, want)
    return got, want, general


@pytest.mark.parametrize("name", [None, *PLAIN_DECLINES])
def test_numeric_route_declines_each_file_it_cannot_read_exactly(tmp_path, monkeypatch, name):
    got, _, general = changed_pair_outcomes(tmp_path, monkeypatch, PLAIN_DECLINES.get(name))
    # the unchanged pair takes the numeric route, every changed one declines
    assert (general == []) == (name is None), general
    if name is None:
        assert got.ids == ["1", "2", "3", "40"]


@pytest.mark.parametrize("name", PLAIN_TAKES)
def test_numeric_route_takes_each_pair_it_reads(tmp_path, monkeypatch, name):
    got, want, general = changed_pair_outcomes(tmp_path, monkeypatch, PLAIN_TAKES[name])
    assert general == []
    assert isinstance(want, tuple) == (name == "zero-length")


def test_numeric_route_declines_a_file_it_cannot_open(tmp_path):
    # the read's OSError comes from the general route, as from the row loop
    nodes_path = tmp_path / "n.csv"
    nodes_path.write_text(PLAIN_NODES, encoding="utf-8")
    args = (str(nodes_path), str(tmp_path / "missing.csv"))
    want = outcome(road_network_loop, *args, *REF)
    assert want[0] is FileNotFoundError
    assert outcome(network.load_road_network, *args, network.DEFAULT_ROAD_CLASSES, *REF) == want


# each corruption writes one cell of a valid file pair: (file, column, value)
CORRUPTIONS = {
    "empty-node-id": ("nodes", 0, ""),
    "duplicate-node-id": ("nodes", 0, "DUP"),
    "non-numeric-coordinate": ("nodes", 1, "1O.5"),
    "nan-coordinate": ("nodes", 2, "nan"),
    "infinite-coordinate": ("nodes", 1, "-inf"),
    "overflowing-coordinate": ("nodes", 2, "1e999"),
    "latitude-out-of-range": ("nodes", 2, "89.5"),
    "beyond-local-plane-east": ("nodes", 1, "100"),
    "beyond-local-plane-south": ("nodes", 2, "-80"),
    "empty-endpoint": ("edges", 1, ""),
    "missing-node": ("edges", 0, "nowhere"),
    "non-numeric-length": ("edges", 2, "five"),
    "infinite-length": ("edges", 2, "inf"),
    "zero-length": ("edges", 2, "0"),
    "negative-length": ("edges", 2, "-3.5"),
}


@pytest.mark.parametrize("names", [
    *[(name,) for name in CORRUPTIONS],
    ("zero-length", "empty-node-id"),
    ("missing-node", "non-numeric-length"),
    ("missing-node", "negative-length"),
    ("nan-coordinate", "duplicate-node-id"),
    ("latitude-out-of-range", "duplicate-node-id"),
])
def test_column_loaders_raise_the_row_loop_error(tmp_path, names):
    # one or two corrupted cells on random rows: the same exception type and
    # message as the row loop, which reports the first bad row in file order
    rng = np.random.default_rng(sum(map(ord, "".join(names))))
    raised = 0
    for trial in range(40):
        ids = [str(i) for i in rng.permutation(200)[:30]]
        nodes = [[nid, f"{REF[0] + rng.uniform(-0.02, 0.02):.6f}",
                  f"{REF[1] + rng.uniform(-0.02, 0.02):.6f}"] for nid in ids]
        edges = [[ids[i], ids[i + 1], "" if rng.random() < 0.5 else "125.5", "residential"]
                 for i in range(len(ids) - 1)]
        for name in names:
            file, col, value = CORRUPTIONS[name]
            rows = nodes if file == "nodes" else edges
            r = int(rng.integers(1, len(rows)))
            rows[r][col] = nodes[int(rng.integers(0, r))][0] if value == "DUP" else value
        nodes_path, edges_path = tmp_path / f"n{trial}.csv", tmp_path / f"e{trial}.csv"
        nodes_path.write_text(csv_text("node_id,lon,lat", nodes, rng), encoding="utf-8")
        edges_path.write_text(
            csv_text("from_node,to_node,length_m,road_class", edges, rng), encoding="utf-8"
        )
        args = (str(nodes_path), str(edges_path))
        want = outcome(road_network_loop, *args, *REF)
        got = outcome(road_stage, *args, network.DEFAULT_ROAD_CLASSES)
        if isinstance(want, tuple):
            assert got == want
            raised += 1
        else:
            assert_same_network(got, want)
    assert raised >= 30


def test_every_node_row_is_checked_before_any_point_is_projected(tmp_path, monkeypatch):
    # row 2 lies off the plane and row 4 repeats an id: as in the provider
    # file, the cell checks of every row come first, so row 4's error wins
    nodes_path, edges_path = tmp_path / "n.csv", tmp_path / "e.csv"
    nodes_path.write_text(
        f"node_id,lon,lat\n1,{REF[0]},95\n2,{REF[0]},{REF[1]}\n1,{REF[0]},{REF[1]}\n",
        encoding="ascii",
    )
    edges_path.write_text("from_node,to_node,length_m,road_class\n1,2,,residential\n")
    args = (str(nodes_path), str(edges_path))
    want = (SchemaError, f"{nodes_path} row 4: duplicate node_id '1'")
    assert outcome(load_road_nodes, str(nodes_path), *REF) == want
    general = general_route_calls(monkeypatch)
    assert outcome(network.load_road_network, *args, network.DEFAULT_ROAD_CLASSES, *REF) == want
    assert general == [str(nodes_path)]  # the numeric route declined
    assert outcome(road_network_loop, *args, *REF) == want


NODE_HEADERS = [("node_id", "x", "y"), ("node_id", "lon", "lat")]
CELL_POOL = ["7", "a", "", "12.5", "-0.25", "x y", "Ü", "٣", "\t", " "]
BLANK_ROWS = ["", " , ,", ",,,", "\t", " ", ",", ",,"]
TWISTS = ["quoted cell", "CRLF", "lone CR", "NUL", "invalid UTF-8", "long cell"]


def random_csv_bytes(rng):
    """A node file, and what was added to plain text (None for nothing).

    The plain text has a header matching NODE_HEADERS in mixed case, or now
    and then one that matches none or a blank one; padded cells; blank and
    whitespace-only rows of the header's width and of others; now and then
    a non-blank row of the wrong width; a BOM or none; the final newline or
    none. A few files are empty, or a BOM alone. In two files of five a
    twist then adds one of TWISTS."""
    if rng.random() < 0.04:
        return (b"" if rng.random() < 0.5 else "\ufeff".encode()), None
    header = NODE_HEADERS[int(rng.integers(len(NODE_HEADERS)))]
    header = [pad(c.upper() if rng.random() < 0.3 else c, rng) for c in header]
    lines = [",".join(header[:2] if rng.random() < 0.05 else header)]
    if rng.random() < 0.05:
        lines[0] = str(rng.choice(BLANK_ROWS))
    for _ in range(int(rng.integers(0, 12))):
        if rng.random() < 0.25:
            lines.append(str(rng.choice(BLANK_ROWS)))
        width = 3 + int(rng.choice([-1, 1])) if rng.random() < 0.05 else 3
        lines.append(",".join(pad(str(rng.choice(CELL_POOL)), rng) for _ in range(width)))
    text = ("\ufeff" if rng.random() < 0.2 else "") + "\n".join(lines)
    text += "\n" if rng.random() < 0.7 else ""
    if rng.random() < 0.6:
        return text.encode(), None
    twist = str(rng.choice(TWISTS))
    at = int(rng.integers(0, len(text) + 1))
    if twist == "quoted cell":
        i = int(rng.integers(len(lines)))
        cells = lines[i].split(",")
        j = int(rng.integers(len(cells)))
        cells[j] = '"' + str(rng.choice([cells[j], "a,b", "a\nb", 'say ""hi""'])) + '"'
        lines[i] = ",".join(cells)
        text = "\n".join(lines) + "\n"
    elif twist == "CRLF":
        text = (text if text.endswith("\n") else text + "\n").replace("\n", "\r\n")
    elif twist == "lone CR":
        text = text[:at] + "\r" + text[at:]
    elif twist == "NUL":
        text = text[:at] + "\0" + text[at:]
    elif twist == "long cell":
        text += "\n" + "x" * (csv.field_size_limit() + 1) + ",1,2\n"
    data = text.encode()
    if twist == "invalid UTF-8":
        at = int(rng.integers(0, len(data) + 1))
        data = data[:at] + b"\xff" + data[at:]
    return data, twist


def test_read_csv_table_matches_csv_reader_loop_on_random_texts(tmp_path):
    # the same header, row numbers and columns as csv.reader row by row, or
    # the same exception and message, on plain texts and on texts with a twist
    rng = np.random.default_rng(2626)
    seen = Counter()
    for trial in range(600):
        data, twist = random_csv_bytes(rng)
        path = tmp_path / f"t{trial}.csv"
        path.write_bytes(data)
        args = (str(path), NODE_HEADERS, "node")
        got = outcome(network.read_csv_table, *args)
        want = outcome(read_csv_table_loop, *args)
        assert got == want, data[:200]
        seen[twist, not isinstance(want[0], type)] += 1  # returned, not raised
    for twist in [None, *TWISTS]:
        assert seen[twist, True] + seen[twist, False] >= 20, twist
    assert seen[None, True] >= 100 and seen[None, False] >= 40


@pytest.mark.parametrize("name", [str, "n{}".format], ids=["decimal-ids", "text-ids"])
def test_build_peak_stays_near_the_size_of_its_arrays(name):
    # a 100 x 100 lattice with every other length empty and one edge in 50
    # of a dropped class: tracemalloc's peak over build_network stays under
    # 2.5 times the bytes of the arrays it returns (measured 2.3x with
    # decimal ids, whose sort keys each hold an int, and 2.0x with text ids;
    # lists of every endpoint id and of the coordinates, held all at once,
    # reach 4.6x)
    k = 100
    ids = list(map(name, range(k * k)))
    row_of, col_of = np.divmod(np.arange(k * k), k)
    nodes = RoadNodes(ids, col_of * 50.0, row_of * 50.0)
    east = np.flatnonzero(col_of < k - 1).tolist()
    north = list(range(k * k - k))
    a = [ids[i] for i in east + north]
    b = [ids[i + 1] for i in east] + [ids[i + k] for i in north]
    length = np.where(np.arange(len(a)) % 2 == 0, 50.0, math.nan)
    classes = ["motorway" if i % 50 == 0 else "residential" for i in range(len(a))]
    edges = RoadEdges(a, b, length, classes)
    build_network(edges, nodes)  # first calls into numpy set up what they keep
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        net = build_network(edges, nodes)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    arrays = sum(x.nbytes for x in (net.xs, net.ys, net.indptr, net.nbr, net.length))
    assert peak < 2.5 * arrays, (peak, arrays)


@pytest.mark.parametrize("file, bound", [("nodes", 21.5), ("edges", 47.0)])
def test_general_loader_peak_stays_near_the_size_of_its_read(tmp_path, file, bound):
    # a CRLF 100 x 100 lattice with every other length given, which the
    # general route reads: tracemalloc's peak over each loader stays under
    # `bound` times the bytes of the float arrays it returns. The peak is
    # in read_csv_table's rows: measured 20.7x for the nodes and 45.1x for
    # the edges, the same as when the loaders parsed whole columns by mask.
    # Lists of every parsed coordinate, held until the arrays are made,
    # reach 21.9x for the nodes
    nodes_path, edges_path = write_plain_lattice(tmp_path, 100, given=lambda j: j % 2 == 1)
    for path in (nodes_path, edges_path):
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data.replace(b"\n", b"\r\n"))
    load = {
        "nodes": lambda: load_road_nodes(nodes_path, *REF),
        "edges": lambda: load_road_edges(edges_path),
    }[file]
    load()  # first calls into numpy set up what they keep
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        got = load()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    arrays = (got.xs.nbytes + got.ys.nbytes) if file == "nodes" else got.length_m.nbytes
    assert peak < bound * arrays, (peak, arrays, peak / arrays)


def write_plain_lattice(tmp_path, k, given):
    """A k x k lattice of lon/lat road nodes with decimal ids, as a plain
    file pair, and its paths: every edge whose row number `given` accepts
    has a length, every other one is empty, and one edge in 50 is of a
    dropped class."""
    row_of, col_of = np.divmod(np.arange(k * k), k)
    lines = ["node_id,lon,lat"] + [
        f"{i},{REF[0] + c * 5e-4:.7f},{REF[1] + r * 4e-4:.7f}"
        for i, (r, c) in enumerate(zip(row_of.tolist(), col_of.tolist()))
    ]
    nodes_path, edges_path = tmp_path / "lattice_nodes.csv", tmp_path / "lattice_edges.csv"
    nodes_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    east = np.flatnonzero(col_of < k - 1).tolist()
    pairs = [(i, i + 1) for i in east] + [(i, i + k) for i in range(k * k - k)]
    lines = ["from_node,to_node,length_m,road_class"]
    for j, (a, b) in enumerate(pairs):
        road_class = "motorway" if j % 50 == 0 else "residential"
        lines.append(f"{a},{b},{40 + j % 7 * 2.5 if given(j) else ''},{road_class}")
    edges_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return str(nodes_path), str(edges_path)


def test_numeric_route_reads_a_mixed_length_lattice_as_the_general_route(tmp_path, monkeypatch):
    # the road-graph shape, 160 x 160 nodes, with every other length given:
    # the numeric route takes the pair and builds the general route's network
    args = write_plain_lattice(tmp_path, 160, given=lambda j: j % 2 == 1)
    general = general_route_calls(monkeypatch)
    got = network.load_road_network(*args, network.DEFAULT_ROAD_CLASSES, *REF)
    assert general == []
    nodes_path, edges_path = args
    want = build_network(load_road_edges(edges_path), load_road_nodes(nodes_path, *REF))
    assert_same_network(got, want)
    assert len(got.ids) == 160 * 160
    # the 160 * 159 odd rows give their lengths, and all are kept: each is
    # two CSR entries
    assert np.isin(got.length, 40 + np.arange(7) * 2.5).sum() == 2 * 160 * 159


def test_numeric_route_peak_stays_near_the_size_of_its_arrays(tmp_path):
    # a plain 100 x 100 lattice with every length empty: tracemalloc's peak
    # over load_road_network stays under 3.5 times the bytes of the arrays
    # it returns (3.3x measured, as before both routes ended in one build;
    # the peak is in reading the edge file, whose cell offsets alone take
    # 32 bytes a row, not in the build)
    args = write_plain_lattice(tmp_path, 100, given=lambda j: False)
    network.load_road_network(*args, network.DEFAULT_ROAD_CLASSES, *REF)  # numpy's setup
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        net = network.load_road_network(*args, network.DEFAULT_ROAD_CLASSES, *REF)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    arrays = sum(x.nbytes for x in (net.xs, net.ys, net.indptr, net.nbr, net.length))
    assert peak < 3.5 * arrays, (peak, arrays)


def test_dijkstra_peak_stays_below_the_size_of_the_csr_arrays():
    # a 100 x 100 lattice from two sources: tracemalloc's peak over
    # multisource_shortest_distances stays below the bytes of indptr, nbr
    # and length (0.56x here, the distance list and the heap); list copies
    # of the three arrays reach 5.1x
    k = 100
    ids = list(map(str, range(k * k)))
    row_of, col_of = np.divmod(np.arange(k * k), k)
    east = np.flatnonzero(col_of < k - 1).tolist()
    north = list(range(k * k - k))
    rng = np.random.default_rng(5)
    edges = RoadEdges(
        [ids[i] for i in east + north],
        [ids[i + 1] for i in east] + [ids[i + k] for i in north],
        rng.uniform(10, 100, len(east) + len(north)),
        ["residential"] * (len(east) + len(north)),
    )
    net = build_network(edges, RoadNodes(ids, col_of * 50.0, row_of * 50.0))
    multisource_shortest_distances(net, {0})  # first calls set up what they keep
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        dist = multisource_shortest_distances(net, {0, k * k // 2})
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert np.isfinite(dist).all()
    arrays = sum(x.nbytes for x in (net.indptr, net.nbr, net.length))
    assert peak < arrays, (peak, arrays)


def ladder_network(n):
    """A chain 0 - 1 - ... - n of unit steps plus a shortcut from every node
    k to every later node i, of length (i - k) + 1 / (k + 2): the later a
    shortcut leaves the chain, the shorter the path, so the all-chain path
    with the most hops wins and node i is lowered once from each of the i
    nodes before it."""
    edges = [(str(i), str(i + 1), 1.0) for i in range(n)]
    edges += [(str(k), str(i), (i - k) + 1 / (k + 2)) for i in range(n + 1) for k in range(i)]
    nodes = {str(i): ProjectedPoint(0.0, 0.0) for i in range(n + 1)}
    return network_from_records([(a, b, w, "residential") for a, b, w in edges], nodes), edges


def test_distances_on_a_ladder_equal_bellman_ford():
    net, edges = ladder_network(60)
    want = bellman_ford(edges, {"0"})
    got = multisource_shortest_distances(net, {index(net, "0")})
    assert got.dtype == np.float64 and got.shape == (len(net.ids),)
    assert by_id(net, got) == want
    assert want["60"] == 60.0
