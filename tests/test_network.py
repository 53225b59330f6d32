import math
import warnings

import numpy as np
import pytest

from access_atlas import network
from access_atlas.errors import DomainError, SchemaError, SnapError
from access_atlas.geometry import Polygon, ProjectedPoint
from access_atlas.network import (
    RoadNetwork,
    build_network,
    multisource_shortest_distances,
    snap_point,
    tract_network_distance,
)

from _oracles import bellman_ford, floyd_warshall, snap_loop


def chain_network():
    nodes = {"A": ProjectedPoint(0, 0), "B": ProjectedPoint(100, 0), "C": ProjectedPoint(300, 0)}
    edges = [("A", "B", 100.0, "residential"), ("B", "C", 200.0, "residential")]
    return build_network(edges, nodes)


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
    assert len(net.nodes) == 3
    assert net.edge_count == 2


def test_build_filters_disallowed_classes():
    nodes = {"A": ProjectedPoint(0, 0), "B": ProjectedPoint(100, 0), "C": ProjectedPoint(300, 0)}
    edges = [("A", "B", 100.0, "residential"), ("B", "C", 200.0, "residential")]
    net = build_network(edges, nodes, frozenset({"motorway"}))
    assert net.edge_count == 0
    assert net.nodes == {}  # isolated nodes dropped


def test_build_rejects_negative_length():
    nodes = {"A": ProjectedPoint(0, 0), "B": ProjectedPoint(100, 0)}
    with pytest.raises(SchemaError):
        build_network([("A", "B", -5.0, "residential")], nodes)


def test_build_rejects_missing_node():
    nodes = {"A": ProjectedPoint(0, 0)}
    with pytest.raises(SchemaError):
        build_network([("A", "Z", 10.0, "residential")], nodes)


def test_build_and_dijkstra_make_no_sort_key_calls(monkeypatch):
    # the snap index is the only user of the node-id order
    rng = np.random.default_rng(12)
    nodes, edges = random_graph(rng, 300)
    calls = []
    monkeypatch.setattr(network, "_node_sort_key", calls.append)
    net = build_network(edges, nodes)
    assert multisource_shortest_distances(net, {"0", "7", "150"})
    assert calls == []


def test_build_computes_euclidean_length_when_missing():
    nodes = {"A": ProjectedPoint(0, 0), "B": ProjectedPoint(300, 400)}
    net = build_network([("A", "B", None, "residential")], nodes)
    assert net.adjacency["A"][0] == ("B", 500.0)


# ------------------------------------------------------------------ snapping


def test_snap_exact_node():
    net = chain_network()
    assert snap_point(ProjectedPoint(300, 0), net) == "C"


def test_snap_tie_breaks_to_lowest_id():
    nodes = {"3": ProjectedPoint(-100, 0), "9": ProjectedPoint(100, 0)}
    net = build_network([("3", "9", 200.0, "residential")], nodes)
    assert snap_point(ProjectedPoint(0, 0), net) == "3"


def test_snap_numeric_ids_order_numerically():
    nodes = {"9": ProjectedPoint(-100, 0), "10": ProjectedPoint(100, 0)}
    net = build_network([("9", "10", 200.0, "residential")], nodes)
    assert snap_point(ProjectedPoint(0, 0), net) == "9"


def test_snap_beyond_max_raises():
    net = chain_network()
    with pytest.raises(SnapError):
        snap_point(ProjectedPoint(0, 800), net, max_snap_m=500)


def test_non_decimal_digit_id_sorts_as_text():
    # "²".isdigit() is True but int("²") raises; such an id sorts as text,
    # after every decimal id.
    nodes = {"²": ProjectedPoint(-100, 0), "7": ProjectedPoint(100, 0)}
    net = build_network([("²", "7", 200.0, "residential")], nodes)
    assert net.adjacency["²"] == [("7", 200.0)]
    assert snap_point(ProjectedPoint(0, 0), net) == "7"
    assert multisource_shortest_distances(net, {"²"}) == {"²": 0.0, "7": 200.0}


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
    return RoadNetwork(nodes=nodes, adjacency={}), points, max_snap_m


def test_snap_point_matches_sorted_scan_oracle():
    rng = np.random.default_rng(20241018)
    ties = snapped = too_far = 0
    for _ in range(200):
        net, points, max_snap_m = random_snap_network(rng)
        for pt in points:
            try:
                want = snap_loop(pt, net, max_snap_m)
            except SnapError as exc:
                with pytest.raises(SnapError) as got:
                    snap_point(pt, net, max_snap_m)
                assert got.value.distance_m == exc.distance_m
                too_far += 1
                continue
            assert snap_point(pt, net, max_snap_m) == want
            snapped += 1
            best = math.hypot(pt.x - net.nodes[want].x, pt.y - net.nodes[want].y)
            ties += sum(math.hypot(pt.x - p.x, pt.y - p.y) == best for p in net.nodes.values()) > 1
    assert min(ties, snapped, too_far) > 500


@pytest.mark.parametrize("px, py", [(0.0, 0.0), (-1e308, -1e308), (1e308, 1e308), (3e307, -1e154)])
def test_snap_point_with_overflowing_squares_matches_oracle(px, py):
    nodes = {
        "1": ProjectedPoint(1e308, 1e308),
        "2": ProjectedPoint(-1e200, 5.0),
        "3": ProjectedPoint(2.0, -1.0),
        "x": ProjectedPoint(1e155, 0.0),
    }
    net = RoadNetwork(nodes=nodes, adjacency={})
    pt = ProjectedPoint(px, py)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert snap_point(pt, net, math.inf) == snap_loop(pt, net, math.inf)


def test_snap_point_overflowing_distance_raises_snap_error():
    # math.hypot overflows to inf for both nodes: the first id in order is
    # named, and it is beyond any finite max_snap_m
    nodes = {"2": ProjectedPoint(-1.7e308, 1.7e308), "1": ProjectedPoint(1.7e308, 1.7e308)}
    net = RoadNetwork(nodes=nodes, adjacency={})
    with pytest.raises(SnapError, match="'1'") as exc:
        snap_point(ProjectedPoint(0.0, -1e7), net, max_snap_m=1e300)
    assert exc.value.distance_m == math.inf


def test_snap_point_does_not_sort_per_call(monkeypatch):
    rng = np.random.default_rng(11)
    n = 300
    nodes, edges = random_graph(rng, n)
    net = build_network(edges, nodes)
    calls = []
    original = network._node_sort_key

    def counted(node_id):
        calls.append(1)
        return original(node_id)

    monkeypatch.setattr(network, "_node_sort_key", counted)
    for x, y in rng.uniform(0, 1e4, size=(200, 2)):
        snap_point(ProjectedPoint(float(x), float(y)), net, max_snap_m=1e5)
    assert len(calls) <= n


# ------------------------------------------------------------ shortest paths


def test_chain_single_source():
    net = chain_network()
    assert multisource_shortest_distances(net, {"C"}) == {"A": 300.0, "B": 200.0, "C": 0.0}


def test_chain_two_sources():
    net = chain_network()
    assert multisource_shortest_distances(net, {"A", "C"}) == {"A": 0.0, "B": 100.0, "C": 0.0}


def test_empty_sources_rejected():
    with pytest.raises(DomainError):
        multisource_shortest_distances(chain_network(), set())


def test_unknown_source_rejected():
    with pytest.raises(DomainError):
        multisource_shortest_distances(chain_network(), {"Z"})


def test_matches_floyd_warshall_on_random_graphs():
    rng = np.random.default_rng(2024)
    for _ in range(8):
        n = int(rng.integers(5, 40))
        nodes, edges = random_graph(rng, n)
        net = build_network(edges, nodes)
        k = int(rng.integers(1, 4))
        sources = {str(int(s)) for s in rng.choice(n, size=k, replace=False)}
        got = multisource_shortest_distances(net, sources)
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
        net = build_network(edges, nodes)
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
        got = multisource_shortest_distances(net, sources)
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
        net = build_network([(a, b, w, "residential") for a, b, w in edges], nodes)
        assert multisource_shortest_distances(net, set(sources)) == want


def test_multisource_equals_per_source_minimum():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(6, 50))
        nodes, edges = random_graph(rng, n)
        net = build_network(edges, nodes)
        sources = {str(int(s)) for s in rng.choice(n, size=3, replace=False)}
        combined = multisource_shortest_distances(net, sources)
        singles = [multisource_shortest_distances(net, {s}) for s in sources]
        for v in combined:
            assert combined[v] == min(d[v] for d in singles)


def test_triangle_inequality_along_edges():
    rng = np.random.default_rng(5)
    nodes, edges = random_graph(rng, 30)
    net = build_network(edges, nodes)
    dist = multisource_shortest_distances(net, {"0"})
    for u, neighbors in net.adjacency.items():
        for v, w in neighbors:
            assert dist[v] <= dist[u] + w + 1e-9


def test_adding_source_never_increases_distances():
    rng = np.random.default_rng(6)
    nodes, edges = random_graph(rng, 30)
    net = build_network(edges, nodes)
    base = multisource_shortest_distances(net, {"0"})
    more = multisource_shortest_distances(net, {"0", "7"})
    for node, d in base.items():
        assert more[node] <= d + 1e-12


def test_scaling_edge_lengths_scales_distances():
    rng = np.random.default_rng(8)
    nodes, edges = random_graph(rng, 20)
    net = build_network(edges, nodes)
    scaled = build_network([(a, b, w * 3.5, c) for a, b, w, c in edges], nodes)
    base = multisource_shortest_distances(net, {"0"})
    got = multisource_shortest_distances(scaled, {"0"})
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
        net = build_network(records, nodes)
        assert multisource_shortest_distances(net, set(sources)) == want
        reversed_net = build_network(records[::-1], nodes)
        assert multisource_shortest_distances(reversed_net, set(sources[::-1])) == want
        keys = list(net.adjacency)
        shuffled = {}
        for k in rng.permutation(len(keys)):
            neighbors = net.adjacency[keys[k]]
            shuffled[keys[k]] = [neighbors[i] for i in rng.permutation(len(neighbors))]
        shuffled_net = RoadNetwork(nodes=net.nodes, adjacency=shuffled)
        reordered = set(sources[i] for i in rng.permutation(len(sources)))
        assert multisource_shortest_distances(shuffled_net, reordered) == want


def test_result_independent_of_edge_order():
    rng = np.random.default_rng(9)
    nodes, edges = random_graph(rng, 25)
    net = build_network(edges, nodes)
    shuffled = [edges[i] for i in rng.permutation(len(edges))]
    net2 = build_network(shuffled, nodes)
    assert multisource_shortest_distances(net, {"0", "3"}) == multisource_shortest_distances(
        net2, {"0", "3"}
    )


# ------------------------------------------------------- per-tract distances


def tract_at(x0, y0, size=100.0):
    return [
        Polygon(
            [[(x0, y0), (x0 + size, y0), (x0 + size, y0 + size), (x0, y0 + size)]]
        )
    ]


def distance_to(parts, net, sources, mode="centroid", max_snap_m=network.DEFAULT_SNAP_MAX_M):
    """tract_network_distance over the shared Dijkstra map of `sources`."""
    distances = multisource_shortest_distances(net, sources)
    return tract_network_distance(parts, net, distances, mode, max_snap_m=max_snap_m)


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
    net = build_network(
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
    net = build_network(
        [("A", "B", 100.0, "residential"), ("X", "Y", 100.0, "residential")], nodes
    )
    parts = tract_at(-50, -50)  # snaps to A, component {A, B}
    assert distance_to(parts, net, {"X"}) is None


def test_snap_error_propagates():
    net = chain_network()
    parts = tract_at(10000, 10000)
    with pytest.raises(SnapError):
        distance_to(parts, net, {"C"})


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
    from access_atlas.network import load_road_edges, load_road_nodes

    nodes_path = tmp_path / "n.csv"
    nodes_path.write_bytes(b"node_id,x,y\r\na,0,0\r\n\r\nb,100,0\r\n")
    edges_path = tmp_path / "e.csv"
    edges_path.write_bytes(b"from_node,to_node,length_m,road_class\r\na,b,,residential\r\n")
    nodes = load_road_nodes(str(nodes_path))
    net = build_network(load_road_edges(str(edges_path)), nodes)
    assert net.adjacency["a"][0] == ("b", 100.0)
