"""Road-network graph and shortest-path distances to supermarkets.

The network is an undirected weighted graph built from node/edge CSVs,
filtered to the road classes people actually walk or drive locally
(motorways are excluded by default). Distances to the nearest supermarket
come from a single multi-source Dijkstra pass seeded with every
supermarket's snap node; `tract_network_distance` reads each tract's
distance from that one shared map.

`read_csv_table` reads all four CSV inputs (the road nodes and edges here,
the providers and demographics in `ingest`): it matches the header, skips
blank rows, strips every cell, checks each row's width and streams the
rows, so the loaders only parse cells.

Snapping a point to its nearest node goes through a coordinate index that
each `RoadNetwork` builds once, on the first snap: the node ids sorted by
`_node_sort_key` (decimal ids numerically, then the rest by string) and
their x and y as float arrays in that order. Building it costs one
O(N log N) sort; each snap is then one O(N) numpy pass over the arrays.
Ties go to the lowest id in that order. The snap index is the only user of
that order: no distance depends on adjacency or heap order.
"""

from __future__ import annotations

import csv
import heapq
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DomainError, RangeError, SchemaError, SnapError
from .geometry import (
    Polygon,
    ProjectedPoint,
    parts_area_centroid,
    parts_bounds,
    points_in_tract,
    project_lonlat,
)

DEFAULT_ROAD_CLASSES = frozenset(
    {"residential", "living_street", "unclassified", "tertiary", "secondary", "primary"}
)

DEFAULT_SNAP_MAX_M = 500.0


def _node_sort_key(node_id: str) -> tuple[int, int, str]:
    # Numeric ids order numerically, everything else lexicographically.
    # isdecimal, not isdigit: "²" is a digit that int() rejects.
    if node_id.isdecimal():
        return (0, int(node_id), node_id)
    return (1, 0, node_id)


@dataclass
class RoadNetwork:
    """Undirected road graph: node coordinates plus adjacency with lengths.

    `nodes` is not to be changed after the first snap, which derives the
    snap index from it.
    """

    nodes: dict[str, ProjectedPoint]
    adjacency: dict[str, list[tuple[str, float]]]

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self.adjacency.values()) // 2

    @cached_property
    def snap_index(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Node ids in `_node_sort_key` order and their x and y arrays."""
        ids = sorted(self.nodes, key=_node_sort_key)
        xs = np.array([self.nodes[nid].x for nid in ids], dtype=float)
        ys = np.array([self.nodes[nid].y for nid in ids], dtype=float)
        return ids, xs, ys


def build_network(
    edge_records: Iterable[tuple[str, str, float | None, str]],
    node_records: Mapping[str, ProjectedPoint],
    allowed_classes: frozenset[str] | set[str] = DEFAULT_ROAD_CLASSES,
) -> RoadNetwork:
    """Assemble the graph from parsed records, keeping only allowed classes.

    Edge records are (from_node, to_node, length_m, road_class); a None
    length means "use the Euclidean distance between the endpoints".
    Isolated nodes (no surviving edge) are dropped. Adjacency lists keep
    edge-record order, which no distance depends on (fl(d + w) never falls as d grows).
    """
    adjacency: dict[str, list[tuple[str, float]]] = {}
    for idx, (a, b, length, road_class) in enumerate(edge_records):
        if road_class not in allowed_classes:
            continue
        if a not in node_records or b not in node_records:
            missing = a if a not in node_records else b
            raise SchemaError(f"edge {idx}: references missing node {missing!r}")
        if length is None:
            pa, pb = node_records[a], node_records[b]
            length = math.hypot(pa.x - pb.x, pa.y - pb.y)
        if not (length > 0) or not math.isfinite(length):
            raise SchemaError(f"edge {idx} ({a}-{b}): non-positive length {length}")
        adjacency.setdefault(a, []).append((b, float(length)))
        adjacency.setdefault(b, []).append((a, float(length)))
    nodes = {nid: pt for nid, pt in node_records.items() if nid in adjacency}
    return RoadNetwork(nodes=nodes, adjacency=adjacency)


def read_csv_table(
    path: str, headers: Sequence[tuple[str, ...]], what: str
) -> tuple[tuple[str, ...], Iterator[tuple[int, list[str]]]]:
    """Open a UTF-8 CSV file and match its header; return the matched entry
    of `headers` and a lazy stream of (row number, stripped cells).

    The header matches one of `headers` after stripping and lower-casing its
    cells. Rows whose cells are all blank are skipped; row numbers count the
    header as row 1. An empty file, a header that matches none of `headers`,
    a row whose width differs from the header's, or a file that is not UTF-8
    or not CSV raises SchemaError naming the path (and the row).
    """

    def stream():
        with open(path, newline="", encoding="utf-8") as fh:
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
                yield matched[0]
                for row_no, row in enumerate(reader, start=2):
                    cells = [c.strip() for c in row]
                    if not any(cells):
                        continue
                    if len(cells) != width:
                        raise SchemaError(
                            f"{path} row {row_no}: expected {width} fields, got {len(cells)}"
                        )
                    yield row_no, cells
            except (UnicodeDecodeError, csv.Error) as exc:
                raise SchemaError(f"{path}: not a UTF-8 CSV file: {exc}") from None

    rows = stream()
    return next(rows), rows


def parse_finite(cell: str, what: str) -> float:
    """Parse one numeric cell: SchemaError if it is not a number, RangeError
    if it is nan or infinite."""
    try:
        v = float(cell)
    except ValueError:
        raise SchemaError(f"{what}: non-numeric value {cell!r}") from None
    if not math.isfinite(v):
        raise RangeError(f"{what}: non-finite value {cell!r}")
    return v


def load_road_nodes(
    path: str,
    ref_lon: float | None = None,
    ref_lat: float | None = None,
) -> dict[str, ProjectedPoint]:
    """Read the node CSV; header decides the coordinate convention.

    `node_id,x,y` is taken as projected meters; `node_id,lon,lat` is
    projected with the supplied reference point at ingest.
    """
    header, rows = read_csv_table(
        path, [("node_id", "x", "y"), ("node_id", "lon", "lat")], "node"
    )
    geographic = header[1] == "lon"
    if geographic and (ref_lon is None or ref_lat is None):
        raise SchemaError(f"{path}: lon/lat nodes need a projection reference")
    nodes: dict[str, ProjectedPoint] = {}
    for row_no, (nid, raw_u, raw_v) in rows:
        if not nid:
            raise SchemaError(f"{path} row {row_no}: empty node_id")
        if nid in nodes:
            raise SchemaError(f"{path} row {row_no}: duplicate node_id {nid!r}")
        u = parse_finite(raw_u, f"{path} row {row_no} {header[1]}")
        v = parse_finite(raw_v, f"{path} row {row_no} {header[2]}")
        if geographic:
            nodes[nid] = project_lonlat(u, v, ref_lon, ref_lat)
        else:
            nodes[nid] = ProjectedPoint(u, v)
    return nodes


def load_road_edges(path: str) -> list[tuple[str, str, float | None, str]]:
    """Read the edge CSV: from_node,to_node,length_m,road_class."""
    _, rows = read_csv_table(path, [("from_node", "to_node", "length_m", "road_class")], "edge")
    edges: list[tuple[str, str, float | None, str]] = []
    for row_no, (a, b, raw_len, road_class) in rows:
        if not a or not b:
            raise SchemaError(f"{path} row {row_no}: empty endpoint id")
        length = parse_finite(raw_len, f"{path} row {row_no} length_m") if raw_len else None
        edges.append((a, b, length, road_class))
    return edges


def snap_point(
    pt: ProjectedPoint, net: RoadNetwork, max_snap_m: float = DEFAULT_SNAP_MAX_M
) -> str:
    """Nearest network node by Euclidean distance; ties go to the lowest id.

    One numpy pass over `net.snap_index` computes the squared distance to
    every node. The nodes within a relative 1e-12 of the smallest squared
    distance, far wider than its rounding error, are the candidates; the
    first of them, in id order, with the strictly smallest `math.hypot`
    distance wins. That is the node, and the distance, of a scan over all
    ids in sorted order. A nearest node farther than max_snap_m raises
    SnapError carrying that distance, which is inf when `math.hypot`
    overflows for every candidate.
    """
    if not net.nodes:
        raise DomainError("cannot snap onto an empty network")
    ids, xs, ys = net.snap_index
    # Beyond about 1e154 m d2 overflows to inf; the candidate rule still holds.
    with np.errstate(over="ignore"):
        dx = xs - pt.x
        dy = ys - pt.y
        d2 = dx * dx + dy * dy
    candidates = np.flatnonzero(d2 <= d2.min() * (1.0 + 1e-12)).tolist()
    # seeded with the first candidate, so it stands when every hypot is inf
    best_id = ids[candidates[0]]
    best_d = math.inf
    for i in candidates:
        npt = net.nodes[ids[i]]
        d = math.hypot(pt.x - npt.x, pt.y - npt.y)
        if d < best_d:
            best_d = d
            best_id = ids[i]
    if best_d > max_snap_m:
        raise SnapError(
            f"nearest node {best_id!r} is {best_d:.1f} m away (max {max_snap_m:.0f} m)",
            best_d,
        )
    return best_id


def multisource_shortest_distances(
    net: RoadNetwork, sources: set[str] | frozenset[str]
) -> dict[str, float]:
    """Shortest distance from every node to its nearest source.

    One Dijkstra pass over a heap initialised with all sources. Nodes with
    no path to any source are absent from the returned mapping. No pop
    order changes a distance: for w > 0, fl(d + w) >= d and never falls as d grows.
    """
    if not sources:
        raise DomainError("source set is empty")
    missing = [s for s in sources if s not in net.adjacency]
    if missing:
        raise DomainError(f"source nodes not in network: {sorted(missing)}")
    dist: dict[str, float] = {s: 0.0 for s in sources}
    heap = [(0.0, s) for s in sources]
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        for v, w in net.adjacency[u]:
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _grid_sample_points(parts: Sequence[Polygon], k: int) -> list[ProjectedPoint]:
    """Cell centers of a k x k grid over the bbox, kept if inside a part."""
    xmin, ymin, xmax, ymax = parts_bounds(parts)
    pts = [
        ProjectedPoint(xmin + (i + 0.5) * (xmax - xmin) / k, ymin + (j + 0.5) * (ymax - ymin) / k)
        for j in range(k)
        for i in range(k)
    ]
    return [pt for pt, inside in zip(pts, points_in_tract(pts, parts)) if inside]


def sampling_grid_size(mode: str) -> int | None:
    """K of ace_net_mode "grid-K", None for "centroid"; DomainError otherwise."""
    m = re.fullmatch(r"centroid|grid-([1-9][0-9]*)", mode)
    if m is None:
        raise DomainError(f"bad sampling mode {mode!r}: expected 'centroid' or 'grid-K'")
    return int(m[1]) if m[1] else None


def tract_network_distance(
    parts: Sequence[Polygon],
    net: RoadNetwork,
    distances: Mapping[str, float],
    mode: str = "centroid",
    *,
    max_snap_m: float,
) -> float | None:
    """Network distance from a tract to its nearest supermarket, or None if
    no sample of the tract reaches one.

    `distances` is the shared map from multisource_shortest_distances. Mode
    "centroid" uses the snapped area centroid; mode "grid-K" averages the
    distances at the snapped nodes of a K x K interior sample grid (sample
    points outside the polygon are discarded; if none remain the centroid
    is used). Unreachable samples are excluded from the mean. A sample
    beyond max_snap_m from every node raises SnapError.
    """
    k = sampling_grid_size(mode)
    _, centroid = parts_area_centroid(parts)
    sample_points = [centroid] if k is None else (_grid_sample_points(parts, k) or [centroid])
    values = []
    for pt in sample_points:
        d = distances.get(snap_point(pt, net, max_snap_m))
        if d is not None:
            values.append(d)
    if not values:
        return None
    return sum(values) / len(values)
