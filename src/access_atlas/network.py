"""Road-network graph and shortest-path distances to supermarkets.

The network is an undirected weighted graph built from node/edge CSVs,
filtered to the road classes people actually walk or drive locally
(motorways are excluded by default). Distances to the nearest supermarket
come from a single multi-source Dijkstra pass seeded with every
supermarket's snap node. `origin_points` gives the points each tract is
measured from, as flat arrays: the stored centroids of the packed
`Tracts`, or the grid-K samples of every tract from one
`geometry.disks_meet` call. One `snap_points` call snaps the supermarkets
and all those points.

`read_csv_table` reads all four CSV inputs (the road nodes and edges here,
the providers and demographics in `ingest`): it matches the header, skips
blank rows, strips every cell, checks each row's width and returns the
whole file as columns. It reads the text once. Plain text, with no `"`,
no CR, no NUL and no line past `csv.field_size_limit()`, is split on
newlines and commas, and every column is a slice of one flat list of
cells; any other text, and a file that is not UTF-8, goes through
`csv.reader` row by row. Both routes give the same columns, row numbers
and errors. The road loaders parse those columns with array operations
into `RoadNodes` and `RoadEdges` (lon/lat nodes are projected by
`geometry.project_points`, the one copy of the projection formula); a bad
cell is found by mask and reported by the scalar check of its row, so the
first bad row in file order gives the error.

`build_network` owns node order: it sorts the kept ids once into
`_node_sort_key` order (decimal ids numerically, then the rest by string),
and a node is its index in that order. Ids that are all ASCII decimal, of
at most 18 digits and of distinct value, sort as int64 values; any other
set sorts by the key. A snap compares a block of points with every node in
numpy passes, ties going to the lowest index; Dijkstra runs on the CSR
edges and returns a float array, which no CSR row or heap order changes.
"""

from __future__ import annotations

import csv
import heapq
import math
import operator
import re
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Sequence

import numpy as np

from . import geometry
from .errors import DomainError, RangeError, SchemaError
from .geometry import Tracts, project_lonlat, project_points

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


@dataclass(frozen=True, eq=False)
class RoadNodes:
    """The node file, in file order: ids and projected coordinates in meters."""

    ids: list[str]
    xs: np.ndarray
    ys: np.ndarray


@dataclass(frozen=True, eq=False)
class RoadEdges:
    """The edge file, in file order; a nan length means "use the Euclidean
    distance between the endpoints"."""

    from_node: list[str]
    to_node: list[str]
    length_m: np.ndarray
    road_class: list[str]


@dataclass(frozen=True, eq=False)
class RoadNetwork:
    """Undirected road graph on node indices.

    Node i is `ids[i]` at (`xs[i]`, `ys[i]`); `ids` is in `_node_sort_key`
    order. Its edges are `nbr[indptr[i]:indptr[i + 1]]`, with lengths in
    `length` at the same positions; every edge appears once from each end.
    """

    ids: list[str]
    xs: np.ndarray
    ys: np.ndarray
    indptr: np.ndarray
    nbr: np.ndarray
    length: np.ndarray


def _blank(cells: list[str]) -> np.ndarray:
    """Mask of the empty cells."""
    return np.fromiter(map(operator.not_, cells), dtype=bool, count=len(cells))


def _repeated(ids: list[str]) -> np.ndarray:
    """Mask of the ids equal to an earlier one."""
    if len(set(ids)) == len(ids):
        return np.zeros(len(ids), dtype=bool)
    first: dict[str, int] = {}
    return np.array([first.setdefault(nid, i) != i for i, nid in enumerate(ids)], dtype=bool)


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _float_column(cells: list[str]) -> np.ndarray:
    """float() of every cell; nan for an empty cell and for one float() rejects."""
    try:
        return np.array([float(c) if c else math.nan for c in cells], dtype=float)
    except ValueError:
        return np.array([_float_or_nan(c) for c in cells], dtype=float)


def _positions(index: dict[str, int], keys: list[str]) -> np.ndarray:
    """index[key] for every key, -1 for a key not in index."""
    try:
        return np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys))
    except KeyError:
        return np.array([index.get(k, -1) for k in keys], dtype=np.intp)


def _id_order(ids: list[str]) -> np.ndarray:
    """The positions of `ids` in `_node_sort_key` order.

    Ids that are all ASCII decimal, 1 to 18 digits long (so below 2**63),
    with distinct integer values sort by their int64 values; any other set
    sorts by the key, one call per id. Both give the same order.
    """
    digits = "".join(ids)
    plain = digits.isascii() and digits.isdecimal()
    if plain and 0 < min(map(len, ids)) and max(map(len, ids)) <= 18:
        values = np.fromiter(map(int, ids), dtype=np.int64, count=len(ids))
        order = np.argsort(values)
        if (np.diff(values[order]) > 0).all():  # "7" and "007" tie here: the key breaks it
            return order
    keys = list(map(_node_sort_key, ids))
    return np.array(sorted(range(len(ids)), key=keys.__getitem__), dtype=np.intp)


def build_network(
    edges: RoadEdges,
    nodes: RoadNodes,
    allowed_classes: frozenset[str] | set[str] = DEFAULT_ROAD_CLASSES,
) -> RoadNetwork:
    """Assemble the graph from the loaded columns, keeping only edges of
    allowed classes.

    A nan length is the Euclidean distance between the endpoints.
    Isolated nodes (no surviving edge) are dropped. A kept edge with an
    endpoint missing from `nodes`, or with a length that is not positive
    and finite, raises SchemaError naming the endpoints of the first such
    edge in file order.
    The kept ids are ordered by `_id_order`: as int64 values when they are
    all plain decimal numbers of distinct value, else by `_node_sort_key`.
    Each temporary is dropped once its last use is done, so the build's
    peak stays near the size of the arrays it returns.
    Each CSR row keeps edge order; no distance depends on it.
    """
    kept = np.flatnonzero(np.fromiter(
        map(allowed_classes.__contains__, edges.road_class),
        dtype=bool,
        count=len(edges.road_class),
    ))
    index = dict(zip(nodes.ids, range(len(nodes.ids))))
    # file positions of the from and to nodes of every kept edge, -1 if missing
    ends = np.stack([_positions(index, end)[kept] for end in (edges.from_node, edges.to_node)])
    del index
    length = edges.length_m[kept]
    found = (ends >= 0).all(axis=0)
    euclidean = np.flatnonzero(np.isnan(length) & found)
    with np.errstate(over="ignore", invalid="ignore"):
        dx = nodes.xs[ends[0, euclidean]] - nodes.xs[ends[1, euclidean]]
        dy = nodes.ys[ends[0, euclidean]] - nodes.ys[ends[1, euclidean]]
        length[euclidean] = geometry.exact_hypot(dx, dy)  # not np.hypot, which may be an ulp off
        bad = ~(found & (length > 0) & (length < math.inf))
    if bad.any():
        j = int(bad.argmax())
        a, b = edges.from_node[kept[j]], edges.to_node[kept[j]]
        if not found[j]:
            missing = a if ends[0, j] < 0 else b
            raise SchemaError(f"edge {a}-{b}: references missing node {missing!r}")
        raise SchemaError(f"edge {a}-{b}: non-positive length {float(length[j])}")
    del kept, found, euclidean, dx, dy, bad
    used = np.zeros(len(nodes.ids), dtype=bool)
    used[ends.ravel()] = True
    at = np.flatnonzero(used)  # file position of each kept node
    del used
    at = at[_id_order(list(map(nodes.ids.__getitem__, at.tolist())))]
    ids = list(map(nodes.ids.__getitem__, at.tolist()))
    rank = np.empty(len(nodes.ids), dtype=np.intp)
    rank[at] = np.arange(len(ids))
    tail = rank[ends.T.ravel()]  # from_node, to_node of every kept edge, in turn
    del rank, ends
    order = np.argsort(tail, kind="stable")
    indptr = np.zeros(len(ids) + 1, dtype=np.intp)
    np.cumsum(np.bincount(tail, minlength=len(ids)), out=indptr[1:])
    head = tail.reshape(-1, 2)[:, ::-1].ravel()
    del tail
    nbr = head[order]
    del head
    order >>= 1  # the kept edge of each CSR entry
    return RoadNetwork(ids, nodes.xs[at], nodes.ys[at], indptr, nbr, length[order])


def _matched_header(
    path: str, header: list[str], headers: Sequence[tuple[str, ...]]
) -> tuple[str, ...]:
    """The entry of `headers` that the header row matches after stripping
    and lower-casing its cells; SchemaError naming the path if none does."""
    cols = [h.strip().lower() for h in header]
    matched = [h for h in headers if [c.lower() for c in h] == cols]
    if not matched:
        allowed = " or ".join(",".join(h) for h in headers)
        raise SchemaError(f"{path}: header must be {allowed}, got {header}")
    return matched[0]


def read_csv_table(
    path: str, headers: Sequence[tuple[str, ...]], what: str
) -> tuple[tuple[str, ...], list[int], list[list[str]]]:
    """Read a UTF-8 CSV file whole; return the matched entry of `headers`,
    the row number of every kept row and the stripped cells of every
    column, one list per header field.

    The header matches one of `headers` after stripping and lower-casing its
    cells. Rows whose cells are all blank are skipped; row numbers count the
    header as row 1. An empty file, a header that matches none of `headers`,
    a row whose width differs from the header's, or a file that is not UTF-8
    or not CSV raises SchemaError naming the path (and the row). These are
    checks on the whole file, made before the caller sees any cell, so they
    come before every error in a cell, wherever the two lie in the file.

    The file's text is read once. Text with no `"`, no CR, no NUL and no
    line longer than `csv.field_size_limit()` is split directly: each line
    is a row, each comma ends a cell, and each column is a slice of one
    flat list of cells. Any other text, and a file that is not UTF-8, goes
    through `csv.reader` row by row (`_read_csv_rows`). Both routes give
    the same columns, row numbers and errors.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return _read_csv_rows(path, headers, what)
    if '"' in text or "\r" in text or "\0" in text:
        return _read_csv_rows(path, headers, what)
    lines = text.split("\n")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:  # csv.reader rejects such a cell
        return _read_csv_rows(path, headers, what)
    del text
    if lines[-1] == "":
        lines.pop()  # the text's final newline, or an empty file
    if not lines:
        raise SchemaError(f"{path}: empty {what} file")
    header = lines[0].split(",") if lines[0] else []  # csv.reader's row of an empty line is []
    matched = _matched_header(path, header, headers)
    width = len(header)
    del lines[0]
    row_nos = range(2, len(lines) + 2)
    commas = list(map(str.count, lines, repeat(",")))
    if commas.count(width - 1) != len(lines):
        # a row of another width must be blank, and is skipped
        for row_no, line, n in zip(row_nos, lines, commas):
            if n != width - 1 and line.replace(",", "").strip():
                raise SchemaError(f"{path} row {row_no}: expected {width} fields, got {n + 1}")
        wide = [n == width - 1 for n in commas]
        lines, row_nos = list(compress(lines, wide)), list(compress(row_nos, wide))
    del commas
    # each intermediate goes as soon as the next is made: on a 200k-row
    # file the lines and the cells are 15 and 40 MiB of objects
    text, rows = ",".join(lines), len(lines)
    del lines
    cells = text.split(",") if rows else []
    del text
    columns = [list(map(str.strip, cells[i::width])) for i in range(width)]
    del cells
    if "" in columns[0]:  # skip the blank rows of the header's width
        kept = list(map(any, zip(*columns)))
        columns = [list(compress(column, kept)) for column in columns]
        row_nos = compress(row_nos, kept)
    return matched, list(row_nos), columns


def _read_csv_rows(
    path: str, headers: Sequence[tuple[str, ...]], what: str
) -> tuple[tuple[str, ...], list[int], list[list[str]]]:
    """`read_csv_table` by `csv.reader`, one row at a time: the route for
    quoted cells, CR line ends, NUL, very long cells and text that is not
    UTF-8."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty {what} file")
            matched = _matched_header(path, header, headers)
            width = len(header)
            row_nos, rows = [], []
            for row_no, row in enumerate(reader, start=2):
                if not "".join(row).strip():
                    continue
                if len(row) != width:
                    raise SchemaError(
                        f"{path} row {row_no}: expected {width} fields, got {len(row)}"
                    )
                row_nos.append(row_no)
                rows.append(row)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise SchemaError(f"{path}: not a UTF-8 CSV file: {exc}") from None
    return matched, row_nos, [
        list(map(str.strip, map(operator.itemgetter(i), rows))) for i in range(width)
    ]


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
) -> RoadNodes:
    """Read the node CSV; header decides the coordinate convention.

    `node_id,x,y` is taken as projected meters; `node_id,lon,lat` is
    projected with the supplied reference point at ingest, all at once by
    `project_points`. An empty or repeated id, a coordinate that is not a
    finite number, or a point `project_lonlat` rejects raises the error of
    the first such row.
    """
    header, row_nos, (ids, raw_u, raw_v) = read_csv_table(
        path, [("node_id", "x", "y"), ("node_id", "lon", "lat")], "node"
    )
    geographic = header[1] == "lon"
    if geographic and (ref_lon is None or ref_lat is None):
        raise SchemaError(f"{path}: lon/lat nodes need a projection reference")
    u, v = _float_column(raw_u), _float_column(raw_v)
    with np.errstate(over="ignore", invalid="ignore"):
        ok = np.isfinite(u) & np.isfinite(v)
        if geographic:
            xs, ys, valid = project_points(u, v, ref_lon, ref_lat)
            ok &= valid
        else:
            xs, ys = u, v
    bad = ~ok | _blank(ids) | _repeated(ids)
    if bad.any():  # the checks of the first bad row, in order, raise its error
        i = int(bad.argmax())
        nid, row_no = ids[i], row_nos[i]
        if not nid:
            raise SchemaError(f"{path} row {row_no}: empty node_id")
        if nid in ids[:i]:
            raise SchemaError(f"{path} row {row_no}: duplicate node_id {nid!r}")
        x = parse_finite(raw_u[i], f"{path} row {row_no} {header[1]}")
        y = parse_finite(raw_v[i], f"{path} row {row_no} {header[2]}")
        if geographic:
            project_lonlat(x, y, ref_lon, ref_lat, f"{path} row {row_no}: ")
    return RoadNodes(ids, xs, ys)


def load_road_edges(path: str) -> RoadEdges:
    """Read the edge CSV: from_node,to_node,length_m,road_class.

    An empty length is nan. An empty endpoint id, or a length that is not
    a finite number, raises the error of the first such row.
    """
    _, row_nos, (a, b, raw_len, road_class) = read_csv_table(
        path, [("from_node", "to_node", "length_m", "road_class")], "edge"
    )
    length = _float_column(raw_len)
    bad = _blank(a) | _blank(b) | (~_blank(raw_len) & ~np.isfinite(length))
    if bad.any():  # the checks of the first bad row, in order, raise its error
        i = int(bad.argmax())
        if not a[i] or not b[i]:
            raise SchemaError(f"{path} row {row_nos[i]}: empty endpoint id")
        parse_finite(raw_len[i], f"{path} row {row_nos[i]} length_m")
    return RoadEdges(a, b, length, road_class)


def snap_points(net: RoadNetwork, px, py) -> tuple[np.ndarray, np.ndarray]:
    """Index of the nearest network node, and its distance, for every point
    (px[k], py[k]); ties go to the lowest index, which is the lowest id.

    Blocks of max(1, geometry.KERNEL_BUDGET // nodes) points are each a pass
    that computes the squared distance from every point to every node. The
    nodes within a relative 1e-12 of a point's smallest squared distance,
    far wider than its rounding error, are its candidates; the first of
    them with the strictly smallest `geometry.exact_hypot` distance wins.
    That is the node, and the distance, of a scan over all ids in sorted
    order. The distance is inf when math.hypot overflows for every
    candidate.
    """
    n = len(net.ids)
    if not n:
        raise DomainError("cannot snap onto an empty network")
    px, py = np.asarray(px, dtype=float), np.asarray(py, dtype=float)
    node, dist = np.empty(len(px), dtype=np.intp), np.empty(len(px))
    block = max(1, geometry.KERNEL_BUDGET // n)
    # every block reuses these rows: on 10^5 nodes, fresh arrays for each
    # point cost more in page faults than the arithmetic
    shape = (min(block, len(px)), n)
    d2_rows, dy2_rows, near_rows = np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)
    for lo in range(0, len(px), block):
        bx, by = px[lo : lo + block], py[lo : lo + block]
        d2, dy2, near = d2_rows[: len(bx)], dy2_rows[: len(bx)], near_rows[: len(bx)]
        # Beyond about 1e154 m d2 overflows to inf; the candidate rule still holds.
        with np.errstate(over="ignore"):
            np.subtract(net.xs, bx[:, None], out=d2)
            d2 *= d2
            np.subtract(net.ys, by[:, None], out=dy2)
            dy2 *= dy2
            d2 += dy2
            np.less_equal(d2, d2.min(axis=1, keepdims=True) * (1.0 + 1e-12), out=near)
            # candidates in (point, index) order, by the 1-D mask: a 2-D
            # np.nonzero costs ten times more per point at 10^5 nodes
            row, col = np.divmod(np.flatnonzero(near), n)
            d = geometry.exact_hypot(bx[row] - net.xs[col], by[row] - net.ys[col])
        # stable: a point's first candidate of least distance leads, inf or not
        ranked = np.lexsort((d, row))
        first = ranked[np.flatnonzero(np.diff(row[ranked], prepend=-1))]
        node[lo : lo + block] = col[first]
        dist[lo : lo + block] = d[first]
    return node, dist


def multisource_shortest_distances(
    net: RoadNetwork, sources: set[int] | frozenset[int]
) -> np.ndarray:
    """Shortest distance from every node to its nearest source, by index.

    One Dijkstra pass over a heap initialised with all source indices.
    Nodes with no path to any source get inf. No pop order changes a
    distance: for w > 0, fl(d + w) >= d and never falls as d grows.
    """
    if not sources:
        raise DomainError("source set is empty")
    n = len(net.ids)
    missing = [s for s in sources if not 0 <= s < n]
    if missing:
        raise DomainError(f"source nodes not in network: {sorted(missing)}")
    indptr, nbr, length = net.indptr.tolist(), net.nbr.tolist(), net.length.tolist()
    dist = [math.inf] * n
    for s in sources:
        dist[s] = 0.0
    heap = [(0.0, s) for s in sources]
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        lo, hi = indptr[u], indptr[u + 1]
        for v, w in zip(nbr[lo:hi], length[lo:hi]):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return np.array(dist, dtype=float)


def sampling_grid_size(mode: str) -> int | None:
    """K of ace_net_mode "grid-K", None for "centroid"; DomainError otherwise."""
    m = re.fullmatch(r"centroid|grid-([1-9][0-9]*)", mode)
    if m is None:
        raise DomainError(f"bad sampling mode {mode!r}: expected 'centroid' or 'grid-K'")
    return int(m[1]) if m[1] else None


def origin_points(tracts: Tracts, index, mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points the tracts of `index` (indices into tracts) are measured
    from, as flat arrays (px, py, owner): point k belongs to the tract
    index[owner[k]], and each tract's points are consecutive. Mode
    "centroid" gives its area centroid; mode "grid-K" the centres of the
    cells of a K x K grid over its bbox that lie inside it, row by row from
    the south, or its centroid when none does. One disks_meet call, with
    disks of radius BOUNDARY_EPS, tests the grid points of every tract."""
    k = sampling_grid_size(mode)
    cx, cy = tracts.centroid[index].T
    if k is None:
        return cx, cy, np.arange(len(cx))
    xmin, ymin, xmax, ymax = tracts.bounds[index].T[:, :, None]
    row, col = np.divmod(np.arange(k * k), k)
    px = xmin + (col + 0.5) * (xmax - xmin) / k
    py = ymin + (row + 0.5) * (ymax - ymin) / k
    inside = geometry.disks_meet(
        tracts, px.ravel(), py.ravel(), geometry.BOUNDARY_EPS, np.repeat(index, k * k)
    ).reshape(px.shape)
    empty = ~inside.any(axis=1)  # these tracts keep their centroid, in the first cell
    px[empty, 0], py[empty, 0], inside[empty, 0] = cx[empty], cy[empty], True
    return px[inside], py[inside], np.nonzero(inside)[0]
