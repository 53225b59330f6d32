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
the providers and demographics in `ingest`) by `csv.reader`: it matches
the header, skips blank rows, strips every cell, checks each row's width
and returns the whole file as columns. The road loaders check those columns
one row at a time, in file order, as the other inputs do, so the first
bad row gives the error; then lon/lat nodes are projected all at once by
`geometry.project_points`, the one copy of the projection formula.

`load_road_network` is the road stage of a run, and it has two routes
that only read. Strictly plain files (ASCII, canonical decimal ids of at
most 18 digits, no quote, padding, blank row or row of another width;
`_read_plain` and `load_road_network` list every rule) take the numeric
route: the ids are read from their digits, numpy's C reader parses the
coordinate and length columns, each edge end is found by binary search in
the int64 ids, and an edge is kept when its class cell equals an allowed
class byte for byte. Any other pair of files takes the general route,
`load_road_nodes(...)` and then `build_network(load_road_edges(...),
nodes)`, so the node file is checked first; it also runs from the start
whenever the numeric route declines. Both end in one build, `_build`,
which fills the empty lengths, raises the error of a bad kept edge, drops
isolated nodes and makes the CSR arrays, so the two give the same network
bit for bit, or the same error.

`build_network` owns node order: it sorts the kept ids once into
`_node_sort_key` order (decimal ids numerically, then the rest by string),
and a node is its index in that order. A snap compares a block of points
with every node in numpy passes, ties going to the lowest index; Dijkstra
reads the CSR arrays in place and returns a float array, which no CSR row
or heap order changes.
"""

# Annotations are evaluated, not postponed: typing.NamedTuple would compile
# each field's string annotation into a ForwardRef at import.

import codecs
import csv
import heapq
import io
import math
import operator
import re
from typing import NamedTuple, Sequence

import numpy as np

from . import geometry
from .errors import DomainError, RangeError, SchemaError
from .geometry import Tracts, project_each, project_points

DEFAULT_ROAD_CLASSES = frozenset(
    {"residential", "living_street", "unclassified", "tertiary", "secondary", "primary"}
)

DEFAULT_SNAP_MAX_M = 500.0

# grid-K samples K x K points of every tract; the city runs use grid-3
MAX_GRID_K = 100

_NODE_HEADERS = (("node_id", "x", "y"), ("node_id", "lon", "lat"))
_EDGE_HEADERS = (("from_node", "to_node", "length_m", "road_class"),)


def _node_sort_key(node_id: str) -> tuple[int, int, str]:
    # Numeric ids order numerically, everything else lexicographically.
    # isdecimal, not isdigit: "²" is a digit that int() rejects.
    if node_id.isdecimal():
        return (0, int(node_id), node_id)
    return (1, 0, node_id)


class RoadNodes(NamedTuple):
    """The node file, in file order: ids and projected coordinates in meters."""

    ids: list[str]
    xs: np.ndarray
    ys: np.ndarray


class RoadEdges(NamedTuple):
    """The edge file, in file order; a nan length means "use the Euclidean
    distance between the endpoints"."""

    from_node: list[str]
    to_node: list[str]
    length_m: np.ndarray
    road_class: list[str]


class RoadNetwork(NamedTuple):
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


def _positions(index: dict[str, int], keys: list[str]) -> np.ndarray:
    """index[key] for every key, -1 for a key not in index."""
    return np.array([index.get(k, -1) for k in keys], dtype=np.intp)


def _id_order(ids: list[str]) -> np.ndarray:
    """The positions of `ids` in `_node_sort_key` order."""
    keys = list(map(_node_sort_key, ids))
    return np.array(sorted(range(len(ids)), key=keys.__getitem__), dtype=np.intp)


def build_network(
    edges: RoadEdges,
    nodes: RoadNodes,
    allowed_classes: frozenset[str] | set[str] = DEFAULT_ROAD_CLASSES,
) -> RoadNetwork:
    """Assemble the graph from the loaded columns, keeping only edges of
    allowed classes, by `_build`: a nan length is the Euclidean distance,
    a kept edge with a missing endpoint or a length that is not positive
    and finite raises SchemaError, and isolated nodes are dropped. The kept
    ids are sorted once, by `_node_sort_key`. This is the general route of
    `load_road_network`, for road files of any form.
    """
    classes = edges.road_class
    keep = np.fromiter(map(allowed_classes.__contains__, classes), bool, len(classes))
    kept = np.flatnonzero(keep)
    index = dict(zip(nodes.ids, range(len(nodes.ids))))
    # file positions of the from and to node of every kept edge, in turn
    ends = np.empty(2 * len(kept), dtype=np.intp)
    ends[0::2] = _positions(index, edges.from_node)[kept]
    ends[1::2] = _positions(index, edges.to_node)[kept]
    del index
    length = edges.length_m[kept]
    del kept

    def edge_ids(k):  # only an error names an edge: find its row again
        i = int(np.flatnonzero(keep)[k])
        return edges.from_node[i], edges.to_node[i]

    def key_order(at):
        at = at[_id_order(list(map(nodes.ids.__getitem__, at.tolist())))]
        return at, list(map(nodes.ids.__getitem__, at.tolist()))

    return _build(nodes.xs, nodes.ys, ends, length, edge_ids, key_order)


def _build(xs, ys, ends, length, edge_ids, key_order) -> RoadNetwork:
    """The RoadNetwork of the kept edges, whose from and to nodes lie at
    positions ends[2k] and ends[2k + 1] of the coordinate arrays (-1 for an
    id not in the node file) and whose lengths are `length`, nan for the
    Euclidean distance between them. Both routes of the road stage end here.

    A kept edge with a missing endpoint, or with a length that is not
    positive and finite, raises SchemaError naming the ids `edge_ids(k)` of
    the first such edge k in file order. Isolated nodes are dropped:
    `key_order(at)` takes the positions of the others, in increasing order,
    and returns them in `_node_sort_key` order of their ids, with those
    ids. `length` is filled in place, and `ends` is overwritten by ranks
    and then by the neighbour of each CSR entry, becoming `nbr`, so no
    second array of its size outlives a step. Each CSR row keeps edge
    order; no distance depends on it.
    """
    found = np.minimum(ends[0::2], ends[1::2]) >= 0
    fill = np.isnan(length) & found
    with np.errstate(over="ignore", invalid="ignore"):
        if fill.any():  # so an empty node file is never indexed
            dx, dy = xs[ends[0::2]], ys[ends[0::2]]
            dx -= xs[ends[1::2]]
            dy -= ys[ends[1::2]]
            # not np.hypot, which may be an ulp off
            np.copyto(length, geometry.exact_hypot(dx, dy), where=fill)
            del dx, dy
        bad = ~(found & (length > 0) & (length < math.inf))
    if bad.any():
        k = int(bad.argmax())
        a, b = edge_ids(k)
        if not found[k]:
            missing = a if ends[2 * k] < 0 else b
            raise SchemaError(f"edge {a}-{b}: references missing node {missing!r}")
        raise SchemaError(f"edge {a}-{b}: non-positive length {float(length[k])}")
    del found, fill, bad
    at, ids = key_order(np.flatnonzero(np.bincount(ends, minlength=len(xs))))
    rank = np.empty(len(xs), dtype=np.intp)
    rank[at] = np.arange(len(ids))
    ends[:] = rank[ends]
    del rank
    order = np.argsort(ends, kind="stable")
    indptr = np.zeros(len(ids) + 1, dtype=np.intp)
    np.cumsum(np.bincount(ends, minlength=len(ids)), out=indptr[1:])
    order ^= 1  # the other end of each CSR entry's edge
    ends[:] = ends[order]
    order >>= 1  # the kept edge of each CSR entry
    return RoadNetwork(ids, xs[at], ys[at], indptr, ends, length[order])


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
    """Read a UTF-8 CSV file by `csv.reader`; return the matched entry of
    `headers`, the row number of every kept row and the stripped cells of
    every column, one list per header field.

    The header matches one of `headers` after stripping and lower-casing its
    cells. Rows whose cells are all blank are skipped; row numbers count the
    header as row 1. An empty file, a header that matches none of `headers`,
    a row whose width differs from the header's, or a file that is not UTF-8
    or not CSV raises SchemaError naming the path (and the row). These are
    checks on the whole file, made before the caller sees any cell, so they
    come before every error in a cell, wherever the two lie in the file.
    """
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


def parse_finite(cell: str, what: str, *args) -> float:
    """Parse one numeric cell: SchemaError if it is not a number, RangeError
    if it is nan or infinite. The message starts with what.format(*args),
    which is formatted only then; a path goes in args, not in what."""
    try:
        v = float(cell)
    except ValueError:
        raise SchemaError(f"{what.format(*args)}: non-numeric value {cell!r}") from None
    if not math.isfinite(v):
        raise RangeError(f"{what.format(*args)}: non-finite value {cell!r}")
    return v


def load_road_nodes(
    path: str,
    ref_lon: float | None = None,
    ref_lat: float | None = None,
) -> RoadNodes:
    """Read the node CSV; header decides the coordinate convention.

    `node_id,x,y` is taken as projected meters; `node_id,lon,lat` is
    projected with the supplied reference point at ingest. Every row is
    checked first, in file order: an empty or repeated id, or a coordinate
    that is not a finite number, raises the error of its row. Then the
    lon/lat points are projected all at once by `project_each`, and the
    first point off the local plane raises DomainError naming its row.
    """
    header, row_nos, (ids, raw_u, raw_v) = read_csv_table(path, _NODE_HEADERS, "node")
    geographic = header[1] == "lon"
    if geographic and (ref_lon is None or ref_lat is None):
        raise SchemaError(f"{path}: lon/lat nodes need a projection reference")
    u, v = np.empty(len(ids)), np.empty(len(ids))
    seen: set[str] = set()
    for k, (row_no, nid, cell_u, cell_v) in enumerate(zip(row_nos, ids, raw_u, raw_v)):
        if not nid:
            raise SchemaError(f"{path} row {row_no}: empty node_id")
        if nid in seen:
            raise SchemaError(f"{path} row {row_no}: duplicate node_id {nid!r}")
        seen.add(nid)
        u[k] = parse_finite(cell_u, "{} row {} {}", path, row_no, header[1])
        v[k] = parse_finite(cell_v, "{} row {} {}", path, row_no, header[2])
    if not geographic:
        return RoadNodes(ids, u, v)
    xs, ys = project_each(u, v, ref_lon, ref_lat, lambda k: f"{path} row {row_nos[k]}: ")
    return RoadNodes(ids, xs, ys)


def load_road_edges(path: str) -> RoadEdges:
    """Read the edge CSV: from_node,to_node,length_m,road_class.

    An empty length is nan. An empty endpoint id, or a length that is not
    a finite number, raises the error of the first such row.
    """
    _, row_nos, (a, b, raw_len, road_class) = read_csv_table(path, _EDGE_HEADERS, "edge")
    length = np.empty(len(a))
    for k, (row_no, from_id, to_id, cell) in enumerate(zip(row_nos, a, b, raw_len)):
        if not from_id or not to_id:
            raise SchemaError(f"{path} row {row_no}: empty endpoint id")
        length[k] = parse_finite(cell, "{} row {} length_m", path, row_no) if cell else math.nan
    return RoadEdges(a, b, length, road_class)


# Bytes that send a file to the general route: csv.reader reads a quote, CR
# or NUL apart anywhere, and after the header (whose cells `_matched_header`
# strips) str.strip would remove the others from the ends of a cell.
_CSV_SPECIAL = (b'"', b"\r", b"\0")
_NOT_PLAIN = tuple(bytes([c]) for c in b" \t\x0b\x0c\x1c\x1d\x1e\x1f")
_ID_DIGITS = 18  # so that every id is below 2**63 and fits an int64


def _read_plain(path: str, headers: Sequence[tuple[str, ...]]):
    """A strictly plain CSV file as (matched header, its bytes, the body
    after the header line as uint8, the end of every cell), or None.

    Strictly plain: a file that opens and reads, of ASCII text (after an
    optional UTF-8 BOM) with a header `_matched_header` accepts, at least
    one row, no `"`, CR or NUL, and after the header no byte that
    `str.isspace` matches, every line of the header's width and none
    longer than `csv.field_size_limit()`.
    ends[i, j] is the offset in the body of the comma or newline after
    cell j of row i (the body's length for a last line with no newline).
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:  # the general route reports it
        return None
    skip = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    eol = data.find(b"\n", skip)
    if eol < 0 or eol + 1 == len(data):  # an empty or header-only file
        return None
    if any(data.find(c, skip) >= 0 for c in _CSV_SPECIAL):
        return None
    if any(data.find(c, eol) >= 0 for c in _NOT_PLAIN):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw[skip:].max() > 127:
        return None
    header = data[skip:eol].decode("ascii")
    try:
        matched = _matched_header(path, header.split(",") if header else [], headers)
    except SchemaError:
        return None
    width = len(matched)
    body = raw[eol + 1 :]
    rows = data.count(b"\n", eol + 1) + (body[-1] != 10)
    if data.count(b",", eol + 1) != rows * (width - 1):
        return None
    ends = np.flatnonzero((body == 44) | (body == 10))  # every comma and newline
    if body[-1] != 10:
        ends = np.append(ends, len(body))
    ends = ends.reshape(rows, width)
    if not (body[ends[:-1, -1]] == 10).all():  # so each line holds width - 1 commas
        return None
    limit = csv.field_size_limit()
    # each line's length plus its newline, for a file that may hold a long line
    if len(body) > limit and np.diff(ends[:, -1], prepend=-1).max() > limit + 1:
        return None
    return matched, data, body, ends


def _cells(ends: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """The start and end offsets in the body of every cell of column j."""
    if j:
        return ends[:, j - 1] + 1, ends[:, j]
    start = np.zeros(len(ends), dtype=ends.dtype)
    start[1:] = ends[:-1, -1] + 1
    return start, ends[:, 0]


def _decimal_ids(body: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The int64 value of every cell body[start[k]:end[k]], read one digit
    position at a time; None unless every cell is a decimal number as
    str() writes an int (ASCII digits only, no sign, no leading zero) of at
    most _ID_DIGITS digits."""
    size = end - start
    if size.min() < 1 or size.max() > _ID_DIGITS:
        return None
    if ((body[start] == 48) & (size > 1)).any():  # a leading zero
        return None
    value = np.zeros(len(start), dtype=np.int64)
    for k in range(int(size.max())):
        rows = np.flatnonzero(size > k)
        digit = body[start[rows] + k]
        if ((digit < 48) | (digit > 57)).any():
            return None
        value[rows] = value[rows] * 10 + (digit - 48)
    return value


def _equal_cells(
    body: np.ndarray, start: np.ndarray, end: np.ndarray, words: frozenset[str] | set[str]
) -> np.ndarray:
    """Mask of the cells body[start[k]:end[k]] equal to one of `words`,
    compared one byte position at a time on the shrinking candidates."""
    size = end - start
    hit = np.zeros(len(start), dtype=bool)
    for word in words:
        if not word.isascii():  # equal to no ASCII cell
            continue
        rows = np.flatnonzero(size == len(word))
        for k, byte in enumerate(word.encode("ascii")):
            rows = rows[body[start[rows] + k] == byte]
        hit[rows] = True
    return hit


def _loadtxt(data: bytes, columns: tuple[int, ...]) -> np.ndarray | None:
    """The given columns of every row after the header, as float64 by
    numpy's C reader (`float()`'s own parse, bit for bit), or None if it
    rejects a cell."""
    try:
        return np.loadtxt(
            io.BytesIO(data), delimiter=",", comments=None, skiprows=1,
            usecols=columns, ndmin=2, dtype=np.float64,
        )
    except ValueError:
        return None


def _plain_nodes(path: str, ref_lon: float | None, ref_lat: float | None):
    """A strictly plain node file with decimal distinct ids and valid
    points as (ids, xs, ys) in increasing id order, ids as int64; or None."""
    plain = _read_plain(path, _NODE_HEADERS)
    if plain is None:
        return None
    header, data, body, ends = plain
    geographic = header[1] == "lon"
    if geographic and (ref_lon is None or ref_lat is None):
        return None
    ids = _decimal_ids(body, *_cells(ends, 0))
    if ids is None:
        return None
    del plain, body, ends
    table = _loadtxt(data, (1, 2))
    if table is None:
        return None
    del data
    xs, ys = table[:, 0], table[:, 1]
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        return None
    if geographic:
        with np.errstate(over="ignore", invalid="ignore"):
            xs, ys, valid = project_points(xs, ys, ref_lon, ref_lat)
        if not valid.all():
            return None
    order = np.argsort(ids)
    ids = ids[order]
    if (ids[1:] == ids[:-1]).any():  # a repeated id
        return None
    return ids, xs[order], ys[order]


def _plain_road_network(
    nodes_path: str,
    edges_path: str,
    allowed_classes: frozenset[str] | set[str],
    ref_lon: float | None,
    ref_lat: float | None,
) -> RoadNetwork | None:
    """`load_road_network` by the numeric route, or None where that route
    declines."""
    nodes = _plain_nodes(nodes_path, ref_lon, ref_lat)
    if nodes is None:
        return None
    node_ids, xs, ys = nodes
    plain = _read_plain(edges_path, _EDGE_HEADERS)
    if plain is None:
        return None
    _, data, body, ends = plain
    del plain
    # the from and to node of every edge, in turn
    wanted = np.empty((len(ends), 2), dtype=np.int64)
    for j in (0, 1):
        ids = _decimal_ids(body, *_cells(ends, j))
        if ids is None:
            return None
        wanted[:, j] = ids
    start, end = _cells(ends, 2)
    given = end > start  # a length in the cell
    kept = np.flatnonzero(_equal_cells(body, *_cells(ends, 3), allowed_classes))
    del body, ends, start, end, ids
    length = None  # no length given: every length is nan, the Euclidean one
    if given.any():
        # numpy's reader rejects an empty cell; with both ids read, each
        # ",," is an empty length, which becomes nan, the Euclidean length
        table = _loadtxt(data.replace(b",,", b",nan,"), (2,))
        if table is None or not np.isfinite(table[given]).all():
            return None
        length = table[kept, 0]
        del table
    del data, given
    # the position in id order of each end of every kept edge, found by
    # binary search and then checked to be that id
    wanted = wanted[kept].ravel()
    del kept
    ends = np.searchsorted(node_ids, wanted)
    if not (node_ids[np.minimum(ends, len(node_ids) - 1)] == wanted).all():
        return None  # a kept edge's endpoint is not in the node file
    del wanted
    if length is None:  # made only now, so the search above does not hold it
        length = np.full(len(ends) // 2, math.nan)
    return _build(
        xs, ys, ends, length,
        lambda k: tuple(map(str, node_ids[ends[2 * k : 2 * k + 2]].tolist())),
        lambda at: (at, list(map(str, node_ids[at].tolist()))),  # ids in increasing order
    )


def load_road_network(
    nodes_path: str,
    edges_path: str,
    allowed_classes: frozenset[str] | set[str] = DEFAULT_ROAD_CLASSES,
    ref_lon: float | None = None,
    ref_lat: float | None = None,
) -> RoadNetwork:
    """Read both road files and build the graph: the network, or the
    error, of nodes = load_road_nodes(nodes_path, ref_lon, ref_lat) and
    then build_network(load_road_edges(edges_path), nodes,
    allowed_classes), bit for bit; the node file is checked first.

    Strictly plain files take a numeric route: the ids are read from their
    digits, numpy's C reader parses the coordinate and length columns, the
    nodes are ordered by their int64 ids and each edge end is found by
    binary search, and an edge is kept when its class cell equals an
    allowed class byte for byte. Both files must be strictly plain for
    `_read_plain`, their ids decimal numbers as `_decimal_ids` reads them,
    the node ids distinct, every coordinate finite and valid for
    `project_points`, every given length finite, and every kept edge's
    endpoints in the node file. Where any of this fails, or the reader
    rejects a cell, or a read fails, the numeric route declines and the
    general route runs from the start, so that every error keeps its type,
    its message and its order. Both routes end in `_build`, which raises
    the error of a kept edge's length.
    """
    net = _plain_road_network(nodes_path, edges_path, allowed_classes, ref_lon, ref_lat)
    if net is None:
        nodes = load_road_nodes(nodes_path, ref_lon, ref_lat)
        net = build_network(load_road_edges(edges_path), nodes, allowed_classes)
    return net


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
    # every block reuses these rows: at 10^5 nodes (one point a block) fresh
    # arrays for each block made the whole call about 8% slower
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

    One Dijkstra pass over a heap initialised with all source indices,
    reading `indptr`, `nbr` and `length` in place through memoryviews,
    whose items are the same Python ints and floats as list copies would
    hold. Nodes with no path to any source get inf. No pop order changes a
    distance: for w > 0, fl(d + w) >= d and never falls as d grows.
    """
    if not sources:
        raise DomainError("source set is empty")
    n = len(net.ids)
    missing = [s for s in sources if not 0 <= s < n]
    if missing:
        raise DomainError(f"source nodes not in network: {sorted(missing)}")
    # list copies of the three arrays would be the call's largest transient
    indptr, nbr, length = memoryview(net.indptr), memoryview(net.nbr), memoryview(net.length)
    dist = [math.inf] * n
    for s in sources:
        dist[s] = 0.0
    heap = [(0.0, s) for s in sources]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        # by position: slicing two memoryviews per settled node cost more
        for k in range(indptr[u], indptr[u + 1]):
            v = nbr[k]
            nd = d + length[k]
            if nd < dist[v]:
                dist[v] = nd
                heappush(heap, (nd, v))
    return np.array(dist, dtype=float)


def sampling_grid_size(mode: str) -> int | None:
    """K of ace_net_mode "grid-K", 1 <= K <= MAX_GRID_K, None for
    "centroid"; DomainError otherwise, before any sample is allocated."""
    m = re.fullmatch(r"centroid|grid-([1-9][0-9]{0,2})", mode)  # int() of 3 digits at most
    if m is None or (m[1] and int(m[1]) > MAX_GRID_K):
        raise DomainError(
            f"bad sampling mode {mode!r}: expected 'centroid' or 'grid-K', 1 <= K <= {MAX_GRID_K}"
        )
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
