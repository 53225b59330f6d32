"""Load tract geometries, provider points and demographics; build the
ten-variable analysis table.

Inputs are deliberately plain: a GeoJSON FeatureCollection for tracts, and
comma-delimited UTF-8 CSVs with mandatory headers for everything else. The
tracts are loaded once into the packed `geometry.Tracts` that every later
stage reads; the table carries the index of each retained tract into it.
Like the road files, the providers and demographics load as columns:
`Providers` holds projected coordinates and radii as arrays, and
`Demographics` one float array with nan for an empty cell. Tracts with
any missing, unreachable or unsnappable value are dropped with an audit
reason rather than imputed.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter

import numpy as np

from .errors import (
    DomainError,
    EmptyTableError,
    RangeError,
    SchemaError,
    SnapError,
)
from .geometry import (
    Tracts,
    availability_counts,
    pack_tracts,
    project_lonlat,
    project_points,
)
from .network import (
    DEFAULT_SNAP_MAX_M,
    RoadNetwork,
    multisource_shortest_distances,
    origin_points,
    parse_finite,
    read_csv_table,
    snap_points,
)

log = logging.getLogger(__name__)

# Column order of the variable table; everything downstream relies on it.
VARIABLE_COLUMNS = (
    "AV_INT",
    "AV_POP",
    "ACE_NET",
    "ACE_NV",
    "ACE_ELD",
    "ACE_DIS",
    "AFF_POV",
    "AFF_UNEMP",
    "ACO_ENG",
    "ACO_SNAP",
)

# Demographic CSV columns, in header order. AV_POP is a density; the rest
# are percentages in [0, 100].
DEMOGRAPHIC_COLUMNS = (
    "AV_POP",
    "ACE_NV",
    "ACE_ELD",
    "ACE_DIS",
    "AFF_POV",
    "AFF_UNEMP",
    "ACO_ENG",
    "ACO_SNAP",
)

PERCENT_COLUMNS = frozenset(DEMOGRAPHIC_COLUMNS) - {"AV_POP"}

# Default buffer radius per provider kind, meters.
KIND_RADII = {
    "supermarket": 3000.0,
    "grocery_large": 1600.0,
    "grocery_small": 800.0,
    "produce_cart": 500.0,
    "farmers_market": 1000.0,
}


@dataclass(frozen=True, eq=False)
class Providers:
    """The provider file, in file order: provider k is ids[k], of kind
    kinds[k], with a buffer of radius[k] meters around (xs[k], ys[k])."""

    ids: list[str]
    kinds: list[str]
    xs: np.ndarray
    ys: np.ndarray
    radius: np.ndarray


@dataclass(frozen=True, eq=False)
class Demographics:
    """The demographic file, in file order: row k of values is tract ids[k],
    its columns in DEMOGRAPHIC_COLUMNS order; an empty cell is nan, never zero."""

    ids: list[str]
    values: np.ndarray  # shape (m, 8)


@dataclass
class VariableTable:
    """tract x 10 analysis matrix plus the drop audit; row i is the tract
    index[i] of the loaded Tracts, tract_ids[i]."""

    tract_ids: list[str]
    values: np.ndarray  # shape (n, 10), columns per VARIABLE_COLUMNS
    index: np.ndarray
    dropped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.tract_ids)


def _add_positions(
    geometry: dict, context: str, lons, lats, ring_sizes, ring_counts
) -> tuple[int, bool]:
    """Append the lons and lats (as floats) of every position of a Polygon or
    MultiPolygon geometry, the size of each ring and the ring count of each
    part; return its part count and whether it is plain (see
    `geometry.Tracts`). A malformed geometry raises the error of its JSON
    shape (TypeError, ...)."""
    gtype = geometry.get("type")
    if gtype == "Polygon":
        ring_sets = [geometry["coordinates"]]
    elif gtype == "MultiPolygon":
        ring_sets = geometry["coordinates"]
    else:
        raise SchemaError(f"{context}: unsupported geometry type {gtype!r}")
    rings = [ring for rings in ring_sets for ring in rings]
    positions = [position for ring in rings for position in ring]
    sizes = set(map(len, positions))
    if min(sizes, default=2) < 2:
        raise ValueError("a position needs a longitude and a latitude")
    # a position may carry an altitude (RFC 7946 section 3.1.1); it is ignored
    lon = list(map(itemgetter(0), positions))
    lat = list(map(itemgetter(1), positions))
    types = set(map(type, lon + lat))
    if not types <= {int, float}:  # the type of true is bool, not int
        bad = next(v for v in lon + lat if type(v) not in (int, float))
        raise TypeError(f"coordinate {bad!r} is not a number")
    lons += map(float, lon)  # OverflowError for an integer beyond the float range
    lats += map(float, lat)
    ring_sizes += map(len, rings)
    ring_counts += map(len, ring_sets)
    plain = types == {float} and sizes == {2} and list(geometry) == ["type", "coordinates"]
    return len(ring_sets), plain


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def _read_features(path: str):
    """Parse the tracts file and check every feature, in file order.

    Returns the tract ids; the lons and lats of every position, as float
    arrays; the ring sizes, the ring count of each part and the part count
    of each tract; whether each tract is a MultiPolygon, and its geometry
    object if that is not plain; and the end of each tract's positions.
    The rest of the parse tree is freed when this returns."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except ValueError as exc:  # bad JSON, bad UTF-8, or a NaN/Infinity literal
        raise SchemaError(f"{path}: not a UTF-8 JSON file: {exc}") from None
    features = doc.get("features", []) if isinstance(doc, dict) else None
    if not isinstance(features, list) or doc.get("type") != "FeatureCollection":
        raise SchemaError(f"{path}: expected a FeatureCollection")
    ids: list[str] = []
    multi: list[bool] = []
    verbatim: list[dict | None] = []
    lons: list[float] = []  # of every position, in file order
    lats: list[float] = []
    ring_sizes, ring_counts, part_counts = [], [], []
    ends: list[int] = []
    seen: set[str] = set()
    for idx, feature in enumerate(features):
        try:
            props = feature.get("properties") or {}
            tract_id = props.get("tract_id")
            if tract_id is None:
                raise SchemaError(f"{path}: feature {idx} has no tract_id property")
            tract_id = str(tract_id)
            if not tract_id:
                raise SchemaError(f"{path}: feature {idx} has an empty tract_id")
            if tract_id in seen:
                raise SchemaError(f"{path}: duplicate tract_id {tract_id!r}")
            seen.add(tract_id)
            geometry = feature.get("geometry") or {}
            parts, plain = _add_positions(
                geometry, f"tract {tract_id}", lons, lats, ring_sizes, ring_counts
            )
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            # a non-object where an object belongs, a missing or non-numeric coordinate
            raise SchemaError(f"{path}: feature {idx} is not a valid feature: {exc!r}") from None
        ids.append(tract_id)
        multi.append(geometry["type"] == "MultiPolygon")
        verbatim.append(None if plain else geometry)
        part_counts.append(parts)
        ends.append(len(lons))
    lon, lat = np.array(lons, dtype=float), np.array(lats, dtype=float)
    return ids, lon, lat, ring_sizes, ring_counts, part_counts, multi, verbatim, ends


def load_tracts(path: str, ref_lon: float, ref_lat: float) -> Tracts:
    """Read a FeatureCollection of Polygon/MultiPolygon tracts into one
    packed `Tracts`, in file order.

    Every feature needs a unique, non-empty `tract_id` property and
    coordinates that are JSON numbers (true and false are not). All
    features are checked first, in file order, so a schema fault anywhere
    in the file is reported before any geometry fault. Then every position
    is projected into local meters about (ref_lon, ref_lat) at once; the
    first point off the local plane raises DomainError naming its feature
    and tract, and a degenerate ring or part fails with its tract id
    attached.

    The parse tree is freed before the positions are projected: `Tracts`
    holds the positions as arrays, and of the parsed objects only the
    geometry of a tract whose geometry is not plain.
    """
    ids, lon, lat, ring_sizes, ring_counts, part_counts, multi, verbatim, ends = (
        _read_features(path)
    )
    # Python takes small objects from 1 MiB arenas and gives an arena back to
    # the system only once all of it is free, so the id strings, left in the
    # freed tree, would keep nearly all of its memory resident for the run.
    # They are copied out of it once it is gone.
    joined, stops = "".join(ids), list(accumulate(map(len, ids)))
    del ids
    ids = [joined[a:b] for a, b in zip([0, *stops], stops)]
    del joined
    with np.errstate(over="ignore", invalid="ignore"):
        x, y, valid = project_points(lon, lat, ref_lon, ref_lat)
    if not valid.all():  # the first point off the plane raises its error
        k = int(valid.argmin())
        idx = int(np.searchsorted(ends, k, side="right"))
        where = f"{path}: feature {idx} (tract {ids[idx]}): "
        project_lonlat(float(lon[k]), float(lat[k]), ref_lon, ref_lat, where)
    return pack_tracts(
        ids, lon, lat, x, y, ring_sizes, ring_counts, part_counts, multi, verbatim
    )


def load_providers(path: str, ref_lon: float, ref_lat: float) -> Providers:
    """Read the provider CSV: id,kind,lon,lat[,radius_m].

    An empty radius falls back to the kind default. A bare `grocery` kind
    (no size class) is treated as grocery_large with a logged warning.
    Every row is checked first, in file order; then every location is
    projected at once, and the first point off the local plane raises
    DomainError naming its row.
    """
    header = ("id", "kind", "lon", "lat")
    _, row_nos, (ids, kinds, *columns) = read_csv_table(
        path, [header, (*header, "radius_m")], "provider"
    )
    lons, lats, radii = [], [], []
    seen: set[str] = set()
    rows = zip(row_nos, ids, kinds, *columns)
    for k, (row_no, pid, kind, raw_lon, raw_lat, *raw_radius) in enumerate(rows):
        if not pid:
            raise SchemaError(f"{path} row {row_no}: empty provider id")
        if pid in seen:
            raise SchemaError(f"{path} row {row_no}: duplicate provider id {pid!r}")
        seen.add(pid)
        if kind == "grocery":
            log.warning(
                "%s row %d: provider %s has no grocery size class; assuming grocery_large",
                path,
                row_no,
                pid,
            )
            kind = kinds[k] = "grocery_large"
        if kind not in KIND_RADII:
            raise SchemaError(f"{path} row {row_no}: unknown provider kind {kind!r}")
        lons.append(parse_finite(raw_lon, f"{path} row {row_no} lon"))
        lats.append(parse_finite(raw_lat, f"{path} row {row_no} lat"))
        if any(raw_radius):
            radius = parse_finite(raw_radius[0], f"{path} row {row_no} radius_m")
            if radius <= 0:
                raise RangeError(f"{path} row {row_no}: radius must be > 0")
        else:
            radius = KIND_RADII[kind]
        radii.append(radius)
    lon, lat = np.array(lons, dtype=float), np.array(lats, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        x, y, valid = project_points(lon, lat, ref_lon, ref_lat)
    if not valid.all():  # the first point off the plane raises its error
        k = int(valid.argmin())
        project_lonlat(lons[k], lats[k], ref_lon, ref_lat, f"{path} row {row_nos[k]}: ")
    return Providers(ids, kinds, x, y, np.array(radii, dtype=float))


def load_demographics(path: str) -> Demographics:
    """Read the demographic CSV; empty cells become nan, a missing value.

    Every value must be finite, percent columns must land in [0, 100] and
    AV_POP must be nonnegative, otherwise RangeError names the file, the row
    and the tract.
    """
    _, row_nos, (ids, *columns) = read_csv_table(
        path, [("tract_id", *DEMOGRAPHIC_COLUMNS)], "demographics"
    )
    rows: list[list[float]] = []
    seen: set[str] = set()
    for row_no, tract_id, *cells in zip(row_nos, ids, *columns):
        if not tract_id:
            raise SchemaError(f"{path} row {row_no}: empty tract_id")
        if tract_id in seen:
            raise SchemaError(f"{path} row {row_no}: duplicate tract_id {tract_id!r}")
        seen.add(tract_id)
        row: list[float] = []
        for name, cell in zip(DEMOGRAPHIC_COLUMNS, cells):
            if cell == "":
                row.append(math.nan)
                continue
            v = parse_finite(cell, f"{path} row {row_no}: {name} for tract {tract_id}")
            if name in PERCENT_COLUMNS and not (0.0 <= v <= 100.0):
                msg = f"tract {tract_id}: {name}={v} outside [0, 100]"
                raise RangeError(f"{path} row {row_no}: {msg}")
            if name == "AV_POP" and v < 0:
                raise RangeError(f"{path} row {row_no}: tract {tract_id}: AV_POP={v} is negative")
            row.append(v)
        rows.append(row)
    return Demographics(ids, np.array(rows, dtype=float).reshape(-1, len(DEMOGRAPHIC_COLUMNS)))


def assemble_variable_table(
    tracts: Tracts,
    providers: Providers,
    net: RoadNetwork,
    demographics: Demographics,
    *,
    ace_net_mode: str = "centroid",
    max_snap_m: float = DEFAULT_SNAP_MAX_M,
) -> VariableTable:
    """Join geometry, network and demographics into the n x 10 matrix.

    AV_INT counts provider-buffer intersections, and the demographic
    columns join by tract_id. ACE_NET is a tract's mean network distance to
    the nearest supermarket over its origin points that reach one: one
    snap_points call takes the supermarkets and every origin point, and one
    multi-source Dijkstra pass runs from the supermarket nodes. Tracts with
    any missing or unreachable value, or with an origin point beyond
    max_snap_m from every road node, land in `dropped` with a reason; rows
    are ordered by tract_id so the output is independent of input file
    order. Demographics rows without tract geometry are ignored with a
    warning. The first supermarket beyond max_snap_m raises SnapError.
    """
    supermarkets = np.flatnonzero([kind == "supermarket" for kind in providers.kinds])
    if not len(supermarkets):
        raise DomainError("no supermarket providers; ACE_NET is undefined")
    order = sorted(range(len(tracts.ids)), key=tracts.ids.__getitem__)
    px, py, owner = origin_points(tracts, order, ace_net_mode)
    s = len(supermarkets)
    sx, sy = providers.xs[supermarkets], providers.ys[supermarkets]
    node, dist = snap_points(net, np.concatenate([sx, px]), np.concatenate([sy, py]))
    for k, i, d in zip(supermarkets.tolist(), node[:s].tolist(), dist[:s].tolist()):
        if d > max_snap_m:
            msg = f"nearest node {net.ids[i]!r} is {d:.1f} m away (max {max_snap_m:.0f} m)"
            raise SnapError(f"supermarket {providers.ids[k]}: {msg}", d)
    distances = multisource_shortest_distances(net, set(node[:s].tolist()))
    # reversed, so that dict() keeps each tract's first point beyond max_snap_m
    far = np.flatnonzero(dist[s:] > max_snap_m)[::-1]
    unsnappable = dict(zip(owner[far].tolist(), dist[s:][far].tolist()))
    reached = distances[node[s:]]
    ok = np.isfinite(reached)
    counts = np.bincount(owner[ok], minlength=len(order))
    # bincount adds each tract's distances left to right in point order from 0.0
    ace_net = np.bincount(owner[ok], reached[ok], len(order)) / np.maximum(counts, 1)

    row_of = dict(zip(demographics.ids, range(len(demographics.ids))))
    blank = np.isnan(demographics.values)
    first_blank = np.where(blank.any(axis=1), blank.argmax(axis=1), -1).tolist()
    kept: list[int] = []  # positions in order
    rows: list[int] = []  # and the demographics row of each
    dropped: list[tuple[str, str]] = []
    for pos, (i, count) in enumerate(zip(order, counts.tolist())):
        tract_id = tracts.ids[i]
        row = row_of.get(tract_id)
        if row is None:
            dropped.append((tract_id, "missing demographics"))
        elif first_blank[row] >= 0:
            dropped.append((tract_id, f"missing {DEMOGRAPHIC_COLUMNS[first_blank[row]]}"))
        elif pos in unsnappable:
            dropped.append((tract_id, f"unsnappable ({unsnappable[pos]:.0f} m)"))
        elif not count:
            dropped.append((tract_id, "unreachable"))
        else:
            kept.append(pos)
            rows.append(row)
    for tract_id, reason in dropped:
        log.warning("dropping tract %s: %s", tract_id, reason)
    for tract_id in sorted(row_of.keys() - set(tracts.ids)):
        log.warning("ignoring demographics row %s: no tract geometry", tract_id)
    if not kept:
        raise EmptyTableError("all tracts were dropped; nothing to analyze")
    index = np.array(order, dtype=np.intp)[kept]
    av_int = availability_counts(tracts, index, providers.xs, providers.ys, providers.radius)
    demo = demographics.values[rows]
    return VariableTable(
        tract_ids=[tracts.ids[i] for i in index.tolist()],
        values=np.column_stack([av_int, demo[:, :1], ace_net[kept], demo[:, 1:]]),
        index=index,
        dropped=dropped,
    )
