"""Load tract geometries, provider points and demographics; build the
ten-variable analysis table.

Inputs are deliberately plain: a GeoJSON FeatureCollection for tracts, and
comma-delimited UTF-8 CSVs with mandatory headers for everything else. The
tracts are loaded once into the packed `geometry.Tracts` that every later
stage reads; the table carries the index of each retained tract into it.
Tracts with any missing, unreachable or unsnappable value are dropped with
an audit reason rather than imputed.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
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
    ProjectedPoint,
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


@dataclass
class ProviderPoint:
    """A food provider with its service-buffer radius."""

    id: str
    kind: str
    location: ProjectedPoint
    radius_m: float


@dataclass
class DemographicRecord:
    """One tract's demographic row; missing cells stay None, never zero."""

    tract_id: str
    values: dict[str, float | None]


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


def _add_positions(geometry: dict, context: str, lons, lats, ring_sizes, ring_counts) -> int:
    """Append the lons and lats (as floats) of every position of a Polygon or
    MultiPolygon geometry, the size of each ring and the ring count of each
    part; return its part count. A malformed geometry raises the error of
    its JSON shape (TypeError, ...)."""
    gtype = geometry.get("type")
    if gtype == "Polygon":
        ring_sets = [geometry["coordinates"]]
    elif gtype == "MultiPolygon":
        ring_sets = geometry["coordinates"]
    else:
        raise SchemaError(f"{context}: unsupported geometry type {gtype!r}")
    rings = [ring for rings in ring_sets for ring in rings]
    positions = [position for ring in rings for position in ring]
    if min(map(len, positions), default=2) < 2:
        raise ValueError("a position needs a longitude and a latitude")
    # a position may carry an altitude (RFC 7946 section 3.1.1); it is ignored
    lon = list(map(itemgetter(0), positions))
    lat = list(map(itemgetter(1), positions))
    if not set(map(type, lon + lat)) <= {int, float}:  # the type of true is bool, not int
        bad = next(v for v in lon + lat if type(v) not in (int, float))
        raise TypeError(f"coordinate {bad!r} is not a number")
    lons += map(float, lon)  # OverflowError for an integer beyond the float range
    lats += map(float, lat)
    ring_sizes += map(len, rings)
    ring_counts += map(len, ring_sets)
    return len(ring_sets)


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


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
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except ValueError as exc:  # bad JSON, bad UTF-8, or a NaN/Infinity literal
        raise SchemaError(f"{path}: not a UTF-8 JSON file: {exc}") from None
    features = doc.get("features", []) if isinstance(doc, dict) else None
    if not isinstance(features, list) or doc.get("type") != "FeatureCollection":
        raise SchemaError(f"{path}: expected a FeatureCollection")
    ids: list[str] = []
    geometries: list[dict] = []
    lons: list[float] = []  # of every position, in file order
    lats: list[float] = []
    ring_sizes, ring_counts, part_counts = [], [], []
    ends: list[int] = []  # of the positions of each feature
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
            parts = _add_positions(
                geometry, f"tract {tract_id}", lons, lats, ring_sizes, ring_counts
            )
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            # a non-object where an object belongs, a missing or non-numeric coordinate
            raise SchemaError(f"{path}: feature {idx} is not a valid feature: {exc!r}") from None
        ids.append(tract_id)
        geometries.append(geometry)
        part_counts.append(parts)
        ends.append(len(lons))
    lon, lat = np.array(lons, dtype=float), np.array(lats, dtype=float)
    del lons, lats
    with np.errstate(over="ignore", invalid="ignore"):
        x, y, valid = project_points(lon, lat, ref_lon, ref_lat)
    if not valid.all():  # the first point off the plane raises its error
        k = int(valid.argmin())
        idx = int(np.searchsorted(ends, k, side="right"))
        where = f"{path}: feature {idx} (tract {ids[idx]}): "
        project_lonlat(float(lon[k]), float(lat[k]), ref_lon, ref_lat, where)
    return pack_tracts(ids, geometries, x, y, ring_sizes, ring_counts, part_counts)


def load_providers(path: str, ref_lon: float, ref_lat: float) -> list[ProviderPoint]:
    """Read the provider CSV: id,kind,lon,lat[,radius_m].

    An empty radius falls back to the kind default. A bare `grocery` kind
    (no size class) is treated as grocery_large with a logged warning.
    """
    header = ("id", "kind", "lon", "lat")
    _, row_nos, columns = read_csv_table(path, [header, (*header, "radius_m")], "provider")
    providers: list[ProviderPoint] = []
    seen: set[str] = set()
    for row_no, pid, kind, raw_lon, raw_lat, *raw_radius in zip(row_nos, *columns):
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
            kind = "grocery_large"
        if kind not in KIND_RADII:
            raise SchemaError(f"{path} row {row_no}: unknown provider kind {kind!r}")
        lon = parse_finite(raw_lon, f"{path} row {row_no} lon")
        lat = parse_finite(raw_lat, f"{path} row {row_no} lat")
        if any(raw_radius):
            radius = parse_finite(raw_radius[0], f"{path} row {row_no} radius_m")
            if radius <= 0:
                raise RangeError(f"{path} row {row_no}: radius must be > 0")
        else:
            radius = KIND_RADII[kind]
        providers.append(
            ProviderPoint(
                id=pid,
                kind=kind,
                location=project_lonlat(lon, lat, ref_lon, ref_lat, f"{path} row {row_no}: "),
                radius_m=radius,
            )
        )
    return providers


def load_demographics(path: str) -> list[DemographicRecord]:
    """Read the demographic CSV; empty cells become missing values.

    Every value must be finite, percent columns must land in [0, 100] and
    AV_POP must be nonnegative, otherwise RangeError names the tract.
    """
    _, row_nos, columns = read_csv_table(
        path, [("tract_id", *DEMOGRAPHIC_COLUMNS)], "demographics"
    )
    records: list[DemographicRecord] = []
    seen: set[str] = set()
    for row_no, tract_id, *cells in zip(row_nos, *columns):
        if not tract_id:
            raise SchemaError(f"{path} row {row_no}: empty tract_id")
        if tract_id in seen:
            raise SchemaError(f"{path} row {row_no}: duplicate tract_id {tract_id!r}")
        seen.add(tract_id)
        values: dict[str, float | None] = {}
        for name, cell in zip(DEMOGRAPHIC_COLUMNS, cells):
            if cell == "":
                values[name] = None
                continue
            v = parse_finite(cell, f"{path} row {row_no}: {name} for tract {tract_id}")
            if name in PERCENT_COLUMNS and not (0.0 <= v <= 100.0):
                raise RangeError(
                    f"tract {tract_id}: {name}={v} outside [0, 100]"
                )
            if name == "AV_POP" and v < 0:
                raise RangeError(f"tract {tract_id}: AV_POP={v} is negative")
            values[name] = v
        records.append(DemographicRecord(tract_id=tract_id, values=values))
    return records


def assemble_variable_table(
    tracts: Tracts,
    providers: list[ProviderPoint],
    net: RoadNetwork,
    demographics: list[DemographicRecord],
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
    supermarkets = [p for p in providers if p.kind == "supermarket"]
    if not supermarkets:
        raise DomainError("no supermarket providers; ACE_NET is undefined")
    order = sorted(range(len(tracts.ids)), key=tracts.ids.__getitem__)
    px, py, owner = origin_points(tracts, order, ace_net_mode)
    s = len(supermarkets)
    sx, sy = zip(*(p.location for p in supermarkets))
    node, dist = snap_points(net, np.concatenate([sx, px]), np.concatenate([sy, py]))
    for p, i, d in zip(supermarkets, node[:s].tolist(), dist[:s].tolist()):
        if d > max_snap_m:
            msg = f"nearest node {net.ids[i]!r} is {d:.1f} m away (max {max_snap_m:.0f} m)"
            raise SnapError(f"supermarket {p.id}: {msg}", d)
    distances = multisource_shortest_distances(net, set(node[:s].tolist()))
    # reversed, so that dict() keeps each tract's first point beyond max_snap_m
    far = np.flatnonzero(dist[s:] > max_snap_m)[::-1]
    unsnappable = dict(zip(owner[far].tolist(), dist[s:][far].tolist()))
    reached = distances[node[s:]]
    ok = np.isfinite(reached)
    counts = np.bincount(owner[ok], minlength=len(order))
    # bincount adds each tract's distances left to right in point order from 0.0
    ace_net = np.bincount(owner[ok], reached[ok], len(order)) / np.maximum(counts, 1)

    demo_by_id = {rec.tract_id: rec for rec in demographics}
    retained: list[int] = []
    rows: list[list[float]] = []
    dropped: list[tuple[str, str]] = []
    for pos, (i, count, mean) in enumerate(zip(order, counts.tolist(), ace_net.tolist())):
        tract_id = tracts.ids[i]
        rec = demo_by_id.get(tract_id)
        if rec is None:
            dropped.append((tract_id, "missing demographics"))
            continue
        missing = [name for name in DEMOGRAPHIC_COLUMNS if rec.values[name] is None]
        if missing:
            dropped.append((tract_id, f"missing {missing[0]}"))
            continue
        if pos in unsnappable:
            dropped.append((tract_id, f"unsnappable ({unsnappable[pos]:.0f} m)"))
            continue
        if not count:
            dropped.append((tract_id, "unreachable"))
            continue
        row = [0.0, rec.values["AV_POP"], mean]  # AV_INT is filled in below
        row += (rec.values[name] for name in VARIABLE_COLUMNS[3:])
        retained.append(i)
        rows.append(row)
    for tract_id, reason in dropped:
        log.warning("dropping tract %s: %s", tract_id, reason)
    for tract_id in sorted(demo_by_id.keys() - set(tracts.ids)):
        log.warning("ignoring demographics row %s: no tract geometry", tract_id)
    if not rows:
        raise EmptyTableError("all tracts were dropped; nothing to analyze")
    index = np.array(retained, dtype=np.intp)
    values = np.array(rows, dtype=float)
    values[:, 0] = availability_counts(
        tracts, index, [(p.location, p.radius_m) for p in providers]
    )
    return VariableTable(
        tract_ids=[tracts.ids[i] for i in retained],
        values=values,
        index=index,
        dropped=dropped,
    )
