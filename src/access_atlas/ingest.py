"""Load tract geometries, provider points and demographics; build the
ten-variable analysis table.

Inputs are deliberately plain: a GeoJSON FeatureCollection for tracts, and
comma-delimited UTF-8 CSVs with mandatory headers for everything else.
Tracts with any missing, unreachable or unsnappable value are dropped with
an audit reason rather than imputed.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateGeometry,
    DomainError,
    EmptyTableError,
    RangeError,
    SchemaError,
    SnapError,
)
from .geometry import (
    Polygon,
    ProjectedPoint,
    availability_counts,
    parts_area_centroid,
    project_lonlat,
)
from .network import (
    DEFAULT_SNAP_MAX_M,
    RoadNetwork,
    multisource_shortest_distances,
    parse_finite,
    read_csv_table,
    snap_point,
    tract_network_distance,
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
class TractGeometry:
    """A census tract: id, projected polygon parts, and the raw GeoJSON
    geometry kept around so outputs can echo the input coordinates."""

    tract_id: str
    parts: list[Polygon]
    source_geometry: dict | None = None


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
    """tract x 10 analysis matrix plus the drop audit."""

    tract_ids: list[str]
    values: np.ndarray  # shape (n, 10), columns per VARIABLE_COLUMNS
    dropped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.tract_ids)


def _project_ring(ring, ref_lon: float, ref_lat: float) -> list[ProjectedPoint]:
    return [project_lonlat(lon, lat, ref_lon, ref_lat) for lon, lat in ring]


def _feature_polygons(
    geometry: dict, ref_lon: float, ref_lat: float, context: str
) -> list[Polygon]:
    gtype = geometry.get("type")
    if gtype == "Polygon":
        ring_sets = [geometry["coordinates"]]
    elif gtype == "MultiPolygon":
        ring_sets = geometry["coordinates"]
    else:
        raise SchemaError(f"{context}: unsupported geometry type {gtype!r}")
    parts = []
    for rings in ring_sets:
        try:
            parts.append(
                Polygon([_project_ring(ring, ref_lon, ref_lat) for ring in rings])
            )
        except DegenerateGeometry as exc:
            raise DegenerateGeometry(f"{context}: {exc}") from None
    return parts


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def load_tracts(path: str, ref_lon: float, ref_lat: float) -> list[TractGeometry]:
    """Read a FeatureCollection of Polygon/MultiPolygon tracts.

    Every feature needs a unique `tract_id` property. Geometries are
    projected into local meters about (ref_lon, ref_lat); a degenerate ring
    fails with the tract id attached.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except ValueError as exc:  # bad JSON, bad UTF-8, or a NaN/Infinity literal
        raise SchemaError(f"{path}: not a UTF-8 JSON file: {exc}") from None
    features = doc.get("features", []) if isinstance(doc, dict) else None
    if not isinstance(features, list) or doc.get("type") != "FeatureCollection":
        raise SchemaError(f"{path}: expected a FeatureCollection")
    tracts: list[TractGeometry] = []
    seen: set[str] = set()
    for idx, feature in enumerate(features):
        try:
            props = feature.get("properties") or {}
            tract_id = props.get("tract_id")
            if tract_id is None:
                raise SchemaError(f"{path}: feature {idx} has no tract_id property")
            tract_id = str(tract_id)
            if tract_id in seen:
                raise SchemaError(f"{path}: duplicate tract_id {tract_id!r}")
            seen.add(tract_id)
            geometry = feature.get("geometry") or {}
            parts = _feature_polygons(geometry, ref_lon, ref_lat, f"tract {tract_id}")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            # a non-object where an object belongs, a missing or non-numeric coordinate
            raise SchemaError(f"{path}: feature {idx} is not a valid feature: {exc!r}") from None
        # validate areas up front so bad rings fail at load time with context
        for part in parts:
            try:
                parts_area_centroid([part])
            except DegenerateGeometry as exc:
                raise DegenerateGeometry(f"tract {tract_id}: {exc}") from None
        tracts.append(
            TractGeometry(tract_id=tract_id, parts=parts, source_geometry=geometry)
        )
    return tracts


def load_providers(path: str, ref_lon: float, ref_lat: float) -> list[ProviderPoint]:
    """Read the provider CSV: id,kind,lon,lat[,radius_m].

    An empty radius falls back to the kind default. A bare `grocery` kind
    (no size class) is treated as grocery_large with a logged warning.
    """
    header = ("id", "kind", "lon", "lat")
    _, rows = read_csv_table(path, [header, (*header, "radius_m")], "provider")
    providers: list[ProviderPoint] = []
    seen: set[str] = set()
    for row_no, (pid, kind, raw_lon, raw_lat, *raw_radius) in rows:
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
                location=project_lonlat(lon, lat, ref_lon, ref_lat),
                radius_m=radius,
            )
        )
    return providers


def load_demographics(path: str) -> list[DemographicRecord]:
    """Read the demographic CSV; empty cells become missing values.

    Every value must be finite, percent columns must land in [0, 100] and
    AV_POP must be nonnegative, otherwise RangeError names the tract.
    """
    _, rows = read_csv_table(path, [("tract_id", *DEMOGRAPHIC_COLUMNS)], "demographics")
    records: list[DemographicRecord] = []
    seen: set[str] = set()
    for row_no, (tract_id, *cells) in rows:
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
    tracts: list[TractGeometry],
    providers: list[ProviderPoint],
    net: RoadNetwork,
    demographics: list[DemographicRecord],
    *,
    ace_net_mode: str = "centroid",
    max_snap_m: float = DEFAULT_SNAP_MAX_M,
) -> VariableTable:
    """Join geometry, network and demographics into the n x 10 matrix.

    AV_INT counts provider-buffer intersections, ACE_NET comes from one
    shared multi-source Dijkstra pass over the supermarket snap nodes, and
    the demographic columns join by tract_id. Tracts with any missing or
    unreachable value, or with a point that lies beyond max_snap_m from
    every road node, land in `dropped` with a reason; rows are ordered by
    tract_id so the output is independent of input file order. Demographics
    rows without tract geometry are ignored with a warning. A supermarket
    that cannot snap raises SnapError.
    """
    supermarkets = [p for p in providers if p.kind == "supermarket"]
    if not supermarkets:
        raise DomainError("no supermarket providers; ACE_NET is undefined")
    sources = set()
    for p in supermarkets:
        try:
            sources.add(snap_point(p.location, net, max_snap_m))
        except SnapError as exc:
            raise SnapError(f"supermarket {p.id}: {exc}", exc.distance_m) from None
    distances = multisource_shortest_distances(net, sources)

    demo_by_id = {rec.tract_id: rec for rec in demographics}

    retained: list[TractGeometry] = []
    rows: list[list[float]] = []
    dropped: list[tuple[str, str]] = []
    for tract in sorted(tracts, key=lambda t: t.tract_id):
        rec = demo_by_id.get(tract.tract_id)
        if rec is None:
            dropped.append((tract.tract_id, "missing demographics"))
            continue
        missing = [name for name in DEMOGRAPHIC_COLUMNS if rec.values[name] is None]
        if missing:
            dropped.append((tract.tract_id, f"missing {missing[0]}"))
            continue
        try:
            ace_net = tract_network_distance(
                tract.parts, net, distances, ace_net_mode, max_snap_m=max_snap_m
            )
        except SnapError as exc:
            dropped.append((tract.tract_id, f"unsnappable ({exc.distance_m:.0f} m)"))
            continue
        if ace_net is None:
            dropped.append((tract.tract_id, "unreachable"))
            continue
        row = [0.0, rec.values["AV_POP"], ace_net]  # AV_INT is filled in below
        for name in ("ACE_NV", "ACE_ELD", "ACE_DIS", "AFF_POV", "AFF_UNEMP", "ACO_ENG", "ACO_SNAP"):
            row.append(rec.values[name])
        retained.append(tract)
        rows.append(row)
    for tract_id, reason in dropped:
        log.warning("dropping tract %s: %s", tract_id, reason)
    for tract_id in sorted(demo_by_id.keys() - {t.tract_id for t in tracts}):
        log.warning("ignoring demographics row %s: no tract geometry", tract_id)
    if not rows:
        raise EmptyTableError("all tracts were dropped; nothing to analyze")
    values = np.array(rows, dtype=float)
    values[:, 0] = availability_counts(
        [t.parts for t in retained], [(p.location, p.radius_m) for p in providers]
    )
    return VariableTable(
        tract_ids=[t.tract_id for t in retained],
        values=values,
        dropped=dropped,
    )
