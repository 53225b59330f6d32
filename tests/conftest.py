import math
import os

import numpy as np
import pytest
from hypothesis import settings

from access_atlas import geometry, ingest
from access_atlas.network import DEFAULT_ROAD_CLASSES, RoadEdges, RoadNodes, build_network

from _oracles import pack

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


def network_from_records(edge_records, node_records, allowed_classes=DEFAULT_ROAD_CLASSES):
    """build_network on records: (from_node, to_node, length_m, road_class)
    tuples, a None length meaning the Euclidean one, and an
    {id: ProjectedPoint} mapping, turned into the loaders' columns."""
    edge_records = list(edge_records)
    nodes = RoadNodes(
        list(node_records),
        np.array([p.x for p in node_records.values()], dtype=float),
        np.array([p.y for p in node_records.values()], dtype=float),
    )
    edges = RoadEdges(
        [a for a, _, _, _ in edge_records],
        [b for _, b, _, _ in edge_records],
        np.array([math.nan if w is None else w for _, _, w, _ in edge_records], dtype=float),
        [c for _, _, _, c in edge_records],
    )
    return build_network(edges, nodes, allowed_classes)


def providers_of(records) -> ingest.Providers:
    """The ingest.Providers of (id, kind, (x, y), radius_m) records."""
    records = list(records)
    return ingest.Providers(
        [pid for pid, _, _, _ in records],
        [kind for _, kind, _, _ in records],
        np.array([float(x) for _, _, (x, _), _ in records]),
        np.array([float(y) for _, _, (_, y), _ in records]),
        np.array([float(r) for _, _, _, r in records]),
    )


def full_demographics(ids) -> ingest.Demographics:
    """The ingest.Demographics of tracts `ids`, every value 1.0."""
    return ingest.Demographics(list(ids), np.ones((len(ids), len(ingest.DEMOGRAPHIC_COLUMNS))))


def take(columns, rows):
    """The given rows, in that order, of a Providers or a Demographics."""
    rows = [int(k) for k in rows]
    picked = {}
    for name in columns._fields:
        v = getattr(columns, name)
        picked[name] = [v[k] for k in rows] if isinstance(v, list) else v[rows]
    return type(columns)(**picked)


def counts_of_disks(tracts, index, providers):
    """geometry.availability_counts of providers given as (center, radius_m)
    pairs, each center an (x, y) pair."""
    cx = [float(center[0]) for center, _ in providers]
    cy = [float(center[1]) for center, _ in providers]
    radius = [float(r) for _, r in providers]
    return geometry.availability_counts(tracts, index, cx, cy, radius)


def disk_meets(center, radius_m: float, tract) -> bool:
    """Whether the closed disk of radius_m around center meets one list-form
    tract: geometry.availability_counts of that one disk on that tract."""
    return bool(counts_of_disks(pack([tract]), [0], [(center, radius_m)])[0])


def recording_scans(monkeypatch) -> list:
    """Wrap geometry._scan, recording (exact, queries, segments) for every
    call: whether it is the exact pass that measures tie-band queries again
    with math.hypot, how many queries it took, and how many segments it
    measured in all."""
    calls = []
    real = geometry._scan

    def scan(tracts, px, py, part, hypot=np.hypot):
        segments = int((tracts.seg_start[part + 1] - tracts.seg_start[part]).sum())
        calls.append((hypot is geometry.exact_hypot, len(px), segments))
        return real(tracts, px, py, part, hypot)

    monkeypatch.setattr(geometry, "_scan", scan)
    return calls


TINY_BUDGETS = (None, 1, 5, 17)


def each_budget(monkeypatch, compute):
    """compute() under the default geometry.KERNEL_BUDGET and under tiny
    ones; then undoes every monkeypatch of the test, counting wrappers
    included."""
    results = []
    for budget in TINY_BUDGETS:
        if budget is not None:
            monkeypatch.setattr(geometry, "KERNEL_BUDGET", budget)
        results.append(compute())
    monkeypatch.undo()
    return results


@pytest.fixture(scope="session")
def minitown_dir() -> str:
    return os.path.join(FIXTURES, "minitown")


@pytest.fixture(scope="session")
def minitown_config(minitown_dir) -> str:
    return os.path.join(minitown_dir, "config.json")


@pytest.fixture(scope="session")
def minitown_table(minitown_dir):
    """Assembled 9-tract variable table plus the loaded tract geometries."""
    from access_atlas.network import load_road_edges, load_road_nodes

    ref_lon, ref_lat = -87.70, 41.85
    tracts = ingest.load_tracts(os.path.join(minitown_dir, "tracts.geojson"), ref_lon, ref_lat)
    providers = ingest.load_providers(os.path.join(minitown_dir, "providers.csv"), ref_lon, ref_lat)
    nodes = load_road_nodes(os.path.join(minitown_dir, "roads_nodes.csv"), ref_lon, ref_lat)
    net = build_network(load_road_edges(os.path.join(minitown_dir, "roads_edges.csv")), nodes)
    demographics = ingest.load_demographics(os.path.join(minitown_dir, "demographics.csv"))
    table = ingest.assemble_variable_table(
        tracts, providers, net, demographics, max_snap_m=700.0
    )
    return tracts, table
