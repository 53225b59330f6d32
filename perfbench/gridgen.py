"""Deterministic grid-city fixture generator for the benchmark.

A G x G block of square tracts (about 500 m a side) around a reference
point, a lattice road network with S nodes per tract side, randomly placed
providers (10% supermarkets), and a demographics table with a planted
west-to-east gradient. About 1% of the tracts get one blank demographic
cell, so the drop path runs, and about 2% extra diagonal edges carry a
road class that the default filter removes.

The lattice is connected through kept edges only and every supermarket
lies within one node spacing of a node, so no tract is ever unreachable
and no snap fails: the only drops are the blanked cells. The same spec
and seed always give the same bytes.

    generate(GridSpec(grid=10, nodes_per_side=4, providers=100), seed=1, out_dir="city")
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

REF_LON = -87.70
REF_LAT = 41.85
STEP_LON = 0.006  # about 497 m at REF_LAT
STEP_LAT = 0.0045  # about 500 m

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

# Column -> (west value, east value, noise sd). The gradient columns fall
# from west to east with noise well below the slope, so their Moran's I is
# positive on any seed; the others are pure noise around a constant.
_DEMOGRAPHIC_MODEL = {
    "AV_POP": (16000.0, 6000.0, 800.0),
    "ACE_NV": (38.0, 10.0, 2.0),
    "ACE_ELD": (14.0, 14.0, 4.0),
    "ACE_DIS": (11.0, 11.0, 3.0),
    "AFF_POV": (60.0, 8.0, 3.0),
    "AFF_UNEMP": (25.0, 5.0, 1.5),
    "ACO_ENG": (18.0, 18.0, 6.0),
    "ACO_SNAP": (44.0, 7.0, 2.5),
}
GRADIENT_COLUMNS = tuple(c for c, (w, e, _) in _DEMOGRAPHIC_MODEL.items() if w != e)

PROVIDER_KINDS = ("grocery_large", "grocery_small", "produce_cart", "farmers_market")
KEPT_CLASS = "residential"
FILTERED_CLASS = "motorway"


@dataclass(frozen=True)
class GridSpec:
    """Size and analysis settings of one generated city."""

    grid: int  # tracts per side
    nodes_per_side: int  # road nodes per tract side
    providers: int
    mode: str = "centroid"
    permutations: int = 999

    @property
    def tracts(self) -> int:
        return self.grid * self.grid


def tract_id(row: int, col: int) -> str:
    return f"t{row:03d}{col:03d}"


def _south_west(spec: GridSpec) -> tuple[float, float]:
    return REF_LON - spec.grid * STEP_LON / 2, REF_LAT - spec.grid * STEP_LAT / 2


def _tracts_doc(spec: GridSpec) -> dict:
    lon0, lat0 = _south_west(spec)
    lons = [round(lon0 + c * STEP_LON, 7) for c in range(spec.grid + 1)]
    lats = [round(lat0 + r * STEP_LAT, 7) for r in range(spec.grid + 1)]
    features = []
    for r in range(spec.grid):
        for c in range(spec.grid):
            ring = [
                [lons[c], lats[r]],
                [lons[c + 1], lats[r]],
                [lons[c + 1], lats[r + 1]],
                [lons[c], lats[r + 1]],
                [lons[c], lats[r]],
            ]
            features.append(
                {
                    "type": "Feature",
                    "properties": {"tract_id": tract_id(r, c)},
                    "geometry": {"type": "Polygon", "coordinates": [ring]},
                }
            )
    return {"type": "FeatureCollection", "features": features}


def _road_lines(spec: GridSpec, rng: random.Random) -> tuple[list[str], list[str]]:
    n = spec.grid * spec.nodes_per_side
    lon0, lat0 = _south_west(spec)
    dlon = STEP_LON / spec.nodes_per_side
    dlat = STEP_LAT / spec.nodes_per_side
    nodes = ["node_id,lon,lat"]
    for r in range(n):
        for c in range(n):
            nodes.append(f"{r * n + c},{lon0 + (c + 0.5) * dlon:.7f},{lat0 + (r + 0.5) * dlat:.7f}")
    edges = ["from_node,to_node,length_m,road_class"]
    for r in range(n):
        for c in range(n):
            u = r * n + c
            if c + 1 < n:
                edges.append(f"{u},{u + 1},,{KEPT_CLASS}")
            if r + 1 < n:
                edges.append(f"{u},{u + n},,{KEPT_CLASS}")
    lattice_edges = len(edges) - 1
    if n > 1:
        for _ in range(max(1, lattice_edges // 50)):
            r, c = rng.randrange(n - 1), rng.randrange(n - 1)
            edges.append(f"{r * n + c},{(r + 1) * n + c + 1},,{FILTERED_CLASS}")
    return nodes, edges


def _provider_lines(spec: GridSpec, rng: random.Random) -> list[str]:
    lon0, lat0 = _south_west(spec)
    supermarkets = max(1, round(spec.providers / 10))
    lines = ["id,kind,lon,lat,radius_m"]
    for i in range(spec.providers):
        kind = "supermarket" if i < supermarkets else rng.choice(PROVIDER_KINDS)
        lon = lon0 + rng.uniform(0.02, 0.98) * spec.grid * STEP_LON
        lat = lat0 + rng.uniform(0.02, 0.98) * spec.grid * STEP_LAT
        lines.append(f"p{i:05d},{kind},{lon:.7f},{lat:.7f},")
    return lines


def _demographic_lines(spec: GridSpec, rng: random.Random) -> list[str]:
    ids = [tract_id(r, c) for r in range(spec.grid) for c in range(spec.grid)]
    blanks = max(1, round(len(ids) / 100))
    blanked = {tid: rng.choice(DEMOGRAPHIC_COLUMNS) for tid in rng.sample(ids, blanks)}
    lines = ["tract_id," + ",".join(DEMOGRAPHIC_COLUMNS)]
    for r in range(spec.grid):
        for c in range(spec.grid):
            tid = tract_id(r, c)
            east = c / max(1, spec.grid - 1)
            cells = []
            for name in DEMOGRAPHIC_COLUMNS:
                west_v, east_v, sd = _DEMOGRAPHIC_MODEL[name]
                v = west_v + (east_v - west_v) * east + rng.gauss(0.0, sd)
                v = max(0.0, v) if name == "AV_POP" else min(100.0, max(0.0, v))
                cells.append("" if blanked.get(tid) == name else f"{v:.2f}")
            lines.append(tid + "," + ",".join(cells))
    return lines


def generate(spec: GridSpec, seed: int, out_dir: str) -> str:
    """Write the five inputs and config.json into out_dir; return the config path."""
    rng = random.Random(seed)
    os.makedirs(out_dir, exist_ok=True)
    nodes, edges = _road_lines(spec, rng)
    texts = {
        "tracts.geojson": json.dumps(_tracts_doc(spec), separators=(",", ":")),
        "roads_nodes.csv": "\n".join(nodes),
        "roads_edges.csv": "\n".join(edges),
        "providers.csv": "\n".join(_provider_lines(spec, rng)),
        "demographics.csv": "\n".join(_demographic_lines(spec, rng)),
    }
    config = {
        "tracts": "tracts.geojson",
        "providers": "providers.csv",
        "roads_nodes": "roads_nodes.csv",
        "roads_edges": "roads_edges.csv",
        "demographics": "demographics.csv",
        "out_dir": "out",
        "ref_lon": REF_LON,
        "ref_lat": REF_LAT,
        "snap_max_m": 1000.0,
        "ace_net_mode": spec.mode,
        "moran_permutations": spec.permutations,
        "seed": seed,
    }
    texts["config.json"] = json.dumps(config, indent=2)
    for name, text in texts.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text + "\n")
    return os.path.join(out_dir, "config.json")

