import dataclasses
import json
import os
import re
from collections import Counter

import numpy as np
import pytest

from access_atlas import ingest, network
from access_atlas.errors import (
    DegenerateGeometry,
    DomainError,
    EmptyTableError,
    RangeError,
    SchemaError,
    SnapError,
)
from access_atlas.ingest import VARIABLE_COLUMNS
from access_atlas.network import (
    RoadNetwork,
    build_network,
    load_road_edges,
    load_road_nodes,
    origin_points,
    snap_points,
)

from conftest import full_demographics, network_from_records, providers_of, take
from _oracles import Polygon, ProjectedPoint, ace_net_loop, list_form, pack


def column(table, name):
    return table.values[:, VARIABLE_COLUMNS.index(name)]


REF = (-87.70, 41.85)


def write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return str(path)


# --------------------------------------------------------------- tracts


def test_load_minitown_tracts(minitown_dir):
    tracts = ingest.load_tracts(os.path.join(minitown_dir, "tracts.geojson"), *REF)
    assert len(tracts.ids) == 9
    assert tracts.ids == sorted(tracts.ids)
    assert np.diff(tracts.part_start).tolist() == [1] * 9


def dicts_held(tracts) -> list[dict]:
    """Every dict reachable from the fields of a Tracts through lists,
    tuples and dicts."""
    found, todo = [], [getattr(tracts, f.name) for f in dataclasses.fields(tracts)]
    while todo:
        v = todo.pop()
        if isinstance(v, dict):
            found.append(v)
            todo += v.values()
        elif isinstance(v, (list, tuple)):
            todo += v
    return found


def test_minitown_tracts_keep_no_parse_tree(minitown_dir):
    tracts = ingest.load_tracts(os.path.join(minitown_dir, "tracts.geojson"), *REF)
    assert dicts_held(tracts) == []
    assert tracts.verbatim == [None] * 9
    assert tracts.multi.tolist() == [False] * 9
    # the positions as given, closing repeats included
    assert np.diff(tracts.ring_pos).tolist() == [5] * 9
    assert (tracts.lon[:2].tolist(), tracts.lat[:2].tolist()) == ([-87.715, -87.705], [41.835] * 2)


def test_tracts_keep_only_the_geometry_objects_that_are_not_plain(tmp_path):
    def square(x):
        return [[x, 0.0], [x + 0.01, 0.0], [x + 0.01, 0.01], [x, 0.01]]

    plain = {"type": "Polygon", "coordinates": [square(0.0)]}
    odd = [
        {"type": "Polygon", "coordinates": [[[0, 0.0], *square(0.0)[1:]]]},  # an int
        {"type": "Polygon", "coordinates": [[p + [3.5] for p in square(0.0)]]},  # altitudes
        {"type": "Polygon", "coordinates": [square(0.0)], "bbox": [0.0, 0.0, 0.01, 0.01]},
        {"coordinates": [square(0.0)], "type": "Polygon"},
    ]
    multi = {"type": "MultiPolygon", "coordinates": [[square(0.0)], [square(0.05)]]}
    geometries = [plain, *odd, multi]
    doc = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "properties": {"tract_id": f"t{k}"}, "geometry": g}
            for k, g in enumerate(geometries)
        ],
    }
    path = write(tmp_path / "t.geojson", json.dumps(doc))
    tracts = ingest.load_tracts(path, 0.0, 0.0)
    assert tracts.verbatim == [None, *odd, None]
    held = dicts_held(tracts)
    assert len(held) == len(odd) and all(g in odd for g in held)
    assert tracts.multi.tolist() == [False] * 5 + [True]
    assert np.diff(tracts.ring_pos).tolist() == [4] * 7  # open rings stay open


def test_missing_tract_id_names_feature_index(tmp_path):
    doc = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {},
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [[[0, 0], [0.01, 0], [0.01, 0.01], [0, 0.01], [0, 0]]],
                },
            }
        ],
    }
    path = write(tmp_path / "t.geojson", json.dumps(doc))
    with pytest.raises(SchemaError, match="feature 0"):
        ingest.load_tracts(path, 0.0, 0.0)


def test_duplicate_tract_id_rejected(tmp_path):
    ring = [[0, 0], [0.01, 0], [0.01, 0.01], [0, 0.01], [0, 0]]
    doc = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "properties": {"tract_id": "a"},
             "geometry": {"type": "Polygon", "coordinates": [ring]}},
            {"type": "Feature", "properties": {"tract_id": "a"},
             "geometry": {"type": "Polygon", "coordinates": [ring]}},
        ],
    }
    path = write(tmp_path / "t.geojson", json.dumps(doc))
    with pytest.raises(SchemaError, match="duplicate"):
        ingest.load_tracts(path, 0.0, 0.0)


def test_multipolygon_becomes_two_parts(tmp_path):
    part1 = [[[0, 0], [0.01, 0], [0.01, 0.01], [0, 0.01], [0, 0]]]
    part2 = [[[0.05, 0], [0.06, 0], [0.06, 0.01], [0.05, 0.01], [0.05, 0]]]
    doc = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "properties": {"tract_id": "m"},
             "geometry": {"type": "MultiPolygon", "coordinates": [part1, part2]}},
        ],
    }
    path = write(tmp_path / "t.geojson", json.dumps(doc))
    tracts = ingest.load_tracts(path, 0.0, 0.0)
    assert tracts.ids == ["m"]
    assert tracts.part_start.tolist() == [0, 2]


def test_degenerate_ring_names_tract(tmp_path):
    doc = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "properties": {"tract_id": "bad"},
             "geometry": {"type": "Polygon",
                          "coordinates": [[[0, 0], [0.01, 0.01], [0.02, 0.02], [0, 0]]]}},
        ],
    }
    path = write(tmp_path / "t.geojson", json.dumps(doc))
    with pytest.raises(DegenerateGeometry, match="bad"):
        ingest.load_tracts(path, 0.0, 0.0)


SQUARE = [[0, 0], [0.01, 0], [0.01, 0.01], [0, 0.01], [0, 0]]
FLAT = [[0, 0], [0.01, 0.01], [0.02, 0.02], [0, 0]]  # three distinct vertices, no area


@pytest.mark.parametrize(
    "parts, message",
    [
        ([], "multi-part geometry has no positive area"),
        ([[SQUARE], [FLAT]], "polygon net area 0.0 is not positive"),
        # every part is built before any area is checked
        ([[FLAT], [[[0, 0], [0.01, 0], [0, 0]]]], "ring needs >= 3 distinct vertices, got 2"),
    ],
    ids=["no-parts", "flat-second-part", "short-ring-after-flat-part"],
)
def test_invalid_multipolygon_fails_at_load_naming_tract(tmp_path, parts, message):
    doc = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "properties": {"tract_id": "t11"},
             "geometry": {"type": "MultiPolygon", "coordinates": parts}},
        ],
    }
    path = write(tmp_path / "t.geojson", json.dumps(doc))
    with pytest.raises(DegenerateGeometry, match=f"^tract t11: {re.escape(message)}$"):
        ingest.load_tracts(path, 0.0, 0.0)


def test_schema_fault_reported_before_an_earlier_geometry_fault(tmp_path):
    # every feature is checked before any ring is measured
    doc = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "properties": {"tract_id": "flat"},
             "geometry": {"type": "Polygon", "coordinates": [FLAT]}},
            {"type": "Feature", "properties": {},
             "geometry": {"type": "Polygon", "coordinates": [SQUARE]}},
        ],
    }
    path = write(tmp_path / "t.geojson", json.dumps(doc))
    with pytest.raises(SchemaError, match="feature 1 has no tract_id"):
        ingest.load_tracts(path, 0.0, 0.0)
    del doc["features"][1]
    path = write(tmp_path / "t.geojson", json.dumps(doc))
    with pytest.raises(DegenerateGeometry, match="^tract flat: polygon net area"):
        ingest.load_tracts(path, 0.0, 0.0)


def test_off_plane_vertex_names_feature_and_tract(tmp_path):
    ring = [[-87.70, 41.85], [-87.69, 41.85], [-87.69, 41.86], [-87.70, 41.86], [-87.70, 41.85]]
    features = [
        {"type": "Feature", "properties": {"tract_id": f"t{i}"},
         "geometry": {"type": "Polygon", "coordinates": [ring]}}
        for i in range(5)
    ]
    for i in (3, 4):  # the first bad point in file order is named
        features[i]["geometry"]["coordinates"] = [[*ring[:2], [100.0, 41.86], *ring[3:]]]
    doc = {"type": "FeatureCollection", "features": features}
    path = write(tmp_path / "t.geojson", json.dumps(doc))
    with pytest.raises(DomainError) as exc:
        ingest.load_tracts(path, *REF)
    assert str(exc.value).startswith(
        f"{path}: feature 3 (tract t3): projected point (15546898, "
    )


def test_non_finite_tract_coordinate_rejected(tmp_path):
    # Python's json module accepts NaN/Infinity literals; ingest must not
    text = (
        '{"type": "FeatureCollection", "features": [{"type": "Feature", '
        '"properties": {"tract_id": "a"}, "geometry": {"type": "Polygon", '
        '"coordinates": [[[NaN, 0], [0.01, 0], [0.01, 0.01], [0, 0.01], [NaN, 0]]]}}]}'
    )
    path = write(tmp_path / "t.geojson", text)
    with pytest.raises(SchemaError, match="NaN"):
        ingest.load_tracts(path, 0.0, 0.0)


@pytest.mark.parametrize(
    "doc, match",
    [
        ([], "expected a FeatureCollection"),
        ({"type": "FeatureCollection", "features": 5}, "expected a FeatureCollection"),
        ({"type": "FeatureCollection", "features": [7]}, "feature 0"),
        ({"type": "FeatureCollection", "features": [{"properties": [1]}]}, "feature 0"),
        (
            {"type": "FeatureCollection", "features": [
                {"properties": {"tract_id": "a"}, "geometry": {"type": "Polygon"}}]},
            "feature 0",
        ),
        (
            {"type": "FeatureCollection", "features": [
                {"properties": {"tract_id": "a"}, "geometry": {"type": "Polygon",
                 "coordinates": [[[0, 0], [0.01, 0], [0.01, 0.01], [0, 0.01], [0, 0]]]}},
                {"properties": {"tract_id": "b"}, "geometry": {"type": "Polygon",
                 "coordinates": [[["0", 0], [0.01, 0], [0.01, 0.01], [0, 0.01], ["0", 0]]]}},
            ]},
            "feature 1",
        ),
        (
            {"type": "FeatureCollection", "features": [
                {"properties": {"tract_id": "a"}, "geometry": {"type": "Polygon",
                 "coordinates": [[0, 0.01, 0.02]]}}]},
            "feature 0",
        ),
        # true used to pass as 1.0: the vertex landed 111 km east and the run went on
        (
            {"type": "FeatureCollection", "features": [
                {"properties": {"tract_id": "a"}, "geometry": {"type": "Polygon",
                 "coordinates": [[[0, 0], [0.01, 0], [0.01, 0.01], [0, 0.01], [0, 0]]]}},
                {"properties": {"tract_id": "b"}, "geometry": {"type": "Polygon",
                 "coordinates": [[[0, 0], [True, 0], [0.01, 0.01], [0, 0.01], [0, 0]]]}},
            ]},
            "feature 1.*True",
        ),
        # an integer beyond the float range used to raise an uncaught OverflowError
        (
            {"type": "FeatureCollection", "features": [
                {"properties": {"tract_id": "a"}, "geometry": {"type": "Polygon",
                 "coordinates": [[[0, 0], [0.01, 0], [0.01, 10**400], [0, 0.01], [0, 0]]]}}]},
            "feature 0.*int too large",
        ),
    ],
    ids=["list-document", "features-not-a-list", "non-object-feature", "non-object-properties",
         "no-coordinates", "string-coordinate", "scalar-vertices", "boolean-coordinate",
         "huge-integer-coordinate"],
)
def test_malformed_geojson_names_path_and_feature(tmp_path, doc, match):
    path = write(tmp_path / "t.geojson", json.dumps(doc))
    with pytest.raises(SchemaError, match=re.escape(path) + ".*" + match):
        ingest.load_tracts(path, 0.0, 0.0)


# ------------------------------------------------------------- providers


def test_provider_kind_default_radii(tmp_path):
    path = write(
        tmp_path / "p.csv",
        "id,kind,lon,lat,radius_m\n"
        "s1,supermarket,-87.7,41.85,\n"
        "g1,grocery_small,-87.7,41.86,\n"
        "g2,grocery_large,-87.7,41.86,\n"
        "c1,produce_cart,-87.7,41.86,\n"
        "f1,farmers_market,-87.7,41.86,\n",
    )
    providers = ingest.load_providers(path, *REF)
    assert providers.radius.tolist() == [3000.0, 800.0, 1600.0, 500.0, 1000.0]


def test_provider_explicit_radius_override(tmp_path):
    path = write(tmp_path / "p.csv", "id,kind,lon,lat,radius_m\ns1,supermarket,-87.7,41.85,2500\n")
    assert ingest.load_providers(path, *REF).radius[0] == 2500.0


def test_unknown_provider_kind_rejected(tmp_path):
    path = write(tmp_path / "p.csv", "id,kind,lon,lat,radius_m\nx1,bodega,-87.7,41.85,\n")
    with pytest.raises(SchemaError, match="bodega"):
        ingest.load_providers(path, *REF)


def test_bare_grocery_defaults_to_large_with_warning(tmp_path, caplog):
    path = write(tmp_path / "p.csv", "id,kind,lon,lat,radius_m\ng1,grocery,-87.7,41.85,\n")
    with caplog.at_level("WARNING"):
        providers = ingest.load_providers(path, *REF)
    assert providers.kinds[0] == "grocery_large"
    assert providers.radius[0] == 1600.0
    assert any("size class" in r.message for r in caplog.records)


def test_non_numeric_coordinates_name_row(tmp_path):
    path = write(tmp_path / "p.csv", "id,kind,lon,lat,radius_m\ns1,supermarket,west,41.85,\n")
    with pytest.raises(SchemaError, match="row 2"):
        ingest.load_providers(path, *REF)
    # every row is checked before any location is projected: a bad lat on
    # row 4 is reported, not the point off the plane on row 2
    rows = ["s1,supermarket,100,41.85", "s2,supermarket,-87.7,41.85", "s3,supermarket,-87.7,north"]
    path = write(tmp_path / "q.csv", "\n".join(["id,kind,lon,lat", *rows]) + "\n")
    with pytest.raises(SchemaError) as exc:
        ingest.load_providers(path, *REF)
    assert str(exc.value) == f"{path} row 4 lat: non-numeric value 'north'"


@pytest.mark.parametrize(
    "lon, lat, message",
    [
        ("100", "41.85", "projected point (15546898, 0) exceeds local-plane validity"),
        ("-87.7", "89.5", "latitude out of range (-89, 89): lat=89.5, ref_lat=41.85"),
    ],
    ids=["east-of-the-plane", "polar-latitude"],
)
def test_off_plane_provider_names_row(tmp_path, lon, lat, message):
    rows = ["s1,supermarket,-87.7,41.85", f"s2,supermarket,{lon},{lat}"]
    rows.append(f"s3,produce_cart,{lon},{lat}")
    path = write(tmp_path / "p.csv", "\n".join(["id,kind,lon,lat", *rows]) + "\n")
    with pytest.raises(DomainError) as exc:
        ingest.load_providers(path, *REF)
    assert str(exc.value) == f"{path} row 3: {message}"


@pytest.mark.parametrize(
    "row",
    [
        "s1,supermarket,nan,41.85,",
        "s1,supermarket,-87.7,inf,",
        "s1,supermarket,-87.7,41.85,nan",
        "s1,supermarket,-87.7,41.85,inf",
    ],
)
def test_non_finite_provider_number_rejected(tmp_path, row):
    path = write(tmp_path / "p.csv", "id,kind,lon,lat,radius_m\n" + row + "\n")
    with pytest.raises(RangeError, match="row 2"):
        ingest.load_providers(path, *REF)


# ---------------------------------------------------------- demographics


def test_load_minitown_demographics(minitown_dir):
    records = ingest.load_demographics(os.path.join(minitown_dir, "demographics.csv"))
    assert len(records.ids) == 9
    assert records.values.shape == (9, len(ingest.DEMOGRAPHIC_COLUMNS))
    assert not np.isnan(records.values).any()


def demo_header():
    return "tract_id,AV_POP,ACE_NV,ACE_ELD,ACE_DIS,AFF_POV,AFF_UNEMP,ACO_ENG,ACO_SNAP\n"


def test_percent_out_of_range_names_tract(tmp_path):
    rows = "t0,1,2,3,4,5,6,7,8\nt1,100,10,10,10,150,10,10,10\n"
    path = write(tmp_path / "d.csv", demo_header() + rows)
    with pytest.raises(RangeError) as info:
        ingest.load_demographics(path)
    assert str(info.value) == f"{path} row 3: tract t1: AFF_POV=150.0 outside [0, 100]"


def test_empty_cell_is_missing_not_zero(tmp_path):
    path = write(tmp_path / "d.csv", demo_header() + "t1,100,10,10,,20,10,10,10\n")
    records = ingest.load_demographics(path)
    col = ingest.DEMOGRAPHIC_COLUMNS.index
    assert np.isnan(records.values[0, col("ACE_DIS")])
    assert records.values[0, col("AFF_POV")] == 20.0


def test_negative_density_rejected(tmp_path):
    path = write(tmp_path / "d.csv", demo_header() + "t1,-5,10,10,10,20,10,10,10\n")
    with pytest.raises(RangeError) as info:
        ingest.load_demographics(path)
    assert str(info.value) == f"{path} row 2: tract t1: AV_POP=-5.0 is negative"


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_demographic_value_rejected(tmp_path, cell):
    path = write(tmp_path / "d.csv", demo_header() + f"t1,{cell},10,10,10,20,10,10,10\n")
    with pytest.raises(RangeError, match="AV_POP for tract t1"):
        ingest.load_demographics(path)


@pytest.mark.parametrize(
    "text",
    [
        "node_id,x,y\n1,0,0\n2,nan,5\n",
        "node_id,x,y\n1,0,0\n2,5,-inf\n",
        "node_id,lon,lat\n1,-87.7,41.85\n2,nan,41.85\n",
    ],
)
def test_non_finite_road_node_coordinate_rejected(tmp_path, text):
    path = write(tmp_path / "n.csv", text)
    with pytest.raises(RangeError, match="row 3"):
        load_road_nodes(path, *REF)


def test_off_plane_road_node_names_row(tmp_path):
    path = write(tmp_path / "n.csv", "node_id,lon,lat\n1,-87.7,41.85\n2,100,41.85\n3,100,0\n")
    with pytest.raises(DomainError) as exc:
        load_road_nodes(path, *REF)
    assert str(exc.value) == (
        f"{path} row 3: projected point (15546898, 0) exceeds local-plane validity"
    )


def test_non_finite_road_edge_length_rejected(tmp_path):
    path = write(
        tmp_path / "e.csv", "from_node,to_node,length_m,road_class\n1,2,inf,residential\n"
    )
    with pytest.raises(RangeError, match="length_m"):
        load_road_edges(path)


def test_wrong_header_rejected(tmp_path):
    path = write(tmp_path / "d.csv", "tract_id,AV_POP\nt1,10\n")
    with pytest.raises(SchemaError):
        ingest.load_demographics(path)


# The four CSV loaders: how each is called, its header and one valid row.
CSV_INPUTS = {
    "providers": (
        lambda path: ingest.load_providers(path, *REF),
        "id,kind,lon,lat,radius_m",
        "s1,supermarket,-87.7,41.85,",
    ),
    "nodes": (lambda path: load_road_nodes(path, *REF), "node_id,x,y", "1,0,0"),
    "edges": (load_road_edges, "from_node,to_node,length_m,road_class", "1,2,5,residential"),
    "demographics": (
        ingest.load_demographics,
        demo_header().rstrip(),
        "t1,100,10,10,10,20,10,10,10",
    ),
    "lonlat-nodes-no-reference": (load_road_nodes, "node_id,lon,lat", "1,-87.7,41.85"),
}


def loaded_rows(loaded):
    """The rows a loader returned: its records, or the row tuples of its columns."""
    if isinstance(loaded, list):
        return loaded
    columns = [getattr(loaded, f.name) for f in dataclasses.fields(loaded)]
    return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))


def padded(row):
    return ",".join(f" {cell} " for cell in row.split(","))


# (rule, file text from header h and valid row r, (error, message) or None
# when the file must load exactly like the plain "h\nr\n")
CSV_RULES = [
    ("empty-file", lambda h, r: "", (SchemaError, r": empty \w+ file$")),
    ("wrong-header", lambda h, r: f"a, B\n{r}\n",
     (SchemaError, r": header must be .*, got \['a', ' B'\]$")),
    ("short-row-after-blank-rows", lambda h, r: f"{h}\n{r}\n\n , \nx\n",
     (SchemaError, r" row 5: expected \d fields, got 1$")),
    ("long-row", lambda h, r: f"{h}\n{r},extra\n",
     (SchemaError, r" row 2: expected \d fields, got \d+$")),
    ("blank-and-whitespace-rows-skipped", lambda h, r: f"{h}\n\n{r}\n  ,\t\n\n", None),
    ("padded-cells", lambda h, r: f"{h}\n{padded(r)}\n", None),
    ("upper-case-header", lambda h, r: f" {h.upper()}\n{r}\n", None),
]

CSV_CASES = [
    *[(kind, *rule) for kind in ("providers", "nodes", "edges", "demographics")
      for rule in CSV_RULES],
    ("providers", "empty-provider-id", lambda h, r: f"{h}\n{r}\n ,supermarket,-87.7,41.85,\n",
     (SchemaError, " row 3: empty provider id$")),
    ("providers", "duplicate-provider-id", lambda h, r: f"{h}\n{r}\n s1 ,produce_cart,-87.7,41.85,\n",
     (SchemaError, " row 3: duplicate provider id 's1'$")),
    ("nodes", "empty-node-id", lambda h, r: f"{h}\n{r}\n ,5,5\n",
     (SchemaError, " row 3: empty node_id$")),
    ("nodes", "duplicate-node-id", lambda h, r: f"{h}\n{r}\n 1 ,5,5\n",
     (SchemaError, " row 3: duplicate node_id '1'$")),
    ("edges", "empty-endpoint-id", lambda h, r: f"{h}\n1, ,5,residential\n",
     (SchemaError, " row 2: empty endpoint id$")),
    ("lonlat-nodes-no-reference", "needs-projection-reference", lambda h, r: f"{h}\n{r}\n",
     (SchemaError, ": lon/lat nodes need a projection reference$")),
]


@pytest.mark.parametrize(
    "kind, build, expect",
    [c[:1] + c[2:] for c in CSV_CASES],
    ids=[f"{c[0]}-{c[1]}" for c in CSV_CASES],
)
def test_csv_reader_rules(tmp_path, kind, build, expect):
    load, header, row = CSV_INPUTS[kind]
    path = write(tmp_path / "in.csv", build(header, row))
    if expect is None:
        plain = write(tmp_path / "plain.csv", f"{header}\n{row}\n")
        assert loaded_rows(load(path)) == loaded_rows(load(plain))
        assert len(loaded_rows(load(path))) == 1
    else:
        error, message = expect
        with pytest.raises(error, match="^" + re.escape(path) + message):
            load(path)


# -------------------------------------------------------------- assembly


def subset(tracts, index):
    """The tracts of `index`, in that order, packed anew."""
    return pack(list_form(tracts, index), [tracts.ids[i] for i in index])


def minitown_inputs(minitown_dir):
    tracts = ingest.load_tracts(os.path.join(minitown_dir, "tracts.geojson"), *REF)
    providers = ingest.load_providers(os.path.join(minitown_dir, "providers.csv"), *REF)
    nodes = load_road_nodes(os.path.join(minitown_dir, "roads_nodes.csv"), *REF)
    net = build_network(load_road_edges(os.path.join(minitown_dir, "roads_edges.csv")), nodes)
    demographics = ingest.load_demographics(os.path.join(minitown_dir, "demographics.csv"))
    return tracts, providers, net, demographics


def test_assemble_complete_fixture(minitown_table):
    _, table = minitown_table
    assert table.n == 9
    assert table.dropped == []
    assert table.values.shape == (9, 10)
    assert table.tract_ids == sorted(table.tract_ids)
    # AV_INT nonnegative integers, ACE_NET positive finite, percents in range
    av_int = column(table, "AV_INT")
    assert np.all(av_int >= 0) and np.all(av_int == np.round(av_int))
    ace_net = column(table, "ACE_NET")
    assert np.all(ace_net > 0) and np.all(np.isfinite(ace_net))
    for name in ("ACE_NV", "ACE_ELD", "ACE_DIS", "AFF_POV", "AFF_UNEMP", "ACO_ENG", "ACO_SNAP"):
        col = column(table, name)
        assert np.all((col >= 0) & (col <= 100))


def test_assemble_missing_demographics_row_drops_tract(minitown_dir):
    tracts, providers, net, demographics = minitown_inputs(minitown_dir)
    trimmed = take(demographics, [k for k, t in enumerate(demographics.ids) if t != "t22"])
    table = ingest.assemble_variable_table(
        tracts, providers, net, trimmed, max_snap_m=700.0
    )
    assert table.n == 8
    assert table.dropped == [("t22", "missing demographics")]


def test_assemble_reports_demographics_rows_without_geometry(minitown_dir, caplog):
    tracts, providers, net, demographics = minitown_inputs(minitown_dir)
    with caplog.at_level("WARNING", logger="access_atlas.ingest"):
        ingest.assemble_variable_table(tracts, providers, net, demographics, max_snap_m=700.0)
    assert caplog.messages == []

    kept = subset(tracts, [i for i, tid in enumerate(tracts.ids) if tid not in ("t13", "t22")])
    with caplog.at_level("WARNING", logger="access_atlas.ingest"):
        table = ingest.assemble_variable_table(kept, providers, net, demographics, max_snap_m=700.0)
    assert caplog.messages == [
        "ignoring demographics row t13: no tract geometry",
        "ignoring demographics row t22: no tract geometry",
    ]
    assert table.n == 7
    assert table.dropped == []


def test_assemble_missing_cell_drops_tract(minitown_dir):
    tracts, providers, net, demographics = minitown_inputs(minitown_dir)
    col = ingest.DEMOGRAPHIC_COLUMNS.index
    demographics.values[demographics.ids.index("t13"), col("ACE_DIS")] = np.nan
    table = ingest.assemble_variable_table(
        tracts, providers, net, demographics, max_snap_m=700.0
    )
    assert ("t13", "missing ACE_DIS") in table.dropped
    assert table.n == 8
    # of two empty cells, the first in column order names the drop
    for name in ("ACO_SNAP", "ACE_ELD"):
        demographics.values[demographics.ids.index("t22"), col(name)] = np.nan
    table = ingest.assemble_variable_table(
        tracts, providers, net, demographics, max_snap_m=700.0
    )
    assert ("t22", "missing ACE_ELD") in table.dropped
    assert table.n == 7


def test_assemble_unreachable_tract_dropped(minitown_dir):
    tracts, providers, net, demographics = minitown_inputs(minitown_dir)
    # cut every edge that touches t11's centroid node (c11): its CSR row is
    # empty and no other row names it
    c11 = net.ids.index("c11")
    tails = np.repeat(np.arange(len(net.ids)), np.diff(net.indptr))
    keep = (tails != c11) & (net.nbr != c11)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(tails[keep], minlength=len(net.ids)))])
    assert indptr[c11] == indptr[c11 + 1]
    cut = RoadNetwork(net.ids, net.xs, net.ys, indptr, net.nbr[keep], net.length[keep])
    table = ingest.assemble_variable_table(
        tracts, providers, cut, demographics, max_snap_m=700.0
    )
    assert ("t11", "unreachable") in table.dropped
    assert table.n == 8


@pytest.mark.parametrize("max_snap_m", [700.0, 400.0])  # 400 m drops 4 tracts as unsnappable
def test_grid_mode_snaps_like_sorted_scan_oracle(minitown_dir, monkeypatch, max_snap_m):
    tracts, providers, net, demographics = minitown_inputs(minitown_dir)

    def assemble():
        return ingest.assemble_variable_table(
            tracts, providers, net, demographics, ace_net_mode="grid-3", max_snap_m=max_snap_m
        )

    got = assemble()
    kept, dropped = ace_net_loop(tracts, providers, net, "grid-3", max_snap_m)
    assert got.tract_ids == list(kept)
    assert column(got, "ACE_NET").tolist() == list(kept.values())
    assert got.dropped == dropped
    assert len(dropped) == (4 if max_snap_m == 400.0 else 0)


def random_ace_net_inputs(rng):
    """Road component "a" west of x = 2000 m and "b" east of x = 2600 m,
    supermarkets within 50 m of "a" nodes (and, now and then, one far from
    both), and rectangles and L-shapes from x = -500 to 5500 m, so that a
    tract has points beyond the snap radius, points that snap into "b"
    where no supermarket is, or both."""
    nodes = {}
    for name, lo, hi, n in (("a", (0, 0), (2000, 2000), 20), ("b", (2600, 0), (4000, 2000), 8)):
        xy = rng.uniform(lo, hi, size=(int(rng.integers(n // 2, n)), 2))
        nodes |= {f"{name}{i}": ProjectedPoint(x, y) for i, (x, y) in enumerate(xy.tolist())}
    ids = list(nodes)
    edges = [(u, v, None, "residential") for u, v in zip(ids, ids[1:]) if u[0] == v[0]]
    net = network_from_records(edges, nodes)
    a_nodes = [nodes[i] for i in ids if i[0] == "a"]
    supermarkets = []
    for k in range(int(rng.integers(1, 4))):
        x, y = a_nodes[int(rng.integers(0, len(a_nodes)))]
        u, v = rng.uniform(-50, 50, size=2)
        supermarkets.append((f"s{k}", "supermarket", (x + u, y + v), 1000.0))
    if rng.random() < 0.1:
        supermarkets.insert(1, ("far", "supermarket", (9e3, 9e3), 1000.0))
    tracts = []
    for _ in range(12):
        x0, y0 = rng.uniform([-500, -500], [4000, 2000])
        w, h = rng.uniform(100, 1500, size=2)
        ring = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]
        if rng.random() < 0.3:  # an L: its bbox centre is outside
            ring[2:3] = [(x0 + w, y0 + h / 3), (x0 + w / 3, y0 + h / 3), (x0 + w / 3, y0 + h)]
        tracts.append([Polygon([ring])])
    ids = [f"t{i:02d}" for i in rng.permutation(len(tracts))]
    return pack(tracts, ids), providers_of(supermarkets), net


def test_ace_net_matches_per_tract_oracle():
    rng = np.random.default_rng(1807)
    seen = Counter()
    for _ in range(80):
        tracts, supermarkets, net = random_ace_net_inputs(rng)
        mode = str(rng.choice(["centroid", "grid-1", "grid-2", "grid-3", "grid-4"]))
        max_snap_m = float(rng.uniform(300, 900))
        demographics = full_demographics(tracts.ids)

        def assemble():
            return ingest.assemble_variable_table(
                tracts, supermarkets, net, demographics, ace_net_mode=mode, max_snap_m=max_snap_m
            )

        try:
            kept, dropped = ace_net_loop(tracts, supermarkets, net, mode, max_snap_m)
        except SnapError as exc:
            with pytest.raises(SnapError) as got:
                assemble()
            assert (str(got.value), got.value.distance_m) == (str(exc), exc.distance_m)
            seen["supermarket"] += 1
            continue
        if not kept:
            with pytest.raises(EmptyTableError):
                assemble()
            continue
        table = assemble()
        assert table.tract_ids == list(kept)
        assert column(table, "ACE_NET").tolist() == list(kept.values())
        assert table.dropped == dropped
        seen["kept"] += len(kept)
        # what each tract's points were: beyond the radius, or snapped into "b"
        order = sorted(range(len(tracts.ids)), key=tracts.ids.__getitem__)
        px, py, owner = origin_points(tracts, order, mode)
        node, dist = snap_points(net, px, py)
        for k in range(len(order)):
            far = (dist[owner == k] > max_snap_m).tolist()
            in_b = [net.ids[i][0] == "b" for i in node[owner == k].tolist()]
            if any(far):
                seen["far point after the first" if not far[0] else "far first point"] += 1
            elif all(in_b):
                seen["no point reaches"] += 1
            elif any(in_b):
                seen["some points reach"] += 1
    assert min(seen.values()) >= 8 and len(seen) == 6, seen


def test_assemble_without_supermarkets_rejected(minitown_dir):
    tracts, providers, net, demographics = minitown_inputs(minitown_dir)
    rest = take(providers, [k for k, kind in enumerate(providers.kinds) if kind != "supermarket"])
    with pytest.raises(DomainError, match="supermarket"):
        ingest.assemble_variable_table(tracts, rest, net, demographics, max_snap_m=700.0)


def test_assemble_all_dropped_is_empty_table(minitown_dir):
    tracts, providers, net, demographics = minitown_inputs(minitown_dir)
    none = take(demographics, [])
    with pytest.raises(EmptyTableError):
        ingest.assemble_variable_table(tracts, providers, net, none, max_snap_m=700.0)


def test_assemble_key_stable_under_input_order(minitown_dir):
    tracts, providers, net, demographics = minitown_inputs(minitown_dir)
    table = ingest.assemble_variable_table(
        tracts, providers, net, demographics, max_snap_m=700.0
    )
    rng = np.random.default_rng(1)
    shuffled_tracts = subset(tracts, rng.permutation(len(tracts.ids)))
    shuffled_demo = take(demographics, rng.permutation(len(demographics.ids)))
    shuffled_providers = take(providers, rng.permutation(len(providers.ids)))
    again = ingest.assemble_variable_table(
        shuffled_tracts, shuffled_providers, net, shuffled_demo, max_snap_m=700.0
    )
    assert again.tract_ids == table.tract_ids
    assert np.array_equal(again.values, table.values)
    assert again.dropped == table.dropped


def test_assemble_bit_identical_reruns(minitown_dir):
    tracts, providers, net, demographics = minitown_inputs(minitown_dir)
    a = ingest.assemble_variable_table(tracts, providers, net, demographics, max_snap_m=700.0)
    b = ingest.assemble_variable_table(tracts, providers, net, demographics, max_snap_m=700.0)
    assert a.values.tobytes() == b.values.tobytes()


def test_every_tract_exactly_once_across_retained_and_dropped(minitown_dir):
    tracts, providers, net, demographics = minitown_inputs(minitown_dir)
    keep = [k for k, t in enumerate(demographics.ids) if t not in ("t11", "t32")]
    trimmed = take(demographics, keep)
    table = ingest.assemble_variable_table(tracts, providers, net, trimmed, max_snap_m=700.0)
    seen = list(table.tract_ids) + [tid for tid, _ in table.dropped]
    assert sorted(seen) == sorted(tracts.ids)


def test_column_order_is_frozen():
    assert VARIABLE_COLUMNS == (
        "AV_INT", "AV_POP", "ACE_NET", "ACE_NV", "ACE_ELD",
        "ACE_DIS", "AFF_POV", "AFF_UNEMP", "ACO_ENG", "ACO_SNAP",
    )


def test_multipart_tract_through_full_assembly(tmp_path):
    # two-part tract "m" next to a plain tract "s"; the provider buffer
    # reaches both parts of "m" but must count once
    part_a = [[[0.000, 0.000], [0.004, 0.000], [0.004, 0.004], [0.000, 0.004], [0.000, 0.000]]]
    part_b = [[[0.010, 0.000], [0.014, 0.000], [0.014, 0.004], [0.010, 0.004], [0.010, 0.000]]]
    plain = [[[0.020, 0.000], [0.024, 0.000], [0.024, 0.004], [0.020, 0.004], [0.020, 0.000]]]
    doc = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "properties": {"tract_id": "m"},
             "geometry": {"type": "MultiPolygon", "coordinates": [part_a, part_b]}},
            {"type": "Feature", "properties": {"tract_id": "s"},
             "geometry": {"type": "Polygon", "coordinates": plain}},
        ],
    }
    tracts = ingest.load_tracts(write(tmp_path / "t.geojson", json.dumps(doc)), 0.0, 0.0)
    providers = ingest.load_providers(
        write(
            tmp_path / "p.csv",
            "id,kind,lon,lat,radius_m\n"
            "s1,supermarket,0.007,0.002,\n"      # between m's parts, reaches both
            "c1,produce_cart,0.022,0.002,\n",    # inside s only
        ),
        0.0,
        0.0,
    )
    # one road node under each tract centroid, chained together
    nodes = load_road_nodes(
        write(
            tmp_path / "n.csv",
            "node_id,lon,lat\na,0.007,0.002\nb,0.022,0.002\n",
        ),
        0.0,
        0.0,
    )
    net = build_network(
        load_road_edges(
            write(tmp_path / "e.csv", "from_node,to_node,length_m,road_class\na,b,1700,residential\n")
        ),
        nodes,
    )
    demographics = ingest.load_demographics(
        write(
            tmp_path / "d.csv",
            demo_header() + "m,1000,10,10,10,20,10,10,10\ns,2000,20,20,20,40,20,20,20\n",
        )
    )
    table = ingest.assemble_variable_table(
        tracts, providers, net, demographics, max_snap_m=900.0
    )
    assert table.tract_ids == ["m", "s"]
    # supermarket buffer (3 km) covers everything; cart (500 m) reaches only s
    assert column(table, "AV_INT").tolist() == [1.0, 2.0]
    # m's combined centroid (0.007, 0.002 deg) snaps to node a at distance 0
    assert column(table, "ACE_NET")[0] == pytest.approx(0.0)
    assert column(table, "ACE_NET")[1] == pytest.approx(1700.0)
