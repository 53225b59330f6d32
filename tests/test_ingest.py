import json
import os
import re

import numpy as np
import pytest

from access_atlas import ingest, network
from access_atlas.errors import (
    DegenerateGeometry,
    DomainError,
    EmptyTableError,
    RangeError,
    SchemaError,
)
from access_atlas.ingest import VARIABLE_COLUMNS
from access_atlas.network import build_network, load_road_edges, load_road_nodes

from _oracles import snap_loop


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
    assert len(tracts) == 9
    assert [t.tract_id for t in tracts] == sorted(t.tract_id for t in tracts)
    assert all(len(t.parts) == 1 for t in tracts)


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
    assert len(tracts) == 1
    assert len(tracts[0].parts) == 2


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
    ],
    ids=["list-document", "features-not-a-list", "non-object-feature", "non-object-properties",
         "no-coordinates", "string-coordinate", "scalar-vertices"],
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
    assert [p.radius_m for p in providers] == [3000.0, 800.0, 1600.0, 500.0, 1000.0]


def test_provider_explicit_radius_override(tmp_path):
    path = write(tmp_path / "p.csv", "id,kind,lon,lat,radius_m\ns1,supermarket,-87.7,41.85,2500\n")
    assert ingest.load_providers(path, *REF)[0].radius_m == 2500.0


def test_unknown_provider_kind_rejected(tmp_path):
    path = write(tmp_path / "p.csv", "id,kind,lon,lat,radius_m\nx1,bodega,-87.7,41.85,\n")
    with pytest.raises(SchemaError, match="bodega"):
        ingest.load_providers(path, *REF)


def test_bare_grocery_defaults_to_large_with_warning(tmp_path, caplog):
    path = write(tmp_path / "p.csv", "id,kind,lon,lat,radius_m\ng1,grocery,-87.7,41.85,\n")
    with caplog.at_level("WARNING"):
        providers = ingest.load_providers(path, *REF)
    assert providers[0].kind == "grocery_large"
    assert providers[0].radius_m == 1600.0
    assert any("size class" in r.message for r in caplog.records)


def test_non_numeric_coordinates_name_row(tmp_path):
    path = write(tmp_path / "p.csv", "id,kind,lon,lat,radius_m\ns1,supermarket,west,41.85,\n")
    with pytest.raises(SchemaError, match="row 2"):
        ingest.load_providers(path, *REF)


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
    assert len(records) == 9
    assert all(v is not None for r in records for v in r.values.values())


def demo_header():
    return "tract_id,AV_POP,ACE_NV,ACE_ELD,ACE_DIS,AFF_POV,AFF_UNEMP,ACO_ENG,ACO_SNAP\n"


def test_percent_out_of_range_names_tract(tmp_path):
    path = write(tmp_path / "d.csv", demo_header() + "t1,100,10,10,10,150,10,10,10\n")
    with pytest.raises(RangeError, match="t1"):
        ingest.load_demographics(path)


def test_empty_cell_is_missing_not_zero(tmp_path):
    path = write(tmp_path / "d.csv", demo_header() + "t1,100,10,10,,20,10,10,10\n")
    records = ingest.load_demographics(path)
    assert records[0].values["ACE_DIS"] is None
    assert records[0].values["AFF_POV"] == 20.0


def test_negative_density_rejected(tmp_path):
    path = write(tmp_path / "d.csv", demo_header() + "t1,-5,10,10,10,20,10,10,10\n")
    with pytest.raises(RangeError, match="AV_POP"):
        ingest.load_demographics(path)


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
        assert load(path) == load(plain)
        assert len(load(path)) == 1
    else:
        error, message = expect
        with pytest.raises(error, match="^" + re.escape(path) + message):
            load(path)


# -------------------------------------------------------------- assembly


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
    trimmed = [r for r in demographics if r.tract_id != "t22"]
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

    kept = [t for t in tracts if t.tract_id not in ("t13", "t22")]
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
    for rec in demographics:
        if rec.tract_id == "t13":
            rec.values["ACE_DIS"] = None
    table = ingest.assemble_variable_table(
        tracts, providers, net, demographics, max_snap_m=700.0
    )
    assert ("t13", "missing ACE_DIS") in table.dropped
    assert table.n == 8


def test_assemble_unreachable_tract_dropped(minitown_dir):
    tracts, providers, net, demographics = minitown_inputs(minitown_dir)
    # cut every edge that touches t11's centroid node (c11)
    pruned_adj = {
        nid: [(v, w) for v, w in neigh if v != "c11"]
        for nid, neigh in net.adjacency.items()
        if nid != "c11"
    }
    from access_atlas.network import RoadNetwork

    cut = RoadNetwork(
        nodes={nid: pt for nid, pt in net.nodes.items()},
        adjacency={**pruned_adj, "c11": []},
    )
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
    monkeypatch.setattr(network, "snap_point", snap_loop)
    monkeypatch.setattr(ingest, "snap_point", snap_loop)
    want = assemble()
    assert np.array_equal(got.values, want.values)
    assert got.dropped == want.dropped
    assert got.tract_ids == want.tract_ids


def test_assemble_without_supermarkets_rejected(minitown_dir):
    tracts, providers, net, demographics = minitown_inputs(minitown_dir)
    rest = [p for p in providers if p.kind != "supermarket"]
    with pytest.raises(DomainError, match="supermarket"):
        ingest.assemble_variable_table(tracts, rest, net, demographics, max_snap_m=700.0)


def test_assemble_all_dropped_is_empty_table(minitown_dir):
    tracts, providers, net, _ = minitown_inputs(minitown_dir)
    with pytest.raises(EmptyTableError):
        ingest.assemble_variable_table(tracts, providers, net, [], max_snap_m=700.0)


def test_assemble_key_stable_under_input_order(minitown_dir):
    tracts, providers, net, demographics = minitown_inputs(minitown_dir)
    table = ingest.assemble_variable_table(
        tracts, providers, net, demographics, max_snap_m=700.0
    )
    rng = np.random.default_rng(1)
    shuffled_tracts = [tracts[i] for i in rng.permutation(len(tracts))]
    shuffled_demo = [demographics[i] for i in rng.permutation(len(demographics))]
    shuffled_providers = [providers[i] for i in rng.permutation(len(providers))]
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
    trimmed = [r for r in demographics if r.tract_id not in ("t11", "t32")]
    table = ingest.assemble_variable_table(tracts, providers, net, trimmed, max_snap_m=700.0)
    seen = list(table.tract_ids) + [tid for tid, _ in table.dropped]
    assert sorted(seen) == sorted(t.tract_id for t in tracts)


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
