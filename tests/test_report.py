import json
import math
import re
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, strategies as st

from access_atlas import stats
from access_atlas.errors import DomainError
from access_atlas.ingest import VARIABLE_COLUMNS, VariableTable, load_tracts
from access_atlas.report import (
    BOX_CLASSES,
    BOX_PALETTE,
    BOXMAP_SVG,
    CLASS_LABELS,
    _xml_escape,
    boxmap_classify,
    emit_geojson,
    emit_moran_csv,
    emit_pca_tables,
    emit_svg_choropleth,
)

from _oracles import (
    Polygon,
    ProjectedPoint,
    boxmap_classify_loop,
    pack,
    scores_geojson_encoder,
    svg_choropleth_loop,
)


# ------------------------------------------------------------ boxmap classes


def test_hand_computed_octet():
    values = [1, 2, 3, 4, 5, 6, 7, 100]
    # sorted sample quartiles by interpolation: Q1=2.75, Q2=4.5, Q3=6.25;
    # IQR=3.5, fences at -2.5 and 11.5
    classes = boxmap_classify(np.array(values, dtype=float))
    want = ["q1", "q1", "q2", "q2", "q3", "q3", "q4", "upper_outlier"]
    assert classes == want


def test_constant_sample_all_q1_no_outliers():
    classes = boxmap_classify(np.array([7.0] * 5))
    assert classes == ["q1"] * 5


def test_symmetric_outliers():
    classes = boxmap_classify(np.array([-100.0, -1.0, 0.0, 1.0, 100.0]))
    assert classes[0] == "lower_outlier"
    assert classes[-1] == "upper_outlier"
    assert classes[1:-1] == ["q1", "q2", "q3"]


def test_needs_five_values():
    with pytest.raises(DomainError):
        boxmap_classify(np.array([1.0, 2.0, 3.0, 4.0]))


def test_every_value_gets_exactly_one_known_class():
    rng = np.random.default_rng(31)
    values = rng.normal(size=50)
    classes = boxmap_classify(values)
    assert len(classes) == 50
    assert all(c in BOX_CLASSES for c in classes)


def test_classes_monotone_when_sorted():
    rng = np.random.default_rng(32)
    values = np.sort(rng.normal(size=40))
    ranks = [BOX_CLASSES.index(c) for c in boxmap_classify(values)]
    assert ranks == sorted(ranks)


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=5, max_size=60),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.1, max_value=5.0),
)
def test_raising_hinge_never_adds_outliers(values, hinge, extra):
    lo = boxmap_classify(np.array(values), hinge)
    hi = boxmap_classify(np.array(values), hinge + extra)
    def outliers(cs):
        return sum(1 for c in cs if c.endswith("outlier"))
    assert outliers(hi) <= outliers(lo)


def test_boxmap_classes_match_the_per_value_loop():
    # repeated values land on the quartiles, a constant column with one
    # outlier has an IQR of 0, and hinges go down to 1e-9
    rng = np.random.default_rng(33)
    seen = set()
    for case in range(3000):
        n = int(rng.integers(5, 40))
        if case % 3 == 0:
            values = rng.choice(rng.normal(size=int(rng.integers(1, 5))), size=n)
        elif case % 3 == 1:
            values = np.full(n, float(rng.normal()))
            jump = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, 3))
            values[int(rng.integers(0, n))] += jump
        else:
            values = rng.normal(size=n) * 10.0 ** float(rng.integers(-6, 6))
        hinge = 1e-9 if case % 10 == 0 else float(10.0 ** rng.uniform(-9, 1))
        got = boxmap_classify(values, hinge)
        assert got == boxmap_classify_loop(values, hinge), (values.tolist(), hinge)
        seen.update(got)
    assert seen == set(BOX_CLASSES)


def test_quartile_bin_counts_balanced_without_ties():
    values = np.arange(16, dtype=float)  # distinct, no outliers
    classes = boxmap_classify(values)
    counts = {c: classes.count(c) for c in set(classes)}
    assert set(counts) == {"q1", "q2", "q3", "q4"}
    assert max(counts.values()) - min(counts.values()) <= 1


# ------------------------------------------------------------- emit: tables


def write_report_csvs(table, pca_result, loading_corr, moran, names=VARIABLE_COLUMNS):
    """Render the seven report CSVs with the emitters the CLI uses: {name: text}."""
    thresholds = stats.ContributorThresholds()
    files = emit_pca_tables(table, pca_result, loading_corr, thresholds, names)
    files.update(emit_moran_csv(moran))
    return files


def small_bundle(minitown_table):
    tracts, table = minitown_table
    names = list(VARIABLE_COLUMNS)
    pca_result = stats.pca(table.values, names)
    loading_corr = stats.loading_profile_correlation(pca_result.loadings, names)
    from access_atlas.geometry import queen_adjacency

    adjacency = queen_adjacency(tracts, table.index)
    moran = list(zip(names[:2], stats.morans_i(table.values[:, :2], adjacency, 99, 7)))
    return table, pca_result, loading_corr, moran


def test_emit_tables_shapes_and_determinism(minitown_table):
    bundle = small_bundle(minitown_table)
    files = write_report_csvs(*bundle)
    assert sorted(files) == [
        "contributors.csv",
        "loading_corr.csv",
        "loadings.csv",
        "moran.csv",
        "scores.csv",
        "var_corr.csv",
        "variance.csv",
    ]
    rows = files["loadings.csv"].strip().split("\n")
    assert len(rows) == 11  # header + 10 variables
    assert all(len(r.split(",")) == 11 for r in rows)  # variable + 10 PCs
    assert [r.split(",")[0] for r in rows[1:]] == list(VARIABLE_COLUMNS)
    again = write_report_csvs(*bundle)
    for name in files:
        assert again[name].encode() == files[name].encode()


def test_emit_tables_single_component_edge():
    # p=1: the loading matrix is [[1.0]] and profile correlation is
    # definitionally the unit diagonal
    rng = np.random.default_rng(40)
    t = rng.normal(size=(12, 1))
    pca_result = stats.pca(t, ["A"])
    assert pca_result.loadings.tolist() == [[1.0]]
    from access_atlas.ingest import VariableTable

    table = VariableTable(tract_ids=[f"t{i}" for i in range(12)], values=t, index=np.arange(12))
    unit = np.array([[1.0]])
    files = write_report_csvs(table, pca_result, unit, [], names=("A",))
    rows = files["loadings.csv"].strip().split("\n")
    assert rows[0] == "variable,PC1"
    assert rows[1] == "A,1.000000"
    assert len(rows) == 2


# ------------------------------------------------------------ emit: geojson


def test_geojson_roundtrip_and_dropped_nulls(minitown_table):
    tracts, full = minitown_table
    keep = [i for i, tid in enumerate(full.tract_ids) if tid != "t22"]
    table = VariableTable(
        [full.tract_ids[i] for i in keep],
        full.values[keep],
        full.index[keep],
        dropped=[("t22", "missing demographics")],
    )
    pca_result = stats.pca(table.values, list(VARIABLE_COLUMNS))
    k = 4
    classes = [boxmap_classify(pca_result.scores[:, c]) for c in range(k)]
    files = emit_geojson(tracts, table, pca_result.scores, classes)
    assert list(files) == ["scores.geojson"]
    doc = json.loads("".join(files["scores.geojson"]))
    assert doc["type"] == "FeatureCollection"
    assert len(doc["features"]) == 9
    ids = [f["properties"]["tract_id"] for f in doc["features"]]
    assert ids == sorted(tracts.ids)
    for feature in doc["features"]:
        props = feature["properties"]
        expected_keys = {"tract_id"} | {f"pc{c+1}_score" for c in range(k)} | {
            f"pc{c+1}_class" for c in range(k)
        }
        if props["tract_id"] == "t22":
            expected_keys.add("dropped_reason")
            assert props["pc1_score"] is None
            assert props["dropped_reason"] == "missing demographics"
        else:
            assert isinstance(props["pc1_score"], float)
            assert props["pc1_class"] in BOX_CLASSES
        assert set(props) == expected_keys
        assert feature["geometry"]["type"] == "Polygon"


# Coordinates about a (0, 0) reference: reprs such as 1e-07 and -0.0, and
# integral values that may be written as JSON ints.
ORIGINS = st.sampled_from([0.0, -0.0, 1e-07, -2.5e-06, 0.1, -0.3, 1.0, -1.0, 0.123456789])
SIDES = st.sampled_from([1e-04, 0.001, 0.01, 0.25, 1.0, 0.1 + 0.2])


@st.composite
def rectangles(draw, odd: bool):
    """One part, a rectangle with maybe a hole, as rings of [lon, lat]
    positions, open or closed, either way round; if odd, maybe in ints or
    with an altitude."""
    x0, y0, w, h = draw(ORIGINS), draw(ORIGINS), draw(SIDES), draw(SIDES)
    boxes = [(x0, y0, x0 + w, y0 + h)]
    if draw(st.booleans()):  # a hole
        boxes.append((x0 + w / 4, y0 + h / 4, x0 + 3 * w / 4, y0 + 3 * h / 4))
    ints = odd and draw(st.booleans())
    altitude = draw(st.sampled_from([None, 0, 12.5, -1e-07])) if odd else None
    rings = []
    for xa, ya, xb, yb in boxes:
        ring = [[xa, ya], [xb, ya], [xb, yb], [xa, yb]]
        if draw(st.booleans()):
            ring.reverse()
        if ints:
            ring = [[int(v) if v == int(v) else v for v in p] for p in ring]
        if altitude is not None:
            ring = [p + [altitude] for p in ring]
        if draw(st.booleans()):  # closed
            ring.append(list(ring[0]))
        rings.append(ring)
    return rings


@st.composite
def geometries(draw):
    """A Polygon or MultiPolygon geometry object; if odd, maybe with its
    keys the other way round or a bbox."""
    odd = draw(st.booleans())
    if draw(st.booleans()):
        geometry = {"type": "Polygon", "coordinates": draw(rectangles(odd))}
    else:
        parts = draw(st.lists(rectangles(odd), min_size=1, max_size=3))
        geometry = {"type": "MultiPolygon", "coordinates": parts}
    if odd and draw(st.booleans()):
        geometry = {"coordinates": geometry["coordinates"], "type": geometry["type"]}
    if odd and draw(st.booleans()):
        geometry["bbox"] = [-1.0, -1, 2.5, 2.5]
    return geometry


TRACT_IDS = st.text(min_size=1, max_size=4) | st.sampled_from(
    ['t"1', "a\\b", "\u00e9t\u00e9", "\u4e1c", "\U0001f600", "line\nbreak", "\u2028"]
)
SCORES = st.floats(width=64) | st.sampled_from([-0.0, 1e16, 1e-07, -5e-07, 1.5e-06, 0.1 + 0.2])


@given(
    st.lists(st.tuples(TRACT_IDS, geometries()), min_size=1, max_size=6, unique_by=lambda f: f[0]),
    st.data(),
)
def test_geojson_equals_the_document_encoded_whole(tmp_path_factory, features, data):
    doc = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "properties": {"tract_id": tid}, "geometry": g}
            for tid, g in features
        ],
    }
    path = tmp_path_factory.mktemp("geojson") / "tracts.geojson"
    path.write_text(json.dumps(doc))
    tracts = load_tracts(str(path), 0.0, 0.0)
    n = len(features)
    index = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
    mapped = data.draw(st.integers(0, 3))
    # one score column more than the mapped components, which is not echoed
    size = len(index) * (mapped + 1)
    scores = np.array(data.draw(st.lists(SCORES, min_size=size, max_size=size)))
    scores = scores.reshape(len(index), mapped + 1)
    classes = [
        data.draw(st.lists(st.sampled_from(BOX_CLASSES), min_size=len(index), max_size=len(index)))
        for _ in range(mapped)
    ]
    reasons = st.text(max_size=8)
    dropped = [(tid, data.draw(reasons)) for k, (tid, _) in enumerate(features) if k not in index]
    table = VariableTable(
        [tracts.ids[t] for t in index],
        np.zeros((len(index), 10)),
        np.array(index, dtype=np.intp),
        dropped=dropped,
    )
    stream = emit_geojson(tracts, table, scores, classes)["scores.geojson"]
    want = scores_geojson_encoder([g for _, g in features], tracts, table, scores, classes)
    assert "".join(stream) == want


# --------------------------------------------------------------- emit: svg


def test_svg_structure(minitown_table):
    tracts, table = minitown_table
    classes = [BOX_CLASSES[i % 6] for i in range(table.n)]
    files = emit_svg_choropleth(tracts, table.index, [classes])
    assert list(files) == ["boxmap_pc1.svg"]
    svg = files["boxmap_pc1.svg"]
    assert svg.count("<path ") == 9
    assert svg.count('class="legend-swatch"') == 6
    assert svg.startswith("<svg ")
    # must be well-formed XML (legend labels contain < and >)
    import xml.etree.ElementTree as ET

    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    assert sum(1 for e in root.iter(f"{ns}path")) == 9
    assert sum(1 for e in root.iter(f"{ns}rect")) == 6


def test_svg_single_class_single_fill(minitown_table):
    tracts, table = minitown_table
    classes = ["q2"] * table.n
    svg = emit_svg_choropleth(tracts, table.index, [classes, classes])["boxmap_pc2.svg"]
    path_lines = [l for l in svg.split("\n") if l.startswith("<path ")]
    fills = {l.split('fill="')[1].split('"')[0] for l in path_lines}
    assert fills == {"#d1e5f0"}


def test_svg_deterministic(minitown_table):
    tracts, table = minitown_table
    classes = [BOX_CLASSES[i % 6] for i in range(table.n)]
    a = emit_svg_choropleth(tracts, table.index, [classes] * 3)
    b = emit_svg_choropleth(tracts, table.index, [classes] * 3)
    assert a == b


def test_svg_maps_share_one_frame(minitown_table):
    tracts, table = minitown_table
    k = 4
    columns = [[BOX_CLASSES[(i + c) % 6] for i in range(table.n)] for c in range(k)]
    files = emit_svg_choropleth(tracts, table.index, columns)
    assert list(files) == [f"boxmap_pc{c}.svg" for c in range(1, k + 1)]
    assert all(BOXMAP_SVG.fullmatch(name) for name in files)
    paths = [re.findall(r'<path d="([^"]*)" fill="([^"]*)"/>', svg) for svg in files.values()]
    assert all([d for d, _ in p] == [d for d, _ in paths[0]] for p in paths)
    for c, p in enumerate(paths):
        assert [fill for _, fill in p] == [BOX_PALETTE[cls] for cls in columns[c]]
        assert f"PC{c + 1} box map" in files[f"boxmap_pc{c + 1}.svg"]


def square_ring(x0, y0, size):
    corners = ((0, 0), (1, 0), (1, 1), (0, 1))
    return [ProjectedPoint(x0 + dx * size, y0 + dy * size) for dx, dy in corners]


def test_svg_maps_equal_one_map_per_call():
    # holes, a two-part tract and irrational coordinates, against a renderer
    # that draws each map from scratch; the tracts packed from closed source
    # rings and from the same rings left open
    rng = np.random.default_rng(14)
    tracts, open_tracts = [], []
    for i in range(12):
        x0, y0 = rng.uniform(-5e3, 5e3, size=2)
        size = rng.uniform(50.0, 900.0)
        rings = [square_ring(x0, y0, size)]
        if i % 3 == 0:
            rings.append(square_ring(x0 + size / 3, y0 + size / 3, size / 3))
        parts = [rings]
        if i % 4 == 1:
            parts.append([square_ring(x0 + 2 * size, y0 - size / math.pi, size / 2)])
        tracts.append([Polygon(part) for part in parts])
        open_tracts.append(parts)
    # a subset of the packed tracts, out of order
    index = rng.permutation(len(tracts))[:9]
    columns = [[BOX_CLASSES[j] for j in rng.integers(0, 6, size=len(index))] for _ in range(3)]
    want = {
        f"boxmap_pc{c + 1}.svg": svg_choropleth_loop([tracts[i] for i in index], column, c)
        for c, column in enumerate(columns)
    }
    assert emit_svg_choropleth(pack(tracts), index, columns) == want
    assert emit_svg_choropleth(pack(open_tracts), index, columns) == want


def test_xml_escape_matches_saxutils():
    for text in [*CLASS_LABELS.values(), "a & b <c> &amp; >&<", ""]:
        assert _xml_escape(text) == escape(text)
