import csv
import gc
import hashlib
import json
import math
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from access_atlas import cli, geometry, ingest, network, report, stats
from access_atlas.config import load_config_file
from access_atlas.errors import DomainError

from _oracles import list_form, queen_adjacency_loop


def run(args):
    return cli.main(args)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def minitown_copy(minitown_dir, tmp_path):
    work = tmp_path / "fixture"
    shutil.copytree(minitown_dir, work)
    return work


def tree_bytes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


# ----------------------------------------------------------------- variables


def test_variables_writes_nine_rows(minitown_config, tmp_path):
    out = tmp_path / "out"
    assert run(["variables", "--config", minitown_config, "--out", str(out)]) == 0
    rows = read_csv(out / "variables.csv")
    assert len(rows) == 9
    assert read_csv(out / "dropped.csv") == []


def test_missing_demographics_file_exits_2(minitown_dir, tmp_path, capsys):
    cfg = read_json(os.path.join(minitown_dir, "config.json"))
    cfg["demographics"] = "nope.csv"
    cfg_path = tmp_path / "config.json"
    for key in ("tracts", "providers", "roads_nodes", "roads_edges"):
        cfg[key] = os.path.join(minitown_dir, cfg[key])
    cfg["out_dir"] = str(tmp_path / "out")
    cfg_path.write_text(json.dumps(cfg))
    code = run(["variables", "--config", str(cfg_path)])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err  # message names the path


def test_invalid_json_tracts_exits_2(minitown_dir, tmp_path, capsys):
    work = minitown_copy(minitown_dir, tmp_path)
    # not JSON, not a FeatureCollection, a feature that is not an object
    for text in ("{not json", "[]", '{"type": "FeatureCollection", "features": [7]}'):
        (work / "tracts.geojson").write_text(text)
        code = run(
            ["variables", "--config", str(work / "config.json"), "--out", str(tmp_path / "out")]
        )
        assert code == 2, text
        assert "tracts.geojson" in capsys.readouterr().err


def test_empty_tract_id_exits_2(minitown_dir, tmp_path, capsys):
    # a tract and a demographics row with an empty id used to join into a
    # variables.csv row with no id
    work = minitown_copy(minitown_dir, tmp_path)
    doc = read_json(work / "tracts.geojson")
    doc["features"][3]["properties"]["tract_id"] = ""
    (work / "tracts.geojson").write_text(json.dumps(doc))
    args = ["variables", "--config", str(work / "config.json"), "--out", str(tmp_path / "out")]
    assert run(args) == 2
    assert capsys.readouterr().err == (
        f"error: {work / 'tracts.geojson'}: feature 3 has an empty tract_id\n"
    )
    shutil.copy(os.path.join(minitown_dir, "tracts.geojson"), work / "tracts.geojson")
    demographics = (work / "demographics.csv").read_text()
    (work / "demographics.csv").write_text(demographics.replace("\nt12,", "\n,"))
    assert run(args) == 2
    assert capsys.readouterr().err == f"error: {work / 'demographics.csv'} row 3: empty tract_id\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [True, 10**400], ids=["boolean", "huge-integer"])
def test_non_float_tract_coordinate_exits_2(minitown_dir, tmp_path, capsys, value):
    # true used to pass as 1.0 (exit 0, the vertex some 7,300 km east), and a
    # 400-digit integer crashed the run with an OverflowError (exit 1)
    work = minitown_copy(minitown_dir, tmp_path)
    doc = read_json(work / "tracts.geojson")
    doc["features"][2]["geometry"]["coordinates"][0][1][0] = value
    (work / "tracts.geojson").write_text(json.dumps(doc))
    args = ["variables", "--config", str(work / "config.json"), "--out", str(tmp_path / "out")]
    assert run(args) == 2
    assert "tracts.geojson: feature 2 is not a valid feature" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_utf8_demographics_exits_2(minitown_dir, tmp_path, capsys):
    work = minitown_copy(minitown_dir, tmp_path)
    with open(work / "demographics.csv", "ab") as fh:
        fh.write(b"t99,caf\xe9,1,1,1,1,1,1,1\n")  # latin-1 byte
    code = run(
        ["variables", "--config", str(work / "config.json"), "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert "demographics.csv" in capsys.readouterr().err


def test_grid_mode_changes_only_ace_net(minitown_config, tmp_path):
    out_c = tmp_path / "centroid"
    out_g = tmp_path / "grid"
    assert run(["variables", "--config", minitown_config, "--out", str(out_c)]) == 0
    assert run(
        ["variables", "--config", minitown_config, "--out", str(out_g),
         "--ace-net-mode", "grid-3"]
    ) == 0
    rows_c = read_csv(out_c / "variables.csv")
    rows_g = read_csv(out_g / "variables.csv")
    diverged = 0
    for a, b in zip(rows_c, rows_g):
        for key in a:
            if key == "ACE_NET":
                diverged += a[key] != b[key]
            else:
                assert a[key] == b[key]
    assert diverged > 0  # grid sampling hits mid-edge nodes the centroid misses


# ----------------------------------------------------------------------- pca


def test_pca_proportions_conserved(minitown_config, tmp_path):
    out = tmp_path / "out"
    assert run(["pca", "--config", minitown_config, "--out", str(out)]) == 0
    rows = read_csv(out / "variance.csv")
    assert len(rows) == 10
    total = sum(float(r["proportion"]) for r in rows)
    assert total == pytest.approx(1.0, abs=5e-6)  # 6dp rendering granularity


def test_unsnappable_tract_is_dropped_not_fatal(minitown_dir, tmp_path):
    work = minitown_copy(minitown_dir, tmp_path)
    with open(work / "tracts.geojson") as fh:
        doc = json.load(fh)
    feature = doc["features"][0]
    tract_id = feature["properties"]["tract_id"]
    # shift the tract 0.2 degrees (about 16 km) east, far beyond snap_max_m
    assert feature["geometry"]["type"] == "Polygon"
    feature["geometry"]["coordinates"] = [
        [[lon + 0.2, lat] for lon, lat in ring] for ring in feature["geometry"]["coordinates"]
    ]
    (work / "tracts.geojson").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(["report", "--config", str(work / "config.json"), "--out", str(out)]) == 0
    dropped = read_csv(out / "dropped.csv")
    assert [r["tract_id"] for r in dropped] == [tract_id]
    reason = dropped[0]["reason"]
    assert reason.startswith("unsnappable (") and reason.endswith(" m)")
    assert float(reason[len("unsnappable ("):-len(" m)")]) > 700
    assert len(read_csv(out / "variables.csv")) == 8


def test_tract_ids_with_csv_specials_keep_every_row_whole(minitown_dir, tmp_path):
    # a comma, a quote and a line break (\n, and a lone \r) in a tract id; the
    # id with the quote also misses a demographic cell, so dropped.csv has it
    work = minitown_copy(minitown_dir, tmp_path)
    renames = {"t11": "t,11", "t22": 't"22', "t33": "t\n33", "t23": "t\r23"}
    doc = read_json(work / "tracts.geojson")
    for feature in doc["features"]:
        props = feature["properties"]
        props["tract_id"] = renames.get(props["tract_id"], props["tract_id"])
    (work / "tracts.geojson").write_text(json.dumps(doc), encoding="utf-8")
    with open(work / "demographics.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    for row in rows:
        row[0] = renames.get(row[0], row[0])
        if row[0] == 't"22':
            row[header.index("ACO_ENG")] = ""
    with open(work / "demographics.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    out = tmp_path / "out"
    assert run(["report", "--config", str(work / "config.json"), "--out", str(out)]) == 0

    def data_rows(name):
        with open(out / name, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert all(len(row) == len(header) for row in rows), name
        return rows

    ids = sorted(f["properties"]["tract_id"] for f in doc["features"])
    retained = [tid for tid in ids if tid != 't"22']
    variables = data_rows("variables.csv")
    assert [row[0] for row in variables] == retained
    assert [row[0] for row in data_rows("scores.csv")] == retained
    assert data_rows("dropped.csv") == [['t"22', "missing ACO_ENG"]]
    # the README's loader reads the same numbers
    table = np.loadtxt(
        out / "variables.csv", delimiter=",", skiprows=1, usecols=range(1, 11), quotechar='"'
    )
    assert table.shape == (8, 10)
    assert table.tolist() == [[float(cell) for cell in row[1:]] for row in variables]


def test_non_decimal_digit_node_id_runs(minitown_dir, tmp_path):
    # "²".isdigit() is True but int("²") raises; it used to crash the run.
    work = minitown_copy(minitown_dir, tmp_path)
    for name in ("roads_nodes.csv", "roads_edges.csv"):
        text = (work / name).read_text(encoding="utf-8")
        assert "c22," in text
        (work / name).write_text(text.replace("c22,", "²,"), encoding="utf-8")
    out = tmp_path / "out"
    assert run(["variables", "--config", str(work / "config.json"), "--out", str(out)]) == 0
    assert len(read_csv(out / "variables.csv")) == 9


def test_unsnappable_supermarket_exits_2(minitown_dir, tmp_path, capsys):
    work = minitown_copy(minitown_dir, tmp_path)
    providers = (work / "providers.csv").read_text()
    (work / "providers.csv").write_text(
        providers.replace("s2,supermarket,-87.695,", "s2,supermarket,-87.495,")
    )
    code = run(
        ["variables", "--config", str(work / "config.json"), "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert "supermarket s2" in capsys.readouterr().err


def test_overflowing_snap_distance_exits_2(minitown_dir, tmp_path, capsys):
    # every node is about 1.7e308 m from the city, so math.hypot overflows to
    # inf; the lengths are explicit because Euclidean ones would overflow too
    work = minitown_copy(minitown_dir, tmp_path)
    (work / "roads_nodes.csv").write_text(
        "node_id,x,y\na,1.7e308,1.7e308\nb,-1.7e308,1.7e308\n"
        "c,-1.7e308,-1.7e308\nd,1.7e308,-1.7e308\n"
    )
    (work / "roads_edges.csv").write_text(
        "from_node,to_node,length_m,road_class\n"
        "a,b,10,residential\nb,c,10,residential\nc,d,10,residential\n"
    )
    code = run(
        ["variables", "--config", str(work / "config.json"), "--out", str(tmp_path / "out")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: supermarket")
    assert "inf m away" in err


def test_single_tract_input_exits_3(minitown_dir, tmp_path):
    with open(os.path.join(minitown_dir, "tracts.geojson")) as fh:
        doc = json.load(fh)
    doc["features"] = doc["features"][:1]
    work = tmp_path / "fixture"
    shutil.copytree(minitown_dir, work)
    (work / "tracts.geojson").write_text(json.dumps(doc))
    code = run(["pca", "--config", str(work / "config.json"), "--out", str(tmp_path / "out")])
    assert code == 3


def single_tract_fixture(minitown_dir, tmp_path):
    with open(os.path.join(minitown_dir, "tracts.geojson")) as fh:
        doc = json.load(fh)
    doc["features"] = doc["features"][:1]
    work = minitown_copy(minitown_dir, tmp_path)
    (work / "tracts.geojson").write_text(json.dumps(doc))
    return str(work / "config.json")


def test_single_tract_report_exits_3_and_writes_nothing(minitown_dir, tmp_path):
    out = tmp_path / "out"
    config = single_tract_fixture(minitown_dir, tmp_path)
    code = run(["report", "--config", config, "--out", str(out)])
    assert code == 3
    assert not out.exists()


def test_single_tract_variables_still_succeeds(minitown_dir, tmp_path):
    out = tmp_path / "out"
    config = single_tract_fixture(minitown_dir, tmp_path)
    code = run(["variables", "--config", config, "--out", str(out)])
    assert code == 0
    assert len(read_csv(out / "variables.csv")) == 1


# --------------------------------------------------------------------- moran


def test_moran_planted_gradient_detected(minitown_config, tmp_path):
    out = tmp_path / "out"
    assert run(["moran", "--config", minitown_config, "--out", str(out)]) == 0
    rows = {r["variable"]: r for r in read_csv(out / "moran.csv")}
    assert len(rows) == 10
    pov = rows["AFF_POV"]
    assert float(pov["moran_i"]) > 0
    assert float(pov["pseudo_p"]) <= 0.05
    assert pov["permutations"] == "999"


def test_constant_moran_column_exits_3_naming_it(minitown_dir, tmp_path, capsys):
    work = minitown_copy(minitown_dir, tmp_path)
    rows = read_csv(work / "demographics.csv")
    for row in rows:
        row["AFF_POV"] = "30"
    with open(work / "demographics.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    code = run(["moran", "--config", str(work / "config.json"), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "AFF_POV" in capsys.readouterr().err


def test_moran_logs_adjacency_shape(minitown_config, minitown_table, tmp_path, caplog):
    tracts, table = minitown_table
    want = queen_adjacency_loop(list_form(tracts, table.index))
    links, islands = sum(map(len, want)) // 2, sum(1 for s in want if not s)
    with caplog.at_level("INFO", logger="access_atlas.cli"):
        assert run(["moran", "--config", minitown_config, "--out", str(tmp_path / "out")]) == 0
    assert f"adjacency: {links} links, {islands} islands" in caplog.messages


def test_moran_rerun_identical(minitown_config, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(["moran", "--config", minitown_config, "--out", str(out_a)]) == 0
    assert run(["moran", "--config", minitown_config, "--out", str(out_b)]) == 0
    assert (out_a / "moran.csv").read_bytes() == (out_b / "moran.csv").read_bytes()


def test_low_permutation_count_exits_4(minitown_config, tmp_path):
    # and the other flags outside their range: a non-finite hinge, a negative
    # seed; a value of the wrong type and an unknown flag are usage errors
    for flag in (
        ["--permutations", "10"],
        ["--hinge", "inf"],
        ["--seed", "-1"],
        ["--hinge", "steep"],
        ["--permutations", "99.5"],
        ["--seed", "x"],
        ["--no-such-flag"],
    ):
        code = run(["moran", "--config", minitown_config, "--out", str(tmp_path / "out"), *flag])
        assert code == 4, flag


# -------------------------------------------------------------------- report


EXPECTED_REPORT_FILES = sorted(
    [
        "variables.csv",
        "dropped.csv",
        "variance.csv",
        "loadings.csv",
        "contributors.csv",
        "var_corr.csv",
        "loading_corr.csv",
        "moran.csv",
        "scores.csv",
        "scores.geojson",
        "boxmap_pc1.svg",
        "boxmap_pc2.svg",
        "boxmap_pc3.svg",
        "boxmap_pc4.svg",
    ]
)


def test_report_emits_full_bundle(minitown_config, tmp_path):
    out = tmp_path / "out"
    assert run(["report", "--config", minitown_config, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == EXPECTED_REPORT_FILES


def test_report_equals_subcommand_composition(minitown_config, tmp_path):
    whole = tmp_path / "whole"
    steps = tmp_path / "steps"
    assert run(["report", "--config", minitown_config, "--out", str(whole)]) == 0
    for sub in ("variables", "pca", "moran", "boxmap"):
        assert run([sub, "--config", minitown_config, "--out", str(steps)]) == 0
    assert tree_bytes(whole) == tree_bytes(steps)


def count_calls(monkeypatch, *functions):
    """Replace each (module, name) function with a wrapper that counts its
    calls; return the counts by name."""
    calls = {name: 0 for _, name in functions}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in functions:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_report_builds_table_and_pca_once(minitown_config, tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, (ingest, "assemble_variable_table"), (stats, "pca"))
    assert run(["report", "--config", minitown_config, "--out", str(tmp_path / "out")]) == 0
    assert calls == {"assemble_variable_table": 1, "pca": 1}


@pytest.mark.parametrize("mode", ["centroid", "grid-3"])
def test_report_packs_the_tracts_once(minitown_config, tmp_path, monkeypatch, mode):
    # AV_INT, the adjacency, the grid sampler and the box maps all read the
    # one Tracts that load_tracts built
    calls = []
    init = geometry.Tracts.__init__
    monkeypatch.setattr(geometry.Tracts, "__init__", lambda *a: calls.append(1) or init(*a))
    args = ["report", "--config", minitown_config, "--out", str(tmp_path / "out")]
    assert run([*args, "--ace-net-mode", mode]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["variables", "report"])
@pytest.mark.parametrize("mode", ["centroid", "grid-3"])
def test_run_snaps_in_one_call(minitown_config, tmp_path, monkeypatch, command, mode):
    # the supermarkets and every origin point of every tract go in one call
    calls = count_calls(monkeypatch, (ingest, "snap_points"))
    args = [command, "--config", minitown_config, "--out", str(tmp_path / "out")]
    assert run([*args, "--ace-net-mode", mode]) == 0
    assert calls == {"snap_points": 1}


def test_report_renders_every_box_map_in_one_call(minitown_config, tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, (report, "emit_geojson"), (report, "emit_svg_choropleth"))
    assert run(["report", "--config", minitown_config, "--out", str(tmp_path / "out")]) == 0
    assert calls == {"emit_geojson": 1, "emit_svg_choropleth": 1}


# sha256 of every file of the minitown bundle. Minitown is rank-deficient
# (9 tracts, 10 variables), so PC9 and PC10 are null components; their
# loading and score columns are exact zeros, which makes the PCA-side files
# independent of the eigensolver and pinnable too.
GOLDEN_SHA256 = {
    "variables.csv": "2e07a409ccffd0d135ddc36c32e33a40648342f80d9b437b85dce6babb435815",
    "dropped.csv": "1bdf67f2f674f68a35617070a52b57a0a949395b44b9757897982a9c1f7a49e2",
    "var_corr.csv": "8f9a592a50769a1dd27bf9ad73fb360fe948b2b52911c8cddc6601ff2577b8c1",
    "moran.csv": "9ae560335a0d377e9e21c3254fe65836db9a83e75f3a883e1181db85db1d650c",
    "variance.csv": "986a04c0c918331938d141edc633f7662e5f08fa63443c6e448e522fe14d9f13",
    "loadings.csv": "f915ddbbb9f36b02a10232c5a2b5b690ff37c19dfa4c8c373b6bcc77ee29bf64",
    "contributors.csv": "a06bcc4532237326c7e91c343ef4a6cefd7efa56b6896d9abf567a0b18cf1760",
    "loading_corr.csv": "42e3e5f5beec2384249f12964dc4f76239d5f1160ad3e96fd0d80a6a0ca3992c",
    "scores.csv": "2951453861237ca90e92ffc5b045048a94c9ca2372536d72635e3fe2dcb99b7d",
    "scores.geojson": "4153ff6fc16786eabda38bbc458bc68ab7934cbc4b27870caf9905f98507218a",
    "boxmap_pc1.svg": "61c746f2d5b175395450a52feeb0d978d4d14c53245587cc05d87166d732a0a5",
    "boxmap_pc2.svg": "a3efde50dabd0105398c8cc05ea072bc9c2e7d67f7f97e8e63e0f84289a28527",
    "boxmap_pc3.svg": "27fa30f9d271cd88cae5be0f2810212a24eac33a0990c24e0686eb5bbf2b519c",
    "boxmap_pc4.svg": "ef8a35075d9a915b4fa482e226b828e3caa024d7d0d7b8e8811bcb0048d949d9",
}


def test_report_golden_bytes(minitown_config, tmp_path):
    assert sorted(GOLDEN_SHA256) == EXPECTED_REPORT_FILES
    out = tmp_path / "out"
    assert run(["report", "--config", minitown_config, "--out", str(out)]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256


def env_without_blas_threads():
    """This process's environment without OPENBLAS_NUM_THREADS."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env


def test_report_golden_bytes_on_the_cli_entry_path(minitown_config, tmp_path):
    # in a fresh `python -m access_atlas.cli`, access_atlas loads numpy and
    # so picks the BLAS thread count; in pytest, conftest loaded numpy first
    out = tmp_path / "out"
    subprocess.run(
        [sys.executable, "-m", "access_atlas.cli", "report", "--config", minitown_config,
         "--out", str(out)],
        env=env_without_blas_threads(),
        capture_output=True,
        check=True,
    )
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(out).items()}
    assert digests == GOLDEN_SHA256


# variables.csv of `report --ace-net-mode grid-3`: the pins above cover
# centroid mode only, and grid sampling reads the tract bboxes and the
# point-in-tract test besides the centroids
GRID3_VARIABLES_SHA256 = "f6d3c554ba3f8b48e522eb7a8b5883cd32061b166a08fc9948760dafb662f1b7"


def test_grid3_report_golden_variables(minitown_config, tmp_path):
    out = tmp_path / "out"
    args = ["report", "--config", minitown_config, "--out", str(out), "--ace-net-mode", "grid-3"]
    assert run(args) == 0
    digest = hashlib.sha256((out / "variables.csv").read_bytes()).hexdigest()
    assert digest == GRID3_VARIABLES_SHA256


def test_projected_road_nodes_give_the_golden_bundle(minitown_dir, tmp_path):
    # the node_id,x,y header: minitown's nodes, projected as the lon/lat
    # loader projects them and written as repr floats, give the same bytes
    work = minitown_copy(minitown_dir, tmp_path)
    cfg = read_json(work / "config.json")
    header, *rows = (work / "roads_nodes.csv").read_text(encoding="utf-8").splitlines()
    assert header == "node_id,lon,lat"
    lines = ["node_id,x,y"]
    for line in rows:
        node_id, lon, lat = line.split(",")
        x, y = geometry.project_lonlat(float(lon), float(lat), cfg["ref_lon"], cfg["ref_lat"])
        lines.append(f"{node_id},{x!r},{y!r}")
    (work / "roads_nodes.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["report", "--config", str(work / "config.json"), "--out", str(out)]) == 0
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(out).items()}
    assert digests == GOLDEN_SHA256


def relabel_road_ids(work):
    """Give minitown's road nodes the decimal ids 1, 2, ... in
    `_node_sort_key` order of their old ids, in both road files: the
    network keeps its node order, and no node id appears in the bundle."""
    nodes = (work / "roads_nodes.csv").read_text(encoding="utf-8")
    edges = (work / "roads_edges.csv").read_text(encoding="utf-8")
    old = sorted((line.split(",")[0] for line in nodes.splitlines()[1:]), key=network._node_sort_key)
    new = {node_id: str(i) for i, node_id in enumerate(old, start=1)}
    for name, text in (("roads_nodes.csv", nodes), ("roads_edges.csv", edges)):
        header, *rows = text.splitlines()
        rows = [",".join(new.get(cell, cell) for cell in row.split(",")) for row in rows]
        (work / name).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def give_every_other_euclidean_length(work):
    """Write every other edge's length as the repr of the Euclidean length
    between its endpoints, projected as the lon/lat loader projects them:
    a length column that mixes given and empty cells, and the same graph."""
    cfg = read_json(work / "config.json")
    header, *rows = (work / "roads_nodes.csv").read_text(encoding="utf-8").splitlines()
    ref = cfg["ref_lon"], cfg["ref_lat"]
    at = {}
    for line in rows:
        node_id, lon, lat = line.split(",")
        at[node_id] = geometry.project_lonlat(float(lon), float(lat), *ref)
    header, *rows = (work / "roads_edges.csv").read_text(encoding="utf-8").splitlines()
    for i in range(0, len(rows), 2):
        a, b, length, road_class = rows[i].split(",")
        assert length == ""
        (xa, ya), (xb, yb) = at[a], at[b]
        rows[i] = f"{a},{b},{math.hypot(xa - xb, ya - yb)!r},{road_class}"  # as geometry.exact_hypot
    (work / "roads_edges.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def test_decimal_road_ids_take_the_numeric_route_to_the_golden_bundle(
    minitown_dir, tmp_path, monkeypatch
):
    # minitown's own ids (c11, h11, ...) send its road files to the general
    # route of network.load_road_network; decimal ids send them to the
    # numeric route, which must give the same bytes, with every length
    # empty and then with every other one given as its Euclidean value
    work = minitown_copy(minitown_dir, tmp_path)
    relabel_road_ids(work)
    assert (work / "roads_edges.csv").read_text().splitlines()[1] == "1,10,,residential"
    paths = []
    real = network.read_csv_table
    monkeypatch.setattr(network, "read_csv_table", lambda path, *a: paths.append(path) or real(path, *a))
    for lengths in ("empty", "mixed"):
        if lengths == "mixed":
            give_every_other_euclidean_length(work)
            assert (work / "roads_edges.csv").read_text().splitlines()[2].endswith(",,residential")
        out = tmp_path / lengths
        assert run(["report", "--config", str(work / "config.json"), "--out", str(out)]) == 0
        assert not [p for p in paths if os.path.basename(p).startswith("roads_")], paths
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(out).items()}
        assert digests == GOLDEN_SHA256, lengths


def shuffle_inputs(work, rnd):
    """Shuffle the data rows of every CSV and the features of the GeoJSON."""
    for name in ("providers.csv", "roads_nodes.csv", "roads_edges.csv", "demographics.csv"):
        header, *rows = (work / name).read_text(encoding="utf-8").splitlines()
        rnd.shuffle(rows)
        (work / name).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    doc = json.loads((work / "tracts.geojson").read_text(encoding="utf-8"))
    rnd.shuffle(doc["features"])
    (work / "tracts.geojson").write_text(json.dumps(doc), encoding="utf-8")


@settings(max_examples=4)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_report_bytes_independent_of_input_row_order(minitown_dir, seed):
    with tempfile.TemporaryDirectory() as tmp:
        work = minitown_copy(minitown_dir, pathlib.Path(tmp))
        shuffle_inputs(work, random.Random(seed))
        out = os.path.join(tmp, "out")
        assert run(["report", "--config", str(work / "config.json"), "--out", out]) == 0
        digests = {
            name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(out).items()
        }
    assert digests == GOLDEN_SHA256


def test_byte_order_marks_give_the_golden_bundle(minitown_dir, tmp_path):
    work = minitown_copy(minitown_dir, tmp_path)
    for name in ("tracts.geojson", "providers.csv", "roads_nodes.csv", "roads_edges.csv",
                 "demographics.csv", "config.json"):
        (work / name).write_bytes(b"\xef\xbb\xbf" + (work / name).read_bytes())
    out = tmp_path / "out"
    assert run(["report", "--config", str(work / "config.json"), "--out", str(out)]) == 0
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(out).items()}
    assert digests == GOLDEN_SHA256


def test_quoted_crlf_inputs_give_the_golden_bundle(minitown_dir, tmp_path):
    # every cell quoted and CRLF line ends, in all four CSVs: the road files
    # decline the numeric route, and csv.reader reads the same cells
    work = minitown_copy(minitown_dir, tmp_path)
    for name in ("providers.csv", "roads_nodes.csv", "roads_edges.csv", "demographics.csv"):
        with open(work / name, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
        with open(work / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(rows)
    assert (work / "roads_edges.csv").read_bytes().startswith(b'"from_node","to_node"')
    out = tmp_path / "out"
    assert run(["report", "--config", str(work / "config.json"), "--out", str(out)]) == 0
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(out).items()}
    assert digests == GOLDEN_SHA256


def test_positions_with_altitude_give_the_golden_bundle(minitown_dir, tmp_path, capsys):
    # RFC 7946 allows a third element (the altitude) in a position; only
    # scores.geojson, which echoes the input geometry, keeps it
    work = minitown_copy(minitown_dir, tmp_path)
    doc = read_json(work / "tracts.geojson")
    for feature in doc["features"]:
        geom = feature["geometry"]
        polygons = [geom["coordinates"]] if geom["type"] == "Polygon" else geom["coordinates"]
        for position in (pos for rings in polygons for ring in rings for pos in ring):
            position.append(0.0)
    (work / "tracts.geojson").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(["report", "--config", str(work / "config.json"), "--out", str(out)]) == 0
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(out).items()}
    assert digests.pop("scores.geojson") != GOLDEN_SHA256["scores.geojson"]
    assert digests == {k: v for k, v in GOLDEN_SHA256.items() if k != "scores.geojson"}
    echoed = read_json(out / "scores.geojson")["features"][0]["geometry"]["coordinates"]
    assert len(echoed[0][0]) == 3
    # a position with fewer than two elements still fails
    doc["features"][0]["geometry"]["coordinates"][0][1] = [-87.705]
    (work / "tracts.geojson").write_text(json.dumps(doc))
    assert run(["report", "--config", str(work / "config.json"), "--out", str(out)]) == 2
    assert "feature 0 is not a valid feature" in capsys.readouterr().err


def test_failed_emitter_leaves_previous_bundle(minitown_config, tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert run(["report", "--config", minitown_config, "--out", str(out)]) == 0
    before = tree_bytes(out)

    def failing_emitter(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(report, "emit_svg_choropleth", failing_emitter)
    code = run(["report", "--config", minitown_config, "--out", str(out), "--seed", "7"])
    assert code == 5
    assert tree_bytes(out) == before
    assert os.listdir(tmp_path) == ["out"]
    assert not any(name.startswith(".tmp-") for name in os.listdir(out))


def test_failed_geojson_stream_leaves_previous_bundle(minitown_config, tmp_path, monkeypatch):
    # emit_geojson hands back a lazy stream, so its failure surfaces only
    # while the bundle is written, after some chunks reached the file
    out = tmp_path / "out"
    assert run(["report", "--config", minitown_config, "--out", str(out)]) == 0
    before = tree_bytes(out)
    emit_geojson = report.emit_geojson
    yielded = []

    def failing_stream(chunks):
        for i, chunk in enumerate(chunks):
            if i == 3:
                raise OSError("disk full")
            yielded.append(chunk)
            yield chunk

    def failing_emitter(*args, **kwargs):
        files = emit_geojson(*args, **kwargs)
        return {name: failing_stream(chunks) for name, chunks in files.items()}

    monkeypatch.setattr(report, "emit_geojson", failing_emitter)
    code = run(["report", "--config", minitown_config, "--out", str(out), "--seed", "7"])
    assert code == 5
    assert len(yielded) == 3
    assert tree_bytes(out) == before
    assert os.listdir(tmp_path) == ["out"]
    assert not any(name.startswith(".tmp-") for name in os.listdir(out))


def svg_files(out):
    return sorted(name for name in os.listdir(out) if name.endswith(".svg"))


def test_fewer_mapped_components_remove_stale_boxmaps(minitown_dir, tmp_path):
    work = minitown_copy(minitown_dir, tmp_path)
    config = work / "config.json"
    out = tmp_path / "out"
    assert run(["report", "--config", str(config), "--out", str(out)]) == 0
    assert svg_files(out) == [f"boxmap_pc{k}.svg" for k in (1, 2, 3, 4)]

    doc = json.loads(config.read_text())
    doc["components_mapped"] = 2
    config.write_text(json.dumps(doc))
    assert run(["report", "--config", str(config), "--out", str(out)]) == 0
    assert svg_files(out) == ["boxmap_pc1.svg", "boxmap_pc2.svg"]
    assert sorted(os.listdir(out)) == [
        name for name in EXPECTED_REPORT_FILES if name not in ("boxmap_pc3.svg", "boxmap_pc4.svg")
    ]

    # a command without the boxmap step leaves the box maps alone
    doc["components_mapped"] = 1
    config.write_text(json.dumps(doc))
    assert run(["pca", "--config", str(config), "--out", str(out)]) == 0
    assert svg_files(out) == ["boxmap_pc1.svg", "boxmap_pc2.svg"]


def test_unwritable_out_dir_exits_5(minitown_config, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the out dir should go")
    code = run(["report", "--config", minitown_config, "--out", str(blocker)])
    assert code == 5


# Every call main makes, under the name it looks the function up by, and
# the exit code of the stage that makes it; minitown's road files take the
# general route of network.load_road_network, which makes the three calls
# after it.
PIPELINE_CALLS = [
    (cli, "_config_from_args", 4),
    (ingest, "load_tracts", 2),
    (ingest, "load_providers", 2),
    (cli, "load_road_network", 2),
    (network, "load_road_nodes", 2),
    (network, "load_road_edges", 2),
    (network, "build_network", 2),
    (ingest, "load_demographics", 2),
    (ingest, "assemble_variable_table", 2),
    (stats, "pca", 3),
    (stats, "loading_profile_correlation", 3),
    (cli, "queen_adjacency", 3),
    (stats, "morans_i", 3),
    (report, "boxmap_classify", 3),
    (report, "emit_variables_csv", 5),
    (report, "emit_pca_tables", 5),
    (report, "emit_moran_csv", 5),
    (report, "emit_geojson", 5),
    (report, "emit_svg_choropleth", 5),
    (cli, "_write_bundle", 5),
]


@pytest.mark.parametrize("error", [DomainError, OSError], ids=["DomainError", "OSError"])
@pytest.mark.parametrize(
    "module, name, code", PIPELINE_CALLS, ids=[name for _, name, _ in PIPELINE_CALLS]
)
def test_a_failing_call_exits_with_its_stage_code_and_writes_nothing(
    minitown_config, tmp_path, monkeypatch, capsys, module, name, code, error
):
    def failing(*args, **kwargs):
        raise error(f"{name} failed")

    monkeypatch.setattr(module, name, failing)
    out = tmp_path / "out"
    assert run(["report", "--config", minitown_config, "--out", str(out)]) == code
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {name} failed"
    assert not out.exists()


def test_boxmap_computes_no_loading_correlation(minitown_config, tmp_path, monkeypatch):
    # only the pca step writes loading_corr.csv
    calls = count_calls(monkeypatch, (stats, "pca"), (stats, "loading_profile_correlation"))
    assert run(["boxmap", "--config", minitown_config, "--out", str(tmp_path / "out")]) == 0
    assert calls == {"pca": 1, "loading_profile_correlation": 0}


@pytest.mark.skipif(os.geteuid() == 0, reason="root ignores mode bits")
def test_out_dir_under_a_read_only_parent_runs(minitown_config, tmp_path):
    # the bundle is staged inside out_dir, so only out_dir must be writable
    parent = tmp_path / "parent"
    out = parent / "out"
    out.mkdir(parents=True)
    parent.chmod(0o555)
    try:
        assert run(["report", "--config", minitown_config, "--out", str(out)]) == 0
    finally:
        parent.chmod(0o755)
    assert sorted(os.listdir(out)) == EXPECTED_REPORT_FILES


# ----------------------------------------------------------------- config


def test_flag_overrides_config_value(minitown_config, tmp_path):
    out = tmp_path / "out"
    assert run(
        ["moran", "--config", minitown_config, "--out", str(out), "--seed", "555"]
    ) == 0
    rows = read_csv(out / "moran.csv")
    assert all(r["seed"] == "555" for r in rows)


@pytest.mark.parametrize(
    "flag, value, field, want",
    [
        ("--out", "elsewhere", "out_dir", "elsewhere"),
        ("--seed", "555", "seed", 555),
        ("--permutations", "199", "moran_permutations", 199),
        ("--hinge", "3.0", "hinge", 3.0),
        ("--sig-threshold", "0.5", "sig_threshold", 0.5),
        ("--sec-threshold", "0.2", "sec_threshold", 0.2),
        ("--ace-net-mode", "grid-3", "ace_net_mode", "grid-3"),
        ("--ref-lon", "-87.5", "ref_lon", -87.5),
        ("--ref-lat", "41.5", "ref_lat", 41.5),
    ],
)
def test_every_flag_lands_in_its_config_field(minitown_config, flag, value, field, want):
    # the config file holds another value, so the flag is what set it; every
    # command takes every flag, after the command or before it
    assert getattr(load_config_file(minitown_config), field) != want
    for command in cli.COMMANDS:
        for argv in (
            [command, "--config", minitown_config, flag, value],
            [flag, value, command, "--config", minitown_config],
        ):
            args = cli._build_parser().parse_args(argv)
            assert args.command == command, argv
            assert getattr(cli._config_from_args(args), field) == want, argv


def test_env_seed_fallback(minitown_dir, tmp_path, monkeypatch):
    cfg = read_json(os.path.join(minitown_dir, "config.json"))
    del cfg["seed"]
    for key in ("tracts", "providers", "roads_nodes", "roads_edges", "demographics"):
        cfg[key] = os.path.join(minitown_dir, cfg[key])
    cfg["out_dir"] = str(tmp_path / "out")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    monkeypatch.setenv("ACCESS_ATLAS_SEED", "777")
    assert run(["moran", "--config", str(cfg_path)]) == 0
    rows = read_csv(tmp_path / "out" / "moran.csv")
    assert all(r["seed"] == "777" for r in rows)


def test_bad_ace_net_mode_exits_4(minitown_config, tmp_path):
    for mode in ("hexgrid", "grid-0", "grid-03", "grid-+3", "grid- 3"):
        code = run(
            ["variables", "--config", minitown_config, "--out", str(tmp_path / "out"),
             "--ace-net-mode", mode]
        )
        assert code == 4, mode


@pytest.mark.parametrize("ref_lat", [95, 89, -89])
def test_ref_lat_outside_the_plane_band_exits_4(minitown_dir, tmp_path, capsys, ref_lat):
    # a reference latitude the projection rejects is an invalid configuration,
    # by flag or by config key; it used to fail as an ingest fault of the
    # first tract (exit 2)
    work = minitown_copy(minitown_dir, tmp_path)
    message = f"error: config: ref_lat must be in (-89, 89), got {float(ref_lat)}\n"
    out = tmp_path / "out"
    args = ["report", "--config", str(work / "config.json"), "--out", str(out)]
    assert run([*args, "--ref-lat", str(ref_lat)]) == 4
    assert capsys.readouterr().err == message
    cfg = read_json(work / "config.json")
    cfg["ref_lat"] = ref_lat
    (work / "config.json").write_text(json.dumps(cfg))
    assert run(args) == 4
    assert capsys.readouterr().err == message
    assert not out.exists()
    assert sorted(os.listdir(work)) == sorted(os.listdir(minitown_dir))


@pytest.mark.parametrize("ref_lon", [500, 180.5, -181])
def test_ref_lon_outside_the_globe_exits_4(minitown_dir, tmp_path, capsys, ref_lon):
    # a reference longitude off the globe is an invalid configuration, by
    # flag or by config key; it used to fail as an ingest fault of the
    # first tract, whose projected point left the local plane (exit 2)
    work = minitown_copy(minitown_dir, tmp_path)
    message = f"error: config: ref_lon must be in [-180, 180], got {float(ref_lon)}\n"
    out = tmp_path / "out"
    args = ["report", "--config", str(work / "config.json"), "--out", str(out)]
    assert run([*args, "--ref-lon", str(ref_lon)]) == 4
    assert capsys.readouterr().err == message
    cfg = read_json(work / "config.json")
    cfg["ref_lon"] = ref_lon
    (work / "config.json").write_text(json.dumps(cfg))
    assert run(args) == 4
    assert capsys.readouterr().err == message
    assert not out.exists()
    assert sorted(os.listdir(work)) == sorted(os.listdir(minitown_dir))


def test_missing_config_paths_exit_4(tmp_path):
    assert run(["variables", "--out", str(tmp_path / "out")]) == 4


@pytest.mark.parametrize(
    "key", ["tracts", "providers", "roads_nodes", "roads_edges", "demographics", "out_dir"]
)
def test_empty_config_path_exits_4(minitown_dir, tmp_path, capsys, key):
    # joined onto the config's directory, an empty path used to name that
    # directory: an empty out_dir wrote the bundle beside the inputs
    work = minitown_copy(minitown_dir, tmp_path)
    cfg = read_json(work / "config.json")
    cfg[key] = ""
    (work / "config.json").write_text(json.dumps(cfg))
    before = tree_bytes(work)
    assert run(["report", "--config", str(work / "config.json")]) == 4
    assert f"config: {key} path is empty" in capsys.readouterr().err
    assert tree_bytes(work) == before


def test_non_numeric_config_value_exits_4(minitown_dir, tmp_path, capsys):
    # booleans and strings are not numbers, an integer key takes no fraction,
    # a float is finite (json.dumps writes inf as a bare Infinity), a seed >= 0,
    # and road_classes a non-empty list of strings (a nested list used to
    # crash as unhashable, a number passed unchecked, and an empty list
    # failed at snapping with exit 2); the error names the key
    for key, value in (
        ("hinge", "steep"),
        ("components_mapped", 2.7),
        ("moran_permutations", 99.9),
        ("seed", True),
        ("hinge", True),
        ("hinge", "1.5"),
        ("hinge", "Infinity"),
        ("snap_max_m", "inf"),
        ("ref_lat", "nan"),
        ("hinge", float("inf")),
        ("ref_lon", float("nan")),
        ("sig_threshold", float("-inf")),
        ("hinge", 10**400),
        ("seed", -1),
        ("road_classes", [["residential"]]),
        ("road_classes", [1, "residential"]),
        ("road_classes", []),
        ("road_classes", "residential"),
    ):
        cfg = read_json(os.path.join(minitown_dir, "config.json"))
        cfg[key] = value
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run(["report", "--config", str(cfg_path)]) == 4, (key, value)
        assert key in capsys.readouterr().err, (key, value)
    work = minitown_copy(minitown_dir, tmp_path)
    cfg = read_json(work / "config.json")
    cfg["road_classes"] = ["residential", "tertiary"]
    (work / "config.json").write_text(json.dumps(cfg))
    assert run(["variables", "--config", str(work / "config.json")]) == 0


def test_config_that_is_not_utf8_exits_4(tmp_path):
    # a config file with a byte UTF-8 cannot decode is an invalid
    # configuration, as one that is not JSON is: exit 4, and no traceback
    for name, data in (("bad.json", b'{"seed": "\xff"}'), ("odd.json", b'{"seed": ')):
        cfg_path = tmp_path / name
        cfg_path.write_bytes(data)
        proc = subprocess.run(
            [sys.executable, "-m", "access_atlas.cli", "report", "--config", str(cfg_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"error: config {cfg_path} is not a UTF-8 JSON file: " in proc.stderr


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "access_atlas.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4  # usage error: missing command
    proc = subprocess.run(
        [sys.executable, "-m", "access_atlas.cli", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4  # usage error: unknown command
    proc = subprocess.run(
        [sys.executable, "-m", "access_atlas.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert all(command in proc.stdout for command in cli.COMMANDS)
    proc = subprocess.run(
        [sys.executable, "-c", "from access_atlas.cli import main; raise SystemExit(main(['report', '--help']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "--hinge" in proc.stdout


def test_cli_import_loads_no_network_or_mail_modules():
    # xml.sax.saxutils would pull in urllib.request, http.client and email
    # (about 30 ms of start-up in every process) for one escape function
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, access_atlas.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "access_atlas.report" in loaded
    assert loaded.isdisjoint({"urllib.request", "http.client", "email.parser"})


BLAS_PROBE = """
import os, access_atlas.cli
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(os.environ.get("OPENBLAS_NUM_THREADS"), threads)
"""


@pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
def test_cli_import_defaults_openblas_to_one_thread(given, expected):
    # the package's BLAS calls are all at most n x 10; an idle OpenBLAS
    # worker only spins on another core. A value the caller set is kept.
    env = env_without_blas_threads()
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_PROBE], env=env, capture_output=True, text=True, check=True
    )
    value, threads = proc.stdout.split()
    assert value == expected
    if given is None and threads != "None":
        assert threads == "1"


# --------------------------------------------------------- garbage collector


def run_recording_collections(args):
    """cli.main(args), and (generation, function that set it off) for every
    cyclic-collector pass that started during the call."""
    passes = []

    def hook(phase, info):
        if phase == "start":
            passes.append((info["generation"], sys._getframe(1).f_code.co_name))

    gc.callbacks.append(hook)
    try:
        code = run(args)
    finally:
        gc.callbacks.remove(hook)
    return code, passes


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_runs_without_the_cyclic_collector_and_restores_it(
    minitown_dir, minitown_config, tmp_path, enabled
):
    # the pipeline makes no reference cycles, yet its allocations set off
    # passes that walk every object numpy's import left; main starts none
    cfg = read_json(os.path.join(minitown_dir, "config.json"))
    for key in ("tracts", "providers", "roads_nodes", "roads_edges"):
        cfg[key] = os.path.join(minitown_dir, cfg[key])
    cfg["demographics"] = str(tmp_path / "nope.csv")
    cfg["out_dir"] = str(tmp_path / "bad")
    (tmp_path / "missing.json").write_text(json.dumps(cfg))
    runs = [
        (["report", "--config", minitown_config, "--out", str(tmp_path / "out")], 0),
        (["report", "--config", str(tmp_path / "missing.json")], 2),
        (["report", "--config", minitown_config, "--hinge", "steep"], 4),
    ]
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        (gc.enable if enabled else gc.disable)()
        for args, want_code in runs:
            assert run_recording_collections(args) == (want_code, []), args
            assert gc.isenabled() is enabled, args
            # only the console entry freezes; main leaves nothing frozen
            assert gc.get_freeze_count() == frozen, args
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_a_run_leaves_no_pipeline_object_to_the_cyclic_collector(minitown_config, tmp_path):
    # with the collector off, whatever forms a cycle stays in memory until
    # the caller collects; no array and no object of the package may
    was_enabled, debug = gc.isenabled(), gc.get_debug()
    garbage = list(gc.garbage)
    try:
        gc.collect()
        gc.disable()
        assert run(["report", "--config", minitown_config, "--out", str(tmp_path / "out")]) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.garbage.clear()
        gc.collect()
        left = list(gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage[:] = garbage
        (gc.enable if was_enabled else gc.disable)()
    assert not any(isinstance(o, np.ndarray) for o in left)
    ours = [o for o in left if type(o).__module__.startswith("access_atlas")]
    assert ours == []


# the console entry, with an atexit handler of the caller's own registered
# beside whatever else the interpreter holds; the handler reports whether
# the collector was frozen by then
CONSOLE_ENTRY = """
import atexit, gc, sys
from access_atlas.cli import console_main
atexit.register(lambda: print(f"atexit: frozen {gc.get_freeze_count() > 0}", file=sys.stderr))
sys.argv = ["access-atlas", *sys.argv[1:]]
console_main()
"""


def test_console_entry_freezes_the_collector_and_exits_like_a_normal_interpreter(
    minitown_config, tmp_path
):
    # interpreter shutdown would walk every object numpy's import left; the
    # console entry freezes them first, yet must exit as an interpreter does:
    # its atexit handlers (coverage writes its data from one) run after the
    # bundle and any error line
    def console(*args):
        return subprocess.run(
            [sys.executable, "-c", CONSOLE_ENTRY, *args], capture_output=True, text=True
        )

    out = tmp_path / "out"
    proc = console("report", "--config", minitown_config, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "atexit: frozen True"
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(out).items()}
    assert digests == GOLDEN_SHA256

    missing = tmp_path / "missing.json"
    proc = console("report", "--config", str(missing))
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert lines[-2].startswith(f"error: cannot read config {missing}: ")
    assert lines[-1] == "atexit: frozen True"
