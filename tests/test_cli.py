import csv
import hashlib
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from access_atlas import cli, ingest, report, stats


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


def test_moran_rerun_identical(minitown_config, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(["moran", "--config", minitown_config, "--out", str(out_a)]) == 0
    assert run(["moran", "--config", minitown_config, "--out", str(out_b)]) == 0
    assert (out_a / "moran.csv").read_bytes() == (out_b / "moran.csv").read_bytes()


def test_low_permutation_count_exits_4(minitown_config, tmp_path):
    # and the other flags outside their range: a non-finite hinge, a negative seed
    for flag in (["--permutations", "10"], ["--hinge", "inf"], ["--seed", "-1"]):
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


def test_report_builds_table_and_pca_once(minitown_config, tmp_path, monkeypatch):
    calls = {"assemble": 0, "pca": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        ingest, "assemble_variable_table", counted("assemble", ingest.assemble_variable_table)
    )
    monkeypatch.setattr(stats, "pca", counted("pca", stats.pca))
    assert run(["report", "--config", minitown_config, "--out", str(tmp_path / "out")]) == 0
    assert calls == {"assemble": 1, "pca": 1}


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
    assert os.listdir(tmp_path) == ["out"]  # no temporary directory left behind


def test_failed_geojson_stream_leaves_previous_bundle(minitown_config, tmp_path, monkeypatch):
    # emit_geojson hands back a lazy stream, so its failure surfaces only
    # while the bundle is written, after some chunks reached the file
    out = tmp_path / "out"
    assert run(["report", "--config", minitown_config, "--out", str(out)]) == 0
    before = tree_bytes(out)
    emit_geojson = report.emit_geojson
    yielded = []

    def failing_stream(*args, **kwargs):
        for i, chunk in enumerate(emit_geojson(*args, **kwargs)):
            if i == 3:
                raise OSError("disk full")
            yielded.append(chunk)
            yield chunk

    monkeypatch.setattr(report, "emit_geojson", failing_stream)
    code = run(["report", "--config", minitown_config, "--out", str(out), "--seed", "7"])
    assert code == 5
    assert len(yielded) == 3
    assert tree_bytes(out) == before
    assert os.listdir(tmp_path) == ["out"]  # no .out.tmp-* directory left behind


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

    # a subcommand without the boxmap step leaves the box maps alone
    doc["components_mapped"] = 1
    config.write_text(json.dumps(doc))
    assert run(["pca", "--config", str(config), "--out", str(out)]) == 0
    assert svg_files(out) == ["boxmap_pc1.svg", "boxmap_pc2.svg"]


def test_unwritable_out_dir_exits_5(minitown_config, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the out dir should go")
    code = run(["report", "--config", minitown_config, "--out", str(blocker)])
    assert code == 5


# ----------------------------------------------------------------- config


def test_flag_overrides_config_value(minitown_config, tmp_path):
    out = tmp_path / "out"
    assert run(
        ["moran", "--config", minitown_config, "--out", str(out), "--seed", "555"]
    ) == 0
    rows = read_csv(out / "moran.csv")
    assert all(r["seed"] == "555" for r in rows)


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


def test_missing_config_paths_exit_4(tmp_path):
    assert run(["variables", "--out", str(tmp_path / "out")]) == 4


def test_non_numeric_config_value_exits_4(minitown_dir, tmp_path):
    # booleans and strings are not numbers, an integer key takes no fraction,
    # a float is finite (json.dumps writes inf as a bare Infinity) and a seed >= 0
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
    ):
        cfg = read_json(os.path.join(minitown_dir, "config.json"))
        cfg[key] = value
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["report", "--config", str(cfg_path)]) == 4, (key, value)


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "access_atlas.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2  # argparse: missing subcommand
    proc = subprocess.run(
        [sys.executable, "-c", "from access_atlas.cli import main; raise SystemExit(main(['report', '--help']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "--hinge" in proc.stdout
