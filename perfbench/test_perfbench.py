"""Tests of the benchmark's own parts: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from check import bundle_digest, check_bundle
from gridgen import GridSpec, generate
from run import END_TO_END, PER_LAYER, ROOT, SRC, WORKLOADS
from traced_run import layer_table

SMALL = GridSpec(grid=4, nodes_per_side=2, providers=12, permutations=99)


def _files(directory: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_generator_same_seed_same_bytes(tmp_path):
    generate(SMALL, 7, str(tmp_path / "a"))
    generate(SMALL, 7, str(tmp_path / "b"))
    generate(SMALL, 8, str(tmp_path / "c"))
    assert _files(str(tmp_path / "a")) == _files(str(tmp_path / "b"))
    assert _files(str(tmp_path / "a")) != _files(str(tmp_path / "c"))


def _cli(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    fixture = str(tmp_path_factory.mktemp("fixture"))
    config = generate(SMALL, 3, fixture)
    out = str(tmp_path_factory.mktemp("bundle"))
    proc = _cli(["-m", "access_atlas.cli", "report", "--config", config, "--out", out])
    assert proc.returncode == 0, proc.stderr
    return fixture, out


def _copy_bundle(src: str, dst) -> str:
    dst.mkdir()
    for name, data in _files(src).items():
        (dst / name).write_bytes(data)
    return str(dst)


def test_checker_accepts_the_program_output(small_bundle):
    fixture, out = small_bundle
    assert check_bundle(out, fixture, "report") == []


def test_checker_rejects_a_dropped_row(small_bundle, tmp_path):
    fixture, out = small_bundle
    bad = _copy_bundle(out, tmp_path / "bad")
    path = os.path.join(bad, "variables.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:2] + lines[3:])
    assert any("retained" in p for p in check_bundle(bad, fixture, "report"))


def test_checker_rejects_a_flipped_byte(small_bundle, tmp_path):
    fixture, out = small_bundle
    bad = _copy_bundle(out, tmp_path / "bad")
    path = os.path.join(bad, "variables.csv")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[-2] ^= 0x01  # last digit of the last ACO_SNAP cell, '0' <-> '1'
    with open(path, "wb") as fh:
        fh.write(data)
    assert any("echo" in p for p in check_bundle(bad, fixture, "report"))
    assert bundle_digest(bad)[0] != bundle_digest(out)[0]


def test_checker_rejects_a_missing_file(small_bundle, tmp_path):
    fixture, out = small_bundle
    bad = _copy_bundle(out, tmp_path / "bad")
    os.remove(os.path.join(bad, "moran.csv"))
    assert check_bundle(bad, fixture, "report") == ["missing outputs ['moran.csv']"]


def test_self_time_on_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["b", 8.0, 9.5, 0],  # overlaps the first b: the union is covered once
    ]
    table = layer_table(spans)
    assert table["root"] == {"calls": 1, "total_s": 10.0, "self_s": 2.5}
    assert table["a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert table["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert table["b"] == {"calls": 2, "total_s": 5.5, "self_s": 5.5}


def test_traced_run_wraps_every_lookup(small_bundle, tmp_path):
    fixture, _ = small_bundle
    spans_path = str(tmp_path / "spans.json")
    script = os.path.join(ROOT, "perfbench", "traced_run.py")
    proc = _cli([script, spans_path, "report", "--config", os.path.join(fixture, "config.json"),
                 "--out", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    with open(spans_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["absent"] == []
    table = layer_table(doc["spans"])
    assert table["cli.main"]["calls"] == 1
    assert table["ingest.assemble_variable_table"]["calls"] == 4
    retained = doc["counts"]["ingest.tracts_retained"]
    assert retained + doc["counts"]["ingest.tracts_dropped"] == SMALL.tracts
    # one supermarket snap looked up in ingest plus one snap per retained
    # tract looked up in network, for each of the four ingests
    assert table["network.snap_point"]["calls"] == 4 * (1 + retained)
    assert table["stats.moran_statistic"]["calls"] == 10 * (SMALL.permutations + 1)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
