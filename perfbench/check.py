"""Output checker for bundles written from a gridgen fixture.

Every check holds for any generator seed, so a failure means the program
is wrong, not that the inputs were unlucky. The bundle digest is returned
for the caller to compare across invocations; its value is information
only, so a change that alters output bytes on purpose is not a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

from gridgen import DEMOGRAPHIC_COLUMNS, GRADIENT_COLUMNS

_VARIABLE_FILES = ("variables.csv", "dropped.csv")
_PCA_FILES = (
    "variance.csv",
    "loadings.csv",
    "contributors.csv",
    "var_corr.csv",
    "loading_corr.csv",
    "scores.csv",
)
_BOXMAP_FILES = ("scores.geojson", *(f"boxmap_pc{k}.svg" for k in range(1, 5)))

EXPECTED_FILES = {
    "variables": frozenset(_VARIABLE_FILES),
    "pca": frozenset(_PCA_FILES),
    "moran": frozenset({"moran.csv"}),
    "boxmap": frozenset(_BOXMAP_FILES),
    "report": frozenset({*_VARIABLE_FILES, *_PCA_FILES, "moran.csv", *_BOXMAP_FILES}),
}


def _rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def bundle_digest(out_dir: str) -> tuple[str, int]:
    """sha256 over (name, bytes) of every file in out_dir, and the byte total."""
    h = hashlib.sha256()
    total = 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "big") + data)
        total += len(data)
    return h.hexdigest(), total


def _expected_from_inputs(fixture_dir: str) -> tuple[dict[str, str], dict[str, dict[str, str]]]:
    """Drop reason per blanked tract, and the 6 dp echo of every complete row."""
    drops: dict[str, str] = {}
    values: dict[str, dict[str, str]] = {}
    for row in _rows(os.path.join(fixture_dir, "demographics.csv")):
        blank = [c for c in DEMOGRAPHIC_COLUMNS if row[c] == ""]
        if blank:
            drops[row["tract_id"]] = f"missing {blank[0]}"
        else:
            values[row["tract_id"]] = {c: f"{float(row[c]):.6f}" for c in DEMOGRAPHIC_COLUMNS}
    return drops, values


def _check_variables(out_dir: str, fixture_dir: str) -> list[str]:
    problems = []
    with open(os.path.join(fixture_dir, "tracts.geojson"), encoding="utf-8") as fh:
        tract_count = len(json.load(fh)["features"])
    retained = _rows(os.path.join(out_dir, "variables.csv"))
    dropped = _rows(os.path.join(out_dir, "dropped.csv"))
    if len(retained) + len(dropped) != tract_count:
        problems.append(
            f"{len(retained)} retained + {len(dropped)} dropped != {tract_count} tracts"
        )
    expected_drops, expected_values = _expected_from_inputs(fixture_dir)
    got_drops = {row["tract_id"]: row["reason"] for row in dropped}
    if got_drops != expected_drops:
        problems.append(f"drop reasons {got_drops} != blanked cells {expected_drops}")
    for row in retained:
        want = expected_values.get(row["tract_id"])
        if want is None:
            problems.append(f"retained tract {row['tract_id']} was blanked or unknown")
            continue
        bad = [c for c in DEMOGRAPHIC_COLUMNS if row[c] != want[c]]
        if bad:
            problems.append(f"tract {row['tract_id']}: {bad} do not echo the input")
    return problems


def _check_variance(out_dir: str) -> list[str]:
    total = sum(float(r["proportion"]) for r in _rows(os.path.join(out_dir, "variance.csv")))
    # each of the ten proportions is rounded to 6 dp
    return [] if abs(total - 1.0) <= 1e-5 else [f"variance proportions sum to {total}"]


def _check_moran(out_dir: str, permutations: int) -> list[str]:
    problems = []
    rows = _rows(os.path.join(out_dir, "moran.csv"))
    if len(rows) != 10:
        problems.append(f"moran.csv has {len(rows)} rows, expected 10")
    floor = 1.0 / (permutations + 1)
    for row in rows:
        p = float(row["pseudo_p"])
        if not (floor - 5e-7 <= p <= 1.0):
            problems.append(f"{row['variable']}: pseudo_p {p} outside [{floor}, 1]")
        if row["variable"] in GRADIENT_COLUMNS and not float(row["moran_i"]) > 0:
            problems.append(f"{row['variable']}: planted gradient but I = {row['moran_i']}")
    return problems


def check_bundle(out_dir: str, fixture_dir: str, command: str) -> list[str]:
    """Problems found in the bundle `command` wrote; empty when it is correct."""
    try:
        present = set(os.listdir(out_dir))
    except OSError as exc:
        return [f"cannot list bundle: {exc}"]
    missing = EXPECTED_FILES[command] - present
    if missing:
        return [f"missing outputs {sorted(missing)}"]
    with open(os.path.join(fixture_dir, "config.json"), encoding="utf-8") as fh:
        permutations = json.load(fh)["moran_permutations"]
    problems = []
    try:
        if "variables.csv" in present:
            problems += _check_variables(out_dir, fixture_dir)
        if "variance.csv" in present:
            problems += _check_variance(out_dir)
        if "moran.csv" in present:
            problems += _check_moran(out_dir, permutations)
    except (KeyError, TypeError, ValueError, UnicodeDecodeError, csv.Error) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems
