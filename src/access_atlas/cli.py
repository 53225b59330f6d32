"""Command-line pipeline: raw files in, report bundle out.

Commands
    variables   build the tract x 10 variable table and the drop audit
    pca         PCA tables (variance, loadings, contributors, correlations, scores)
    moran       global spatial autocorrelation per variable
    boxmap      per-component box-map classes (scores GeoJSON + one SVG per component)
    report      all of the above

One parser takes the command as its one positional argument and the
same ten options for every command, before or after it. Each command is a
subset of the steps of one pass: the inputs are read once and each
artefact is computed once, only by a step that writes it. The `report`
module names and renders every file; this module is the only one that
writes them, and only after all computation has succeeded: into a hidden
temporary directory inside the output directory first, then moved into
place once all of them were written, so a failed run leaves the previous
bundle as it was. A run with the boxmap step then removes the box maps an
earlier run left for components this run does not map. `report` runs every
step and writes the same bytes as the four other commands run in turn.

`main` is that pass. Its one `stage` variable, set as each stage begins, is
the exit code its one handler returns after printing `error: ...` for a
package error or an OSError: 2 ingest failure, 3 numerical precondition, 4
invalid configuration (a usage error included), 5 output I/O failure.

`main` runs with Python's cyclic garbage collector off, since the pipeline
makes no reference cycles: it starts no collector pass and leaves the
collector as it found it on every exit. `console_main`, the entry behind
the `access-atlas` script and `python -m access_atlas.cli`, then freezes
the collector (`gc.freeze()`) before the interpreter exits: shutdown's own
collection would otherwise walk every object numpy's import left, to free
nothing. `main` does not freeze, so an in-process caller keeps a collector
that can free what it allocates.
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import re
import shutil
import sys
import tempfile
from typing import Iterable, NoReturn

from . import ingest, report, stats
from .config import RunConfig, load_config_file, resolve_seed
from .errors import AccessAtlasError, ConfigError
from .geometry import queen_adjacency
from .ingest import VARIABLE_COLUMNS
from .network import load_road_network

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INGEST = 2
EXIT_NUMERIC = 3
EXIT_CONFIG = 4
EXIT_IO = 5


# ------------------------------------------------------------------ bundle


def _write_bundle(
    out_dir: str, files: dict[str, str | Iterable[str]], replaces: re.Pattern | None
) -> None:
    """Write each file (its text, or the chunks of it in order, as UTF-8)
    into a hidden temporary directory inside out_dir, on its filesystem so
    that each move is atomic, then move all of them into out_dir and
    remove the files of out_dir whose names match `replaces` and that this
    run did not write. On failure out_dir keeps its previous files, and the
    temporary directory is removed either way."""
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".tmp-", dir=out_dir)
    try:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8", newline="") as fh:
                fh.writelines([text] if isinstance(text, str) else text)
        for name in sorted(files):
            os.replace(os.path.join(tmp, name), os.path.join(out_dir, name))
        if replaces is not None:
            for name in sorted(os.listdir(out_dir)):
                if replaces.fullmatch(name) and name not in files:
                    os.remove(os.path.join(out_dir, name))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# Each command is a subset of the steps; `report` runs all of them.
STEPS = ("variables", "pca", "moran", "boxmap")
COMMANDS = {step: (step,) for step in STEPS}
COMMANDS["report"] = STEPS


# -------------------------------------------------------------- arg parsing


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as ConfigError (exit 4), not as argparse's exit
    2, which here means an ingest failure."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="access-atlas",
        description="Multidimensional food-access analysis over census tracts.",
    )
    p.add_argument(
        "command",
        choices=COMMANDS,
        help="variables (the tract x 10 variable table), pca (principal component "
        "tables), moran (global Moran's I per variable), boxmap (scores GeoJSON + "
        "SVG box maps), or report (all four steps)",
    )
    p.add_argument("--config", help="JSON config file")
    p.add_argument(
        "--out", dest="out_dir", metavar="OUT", help="output directory (overrides config out_dir)"
    )
    p.add_argument("--seed", type=int, help="RNG seed for permutation tests")
    p.add_argument(
        "--permutations",
        dest="moran_permutations",
        metavar="PERMUTATIONS",
        type=int,
        help="Moran permutation count (>= 99)",
    )
    p.add_argument("--hinge", type=float, help="box-map hinge multiplier")
    p.add_argument("--sig-threshold", type=float, help="significant-loading cutoff")
    p.add_argument("--sec-threshold", type=float, help="secondary-loading cutoff")
    p.add_argument("--ace-net-mode", help="'centroid' or 'grid-K' origin sampling")
    p.add_argument("--ref-lon", type=float, help="projection reference longitude")
    p.add_argument("--ref-lat", type=float, help="projection reference latitude")
    return p


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = load_config_file(args.config) if args.config else RunConfig()
    # every flag's dest is the name of the RunConfig field it overrides
    for key, value in vars(args).items():
        if value is not None and key in vars(cfg):
            setattr(cfg, key, value)
    cfg.seed = resolve_seed(cfg.seed)
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    # The cyclic garbage collector is off for the run and back in the state
    # it was found in on every exit. Nothing the pipeline allocates forms a
    # cycle, yet its allocations set the collector off: its passes walk the
    # row and column lists as they load, and a full pass every object
    # numpy's import left too. On a 25.6k-node road graph, 40-58 ms of a
    # 277-329 ms run (2-vCPU VM) went to 148 passes, one of them full, while
    # the road files loaded and the graph was built. No pass at all: the
    # argument parser leaves about 75 objects in cycles, too few to pin
    # memory through the run, and a full pass at exit costs what this saves.
    collecting = gc.isenabled()
    gc.disable()
    stage = EXIT_CONFIG  # the exit code of a failure from here on
    try:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
        args = _build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        steps = COMMANDS[args.command]

        stage = EXIT_INGEST
        tracts = ingest.load_tracts(cfg.tracts, cfg.ref_lon, cfg.ref_lat)
        providers = ingest.load_providers(cfg.providers, cfg.ref_lon, cfg.ref_lat)
        net = load_road_network(
            cfg.roads_nodes, cfg.roads_edges, cfg.road_classes, cfg.ref_lon, cfg.ref_lat
        )
        demographics = ingest.load_demographics(cfg.demographics)
        table = ingest.assemble_variable_table(
            tracts,
            providers,
            net,
            demographics,
            ace_net_mode=cfg.ace_net_mode,
            max_snap_m=cfg.snap_max_m,
        )
        del providers, net, demographics  # and the graph before the statistics

        stage = EXIT_NUMERIC
        names = list(VARIABLE_COLUMNS)
        if "pca" in steps or "boxmap" in steps:
            pca_result = stats.pca(table.values, names)
        if "pca" in steps:
            loading_corr = stats.loading_profile_correlation(pca_result.loadings, names)
        if "moran" in steps:
            indptr, nbr = adjacency = queen_adjacency(tracts, table.index)
            islands = (indptr[1:] == indptr[:-1]).sum()
            log.info("adjacency: %d links, %d islands", len(nbr) // 2, islands)
            moran = stats.morans_i(table.values, adjacency, cfg.moran_permutations, cfg.seed, names)
            del indptr, nbr, adjacency  # freed before the bundle is rendered
        if "boxmap" in steps:
            # one box-map class column per mapped component, in table row order
            k = min(cfg.components_mapped, pca_result.n_components)
            classes = [report.boxmap_classify(pca_result.scores[:, c], cfg.hinge) for c in range(k)]

        stage = EXIT_IO
        files: dict[str, str | Iterable[str]] = {}
        if "variables" in steps:
            files.update(report.emit_variables_csv(table))
            log.info("variables table: %d tracts retained, %d dropped", table.n, len(table.dropped))
        if "pca" in steps:
            thresholds = stats.ContributorThresholds(cfg.sig_threshold, cfg.sec_threshold)
            files.update(report.emit_pca_tables(table, pca_result, loading_corr, thresholds))
        if "moran" in steps:
            files.update(report.emit_moran_csv(list(zip(names, moran))))
        if "boxmap" in steps:
            files.update(report.emit_geojson(tracts, table, pca_result.scores, classes))
            files.update(report.emit_svg_choropleth(tracts, table.index, classes))
        _write_bundle(cfg.out_dir, files, report.BOXMAP_SVG if "boxmap" in steps else None)
        return EXIT_OK
    except (AccessAtlasError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return stage
    finally:
        if collecting:
            gc.enable()


def console_main() -> None:
    code = main()
    # Shutdown's collection runs with the collector on or off; frozen
    # objects are in no generation it walks. The exit took 14.9 ms, now
    # 5.0 ms, on a 100-tract report (2-vCPU VM). Atexit handlers, stdio
    # flushing and module teardown still run.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
