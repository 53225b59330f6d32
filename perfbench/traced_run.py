"""Traced run: access_atlas.cli.main in-process, with a span around every
call into the functions listed in TRACED.

    PYTHONPATH=src python3 perfbench/traced_run.py SPANS.json report --config C --out O

A wrapper replaces the function under every name the package looks it up
by (`ingest.snap_point` and `network.snap_point` are both wrapped), and
the span is named after the defining module, so `network.snap_point`
counts every snap. A listed function that no longer exists is reported as
absent instead of failing the run. Spans stay in memory and are written
once, with the counts taken from return values, when main returns. The
exit code is main's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import uuid
from collections import defaultdict

TRACED = {
    "cli": ("main",),
    "ingest": ("load_tracts", "load_providers", "load_demographics", "assemble_variable_table"),
    "network": (
        "load_road_nodes",
        "load_road_edges",
        "build_network",
        "snap_point",
        "multisource_shortest_distances",
        "tract_network_distance",
    ),
    "geometry": ("availability_count", "queen_adjacency"),
    "stats": (
        "pca",
        "correlation_matrix",
        "loading_profile_correlation",
        "morans_i",
        "moran_statistic",
    ),
    "report": (
        "boxmap_classify",
        "emit_variables_csv",
        "emit_pca_tables",
        "emit_moran_csv",
        "emit_geojson",
        "emit_svg_choropleth",
    ),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)

COUNT_NAMES = (
    "network.nodes",
    "network.edges",
    "network.settled_ratio",
    "ingest.tracts_retained",
    "ingest.tracts_dropped",
    "geometry.av_int_hit_ratio",
    "geometry.adjacency_links",
    "geometry.islands",
)


class Tracer:
    """Spans of one invocation: [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.invocation = uuid.uuid4().hex
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: dict[str, float] = {}
        self._av_hits = 0
        self._av_attempts = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._open.pop()
            try:
                self._count(name, result, args)
            except (AttributeError, IndexError, TypeError):
                pass  # a changed signature or return type leaves its count absent
            return result

        return traced

    def _count(self, name: str, result, args) -> None:
        # Later calls overwrite earlier ones: `report` repeats ingest, and
        # every repeat returns the same sizes.
        c = self.counts
        if name == "network.build_network":
            c["network.nodes"] = len(result.nodes)
            c["network.edges"] = result.edge_count
        elif name == "network.multisource_shortest_distances":
            c["network.settled_ratio"] = len(result) / max(1, len(args[0].nodes))
        elif name == "ingest.assemble_variable_table":
            c["ingest.tracts_retained"] = result.n
            c["ingest.tracts_dropped"] = len(result.dropped)
        elif name == "geometry.availability_count":
            self._av_hits += result
            self._av_attempts += len(args[1])
            c["geometry.av_int_hit_ratio"] = self._av_hits / max(1, self._av_attempts)
        elif name == "geometry.queen_adjacency":
            c["geometry.adjacency_links"] = sum(len(s) for s in result.neighbors) // 2
            c["geometry.islands"] = sum(1 for s in result.neighbors if not s)

    def install(self) -> list[str]:
        """Wrap every listed function under each of its names; return the absent ones."""
        import access_atlas.cli  # noqa: F401  (imports every module of the package)

        modules = [m for n, m in sys.modules.items() if n.startswith("access_atlas") and m]
        absent = []
        for module_name, functions in TRACED.items():
            home = sys.modules.get(f"access_atlas.{module_name}")
            for fn_name in functions:
                fn = getattr(home, fn_name, None)
                if not callable(fn):
                    absent.append(f"{module_name}.{fn_name}")
                    continue
                wrapper = self.wrap(f"{module_name}.{fn_name}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
        return absent


def layer_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """calls, total_s and self_s per span name.

    Self time is a span's duration minus the part of its interval that its
    direct children cover; overlapping children are merged first.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    table: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - covered
    return table


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    absent = tracer.install()
    from access_atlas import cli

    try:
        code = cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "invocation": tracer.invocation,
                    "absent": absent,
                    "counts": tracer.counts,
                    "spans": tracer.spans,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
