"""access-atlas benchmark: time the real CLI on a generated grid city.

    python3 perfbench/run.py --workload city-report --seed 1 --seconds 36 --trace 0

Set-up generates the workload's fixture from --seed into a temporary
directory inside the checkout (not timed as a program metric) and times
`setup_s`: fresh interpreters that import access_atlas.cli and load and
validate the workload config. The run then starts
`python -m access_atlas.cli <command>` one subprocess at a time (a closed
loop with one client) until --seconds have passed, and checks every
bundle with check.py.

--trace 0 reports the end-to-end metrics. The machine this was tuned on
is a shared VM whose speed drifts by up to 1.5x over a minute, which moves
every raw time alike, so the time metrics are normalised: each
invocation's wall and user+sys time (from os.wait4) are divided by the
time of a fixed pure-Python probe loop run just before and just after it
in this process, and the run reports the medians of those ratios. Peak
RSS (os.wait4) and set-up time are reported raw. --trace 1 alternates
untraced invocations with traced ones (traced_run.py) and reports the
per-layer table: calls, total_s and self_s of every traced function,
counts from return values, bundle bytes, the tracing overhead, and the
raw medians of wall, user+sys and probe time.

Human-readable lines go first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. An invocation fails when it
exits non-zero, its bundle fails a check, or its bundle digest differs
from the run's first one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check import bundle_digest, check_bundle  # noqa: E402
from gridgen import GridSpec, generate  # noqa: E402
from traced_run import COUNT_NAMES, SPAN_NAMES, TRACED, layer_table  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(ROOT, ".perfbench-results")

SETUP_REPEATS = 5
PROBE_ITERATIONS = 400_000  # about 0.2 s
MIN_STEPS = 3  # invocations, or untraced + traced pairs with --trace 1
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    command: str
    spec: GridSpec
    why: str


WORKLOADS = {
    "city-report": Workload(
        "report",
        GridSpec(grid=10, nodes_per_side=4, providers=200, permutations=499),
        "full report where Moran, AV_INT, snapping and the four-fold ingest all carry weight",
    ),
    "road-graph": Workload(
        "variables",
        GridSpec(grid=8, nodes_per_side=20, providers=30),
        "variables on a 25.6k-node road graph: network load, snapping and Dijkstra dominate, no stats",
    ),
    "moran-dense": Workload(
        "report",
        GridSpec(grid=20, nodes_per_side=1, providers=20, permutations=199),
        "report on 400 tracts with a trivial road graph: Moran, adjacency and emit at n=400 dominate",
    ),
}

# name -> (unit, better), reported with --trace 0
END_TO_END = {
    "wall_norm": ("probe", "lower"),
    "tracts_per_probe": ("tracts/probe", "higher"),
    "cpu_norm": ("probe", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}

_COUNT_BETTER = {
    "network.settled_ratio": "higher",
    "ingest.tracts_retained": "higher",
    "geometry.av_int_hit_ratio": "higher",
    "geometry.adjacency_links": "higher",
}

# name -> (unit, better), reported with --trace 1
PER_LAYER = {
    **{f"{span}.{field}": (unit, "lower") for span in SPAN_NAMES
       for field, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))},
    **{name: ("ratio" if name.endswith("_ratio") else "count", _COUNT_BETTER.get(name, "lower"))
       for name in COUNT_NAMES},
    "report.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "probe_s": ("s", "lower"),
}

SETUP_CODE = (
    "import sys\n"
    "import access_atlas.cli\n"
    "from access_atlas.config import load_config_file\n"
    "load_config_file(sys.argv[1]).validate()\n"
)


def probe_s() -> float:
    """Time of a fixed pure-Python loop: the interpreter's speed right now."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(PROBE_ITERATIONS):
        k = i % 997
        counts[k] = counts.get(k, 0) + 1
        total += math.hypot(i, k)
    sorted(range(PROBE_ITERATIONS // 2), key=lambda v: (v * 7919) % 10007)
    return time.perf_counter() - start


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stderr_tail: str
    probe_s: float = math.nan  # mean of the probes just before and after


def run_child(argv: list[str], work: str) -> Invocation:
    """Run one child to completion; wall time and rusage come from os.wait4."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(os.path.join(work, "stderr.txt"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read()[-2000:].decode("utf-8", "replace")
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
        exit_code=proc.returncode,
        stderr_tail=tail,
    )


class Run:
    """Invocations of one benchmark run, with the checks applied to each."""

    def __init__(self, workload: Workload, fixture: str, work: str):
        self.workload = workload
        self.fixture = fixture
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self._count = 0
        probe_s()  # the first call in a process also pays for page faults
        self._probe = probe_s()

    def invoke(self, traced_spans: str | None = None) -> tuple[Invocation, int]:
        """One CLI invocation into a fresh out dir; returns it and the bundle bytes."""
        self._count += 1
        out = os.path.join(self.work, f"out-{self._count}")
        cli_args = [self.workload.command, "--config", os.path.join(self.fixture, "config.json"),
                    "--out", out]
        if traced_spans is None:
            argv = [sys.executable, "-m", "access_atlas.cli", *cli_args]
        else:
            script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_run.py")
            argv = [sys.executable, script, traced_spans, *cli_args]
        inv = run_child(argv, self.work)
        after = probe_s()
        inv.probe_s, self._probe = (self._probe + after) / 2, after
        problems = [f"exit code {inv.exit_code}: {inv.stderr_tail.strip()[-300:]}"] \
            if inv.exit_code != 0 else check_bundle(out, self.fixture, self.workload.command)
        size = 0
        if not problems:
            digest, size = bundle_digest(out)
            if self.digest is None:
                self.digest = digest
                print(f"bundle sha256 {digest} (information only)")
            elif digest != self.digest:
                problems.append(f"bundle digest {digest} differs from {self.digest}")
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"invocation {self._count} FAILED: " + "; ".join(problems)[:2000])
        shutil.rmtree(out, ignore_errors=True)
        return inv, size


def measure_setup(fixture: str, work: str) -> float:
    config = os.path.join(fixture, "config.json")
    walls = []
    for _ in range(SETUP_REPEATS):
        inv = run_child([sys.executable, "-c", SETUP_CODE, config], work)
        if inv.exit_code != 0:
            raise RuntimeError(f"set-up interpreter failed: {inv.stderr_tail}")
        walls.append(inv.wall_s)
    return statistics.median(walls)


def _loop(seconds: float, step) -> None:
    """Call step() until another would pass `seconds`, and at least MIN_STEPS times."""
    start = time.perf_counter()
    durations: list[float] = []
    while len(durations) < MIN_STEPS or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        t = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t)


def _tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 11:
        return f"n={n}, no percentile has 10 samples above it"
    k = n - 11
    return f"n={n}, p{100 * (k + 1) // n}={sorted(values)[k]:.4f}"


def _raw_medians(invocations: list[Invocation]) -> dict[str, float]:
    return {
        name: statistics.median(getattr(i, name) for i in invocations)
        for name in ("wall_s", "cpu_s", "probe_s")
    }


def end_to_end(run: Run, seconds: float, setup_s: float) -> dict[str, float]:
    invocations: list[Invocation] = []
    _loop(seconds, lambda: invocations.append(run.invoke()[0]))
    wall_norm = statistics.median(i.wall_s / i.probe_s for i in invocations)
    print(f"wall_norm samples: {_tail_percentile([i.wall_s / i.probe_s for i in invocations])}")
    print("raw medians: " + ", ".join(f"{k} = {v:.4f} s" for k, v in _raw_medians(invocations).items()))
    return {
        "wall_norm": wall_norm,
        "tracts_per_probe": run.workload.spec.tracts / wall_norm,
        "cpu_norm": statistics.median(i.cpu_s / i.probe_s for i in invocations),
        "peak_rss_mb": statistics.median(i.peak_rss_mb for i in invocations),
        "setup_s": setup_s,
    }


def per_layer(run: Run, seconds: float, spans_out: str) -> dict[str, float]:
    plain: list[Invocation] = []
    traced: list[float] = []
    tables: list[dict] = []
    counts: list[dict] = []
    sizes: list[int] = []
    absent: set[str] = set()
    spans_path = os.path.join(run.work, "spans.json")

    def step() -> None:
        plain.append(run.invoke()[0])
        inv, size = run.invoke(traced_spans=spans_path)
        traced.append(inv.wall_s)
        sizes.append(size)
        if not os.path.exists(spans_path):
            return
        with open(spans_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.replace(spans_path, spans_out)
        tables.append(layer_table(doc["spans"]))
        counts.append(doc["counts"])
        absent.update(doc["absent"])

    _loop(seconds, step)
    metrics: dict[str, float] = {}
    for span in SPAN_NAMES:
        for field in ("calls", "total_s", "self_s"):
            metrics[f"{span}.{field}"] = statistics.median(
                t.get(span, {}).get(field, 0) for t in tables
            ) if tables else 0
    unrecorded = [name for name in COUNT_NAMES if not counts or any(name not in c for c in counts)]
    for name in COUNT_NAMES:
        metrics[name] = 0 if name in unrecorded else statistics.median(c[name] for c in counts)
    metrics["report.bytes_written"] = statistics.median(sizes)
    metrics.update(_raw_medians(plain))
    metrics["trace.overhead_s"] = statistics.median(traced) - metrics["wall_s"]

    wall = statistics.median(traced)
    print(f"traced run: {len(traced)} traced + {len(plain)} untraced invocations, "
          f"spans of the last in {os.path.relpath(spans_out, ROOT)}")
    print(f"{'span':45} {'calls':>8} {'total_s':>10} {'self_s':>10} {'self/wall':>9}")
    for span in sorted(SPAN_NAMES, key=lambda s: -metrics[f"{s}.self_s"]):
        calls, total, self_s = (metrics[f"{span}.{f}"] for f in ("calls", "total_s", "self_s"))
        print(f"{span:45} {calls:8g} {total:10.4f} {self_s:10.4f} {self_s / wall:9.1%}")
    for layer in TRACED:
        share = sum(metrics[f"{s}.self_s"] for s in SPAN_NAMES if s.startswith(layer + "."))
        print(f"layer {layer:10} self_s {share:10.4f} ({share / wall:.1%} of traced wall)")
    if absent:
        print(f"absent functions (reported as 0): {sorted(absent)}")
    if unrecorded:
        print(f"counts not recorded, because their function never returned (reported as 0): {unrecorded}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="access-atlas CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "access_atlas", "cli.py")):
        print(f"error: no access_atlas sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        fixture = os.path.join(work, "fixture")
        generate(workload.spec, args.seed, fixture)
        run = Run(workload, fixture, work)
        if args.trace:
            os.makedirs(RESULTS_DIR, exist_ok=True)
            spans_out = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}.spans.json")
            values, units = per_layer(run, args.seconds, spans_out), PER_LAYER
        else:
            setup_s = measure_setup(fixture, work)
            values, units = end_to_end(run, args.seconds, setup_s), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (unit, _) in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"failed_ratio = {run.failed}/{run.attempted}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, (unit, _) in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
