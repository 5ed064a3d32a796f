"""Benchmark for ppn: seeded inputs, the documented CLI commands called
in-process through ``ppn.cli.main``, every output checked.

    python3 perfbench/run.py --workload genome_vector --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``
next to this directory; nothing is installed or built.  Each workload
is a closed loop in one process: the next op starts when the previous
one has finished, and only the CLI's own thread pool runs beside it.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run whose ops alternate with untraced
ones.  Human-readable lines come first; the last line of standard
output is one JSON object.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tracemalloc
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
from calibration import Calibration
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
MB = 1e6

#: per-layer time metric -> span name; a span without children of its
#: own is reported as ``.s``, one with children as ``.self_s``
LAYER_TIMES = {
    "seqio.read_fasta.self_s": "seqio.read_fasta",
    "core.encode.s": "core.encode",
    "core.count_histogram.s": "core.count_histogram",
    "core.ppn_vector.self_s": "core.ppn_vector",
    "core.distance.s": "core.distance",
    "phylo.pairwise_matrix.self_s": "phylo.pairwise_matrix",
    "phylo.write_phylip.s": "phylo.write_phylip",
    "phylo.read_phylip.s": "phylo.read_phylip",
    "phylo.upgma.s": "phylo.upgma",
    "phylo.to_newick.s": "phylo.to_newick",
    "phylo.from_newick.s": "phylo.from_newick",
    "phylo.nrf.s": "phylo.nrf",
    "phylo.nqd.s": "phylo.nqd",
    "cli.self_s": spans.ROOT,
}
LAYER_COUNTS = {
    "seqio.records": "count",
    "seqio.bytes_in": "B",
    "core.nt": "count",
    "core.dropped": "count",
    "core.windows": "count",
    "core.distinct_tuples": "count",
    "core.distance.calls": "count",
    "phylo.pairs": "count",
    "phylo.phylip_bytes": "B",
    "phylo.upgma.merges": "count",
    "phylo.quartets": "count",
}
LAYER_PEAKS = {
    "core.count_histogram.peak_mb": "core.count_histogram",
    "phylo.upgma.peak_mb": "phylo.upgma",
}


def import_ppn() -> dict:
    """Import ``ppn`` afresh from ``src/`` and return its layer modules."""
    for name in [m for m in sys.modules if m == "ppn" or m.startswith("ppn.")]:
        del sys.modules[name]
    cli = importlib.import_module("ppn.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"ppn was imported from {cli.__file__}, not from {SRC}")
    return {name: sys.modules[f"ppn.{name}"] for name in ("cli", "core", "phylo", "seqio")}


class Runner:
    """Runs ops of one workload and counts attempts and failures.

    The slowdown measured after an op also serves as the "before"
    slowdown of the next op, unless ``restart`` was called in between.
    """

    def __init__(self, workload, calibration: Calibration):
        self.workload = workload
        self.calibration = calibration
        self.attempted = 0
        self.failed = 0
        self._last = None

    def restart(self) -> None:
        self._last = None

    def op(self, i: int, main) -> tuple[float, float]:
        """Run op ``i`` through ``main``; return its wall seconds and its
        seconds at reference speed."""
        for path in self.workload.outputs(i):
            if os.path.exists(path):
                os.unlink(path)
        gc.collect()
        before = self._last if self._last is not None else self.calibration.slowdown()
        start = perf_counter()
        try:
            ok = all(main(argv) == 0 for argv in self.workload.op(i))
        except Exception:
            traceback.print_exc()
            ok = False
        seconds = perf_counter() - start
        self._last = self.calibration.slowdown()
        if ok:
            try:
                ok = self.workload.check(i)
            except (OSError, ValueError):
                ok = False
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"op {i}: output missing or wrong", file=sys.stderr)
        return seconds, seconds * self.calibration.factor(before, self._last)


def tail(times: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n <= 10:
        return None
    rank = n - 10
    return f"p{math.floor(100 * rank / n)}", sorted(times)[rank - 1]


def memory_pass(modules, runner: Runner) -> tuple[float, dict[str, int]]:
    """Untimed ops under ``tracemalloc``.  Returns the median over the
    ops of each op's peak bytes, and the largest peak of each stage."""
    probe = spans.MemoryProbe(modules, [spans.ROOT, *LAYER_PEAKS.values()])
    root = probe.wrap(modules["cli"].main, spans.ROOT, None)
    op_peaks = []
    with probe:
        tracemalloc.start()
        try:
            for i in range(runner.workload.MEMORY_OPS):
                probe.peaks[spans.ROOT] = 0
                runner.op(i, root)
                op_peaks.append(probe.peaks[spans.ROOT])
        finally:
            tracemalloc.stop()
    return statistics.median(op_peaks), dict(probe.peaks)


def layer_metrics(op_spans, counts) -> dict[str, float]:
    own = spans.self_times(op_spans)
    values = {metric: own.get(name, 0.0) for metric, name in LAYER_TIMES.items()}
    totals = defaultdict(int)
    for name, value in counts:
        totals[name] += value
    values.update({name: totals[name] for name in LAYER_COUNTS})
    values["core.distance.calls"] = sum(1 for s in op_spans if s[1] == "core.distance")
    windows = totals["core.windows"]
    values["core.tuples_per_window"] = totals["core.distinct_tuples"] / windows if windows else 0.0
    values["_op_s"] = sum(s[5] - s[4] for s in op_spans if s[1] == spans.ROOT) / 1e9
    values["_self_sum_ratio"] = sum(own.values()) / values["_op_s"]
    return values


def set_up(workload, seed: int, calibration: Calibration):
    """Import, generate the inputs and warm up, ``SETUP_REPEATS`` times.

    Returns the modules of the last import and the wall seconds and
    reference-speed seconds of each set-up.
    """
    times = []
    after = calibration.slowdown()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = after
        start = perf_counter()
        modules = import_ppn()
        workload.prepare(seed)
        for argv in workload.warmup():
            if modules["cli"].main(argv) != 0:
                raise RuntimeError(f"warm-up failed: ppn {' '.join(argv)}")
        seconds = perf_counter() - start
        after = calibration.slowdown()
        times.append((seconds, seconds * calibration.factor(before, after)))
    return modules, times


def end_to_end(workload, runner: Runner, main, deadline: float, op_peak: float) -> list:
    times = []
    while not times or perf_counter() < deadline:
        times.append(runner.op(len(times), main))
    wall = statistics.median(t[0] for t in times)
    scaled = [t[1] for t in times]
    op_s = statistics.median(scaled)
    name, value, unit = workload.headline(op_s)
    rows = [
        ("op_s", op_s, "s", f"median of {len(times)} ops, at reference speed"),
        (name, value, unit, "from op_s"),
        ("peak_traced_mb", op_peak / MB, "MB",
         f"median of {workload.MEMORY_OPS} ops, untimed pass"),
        ("op_wall_s", wall, "s", "median wall time, not rescaled"),
    ]
    high = tail(scaled)
    if high:
        rows.append((f"op_s.{high[0]}", high[1], "s", "10 ops beyond it"))
    rows.append(("speed", statistics.median(t[0] / t[1] for t in times), "ratio",
                 "reference-speed time over wall time"))
    return rows


def per_layer(workload, runner: Runner, main, deadline: float, modules, peaks) -> list:
    """Traced ops, each after an untraced op on the same input."""
    tracer = spans.Tracer(modules)
    untraced, traced, per_op, kept = [], [], [], []
    while not traced or perf_counter() < deadline:
        i = len(traced)
        untraced.append(runner.op(i, main)[0])
        with tracer:
            traced.append(runner.op(i, lambda argv: tracer.call(main, argv))[0])
        op_spans, counts = tracer.take()
        per_op.append(layer_metrics(op_spans, counts))
        kept.append(spans.as_array(op_spans, i))
    spans.save(HERE / "_traces" / f"{workload.name}.npz", kept)
    rows = []
    for metric in LAYER_TIMES:
        share = statistics.median(v[metric] / v["_op_s"] for v in per_op)
        rows.append((metric, statistics.median(v[metric] for v in per_op), "s",
                     f"{100 * share:.1f} % of the traced op (median share)"))
    for metric, unit in LAYER_COUNTS.items():
        rows.append((metric, statistics.median(v[metric] for v in per_op), unit, ""))
    rows.append(("core.tuples_per_window",
                 statistics.median(v["core.tuples_per_window"] for v in per_op), "ratio", ""))
    for metric, stage in LAYER_PEAKS.items():
        rows.append((metric, peaks.get(stage, 0) / MB, "MB", "main-thread calls"))
    overhead = statistics.median(t / u for t, u in zip(traced, untraced)) - 1
    rows.append(("trace.overhead", overhead, "ratio",
                 f"median over {len(traced)} traced/untraced pairs"))
    rows.append(("trace.op_s", statistics.median(traced), "s", "median traced op, wall time"))
    rows.append(("trace.self_sum_ratio",
                 statistics.median(v["_self_sum_ratio"] for v in per_op), "ratio",
                 "self times over traced op time"))
    return rows


def measure(args, workdir: Path):
    workload = WORKLOADS[args.workload](workdir)
    calibration = Calibration(workload.CALIBRATION)
    modules, setup = set_up(workload, args.seed, calibration)
    workload.reference()
    runner = Runner(workload, calibration)
    op_peak, peaks = memory_pass(modules, runner)
    runner.restart()
    deadline = perf_counter() + args.seconds
    main = modules["cli"].main
    report = [
        ("setup_s", statistics.median(t[1] for t in setup), "s",
         f"median of {SETUP_REPEATS} set-ups, at reference speed"),
        ("setup_wall_s", statistics.median(t[0] for t in setup), "s", "not rescaled"),
    ]
    if args.trace:
        report += per_layer(workload, runner, main, deadline, modules, peaks)
        wanted = [*LAYER_TIMES, *LAYER_COUNTS, "core.tuples_per_window",
                  *LAYER_PEAKS, "trace.overhead"]
    else:
        report += end_to_end(workload, runner, main, deadline, op_peak)
        wanted = ["op_s", "setup_s", "peak_traced_mb"]
    report.append(("error_rate", runner.failed / runner.attempted, "1",
                   f"{runner.failed} of {runner.attempted} ops failed"))
    for name, value, unit, note in report:
        print(f"{name:32s} {value:16.6g} {unit:6s} {note}")
    rows = {r[0]: r for r in report}
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": rows[k][1], "unit": rows[k][2]} for k in wanted},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ppn" / "__init__.py").is_file():
        print(f"perfbench: no ppn sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__}")
    workdir = HERE / "_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
