"""Run one gradweil benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: corpus_cli, exact_chart, cuth_point (see workloads.py and
BENCHMARK.json).  The run is a closed loop with one client in this single
process, with no threads and the default garbage collector.  It measures
whole blocks of ops until `--seconds` have passed and at least 100 ops ran,
checks every op's output, and prints one line per metric followed by a last
line of JSON: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are end to end.  ``setup_s`` is the median,
over seven fresh processes, of the wall time from starting the process to
the point where the first op could be timed: interpreter start, importing
gradweil, loading the workload's inputs and one checked warm-up op.  All
times are scaled to a fixed machine speed (see calibration.py); the raw wall
times are printed beside them.

With ``--trace 1`` the first block of ops is run again and again, alternately
plain and with the per-layer spans of spans.py installed, and the metrics
are per layer and per op.  Counts depend only on the seed.

The exit code is 0 when every op was correct, 1 when an op failed, and 2
when the tree holds no gradweil sources to measure.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibration import REFERENCE_MS, Calibration, reference_s
from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
MIN_OPS = 100
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
MAX_ERRORS_SHOWN = 5

# per-layer metric prefix -> the span names it sums
SPANS = {
    "ring.poly_mul": ("ring.Poly.__mul__",),
    "ring.poly_add": ("ring.Poly.__add__",),
    "linalg.rref": ("linalg.rref",),
    "algebroid.d": ("algebroid.Algebroid.d",),
    "forms.form_wedge": ("forms.Form.wedge",),
    "forms.total_wedge": ("forms.TotalForm.wedge",),
    "forms.total_apply": ("forms.TotalForm.apply",),
    "forms.mat_mul": ("forms.mat_mul",),
    "forms.gtr": ("forms.gtr",),
    "connections.linear_d": ("connections.LinearConnection.d",),
    "connections.linear_curvature": ("connections.LinearConnection.curvature",),
    "connections.cuth_curvature": ("connections.ConnectionUpToHomotopy.curvature",),
    "connections.curvature_blockwise": (
        "connections.ConnectionUpToHomotopy.curvature_blockwise",),
    "connections.d_end": ("connections.ConnectionUpToHomotopy.d_end",),
    "chernweil.sigma_character": ("chernweil.sigma_character",),
    "chernweil.is_exact": ("chernweil.is_exact",),
    "chernweil.transgression": ("chernweil.transgression",),
    "chernweil.ce_cohomology": ("chernweil.ce_cohomology",),
    "constructions.report": tuple(f"constructions.{name}" for name in (
        "square_zero_check", "bott_report", "atiyah_form", "graded_bott_report",
        "iis_check", "iis_obstruction")),
    "problems.validate": ("problems.validate_problem",),
    "problems.run_problem": ("problems.run_problem",),
    "cli.main": ("cli.main",),
    "cli.render": ("cli.render_report",),
    "cli.canonical_json": ("cli.canonical_json",),
}


END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    **{f"{prefix}.{field}": unit for prefix in SPANS
       for field, unit in (("calls", "count/op"), ("self_ms", "ms/op"))},
    "ring.poly_mul.const_share": "ratio",
    "linalg.rref.cells": "count/op",
    "linalg.rref.nonzeros": "count/op",
    "linalg.rref.density": "ratio",
    "linalg.rref.max_cells": "count",
    "algebroid.d.zero_share": "ratio",
    "connections.curvature.repeat_share": "ratio",
    **{f"{layer}.self_ms": "ms/op" for layer in LAYERS},
    "trace.overhead_share": "ratio",
}


class Run:
    """Attempted and failed ops of one run, with each verified op's time.

    Times are kept raw and scaled (see calibration.py), keyed by op class
    and by whether the op ran traced.
    """

    def __init__(self, workload):
        self.workload = workload
        self.calibration = Calibration()
        self.raw = {}       # (label, traced) -> wall seconds of each verified op
        self.scaled = {}    # (label, traced) -> scaled seconds of each verified op
        self.attempted = 0
        self.failed = 0

    def op(self, op, tracer=None):
        """Build, time and check one op."""
        if self.calibration.due():
            self.calibration.point()
        workload = self.workload
        self.attempted += 1
        inputs = workload.build(op)
        if tracer is not None:
            tracer.install()
            tracer.begin_op()
        start = time.perf_counter()
        try:
            output = workload.run(op, inputs)
        except Exception:  # a raising op is a failed op, not a crashed run
            self._fail(op, traceback.format_exc())
            return
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
                tracer.uninstall()
        try:
            workload.check(op, inputs, output)
        except Exception:
            self._fail(op, traceback.format_exc())
            return
        key = (op.label, tracer is not None)
        self.raw.setdefault(key, []).append(elapsed)
        self.calibration.add(elapsed, self.scaled.setdefault(key, []).append)

    def finish(self):
        self.calibration.point()

    def times(self, traced=False):
        return [t for (_, on), values in self.scaled.items() if on == traced for t in values]

    def _fail(self, op, detail):
        self.failed += 1
        if self.failed <= MAX_ERRORS_SHOWN:
            print(f"FAILED op {op}:\n{detail}", file=sys.stderr)


def setup(name):
    """Load the workload's inputs and run one checked warm-up op."""
    from workloads import WORKLOADS
    SCRATCH.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](ROOT, SCRATCH)
    op = workload.warmup
    inputs = workload.build(op)
    workload.check(op, inputs, workload.run(op, inputs))
    return workload


def measure_setup(name, seed):
    """Median scaled wall time of SETUP_PROBES fresh processes that set up and stop."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = reference_s()
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--probe"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                code = probe.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                probe.kill()
                probe.wait()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited {code} after {line!r}")
        samples.append(elapsed * REFERENCE_MS / 1e3 / ((before + reference_s()) / 2))
    return statistics.median(samples)


def run_plain(workload, seed, seconds):
    from workloads import block
    run = Run(workload)
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds or run.attempted < MIN_OPS:
        for op in block(workload, seed, index):
            run.op(op)
        index += 1
    run.finish()
    return run


def end_to_end(run, setup_s):
    latencies = run.times()
    if len(latencies) < 2:
        return {}
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": setup_s,
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": deciles[4] * 1e3,
            "op_p90_ms": deciles[8] * 1e3,
            "peak_rss_mb": peak_kb / 1024}


def run_traced(workload, seed, seconds):
    """Replay block 0, alternately plain and traced, for at least `seconds`."""
    from workloads import block
    tracer = Tracer()
    ops = block(workload, seed, 0)
    run = Run(workload)
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for traced in (None, tracer):
            for op in ops:
                run.op(op, traced)
        passes += 1
    run.finish()
    plain, traced = sum(run.times()), sum(run.times(traced=True))
    return run, per_layer(tracer, passes * len(ops), run.calibration.run_scale(),
                          (traced - plain) / plain if plain else 0.0)


def per_layer(tracer, n_ops, scale, overhead_share):
    """Per-op counts, shares, and self times scaled by the run's calibration."""
    stats, counters = tracer.stats, tracer.counters

    def total(names, field):
        return sum(stats.get(name, (0, 0))[field] for name in names)

    def share(count, base):
        return count / base if base else 0.0

    metrics = {}
    for prefix, names in SPANS.items():
        metrics[f"{prefix}.calls"] = total(names, 0) / n_ops
        metrics[f"{prefix}.self_ms"] = total(names, 1) / 1e6 * scale / n_ops
    cells = counters.get("linalg.rref.cells", 0)
    curvature_calls = total(SPANS["connections.linear_curvature"]
                            + SPANS["connections.cuth_curvature"], 0)
    metrics.update({
        "ring.poly_mul.const_share": share(counters.get("ring.poly_mul.const", 0),
                                           total(SPANS["ring.poly_mul"], 0)),
        "linalg.rref.cells": cells / n_ops,
        "linalg.rref.nonzeros": counters.get("linalg.rref.nonzeros", 0) / n_ops,
        "linalg.rref.density": share(counters.get("linalg.rref.nonzeros", 0), cells),
        "linalg.rref.max_cells": counters.get("linalg.rref.max_cells", 0),
        "algebroid.d.zero_share": share(counters.get("algebroid.d.zero", 0),
                                        total(SPANS["algebroid.d"], 0)),
        "connections.curvature.repeat_share": share(
            counters.get("connections.curvature.repeat", 0), curvature_calls),
    })
    for layer in LAYERS:
        layer_ns = sum(s[1] for name, s in stats.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_ms"] = layer_ns / 1e6 * scale / n_ops
    metrics["trace.overhead_share"] = overhead_share
    return metrics


def report(run, metrics, units):
    for (label, traced), raw in sorted(run.raw.items()):
        scaled = run.scaled[(label, traced)]
        print(f"op {label}{' traced' if traced else ''}: {len(raw)} verified, median "
              f"{statistics.median(raw) * 1e3:.2f} ms wall, "
              f"{statistics.median(scaled) * 1e3:.2f} ms scaled")
    points = run.calibration.points
    print(f"reference loop: median {statistics.median(points) * 1e3:.3f} ms wall over "
          f"{len(points)} points, scaled to {REFERENCE_MS} ms")
    print(f"failed_ratio {run.failed / run.attempted:.4g} "
          f"({run.failed} of {run.attempted} ops)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus_cli", "exact_chart", "cuth_point"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up, print 'ready' and stop (times setup_s)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gradweil" / "__init__.py").is_file():
        print(f"error: no gradweil sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gradweil
    if Path(gradweil.__file__).resolve().parent != SRC / "gradweil":
        print(f"error: imported gradweil from {gradweil.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = setup(args.workload)
    if args.probe:
        print("ready", flush=True)
        return 0
    if args.trace:
        run, metrics = run_traced(workload, args.seed, args.seconds)
        units = PER_LAYER_UNITS
    else:
        setup_s = measure_setup(args.workload, args.seed)
        run = run_plain(workload, args.seed, args.seconds)
        metrics, units = end_to_end(run, setup_s), END_TO_END_UNITS
    report(run, metrics, units)
    return 0 if run.failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
