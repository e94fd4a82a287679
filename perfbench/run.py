"""Host-time benchmark of poisonring: clean campaign, poisoned sweep, large traced run.

    python3 perfbench/run.py --workload campaign_clean --seed 42 --seconds 38 --trace 0

Drives the package from outside, through its public API and cli.main, in one
process and one thread, one run at a time (closed loop, batch: no latency
limit or arrival rate). Inputs are generated from --seed. Each run makes the
same number of untraced passes, fixed per workload, on every build; --seconds
only caps the time, by not starting another pass once it has gone by. Each
pass's outputs are checked outside the timed section, and a failed check is
counted, never skipped.

--trace 0 prints the end-to-end metrics, measured with tracing off. --trace 1
runs the same untraced passes, then one pass with every layer wrapped
(tracer.py), and prints the per-layer metrics and the tracing overhead against
the untraced pass just before it; its spans are written to
.perfbench_out/spans-<workload>.bin when the run ends.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The line before it records the kernel backend, Python
version, nproc and the hand-written line count of src/, the time of each
pass, the reference times and the end-to-end metrics as timed, before they
are brought to the reference speed (see REFERENCE_S).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/poisonring/__init__.py", "tests/ring_oracle.py", "scenarios/poison_node0.json")
WORKLOAD_NAMES = ("campaign_clean", "sweep_poisoned", "trace_large")

# Fresh interpreters whose set-up time is sampled, besides this process's own.
# They are spread between the passes, so that their median does not hang on
# the host's load during one short stretch of the run, and each is paired
# with a reference time taken just before it.
SETUP_PROBES = 20

# Other tenants of a shared host slow its CPUs by up to half, in phases of
# seconds to minutes, so a whole run can fall in a slow phase. A fixed piece
# of reference work, timed at fixed places within and after every pass,
# measures the host's speed during that pass, and every end-to-end time is
# reported at the speed at which the reference takes REFERENCE_S: a time as
# measured, multiplied by REFERENCE_S over the median reference time of the
# same pass. 10 ms is near the reference's fastest time on the 2-core x86
# host the benchmark was tuned on, so there the metrics read close to the
# raw times. The raw times are on the record line. The reference's own code
# never changes with the program's.
REFERENCE_S = 0.010
# The reference is timed after every REFERENCE_EVERY_RUNS-th run() call of an
# untraced pass and REFERENCE_GAP_SAMPLES times after the pass.
REFERENCE_EVERY_RUNS = 200
REFERENCE_GAP_SAMPLES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("run_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("kernel.clean_binop.calls", "count"),
    ("kernel.clean_binop.self_s", "s"),
    ("kernel.bernoulli.calls", "count"),
    ("kernel.bernoulli.self_s", "s"),
    ("kernel.apply_deviation.calls", "count"),
    ("kernel.apply_deviation.self_s", "s"),
    ("kernel.stream_child.calls", "count"),
    ("poison_core.binop.calls", "count"),
    ("poison_core.binop.self_s", "s"),
    ("poison_core.binop.clean.calls", "count"),
    ("poison_core.binop.suppressed.calls", "count"),
    ("poison_core.binop.poisoned.calls", "count"),
    ("poison_core.binop.deviated.calls", "count"),
    ("poison_core.suppression.calls", "count"),
    ("poison_core.suppression.self_s", "s"),
    ("ring_sim.run.self_s", "s"),
    ("ring_sim.update.calls", "count"),
    ("ring_sim.update.fired", "count"),
    ("ring_sim.update.self_s", "s"),
    ("ring_sim.fire_ratio", "ratio"),
    ("ring_sim.has_privilege.calls", "count"),
    ("ring_sim.has_privilege.self_s", "s"),
    ("ring_sim.out.calls", "count"),
    ("ring_sim.out.self_s", "s"),
    ("ring_sim.monitor_share", "ratio"),
    ("trace_metrics.events_per_run", "count"),
    ("trace_metrics.dumps_record.s", "s"),
    ("trace_metrics.write_record.self_s", "s"),
    ("trace_metrics.read_record.s", "s"),
    ("trace_metrics.trace_bytes", "B"),
    ("trace_metrics.deviation_stats.s", "s"),
    ("trace_metrics.convergence_point.s", "s"),
    ("cli.scenario_digest.calls", "count"),
    ("cli.scenario_digest.s", "s"),
    ("cli.execute_scenario.self_s", "s"),
    ("cli.cmd_sweep.self_s", "s"),
    ("cli.cmd_run.self_s", "s"),
    ("cli.load_scenario.s", "s"),
    ("python.gc_s", "s"),
    ("python.gc.collections", "count"),
    ("trace.steps_per_s.untraced", "1/s"),
    ("trace.steps_per_s.traced", "1/s"),
    ("trace.overhead", "ratio"),
)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def src_line_count() -> int:
    """Lines of hand-written source under src/ (.py, .pyx, .pxd); the generated _opkernel.c is left out."""
    total = 0
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".py", ".pyx", ".pxd") and "__pycache__" not in path.parts:
            total += len(path.read_text(encoding="utf-8").splitlines())
    return total


def reference_seconds() -> float:
    """Time of one run of the fixed reference work: the host's speed just now.

    The work is of the program's kind, building small dicts and tuples and
    serialising them to JSON. Over 1-second windows of a phase-changing host,
    run() on trace_large divided by this work (at 20,000 items, fastest of
    ten each) spread 0.04 (quartiles over median), against 0.35 for run()
    alone and 0.11 for run() divided by a loop of integer arithmetic. The
    collector is off while it runs, so that the size of the program's heap
    does not change its time.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        json.dumps([{"k": i, "v": (i, str(i))} for i in range(10_000)])
        return time.perf_counter() - started
    finally:
        gc.enable()


def build_workload(name: str, seed: int, workdir: Path):
    """Import poisonring and generate and parse the workload's inputs: the set-up setup_s times."""
    import workloads

    return workloads.WORKLOADS[name](seed, workdir)


def probe_setup(name: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter running build_workload."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


class Bench:
    """One workload's passes and check tally; the pass loop is closed: one run at a time."""

    def __init__(self, workload):
        self.workload = workload
        self.passes: list = []
        self.attempted = 0
        self.failed = 0
        self._calls = 0
        self._reference: list[float] = []

    def pause(self) -> None:
        """Called by an untraced pass after each run() call: times the reference when it is due."""
        self._calls += 1
        if self._calls % REFERENCE_EVERY_RUNS == 0:
            self._reference.append(reference_seconds())

    def one_pass(self, tracer=None):
        """Run one pass, traced when a tracer is given, then check its outputs and drop them.

        An untraced pass times the reference during the pass and after it.
        """
        from tracer import install

        gc.collect()
        self._calls, self._reference = 0, []
        if tracer is not None:
            install(tracer)
        try:
            result = self.workload.run_pass(None if tracer else self.pause)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is None:
            self._reference.extend(reference_seconds() for _ in range(REFERENCE_GAP_SAMPLES))
            result.reference = self._reference
        attempted, failures = self.workload.check(result)
        for text in (result.errors + failures)[:3]:
            print(f"{self.workload.name}: {text}", file=sys.stderr)
        self.attempted += attempted
        self.failed += len(failures)
        result.outputs = None
        return result

    def measure(self, seconds: float, after_pass=None) -> None:
        """The workload's fixed number of untraced passes, fewer only if `seconds` run out first.

        The count is the same on every build, so that a faster build's
        medians are not taken over more passes than a slower one's.
        after_pass(done) is called after each pass; its time does not count
        against `seconds`.
        """
        spent = 0.0
        while len(self.passes) < self.workload.passes and (not self.passes or spent < seconds):
            began = time.perf_counter()
            self.passes.append(self.one_pass())
            spent += time.perf_counter() - began
            if after_pass is not None:
                after_pass(len(self.passes))

    def at_reference(self) -> list[tuple]:
        """Each pass's time and run() latencies, at the reference speed of that pass."""
        out = []
        for result in self.passes:
            scale = REFERENCE_S / statistics.median(result.reference)
            out.append((result.seconds * scale, sorted(t * scale for t in result.run_seconds)))
        return out


def end_to_end_metrics(bench: Bench, setup_samples: list[tuple[float, float]]
                       ) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics at the reference speed, and the same times as measured.

    Each pass is brought to the reference speed of its own stretch of the
    run, then the median is taken over the passes. Each set-up time comes
    with the reference time taken just before it. In two sets of ten runs
    of the same code, on a host running the reference at about half its
    quiet speed, steps_per_s and run_p50_ms spread 0.025-0.054 (quartiles
    over median) on every workload, against 0.04-0.24 as measured.

    The run() percentiles beyond the median go on the record line, ungated:
    a run() call on the campaign or the sweep takes about a millisecond, and
    its p90 and p99 moved with how many calls the host happened to slow. In
    the same runs they spread 0.04-0.15 and 0.12-0.31.
    """
    passes = bench.at_reference()
    raw_p = [sorted(result.run_seconds) for result in bench.passes]
    steps = bench.workload.steps_per_pass
    raw = {
        "setup_s": statistics.median(seconds for seconds, _ in setup_samples),
        "steps_per_s": steps / statistics.median(result.seconds for result in bench.passes),
        "run_p50_ms": statistics.median(percentile(runs, 0.50) for runs in raw_p) * 1e3,
    }
    values = {
        "setup_s": statistics.median(
            seconds * REFERENCE_S / reference for seconds, reference in setup_samples),
        "steps_per_s": steps / statistics.median(seconds for seconds, _ in passes),
        "run_p50_ms": statistics.median(percentile(runs, 0.50) for _, runs in passes) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for q in (0.90, 0.99):
        values[f"run_p{q * 100:.0f}_ms"] = statistics.median(
            percentile(runs, q) for _, runs in passes) * 1e3
    return values, raw


def per_layer_metrics(bench: Bench, tracer, totals, traced) -> dict[str, float]:
    counts = tracer.counts
    values: dict[str, float] = {}
    for name, entry in totals.items():
        for key in ("calls", "s", "self_s"):
            values[f"{name}.{key}"] = entry[key]
    for kind in ("clean", "suppressed", "poisoned", "deviated"):
        values[f"poison_core.binop.{kind}.calls"] = counts[f"binop.{kind}"]
    updates = totals["ring_sim.update"]["calls"]
    binops = totals["poison_core.binop"]["calls"]
    values["ring_sim.update.fired"] = counts["update.fired"]
    values["ring_sim.fire_ratio"] = counts["update.fired"] / updates if updates else 0.0
    values["ring_sim.monitor_share"] = counts["binop.suppressed"] / binops if binops else 0.0
    runs = counts["run.calls"]
    values["trace_metrics.events_per_run"] = counts["run.events"] / runs if runs else 0.0
    values["trace_metrics.trace_bytes"] = traced.trace_bytes
    values["python.gc_s"] = tracer.gc_s
    values["python.gc.collections"] = tracer.gc_collections
    # Both sides are the time of one whole pass, the untraced one just before
    # the traced one, so that the host's load drifts little between them.
    untraced = bench.workload.steps_per_pass / bench.passes[-1].seconds
    traced_rate = bench.workload.steps_per_pass / traced.seconds
    values["trace.steps_per_s.untraced"] = untraced
    values["trace.steps_per_s.traced"] = traced_rate
    values["trace.overhead"] = (untraced - traced_rate) / untraced
    return values


def run_benchmark(args, workdir: Path) -> int:
    started = time.perf_counter()
    bench = Bench(build_workload(args.workload, args.seed, workdir))
    setup_samples = [(time.perf_counter() - started, reference_seconds())]

    import workloads
    from tracer import Tracer

    def probe_until(due: int) -> None:
        while not args.trace and len(setup_samples) - 1 < due:
            reference = reference_seconds()
            setup_samples.append((probe_setup(args.workload, args.seed), reference))

    def after_pass(done: int) -> None:
        probe_until(SETUP_PROBES * done // passes)

    passes = bench.workload.passes
    bench.measure(args.seconds, after_pass)
    probe_until(SETUP_PROBES)

    if args.trace:
        tracer = Tracer()
        traced = bench.one_pass(tracer)
        totals = tracer.totals()
        if totals["ring_sim.update"]["calls"] != bench.workload.steps_per_pass:
            print("guarded steps counted by the traced pass differ from the workload's",
                  file=sys.stderr)
            bench.failed += 1
        values = per_layer_metrics(bench, tracer, totals, traced)
        raw = None
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}.bin")
        spec = PER_LAYER
    else:
        values, raw = end_to_end_metrics(bench, setup_samples)
        spec = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "kernel_backend": workloads.pkg.kernel_backend(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_line_count(),
        "pass_seconds": [round(result.seconds, 4) for result in bench.passes],
        "passes_planned": passes,
        "steps_per_pass": bench.workload.steps_per_pass,
        "run_samples": len(bench.passes[0].run_seconds),
        "reference_ms": {"median": statistics.median(
                             t for result in bench.passes for t in result.reference) * 1e3,
                         "per_pass": len(bench.passes[0].reference)},
        # Not gated, see end_to_end_metrics; at the reference speed.
        "run_p90_ms": values.get("run_p90_ms"),
        "run_p99_ms": values.get("run_p99_ms"),
        "as_measured": raw,
        "setup_samples": len(setup_samples),
        "check_fail_ratio": bench.failed / bench.attempted,
    }
    print(f"{args.workload} seed {args.seed}: {len(bench.passes)} passes, "
          f"{record['run_samples']} run() calls each, check_fail_ratio "
          f"{record['check_fail_ratio']:g} ({bench.failed}/{bench.attempted} runs)")
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42, help="workload seed")
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"error: not a poisonring checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        if args.setup_probe:
            started = time.perf_counter()
            build_workload(args.workload, args.seed, workdir)
            print(time.perf_counter() - started)
            return 0
        return run_benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()


if __name__ == "__main__":
    sys.exit(main())
