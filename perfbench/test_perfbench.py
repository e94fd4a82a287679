"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q

Each workload's check must pass on correct output, at the default seed and at
one other seed, and fail on one corrupted snapshot line or table row.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from poisonring import cli, ring_sim  # noqa: E402

SEEDS = (workloads.DEFAULT_SEED, 7)


def flipped(line: str) -> str:
    """The snapshot line with node 0's privilege flag inverted."""
    return ("0" if line[0] == "1" else "1") + line[1:]


@pytest.mark.parametrize("seed", SEEDS)
def test_campaign_check_passes_then_catches_one_bad_line(seed, tmp_path):
    workload = workloads.CampaignClean(seed, tmp_path, limit=12)
    assert workload.check(workload.run_pass()) == (12, [])

    vector, injections = workload.inputs[3]
    _, snapshots = workloads.pkg.run(workload.config, injections)
    expected = "\n".join(workloads.oracle_lines(vector))
    assert workloads.check_campaign_run(expected, snapshots) is None
    snapshots[0].line = flipped(snapshots[0].line)
    assert "oracle" in workloads.check_campaign_run(expected, snapshots)


def test_campaign_visit_order_follows_the_seed(tmp_path):
    first = workloads.CampaignClean(1, tmp_path)
    again = workloads.CampaignClean(1, tmp_path)
    other = workloads.CampaignClean(2, tmp_path)
    vectors = [vector for vector, _ in first.inputs]
    assert vectors == [vector for vector, _ in again.inputs]
    assert vectors != [vector for vector, _ in other.inputs]
    assert sorted(vectors) == sorted(vector for vector, _ in other.inputs)
    assert len(vectors) == 3125 and first.steps_per_pass == 3125 * 5 * 10


@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_check_passes_then_catches_one_bad_row(seed, tmp_path):
    workload = workloads.SweepPoisoned(seed, tmp_path, reps=3)
    result = workload.run_pass()
    assert workload.check(result) == (1, [])

    code, out, err = result.outputs
    lines = out.splitlines()
    fields = lines[2].split()
    fields[1] = "2"  # one row reports fewer runs than were asked for
    lines[2] = " ".join(fields)
    result.outputs = (code, "\n".join(lines) + "\n", err)
    assert workload.check(result)[1]


def test_sweep_band_and_frozen_digest(tmp_path):
    workload = workloads.SweepPoisoned(workloads.DEFAULT_SEED, tmp_path, reps=3)
    code, out, err = workload.run_pass().outputs
    lines = out.splitlines()

    off_band = lines[:]
    fields = off_band[1].split()
    fields[5] = "0.9000"  # the 0.1 row, far outside its binomial band
    off_band[1] = " ".join(fields)
    assert "outside" in workload.check_output((code, "\n".join(off_band) + "\n", err))

    # A change only the frozen digest can see: the converged count of one row.
    fields = lines[3].split()
    fields[2] = str(int(fields[2]) ^ 1)
    lines[3] = " ".join(fields)
    assert "frozen" in workload.check_output((code, "\n".join(lines) + "\n", err))


@pytest.mark.parametrize("seed", SEEDS)
def test_trace_check_passes_then_catches_one_bad_line(seed, tmp_path):
    workload = workloads.TraceLarge(seed, tmp_path, nodes=6, rounds=8)
    result = workload.run_pass()
    assert result.trace_bytes > 0 and not workload.trace_path.exists()
    assert workload.check(result) == (1, [])

    (code, out, err), record = result.outputs
    lines = out.splitlines()
    lines[0] = flipped(lines[0])
    corrupted = ((code, "\n".join(lines) + "\n", err), record)
    assert "stdout" in workload.check_output(*corrupted)

    stats_changed = err.replace("deviation stats: uses=", "deviation stats: uses=1")
    assert "stderr" in workload.check_output((code, out, stats_changed), record)

    record.scenario_digest = "0" * 64
    assert "digest" in workload.check_output((code, out, err), record)


def test_trace_scenario_seed_comes_from_the_workload_seed(tmp_path):
    chosen = {workloads.TraceLarge(seed, tmp_path, nodes=6, rounds=8).scenario.seed
              for seed in range(8)}
    assert len(chosen) > 1
    assert chosen <= set(workloads.TraceLarge.scenario_seeds)


def test_span_self_time_subtracts_direct_children():
    names = ["outer", "inner"]
    # outer [0, 10] holds inner [1, 4] and inner [5, 6]; inner [2, 3] nests in the first inner.
    name = [0, 1, 1, 1]
    parent = [-1, 0, 0, 1]
    start = [0.0, 1.0, 5.0, 2.0]
    end = [10.0, 4.0, 6.0, 3.0]
    totals = tracer.span_totals(names, name, parent, start, end)
    assert totals["outer"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert totals["inner"] == {"calls": 3, "s": 5.0, "self_s": 4.0}


def test_traced_pass_counts_every_layer_and_restores_it(tmp_path):
    originals = (cli.main, cli.run, ring_sim.binop, ring_sim.update,
                 ring_sim.EvalContext.suppression, workloads.pkg.read_record)
    workload = workloads.SweepPoisoned(7, tmp_path, reps=2)
    spans = tracer.Tracer()
    tracer.install(spans)
    try:
        result = workload.run_pass()
    finally:
        spans.uninstall()
    assert (cli.main, cli.run, ring_sim.binop, ring_sim.update,
            ring_sim.EvalContext.suppression, workloads.pkg.read_record) == originals
    assert workload.check(result) == (1, [])

    totals = spans.totals()
    counts = spans.counts
    binops = totals["poison_core.binop"]["calls"]
    assert totals["ring_sim.update"]["calls"] == workload.steps_per_pass
    assert binops == totals["kernel.clean_binop"]["calls"]
    assert binops == sum(counts[f"binop.{kind}"] for kind in ("clean", "suppressed", "poisoned"))
    assert counts["binop.suppressed"] == totals["poison_core.suppression"]["calls"]
    assert counts["binop.poisoned"] == totals["kernel.bernoulli"]["calls"] > 0
    assert 0 < counts["binop.deviated"] < counts["binop.poisoned"]
    assert counts["run.calls"] == totals["cli.execute_scenario"]["calls"] == 5 * 2
    for name, entry in totals.items():
        assert entry["self_s"] <= entry["s"] + 1e-9, name

    path = tmp_path / "spans.bin"
    spans.write(path)
    names, name, parent, start, end = tracer.read_spans(path)
    assert tracer.span_totals(names, name, parent, start, end) == totals


class _FixedWorkload:
    """A workload of four passes, each with the same two run() calls."""

    name = "fixed"
    passes = 4
    steps_per_pass = 10

    def run_pass(self, pause=None):
        return workloads.PassResult([0.002, 0.001], [0.01], None)

    def check(self, result):
        return 1, []


def test_measure_makes_the_fixed_pass_count_unless_seconds_run_out():
    bench = run.Bench(_FixedWorkload())
    bench.measure(60.0)
    assert len(bench.passes) == 4
    assert all(len(p.reference) == run.REFERENCE_GAP_SAMPLES for p in bench.passes)

    capped = run.Bench(_FixedWorkload())
    capped.measure(0.0)
    assert len(capped.passes) == 1


def test_end_to_end_times_are_brought_to_the_reference_speed():
    bench = run.Bench(_FixedWorkload())
    bench.measure(60.0)
    # The reference took twice REFERENCE_S in the median of each pass but
    # the last, where it took four times: half and a quarter of its speed.
    for p in bench.passes:
        p.reference = [2 * run.REFERENCE_S, 2 * run.REFERENCE_S, 3 * run.REFERENCE_S]
    bench.passes[-1].reference = [4 * run.REFERENCE_S] * 3
    setup = [(0.08, run.REFERENCE_S), (0.1, 4 * run.REFERENCE_S), (0.2, 4 * run.REFERENCE_S)]
    values, raw = run.end_to_end_metrics(bench, setup)
    assert raw["run_p50_ms"] == pytest.approx(1.0)
    assert raw["steps_per_s"] == pytest.approx(10 / 0.013)
    assert values["run_p50_ms"] == pytest.approx(0.5)
    assert values["run_p99_ms"] == pytest.approx(1.0)
    assert values["steps_per_s"] == pytest.approx(2 * 10 / 0.013)
    assert raw["setup_s"] == pytest.approx(0.1)
    assert values["setup_s"] == pytest.approx(0.05)
    assert values["peak_rss_mb"] > 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    defaults = run.build_parser().parse_args(["--workload", "campaign_clean"])
    assert defaults.seed == workloads.DEFAULT_SEED
    assert defaults.seconds == spec["run_seconds"]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign_clean",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
