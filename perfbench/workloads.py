"""The benchmark's workloads: generated inputs, one timed pass, and output checks.

Each workload builds its inputs from the workload seed in its constructor (the
set-up that setup_s times) and runs the program from outside, through the
public API or cli.main, in run_pass(pause). Outputs are checked outside the
timed sections; check() returns the pass's count of runs and the reasons of
those that failed. pause, when given, is called after each run() call,
outside the timed pieces, where the benchmark times its host-speed
reference; its time is left out of the pass's. A "run" is the unit whose output is checked:
one run() call (campaign_clean), one `sweep` command (sweep_poisoned), one
`run` command with its read-back (trace_large). `passes` is the number of
untraced passes a benchmark run makes, the same on every build.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import poisonring as pkg
from poisonring import cli
from ring_oracle import reference_run

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 42

_U64 = 1 << 64


@dataclass
class PassResult:
    """What one timed pass produced: its time in pieces, and its raw outputs.

    run_seconds holds the latency of each run() call and other_seconds the
    rest of the pass. Together they add up to the pass's time, which leaves
    out the output checks and the reference work.
    """

    run_seconds: list[float]
    other_seconds: list[float]
    outputs: object
    trace_bytes: int = 0
    errors: list[str] = field(default_factory=list)
    # Reference times taken at fixed places within and after the pass (run.py).
    reference: list[float] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.run_seconds) + sum(self.other_seconds)


def _error_text() -> str:
    return traceback.format_exc(limit=4)


class _CallTimer:
    """Times each call of the function at owner.attr, where its callers look it up.

    When pause is given, it is called after each call, outside the call's
    sample, and the time it takes is summed in `paused`.
    """

    def __init__(self, owner, attr: str, pause=None):
        self.owner, self.attr, self.pause = owner, attr, pause
        self.samples: list[float] = []
        self.paused = 0.0

    def __enter__(self):
        inner = self._inner = getattr(self.owner, self.attr)
        samples, pause = self.samples, self.pause
        clock = time.perf_counter

        def timed(*args, **kwargs):
            started = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                samples.append(clock() - started)
                if pause is not None:
                    paused_from = clock()
                    pause()
                    self.paused += clock() - paused_from

        setattr(self.owner, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self._inner)


def _cli_main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CampaignClean:
    """All 3,125 initial vectors of a fault-free N=5, K=5, 10-round ring, seed-ordered."""

    name = "campaign_clean"
    passes = 5
    nodes, k_states, rounds = 5, 5, 10

    def __init__(self, seed: int, workdir: Path, limit: int | None = None):
        vectors = list(itertools.product(range(self.k_states), repeat=self.nodes))
        random.Random(seed).shuffle(vectors)
        if limit is not None:
            vectors = vectors[:limit]
        self.config = pkg.RingConfig(self.nodes, self.k_states, self.rounds)
        self.inputs = [
            (vector, tuple(pkg.Injection(node=i, at_round=0, new_status=v)
                           for i, v in enumerate(vector)))
            for vector in vectors
        ]
        self.steps_per_pass = len(self.inputs) * self.nodes * self.rounds
        self._oracle: dict[tuple, str] = {}

    def run_pass(self, pause=None) -> PassResult:
        config, make_ctx, clock = self.config, pkg.EvalContext, time.perf_counter
        latencies, failures, errors = [], [], []
        for vector, injections in self.inputs:
            begun = clock()
            try:
                _, snapshots = pkg.run(config, injections, make_ctx(event_sink=deque(maxlen=0)))
            except Exception:
                snapshots = None
                errors.append(_error_text())
            latencies.append(clock() - begun)
            # Checked between runs, outside the timed sections, so that the
            # pass holds no outputs; the oracle's lines are kept from pass to pass.
            if vector not in self._oracle:
                self._oracle[vector] = "\n".join(oracle_lines(vector))
            reason = check_campaign_run(self._oracle[vector], snapshots)
            if reason is not None:
                failures.append(f"initial {vector}: {reason}")
            if pause is not None:
                pause()
        return PassResult(latencies, [], failures, errors=errors)

    def check(self, result: PassResult) -> tuple[int, list[str]]:
        return len(self.inputs), result.outputs


def oracle_lines(vector) -> list[str]:
    """ring_oracle's snapshot lines for a campaign run from this initial vector."""
    return reference_run(CampaignClean.nodes, CampaignClean.k_states, CampaignClean.rounds,
                         vector)[1]


def check_campaign_run(expected: str, snapshots) -> str | None:
    """None when a run's snapshot lines, newline-joined, equal the oracle's, else the reason."""
    if snapshots is None:
        return "run raised"
    if "\n".join(s.line for s in snapshots) != expected:
        return "snapshot lines differ from ring_oracle"
    return None


class SweepPoisoned:
    """`sweep` over rate on scenarios/poison_node0.json, its seed replaced by the workload seed."""

    name = "sweep_poisoned"
    passes = 10
    values = (0.1, 0.3, 0.5, 0.7, 0.9)
    reps = 200
    # sha256 of the sweep table at DEFAULT_SEED, keyed by --reps.
    frozen_sha256 = {
        200: "b75930693573cd0d9979bd0ed46e671c757d7e0ca399da01d9c85a53f9e4e242",
        3: "7904fe52ab99e67bec3aa1eb09ffdda9f1bd8fdcefa6516973a6d18cea225485",
    }

    def __init__(self, seed: int, workdir: Path, reps: int | None = None):
        if reps is not None:
            self.reps = reps
        self.seed = seed % _U64
        obj = json.loads((ROOT / "scenarios" / "poison_node0.json").read_text(encoding="utf-8"))
        obj["seed"] = self.seed
        self.config_path = workdir / "sweep_poisoned.json"
        self.config_path.write_text(json.dumps(obj), encoding="utf-8")
        self.scenario = cli.load_scenario(str(self.config_path))
        ring = self.scenario.ring
        self.steps_per_pass = len(self.values) * self.reps * ring.node_count * ring.rounds
        self.argv = ["sweep", "--config", str(self.config_path), "--param", "rate",
                     "--values", ",".join(str(v) for v in self.values), "--reps", str(self.reps)]

    def run_pass(self, pause=None) -> PassResult:
        errors = []
        with _CallTimer(cli, "run", pause) as runs:
            started = time.perf_counter()
            try:
                output = _cli_main(self.argv)
            except Exception:
                output = None
                errors.append(_error_text())
            elapsed = time.perf_counter() - started
        rest = elapsed - sum(runs.samples) - runs.paused
        return PassResult(runs.samples, [rest], output, errors=errors)

    def check(self, result: PassResult) -> tuple[int, list[str]]:
        reason = self.check_output(result.outputs)
        return 1, [] if reason is None else [reason]

    def check_output(self, output) -> str | None:
        """None when the sweep table is right, else the first reason it is not."""
        if output is None:
            return "sweep raised"
        code, out, _ = output
        if code != cli.EXIT_OK:
            return f"exit code {code}"
        rows = out.splitlines()[1:]
        if len(rows) != len(self.values):
            return f"{len(rows)} rows for {len(self.values)} values"
        # Node 0 stays poisoned (always, infectious), and every round both its
        # own guard and node 1's guard read it unsuppressed: at least 2 uses a
        # round, so each rep's rate averages >= 2*rounds Bernoulli draws.
        min_uses = self.reps * 2 * self.scenario.ring.rounds
        for value, row in zip(self.values, rows):
            fields = row.split()
            if len(fields) != 6:
                return f"malformed row {row!r}"
            try:
                row_value, runs, rate = float(fields[0]), int(fields[1]), float(fields[5])
            except ValueError:
                return f"malformed row {row!r}"
            if row_value != value:
                return f"row value {fields[0]} where {value} was swept"
            if runs != self.reps:
                return f"row {value}: {runs} runs, expected {self.reps}"
            # The 4-sigma binomial band of acceptance criterion 3.
            band = 4 * math.sqrt(value * (1 - value) / min_uses)
            if abs(rate - value) > band:
                return f"row {value}: mean_dev_rate {rate} outside {value} +/- {band:.4f}"
        frozen = self.frozen_sha256.get(self.reps)
        if self.seed == DEFAULT_SEED and frozen is not None:
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            if digest != frozen:
                return f"table sha256 {digest} differs from the frozen {frozen}"
        return None


class TraceLarge:
    """One large poisoned ring through `run --trace`, then read back with read_record."""

    name = "trace_large"
    passes = 60
    # 20 nodes rather than 100: a pass then takes about 0.35 s instead of
    # 5 s and its run() call about 65 ms, so a run holds 60 passes, each
    # close in time to the references taken after it. At 100 nodes a run
    # held 4-6 passes and two sets of runs of the same code differed by 41%;
    # at 40 nodes (14 passes) run() still spread 0.26 over ten runs. The
    # working set (~20k events, ~4 MB of trace) is still the largest of the
    # three workloads. The poisoned ring fires 805-1,001
    # times in 100 rounds depending on the scenario seed (seeds 0-239
    # screened), and its work and trace grow with that count. So the
    # workload seed picks one of the seeds whose ring fires within 1% of the
    # median, 915.5; the value is that firing count, which the check pins.
    # Firings belong to the protocol, so reworking monitoring or tracing
    # leaves them unchanged.
    scenario_seeds = {
        3: 917, 11: 914, 13: 909, 17: 924, 19: 907, 20: 922, 28: 921, 29: 911,
        35: 914, 42: 911, 44: 917, 50: 923, 64: 908, 72: 919, 73: 908, 78: 908,
        83: 920, 89: 907, 92: 918, 95: 907, 96: 918, 101: 910, 124: 919,
        127: 912, 135: 912, 140: 918, 143: 916, 144: 922, 146: 911, 153: 915,
        157: 920, 163: 920, 164: 914, 165: 920, 166: 908, 167: 907, 168: 911,
        169: 923, 174: 916, 177: 912, 193: 917, 195: 919, 198: 919, 202: 922,
        203: 911, 204: 915, 214: 918, 217: 917, 223: 908, 230: 919, 233: 924,
        234: 918, 235: 921, 238: 914,
    }
    nodes, rounds = 20, 100

    def __init__(self, seed: int, workdir: Path, nodes: int | None = None,
                 rounds: int | None = None):
        if nodes is not None:
            self.nodes = nodes
        if rounds is not None:
            self.rounds = rounds
        seeds = list(self.scenario_seeds)
        obj = {
            "ring": {"node_count": self.nodes, "k_states": self.nodes + 1, "rounds": self.rounds},
            "seed": seeds[seed % len(seeds)],
            "injections": [{
                "kind": "poison", "node": 0, "at_round": 0,
                "policy": {"effect": {"intermittent": 0.5}, "lifetime": "always",
                           "infectious": True,
                           "deviation": {"kind": "offset", "magnitude": 1}},
            }],
        }
        self.config_path = workdir / "trace_large.json"
        self.config_path.write_text(json.dumps(obj), encoding="utf-8")
        self.trace_path = workdir / "trace_large.jsonl"
        self.scenario = cli.load_scenario(str(self.config_path))
        self.steps_per_pass = self.nodes * self.rounds
        self.argv = ["run", "--config", str(self.config_path), "--trace", str(self.trace_path)]

    def run_pass(self, pause=None) -> PassResult:
        # A pass makes one run() call, so the references timed after each
        # pass are close enough to it; pause is not called.
        errors = []
        output = record = None
        clock = time.perf_counter
        with _CallTimer(cli, "run") as runs:
            started = clock()
            try:
                output = _cli_main(self.argv)
                record = pkg.read_record(str(self.trace_path))
            except Exception:
                errors.append(_error_text())
            read = clock()
        size = os.path.getsize(self.trace_path) if self.trace_path.exists() else 0
        with contextlib.suppress(FileNotFoundError):
            self.trace_path.unlink()
        rest = read - started - sum(runs.samples)
        return PassResult(runs.samples, [rest], (output, record), trace_bytes=size, errors=errors)

    def check(self, result: PassResult) -> tuple[int, list[str]]:
        reason = self.check_output(*result.outputs)
        return 1, [] if reason is None else [reason]

    def check_output(self, output, record) -> str | None:
        """None when stdout, stderr and the read-back trace agree, else the reason."""
        if output is None or record is None:
            return "run or read-back raised"
        code, out, err = output
        if code != cli.EXIT_OK:
            return f"exit code {code}"
        if out.splitlines() != [s.line for s in record.snapshots]:
            return "stdout snapshot lines differ from the read-back snapshots"
        if (self.nodes, self.rounds) == (TraceLarge.nodes, TraceLarge.rounds):
            firings = self.scenario_seeds[self.scenario.seed]
            if len(record.snapshots) != firings:
                return f"{len(record.snapshots)} firings where seed {self.scenario.seed} gives {firings}"
        stats = pkg.deviation_stats(record)
        expected = (f"deviation stats: uses={stats.uses} deviations={stats.deviations} "
                    f"rate={stats.rate:.4f}")
        if expected not in err.splitlines():
            return "stderr deviation stats differ from deviation_stats of the read-back"
        digest = cli.scenario_digest(self.scenario)
        if record.scenario_digest != digest:
            return f"header digest {record.scenario_digest} is not scenario_digest {digest}"
        return None


WORKLOADS = {cls.name: cls for cls in (CampaignClean, SweepPoisoned, TraceLarge)}
