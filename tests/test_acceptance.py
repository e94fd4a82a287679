"""Acceptance suite: one test per criterion, at the stated tolerances.

Criteria 1-6, 8, 9 are exact; criterion 3 allows ±0.02 on the empirical
deviation rate; criterion 7 compares against the brute-force ring oracle
over every one of the 3,125 initial status vectors.
"""

import copy
import hashlib
import json
import math
import pickle
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import pytest

from conftest import (
    base_scenario_obj,
    assert_monitoring_neutral,
    make_policy,
    poison_injection_obj,
    run_outcome,
    subprocess_env,
)
from ring_oracle import all_initial_states, reference_convergence_point, reference_run
from trace_reference import reference_loads_record

from poisonring import (
    ArithmeticFault,
    EvalContext,
    Injection,
    OperatorEvent,
    RingConfig,
    RunRecord,
    binop,
    convergence_point,
    deviation_stats,
    is_legitimate,
    is_poisoned,
    make_poisoned,
    read_record,
    run,
    token_count,
)
from poisonring import poison_core, trace_metrics
from poisonring._kernel import bernoulli, stream_seed
from poisonring.cli import EXIT_OK, GOLDEN_PREFIX, load_scenario, main, parse_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def test_criterion_1_golden_trace(capsys):
    """5 nodes, 10 rounds, no faults: the 7 published lines, 50 total, all legitimate."""
    started = time.monotonic()
    _, snapshots = run(RingConfig(node_count=5, k_states=5, rounds=10))
    lines = [s.line for s in snapshots]
    assert tuple(lines[:7]) == GOLDEN_PREFIX
    assert len(lines) == 50
    assert all(token_count(line) == 1 for line in lines)
    assert main(["check"]) == EXIT_OK
    capsys.readouterr()
    assert time.monotonic() - started < 1.0


def test_criterion_2_deterministic_effect_rate_is_one():
    """Definition 2: >= 40 poisoned uses under deterministic effect, rate exactly 1.0."""
    ctx = EvalContext()
    injections = [Injection(node=0, at_round=0, policy=make_policy(infectious=True))]
    run(RingConfig(5, 5, 20, seed=0), injections, ctx)
    stats = deviation_stats(RunRecord("", 0, events=ctx.event_sink))
    assert stats.uses >= 40
    assert stats.deviations == stats.uses
    assert stats.rate == 1.0


def test_criterion_3_intermittent_rate_within_band():
    """Definition 3: rate 0.25 over 10,000 synthetic uses, empirical within +/-0.02."""
    started = time.monotonic()
    ctx = EvalContext()
    p = make_poisoned(7, make_policy(rate=0.25), origin_id=0, seed=2024)
    for _ in range(10_000):
        binop("mul", p, 3, ctx)
    stats = deviation_stats(RunRecord("", 0, events=ctx.event_sink))
    assert stats.uses == 10_000
    assert abs(stats.rate - 0.25) <= 0.02

    # Oracle: the same seeded stream drawn directly, plus the frozen count.
    state = stream_seed(2024, 0)
    expected_flags = []
    for _ in range(10_000):
        state, fired = bernoulli(state, 0.25)
        expected_flags.append(bool(fired))
    assert [e.deviated for e in ctx.event_sink] == expected_flags
    assert stats.deviations == 2537  # frozen from the oracle stream
    # 4-sigma concentration band from the invariant list
    assert abs(stats.rate - 0.25) <= 4 * math.sqrt(0.25 * 0.75 / 10_000)
    assert time.monotonic() - started < 5.0


def test_criterion_4_low_rate_manifests_eventually():
    """Definition 1: rate 0.05 over 1,000 uses deviates at least once."""
    ctx = EvalContext()
    p = make_poisoned(1, make_policy(rate=0.05), origin_id=0, seed=7)
    for _ in range(1_000):
        binop("add", p, 1, ctx)
    stats = deviation_stats(RunRecord("", 0, events=ctx.event_sink))
    assert stats.deviations >= 1
    assert stats.deviations == 49  # frozen from the oracle stream


def test_criterion_5_lifetimes():
    """Definitions 4/5: always persists over 100 uses; transient(1) expires on
    exactly one unsuppressed use; suppressed uses consume nothing."""
    ctx = EvalContext()
    always = make_poisoned(3, make_policy(), origin_id=0, seed=1)
    for _ in range(100):
        assert is_poisoned(always)
        binop("add", always, 1, ctx)
        assert is_poisoned(always)

    transient = make_poisoned(3, make_policy(uses=1), origin_id=1, seed=1)
    with ctx.suppression():
        for _ in range(10):
            binop("add", transient, 1, ctx)
    assert is_poisoned(transient)  # suppressed uses did not consume the lifetime
    binop("add", transient, 1, ctx)
    assert not is_poisoned(transient)
    binop("add", transient, 1, ctx)
    assert not is_poisoned(transient)
    assert ctx.event_sink[-1].deviated is False


def test_criterion_6_infection():
    """Definitions 6/7: poison propagates through arithmetic iff infectious."""
    ctx = EvalContext()
    p = make_poisoned(5, make_policy(infectious=True), origin_id=0, seed=2)
    x = binop("add", p, 2, ctx)
    y = binop("mul", x, 2, ctx)
    assert is_poisoned(x) and is_poisoned(y)
    assert y.origin_id == p.origin_id

    q = make_poisoned(5, make_policy(infectious=False), origin_id=1, seed=2)
    x2 = binop("add", q, 2, ctx)
    assert not is_poisoned(x2)


def test_criterion_7_exhaustive_convergence():
    """All 3,125 initial vectors converge and match the oracle's convergence
    point; once a snapshot is legitimate, every later one is (closure)."""
    started = time.monotonic()
    rounds = 10
    for initial in all_initial_states(5, 5):
        ctx = EvalContext(event_sink=deque(maxlen=0))
        injections = [
            Injection(node=i, at_round=0, new_status=v) for i, v in enumerate(initial)
        ]
        _, snapshots = run(RingConfig(5, 5, rounds), injections, ctx)
        lines = [s.line for s in snapshots]
        _, oracle_lines = reference_run(5, 5, rounds, initial)
        assert lines == oracle_lines, f"trace mismatch from {initial}"
        point = convergence_point(RunRecord("", 0, snapshots=snapshots))
        oracle_point = reference_convergence_point(oracle_lines)
        assert point is not None, f"no convergence from {initial}"
        assert point == oracle_point, f"convergence point mismatch from {initial}"
        first_legitimate = next(i for i, l in enumerate(lines) if is_legitimate(l))
        assert point == first_legitimate, f"closure violated from {initial}"
    assert time.monotonic() - started < 30.0


def test_criterion_8_monitoring_neutrality():
    """Extra out() calls leave a poisoned run's outcome untouched and
    monitoring records no event."""
    # Neither side faults, and both make the same decisions, op for op.
    assert assert_monitoring_neutral(42, extra_outs=2) is None


def test_criterion_9_byte_identical_trace_files(tmp_path):
    """Two `run` invocations with the same scenario and seed agree byte for byte."""
    scenario = base_scenario_obj(
        seed=909,
        injections=[
            poison_injection_obj(effect={"intermittent": 0.5}, lifetime={"transient": 6}),
            {"kind": "perturb", "node": 3, "at_round": 2, "new_status": 4},
        ],
    )
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario), encoding="utf-8")
    traces = []
    outputs = []
    for name in ("first.jsonl", "second.jsonl"):
        trace = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "poisonring", "run", "--config", str(config),
             "--trace", str(trace)],
            capture_output=True,
            env=subprocess_env(),
            timeout=120,
        )
        assert result.returncode == EXIT_OK, result.stderr.decode()
        traces.append(trace.read_bytes())
        outputs.append(result.stdout)
    assert traces[0] == traces[1]
    assert outputs[0] == outputs[1]


# Frozen sha256 of the `run --trace` bytes. A change that keeps behaviour
# keeps every digest; a deliberate contract change re-freezes them and says so.
FROZEN_TRACE_SHA256 = {
    "perturbed.json": "6c634d742da708d6f9ce16535644c8f5fec833325339e7dd5254293da9c0bc01",
    "poison_node0.json": "68a21148da8101de80895af37b71862c05c8e1274a50f6d60e871b7ec1a3cba5",
    "reference.json": "5c5da3b110303ed07524935ee8baa7e3894d54740e4a72a24e984bce6842f490",
    "intermittent_always_infectious_scale": "834cd23af6949157c2d869a98a957395e3f1afc4ba046d501dedc4a2d7f114a9",
    "intermittent_transient_stuck_at": "fc389ba642a09c014f7c95eaa5a352a1c1a569c281c88efe235d4a9e409a7632",
    "intermittent_always_bitflip_perturb": "add797982b52b2b9376c1b6b0a0a1294034b25630103b4804aeab7da0366323e",
    "deterministic_transient_infectious_offset": "e46d2bd54f9434f6baa3df03c240e42ee6f37c969fe5964303578682e6e8340e",
}

INLINE_POISONED_SCENARIOS = {
    "intermittent_always_infectious_scale": base_scenario_obj(
        seed=13,
        ring={"node_count": 5, "k_states": 5, "rounds": 12},
        injections=[poison_injection_obj(effect={"intermittent": 0.5}, kind="scale",
                                         magnitude=2.5)],
    ),
    "intermittent_transient_stuck_at": base_scenario_obj(
        seed=15,
        injections=[poison_injection_obj(
            effect={"intermittent": 0.5}, lifetime={"transient": 6}, infectious=False,
            kind="stuck_at", magnitude=3,
        )],
    ),
    "intermittent_always_bitflip_perturb": base_scenario_obj(
        seed=13,
        injections=[
            poison_injection_obj(node=4, at_round=2, effect={"intermittent": 0.5},
                                 infectious=False, kind="bitflip", magnitude=0),
            {"kind": "perturb", "node": 1, "at_round": 3, "new_status": 2},
        ],
    ),
    "deterministic_transient_infectious_offset": base_scenario_obj(
        seed=14,
        ring={"node_count": 6, "k_states": 7, "rounds": 10},
        injections=[poison_injection_obj(node=3, lifetime={"transient": 4}, magnitude=-2)],
    ),
}


def _frozen_trace(tmp_path, capsys, name) -> Path:
    """The `run --trace` file of a shipped or inline scenario named in FROZEN_TRACE_SHA256."""
    if name in INLINE_POISONED_SCENARIOS:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(INLINE_POISONED_SCENARIOS[name]), encoding="utf-8")
    else:
        config = SCENARIOS / name
    trace = tmp_path / "trace.jsonl"
    assert main(["run", "--config", str(config), "--trace", str(trace), "--quiet"]) == EXIT_OK
    capsys.readouterr()
    return trace


@pytest.mark.parametrize("name", sorted(FROZEN_TRACE_SHA256))
def test_frozen_trace_digests(tmp_path, capsys, name):
    """`run --trace` bytes for each shipped and inline scenario match their frozen sha256."""
    trace = _frozen_trace(tmp_path, capsys, name)
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == FROZEN_TRACE_SHA256[name]


@pytest.mark.parametrize("name", sorted(FROZEN_TRACE_SHA256))
def test_frozen_traces_read_as_the_reference_reads_them(tmp_path, capsys, name):
    """read_record of each frozen-digest trace equals the reference decoder's record."""
    trace = _frozen_trace(tmp_path, capsys, name)
    assert read_record(trace) == reference_loads_record(trace.read_bytes().decode("utf-8"))


@pytest.mark.parametrize("name", sorted(FROZEN_TRACE_SHA256))
def test_frozen_traces_take_the_codec_fast_paths(tmp_path, capsys, monkeypatch, name):
    """Writing and reading each frozen-digest trace calls _check_record for its run header
    alone: every op and snapshot line is in the writer's exact form, which the writer's type
    test and the reader's line patterns pass without it. A fast path turned off writes and
    reads the same bytes, so only this count shows it."""
    check, checked = trace_metrics._check_record, []

    def counted_check(kind, obj, lineno):
        checked.append((kind, lineno))
        return check(kind, obj, lineno)

    monkeypatch.setattr(trace_metrics, "_check_record", counted_check)
    trace = _frozen_trace(tmp_path, capsys, name)
    assert checked == [("run", 1)]
    checked.clear()
    record = read_record(trace)
    assert checked == [("run", 1)]
    assert record.events and record.snapshots


# Frozen sha256 of `sweep --config poison_node0.json` stdout, one table per swept axis.
FROZEN_SWEEP_SHA256 = {
    ("rate", "0.1,0.5,0.9"): "4042c25b5373136b62c8a14c2dd099edb662432746f382ab003da19374fffc49",
    ("transient_uses", "1,4"): "169b217143ba559c577f4a1cdbe99e7e7d02402dffe3dfa6cf3b3922d8131e2f",
}


@pytest.mark.parametrize("param, values", sorted(FROZEN_SWEEP_SHA256))
def test_frozen_sweep_tables(capsys, param, values):
    """A 20-rep sweep table over each axis matches its frozen sha256."""
    argv = ["sweep", "--config", str(SCENARIOS / "poison_node0.json"), "--param", param,
            "--values", values, "--reps", "20"]
    assert main(argv) == EXIT_OK
    table = capsys.readouterr().out
    assert hashlib.sha256(table.encode("utf-8")).hexdigest() == FROZEN_SWEEP_SHA256[param, values]


# Every frozen-digest scenario, plus one whose offset deviation overflows
# mid-run (an ArithmeticFault at step 34, round 4, after intermittent draws).
SINK_SCENARIOS = {
    **{name: SCENARIOS / name for name in FROZEN_TRACE_SHA256 if name.endswith(".json")},
    **INLINE_POISONED_SCENARIOS,
    "intermittent_offset_overflow": base_scenario_obj(
        ring={"node_count": 3, "k_states": 2**63 - 1, "rounds": 6},
        injections=[
            {"kind": "perturb", "node": 0, "at_round": 0, "new_status": 2**63 - 2},
            {"kind": "perturb", "node": 2, "at_round": 1, "new_status": 5},
            poison_injection_obj(node=0, at_round=1, effect={"intermittent": 0.5}),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(SINK_SCENARIOS))
def test_zero_capacity_sink_builds_no_event(monkeypatch, name):
    """A deque(maxlen=0) sink gets no OperatorEvent built, and the run is the
    list-sink run: snapshots, statuses, steps, scalar state and fault step. binop builds each
    record it keeps through poison_core._new_record, so that is where builds are counted."""
    source = SINK_SCENARIOS[name]
    scenario = load_scenario(str(source)) if isinstance(source, Path) else parse_scenario(source)
    built = []

    def counted_new(cls):
        built.append(cls)
        return object.__new__(cls)

    monkeypatch.setattr(poison_core, "_new_record", counted_new)

    shown, events, steps = run_outcome(scenario.ring, scenario.injections, [])
    assert built == [OperatorEvent] * len(events) and len(events) > 0
    built.clear()
    assert run_outcome(scenario.ring, scenario.injections, deque(maxlen=0)) == (shown, [], steps)
    assert built == []
    last_two = run_outcome(scenario.ring, scenario.injections, deque(maxlen=2))
    assert last_two == (shown, events[-2:], steps)
    if name == "intermittent_offset_overflow":
        assert (shown[0], *shown[2:], steps) == ("fault", 34, 0, 4, 35)


def test_a_fault_from_run_survives_pickle_and_deepcopy():
    """An ArithmeticFault from run keeps its type, text, step, node and round through pickle
    and copy.deepcopy, as a process pool sending it back would need."""
    scenario = parse_scenario(SINK_SCENARIOS["intermittent_offset_overflow"])
    with pytest.raises(ArithmeticFault) as info:
        run(scenario.ring, scenario.injections)
    fault = info.value
    assert (fault.step, fault.node, fault.round_index) == (34, 0, 4)
    for copied in (pickle.loads(pickle.dumps(fault)), copy.deepcopy(fault)):
        assert type(copied) is ArithmeticFault
        assert str(copied) == str(fault)
        assert (copied.step, copied.node, copied.round_index) == (34, 0, 4)
