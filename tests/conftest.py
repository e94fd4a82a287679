import json
import os
from pathlib import Path

import pytest

import poisonring
from poisonring import (
    ArithmeticFault,
    DeviationModel,
    EvalContext,
    PoisonedScalar,
    PoisonPolicy,
    RingConfig,
    RingState,
    is_poisoned,
    make_poisoned,
    run,
)
from poisonring.ring_sim import out, update


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\nACCEPTANCE {'PASS' if report.passed else 'FAIL'}: {name}")


def subprocess_env() -> dict:
    """Environment for a `python -m poisonring` child that imports the package under test.

    PYTHONUNBUFFERED is dropped, so the child buffers stdout as it does under
    a user's shell or CI. The child runs in dev mode with warnings as errors,
    as pytest's filterwarnings = error holds only in the test process.
    """
    package_root = str(Path(poisonring.__file__).resolve().parent.parent)
    paths = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": os.pathsep.join(p for p in paths if p),
            "PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error"}


def make_policy(kind="offset", magnitude=1, rate=None, uses=None, infectious=False):
    return PoisonPolicy(
        DeviationModel(kind, magnitude), rate=rate, uses=uses, infectious=infectious
    )


def scalar_states(statuses):
    """Each status as an int, or a poisoned scalar's (clean value, policy, uses left, stream)."""
    return [(s.clean_value, s.policy, s.uses_remaining, s.rng_state)
            if isinstance(s, PoisonedScalar) else s for s in statuses]


def run_outcome(config, injections=(), sink=None, simulate=run):
    """(shown, events, steps) of one run: shown is the snapshots as (round, firing_node, line)
    and the final scalar_states, or ("fault", text, step, node, round) of its ArithmeticFault;
    events is a list of what the sink (None: a new list) kept and steps the final step counter."""
    ctx = EvalContext(event_sink=sink)
    try:
        state, snapshots = simulate(config, injections, ctx)
    except ArithmeticFault as exc:
        shown = ("fault", str(exc), exc.step, exc.node, exc.round_index)
    else:
        lines = [(s.round, s.firing_node, s.line) for s in snapshots]
        shown = (lines, scalar_states(state.statuses))
    return shown, list(ctx.event_sink), ctx.step_counter


def monitored_run(seed: int, policy=None, extra_outs: int = 0):
    """A 5-node, 10-round ring with node 0 poisoned (by default with an intermittent, transient,
    infectious offset), driven by hand with extra_outs out() calls before each update and at
    the end of each round; returns (state, snapshots, events)."""
    ctx = EvalContext()
    config = RingConfig(5, 5, 10, seed=seed)
    state = RingState(config.node_count, config.k_states)
    if policy is None:
        policy = make_policy(rate=0.5, uses=8, infectious=True)
    state.statuses[0] = make_poisoned(0, policy, 0, config.seed)
    snapshots = []
    for round_index in range(config.rounds):
        state.round_index = round_index
        for node in range(config.node_count):
            # out's flags stay right: the one hand write keeps node 0's clean value at 0.
            for _ in range(extra_outs):
                out(state, ctx)
            # run names a fault's node and round; update, called alone, leaves them None.
            try:
                update(state, node, ctx, snapshots)
            except ArithmeticFault as exc:
                exc.node, exc.round_index = node, round_index
                raise
        for _ in range(extra_outs):
            out(state, ctx)
    return state, snapshots, ctx.event_sink


def assert_monitoring_neutral(seed: int, policy=None, extra_outs: int = 1):
    """monitored_run with 0 and with extra_outs out() calls shows the same clean statuses,
    poison flags, snapshot lines and (op, lhs, rhs, deviated) per event, or faults at the same
    node and round on both sides (the step may differ); returns that (node, round), or None."""
    runs, faults = [], []
    for outs in (0, extra_outs):
        try:
            runs.append(monitored_run(seed, policy, outs))
        except ArithmeticFault as exc:
            faults.append((exc.node, exc.round_index))
    assert len(faults) in (0, 2) and faults[:1] == faults[1:]
    if faults:
        return faults[0]
    (plain_state, plain_snaps, plain_events), (noisy_state, noisy_snaps, noisy_events) = runs
    assert plain_state.clean_statuses() == noisy_state.clean_statuses()
    assert [is_poisoned(v) for v in plain_state.statuses] == [
        is_poisoned(v) for v in noisy_state.statuses
    ]
    assert [s.line for s in plain_snaps] == [s.line for s in noisy_snaps]
    # out records no event, so both runs record the same decisions, op for op
    plain_core = [(e.op, e.lhs_clean, e.rhs_clean, e.deviated) for e in plain_events]
    noisy_core = [(e.op, e.lhs_clean, e.rhs_clean, e.deviated) for e in noisy_events]
    assert plain_core == noisy_core
    return None


@pytest.fixture
def ctx():
    return EvalContext()


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """One file path that each hypothesis example of a test overwrites."""
    return tmp_path_factory.mktemp("traces") / "trace.jsonl"


@pytest.fixture
def scenario_file(tmp_path):
    """Write a scenario dict to a temp JSON file and return its path."""

    def write(obj, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return write


def base_scenario_obj(**overrides):
    obj = {"ring": {"node_count": 5, "k_states": 5, "rounds": 10}, "seed": 0}
    obj.update(overrides)
    return obj


def poison_injection_obj(node=0, at_round=0, effect="deterministic", lifetime="always",
                         infectious=True, kind="offset", magnitude=1):
    return {
        "kind": "poison",
        "node": node,
        "at_round": at_round,
        "policy": {
            "effect": effect,
            "lifetime": lifetime,
            "infectious": infectious,
            "deviation": {"kind": kind, "magnitude": magnitude},
        },
    }
