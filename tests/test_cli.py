"""CLI surface: scenario loading, run/check/sweep, exit codes, determinism."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter, deque
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import base_scenario_obj, make_policy, poison_injection_obj, subprocess_env
from monitor_reference import reference_out
from trace_reference import reference_dumps_record
from poisonring import (
    ArithmeticFault,
    DeviationModel,
    EvalContext,
    Injection,
    PoisonedScalar,
    PoisonPolicy,
    RingConfig,
    Scenario,
    ScenarioError,
    SnapshotEvent,
    convergence_point,
    deviation_stats,
    dumps_record,
    loads_record,
    read_record,
    run,
    token_count,
    write_record,
)
from poisonring import ring_sim
from poisonring._kernel import INT64_MAX, INT64_MIN
from poisonring.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CHECK_MISMATCH,
    EXIT_CONFIG,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_RUNTIME,
    GOLDEN_PREFIX,
    cmd_check,
    compare_golden,
    execute_scenario,
    load_scenario,
    main,
    parse_scenario,
    scenario_digest,
    scenario_obj,
    _sweep_values,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

OVERFLOW_SCENARIO = {
    "ring": {"node_count": 5, "k_states": 5, "rounds": 12},
    "seed": 0,
    "injections": [
        poison_injection_obj(kind="scale", magnitude=9_000_000_000_000_000_000),
        {"kind": "perturb", "node": 4, "at_round": 0, "new_status": 1},
    ],
}


class TestLoadScenario:
    def test_reference_values_parse(self, scenario_file):
        scenario = load_scenario(scenario_file(base_scenario_obj()))
        assert scenario.ring.node_count == 5
        assert scenario.ring.k_states == 5
        assert scenario.ring.rounds == 10
        assert scenario.injections == ()

    def test_k_not_exceeding_n_rejected(self, scenario_file):
        path = scenario_file({"ring": {"node_count": 5, "k_states": 4, "rounds": 10}})
        message = rf"k_states must be an integer in \[5, {INT64_MAX}\], got 4$"
        with pytest.raises(ScenarioError, match=message):
            load_scenario(path)

    def test_rate_one_directs_to_deterministic(self, scenario_file):
        obj = base_scenario_obj(
            injections=[poison_injection_obj(effect={"intermittent": 1.0})]
        )
        with pytest.raises(ScenarioError, match="deterministic"):
            load_scenario(scenario_file(obj))

    def test_aliases_rejected(self, scenario_file):
        inj = poison_injection_obj()
        inj["policy"]["cascade"] = True  # rejected: only the canonical spelling is accepted
        del inj["policy"]["infectious"]
        with pytest.raises(ScenarioError, match="unknown keys"):
            load_scenario(scenario_file(base_scenario_obj(injections=[inj])))

    def test_missing_file_names_path(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        with pytest.raises(ScenarioError, match="nope.json"):
            load_scenario(missing)

    @pytest.mark.parametrize(
        "data,reason",
        [
            (b"\xff\xfe{", "cannot read scenario"),
            # Past json.loads' own limits: an integer of more than 4,300 digits, 100,000 nested lists.
            (b'{"ring": {"node_count": ' + b"1" * 5000 + b"}}", "invalid JSON"),
            (b"[" * 100_000 + b"]" * 100_000, "invalid JSON"),
        ],
        ids=["utf8", "digits", "depth"],
    )
    def test_unreadable_file_exits_1(self, tmp_path, capsys, data, reason):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {reason}: ")
        assert "Traceback" not in err

    def test_syntax_error_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "ring": {,}\n}\n', encoding="utf-8")
        with pytest.raises(ScenarioError, match=r"line 2"):
            load_scenario(str(path))

    def test_field_errors_name_field(self, scenario_file):
        obj = base_scenario_obj(injections=[poison_injection_obj(node=9)])
        with pytest.raises(ScenarioError, match=r"injections\[0\].node"):
            load_scenario(scenario_file(obj))

    def test_injection_round_bound(self, scenario_file):
        obj = base_scenario_obj(
            injections=[{"kind": "perturb", "node": 0, "at_round": 11, "new_status": 1}]
        )
        with pytest.raises(ScenarioError, match="at_round"):
            load_scenario(scenario_file(obj))

    def test_transient_lifetime_parses(self, scenario_file):
        obj = base_scenario_obj(
            injections=[poison_injection_obj(effect={"intermittent": 0.5},
                                             lifetime={"transient": 3})]
        )
        scenario = load_scenario(scenario_file(obj))
        policy = scenario.injections[0].policy
        assert policy.rate == 0.5
        assert policy.uses == 3

    def test_conflicting_injections_rejected_at_load(self, scenario_file):
        perturb = {"kind": "perturb", "node": 1, "at_round": 0, "new_status": 1}
        obj = base_scenario_obj(injections=[poison_injection_obj(node=1), perturb])
        with pytest.raises(ScenarioError, match=r"injections\[1\]: conflicting"):
            load_scenario(scenario_file(obj))

    def test_trace_path_key_rejected(self, scenario_file):
        obj = base_scenario_obj(trace_path="out.jsonl")
        with pytest.raises(ScenarioError, match=r"unknown keys \['trace_path'\]"):
            load_scenario(scenario_file(obj))

    @pytest.mark.parametrize(
        "obj,field",
        [
            (base_scenario_obj(ring={"node_count": 5, "k_states": 5, "rounds": True}), "rounds"),
            (base_scenario_obj(seed=True), "seed"),
            (base_scenario_obj(seed=2**64), "seed"),
            (base_scenario_obj(injections=[poison_injection_obj(node=False)]),
             r"injections\[0\]: node"),
            (base_scenario_obj(injections=[poison_injection_obj(infectious=1)]),
             r"injections\[0\]\.policy: infectious"),
            (base_scenario_obj(injections=[poison_injection_obj(lifetime={"transient": True})]),
             r"injections\[0\]\.policy: uses"),
            (base_scenario_obj(injections=[poison_injection_obj(lifetime={"transient": 2**63})]),
             r"injections\[0\]\.policy: uses must be an integer in "
             r"\[1, 9223372036854775807\], got 9223372036854775808$"),
            (base_scenario_obj(injections=[poison_injection_obj(effect={"intermittent": None})]),
             r"injections\[0\]\.policy\.effect: missing or null keys \['intermittent'\]"),
            (base_scenario_obj(injections=[poison_injection_obj(kind=["offset"])]),
             r"injections\[0\]\.policy\.deviation: deviation kind"),
        ],
        ids=["bool_rounds", "bool_seed", "seed_2_64", "bool_node", "int_infectious",
             "bool_uses", "uses_2_63", "null_rate", "list_kind"],
    )
    def test_domain_errors_name_their_field(self, scenario_file, obj, field):
        path = scenario_file(obj)
        with pytest.raises(ScenarioError, match=f"^{re.escape(path)}.*{field}"):
            load_scenario(path)

    def test_scenario_holds_only_ring_and_injections(self):
        assert [f.name for f in dataclasses.fields(Scenario)] == ["ring", "injections"]
        assert Scenario(ring=RingConfig(5, 5, 1, seed=9)).seed == 9

    def test_digest_tracks_content(self, scenario_file):
        a = load_scenario(scenario_file(base_scenario_obj()))
        b = load_scenario(scenario_file(base_scenario_obj(seed=1), name="b.json"))
        assert scenario_digest(a) != scenario_digest(b)
        assert scenario_digest(a) == scenario_digest(a)


# Scenarios over every field of the canonical form: each deviation kind, rational
# offset and scale magnitudes, both forms of each policy axis, infectious or not,
# perturb injections, and seeds up to 2**64 - 1.
_RATIONALS = st.one_of(
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    st.sampled_from([Fraction(1, 3), Fraction(5, 2), 1.01, 3]),
)
_DEVIATIONS = st.one_of(
    st.builds(DeviationModel, st.just("offset"), _RATIONALS.filter(lambda m: m != 0)),
    st.builds(DeviationModel, st.just("scale"), _RATIONALS.filter(lambda m: m != 1)),
    st.builds(DeviationModel, st.just("stuck_at"), st.integers(INT64_MIN, INT64_MAX)),
    st.builds(DeviationModel, st.just("bitflip"), st.integers(0, 63)),
)
_POLICIES = st.builds(
    PoisonPolicy,
    _DEVIATIONS,
    rate=st.none() | st.floats(0, 1, exclude_min=True, exclude_max=True),
    uses=st.none() | st.integers(1, INT64_MAX),
    infectious=st.booleans(),
)


@st.composite
def _scenarios(draw):
    nodes = draw(st.integers(1, 6))
    ring = RingConfig(nodes, nodes + draw(st.integers(0, 3)), draw(st.integers(0, 8)),
                      seed=draw(st.integers(0, 2**64 - 1)))
    slots = draw(st.lists(st.tuples(st.integers(0, nodes - 1), st.integers(0, ring.rounds)),
                          unique=True, max_size=4))
    specs = st.one_of(st.builds(dict, policy=_POLICIES),
                      st.builds(dict, new_status=st.integers(0, ring.k_states - 1)))
    return Scenario(ring, tuple(Injection(node, at, **draw(specs)) for node, at in slots))


@st.composite
def _unchecked_scenarios(draw):
    """A ring and a list of injections that may not fit it: a node of N, a round of
    rounds + 1, a new_status of K, or a (node, round) slot given twice."""
    nodes = draw(st.integers(1, 6))
    ring = RingConfig(nodes, nodes + draw(st.integers(0, 3)), draw(st.integers(0, 8)),
                      seed=draw(st.integers(0, 2**64 - 1)))
    slots = draw(st.lists(st.tuples(st.integers(0, nodes), st.integers(0, ring.rounds + 1)),
                          max_size=4))
    specs = st.one_of(st.builds(dict, policy=_POLICIES),
                      st.builds(dict, new_status=st.integers(0, ring.k_states)))
    return ring, [Injection(node, at, **draw(specs)) for node, at in slots]


def _sink_outcome(scenario, sink):
    """A run as seen without its events: snapshot lines, clean statuses, steps and each
    poisoned scalar's state, or the step, node and round of its ArithmeticFault."""
    ctx = EvalContext(event_sink=sink)
    try:
        state, snapshots = run(scenario.ring, scenario.injections, ctx)
    except ArithmeticFault as exc:
        return "fault", exc.step, exc.node, exc.round_index, ctx.step_counter
    scalars = [(s.clean_value, s.policy, s.uses_remaining, s.rng_state)
               for s in state.statuses if isinstance(s, PoisonedScalar)]
    return [s.line for s in snapshots], state.clean_statuses(), ctx.step_counter, scalars


_SMALL_RING = RingConfig(4, 5, 8, seed=3)


@settings(max_examples=200, deadline=None)
@given(_scenarios())
@example(Scenario(_SMALL_RING))  # fault-free
@example(Scenario(_SMALL_RING, (Injection(2, 0, new_status=4), Injection(0, 3, new_status=1))))
@example(Scenario(_SMALL_RING, (Injection(1, 1, policy=PoisonPolicy(
    DeviationModel("offset", 1), rate=0.5, uses=3, infectious=True)),)))
@example(parse_scenario(OVERFLOW_SCENARIO))  # an ArithmeticFault in round 1
def test_discarding_sink_changes_nothing(scenario):
    """With a deque(maxlen=0) sink, clean ops return right after the kernel; the run is
    still the list-sink run, clean, perturbed, poisoned or faulting."""
    assert _sink_outcome(scenario, deque(maxlen=0)) == _sink_outcome(scenario, [])


def _run_outcome(scenario):
    ctx = EvalContext()
    state, snapshots = run(scenario.ring, scenario.injections, ctx)
    return ctx.event_sink, snapshots, state.clean_statuses(), ctx.step_counter


@settings(max_examples=200, deadline=None)
@given(_scenarios())
@example(Scenario(_SMALL_RING, (Injection(1, 1, policy=PoisonPolicy(
    DeviationModel("offset", 1), rate=0.5, uses=3, infectious=True)),)))
def test_out_records_what_the_per_node_path_records(scenario):
    """A run's events are those of the same run monitored by one suppressed binop per
    node, which records nothing; snapshots, statuses and steps are equal."""
    try:
        events, snapshots, statuses, steps = _run_outcome(scenario)
    except ArithmeticFault:
        return
    with mock.patch.object(ring_sim, "out", reference_out):
        per_node = _run_outcome(scenario)
    # repr tells True from 1, which a trace line does too.
    assert [repr(e) for e in events] == [repr(e) for e in per_node[0]]
    assert (snapshots, statuses, steps) == per_node[1:]


@settings(max_examples=200, deadline=None)
@given(_scenarios())
def test_every_run_record_is_written_and_read_back(trace_path, scenario):
    """The writer's check never fires on a record a run builds: written as the reference
    writes it, it loads back equal from the text and from the file."""
    try:
        record = execute_scenario(scenario)
    except ArithmeticFault:
        return
    text = dumps_record(record)
    assert text == reference_dumps_record(record)
    assert loads_record(text) == record
    write_record(record, trace_path)
    assert read_record(trace_path) == record


class TestScenarioCodec:
    @settings(max_examples=300, deadline=None)
    @given(_scenarios())
    def test_canonical_object_reads_back_and_is_what_the_digest_hashes(self, scenario):
        obj = scenario_obj(scenario)
        assert parse_scenario(json.loads(json.dumps(obj))) == scenario
        blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
        assert scenario_digest(scenario) == hashlib.sha256(blob).hexdigest()

    @settings(max_examples=300, deadline=None)
    @given(_unchecked_scenarios(), st.sampled_from([tuple, list, iter]))
    def test_a_scenario_that_builds_reads_back(self, drawn, container):
        """A Scenario is built exactly when its injections fit its ring, from any iterable;
        one that is built reads back from its canonical object."""
        ring, injections = drawn
        fits = len({(i.node, i.at_round) for i in injections}) == len(injections) and all(
            i.node < ring.node_count and i.at_round <= ring.rounds
            and (i.new_status is None or i.new_status < ring.k_states) for i in injections)
        try:
            scenario = Scenario(ring, container(injections))
        except ScenarioError:
            assert not fits
            return
        assert fits and scenario.injections == tuple(injections)
        assert parse_scenario(json.loads(json.dumps(scenario_obj(scenario)))) == scenario

    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
    def test_canonical_file_gives_the_same_trace_bytes(self, tmp_path, capsys, name):
        original = SCENARIOS / name
        canonical = tmp_path / "canonical.json"
        canonical.write_text(json.dumps(scenario_obj(load_scenario(str(original)))),
                             encoding="utf-8")
        traces = []
        for config in (original, canonical):
            trace = tmp_path / f"{len(traces)}.jsonl"
            assert main(["run", "--config", str(config), "--trace", str(trace)]) == EXIT_OK
            traces.append(trace.read_bytes())
        assert traces[0] == traces[1]
        assert capsys.readouterr().err.count("snapshots:") == 2

    @pytest.mark.parametrize(
        "kind,text,magnitude",
        [("offset", "1", 1), ("offset", "-1/3", Fraction(-1, 3)), ("scale", "5/2", Fraction(5, 2)),
         ("scale", "4/2", 2), ("stuck_at", "-7", -7), ("bitflip", "63", 63)],
    )
    def test_magnitude_strings_read_as_numbers(self, scenario_file, kind, text, magnitude):
        obj = base_scenario_obj(injections=[poison_injection_obj(kind=kind, magnitude=text)])
        (injection,) = load_scenario(scenario_file(obj)).injections
        assert injection.policy.deviation == DeviationModel(kind, magnitude)

    @pytest.mark.parametrize(
        "kind,text",
        [("offset", "1/0"), ("offset", "nan"), ("offset", "abc"), ("offset", "1" * 5000),
         ("offset", "1.5"), ("offset", "1e-999999999"), ("offset", " 1"), ("offset", "0"),
         ("scale", "2/2"), ("stuck_at", "1/2"), ("bitflip", "64")],
    )
    def test_bad_magnitude_string_exits_1(self, scenario_file, capsys, kind, text):
        obj = base_scenario_obj(injections=[poison_injection_obj(kind=kind, magnitude=text)])
        assert main(["run", "--config", scenario_file(obj)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "injections[0].policy.deviation" in captured.err
        assert "Traceback" not in captured.err

    def test_bool_magnitude_exits_1(self, scenario_file, capsys):
        path = scenario_file(base_scenario_obj(injections=[poison_injection_obj(magnitude=True)]))
        assert main(["run", "--config", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}.injections[0].policy.deviation: "
                                "offset magnitude must be a number, not bool\n")

    @pytest.mark.parametrize("magnitude,message", [
        (float("inf"), "must be finite"), (float("nan"), "must be finite"), ([1], "must be a number"),
    ], ids=["Infinity", "NaN", "list"])
    def test_non_finite_or_non_number_magnitude_exits_1(self, scenario_file, capsys, magnitude, message):
        path = scenario_file(base_scenario_obj(injections=[poison_injection_obj(magnitude=magnitude)]))
        assert main(["run", "--config", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}.injections[0].policy.deviation: offset magnitude {message}\n"

    @pytest.mark.parametrize("text", ["1/0", "nan", "abc", "1" * 5000])
    def test_unreadable_magnitude_names_its_field(self, scenario_file, text):
        obj = base_scenario_obj(injections=[poison_injection_obj(magnitude=text)])
        with pytest.raises(ScenarioError, match=r"injections\[0\]\.policy\.deviation\.magnitude: "):
            load_scenario(scenario_file(obj))


class TestRunCommand:
    def test_reference_scenario_prints_50_lines(self, scenario_file, capsys):
        path = scenario_file(base_scenario_obj())
        assert main(["run", "--config", path]) == EXIT_OK
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 50
        assert tuple(lines[:7]) == GOLDEN_PREFIX
        assert "snapshots: 50" in captured.err
        assert "convergence point: 0" in captured.err

    @pytest.mark.parametrize("source", ["poison_node0.json", "repeated multi-token lines"])
    def test_histogram_counts_every_snapshot(self, capsys, monkeypatch, source):
        """The summary's histogram counts each snapshot's tokens, a repeated line each time."""
        scenario = load_scenario(str(SCENARIOS / "poison_node0.json"))
        record = execute_scenario(scenario)
        if source != "poison_node0.json":
            lines = ["1,1,0", "1,1,1", "0,1,0", "1,1,0", "1,0,1", "1,1,1", "1,1,0"]
            record.snapshots = [SnapshotEvent(i, i % 3, line) for i, line in enumerate(lines)]
        histogram = Counter(token_count(s.line) for s in record.snapshots)
        assert any(count > 1 for count in Counter(s.line for s in record.snapshots).values())
        monkeypatch.setattr("poisonring.cli.execute_scenario", lambda scenario: record)
        assert main(["run", "--config", str(SCENARIOS / "poison_node0.json")]) == EXIT_OK
        expected = " ".join(f"{k}:{v}" for k, v in sorted(histogram.items()))
        assert f"\ntoken-count histogram: {expected}\n" in capsys.readouterr().err

    def test_zero_rounds_zero_lines(self, scenario_file, capsys):
        path = scenario_file(base_scenario_obj(ring={"node_count": 5, "k_states": 5, "rounds": 0}))
        assert main(["run", "--config", path]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_poisoned_scenario_reports_deviations(self, scenario_file, capsys):
        obj = base_scenario_obj(injections=[poison_injection_obj()])
        assert main(["run", "--config", scenario_file(obj)]) == EXIT_OK
        err = capsys.readouterr().err
        (stats_line,) = [l for l in err.splitlines() if l.startswith("deviation stats")]
        assert "deviations=0" not in stats_line
        assert "convergence point:" in err

    def test_quiet_silences_output(self, scenario_file, capsys):
        path = scenario_file(base_scenario_obj())
        assert main(["run", "--config", path, "--quiet"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_trace_flag_writes_jsonl(self, scenario_file, tmp_path, capsys):
        from poisonring import read_record

        trace = tmp_path / "trace.jsonl"
        path = scenario_file(base_scenario_obj())
        assert main(["run", "--config", path, "--trace", str(trace)]) == EXIT_OK
        capsys.readouterr()
        record = read_record(trace)
        assert len(record.snapshots) == 50
        assert record.final_statuses == [0, 0, 0, 0, 0]

    @pytest.mark.parametrize(
        "obj,named",
        [
            ({"ring": {"node_count": 5, "k_states": 4, "rounds": 1}},
             "k_states must be an integer in [5, "),
            (base_scenario_obj(ring={"node_count": 5, "k_states": 2**63, "rounds": 3}),
             "k_states"),
            # new_status 2**63 fits a K above int64, and that K is what is rejected.
            (base_scenario_obj(
                ring={"node_count": 5, "k_states": 2**64, "rounds": 3},
                injections=[{"kind": "perturb", "node": 0, "at_round": 0, "new_status": 2**63}],
            ), "k_states"),
            # Rejected before RingState could try to allocate its status list.
            (base_scenario_obj(ring={"node_count": 2**62, "k_states": INT64_MAX, "rounds": 1}),
             "node_count"),
        ],
        ids=["k_not_above_n", "k_above_int64", "new_status_above_int64", "node_count_huge"],
    )
    def test_bad_config_exits_1(self, scenario_file, capsys, obj, named):
        path = scenario_file(obj)
        assert main(["run", "--config", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert named in captured.err
        assert "Traceback" not in captured.err

    def test_k_at_int64_max_runs(self, scenario_file, tmp_path, capsys):
        from poisonring import read_record

        # Node 0 steps from INT64_MAX - 1: own + 1 reaches INT64_MAX and wraps to 0.
        obj = base_scenario_obj(
            ring={"node_count": 5, "k_states": INT64_MAX, "rounds": 3},
            injections=[{"kind": "perturb", "node": 0, "at_round": 0,
                         "new_status": INT64_MAX - 1}],
        )
        trace = tmp_path / "trace.jsonl"
        assert main(["run", "--config", scenario_file(obj), "--trace", str(trace)]) == EXIT_OK
        assert capsys.readouterr().out.count("\n") == 14
        events = read_record(trace).events
        assert any(e.op == "mod" and e.lhs_clean == INT64_MAX and e.clean_result == 0
                   for e in events)

    def test_interrupt_exits_130(self, scenario_file, capsys, monkeypatch):
        def interrupted(scenario):
            raise KeyboardInterrupt

        monkeypatch.setattr("poisonring.cli.execute_scenario", interrupted)
        try:
            code = main(["run", "--config", scenario_file(base_scenario_obj())])
        except KeyboardInterrupt:  # escaping, it would stop the whole test session
            pytest.fail("KeyboardInterrupt escaped main")
        assert code == EXIT_INTERRUPTED
        captured = capsys.readouterr()
        assert captured.err == "interrupted\n" and captured.out == ""

    def test_arithmetic_fault_exits_2(self, scenario_file, capsys):
        path = scenario_file(OVERFLOW_SCENARIO)
        assert main(["run", "--config", path]) == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "arithmetic fault: add deviation: result exceeds signed 64-bit range"
            " (step 23, node 0, round 1)\n")

    def test_a_sweep_fault_names_its_point_and_run_seed_replays_it(self, scenario_file, capsys):
        """A sweep's fault names the swept value and the rep's seed; run --seed at that point
        faults at the same step, node and round."""
        poison = poison_injection_obj(magnitude="9223372036854775807")
        obj = {"ring": {"node_count": 2, "k_states": 2, "rounds": 3}, "seed": 0,
               "injections": [poison]}
        sweep = ["sweep", "--param", "rate", "--values", "0.5", "--reps", "3"]
        assert main([*sweep, "--config", scenario_file(obj)]) == EXIT_RUNTIME
        fault = "add deviation: result exceeds signed 64-bit range (step 7, node 0, round 2)\n"
        assert capsys.readouterr().err == f"arithmetic fault: rate=0.5, seed 0: {fault}"
        poison["policy"]["effect"] = {"intermittent": 0.5}
        assert main(["run", "--config", scenario_file(obj), "--seed", "0"]) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"arithmetic fault: {fault}"

    @pytest.mark.parametrize("deviation", [{"kind": ["offset"], "magnitude": 1}, {}])
    def test_bad_deviation_kind_exits_1(self, scenario_file, capsys, deviation):
        obj = base_scenario_obj(injections=[poison_injection_obj()])
        obj["injections"][0]["policy"]["deviation"] = deviation
        assert main(["run", "--config", scenario_file(obj)]) == EXIT_CONFIG
        assert "injections[0].policy.deviation" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_flag_out_of_range_exits_1(self, scenario_file, capsys, seed):
        path = scenario_file(base_scenario_obj())
        assert main(["run", "--config", path, "--seed", seed]) == EXIT_CONFIG
        assert (f"--seed: seed must be an integer in [0, 18446744073709551615], got {seed}\n"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("quiet", [[], ["--quiet"]], ids=["loud", "quiet"])
    @pytest.mark.parametrize("name", ["missing_dir/x.jsonl", ""], ids=["missing-dir", "empty"])
    def test_unwritable_trace_path_exits_1(self, scenario_file, tmp_path, capsys, quiet, name):
        trace = str(tmp_path / name) if name else ""
        path = scenario_file(base_scenario_obj())
        assert main(["run", "--config", path, "--trace", trace, *quiet]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --trace: cannot write {trace!r}: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

    def test_usage_error_exits_1(self, capsys):
        assert main(["run"]) == EXIT_CONFIG
        assert "usage error" in capsys.readouterr().err

    def test_seed_flag_overrides_file(self, scenario_file, tmp_path, capsys):
        from poisonring import read_record

        obj = base_scenario_obj(injections=[poison_injection_obj(effect={"intermittent": 0.5})])
        path = scenario_file(obj)
        t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["run", "--config", path, "--trace", str(t1), "--quiet"])
        main(["run", "--config", path, "--seed", "7", "--trace", str(t2), "--quiet"])
        capsys.readouterr()
        assert read_record(t1).seed == 0
        assert read_record(t2).seed == 7


class TestScenarioSeed:
    def test_execute_scenario_runs_and_records_the_ring_seed(self):
        policy = make_policy(rate=0.5, infectious=True)
        injections = (Injection(node=0, at_round=0, policy=policy),)
        seeded = execute_scenario(Scenario(RingConfig(5, 5, 20, seed=7), injections))
        unseeded = execute_scenario(Scenario(RingConfig(5, 5, 20, seed=0), injections))
        assert seeded.seed == 7
        assert seeded.scenario_digest != unseeded.scenario_digest
        assert [s.line for s in seeded.snapshots] != [s.line for s in unseeded.snapshots]


class TestCheckCommand:
    def test_passes_against_builtin_scenario(self, capsys):
        assert main(["check"]) == EXIT_OK
        assert "7/7 golden lines match" in capsys.readouterr().err

    def test_mismatch_prints_first_differing_line(self, monkeypatch, capsys):
        wrong = ("0,1,0,0,0",) + GOLDEN_PREFIX[1:]
        monkeypatch.setattr("poisonring.cli.GOLDEN_PREFIX", wrong)
        assert cmd_check() == EXIT_CHECK_MISMATCH
        err = capsys.readouterr().err
        assert "mismatch at line 1" in err
        assert "expected 0,1,0,0,0 got 1,0,0,0,0" in err

    def test_compare_golden_reports_missing_lines(self):
        assert compare_golden([]) == (0, "1,0,0,0,0", None)
        assert compare_golden(list(GOLDEN_PREFIX)) is None
        mangled = list(GOLDEN_PREFIX)
        mangled[3] = "1,1,1,1,1"
        assert compare_golden(mangled) == (3, "0,0,0,1,0", "1,1,1,1,1")

    def test_catches_snapshot_after_transition_bug(self):
        # A variant that prints after the status change diverges on line 1.
        lines = _buggy_ring_lines(snapshot_after=True)
        mismatch = compare_golden(lines)
        assert mismatch is not None and mismatch[0] == 0
        assert lines[0] == "0,1,0,0,0"

    def test_catches_wrong_left_neighbor_bug(self):
        lines = _buggy_ring_lines(right_as_left=True)
        assert compare_golden(lines) is not None


def _buggy_ring_lines(snapshot_after=False, right_as_left=False, rounds=10):
    """Local mis-implementations of the ring, used to prove check discriminates."""
    statuses = [0] * 5
    step = -1 if right_as_left else 1

    def left(i):
        return statuses[(i - step) % 5]

    def snapshot():
        flags = []
        for i in range(5):
            hit = left(i) == statuses[i] if i == 0 else left(i) != statuses[i]
            flags.append("1" if hit else "0")
        return ",".join(flags)

    lines = []
    for _ in range(rounds):
        for i in range(5):
            fires = left(i) == statuses[i] if i == 0 else left(i) != statuses[i]
            if fires:
                if not snapshot_after:
                    lines.append(snapshot())
                statuses[i] = (statuses[i] + 1) % 5 if i == 0 else left(i)
                if snapshot_after:
                    lines.append(snapshot())
    return lines


class TestSweepCommand:
    def _sweep_args(self, path, param="rate", values="0.1,0.5", reps="20"):
        return ["sweep", "--config", path, "--param", param, "--values", values, "--reps", reps]

    def test_two_values_two_rows(self, scenario_file, capsys):
        obj = base_scenario_obj(injections=[poison_injection_obj(effect={"intermittent": 0.5})])
        path = scenario_file(obj)
        assert main(self._sweep_args(path)) == EXIT_OK
        table = capsys.readouterr().out.splitlines()
        assert len(table) == 3  # header + one row per value
        assert table[0].split() == ["value", "runs", "converged", "mean_cp", "max_cp", "mean_dev_rate"]
        assert table[1].split()[0] == "0.1"
        assert table[2].split()[0] == "0.5"
        assert table[1].split()[1] == "20"

    def test_rate_ordering_shows_in_mean_deviation(self, scenario_file, capsys):
        obj = base_scenario_obj(injections=[poison_injection_obj(effect={"intermittent": 0.5})])
        path = scenario_file(obj)
        assert main(self._sweep_args(path, values="0.1,0.5", reps="20")) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        rate_low = float(rows[0].split()[-1])
        rate_high = float(rows[1].split()[-1])
        assert rate_low < rate_high

    def test_transient_uses_param(self, scenario_file, capsys):
        obj = base_scenario_obj(
            injections=[poison_injection_obj(lifetime={"transient": 1})]
        )
        path = scenario_file(obj)
        assert main(self._sweep_args(path, param="transient_uses", values="1,4", reps="5")) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [r.split()[0] for r in rows] == ["1", "4"]

    def test_empty_values_rejected(self, scenario_file, capsys):
        obj = base_scenario_obj(injections=[poison_injection_obj()])
        path = scenario_file(obj)
        assert main(self._sweep_args(path, values=" ")) == EXIT_CONFIG
        assert "no values" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_reps_below_one_rejected(self, scenario_file, capsys, reps):
        path = scenario_file(base_scenario_obj(injections=[poison_injection_obj()]))
        assert main(self._sweep_args(path, reps=reps)) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --reps must be at least 1\n"

    def test_unused_poison_has_no_rate(self, scenario_file, capsys):
        # Injected at the last round, the poison is never used: no rate, not a rate of 0.
        obj = base_scenario_obj(injections=[poison_injection_obj(at_round=10)])
        path = scenario_file(obj)
        assert main(["run", "--config", path]) == EXIT_OK
        assert "deviation stats: uses=0 deviations=0 rate=-\n" in capsys.readouterr().err
        assert main(self._sweep_args(path, reps="3")) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[-1] for row in rows] == ["-", "-"]

    def test_not_applicable_without_poison_injection(self, scenario_file, capsys):
        path = scenario_file(base_scenario_obj())
        assert main(self._sweep_args(path)) == EXIT_CONFIG
        assert "not applicable" in capsys.readouterr().err

    # named: the start of the error line after "error: --values: ", up to the message.
    @pytest.mark.parametrize(
        "param,values,named",
        [("transient_uses", "2,0", "transient_uses=0"), ("rate", "0.5,1.5", "rate=1.5"),
         ("rate", '"0.5"', 'rate="0.5": <scenario>.injections[0].policy'),
         ("rate", "null", "rate=null: <scenario>.injections[0].policy.effect"),
         ("transient_uses", "3.0", "transient_uses=3.0: <scenario>.injections[0].policy"),
         ("transient_uses", "true", "transient_uses=true: <scenario>.injections[0].policy"),
         # A comma inside brackets, braces or a string does not end a value.
         ("rate", "0.5,[0.5,0.6]", "rate=[0.5,0.6]: <scenario>.injections[0].policy"),
         ("rate", "[1,2]", "rate=[1,2]: <scenario>.injections[0].policy"),
         ("transient_uses", '{"a":1,"b":2}',
          'transient_uses={"a":1,"b":2}: <scenario>.injections[0].policy'),
         ("transient_uses", '"a,b"', 'transient_uses="a,b": <scenario>.injections[0].policy'),
         ("rate", '0.5, "a,b"', 'rate="a,b": <scenario>.injections[0].policy')],
    )
    def test_bad_value_prints_no_table(self, scenario_file, capsys, param, values, named):
        obj = base_scenario_obj(injections=[poison_injection_obj(lifetime={"transient": 1})])
        path = scenario_file(obj)
        assert main(self._sweep_args(path, param=param, values=values, reps="2")) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --values: {named}: ")
        assert captured.err.count("\n") == 1

    # at: the character index within the --values text that the error names; the
    # length of the text when the text ends too soon, and a stray "]" itself. From
    # Python 3.13 the decoder names a trailing comma itself.
    @pytest.mark.parametrize(
        "values,at",
        [(".5", 0), ("1_0", 1), ("abc", 0), ("1\n2", 2), ("[1,2", 5), ("0.1,,0.5", 4),
         ("0.1,", 3 if sys.version_info >= (3, 13) else 4),
         ("1]", 1), ("1] 2", 1), ("[1]] ", 3)],
    )
    def test_invalid_json_names_its_character(self, scenario_file, capsys, values, at):
        path = scenario_file(base_scenario_obj(injections=[poison_injection_obj()]))
        assert main(self._sweep_args(path, values=values, reps="2")) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --values: invalid JSON at character {at}: ")
        assert captured.err.count("\n") == 1
        if values[at:at + 1] == "]":
            assert captured.err.endswith(f"character {at}: unmatched ']'\n")

    def test_deeply_nested_value_is_a_config_error(self, scenario_file, capsys):
        # Near the recursion limit a value fails to decode; just below it, it decodes
        # yet can be too deep to write back or for the repr in its error message.
        path = scenario_file(base_scenario_obj(injections=[poison_injection_obj()]))
        limit = sys.getrecursionlimit()
        for depth in range(limit - 300, limit + 1):
            entry = "[" * depth + "]" * depth
            assert main(self._sweep_args(path, values=entry, reps="1")) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith((
                "error: --values: rate=[[",
                "error: --values: invalid JSON: maximum recursion depth exceeded"))
            assert captured.err.count("\n") == 1

    def test_rate_is_set_on_every_poison_injection(self, scenario_file, capsys):
        injections = [
            poison_injection_obj(node=0, lifetime={"transient": 6}),
            poison_injection_obj(node=3, at_round=2, effect={"intermittent": 0.9}),
            {"kind": "perturb", "node": 2, "at_round": 1, "new_status": 3},
        ]
        path = scenario_file(base_scenario_obj(seed=11, injections=injections))
        assert main(self._sweep_args(path, values="0.3", reps="3")) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split()

        def by_hand(injections):
            edited = copy.deepcopy(injections)
            for injection in edited[:2]:
                injection["policy"]["effect"] = {"intermittent": 0.3}
            scenario = parse_scenario(base_scenario_obj(seed=11, injections=edited))
            points, rates = [], []
            for seed in (11, 12, 13):
                record = execute_scenario(dataclasses.replace(
                    scenario, ring=dataclasses.replace(scenario.ring, seed=seed)))
                points.append(convergence_point(record))
                rates.append(deviation_stats(record).rate)
            converged = [p for p in points if p is not None]
            return ["0.3", "3", str(len(converged)),
                    f"{sum(converged) / len(converged):.2f}" if converged else "-",
                    str(max(converged)) if converged else "-", f"{sum(rates) / 3:.4f}"]

        assert row == by_hand(injections)
        assert row != by_hand(injections[:2])  # the perturb, kept as it was, shows in the row

    def test_unknown_param_rejected(self, scenario_file, capsys):
        obj = base_scenario_obj(injections=[poison_injection_obj()])
        path = scenario_file(obj)
        assert main(self._sweep_args(path, param="voltage")) == EXIT_CONFIG
        assert "--param" in capsys.readouterr().err

    def test_unknown_param_named_before_values_are_read(self, scenario_file, capsys):
        path = scenario_file(base_scenario_obj(injections=[poison_injection_obj()]))
        assert main(self._sweep_args(path, param="voltage", values="abc")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --param: invalid choice: ")
        assert err.count("\n") == 1


class TestSubprocessDeterminism:
    def _invoke(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "poisonring", *args],
            capture_output=True,
            env=subprocess_env(),
            timeout=120,
        )

    def test_byte_identical_traces_and_stdout(self, scenario_file, tmp_path):
        obj = base_scenario_obj(
            seed=31,
            injections=[
                poison_injection_obj(effect={"intermittent": 0.5}, lifetime={"transient": 9}),
                {"kind": "perturb", "node": 2, "at_round": 1, "new_status": 3},
            ],
        )
        path = scenario_file(obj)
        t1, t2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        r1 = self._invoke("run", "--config", path, "--trace", str(t1))
        r2 = self._invoke("run", "--config", path, "--trace", str(t2))
        assert r1.returncode == r2.returncode == EXIT_OK
        assert r1.stdout == r2.stdout
        assert t1.read_bytes() == t2.read_bytes()

    @pytest.mark.parametrize(
        "args",
        [["run", "--config", "big.json"],
         ["sweep", "--config", "big.json", "--param", "rate", "--values", "0.5", "--reps", "1"]],
        ids=["run", "sweep"],
    )
    def test_closed_stdout_exits_quietly(self, tmp_path, args):
        # 2,000 rounds print far more lines than a pipe buffer holds.
        obj = base_scenario_obj(ring={"node_count": 5, "k_states": 5, "rounds": 2000},
                                injections=[poison_injection_obj(effect={"intermittent": 0.5})])
        (tmp_path / "big.json").write_text(json.dumps(obj), encoding="utf-8")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run([sys.executable, "-m", "poisonring", *args], cwd=tmp_path,
                                    stdout=write_end, stderr=subprocess.PIPE,
                                    env=subprocess_env(), timeout=120)
        finally:
            os.close(write_end)
        assert result.returncode == EXIT_BROKEN_PIPE
        assert result.stderr == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "args",
        [["run", "--config", "small.json"],
         ["sweep", "--config", "small.json", "--param", "rate", "--values", "0.5", "--reps", "1"]],
        ids=["run", "sweep"],
    )
    def test_full_stdout_exits_1(self, tmp_path, args):
        obj = base_scenario_obj(injections=[poison_injection_obj(effect={"intermittent": 0.5})])
        (tmp_path / "small.json").write_text(json.dumps(obj), encoding="utf-8")
        with open("/dev/full", "w") as full:
            result = subprocess.run([sys.executable, "-m", "poisonring", *args], cwd=tmp_path,
                                    stdout=full, stderr=subprocess.PIPE,
                                    env=subprocess_env(), timeout=120)
        assert result.returncode == EXIT_CONFIG
        assert result.stderr.startswith(b"error: cannot write stdout: ")
        assert result.stderr.count(b"\n") == 1  # one line, no traceback

    def test_console_check_passes(self):
        result = self._invoke("check")
        assert result.returncode == EXIT_OK
        assert b"golden lines match" in result.stderr

    @pytest.mark.parametrize("entry", ["poisonring", "poisonring.cli"])
    def test_module_entry_checks_clean(self, entry):
        """Both module entries run `check` in dev mode with warnings as errors: the package
        does not import its CLI, so runpy finds no earlier copy of poisonring.cli."""
        result = subprocess.run([sys.executable, "-m", entry, "check"], capture_output=True,
                                env=subprocess_env(), timeout=120)
        assert result.returncode == EXIT_OK, result.stderr
        assert result.stderr == b"check: 7/7 golden lines match\n"


# A fixed pool of replacement leaves. It holds no huge positive ints: an
# accepted rounds of 10**20 runs for ever.
FUZZ_POOL = (True, False, None, -1, 0, 1, 2, 7, 64, float("nan"), 0.5, "", "offset",
             "deterministic", "5/2", "1/0", [], {})
_DELETE = object()


def _paths(node, prefix=()):
    """Every key or index path below node."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(obj, path, value):
    *parents, last = path
    for key in parents:
        obj = obj[key]
    if value is _DELETE:
        del obj[last]
    else:
        obj[last] = copy.deepcopy(value)


FUZZ_BASE = json.loads((SCENARIOS / "poison_node0.json").read_text(encoding="utf-8"))
FUZZ_PATHS = sorted(_paths(FUZZ_BASE), key=repr)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(FUZZ_PATHS), st.sampled_from(FUZZ_POOL + (_DELETE,))),
                min_size=1, max_size=2))
def test_fuzzed_scenario_ends_in_an_exit_code(tmp_path_factory, mutations):
    """Any one or two mutations of a shipped scenario give exit code 0-3, never a raise."""
    obj = copy.deepcopy(FUZZ_BASE)
    for path, value in mutations:
        with contextlib.suppress(KeyError, IndexError, TypeError):
            _mutate(obj, path, value)
    config = tmp_path_factory.getbasetemp() / "fuzzed_scenario.json"
    config.write_text(json.dumps(obj), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", "--config", str(config), "--quiet"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME, EXIT_CHECK_MISMATCH)


VALUES_POOL = ("0.5", ".5", "1_0", "nan", "NaN", "Infinity", "1e999", "null", "true", "[1]",
               "{}", '"0.5"', "-1", "0", "9" * 5000, "[1,2]", '{"a":1,"b":2}', '"a,b"',
               "", " \t", "0.5,")


def _json_or_none(piece):
    """[value] for a piece that is JSON, so that a JSON null is not taken for None."""
    try:
        return [json.loads(piece)]
    except ValueError:
        return None


@given(st.text(alphabet=st.sampled_from(list("0123456789.,-+e \t\nabc:")), max_size=40))
def test_plain_values_split_as_a_comma_list(text):
    """Without brackets, braces or quotes, the values are the comma-separated pieces, each
    JSON; one piece that is not JSON makes the whole text one invalid-JSON error."""
    pieces = [_json_or_none(piece) for piece in text.split(",")]
    if text.strip() and all(pieces):
        assert _sweep_values(text) == [value for (value,) in pieces]
    elif text.strip():
        with pytest.raises(ScenarioError, match=r"\A--values: invalid JSON at character \d+: [^\n]*\Z"):
            _sweep_values(text)
    else:
        assert _sweep_values(text) == []


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@given(st.lists(_json_values, min_size=1, max_size=4), st.integers(0, 4))
def test_json_values_are_never_cut(values, bad_at):
    """Whole JSON values joined by commas come back as the same values, whatever commas
    they hold; one piece that is not JSON among them makes the text one config error."""
    texts = [json.dumps(value) for value in values]
    assert _sweep_values(",".join(texts)) == values
    assert _sweep_values(" , ".join(texts)) == values
    texts.insert(min(bad_at, len(texts)), ".5")
    with pytest.raises(ScenarioError, match=r"\A--values: invalid JSON at character \d+: [^\n]*\Z"):
        _sweep_values(",".join(texts))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["rate", "transient_uses"]),
       st.lists(st.sampled_from(VALUES_POOL), min_size=1, max_size=2))
def test_fuzzed_sweep_values_end_in_an_exit_code(param, entries):
    """Any one or two --values entries give exit 0, or exit 1 with one stderr line and no table."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sweep", "--config", str(SCENARIOS / "poison_node0.json"), "--param", param,
                     "--values", ",".join(entries), "--reps", "1"])
    assert code in (EXIT_OK, EXIT_CONFIG)
    if code == EXIT_CONFIG:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
