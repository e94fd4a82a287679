"""Ring protocol behavior: golden trace, guards, perturbation, convergence."""

from collections import Counter, deque
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_monitoring_neutral, make_policy, run_outcome, scalar_states
from monitor_reference import reference_out, reference_run as reference_loop
from ring_oracle import reference_convergence_point, reference_run

from poisonring import (
    ArithmeticFault,
    EvalContext,
    Injection,
    PoisonedScalar,
    RingConfig,
    RingState,
    RunRecord,
    Scenario,
    ScenarioError,
    SnapshotEvent,
    convergence_point,
    is_legitimate,
    is_poisoned,
    make_poisoned,
    run,
    token_count,
)
from poisonring import _kernel, ring_sim
from poisonring._kernel import INT64_MAX, INT64_MIN, stream_seed
from poisonring.cli import load_scenario
from poisonring.ring_sim import MAX_NODES, has_privilege, out, update

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

GOLDEN = [
    "1,0,0,0,0",
    "0,1,0,0,0",
    "0,0,1,0,0",
    "0,0,0,1,0",
    "0,0,0,0,1",
    "1,0,0,0,0",
    "0,1,0,0,0",
]


class TestRingConfig:
    def test_k_must_exceed_n(self):
        message = rf"^k_states must be an integer in \[5, {INT64_MAX}\], got 4$"
        with pytest.raises(ScenarioError, match=message):
            RingConfig(node_count=5, k_states=4, rounds=10)

    @pytest.mark.parametrize(
        "args",
        [(True, 5, 10, 0), (5, True, 10, 0), (5, 5, True, 0), (5, 5, 10, True),
         (5.0, 5, 10, 0), (5, "5", 10, 0), (5, 5, None, 0), (5, 5, 10, -1), (5, 5, 10, 2**64),
         (5, 2**63, 10, 0), (MAX_NODES + 1, MAX_NODES + 1, 10, 0)],
    )
    def test_rejects_non_int_fields(self, args):
        with pytest.raises(ScenarioError):
            RingConfig(*args)

    def test_max_nodes_accepted(self):
        # A RingConfig allocates nothing; only RingState holds a status per node.
        RingConfig(MAX_NODES, MAX_NODES, 0)

    def test_minimum_sizes(self):
        RingConfig(node_count=1, k_states=1, rounds=0)
        with pytest.raises(ScenarioError):
            RingConfig(node_count=0, k_states=5, rounds=10)
        with pytest.raises(ScenarioError):
            RingConfig(node_count=5, k_states=5, rounds=-1)


class TestRingState:
    @pytest.mark.parametrize(
        "node_count,k_states",
        [*(pytest.param(n, MAX_NODES + 2, id=str(n)) for n in [0, -1, True, 2.0, MAX_NODES + 1]),
         *(pytest.param(5, k, id=f"k_states={k!r}") for k in [0, -3, True, "5", 2**64, 4, 3]),
         pytest.param(1, 0, id="one_node_k_states=0")],
    )
    def test_rejects_what_ring_config_rejects(self, node_count, k_states):
        # An empty ring has no node 0 whose left neighbour out could read, and
        # K <= N - 1 (K = 0 included) breaks the protocol before its first mod.
        with pytest.raises(ScenarioError) as from_state:
            RingState(node_count, k_states)
        with pytest.raises(ScenarioError) as from_config:
            RingConfig(node_count, k_states, 0)
        assert str(from_state.value) == str(from_config.value)


@pytest.mark.parametrize("node", [-1, 5, "2", True], ids=["minus-1", "N", "str", "bool"])
@pytest.mark.parametrize("name", ["run", "Scenario"])
def test_node_out_of_range_is_a_scenario_error(ctx, name, node):
    """A status is written only through an Injection, which builds whatever its node: the node
    is checked once, against the ring, when the scenario is built, before run takes any step."""
    config = RingConfig(5, 5, 2)
    call = {"run": lambda: run(config, [Injection(node, 1, new_status=1)], ctx),
            "Scenario": lambda: Scenario(config, [Injection(node, 1, new_status=1)])}[name]
    with pytest.raises(ScenarioError) as excinfo:
        call()
    got = node if type(node) is int else type(node).__name__
    assert str(excinfo.value) == f"injections[0].node must be an integer in [0, 4], got {got}"
    assert ctx.event_sink == [] and ctx.step_counter == 0 and ctx.suppression_depth == 0


class TestHasPrivilege:
    def test_all_zero_ring(self, ctx):
        state = RingState(5, 5)
        assert has_privilege(state, 0, ctx) is True
        assert has_privilege(state, 2, ctx) is False

    def test_single_node_ring_is_its_own_left(self, ctx):
        state = RingState(1, 1)
        assert has_privilege(state, 0, ctx) is True

    def test_runs_fully_suppressed(self, ctx):
        """On a poisoned ring each guard reads the clean statuses, counts one step and
        records nothing; no draw is made and no use spent."""
        state = RingState(5, 5)
        state.statuses[0] = make_poisoned(0, make_policy(rate=0.5, uses=3), 0, seed=1)
        before = scalar_states(state.statuses)
        flags = ["1" if has_privilege(state, node, ctx) else "0" for node in range(5)]
        assert ",".join(flags) == "1,0,0,0,0"
        assert ctx.event_sink == [] and ctx.step_counter == 5
        assert scalar_states(state.statuses) == before


class TestOut:
    def test_all_zero(self, ctx):
        assert out(RingState(5, 5), ctx) == "1,0,0,0,0"

    def test_single_node(self, ctx):
        assert out(RingState(1, 1), ctx) == "1"

    def test_after_node0_fired(self):
        _, snapshots = run(RingConfig(5, 5, 1), [Injection(0, 0, new_status=1)])
        assert snapshots[0] == SnapshotEvent(0, 1, "0,1,0,0,0")

    @pytest.fixture
    def monitor_calls(self, monkeypatch):
        """Names of the binop, clean_binop and suppression() calls made after setup."""
        calls = []

        def counted(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)
            return wrapper

        monkeypatch.setattr(ring_sim, "binop", counted("binop", ring_sim.binop))
        monkeypatch.setattr(_kernel, "clean_binop", counted("clean_binop", _kernel.clean_binop))
        monkeypatch.setattr(EvalContext, "suppression", counted("scope", EvalContext.suppression))
        return calls

    def test_discarding_sink_makes_no_monitoring_op(self, monitor_calls):
        ctx = EvalContext(event_sink=deque(maxlen=0))
        ctx.step_counter = 7
        state, _ = run(RingConfig(5, 5, 0), [Injection(i, 0, new_status=v)
                                              for i, v in enumerate([3, 1, 4, 1, 1])])
        assert out(state, ctx) == "0,1,1,1,0"
        assert monitor_calls == []
        assert ctx.step_counter == 7 + 5

    def test_list_sink_makes_no_monitoring_op(self, monitor_calls):
        ctx = EvalContext()
        ctx.step_counter = 7
        # Node 2 is poisoned at its clean 0: the statuses read [3, 1, 0, 1, 1].
        injections = [Injection(2, 0, policy=make_policy())]
        injections += [Injection(i, 0, new_status=v) for i, v in ((0, 3), (1, 1), (3, 1), (4, 1))]
        state, _ = run(RingConfig(5, 5, 0), injections)
        assert out(state, ctx) == "0,1,1,1,0"
        assert monitor_calls == []
        # The line is the monitor's record: the sink gets no event, the five guards' steps count.
        assert ctx.event_sink == []
        assert ctx.step_counter == 7 + 5


class TestUpdate:
    def test_node0_fires_from_all_zero(self, ctx):
        state = RingState(5, 5)
        snapshots = []
        update(state, 0, ctx, snapshots)
        assert [s.line for s in snapshots] == ["1,0,0,0,0"]
        assert state.statuses[0] == 1

    def test_then_node1_fires(self, ctx):
        state = RingState(5, 5)
        snapshots = []
        update(state, 0, ctx, snapshots)
        update(state, 1, ctx, snapshots)
        assert snapshots[1].line == "0,1,0,0,0"
        assert snapshots[1].firing_node == 1
        assert state.statuses[1] == 1

    def test_false_guard_changes_nothing(self, ctx):
        state = RingState(5, 5)
        snapshots = []
        update(state, 3, ctx, snapshots)  # L == S, non-zero rule does not fire
        assert snapshots == []
        assert state.statuses == [0, 0, 0, 0, 0]

    def test_node0_increment_wraps_modulo_k(self, ctx):
        state = RingState(5, 5)
        state.statuses = [4, 4, 4, 4, 4]
        update(state, 0, ctx, [])
        assert state.statuses[0] == 0

    @pytest.mark.parametrize("own_form", ["int", "poisoned"])
    @pytest.mark.parametrize("left_form", ["int", "poisoned"])
    @pytest.mark.parametrize("node", [0, 1])
    def test_discarding_sink_matches_the_list_sink(self, node, left_form, own_form):
        """With a discarding sink update takes exact-int guards and node 0's step without binop;
        whatever form the two statuses it reads take, it fires, writes and counts as binop does."""
        def status(form, value):
            if form == "int":
                return value
            return make_poisoned(value, make_policy(rate=0.5, infectious=True), 0, seed=value + 5)

        fired = 0
        for left, own in ((0, 0), (1, 0), (2, 2), (0, 2)):
            seen = []
            for sink in ([], deque(maxlen=0)):
                state = RingState(2, 3)
                state.statuses[node - 1] = status(left_form, left)
                state.statuses[node] = status(own_form, own)
                state.round_index = 4
                ctx = EvalContext(event_sink=sink)
                snapshots = []
                update(state, node, ctx, snapshots)
                fires = [(s.round, s.firing_node) for s in snapshots]
                seen.append((fires, scalar_states(state.statuses), ctx.step_counter))
            assert seen[0] == seen[1]
            fired += len(seen[0][0])
        assert fired > 0


class TestPerturb:
    def test_sets_clean_status(self):
        state, _ = run(RingConfig(5, 5, 0), [Injection(2, 0, new_status=3)])
        assert state.statuses == [0, 0, 3, 0, 0]

    def test_token_count_multiplies(self):
        _, snapshots = run(RingConfig(5, 5, 1), [Injection(2, 0, new_status=3)])
        assert snapshots[0] == SnapshotEvent(0, 0, "1,0,1,1,0")
        assert token_count(snapshots[0].line) == 3

    def test_clears_poison(self):
        injections = [Injection(2, 0, policy=make_policy()), Injection(2, 1, new_status=1)]
        state, _ = run(RingConfig(5, 5, 1), injections)
        assert type(state.statuses[2]) is int and state.statuses[2] == 1


class TestPropagation:
    def test_copies_share_one_scalar_and_children_start_with_full_lifetime(self, ctx):
        policy = make_policy(uses=50, infectious=True)
        # Deterministic deviation flips node 0's eq guard, so node 0 keeps the
        # injected scalar and every other node copies it from its left.
        state, _ = run(RingConfig(5, 5, 1), [Injection(0, 0, policy=policy)])
        shared = state.statuses[0]
        assert all(status is shared for status in state.statuses)
        assert shared.uses_remaining == 45  # one counter: one guard use per node
        # With node 4 clean at 1 the flipped guard lets node 0 fire. Its new status,
        # the infected result of (parent + 1) % 5, starts at policy.uses, not at
        # the 48 uses its parent has left.
        state = RingState(5, 5)
        parent = make_poisoned(0, policy, 0, seed=0)
        state.statuses[0], state.statuses[4] = parent, 1
        update(state, 0, ctx, [])
        assert parent.uses_remaining == 48  # the guard and the add
        assert state.statuses[0] is not parent
        assert state.statuses[0].uses_remaining == policy.uses == 50


class TestRun:
    def test_reproduces_golden_prefix(self):
        _, snapshots = run(RingConfig(5, 5, 10))
        lines = [s.line for s in snapshots]
        assert lines[:7] == GOLDEN
        assert len(lines) == 50

    def test_zero_rounds(self):
        _, snapshots = run(RingConfig(5, 5, 0))
        assert snapshots == []

    def test_fault_free_closure(self):
        _, snapshots = run(RingConfig(5, 5, 10))
        assert all(is_legitimate(s.line) for s in snapshots)

    def test_perturbed_run_matches_oracle(self):
        initial = [3, 1, 4, 1, 2]
        injections = [
            Injection(node=i, at_round=0, new_status=v) for i, v in enumerate(initial)
        ]
        state, snapshots = run(RingConfig(5, 5, 10), injections)
        expected_final, expected_lines = reference_run(5, 5, 10, initial)
        assert [s.line for s in snapshots] == expected_lines
        assert state.clean_statuses() == expected_final
        record = RunRecord("", 0, snapshots=snapshots)
        point = convergence_point(record)
        assert point == reference_convergence_point(expected_lines) == 3  # frozen

    def test_injection_schedule_keeps_scenario_order(self):
        """An injection's origin_id is its index in the scenario, whatever its round:
        two injections in one round keep theirs by position, and one at at_round ==
        rounds is applied after the last round, so no operator ever reads it."""
        config = RingConfig(3, 4, rounds=2, seed=7)
        policy = make_policy()  # deterministic: no draw moves a stream
        mid_run = (Injection(0, 0, new_status=3), Injection(1, 1, policy=policy))
        injections = (Injection(2, 2, policy=policy), mid_run[0],
                      Injection(0, 2, policy=policy), mid_run[1])
        ctx = EvalContext()
        state, snapshots = run(config, injections, ctx)
        assert state.round_index == config.rounds
        for node, origin_id in ((2, 0), (0, 2)):
            scalar = state.statuses[node]
            assert (scalar.origin_id, scalar.rng_state) == (origin_id, stream_seed(7, origin_id))
        assert {e.origin_id for e in ctx.event_sink} == {None, 3}
        unread_state, unread_snapshots = run(config, mid_run)
        assert snapshots == unread_snapshots
        assert state.clean_statuses() == unread_state.clean_statuses()

    def test_conflicting_injections_rejected(self):
        injections = [
            Injection(node=1, at_round=0, new_status=1),
            Injection(node=1, at_round=0, new_status=2),
        ]
        with pytest.raises(ScenarioError, match="conflicting"):
            run(RingConfig(5, 5, 10), injections)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"node": True, "at_round": 0, "new_status": 1},
            {"node": 0, "at_round": False, "new_status": 1},
            {"node": 0, "at_round": 0, "new_status": True},
            {"node": 0, "at_round": 0, "new_status": 1.0},
            {"node": -1, "at_round": 0, "new_status": 1},
            {"node": 0, "at_round": 0, "policy": "deterministic"},
            {"node": 0, "at_round": 0},
        ],
    )
    def test_injection_rejects_bad_values(self, kwargs):
        """An Injection checks its shape when built, and a Scenario its numbers."""
        with pytest.raises(ScenarioError):
            Scenario(RingConfig(5, 5, 10), [Injection(**kwargs)])

    def test_scenario_names_the_entry(self):
        config = RingConfig(5, 5, 10)
        ok = Injection(node=1, at_round=0, new_status=1)
        Scenario(config, [ok, Injection(node=2, at_round=0, new_status=1)])
        cases = [
            (Injection(node=5, at_round=0, new_status=1),
             r"^injections\[1\]\.node must be an integer in \[0, 4\], got 5$"),
            (Injection(node=1, at_round=11, new_status=1),
             r"^injections\[1\]\.at_round must be an integer in \[0, 10\], got 11$"),
            (Injection(node=2, at_round=0, new_status=5),
             r"^injections\[1\]\.new_status must be an integer in \[0, 4\], got 5$"),
            (Injection(node=1, at_round=0, new_status=2), r"^injections\[1\]: conflicting .*injections\[0\]"),
            ("not an injection", r"^injections\[1\]: "),
        ]
        for second, message in cases:
            with pytest.raises(ScenarioError, match=message):
                Scenario(config, [ok, second])

    @pytest.mark.parametrize("config", ["x", None, (5, 5, 10)], ids=["str", "none", "tuple"])
    def test_config_must_be_a_ring_config(self, config):
        message = rf"^config must be a RingConfig, got {type(config).__name__}$"
        for call in (lambda: run(config), lambda: Scenario(ring=config)):
            with pytest.raises(ScenarioError, match=message):
                call()

    def test_injections_are_any_iterable(self):
        config = RingConfig(5, 5, 10, seed=3)
        injections = (Injection(1, 0, new_status=3),
                      Injection(0, 2, policy=make_policy(rate=0.5, uses=3)))
        outcomes = []
        for given in (injections, list(injections), (inj for inj in injections)):
            ctx = EvalContext()
            state, snapshots = run(config, given, ctx)
            outcomes.append((snapshots, state.clean_statuses(), ctx.event_sink))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        as_list, as_tuple = Scenario(config, list(injections)), Scenario(config, injections)
        assert as_list.injections == injections
        assert as_list == as_tuple and hash(as_list) == hash(as_tuple)
        for call in (lambda: Scenario(config, injections=5), lambda: run(config, 5)):
            with pytest.raises(ScenarioError, match=r"^injections must be iterable, got int$"):
                call()

    def test_injection_bounds_checked(self):
        with pytest.raises(ScenarioError, match=r"node must be an integer in \[0, 4\], got 9$"):
            run(RingConfig(5, 5, 10), [Injection(node=9, at_round=0, new_status=1)])
        with pytest.raises(ScenarioError, match=r"at_round must be an integer in \[0, 10\], got 11"):
            run(RingConfig(5, 5, 10), [Injection(node=1, at_round=11, new_status=1)])
        with pytest.raises(ScenarioError, match="new_status"):
            run(RingConfig(5, 5, 10), [Injection(node=1, at_round=0, new_status=7)])

    def test_event_steps_strictly_increase(self):
        config = RingConfig(5, 5, 5)
        ctx = EvalContext()
        run(config, [], ctx)
        # Each guard that returns True is followed by out's N counted, unrecorded steps.
        steps = []
        for event in ctx.event_sink:
            steps.append(event.step)
            if event.op in _kernel.COMPARISONS and event.emitted_result is True:
                steps += range(event.step + 1, event.step + 1 + config.node_count)
        assert steps == list(range(ctx.step_counter))

    def test_determinism_same_seed(self):
        def once():
            ctx = EvalContext()
            injections = [
                Injection(node=0, at_round=0, policy=make_policy(rate=0.5, infectious=True)),
                Injection(node=3, at_round=2, new_status=2),
            ]
            state, snapshots = run(RingConfig(5, 5, 12, seed=123), injections, ctx)
            return state.clean_statuses(), [s.line for s in snapshots], ctx.event_sink

        assert once() == once()

    def test_arithmetic_fault_carries_node_and_round(self):
        """run names the node and round of a fault raised in update, alike on both sinks: the
        ring of test_cli's OVERFLOW_SCENARIO overflows node 0's add in round 1."""
        policy = make_policy(kind="scale", magnitude=9_000_000_000_000_000_000, infectious=True)
        injections = [Injection(0, 0, policy=policy), Injection(4, 0, new_status=1)]
        faults = []
        for sink in ([], deque(maxlen=0)):
            ctx = EvalContext(event_sink=sink)
            with pytest.raises(ArithmeticFault) as raised:
                run(RingConfig(5, 5, 12), injections, ctx)
            exc = raised.value
            faults.append((str(exc), exc.step, exc.node, exc.round_index, ctx.step_counter))
        assert faults[0] == faults[1]
        assert faults[0][:4] == ("add deviation: result exceeds signed 64-bit range"
                                 " (step 23, node 0, round 1)", 23, 0, 1)

    def test_poisoned_guard_blocks_node0(self):
        # Deterministic negation: node 0's true guard is emitted false, so it
        # never fires; its poisoned status freezes and the wave stalls at 0.
        ctx = EvalContext()
        injections = [Injection(node=0, at_round=0, policy=make_policy(infectious=True))]
        _, snapshots = run(RingConfig(5, 5, 3, seed=0), injections, ctx)
        assert all(s.firing_node != 0 for s in snapshots)
        poisoned_uses = [e for e in ctx.event_sink if e.lhs_poisoned or e.rhs_poisoned]
        assert poisoned_uses and all(e.deviated for e in poisoned_uses)

    def test_monitoring_emits_no_deviation_in_poisoned_run(self):
        ctx = EvalContext()
        policy = make_policy(rate=0.7, uses=1000, infectious=True)
        state, snapshots = run(RingConfig(5, 5, 10, seed=5), [Injection(0, 0, policy=policy)], ctx)
        # Each update records its guard, and node 0's move its add and mod; out records none.
        node0_moves = sum(s.firing_node == 0 for s in snapshots)
        assert len(ctx.event_sink) == 5 * 10 + 2 * node0_moves
        # has_privilege on the poisoned ring: the clean guard, one step, no event, no draw, no use.
        assert any(is_poisoned(s) for s in state.statuses)
        before = scalar_states(state.statuses)
        recorded, steps = list(ctx.event_sink), ctx.step_counter
        flags = ["1" if has_privilege(state, node, ctx) else "0" for node in range(5)]
        assert ",".join(flags) == out(state, EvalContext())
        assert ctx.event_sink == recorded and ctx.step_counter == steps + 5
        assert scalar_states(state.statuses) == before


# A policy's fields and the number of extra out() calls, for the neutrality properties.
_NEUTRALITY_CASES = dict(
    seed=st.integers(0, 2**64 - 1),
    rate=st.one_of(st.none(), st.floats(0.01, 0.99)),
    uses=st.one_of(st.none(), st.integers(1, 12)),
    deviation=st.one_of(
        st.tuples(st.just("offset"), st.sampled_from([1, -3, 2.5, INT64_MAX])),
        st.tuples(st.just("scale"), st.sampled_from([2, -1, 1.01, INT64_MAX])),
        st.tuples(st.just("stuck_at"), st.sampled_from([INT64_MIN, 0, 7, INT64_MAX])),
        st.tuples(st.just("bitflip"), st.integers(0, 63)),
    ),
    extra_outs=st.integers(1, 3),
)


class TestMonitoringNeutrality:
    def test_extra_out_calls_change_nothing(self):
        assert_monitoring_neutral(seed=42)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP A: child streams are keyed by a step counter that counts suppressed ops",
    )
    def test_extra_out_calls_change_nothing_at_seed_0(self):
        assert_monitoring_neutral(seed=0)

    @settings(max_examples=200, deadline=None)
    @given(**_NEUTRALITY_CASES)
    # Faults on both sides at node 0, round 2, so that the fault comparison does not wait on the
    # search.
    @example(seed=0, rate=0.5, uses=8, deviation=("offset", INT64_MAX), extra_outs=1)
    def test_extra_out_calls_change_nothing_without_infection(
        self, seed, rate, uses, deviation, extra_outs
    ):
        """Any non-infectious policy: monitoring moves only the step, never the outcome.

        ROADMAP A lifts the infectious=False restriction.
        """
        kind, magnitude = deviation
        policy = make_policy(kind, magnitude, rate=rate, uses=uses)
        assert_monitoring_neutral(seed, policy, extra_outs)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP A: an infectious policy's child streams are keyed by a step counter "
               "that counts suppressed ops",
    )
    # report_multiple_bugs=False: hypothesis then raises the one AssertionError, not a group.
    @settings(max_examples=200, deadline=None, report_multiple_bugs=False)
    @given(**_NEUTRALITY_CASES, infectious=st.booleans())
    # The seed-0 case above, so that the failure does not wait on the search.
    @example(seed=0, rate=0.5, uses=8, deviation=("offset", 1), extra_outs=1, infectious=True)
    def test_extra_out_calls_change_nothing_with_any_policy(
        self, seed, rate, uses, deviation, extra_outs, infectious
    ):
        """Any policy, infectious or not: monitoring moves only the step, never the outcome.

        ROADMAP A's gate: A1 removes the xfail marker.
        """
        kind, magnitude = deviation
        policy = make_policy(kind, magnitude, rate=rate, uses=uses, infectious=infectious)
        assert_monitoring_neutral(seed, policy, extra_outs)


# Offsets and scales, INT64_MAX above all, get extra weight: they are the deviations that fault.
_MAGNITUDES = {
    "offset": st.one_of(st.just(INT64_MAX), st.sampled_from([1, -3, 2.5, -INT64_MAX])),
    "scale": st.one_of(st.just(INT64_MAX), st.sampled_from([2, -1, 1.01, -INT64_MAX])),
    "stuck_at": st.sampled_from([INT64_MIN, 0, 7, INT64_MAX]),
    "bitflip": st.integers(0, 63),
}


@st.composite
def _ring_policies(draw):
    """Any policy. A rate of 0.5 is weighted up: node 0 faults only if its guard's draw
    does not deviate and its add's does, and a rate near 0 or 1 rarely gives both."""
    kind = draw(st.one_of(st.sampled_from(["offset", "scale"]),
                          st.sampled_from(sorted(_MAGNITUDES))))
    return make_policy(kind, draw(_MAGNITUDES[kind]),
                       rate=draw(st.one_of(st.none(), st.just(0.5), st.floats(0.01, 0.99))),
                       uses=draw(st.one_of(st.none(), st.integers(1, 4))),
                       infectious=draw(st.booleans()))


@st.composite
def _ring_scenarios(draw):
    """A ring of 1..9 nodes and either 0-3 injections, mostly poison, some at round == rounds,
    after the last update, or a campaign's round: a new_status on every node at one round in
    0..rounds. Node 0 is weighted up: only its transition does arithmetic."""
    node_count = draw(st.integers(1, 9))
    k_states = draw(st.integers(node_count, node_count + 3))
    rounds = draw(st.integers(0, 12))
    if draw(st.integers(0, 2)) == 0:
        at_round = draw(st.integers(0, rounds))
        injections = [Injection(node, at_round, new_status=draw(st.integers(0, k_states - 1)))
                      for node in range(node_count)]
    else:
        count = min(draw(st.integers(0, 3)), node_count * (rounds + 1))
        keys = draw(st.lists(
            st.tuples(st.one_of(st.just(0), st.integers(0, node_count - 1)),
                      st.integers(0, rounds)),
            min_size=count, max_size=count, unique=True))
        injections = [
            Injection(node, at_round, new_status=draw(st.integers(0, k_states - 1)))
            if draw(st.integers(0, 2)) == 0
            else Injection(node, at_round, policy=draw(_ring_policies()))
            for node, at_round in keys
        ]
    seed = draw(st.integers(0, 2**64 - 1))
    return RingConfig(node_count, k_states, rounds, seed=seed), injections


class TestRunKeepsFlags:
    """run keeps the N flags, a firing patching two and a round's injections setting all N;
    reference_run reads each line from the statuses."""

    @settings(max_examples=400, deadline=None)
    @given(scenario=_ring_scenarios(), keep_events=st.booleans())
    # Node 0's status, still poisoned, is poisoned again at round 2: run passes the scalar to
    # make_poisoned, where reference_loop passes its clean value.
    @example(scenario=(RingConfig(3, 4, 5, seed=7),
                       [Injection(0, 0, policy=make_policy(infectious=True)),
                        Injection(0, 2, policy=make_policy("scale", 2, rate=0.5, uses=3))]),
             keep_events=True)
    def test_matches_the_flag_free_loop(self, scenario, keep_events):
        """run matches reference_loop. Under run every exact-int status update reads, and every
        final one, lies in [0, K): so node 0's inline step, own + 1 <= K <= INT64_MAX, cannot
        overflow."""
        config, injections = scenario
        stepped, k_states = ring_sim.update, config.k_states

        def in_range(statuses):
            return all(0 <= s < k_states for s in statuses if type(s) is int)

        def checked(state, node, ctx, snapshots):
            assert in_range([state.statuses[node - 1], state.statuses[node]])
            stepped(state, node, ctx, snapshots)

        def sink():
            return [] if keep_events else deque(maxlen=0)

        with mock.patch.object(ring_sim, "update", checked):
            ran = run_outcome(config, injections, sink())
        assert ran == run_outcome(config, injections, sink(), reference_loop)
        shown = ran[0]
        assert shown[0] == "fault" or in_range(shown[1])

    def test_ring200_lines_match_the_flag_free_loop(self):
        scenario = load_scenario(str(SCENARIOS / "ring200.json"))
        lines = []
        for simulate in (run, reference_loop):
            ctx = EvalContext(event_sink=deque(maxlen=0))
            _, snapshots = simulate(scenario.ring, scenario.injections, ctx)
            lines.append([s.line for s in snapshots])
        assert len(lines[0]) > 200 and lines[0] == lines[1]

    @pytest.mark.parametrize("initial", [[3, 1, 4, 1, 2], [0, 0, 0, 0, 0], [4, 3, 2, 1, 0]])
    def test_discarding_sink_calls_no_binop(self, monkeypatch, initial):
        """A campaign's run with a discarding sink takes its guards and node 0's steps without
        binop; with a list sink each guard is one binop call and node 0's step two."""
        calls = []
        original = ring_sim.binop

        def counted(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(ring_sim, "binop", counted)
        config = RingConfig(5, 5, 10)
        injections = [Injection(i, 0, new_status=v) for i, v in enumerate(initial)]
        seen = []
        for sink in (deque(maxlen=0), []):
            calls.clear()
            ctx = EvalContext(event_sink=sink)
            state, snapshots = run(config, injections, ctx)
            node0_firings = sum(s.firing_node == 0 for s in snapshots)
            seen.append(([s.line for s in snapshots], state.statuses, ctx.step_counter,
                         len(calls), node0_firings))
        discarded, listed = seen
        assert discarded[:3] == listed[:3]
        assert discarded[3] == 0
        assert listed[3] == 5 * 10 + 2 * listed[4] and listed[4] > 0

    @settings(max_examples=300, deadline=None)
    @given(scenario=_ring_scenarios(), keep_events=st.booleans())
    def test_each_line_is_the_reference_line(self, scenario, keep_events):
        """Each line out joins, up to the final state's, is reference_out's for the statuses at
        that point; it counts the same N steps and leaves the sink and every scalar as it was."""
        config, injections = scenario
        joined = ring_sim.out

        def checked(state, ctx):
            reference_ctx, before = EvalContext(), scalar_states(state.statuses)
            events, step = list(ctx.event_sink), ctx.step_counter
            line = joined(state, ctx)
            assert line == reference_out(state, reference_ctx)
            assert ctx.step_counter - step == reference_ctx.step_counter
            assert list(ctx.event_sink) == events
            assert scalar_states(state.statuses) == before
            return line

        with mock.patch.object(ring_sim, "out", checked):
            try:
                state, _ = run(config, injections, EvalContext([] if keep_events else deque(maxlen=0)))
            except ArithmeticFault:
                return
        checked(state, EvalContext())

    @pytest.mark.parametrize("node_count", [1, 2, 5])
    def test_a_new_state_has_the_all_zero_flags(self, node_count):
        state = RingState(node_count, node_count)
        assert out(state, EvalContext()) == reference_out(state, EvalContext())

    @pytest.mark.parametrize("write", ["1", "K-1", "poison"])
    @pytest.mark.parametrize("node", [0, 1, 4])
    def test_a_write_patches_its_own_and_its_right_flag(self, node, write):
        """A status write can change only its node's flag and its right neighbour's, node 0 being
        the last node's right; run's flags after it are the line. Poison keeps the clean value."""
        if write == "poison":
            injection = Injection(node, 0, policy=make_policy(rate=0.5))
        else:
            injection = Injection(node, 0, new_status=1 if write == "1" else 4)
        state, snapshots = run(RingConfig(5, 5, 0), [injection])
        assert snapshots == []
        line = reference_out(state, EvalContext())
        assert ",".join(state._flags) == line
        changed = {i for i, (a, b) in enumerate(zip("1,0,0,0,0".split(","), line.split(",")))
                   if a != b}
        assert changed == (set() if write == "poison" else {node, (node + 1) % 5})

    def test_out_reads_writes_after_the_last_round(self):
        """Injections at round == rounds are applied after the last update; out's line reads them."""
        scenario = load_scenario(str(SCENARIOS / "poison_node0.json"))
        ring = scenario.ring
        late = (Injection(2, ring.rounds, new_status=4),
                Injection(3, ring.rounds, policy=make_policy(infectious=True)))
        state, _ = run(ring, scenario.injections + late, EvalContext())
        assert state.clean_statuses()[2] == 4 and isinstance(state.statuses[3], PoisonedScalar)
        ctx, reference_ctx = EvalContext(), EvalContext()
        assert out(state, ctx) == reference_out(state, reference_ctx)
        assert ctx.step_counter == reference_ctx.step_counter == 5

    @pytest.mark.parametrize("sink", [list, lambda: deque(maxlen=0)], ids=["list", "discard"])
    @pytest.mark.parametrize("shape", ["poison_node0", "perturbed_clean"])
    def test_run_calls_update_per_step_and_out_per_snapshot(self, monkeypatch, shape, sink):
        """The call contract a tracer wrapping ring_sim.update and ring_sim.out relies on, on a
        poisoned ring and on a campaign's clean 5-node ring perturbed at round 0."""
        calls = Counter()

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        monkeypatch.setattr(ring_sim, "update", counted("update", ring_sim.update))
        monkeypatch.setattr(ring_sim, "out", counted("out", ring_sim.out))
        if shape == "poison_node0":
            scenario = load_scenario(str(SCENARIOS / "poison_node0.json"))
        else:
            scenario = Scenario(RingConfig(5, 5, 10), [Injection(i, 0, new_status=v)
                                                       for i, v in enumerate([3, 1, 4, 1, 2])])
        _, snapshots = run(scenario.ring, scenario.injections, EvalContext(event_sink=sink()))
        assert calls["update"] == scenario.ring.node_count * scenario.ring.rounds
        assert calls["out"] == len(snapshots) > 0


def _infected(clean):
    """A status whose guards and steps go through binop; its rate is low enough that no draw
    deviates them, and an infectious op's result is poisoned too."""
    return make_poisoned(clean, make_policy(rate=1e-9, infectious=True), 0, seed=clean)


@pytest.mark.parametrize("sink", [list, lambda: deque(maxlen=0)], ids=["list", "discard"])
class TestFiringPatch:
    """update writes a firing node's status and patches the two flags it can change, its own
    and its right neighbour's: after each firing the flags give reference_out's line."""

    def _fire(self, statuses, k_states, nodes, sink):
        """Set a ring's flags from its statuses, update each node in turn and check the flags
        after every firing; return the firing nodes."""
        state = RingState(len(statuses), k_states)
        state.statuses[:] = statuses
        state._flags = reference_out(state, EvalContext()).split(",")
        fired, ctx = [], EvalContext(event_sink=sink())
        for node in nodes:
            snapshots = []
            update(state, node, ctx, snapshots)
            if snapshots:
                fired.append(node)
                assert ",".join(state._flags) == reference_out(state, EvalContext())
        return fired, state

    @pytest.mark.parametrize("k_states", [1, 2, 3])
    def test_one_node_is_its_own_left_and_right(self, sink, k_states):
        fired, _ = self._fire([0], k_states, [0] * 4, sink)
        assert fired == [0] * 4

    def test_one_infected_node(self, sink):
        fired, state = self._fire([_infected(1)], 3, [0] * 3, sink)
        assert fired == [0] * 3 and isinstance(state.statuses[0], PoisonedScalar)

    @pytest.mark.parametrize("statuses", [[0, 0], [1, 0], [0, 1], [2, 1], [1, 1]])
    def test_two_nodes(self, sink, statuses):
        fired, _ = self._fire(statuses, 3, [0, 1] * 4, sink)
        assert fired

    def test_the_last_node_wraps_its_patch_to_flag_0(self, sink):
        """Node 4 copies 3 from node 3: node 0's flag turns from 0 to 1."""
        fired, state = self._fire([3, 3, 3, 3, 1], 5, [4], sink)
        assert fired == [4] and state._flags == ["1", "0", "0", "0", "0"]

    def test_a_node_copies_a_poisoned_scalar(self, sink):
        left = _infected(2)
        fired, state = self._fire([0, left, 1, 1, 1], 5, [2, 3], sink)
        assert fired == [2, 3] and state.statuses[2] is state.statuses[3] is left

    def test_node0_writes_an_infected_scalar_through_binop(self, sink):
        fired, state = self._fire([_infected(2), 1, 1, 1, 2], 5, [0], sink)
        assert fired == [0] and isinstance(state.statuses[0], PoisonedScalar)
        assert state.statuses[0].clean_value == 3 and state._flags == ["0", "1", "0", "0", "1"]

    @pytest.mark.parametrize("config, injections", [
        (RingConfig(1, 1, 4), []),
        (RingConfig(1, 2, 5), [Injection(0, 2, new_status=1)]),
        (RingConfig(2, 2, 6), [Injection(1, 0, new_status=1)]),
        (RingConfig(2, 3, 8), [Injection(0, 1, policy=make_policy(rate=0.5, infectious=True))]),
        (RingConfig(5, 5, 20), [Injection(0, 0, policy=make_policy(rate=0.5, infectious=True))]),
    ], ids=["N1-K1", "N1-K2", "N2", "N2-poison", "N5-poison"])
    def test_run_keeps_the_flags_after_each_firing(self, monkeypatch, sink, config, injections):
        stepped, fired = ring_sim.update, []

        def checked(state, node, ctx, snapshots):
            before = len(snapshots)
            stepped(state, node, ctx, snapshots)
            if len(snapshots) > before:
                fired.append(node)
                assert ",".join(state._flags) == reference_out(state, EvalContext())

        monkeypatch.setattr(ring_sim, "update", checked)
        run(config, injections, EvalContext(event_sink=sink()))
        assert fired and (config.node_count == 1 or config.node_count - 1 in fired)


@settings(max_examples=30, deadline=None)
@given(
    node_count=st.integers(min_value=1, max_value=7),
    extra_k=st.integers(min_value=0, max_value=3),
    rounds=st.integers(min_value=0, max_value=12),
)
def test_fault_free_run_is_always_legitimate(node_count, extra_k, rounds):
    """Closure from the all-zero start: exactly one token in every snapshot."""
    k_states = node_count + extra_k if node_count > 1 else max(1, extra_k)
    _, snapshots = run(RingConfig(node_count, k_states, rounds))
    assert all(token_count(s.line) == 1 for s in snapshots)


@settings(max_examples=20, deadline=None)
@given(initial=st.lists(st.integers(min_value=0, max_value=4), min_size=5, max_size=5))
def test_any_initial_state_matches_oracle(initial):
    injections = [Injection(node=i, at_round=0, new_status=v) for i, v in enumerate(initial)]
    _, snapshots = run(RingConfig(5, 5, 10), injections)
    _, expected_lines = reference_run(5, 5, 10, initial)
    assert [s.line for s in snapshots] == expected_lines


def test_fairness_after_stabilization():
    """Every node fires within any node_count-round window post-convergence."""
    initial = [3, 1, 4, 1, 2]
    injections = [Injection(node=i, at_round=0, new_status=v) for i, v in enumerate(initial)]
    _, snapshots = run(RingConfig(5, 5, 20), injections)
    record = RunRecord("", 0, snapshots=snapshots)
    point = convergence_point(record)
    assert point is not None
    first_stable_round = snapshots[point].round + 1
    for start in range(first_stable_round, 20 - 5 + 1):
        fired = {s.firing_node for s in snapshots if start <= s.round < start + 5}
        assert fired == set(range(5))
