"""Dijkstra's K-state self-stabilizing token ring over poisoned scalars.

A ring of node_count nodes (ids 0..N, left neighbor of i is (i-1) mod
node_count) runs the two guarded rules:

    node 0:   left == own  ->  own = (own + 1) % K
    node i>0: left != own  ->  own = left

Guards are evaluated with unsuppressed operator semantics — this is where
injected poisoning perturbs the protocol. Privilege monitoring never alters
poison state and records no event: has_privilege runs one guard as a binop in
a suppression scope, and out calls no binop, reads the N flags from the clean
statuses and counts the N guards' steps in one add; its snapshot line is the record.
A node that fires emits its snapshot line BEFORE applying the transition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poison_core import (
    INT64_MAX,
    INT64_MIN,
    U64_MAX,
    ArithmeticFault,
    EvalContext,
    PoisonedScalar,
    PoisonPolicy,
    binop,
    clean_value_of,
    make_poisoned,
)
from .trace_metrics import SnapshotEvent


# The largest ring RingConfig accepts; RingState holds a list of this many statuses.
MAX_NODES = 1 << 20


class ScenarioError(ValueError):
    """Invalid ring configuration, injection, or scenario file."""


def _check_ring(node_count, k_states) -> None:
    """The ring checks RingConfig and RingState share: sizes first, then K > N - 1."""
    if type(node_count) is not int or node_count < 1:
        raise ScenarioError(f"node_count must be an integer >= 1, got {node_count!r}")
    if node_count > MAX_NODES:
        raise ScenarioError(f"node_count must be at most {MAX_NODES}, got {node_count}")
    if type(k_states) is not int:
        raise ScenarioError(f"k_states must be an integer, got {k_states!r}")
    if k_states <= node_count - 1:
        raise ScenarioError(
            f"K must exceed N: k_states must be > {node_count - 1} "
            f"for {node_count} nodes, got {k_states}"
        )
    if k_states > INT64_MAX:
        raise ScenarioError(f"k_states must be at most {INT64_MAX}, got {k_states}")


@dataclass(frozen=True)
class RingConfig:
    """Ring size, state modulus, round budget, and scenario seed."""

    node_count: int
    k_states: int
    rounds: int
    seed: int = 0

    def __post_init__(self):
        _check_ring(self.node_count, self.k_states)
        if type(self.rounds) is not int or self.rounds < 0:
            raise ScenarioError(f"rounds must be a non-negative integer, got {self.rounds!r}")
        if type(self.seed) is not int or not 0 <= self.seed <= U64_MAX:
            raise ScenarioError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")


@dataclass(frozen=True)
class Injection:
    """A perturbation applied to one node at the start of one round.

    Exactly one of policy (poison the node's status) or new_status (overwrite
    the status with a clean value) must be given.
    """

    node: int
    at_round: int
    policy: PoisonPolicy | None = None
    new_status: int | None = None

    def __post_init__(self):
        if (self.policy is None) == (self.new_status is None):
            raise ScenarioError("injection needs exactly one of policy or new_status")
        if type(self.node) is not int or self.node < 0:
            raise ScenarioError(f"node must be a non-negative integer, got {self.node!r}")
        if type(self.at_round) is not int or self.at_round < 0:
            raise ScenarioError(f"at_round must be a non-negative integer, got {self.at_round!r}")
        if self.policy is not None and not isinstance(self.policy, PoisonPolicy):
            raise ScenarioError("policy must be a PoisonPolicy")
        if self.new_status is not None and type(self.new_status) is not int:
            raise ScenarioError(f"new_status must be an integer, got {self.new_status!r}")

    @property
    def kind(self) -> str:
        return "poison" if self.policy is not None else "perturb"


@dataclass(frozen=True)
class Scenario:
    """A complete reproducible experiment: a ring, which carries the seed, and its injections."""

    ring: RingConfig
    injections: tuple[Injection, ...] = ()

    @property
    def seed(self) -> int:
        return self.ring.seed


class RingState:
    """Mutable ring state: one status per node, for 1..MAX_NODES nodes and K > N - 1."""

    __slots__ = ("statuses", "k_states", "round_index")

    def __init__(self, node_count: int, k_states: int):
        _check_ring(node_count, k_states)
        self.statuses = [0] * node_count
        self.k_states = k_states
        self.round_index = 0

    def clean_statuses(self) -> list[int]:
        return [clean_value_of(s) for s in self.statuses]


def _check_node(state: RingState, node, what: str) -> None:
    if type(node) is not int or not 0 <= node < len(state.statuses):
        raise ScenarioError(f"{what} node {node!r} out of range (node_count {len(state.statuses)})")


def _guard(statuses: list, node: int, ctx: EvalContext) -> bool:
    """Dijkstra's guard: node 0 holds it when its left neighbour equals it,
    any other node when they differ. Node 0's left neighbour is the last node."""
    return binop("neq" if node else "eq", statuses[node - 1], statuses[node], ctx)


def has_privilege(state: RingState, node: int, ctx: EvalContext) -> bool:
    """Monitoring predicate: the node's guard in a suppression scope; one step, no event."""
    _check_node(state, node, "has_privilege")
    with ctx.suppression():
        return _guard(state.statuses, node, ctx)


def out(state: RingState, ctx: EvalContext) -> str:
    """Snapshot line: comma-separated privilege flags in node order.

    Each flag is its node's guard on the clean statuses, as has_privilege
    reads it. The line is the monitor's whole record: out calls no
    binop, opens no scope and records no event, whatever the sink. It counts
    the N guards' steps in one add. Statuses are read as binop reads them, in
    node order, so a bad one raises binop's error before any step is counted.
    """
    clean = [
        s if type(s) is int and INT64_MIN <= s <= INT64_MAX
        else s.clean_value if type(s) is PoisonedScalar
        else clean_value_of(s)
        for s in state.statuses
    ]
    flags = ["1" if clean[-1] == clean[0] else "0"]
    flags += ["1" if left != own else "0" for left, own in zip(clean, clean[1:])]
    # Counted only because stream_child is keyed by step until ROADMAP A.
    ctx.step_counter += len(flags)
    return ",".join(flags)


def perturb(state: RingState, node: int, new_status: int) -> RingState:
    """Overwrite a node's status with a clean value, clearing any poison."""
    _check_node(state, node, "perturb")
    if type(new_status) is not int:
        raise ScenarioError(f"perturb status must be an integer, got {new_status!r}")
    if not 0 <= new_status < state.k_states:
        raise ScenarioError(f"perturb status must lie in [0, {state.k_states}), got {new_status}")
    state.statuses[node] = new_status
    return state


def update(state: RingState, node: int, ctx: EvalContext, snapshots: list) -> RingState:
    """Run one node's guarded rule; emits a snapshot only when the guard fires."""
    _check_node(state, node, "update")
    statuses = state.statuses
    try:
        if not _guard(statuses, node, ctx):
            return state
        snapshots.append(SnapshotEvent(state.round_index, node, out(state, ctx)))
        if node == 0:
            bumped = binop("add", statuses[0], 1, ctx)
            statuses[0] = binop("mod", bumped, state.k_states, ctx)
        else:
            statuses[node] = statuses[node - 1]
    except ArithmeticFault as exc:
        exc.node = node
        exc.round_index = state.round_index
        raise
    return state


def validate_injections(config: RingConfig, injections) -> None:
    """Check injections against the ring: ranges, and one injection per (node, round).

    Errors name the offending entry as injections[i].field.
    """
    seen = {}
    for i, injection in enumerate(injections):
        if not isinstance(injection, Injection):
            raise ScenarioError(f"injections[{i}]: expected an Injection")
        if injection.node >= config.node_count:
            raise ScenarioError(
                f"injections[{i}].node: node {injection.node} out of range "
                f"(node_count {config.node_count})"
            )
        if injection.at_round > config.rounds:
            raise ScenarioError(
                f"injections[{i}].at_round: round {injection.at_round} "
                f"exceeds rounds {config.rounds}"
            )
        if injection.new_status is not None and not (
            0 <= injection.new_status < config.k_states
        ):
            raise ScenarioError(
                f"injections[{i}].new_status: status must lie in [0, {config.k_states}), "
                f"got {injection.new_status}"
            )
        key = (injection.node, injection.at_round)
        if key in seen:
            raise ScenarioError(
                f"injections[{i}]: conflicting injections on node {injection.node} "
                f"at round {injection.at_round} (also injections[{seen[key]}])"
            )
        seen[key] = i


def _apply_injections(state, config, scheduled):
    for origin_id, injection in scheduled:
        if injection.policy is not None:
            current = clean_value_of(state.statuses[injection.node])
            state.statuses[injection.node] = make_poisoned(
                current, injection.policy, origin_id, config.seed
            )
        else:
            perturb(state, injection.node, injection.new_status)


def run(config: RingConfig, injections=(), ctx: EvalContext | None = None):
    """Simulate the ring: fixed node order 0..N per round, one guarded step per node.

    Returns (final RingState, list of SnapshotEvents in emission order).
    Operator events accumulate in ctx.event_sink.
    """
    injections = tuple(injections)
    validate_injections(config, injections)
    if ctx is None:
        ctx = EvalContext()
    schedule = {}  # at_round -> [(origin_id, injection)]; origin_id is the scenario index
    for origin_id, injection in enumerate(injections):
        schedule.setdefault(injection.at_round, []).append((origin_id, injection))
    state = RingState(config.node_count, config.k_states)
    snapshots: list[SnapshotEvent] = []
    for round_index in range(config.rounds):
        state.round_index = round_index
        _apply_injections(state, config, schedule.get(round_index, ()))
        for node in range(config.node_count):
            update(state, node, ctx, snapshots)
    state.round_index = config.rounds
    _apply_injections(state, config, schedule.get(config.rounds, ()))
    return state, snapshots
