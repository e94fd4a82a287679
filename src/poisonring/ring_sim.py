"""Dijkstra's K-state self-stabilizing token ring over poisoned scalars.

A ring of N = node_count nodes (ids 0..N-1, left neighbor of i is (i-1) mod N) runs the two
guarded rules:

    node 0:   left == own  ->  own = (own + 1) % K
    node i>0: left != own  ->  own = left

run is the ring's one entry and the one writer of its statuses: each round it applies the
round's injections, if any, then calls update once per node, and it names an ArithmeticFault's node
and round. Guards are evaluated with unsuppressed operator semantics — this is where injected
poisoning perturbs the protocol. A node that fires emits its snapshot line BEFORE its transition.
The line is the monitor's whole record: each flag is its node's guard on the clean statuses, as
has_privilege reads it, and a flag reads only its node's and its left neighbour's clean values. So
a RingState starts with the all-zero start's N flags, a firing patches the two it can change, a
round's injections set all N again, and out joins them, calling no binop, recording no event,
counting N steps. With a discarding sink, update skips binop on exact-int guards and node 0's step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poison_core import (
    INT64_MAX,
    U64_MAX,
    ArithmeticFault,
    EvalContext,
    PoisonPolicy,
    binop,
    check_int,
    clean_value_of,
    make_poisoned,
)
from .trace_metrics import SnapshotEvent


# The largest ring RingConfig accepts; RingState holds a list of this many statuses.
MAX_NODES = 1 << 20


class ScenarioError(ValueError):
    """Invalid ring configuration, injection, or scenario file."""


def _check_ring(node_count, k_states) -> None:
    """The ring checks RingConfig and RingState share: 1 <= N <= MAX_NODES, N <= K <= INT64_MAX."""
    check_int(node_count, "node_count", 1, MAX_NODES, ScenarioError)
    check_int(k_states, "k_states", node_count, INT64_MAX, ScenarioError)


@dataclass(frozen=True)
class RingConfig:
    """Ring size, state modulus, round budget, and scenario seed: exact ints with
    1 <= N <= MAX_NODES, N <= K <= INT64_MAX, rounds <= INT64_MAX and seed <= U64_MAX."""

    node_count: int
    k_states: int
    rounds: int
    seed: int = 0

    def __post_init__(self):
        _check_ring(self.node_count, self.k_states)
        check_int(self.rounds, "rounds", 0, INT64_MAX, ScenarioError)
        check_int(self.seed, "seed", 0, U64_MAX, ScenarioError)


@dataclass(frozen=True)
class Injection:
    """A perturbation applied to one node at the start of one round.

    Exactly one of policy (poison the node's status) or new_status (overwrite
    the status with a clean value) must be given. node < MAX_NODES, at_round <= INT64_MAX
    and new_status < INT64_MAX (the largest K) are non-negative exact ints.
    """

    node: int
    at_round: int
    policy: PoisonPolicy | None = None
    new_status: int | None = None

    def __post_init__(self):
        if (self.policy is None) == (self.new_status is None):
            raise ScenarioError("injection needs exactly one of policy or new_status")
        check_int(self.node, "node", 0, MAX_NODES - 1, ScenarioError)
        check_int(self.at_round, "at_round", 0, INT64_MAX, ScenarioError)
        if self.policy is not None and not isinstance(self.policy, PoisonPolicy):
            raise ScenarioError("policy must be a PoisonPolicy")
        if self.new_status is not None:
            check_int(self.new_status, "new_status", 0, INT64_MAX - 1, ScenarioError)

    @property
    def kind(self) -> str:
        return "poison" if self.policy is not None else "perturb"


@dataclass(frozen=True)
class Scenario:
    """A complete reproducible experiment: a ring, which carries the seed, and its injections,
    any iterable kept as a tuple. Checked when built: node < N, at_round <= rounds, new_status < K
    and one injection per (node, round); errors name injections[i] or injections[i].field."""

    ring: RingConfig
    injections: tuple[Injection, ...] = ()

    def __post_init__(self):
        ring, injections = self.ring, self.injections
        if not isinstance(ring, RingConfig):
            raise ScenarioError(f"config must be a RingConfig, got {type(ring).__name__}")
        try:
            entries = iter(injections)
        except TypeError:
            raise ScenarioError(f"injections must be iterable, got {type(injections).__name__}") from None
        object.__setattr__(self, "injections", tuple(entries))
        seen = {}
        for i, injection in enumerate(self.injections):
            if not isinstance(injection, Injection):
                raise ScenarioError(f"injections[{i}]: expected an Injection")
            try:
                check_int(injection.node, "node", 0, ring.node_count - 1, ScenarioError)
                check_int(injection.at_round, "at_round", 0, ring.rounds, ScenarioError)
                if injection.new_status is not None:
                    check_int(injection.new_status, "new_status", 0, ring.k_states - 1, ScenarioError)
            except ScenarioError as exc:
                raise ScenarioError(f"injections[{i}].{exc}") from exc
            key = (injection.node, injection.at_round)
            if key in seen:
                raise ScenarioError(f"injections[{i}]: conflicting injections on node {injection.node} "
                                    f"at round {injection.at_round} (also injections[{seen[key]}])")
            seen[key] = i

    @property
    def seed(self) -> int:
        return self.ring.seed


class RingState:
    """Mutable ring state: one status per node, for 1..MAX_NODES nodes and K > N - 1. _flags
    holds its snapshot flags, from the all-zero start's line; run keeps them current."""

    __slots__ = ("statuses", "k_states", "round_index", "_flags")

    def __init__(self, node_count: int, k_states: int):
        _check_ring(node_count, k_states)
        self.statuses = [0] * node_count
        self.k_states = k_states
        self.round_index = 0
        self._flags = ["1"] + ["0"] * (node_count - 1)

    def clean_statuses(self) -> list[int]:
        return [clean_value_of(s) for s in self.statuses]


def has_privilege(state: RingState, node: int, ctx: EvalContext) -> bool:
    """Monitoring predicate: the node's guard in a suppression scope; one step, no event."""
    with ctx.suppression():
        return binop("neq" if node else "eq", state.statuses[node - 1], state.statuses[node], ctx)


def out(state: RingState, ctx: EvalContext) -> str:
    """Snapshot line: comma-separated privilege flags in node order, joined from the flags run
    keeps. It calls no binop, opens no scope and records no event, whatever the sink, and counts
    the N guards' steps in one add."""
    # Counted only because stream_child is keyed by step until ROADMAP A.
    ctx.step_counter += len(state._flags)
    return ",".join(state._flags)


def update(state: RingState, node: int, ctx: EvalContext, snapshots: list) -> None:
    """Run one node's guarded rule in place, returning nothing; a firing emits a snapshot, writes, and
    patches its own flag and its right neighbour's. Under a sink keeping no events exact-int guards and
    node 0's step skip binop. An ArithmeticFault propagates; run names its node and round."""
    statuses = state.statuses
    left, own = statuses[node - 1], statuses[node]
    # Exact: under run an exact-int status lies in [0, K) (0, a perturb value below K, a copy of its
    # left value, or node 0's own step), and binop on two such ints, with a sink that keeps nothing,
    # counts one step and returns the clean result at any suppression depth. own + 1 <= K: no overflow.
    inline = type(own) is int and not ctx._keeps_events
    if inline and type(left) is int:
        ctx.step_counter += 1
        fires = left != own if node else left == own
    else:
        fires = binop("neq" if node else "eq", left, own, ctx)
    if not fires:
        return
    snapshots.append(SnapshotEvent(state.round_index, node, out(state, ctx)))
    flags = state._flags
    if node:  # a copy of its left value: the own flag clears
        statuses[node] = left
        flags[node] = "0"
        new = left if type(left) is int else left.clean_value
    else:
        if inline:
            ctx.step_counter += 2
            new = (own + 1) % state.k_states
        else:
            new = binop("mod", binop("add", own, 1, ctx), state.k_states, ctx)
        statuses[0] = new
        new = new if type(new) is int else new.clean_value
        flags[0] = "1" if (left if type(left) is int else left.clean_value) == new else "0"
    # Read after the write: with N == 1 the right flag is node 0's own again, now correct.
    right = node + 1 if node + 1 < len(statuses) else 0
    after = statuses[right]
    after = after if type(after) is int else after.clean_value
    flags[right] = "1" if (new != after if right else new == after) else "0"


def _apply_injections(state, config, scheduled):
    """Write the round's injections, then set all N flags from the clean statuses."""
    statuses, flags = state.statuses, state._flags
    for origin_id, injection in scheduled:
        if injection.policy is not None:
            statuses[injection.node] = make_poisoned(statuses[injection.node], injection.policy,
                                                     origin_id, config.seed)
        else:  # Scenario has checked node and status against this ring
            statuses[injection.node] = injection.new_status
    # Under run each status is an exact int or a PoisonedScalar of fixed clean value.
    left = statuses[-1]
    left = left if type(left) is int else left.clean_value
    for node, own in enumerate(statuses):
        own = own if type(own) is int else own.clean_value
        flags[node] = "1" if (left != own if node else left == own) else "0"
        left = own


def run(config: RingConfig, injections=(), ctx: EvalContext | None = None):
    """Simulate the ring: fixed node order 0..N-1 per round, one guarded step per node.

    Returns (final RingState, SnapshotEvents in emission order); op events go to ctx.event_sink.
    """
    injections = Scenario(config, injections).injections
    if ctx is None:
        ctx = EvalContext()
    schedule = {}  # at_round -> [(origin_id, injection)]; origin_id is the scenario index
    for origin_id, injection in enumerate(injections):
        schedule.setdefault(injection.at_round, []).append((origin_id, injection))
    state = RingState(config.node_count, config.k_states)
    snapshots: list[SnapshotEvent] = []
    update_node, nodes = update, range(config.node_count)  # read per run, so it sees a wrapper set first
    for round_index in range(config.rounds + 1):
        state.round_index = round_index
        if round_index in schedule:
            _apply_injections(state, config, schedule[round_index])
        if round_index == config.rounds:
            break
        try:
            for node in nodes:
                update_node(state, node, ctx, snapshots)
        except ArithmeticFault as exc:
            exc.node, exc.round_index = node, round_index
            raise
    return state, snapshots
