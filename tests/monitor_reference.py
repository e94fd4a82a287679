"""Reference privilege monitor and an independent ring loop.

reference_out: each flag is its node's guard, ring_sim.has_privilege, in its own
suppression scope, so it counts N steps and records nothing. It reads the
statuses themselves, where ring_sim.out joins the flags run keeps, and must give
the same line and steps.

reference_run: run's protocol with no kept flags and no inline guard. Every guard
and node 0's add and mod go through binop, every line comes from reference_out,
and a fault gets its node and round here. run must give the same lines,
statuses, events, steps and faults.
"""

from poisonring import ArithmeticFault, RingState, SnapshotEvent, binop, clean_value_of, make_poisoned
from poisonring.ring_sim import has_privilege


def reference_out(state, ctx) -> str:
    return ",".join("1" if has_privilege(state, node, ctx) else "0"
                    for node in range(len(state.statuses)))


def reference_run(config, injections, ctx):
    """Returns (final RingState, snapshots), as run does; an ArithmeticFault propagates."""
    state = RingState(config.node_count, config.k_states)
    statuses, snapshots = state.statuses, []
    for round_index in range(config.rounds + 1):
        state.round_index = round_index
        # An injection's origin id is its index in the scenario, as in run.
        for origin_id, injection in enumerate(injections):
            if injection.at_round != round_index:
                continue
            if injection.policy is not None:
                current = clean_value_of(statuses[injection.node])
                statuses[injection.node] = make_poisoned(
                    current, injection.policy, origin_id, config.seed)
            else:
                statuses[injection.node] = injection.new_status
        if round_index == config.rounds:
            break
        for node in range(config.node_count):
            left, own = statuses[node - 1], statuses[node]
            try:
                if not binop("neq" if node else "eq", left, own, ctx):
                    continue
                snapshots.append(SnapshotEvent(round_index, node, reference_out(state, ctx)))
                statuses[node] = (binop("mod", binop("add", own, 1, ctx), config.k_states, ctx)
                                  if node == 0 else left)
            except ArithmeticFault as exc:
                exc.node, exc.round_index = node, round_index
                raise
    return state, snapshots
