"""Reference privilege monitor and a flag-free ring loop.

reference_out: each flag is its node's guard, ring_sim._guard, run inside its
own suppression scope, so it counts N steps and records nothing. This is the
path that ring_sim.out reads in bulk; out must return the same line, count the
same steps, raise the same errors and record nothing either.

flag_free_run: run's loop on a hand-built RingState, which keeps no flag list,
so each snapshot line is rebuilt from the statuses by out. run, which keeps the
flags and patches them per status write, must give the same lines, statuses,
events, steps and faults.
"""

from poisonring import RingState, clean_value_of, make_poisoned, update
from poisonring.ring_sim import _guard


def reference_out(state, ctx) -> str:
    flags = []
    for node in range(len(state.statuses)):
        with ctx.suppression():
            flags.append("1" if _guard(state.statuses, node, ctx) else "0")
    return ",".join(flags)


def flag_free_run(config, injections, ctx):
    """Returns (final RingState, snapshots), as run does; an ArithmeticFault propagates."""
    state = RingState(config.node_count, config.k_states)
    snapshots = []
    for round_index in range(config.rounds + 1):
        state.round_index = round_index
        # An injection's origin id is its index in the scenario, as in run.
        for origin_id, injection in enumerate(injections):
            if injection.at_round != round_index:
                continue
            if injection.policy is not None:
                current = clean_value_of(state.statuses[injection.node])
                state.statuses[injection.node] = make_poisoned(
                    current, injection.policy, origin_id, config.seed)
            else:
                state.statuses[injection.node] = injection.new_status
        if round_index < config.rounds:
            for node in range(config.node_count):
                update(state, node, ctx, snapshots)
    return state, snapshots
