"""Reference privilege monitor: one binop per node, each in a suppression scope.

Each flag is its node's guard, ring_sim._guard, run inside its own
suppression scope, so it counts N steps and records nothing. This is the path
that ring_sim.out reads in bulk; out must return the same line, count the same
steps, raise the same errors and record nothing either.
"""

from poisonring.ring_sim import _guard


def reference_out(state, ctx) -> str:
    flags = []
    for node in range(len(state.statuses)):
        with ctx.suppression():
            flags.append("1" if _guard(state.statuses, node, ctx) else "0")
    return ",".join(flags)
