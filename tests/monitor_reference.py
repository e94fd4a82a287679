"""Reference privilege monitor: one suppressed binop per node.

Each flag is its node's guard, ring_sim._guard, run inside its own
suppression scope, so it records N suppressed events. This is the path that
ring_sim.out reads in bulk; out must return the same line, count the same
steps and raise the same errors, and records none of those events.
"""

from poisonring.ring_sim import _guard


def reference_out(state, ctx) -> str:
    flags = []
    for node in range(len(state.statuses)):
        with ctx.suppression():
            flags.append("1" if _guard(state.statuses, node, ctx) else "0")
    return ",".join(flags)
