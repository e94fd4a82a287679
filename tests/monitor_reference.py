"""Reference privilege monitor: one suppressed binop per node.

Each flag is its node's guard, ring_sim._guard, run inside its own
suppression scope, so every event comes from binop's suppressed branch. This
is the path that ring_sim.out reads in bulk; out must return the same line,
count the same steps, record the same events and raise the same errors.
"""

from poisonring.ring_sim import _guard


def reference_out(state, ctx) -> str:
    flags = []
    for node in range(len(state.statuses)):
        with ctx.suppression():
            flags.append("1" if _guard(state.statuses, node, ctx) else "0")
    return ",".join(flags)
