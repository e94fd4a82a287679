"""Reference unary operator: unop as it was before it became binop's path.

A verbatim copy of the separate unop body, with the kernel's checked_neg
inlined as `kernel._checked(-a)`. It shares only the policy block,
_poisoned_use, with the package. Used as the oracle that the one-path unop
must match in result, events, step counter and the operand's poison state.
"""

from poisonring import _kernel as kernel
from poisonring.poison_core import (
    INT64_MAX,
    INT64_MIN,
    ArithmeticFault,
    EvalContext,
    _poisoned_use,
    clean_value_of,
    is_poisoned,
)
from poisonring.trace_metrics import OperatorEvent


def reference_unop(op: str, operand, ctx: EvalContext):
    """Apply one intercepted unary operator (neg); same contract as binop."""
    if op != "neg":
        raise ValueError(f"unknown operator {op!r}")
    if type(operand) is int and INT64_MIN <= operand <= INT64_MAX:
        a, poisoned = operand, False
    else:
        a, poisoned = clean_value_of(operand), is_poisoned(operand)
    step = ctx.step_counter
    ctx.step_counter = step + 1
    try:
        clean_result = kernel._checked(-a)
    except OverflowError as exc:
        raise ArithmeticFault(f"neg: {exc}", step) from exc

    suppressed = ctx.suppression_depth > 0
    deviated = False
    emitted = result = clean_result
    origin = lifetime_after = None
    if poisoned:
        origin = operand.origin_id
        if suppressed:
            lifetime_after = operand.uses_remaining
        else:
            deviated, emitted, lifetime_after, result = _poisoned_use(
                op, operand, None, clean_result, step
            )

    ctx.event_sink.append(
        OperatorEvent(
            step, op, a, poisoned, deviated, clean_result, emitted, suppressed,
            None, None, origin, lifetime_after,
        )
    )
    return result
