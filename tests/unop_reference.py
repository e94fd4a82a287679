"""Reference operators: the interception path as it was before binop applied the policy itself.

Verbatim copies, so that the oracle shares no policy code with the package:

- reference_unop is the separate unop body from before unop became binop's
  path, with the kernel's checked_neg inlined as `kernel._checked(-a)`;
- reference_binop is binop's body from before _poisoned_use was folded
  into it;
- _poisoned_use is that policy block (draw, spend a use, deviate, infect),
  and _consume_use is PoisonedScalar._consume_use as it was then, called as
  a function here (`_consume_use(value)` for `value._consume_use()`).

Used as the oracles that the package's unop and binop must match in result,
events, step counter and the operands' poison state.
"""

from poisonring import _kernel as kernel
from poisonring.poison_core import (
    _NO_OPERAND,
    INT64_MAX,
    INT64_MIN,
    ArithmeticFault,
    EvalContext,
    PoisonedScalar,
    clean_value_of,
    is_poisoned,
)
from poisonring.trace_metrics import OperatorEvent


def _consume_use(self):
    """Spend one unsuppressed use; returns the remaining count (transient only)."""
    policy = self.policy
    if policy is None or policy.uses is None:
        return None
    self.uses_remaining -= 1
    remaining = self.uses_remaining
    if remaining == 0:
        self.policy = None
        self.uses_remaining = None
    return remaining


def _poisoned_use(op, value, other, clean_result, step):
    """One unsuppressed use of a poisoned operand: draw, spend a use, deviate, infect.

    value governs the result (its policy and draw stream decide); other is a
    second, distinct poisoned operand whose use is spent too, or None.
    Returns (deviated, emitted, lifetime_after, result).
    """
    policy = value.policy
    if policy.rate is None:
        deviated = True
    else:
        value.rng_state, deviated = kernel.bernoulli(value.rng_state, policy.rate)
    lifetime_after = _consume_use(value)
    if other is not None:
        _consume_use(other)
    is_comparison = op in kernel.COMPARISONS
    emitted = clean_result
    if deviated:
        if is_comparison:
            emitted = not clean_result
        else:
            model = policy.deviation
            try:
                emitted = kernel.apply_deviation(
                    model.kind, clean_result, model._num, model._den
                )
            except OverflowError as exc:
                raise ArithmeticFault(f"{op} deviation: {exc}", step) from exc
    if is_comparison:
        return deviated, emitted, lifetime_after, emitted
    if policy.infectious:
        child = PoisonedScalar(
            clean_result, policy, value.origin_id, kernel.stream_child(value.rng_state, step)
        )
        return deviated, emitted, lifetime_after, child
    return deviated, emitted, lifetime_after, clean_result


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


def reference_binop(op: str, lhs, rhs, ctx: EvalContext):
    """Apply one intercepted binary operator; the one interception path.

    Arithmetic ops (add/sub/mul/mod) return the clean result, wrapped as a
    poisoned scalar when the governing operand's policy is infectious.
    Comparison ops (eq/neq/lt) return the emitted boolean. Exactly one
    OperatorEvent is recorded either way, or none built if ctx's sink keeps
    none; unop's event has rhs fields None.
    """
    if op not in kernel.BINARY_OPS and (op != "neg" or rhs is not _NO_OPERAND):
        raise ValueError(f"unknown operator {op!r}")
    # Exact in-range ints are clean operands; anything else takes the full checks.
    if type(lhs) is int and INT64_MIN <= lhs <= INT64_MAX:
        a, lhs_poisoned = lhs, False
    else:
        a, lhs_poisoned = clean_value_of(lhs), is_poisoned(lhs)
    if type(rhs) is int and INT64_MIN <= rhs <= INT64_MAX:
        b, rhs_poisoned = rhs, False
    elif rhs is _NO_OPERAND:
        b = rhs_poisoned = None
    else:
        b, rhs_poisoned = clean_value_of(rhs), is_poisoned(rhs)
    step = ctx.step_counter
    ctx.step_counter = step + 1
    try:
        clean_result = kernel.clean_binop(op, a, b)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ArithmeticFault(f"{op}: {exc}", step) from exc

    suppressed = ctx.suppression_depth > 0
    deviated = False
    emitted = result = clean_result
    origin = lifetime_after = None
    if lhs_poisoned or rhs_poisoned:
        # The left operand governs when both are poisoned.
        governing = lhs if lhs_poisoned else rhs
        origin = governing.origin_id
        if suppressed:
            lifetime_after = governing.uses_remaining
        else:
            other = rhs if lhs_poisoned and rhs_poisoned and rhs is not lhs else None
            deviated, emitted, lifetime_after, result = _poisoned_use(
                op, governing, other, clean_result, step
            )

    if ctx._keeps_events:
        ctx.event_sink.append(
            OperatorEvent(
                step, op, a, lhs_poisoned, deviated, clean_result, emitted, suppressed,
                b, rhs_poisoned, origin, lifetime_after,
            )
        )
    return result
