"""Poisoned integer values and operator-interception semantics.

A PoisonedScalar wraps a signed 64-bit integer together with a poison policy
and a private draw stream. Programs apply operators through binop()/unop()
instead of native operators; each application records one OperatorEvent and,
when an unsuppressed operand is poisoned, may emit a deviated result. There is
one interception path: unop is binop's path with no right operand.

Deviation is an emission phenomenon: arithmetic results handed back to the
program always carry the exact clean value (the shadow computation), while
the deviated number is visible in the event trace. Comparison results are
plain booleans and DO return the deviated (negated) truth value — they are
the channel through which poisoning perturbs control flow.

Monitoring code runs inside a suppression scope, written one way:
`with ctx.suppression():`. The scope forces clean semantics and leaves poison
lifetimes untouched, so observation never alters a non-infectious experiment.
Under an infectious policy it can: monitoring ops still advance the step that
keys an infected result's draw stream (ROADMAP A; pinned by a strict xfail in
tests/test_ring_sim.py::TestMonitoringNeutrality).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _kernel as kernel
from .trace_metrics import OperatorEvent

INT64_MIN = kernel.INT64_MIN
INT64_MAX = kernel.INT64_MAX

U64_MAX = (1 << 64) - 1


class PolicyError(ValueError):
    """Invalid deviation model or poison policy."""


class ArithmeticFault(ArithmeticError):
    """Overflow or division error inside an intercepted operation."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step
        self.node = None
        self.round_index = None

    def __str__(self):
        text = self.args[0]
        if self.step is not None:
            text += f" (step {self.step}"
            if self.node is not None:
                text += f", node {self.node}, round {self.round_index}"
            text += ")"
        return text


def kernel_backend() -> str:
    """Name of the operator kernel: always "py", the one pure-Python kernel."""
    return "py"


def _as_rational(value, field: str) -> Fraction:
    if isinstance(value, bool):
        raise PolicyError(f"{field} must be a number, not bool")
    if isinstance(value, float):
        # Shortest-decimal reading: 1.01 means 101/100, not the binary float.
        try:
            return Fraction(str(value))
        except ValueError:
            raise PolicyError(f"{field} must be finite") from None
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise PolicyError(f"{field} must be a number")


@dataclass(frozen=True)
class DeviationModel:
    """How an emitted result differs from the clean one.

    kind "offset": emitted = clean + magnitude (rational, nonzero)
    kind "scale": emitted = clean * magnitude (rational, not 1), half-to-even
    kind "stuck_at": emitted = magnitude (a 64-bit constant)
    kind "bitflip": emitted = clean with bit `magnitude` (0..63) toggled
    """

    kind: str
    magnitude: int | float | Fraction

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in kernel.DEVIATION_KINDS:
            raise PolicyError(
                f"deviation kind must be one of {kernel.DEVIATION_KINDS}, got {self.kind!r}"
            )
        if self.kind == "offset":
            mag = _as_rational(self.magnitude, "offset magnitude")
            if mag == 0:
                raise PolicyError("offset magnitude must be nonzero")
            self._freeze(mag, mag.numerator, mag.denominator)
        elif self.kind == "scale":
            mag = _as_rational(self.magnitude, "scale magnitude")
            if mag == 1:
                raise PolicyError("scale magnitude must not be 1")
            self._freeze(mag, mag.numerator, mag.denominator)
        elif self.kind == "stuck_at":
            if not isinstance(self.magnitude, int) or isinstance(self.magnitude, bool):
                raise PolicyError("stuck_at magnitude must be an integer")
            if not INT64_MIN <= self.magnitude <= INT64_MAX:
                raise PolicyError("stuck_at magnitude outside signed 64-bit range")
            self._freeze(self.magnitude, self.magnitude, 1)
        else:  # bitflip
            if not isinstance(self.magnitude, int) or isinstance(self.magnitude, bool):
                raise PolicyError("bitflip magnitude must be a bit index")
            if not 0 <= self.magnitude <= 63:
                raise PolicyError("bitflip bit index must lie in [0, 63]")
            self._freeze(self.magnitude, self.magnitude, 1)

    def _freeze(self, magnitude, num, den):
        if not (INT64_MIN <= num <= INT64_MAX and 0 < den <= INT64_MAX):
            raise PolicyError("magnitude numerator/denominator exceed 64 bits")
        object.__setattr__(self, "magnitude", magnitude)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)


@dataclass(frozen=True)
class PoisonPolicy:
    """Three-axis poisoning behavior plus a deviation model.

    rate None means deterministic effect (deviate on every use); otherwise
    deviate per use with probability rate, drawn from the value's stream.
    uses None means the poison never expires; otherwise it clears after that
    many unsuppressed uses. infectious controls whether arithmetic results
    derived from the value are poisoned themselves.
    """

    deviation: DeviationModel
    rate: float | None = None
    uses: int | None = None
    infectious: bool = False

    def __post_init__(self):
        if not isinstance(self.deviation, DeviationModel):
            raise PolicyError("deviation must be a DeviationModel")
        if self.rate is not None:
            if isinstance(self.rate, bool) or not isinstance(self.rate, (int, float)):
                raise PolicyError(f"rate must be a number, got {self.rate!r}")
            if not 0.0 < self.rate < 1.0:
                raise PolicyError(
                    'rate must lie in (0,1); use effect "deterministic" for certain deviation'
                )
            object.__setattr__(self, "rate", float(self.rate))
        if self.uses is not None:
            if not isinstance(self.uses, int) or isinstance(self.uses, bool):
                raise PolicyError(f"uses must be an integer, got {self.uses!r}")
            if self.uses < 1:
                raise PolicyError("uses must be at least 1")
        if not isinstance(self.infectious, bool):
            raise PolicyError(f"infectious must be a boolean, got {self.infectious!r}")


class PoisonedScalar:
    """A signed 64-bit value carrying poison state and its own draw stream.

    policy is None once the value is clean (never poisoned, or expired).
    """

    __slots__ = ("clean_value", "policy", "uses_remaining", "origin_id", "rng_state")

    def __init__(self, clean_value, policy, origin_id, rng_state):
        self.clean_value = clean_value
        self.policy = policy
        self.uses_remaining = policy.uses if policy is not None else None
        self.origin_id = origin_id
        self.rng_state = rng_state

    def _consume_use(self):
        """Spend one unsuppressed use; returns the remaining count (transient only)."""
        if self.policy.uses is None:
            return None
        self.uses_remaining -= 1
        remaining = self.uses_remaining
        if remaining == 0:
            self.policy = None
            self.uses_remaining = None
        return remaining

    def __repr__(self):
        if self.policy is None:
            return f"PoisonedScalar({self.clean_value}, clean)"
        detail = f"origin={self.origin_id}"
        if self.uses_remaining is not None:
            detail += f", uses_remaining={self.uses_remaining}"
        return f"PoisonedScalar({self.clean_value}, poisoned, {detail})"


class EvalContext:
    """Per-run interception state: suppression depth, step counter, event sink.

    event_sink takes each OperatorEvent through append(): a new list by
    default. An event is built only if the sink can hold one, so a sink whose
    maxlen is 0, such as deque(maxlen=0), gets none: that is how a caller
    keeps no events. The sink is fixed when the context is built.

    The context is its own suppression scope: `with ctx.suppression():` runs
    its body with poisoning disabled; scopes nest and survive errors.
    Confined to one logical thread; run concurrent experiments on separate
    contexts with separate sinks.
    """

    __slots__ = ("event_sink", "suppression_depth", "step_counter", "_keeps_events")

    def __init__(self, event_sink=None):
        self.event_sink = [] if event_sink is None else event_sink
        self.suppression_depth = 0
        self.step_counter = 0
        self._keeps_events = getattr(self.event_sink, "maxlen", None) != 0

    def suppression(self):
        """The suppression scope: the context itself."""
        return self

    def __enter__(self):
        self.suppression_depth += 1
        return self

    def __exit__(self, *exc):
        self.suppression_depth -= 1


def is_poisoned(value) -> bool:
    """True iff the value currently carries active poison."""
    return isinstance(value, PoisonedScalar) and value.policy is not None


def clean_value_of(value) -> int:
    """Underlying exact integer of a scalar or plain int."""
    if isinstance(value, PoisonedScalar):
        return value.clean_value
    return _check_operand(value)


def _check_operand(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"operand must be an integer scalar, got {type(value).__name__}")
    if not INT64_MIN <= value <= INT64_MAX:
        raise ValueError("operand exceeds signed 64-bit range")
    return value


def make_poisoned(value: int, policy: PoisonPolicy, origin_id: int, seed: int) -> PoisonedScalar:
    """Wrap a value as poisoned; the draw stream derives from (seed, origin_id)."""
    value = _check_operand(value)
    if not isinstance(policy, PoisonPolicy):
        raise PolicyError("policy must be a PoisonPolicy")
    if not isinstance(origin_id, int) or isinstance(origin_id, bool):
        raise PolicyError("origin_id must be an integer")
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= U64_MAX:
        raise PolicyError("seed must be an unsigned 64-bit integer")
    state = kernel.stream_seed(seed, origin_id)
    return PoisonedScalar(value, policy, origin_id, state)


# The right operand of a unary op: unop("neg", x, ctx) is binop("neg", x, _NO_OPERAND, ctx).
_NO_OPERAND = object()


def binop(op: str, lhs, rhs, ctx: EvalContext):
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
            # Draw, spend a use of each poisoned operand object, deviate, infect.
            policy = governing.policy
            if policy.rate is None:
                deviated = True
            else:
                governing.rng_state, deviated = kernel.bernoulli(governing.rng_state, policy.rate)
            lifetime_after = governing._consume_use()
            if lhs_poisoned and rhs_poisoned and rhs is not lhs:
                rhs._consume_use()
            if op in kernel.COMPARISONS:
                if deviated:
                    emitted = result = not clean_result
            else:
                if deviated:
                    model = policy.deviation
                    try:
                        emitted = kernel.apply_deviation(
                            model.kind, clean_result, model._num, model._den
                        )
                    except OverflowError as exc:
                        raise ArithmeticFault(f"{op} deviation: {exc}", step) from exc
                if policy.infectious:
                    child_state = kernel.stream_child(governing.rng_state, step)
                    result = PoisonedScalar(clean_result, policy, origin, child_state)

    if ctx._keeps_events:
        ctx.event_sink.append(
            OperatorEvent(
                step, op, a, lhs_poisoned, deviated, clean_result, emitted, suppressed,
                b, rhs_poisoned, origin, lifetime_after,
            )
        )
    return result


def unop(op: str, operand, ctx: EvalContext):
    """Apply one intercepted unary operator (neg): binop's path with no right operand."""
    if op != "neg":
        raise ValueError(f"unknown operator {op!r}")
    return binop(op, operand, _NO_OPERAND, ctx)
