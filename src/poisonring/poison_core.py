"""Poisoned integer values and operator-interception semantics.

A PoisonedScalar wraps a signed 64-bit integer together with a poison policy
and a private draw stream. Programs apply operators through binop() instead
of native operators; each application outside a suppression scope records one
OperatorEvent if the sink keeps events and may emit a deviated result when an
operand is poisoned. One interception path, one shape: negation is binop("sub", 0, x, ctx).

Deviation is an emission phenomenon: arithmetic results handed back to the
program always carry the exact clean value (the shadow computation), while
the deviated number is visible in the event trace. Comparison results are
plain booleans and DO return the deviated (negated) truth value — they are
the channel through which poisoning perturbs control flow.

Monitoring code that calls binop runs inside a suppression scope, written one way:
`with ctx.suppression():`. An op in the scope counts its step, raises any ArithmeticFault
and returns the clean result; it draws, spends, deviates, infects and records nothing, so
observation never alters a non-infectious experiment.
Under an infectious policy observation can alter a run: monitoring ops still advance the step
that keys an infected result's draw stream (ROADMAP A; pinned by the strict xfails
test_extra_out_calls_change_nothing_at_seed_0 and ..._with_any_policy in tests/test_ring_sim.py).

binop fills each OperatorEvent it keeps in place: _new_record makes the record, and binop sets its
eleven slots in field order to exactly the constructor's values (origin_id and lifetime_after None
on the clean path). The dataclass constructor's call cost about 100 ns more per record on CPython
3.11, 7 to 8% of a sweep rep's run(). So replacing OperatorEvent, here or in trace_metrics, or its
__init__ intercepts none of binop's records; the constructor stays for every other caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _kernel as kernel
from .trace_metrics import OperatorEvent

INT64_MIN = kernel.INT64_MIN
INT64_MAX = kernel.INT64_MAX
U64_MAX = kernel.U64_MAX

# Each operator name to itself, so an equal str such as a StrEnum member records as the name.
_OP_NAMES = {name: name for name in kernel.BINARY_OPS}
_COMPARISONS = kernel.COMPARISONS
# Builds a record with every slot unset, for its builder to fill in field order: binop's op
# records and run's snapshots skip the dataclass constructor's call (module docstring).
_new_record = object.__new__


class PolicyError(ValueError):
    """Invalid deviation model or poison policy."""


def check_int(value, name: str, low: int, high: int, error=PolicyError) -> None:
    """Raise error unless value is an exact int (no bool, no IntEnum) in [low, high], naming
    the field, both bounds and the value's type, or the value: past 128 bits its bit count."""
    if type(value) is int and low <= value <= high:
        return
    if type(value) is not int:
        value = type(value).__name__
    elif value.bit_length() > 128:  # so that no int too long for str() is formatted
        value = f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    raise error(f"{name} must be an integer in [{low}, {high}], got {value}")


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


@dataclass(frozen=True, slots=True)
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
            got = repr(self.kind) if isinstance(self.kind, str) else type(self.kind).__name__
            raise PolicyError(f"deviation kind must be one of {kernel.DEVIATION_KINDS}, got {got}")
        mag = self.magnitude
        if self.kind == "offset":
            mag = _as_rational(mag, "offset magnitude")
            if mag == 0:
                raise PolicyError("offset magnitude must be nonzero")
        elif self.kind == "scale":
            mag = _as_rational(mag, "scale magnitude")
            if mag == 1:
                raise PolicyError("scale magnitude must not be 1")
        elif self.kind == "stuck_at":
            check_int(mag, "stuck_at magnitude", INT64_MIN, INT64_MAX)
        else:  # bitflip
            check_int(mag, "bitflip magnitude", 0, 63)
        num, den = mag.numerator, mag.denominator  # an int has both, as a Fraction does
        if not (INT64_MIN <= num <= INT64_MAX and 0 < den <= INT64_MAX):
            raise PolicyError("magnitude numerator/denominator exceed 64 bits")
        object.__setattr__(self, "magnitude", mag)


@dataclass(frozen=True, slots=True)
class PoisonPolicy:
    """Three-axis poisoning behavior plus a deviation model.

    rate None means deterministic effect (deviate on every use); otherwise
    deviate per use with probability rate, drawn from the value's stream.
    uses None means the poison never expires; otherwise it clears after that
    many unsuppressed uses, an exact int in [1, INT64_MAX]. infectious controls whether
    arithmetic results derived from the value are poisoned themselves.
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
                raise PolicyError(f"rate must be a number, got {type(self.rate).__name__}")
            if not 0.0 < self.rate < 1.0:
                raise PolicyError(
                    'rate must lie in (0,1); use effect "deterministic" for certain deviation'
                )
            object.__setattr__(self, "rate", float(self.rate))
        if self.uses is not None:
            check_int(self.uses, "uses", 1, INT64_MAX)
        if not isinstance(self.infectious, bool):
            raise PolicyError(f"infectious must be a boolean, got {type(self.infectious).__name__}")


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
        """Spend one unsuppressed use of a value with a use limit; returns the remaining count.
        binop calls it only then: uses_remaining is None while poisoned iff uses are unlimited."""
        remaining = self.uses_remaining = self.uses_remaining - 1
        if remaining == 0:
            self.policy = self.uses_remaining = None
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
    default. An event is built only if the sink can hold one, so a sink whose maxlen is 0,
    such as deque(maxlen=0), keeps none; with it an op with no poisoned operand returns right
    after the kernel, its step counted and any ArithmeticFault raised. Only binop appends to
    the sink. The sink is fixed when the context is built.

    The context is its own suppression scope: `with ctx.suppression():` runs
    its body clean and unrecorded; scopes nest and survive errors.
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
    """The operand as an exact int, as binop reads it: a PoisonedScalar's clean value, or an int
    (no bool) in the signed 64-bit range, an int subclass such as an IntEnum read as its int."""
    if isinstance(value, PoisonedScalar):
        return value.clean_value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"operand must be an integer scalar, got {type(value).__name__}")
    if not INT64_MIN <= value <= INT64_MAX:
        raise ValueError("operand exceeds signed 64-bit range")
    return int(value)


def make_poisoned(value, policy: PoisonPolicy, origin_id: int, seed: int) -> PoisonedScalar:
    """Wrap an operand's clean value, and only that, as poisoned, its stream from (seed, origin_id)."""
    value = clean_value_of(value)
    if not isinstance(policy, PoisonPolicy):
        raise PolicyError("policy must be a PoisonPolicy")
    check_int(origin_id, "origin_id", INT64_MIN, INT64_MAX)
    check_int(seed, "seed", 0, U64_MAX)
    state = kernel.stream_seed(seed, origin_id)
    return PoisonedScalar(value, policy, origin_id, state)


def binop(op: str, lhs, rhs, ctx: EvalContext):
    """Apply one intercepted binary operator; the one interception path.

    Arithmetic ops (add/sub/mul/mod) return the clean result, wrapped as a
    poisoned scalar when the governing operand's policy is infectious.
    Comparison ops (eq/neq/lt) return the emitted boolean. Exactly one
    OperatorEvent is recorded either way, none if ctx's sink keeps none or ctx is
    suppressed (its result then clean); op is named by its str in kernel.BINARY_OPS,
    so a StrEnum member records as that name. Negation is binop("sub", 0, x, ctx).
    """
    try:
        op = _OP_NAMES[op]
    except KeyError:
        raise ValueError(f"unknown operator {op!r}") from None
    # Exact in-range ints and exact PoisonedScalars are read in place; others take the full checks.
    if type(lhs) is int and INT64_MIN <= lhs <= INT64_MAX:
        a, lhs_poisoned = lhs, False
    elif type(lhs) is PoisonedScalar:
        a, lhs_poisoned = lhs.clean_value, lhs.policy is not None
    else:
        a, lhs_poisoned = clean_value_of(lhs), is_poisoned(lhs)
    if type(rhs) is int and INT64_MIN <= rhs <= INT64_MAX:
        b, rhs_poisoned = rhs, False
    elif type(rhs) is PoisonedScalar:
        b, rhs_poisoned = rhs.clean_value, rhs.policy is not None
    else:
        b, rhs_poisoned = clean_value_of(rhs), is_poisoned(rhs)
    step = ctx.step_counter
    ctx.step_counter = step + 1
    try:
        clean_result = kernel.clean_binop(op, a, b)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ArithmeticFault(f"{op}: {exc}", step) from exc
    if not (lhs_poisoned or rhs_poisoned):
        if ctx._keeps_events and ctx.suppression_depth <= 0:
            event = _new_record(OperatorEvent)
            event.step = step
            event.op = op
            event.lhs_clean = a
            event.rhs_clean = b
            event.lhs_poisoned = False
            event.rhs_poisoned = False
            event.deviated = False
            event.clean_result = clean_result
            event.emitted_result = clean_result
            event.origin_id = None
            event.lifetime_after = None
            ctx.event_sink.append(event)
        return clean_result
    if ctx.suppression_depth > 0:
        return clean_result

    # The left operand governs when both are poisoned.
    # Draw, spend a use of each poisoned operand object, deviate, infect.
    governing = lhs if lhs_poisoned else rhs
    policy = governing.policy
    if policy.rate is None:
        deviated = True
    else:
        governing.rng_state, deviated = kernel.bernoulli(governing.rng_state, policy.rate)
    lifetime_after = governing.uses_remaining
    if lifetime_after is not None:
        lifetime_after = governing._consume_use()
    if lhs_poisoned and rhs_poisoned and rhs is not lhs and rhs.uses_remaining is not None:
        rhs._consume_use()
    emitted = result = clean_result
    if op in _COMPARISONS:
        if deviated:
            emitted = result = not clean_result
    else:
        if deviated:
            model = policy.deviation
            mag = model.magnitude
            try:
                emitted = kernel.apply_deviation(model.kind, clean_result, mag.numerator, mag.denominator)
            except OverflowError as exc:
                raise ArithmeticFault(f"{op} deviation: {exc}", step) from exc
        if policy.infectious:
            child_state = kernel.stream_child(governing.rng_state, step)
            result = PoisonedScalar(clean_result, policy, governing.origin_id, child_state)

    if ctx._keeps_events:
        event = _new_record(OperatorEvent)
        event.step = step
        event.op = op
        event.lhs_clean = a
        event.rhs_clean = b
        event.lhs_poisoned = lhs_poisoned
        event.rhs_poisoned = rhs_poisoned
        event.deviated = deviated
        event.clean_result = clean_result
        event.emitted_result = emitted
        event.origin_id = governing.origin_id
        event.lifetime_after = lifetime_after
        ctx.event_sink.append(event)
    return result
