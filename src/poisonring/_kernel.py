"""Operator kernel.

The hot primitives behind every intercepted operation: checked 64-bit signed
arithmetic, deviation application, and the SplitMix64 draw stream.
clean_binop is the one operator entry, for the names in BINARY_OPS.

Operands, clean results and magnitudes are Python ints already verified to lie
in the signed 64-bit range; results outside it raise OverflowError. Stream states
are u64, and stream_seed takes both of its inputs modulo 2**64.
"""

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

U64_MAX = (1 << 64) - 1

# The operator and deviation-kind names the kernel dispatches on.
BINARY_OPS = frozenset(("add", "sub", "mul", "mod", "eq", "neq", "lt"))
COMPARISONS = frozenset(("eq", "neq", "lt"))
DEVIATION_KINDS = ("offset", "scale", "stuck_at", "bitflip")

# 2**-53, exact in binary; scales a 53-bit draw into [0, 1).
_INV_2_53 = 1.0 / 9007199254740992.0

_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB


def _checked(value):
    if value < INT64_MIN or value > INT64_MAX:
        raise OverflowError("result exceeds signed 64-bit range")
    return value


def clean_binop(op, a, b):
    """Exact operation on int64 operands; comparisons return a bool."""
    # Comparisons first: guards and monitoring make up most of a ring's ops.
    if op == "neq":
        return a != b
    if op == "eq":
        return a == b
    if op == "lt":
        return a < b
    if op == "add":
        return _checked(a + b)
    if op == "sub":
        return _checked(a - b)
    if op == "mul":
        return _checked(a * b)
    if op == "mod":
        if b == 0:
            raise ZeroDivisionError("modulo by zero")
        return a % b  # floor-mod; |result| < |b| so always in range
    raise ValueError(f"unknown operator {op!r}")


def _div_round_half_even(num, den):
    # Exact num/den rounded to the nearest integer, ties to even. den > 0.
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q & 1):
        q += 1
    return q


def apply_deviation(kind, clean, p_num, p_den):
    """Deviated value for a clean result under one deviation model.

    offset and scale take the magnitude as the exact rational p_num/p_den
    (p_den > 0) and round half-to-even; stuck_at ignores the clean value and
    returns p_num; bitflip toggles bit p_num of the two's-complement
    representation (never overflows).
    """
    if kind == "offset":
        return _checked(_div_round_half_even(clean * p_den + p_num, p_den))
    if kind == "scale":
        return _checked(_div_round_half_even(clean * p_num, p_den))
    if kind == "stuck_at":
        return p_num
    if kind == "bitflip":
        # Bit 63 of a two's-complement int64 is worth INT64_MIN.
        return clean ^ (INT64_MIN if p_num == 63 else 1 << p_num)
    raise ValueError(f"unknown deviation kind {kind!r}")


def sm64_next(state):
    """One SplitMix64 step: (new_state, mixed 64-bit output)."""
    state = (state + _SM64_GAMMA) & U64_MAX
    z = state
    z = ((z ^ (z >> 30)) * _SM64_MIX1) & U64_MAX
    z = ((z ^ (z >> 27)) * _SM64_MIX2) & U64_MAX
    return state, z ^ (z >> 31)


def stream_seed(seed, origin_id):
    """Initial draw-stream state for an injection site under a scenario seed: the output of
    sm64_next(sm64_next(seed)'s output ^ origin_id), the two steps written out to save calls.
    Both inputs are taken modulo 2**64."""
    z = (seed + _SM64_GAMMA) & U64_MAX
    z = ((z ^ (z >> 30)) * _SM64_MIX1) & U64_MAX
    z = ((z ^ (z >> 27)) * _SM64_MIX2) & U64_MAX
    z = ((z ^ (z >> 31) ^ origin_id) + _SM64_GAMMA) & U64_MAX
    z = ((z ^ (z >> 30)) * _SM64_MIX1) & U64_MAX
    z = ((z ^ (z >> 27)) * _SM64_MIX2) & U64_MAX
    return z ^ (z >> 31)


# Stream state for an infected result, keyed by (parent state, step); the parent is untouched.
stream_child = stream_seed


def bernoulli(state, rate):
    """Advance the stream one draw; return (new_state, draw < rate). The step and mix are
    sm64_next's, written out to save a call; the draw is the output's top 53 bits in [0, 1)."""
    state = (state + _SM64_GAMMA) & U64_MAX
    z = ((state ^ (state >> 30)) * _SM64_MIX1) & U64_MAX
    z = ((z ^ (z >> 27)) * _SM64_MIX2) & U64_MAX
    return state, ((z ^ (z >> 31)) >> 11) * _INV_2_53 < rate
