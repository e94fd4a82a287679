"""Operator kernel.

The hot primitives behind every intercepted operation: checked 64-bit signed
arithmetic, deviation application, and the SplitMix64 draw stream.
clean_binop is the one operator entry: the binary operators and "neg".

All value arguments are Python ints already verified to lie in the signed
64-bit range. Results outside that range raise OverflowError.
"""

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

_MASK64 = (1 << 64) - 1
_BIT63 = 1 << 63
_TWO64 = 1 << 64

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
    """Exact operation on int64 operands; comparisons return a bool, "neg" ignores b."""
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
    if op == "eq":
        return a == b
    if op == "neq":
        return a != b
    if op == "lt":
        return a < b
    if op == "neg":
        return _checked(-a)
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
        u = (clean & _MASK64) ^ (1 << p_num)
        return u - _TWO64 if u >= _BIT63 else u
    raise ValueError(f"unknown deviation kind {kind!r}")


def sm64_next(state):
    """One SplitMix64 step: (new_state, mixed 64-bit output)."""
    state = (state + _SM64_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _SM64_MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM64_MIX2) & _MASK64
    return state, z ^ (z >> 31)


def stream_seed(seed, origin_id):
    """Initial draw-stream state for an injection site under a scenario seed.

    Both inputs are taken modulo 2**64.
    """
    _, z = sm64_next(seed & _MASK64)
    _, z2 = sm64_next(z ^ (origin_id & _MASK64))
    return z2


def stream_child(state, step):
    """Stream state for an infected result; leaves the parent state untouched."""
    return stream_seed(state, step)


def bernoulli(state, rate):
    """Advance the stream one draw; return (new_state, draw < rate)."""
    state, z = sm64_next(state)
    return state, (z >> 11) * _INV_2_53 < rate
