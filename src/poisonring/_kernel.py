"""Operator kernel.

The hot primitives behind every intercepted operation: checked 64-bit signed
arithmetic, deviation application, and the SplitMix64 draw stream.

All value arguments are Python ints already verified to lie in the signed
64-bit range. Results outside that range raise OverflowError.
"""

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

_MASK64 = (1 << 64) - 1
_BIT63 = 1 << 63
_TWO64 = 1 << 64

# Operator codes. Comparisons sort last so callers can test "code >= OP_EQ".
OP_ADD = 0
OP_SUB = 1
OP_MUL = 2
OP_MOD = 3
OP_EQ = 4
OP_NEQ = 5
OP_LT = 6

# Deviation-model codes.
DEV_OFFSET = 0
DEV_SCALE = 1
DEV_STUCK_AT = 2
DEV_BITFLIP = 3

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
    """Exact binary operation on int64 operands; comparisons return 0/1."""
    if op == OP_ADD:
        return _checked(a + b)
    if op == OP_SUB:
        return _checked(a - b)
    if op == OP_MUL:
        return _checked(a * b)
    if op == OP_MOD:
        if b == 0:
            raise ZeroDivisionError("modulo by zero")
        return a % b  # floor-mod; |result| < |b| so always in range
    if op == OP_EQ:
        return 1 if a == b else 0
    if op == OP_NEQ:
        return 1 if a != b else 0
    if op == OP_LT:
        return 1 if a < b else 0
    raise ValueError(f"unknown operator code {op}")


def checked_neg(a):
    """Arithmetic negation; overflows only for INT64_MIN."""
    return _checked(-a)


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
    if kind == DEV_OFFSET:
        return _checked(_div_round_half_even(clean * p_den + p_num, p_den))
    if kind == DEV_SCALE:
        return _checked(_div_round_half_even(clean * p_num, p_den))
    if kind == DEV_STUCK_AT:
        return p_num
    if kind == DEV_BITFLIP:
        u = (clean & _MASK64) ^ (1 << p_num)
        return u - _TWO64 if u >= _BIT63 else u
    raise ValueError(f"unknown deviation code {kind}")


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
