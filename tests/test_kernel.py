"""Kernel unit and property tests: overflow errors, floor-mod semantics,
rounding ties, and the draw stream.

Each fixture-driven test runs twice: on the kernel module itself (id "py")
and on the same primitives reached through the core's public operators
(id "c", _CorePath). The second run shows that binop and
make_poisoned hand the kernel's clean results, deviations and draw streams
through unchanged. Both are called by operator and deviation-kind name.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import make_policy
from poisonring import (
    ArithmeticFault,
    DeviationModel,
    EvalContext,
    PoisonedScalar,
    PoisonPolicy,
    _kernel,
    binop,
    make_poisoned,
)

I64_MIN = _kernel.INT64_MIN
I64_MAX = _kernel.INT64_MAX

int64s = st.integers(min_value=I64_MIN, max_value=I64_MAX)


def _one_event(ctx):
    (event,) = ctx.event_sink
    return event


class _CorePath:
    """The kernel's primitives computed through binop/make_poisoned.

    Each call uses a fresh EvalContext and reads its answer off the returned
    value, the scalar's stream state or the one recorded OperatorEvent. An
    ArithmeticFault is unwrapped to the kernel error that caused it.
    sm64_next has no counterpart: the core never exposes a raw draw.
    """

    @staticmethod
    def clean_binop(op, a, b):
        ctx = EvalContext()
        try:
            result = binop(op, a, b, ctx)
        except ArithmeticFault as fault:
            raise fault.__cause__
        event = _one_event(ctx)
        assert not event.deviated and event.emitted_result == event.clean_result == result
        return result

    @staticmethod
    def apply_deviation(kind, clean, p_num, p_den):
        # A deterministic poisoned operand plus 0: the clean result is `clean`
        # and the event carries its deviation.
        magnitude = Fraction(p_num, p_den) if kind in ("offset", "scale") else p_num
        policy = PoisonPolicy(DeviationModel(kind, magnitude))
        ctx = EvalContext()
        try:
            binop("add", make_poisoned(clean, policy, origin_id=0, seed=0), 0, ctx)
        except ArithmeticFault as fault:
            raise fault.__cause__
        event = _one_event(ctx)
        assert event.deviated and event.clean_result == clean
        return event.emitted_result

    @staticmethod
    def stream_seed(seed, origin_id):
        return make_poisoned(0, make_policy(), origin_id=origin_id, seed=seed).rng_state

    @staticmethod
    def stream_child(state, step):
        parent = PoisonedScalar(0, make_policy(infectious=True), 0, state)
        ctx = EvalContext()
        ctx.step_counter = step
        child = binop("add", parent, 0, ctx)
        assert parent.rng_state == state
        return child.rng_state

    @staticmethod
    def bernoulli(state, rate):
        value = PoisonedScalar(0, make_policy(rate=rate), 0, state)
        ctx = EvalContext()
        binop("add", value, 0, ctx)
        return value.rng_state, _one_event(ctx).deviated


@pytest.fixture(params=["py", "c"])
def k(request):
    return _kernel if request.param == "py" else _CorePath


class TestCleanBinop:
    def test_arithmetic(self, k):
        assert k.clean_binop("add", 2, 3) == 5
        assert k.clean_binop("sub", 2, 3) == -1
        assert k.clean_binop("mul", -4, 6) == -24

    @pytest.mark.parametrize(
        "a,b,expected",
        [(7, 3, 1), (-7, 3, 2), (7, -3, -2), (-7, -3, -1), (I64_MIN, -1, 0), (5, 5, 0)],
    )
    def test_mod_is_floor_mod(self, k, a, b, expected):
        assert k.clean_binop("mod", a, b) == expected

    def test_mod_by_zero(self, k):
        with pytest.raises(ZeroDivisionError):
            k.clean_binop("mod", 1, 0)

    def test_comparisons_return_01(self, k):
        assert k.clean_binop("eq", 4, 4) == 1
        assert k.clean_binop("eq", 4, 5) == 0
        assert k.clean_binop("neq", 4, 5) == 1
        assert k.clean_binop("lt", -1, 0) == 1
        assert k.clean_binop("lt", 0, -1) == 0

    @pytest.mark.parametrize(
        "op,a,b",
        [
            ("add", I64_MAX, 1),
            ("add", I64_MIN, -1),
            ("sub", I64_MIN, 1),
            ("mul", I64_MAX, 2),
            ("mul", I64_MIN, -1),
        ],
        # The ids the cases had when operators were integer constants, kept stable.
        ids=lambda v: f"OP_{v.upper()}" if isinstance(v, str) else None,
    )
    def test_overflow(self, k, op, a, b):
        with pytest.raises(OverflowError):
            k.clean_binop(op, a, b)

    def test_sub_from_zero(self, k):
        """Negation is subtraction from zero; only INT64_MIN has no negative."""
        assert k.clean_binop("sub", 0, 5) == -5
        assert k.clean_binop("sub", 0, I64_MAX) == I64_MIN + 1
        with pytest.raises(OverflowError):
            k.clean_binop("sub", 0, I64_MIN)


def test_unknown_names_are_rejected(ctx):
    """A name outside the kernel's sets is a ValueError; binop then moves no counter and records nothing.

    "neg" is no operator: negation is binop("sub", 0, x, ctx).
    """
    unknown = ("div", "ADD", "offset", "", "neg")
    poisoned = make_poisoned(1, make_policy(uses=3), origin_id=0, seed=0)
    other = make_poisoned(2, make_policy(uses=3), origin_id=1, seed=0)
    for op in unknown:
        for rhs in (None, 0, other):
            with pytest.raises(ValueError, match="unknown operator"):
                binop(op, poisoned, rhs, ctx)  # the name is checked before any operand
            assert ctx.step_counter == 0 and ctx.event_sink == []
            assert poisoned.uses_remaining == other.uses_remaining == 3
    for op in unknown:
        with pytest.raises(ValueError, match="unknown operator"):
            _kernel.clean_binop(op, 1, 2)
    for kind in ("div", "OFFSET", "add", ""):
        with pytest.raises(ValueError, match="unknown deviation kind"):
            _kernel.apply_deviation(kind, 1, 1, 1)


class TestApplyDeviation:
    def test_scale_one_percent(self, k):
        # "1% more than the correct value"
        assert k.apply_deviation("scale", 200, 101, 100) == 202

    def test_offset(self, k):
        assert k.apply_deviation("offset", 0, 1, 1) == 1
        assert k.apply_deviation("offset", 10, -3, 1) == 7

    def test_stuck_at(self, k):
        assert k.apply_deviation("stuck_at", -13, 7, 1) == 7

    def test_bitflip(self, k):
        assert k.apply_deviation("bitflip", 4, 0, 1) == 5
        assert k.apply_deviation("bitflip", 0, 63, 1) == I64_MIN
        assert k.apply_deviation("bitflip", -1, 63, 1) == I64_MAX

    @pytest.mark.parametrize(
        "clean,num,den,expected",
        [
            (3, 1, 2, 2),  # 1.5 -> 2
            (5, 1, 2, 2),  # 2.5 -> 2 (ties to even)
            (1, 1, 2, 0),  # 0.5 -> 0
            (-1, 1, 2, 0),  # -0.5 -> 0
            (-3, 1, 2, -2),  # -1.5 -> -2
            (-5, 1, 2, -2),  # -2.5 -> -2
        ],
    )
    def test_scale_rounds_half_to_even(self, k, clean, num, den, expected):
        assert k.apply_deviation("scale", clean, num, den) == expected

    def test_scale_overflow(self, k):
        with pytest.raises(OverflowError):
            k.apply_deviation("scale", I64_MAX, 2, 1)


class TestDrawStream:
    # The raw SplitMix64 step is the kernel's alone.
    @pytest.mark.parametrize("k", ["py"], indirect=True)
    def test_splitmix_known_answer(self, k):
        # First outputs of the reference SplitMix64 sequence for seed 0.
        state, z = k.sm64_next(0)
        assert z == 0xE220A8397B1DCDAF
        state, z = k.sm64_next(state)
        assert z == 0x6E789E6AA1B965F4
        state, z = k.sm64_next(state)
        assert z == 0x06C45D188009454F

    def test_stream_seed_depends_on_both_inputs(self, k):
        assert k.stream_seed(1, 0) != k.stream_seed(2, 0)
        assert k.stream_seed(1, 0) != k.stream_seed(1, 1)

    def test_frozen_bernoulli_count(self, k):
        # Frozen from the reference stream (seed 2024, origin 0, rate 0.25).
        state = k.stream_seed(2024, 0)
        count = 0
        for _ in range(10_000):
            state, fired = k.bernoulli(state, 0.25)
            count += fired
        assert count == 2537

    def test_child_stream_leaves_parent_alone(self, k):
        parent = k.stream_seed(9, 4)
        child = k.stream_child(parent, 17)
        assert child != parent
        assert k.stream_child(parent, 17) == child
        assert k.stream_child(parent, 18) != child


@settings(max_examples=300)
@given(int64s, int64s, st.sampled_from(["add", "sub", "mul", "mod"]))
def test_arithmetic_matches_bigint_oracle(a, b, op):
    """Kernel arithmetic equals unbounded integer math or raises on overflow."""
    k = _kernel
    if op == "mod" and b == 0:
        with pytest.raises(ZeroDivisionError):
            k.clean_binop(op, a, b)
        return
    exact = {"add": a + b, "sub": a - b, "mul": a * b, "mod": a % b if b else 0}[op]
    if I64_MIN <= exact <= I64_MAX:
        assert k.clean_binop(op, a, b) == exact
    else:
        with pytest.raises(OverflowError):
            k.clean_binop(op, a, b)


@settings(max_examples=300)
@given(
    int64s,
    st.integers(min_value=-(10**9), max_value=10**9),
    st.integers(min_value=1, max_value=10**6),
)
def test_scale_matches_fraction_oracle(clean, num, den):
    """Rational scaling rounds half-to-even exactly as Fraction arithmetic."""
    exact = Fraction(clean) * Fraction(num, den)
    floor, remainder = divmod(exact.numerator, exact.denominator)
    if 2 * remainder > exact.denominator or (
        2 * remainder == exact.denominator and floor % 2
    ):
        floor += 1
    if I64_MIN <= floor <= I64_MAX:
        assert _kernel.apply_deviation("scale", clean, num, den) == floor
    else:
        with pytest.raises(OverflowError):
            _kernel.apply_deviation("scale", clean, num, den)


@settings(max_examples=200)
@given(int64s, st.integers(min_value=0, max_value=63))
def test_bitflip_is_an_involution(value, bit):
    k = _kernel
    once = k.apply_deviation("bitflip", value, bit, 1)
    assert I64_MIN <= once <= I64_MAX
    assert once != value
    assert k.apply_deviation("bitflip", once, bit, 1) == value


# The flip done the long way: toggle the bit in the u64 representation, then read it back signed.
@settings(max_examples=300)
@given(int64s, st.integers(min_value=0, max_value=63))
@example(I64_MIN, 63)
@example(-1, 63)
@example(I64_MAX, 62)
def test_bitflip_matches_the_unsigned_flip(value, bit):
    u = (value % 2**64) ^ (1 << bit)
    assert _kernel.apply_deviation("bitflip", value, bit, 1) == (u - 2**64 if u >= 2**63 else u)


# bernoulli writes out sm64_next's step and mix to save a call; the two copies must agree.
# The third example's rate is the draw itself, which is not below it.
@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
@example(0, 0.5)
@example(2**64 - 1, 0.5)
@example(0, (0xE220A8397B1DCDAF >> 11) * 2**-53)
def test_bernoulli_is_one_sm64_next_step(state, rate):
    new_state, z = _kernel.sm64_next(state)
    assert _kernel.bernoulli(state, rate) == (new_state, (z >> 11) * 2**-53 < rate)


# stream_seed writes out two sm64_next steps to save calls; both inputs are taken modulo 2**64,
# so the property draws them past 64 bits and below zero.
@settings(max_examples=300)
@given(st.integers(min_value=-(2**70), max_value=2**70),
       st.integers(min_value=-(2**70), max_value=2**70))
@example(0, 0)
@example(2**64 - 1, -1)
@example(-1, 2**64)
def test_stream_seed_is_two_sm64_next_steps(seed, origin_id):
    _, z = _kernel.sm64_next(seed % 2**64)
    _, expected = _kernel.sm64_next(z ^ (origin_id % 2**64))
    assert _kernel.stream_seed(seed, origin_id) == expected


class TestBackendEquivalence:
    """The core's operators agree bit for bit with the kernel they call."""

    @settings(max_examples=400)
    @given(int64s, int64s, st.sampled_from(sorted(_kernel.BINARY_OPS)))
    def test_binop_bitwise_equal(self, a, b, op):
        try:
            expected = _kernel.clean_binop(op, a, b)
        except (OverflowError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)):
                _CorePath.clean_binop(op, a, b)
        else:
            assert _CorePath.clean_binop(op, a, b) == expected

    @settings(max_examples=300)
    @given(
        st.sampled_from(_kernel.DEVIATION_KINDS),
        int64s,
        st.integers(min_value=-(10**12), max_value=10**12),
        st.integers(min_value=1, max_value=10**9),
    )
    def test_deviation_bitwise_equal(self, kind, clean, num, den):
        if kind == "bitflip":
            num, den = abs(num) % 64, 1
        # A policy may not offset by 0 or scale by 1.
        assume(not (kind == "offset" and num == 0))
        assume(not (kind == "scale" and num == den))
        try:
            expected = _kernel.apply_deviation(kind, clean, num, den)
        except OverflowError:
            with pytest.raises(OverflowError):
                _CorePath.apply_deviation(kind, clean, num, den)
        else:
            assert _CorePath.apply_deviation(kind, clean, num, den) == expected

    @settings(max_examples=100)
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=2**32),
        st.floats(min_value=0.001, max_value=0.999),
    )
    def test_streams_bitwise_equal(self, seed, origin, rate):
        state = _kernel.stream_seed(seed, origin)
        assert _CorePath.stream_seed(seed, origin) == state
        assert _CorePath.stream_child(state, 7) == _kernel.stream_child(state, 7)
        for _ in range(50):
            expected = _kernel.bernoulli(state, rate)
            assert _CorePath.bernoulli(state, rate) == expected
            state = expected[0]

    @pytest.mark.parametrize("origin_id", [-1, -(2**63), 0, 7, I64_MAX])
    def test_make_poisoned_origin_outside_u64(self, origin_id):
        # The stream takes a negative origin_id modulo 2**64; the value keeps the caller's id.
        p = make_poisoned(3, make_policy(), origin_id=origin_id, seed=0)
        assert p.origin_id == origin_id
        assert p.rng_state == _kernel.stream_seed(0, origin_id % 2**64)
