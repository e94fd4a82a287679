"""Operator-interception semantics: effect, lifetime, infection, suppression."""

from contextlib import nullcontext as _null_scope
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_policy
from poisonring import (
    ArithmeticFault,
    DeviationModel,
    EvalContext,
    PoisonPolicy,
    PoisonedScalar,
    PolicyError,
    binop,
    deviate,
    is_poisoned,
    make_poisoned,
    unop,
    with_suppression,
)
from poisonring._kernel import INT64_MAX, INT64_MIN, bernoulli, stream_seed


class TestDeviationModel:
    def test_float_magnitude_reads_as_decimal(self):
        assert DeviationModel("scale", 1.01).magnitude == Fraction(101, 100)

    def test_offset_zero_rejected(self):
        with pytest.raises(PolicyError, match="offset magnitude"):
            DeviationModel("offset", 0)

    def test_scale_one_rejected(self):
        with pytest.raises(PolicyError, match="scale magnitude"):
            DeviationModel("scale", 1)

    @pytest.mark.parametrize("bit", [-1, 64, 1000])
    def test_bitflip_index_bounds(self, bit):
        with pytest.raises(PolicyError, match="bit index"):
            DeviationModel("bitflip", bit)

    def test_stuck_at_range(self):
        DeviationModel("stuck_at", INT64_MIN)
        with pytest.raises(PolicyError, match="stuck_at"):
            DeviationModel("stuck_at", INT64_MAX + 1)

    def test_unknown_kind(self):
        with pytest.raises(PolicyError, match="kind"):
            DeviationModel("gauss", 1)

    @pytest.mark.parametrize("kind", [["offset"], {}, None, 1, b"offset"])
    def test_non_string_kind(self, kind):
        # An unhashable kind used to escape as a raw TypeError.
        with pytest.raises(PolicyError, match="deviation kind"):
            DeviationModel(kind, 1)


class TestPoisonPolicy:
    def test_rate_one_must_be_deterministic(self):
        with pytest.raises(PolicyError, match=r"rate must lie in \(0,1\)"):
            make_policy(rate=1.0)

    @pytest.mark.parametrize("rate", [0.0, -0.5, 1.5])
    def test_rate_open_interval(self, rate):
        with pytest.raises(PolicyError, match="rate"):
            make_policy(rate=rate)

    def test_uses_positive(self):
        with pytest.raises(PolicyError, match="uses"):
            make_policy(uses=0)

    @pytest.mark.parametrize("uses", [True, 2.0, "2"])
    def test_uses_must_be_a_plain_int(self, uses):
        with pytest.raises(PolicyError, match="uses must be an integer"):
            make_policy(uses=uses)

    @pytest.mark.parametrize("infectious", [1, 0, "yes", None])
    def test_infectious_must_be_a_bool(self, infectious):
        with pytest.raises(PolicyError, match="infectious must be a boolean"):
            make_policy(infectious=infectious)

    def test_valid_combinations(self):
        assert make_policy().is_intermittent is False
        assert make_policy(rate=0.25, uses=3).is_transient is True


class TestMakePoisoned:
    def test_reference_constructor_shape(self, ctx):
        p = make_poisoned(0, make_policy(infectious=True), origin_id=0, seed=42)
        assert p.clean_value == 0
        assert is_poisoned(p)
        assert ctx.event_sink == []  # construction emits no event

    def test_plain_contract(self):
        p = make_poisoned(7, make_policy(rate=0.5, uses=2), origin_id=3, seed=0)
        assert p.clean_value == 7
        assert is_poisoned(p)
        assert p.origin_id == 3
        assert p.uses_remaining == 2

    def test_stream_derivation(self):
        p = make_poisoned(7, make_policy(rate=0.5), origin_id=3, seed=11)
        assert p.rng_state == stream_seed(11, 3)

    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            make_poisoned(INT64_MAX + 1, make_policy(), 0, 0)


class TestDeviate:
    def test_scale_one_percent(self):
        assert deviate(DeviationModel("scale", 1.01), 200) == 202

    def test_offset(self):
        assert deviate(DeviationModel("offset", 1), 0) == 1

    def test_bitflip(self):
        assert deviate(DeviationModel("bitflip", 0), 4) == 5

    def test_stuck_at(self):
        assert deviate(DeviationModel("stuck_at", 7), -13) == 7

    def test_overflow(self):
        with pytest.raises(OverflowError):
            deviate(DeviationModel("offset", 1), INT64_MAX)


class TestBinop:
    def test_infectious_offset_add(self, ctx):
        p = make_poisoned(0, make_policy(infectious=True), 0, seed=42)
        result = binop("add", p, 1, ctx)
        event = ctx.event_sink[-1]
        assert event.clean_result == 1
        assert event.emitted_result == 2
        assert event.deviated is True
        assert is_poisoned(result)
        assert result.clean_value == 1  # shadow computation stays exact

    def test_comparison_deviation_is_negation(self, ctx):
        p = make_poisoned(0, make_policy(), 0, seed=42)
        result = binop("eq", p, 0, ctx)
        event = ctx.event_sink[-1]
        assert event.clean_result is True
        assert event.emitted_result is False
        assert event.deviated is True
        assert result is False
        assert isinstance(result, bool)  # comparisons are never wrapped

    def test_clean_operands_pass_through(self, ctx):
        assert binop("add", 2, 3, ctx) == 5
        assert binop("lt", 2, 3, ctx) is True
        assert all(not e.deviated for e in ctx.event_sink)
        assert [e.step for e in ctx.event_sink] == [0, 1]

    def test_non_infectious_returns_clean_int(self, ctx):
        p = make_poisoned(10, make_policy(), 0, seed=1)
        result = binop("mul", p, 2, ctx)
        assert result == 20
        assert not is_poisoned(result)
        assert ctx.event_sink[-1].emitted_result == 21

    def test_transient_single_use(self, ctx):
        p = make_poisoned(1, make_policy(uses=1), 0, seed=5)
        binop("add", p, 5, ctx)
        first = ctx.event_sink[-1]
        assert first.deviated is True
        assert first.lifetime_after == 0
        assert not is_poisoned(p)
        binop("add", p, 5, ctx)
        second = ctx.event_sink[-1]
        assert second.deviated is False
        assert second.lhs_poisoned is False

    def test_left_operand_governs(self, ctx):
        left = make_poisoned(3, make_policy(magnitude=1, uses=4), 0, seed=1)
        right = make_poisoned(4, make_policy(magnitude=100, uses=4), 1, seed=1)
        result = binop("add", left, right, ctx)
        event = ctx.event_sink[-1]
        assert event.emitted_result == 8  # left's offset +1, not right's +100
        assert event.origin_id == 0
        assert left.uses_remaining == 3
        assert right.uses_remaining == 3  # right's lifetime still consumed
        assert result == 7

    def test_same_object_both_slots_consumes_once(self, ctx):
        p = make_poisoned(2, make_policy(uses=3), 0, seed=1)
        binop("add", p, p, ctx)
        assert p.uses_remaining == 2

    def test_right_operand_governs_when_left_clean(self, ctx):
        right = make_poisoned(4, make_policy(magnitude=100, infectious=True), 1, seed=1)
        result = binop("add", 1, right, ctx)
        event = ctx.event_sink[-1]
        assert event.emitted_result == 105
        assert event.origin_id == 1
        assert is_poisoned(result)

    def test_mod_by_zero_carries_step(self, ctx):
        binop("add", 1, 1, ctx)
        with pytest.raises(ArithmeticFault) as excinfo:
            binop("mod", 5, 0, ctx)
        assert excinfo.value.step == 1
        assert ctx.step_counter == 2

    def test_overflow_is_a_fault(self, ctx):
        with pytest.raises(ArithmeticFault):
            binop("mul", INT64_MAX, 2, ctx)

    def test_deviated_result_overflow_is_a_fault(self, ctx):
        p = make_poisoned(INT64_MAX, make_policy(), 0, seed=1)
        with pytest.raises(ArithmeticFault):
            binop("add", p, 0, ctx)

    def test_unknown_operator(self, ctx):
        with pytest.raises(ValueError, match="unknown operator"):
            binop("xor", 1, 2, ctx)

    def test_rejects_non_integer_operand(self, ctx):
        with pytest.raises(TypeError):
            binop("add", "1", 2, ctx)

    def test_deterministic_policy_never_draws(self, ctx):
        p = make_poisoned(1, make_policy(), 0, seed=9)
        before = p.rng_state
        for _ in range(10):
            binop("add", p, 1, ctx)
        assert p.rng_state == before

    def test_intermittent_draws_match_reference_stream(self, ctx):
        p = make_poisoned(1, make_policy(rate=0.4), 0, seed=77)
        flags = [binop_deviated(p, ctx) for _ in range(200)]
        state = stream_seed(77, 0)
        expected = []
        for _ in range(200):
            state, fired = bernoulli(state, 0.4)
            expected.append(bool(fired))
        assert flags == expected


def binop_deviated(p, ctx):
    binop("mul", p, 1, ctx)
    return ctx.event_sink[-1].deviated


class TestUnop:
    def test_clean(self, ctx):
        assert unop("neg", 3, ctx) == -3
        event = ctx.event_sink[-1]
        assert event.deviated is False
        assert event.rhs_clean is None

    def test_poisoned_non_infectious(self, ctx):
        p = make_poisoned(2, make_policy(), 0, seed=1)
        result = unop("neg", p, ctx)
        event = ctx.event_sink[-1]
        assert event.clean_result == -2
        assert event.emitted_result == -1  # clean -2, then offset +1
        assert result == -2
        assert not is_poisoned(result)

    def test_suppressed_leaves_lifetime(self, ctx):
        p = make_poisoned(2, make_policy(uses=2), 0, seed=1)
        with ctx.suppression():
            result = unop("neg", p, ctx)
        event = ctx.event_sink[-1]
        assert result == -2
        assert event.deviated is False
        assert event.suppressed is True
        assert event.lifetime_after == 2
        assert p.uses_remaining == 2

    def test_infectious_wraps_result(self, ctx):
        p = make_poisoned(2, make_policy(infectious=True), 5, seed=1)
        result = unop("neg", p, ctx)
        assert is_poisoned(result)
        assert result.clean_value == -2
        assert result.origin_id == 5

    def test_overflow(self, ctx):
        with pytest.raises(ArithmeticFault):
            unop("neg", INT64_MIN, ctx)


class _Small(IntEnum):
    THREE = 3


class TestOperandFastPath:
    """Exact in-range ints skip the operand checks; every other operand still takes them."""

    def test_int64_bounds_accepted(self, ctx):
        assert binop("lt", INT64_MIN, INT64_MAX, ctx) is True
        assert binop("add", INT64_MAX, INT64_MIN, ctx) == -1
        assert unop("neg", INT64_MAX, ctx) == -INT64_MAX
        assert unop("neg", INT64_MIN + 1, ctx) == INT64_MAX
        first = ctx.event_sink[0]
        assert (first.lhs_clean, first.rhs_clean) == (INT64_MIN, INT64_MAX)
        assert not (first.lhs_poisoned or first.rhs_poisoned)
        assert ctx.event_sink[2].lhs_clean == INT64_MAX

    @pytest.mark.parametrize(
        "call,error",
        [
            (lambda ctx: binop("add", INT64_MAX + 1, 0, ctx), ValueError),
            (lambda ctx: binop("add", 0, INT64_MIN - 1, ctx), ValueError),
            (lambda ctx: unop("neg", INT64_MAX + 1, ctx), ValueError),
            (lambda ctx: binop("add", True, 0, ctx), TypeError),
            (lambda ctx: binop("eq", 0, False, ctx), TypeError),
            (lambda ctx: unop("neg", True, ctx), TypeError),
        ],
        ids=["lhs_above", "rhs_below", "neg_above", "lhs_bool", "rhs_bool", "neg_bool"],
    )
    def test_rejected_operand_leaves_context_unchanged(self, ctx, call, error):
        binop("add", 1, 1, ctx)
        sink = list(ctx.event_sink)
        with pytest.raises(error):
            call(ctx)
        assert ctx.step_counter == 1
        assert ctx.event_sink == sink

    @pytest.mark.parametrize("op", ["add", "mul", "mod", "lt", "neq"])
    def test_int_enum_operand_matches_its_int(self, op):
        with_enum, with_int = EvalContext(), EvalContext()
        assert binop(op, _Small.THREE, 2, with_enum) == binop(op, 3, 2, with_int)
        assert binop(op, 5, _Small.THREE, with_enum) == binop(op, 5, 3, with_int)
        assert unop("neg", _Small.THREE, with_enum) == unop("neg", 3, with_int)
        assert with_enum.event_sink == with_int.event_sink


class TestSuppression:
    def test_suppressed_eq_uses_clean_semantics(self, ctx):
        p = make_poisoned(0, make_policy(), 0, seed=42)
        assert with_suppression(ctx, binop, "eq", p, 0, ctx) is True
        event = ctx.event_sink[-1]
        assert event.suppressed is True
        assert event.deviated is False
        assert event.lhs_poisoned is True  # the use is still visible in the trace
        assert event.origin_id == 0

    def test_nesting_depth(self, ctx):
        with ctx.suppression():
            with ctx.suppression():
                assert ctx.suppression_depth == 2
            assert ctx.suppressed  # still suppressed after one exit
        assert not ctx.suppressed

    def test_restored_on_error(self, ctx):
        with pytest.raises(RuntimeError):
            with ctx.suppression():
                raise RuntimeError("boom")
        assert ctx.suppression_depth == 0

    def test_scope_binds_the_context(self, ctx):
        with ctx.suppression() as bound:
            assert bound is ctx
            assert ctx.suppression_depth == 1

    def test_inner_error_restores_the_outer_depth(self, ctx):
        with ctx.suppression():
            with pytest.raises(RuntimeError):
                with ctx.suppression():
                    assert ctx.suppression_depth == 2
                    raise RuntimeError("boom")
            assert ctx.suppression_depth == 1
        assert ctx.suppression_depth == 0

    def test_no_rng_advance_under_suppression(self, ctx):
        p = make_poisoned(1, make_policy(rate=0.5), 0, seed=3)
        before = p.rng_state
        with ctx.suppression():
            for _ in range(5):
                binop("add", p, 1, ctx)
        assert p.rng_state == before
        assert all(e.suppressed for e in ctx.event_sink)

    def test_step_counter_counts_suppressed_ops(self, ctx):
        binop("add", 1, 1, ctx)
        with ctx.suppression():
            binop("add", 1, 1, ctx)
        binop("add", 1, 1, ctx)
        assert [e.step for e in ctx.event_sink] == [0, 1, 2]


class TestInfection:
    def test_chain_preserves_origin_and_reseeds_stream(self, ctx):
        p = make_poisoned(3, make_policy(rate=0.5, infectious=True), 7, seed=2)
        x = binop("add", p, 1, ctx)
        y = binop("mul", x, 2, ctx)
        assert is_poisoned(x) and is_poisoned(y)
        assert x.origin_id == y.origin_id == 7
        assert x.rng_state != p.rng_state
        assert x.uses_remaining is None  # always-lifetime policy

    def test_infected_transient_gets_fresh_counter(self, ctx):
        p = make_poisoned(3, make_policy(uses=1, infectious=True), 0, seed=2)
        x = binop("add", p, 1, ctx)
        assert not is_poisoned(p)  # parent expired on its last use
        assert is_poisoned(x)
        assert x.uses_remaining == 1

    def test_comparisons_never_infect(self, ctx):
        p = make_poisoned(3, make_policy(infectious=True), 0, seed=2)
        result = binop("lt", p, 10, ctx)
        assert isinstance(result, bool)


class TestDeterminism:
    def test_identical_runs_identical_events(self):
        def one_run():
            ctx = EvalContext()
            p = make_poisoned(5, make_policy(rate=0.3, uses=10, infectious=True), 0, seed=99)
            x = p
            for i in range(30):
                x = binop("add", x, i % 3, ctx)
                binop("eq", x, 5, ctx)
            return ctx.event_sink

        first = one_run()
        second = one_run()
        assert first == second


# Property tests for the effect/lifetime/infection definitions.

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["add", "sub", "mul", "mod", "eq", "neq", "lt"]),
        st.integers(min_value=2, max_value=50),
        st.booleans(),  # apply under suppression?
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=100)
@given(ops_strategy)
def test_deterministic_effect_deviates_on_every_use(ops):
    """Every unsuppressed use of a deterministic-effect value deviates."""
    ctx = EvalContext()
    p = make_poisoned(7, make_policy(), 0, seed=13)
    for op, operand, suppress in ops:
        if suppress:
            with ctx.suppression():
                binop(op, p, operand, ctx)
        else:
            binop(op, p, operand, ctx)
    used = [e for e in ctx.event_sink if not e.suppressed]
    assert all(e.deviated for e in used)
    assert len(used) == sum(1 for _, _, s in ops if not s)


@settings(max_examples=100)
@given(ops_strategy)
def test_deviation_implies_use(ops):
    """dev(S,v) implies uses(S,v): no deviation without a poisoned operand."""
    ctx = EvalContext()
    p = make_poisoned(7, make_policy(rate=0.5, uses=5), 0, seed=21)
    for op, operand, suppress in ops:
        scope = ctx.suppression() if suppress else _null_scope()
        with scope:
            binop(op, p, operand, ctx)
            binop(op, operand, operand + 1, ctx)  # clean noise op
    for event in ctx.event_sink:
        if event.deviated:
            assert event.lhs_poisoned or event.rhs_poisoned
            assert not event.suppressed
        if not (event.lhs_poisoned or event.rhs_poisoned):
            assert event.emitted_result == event.clean_result


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=10), ops_strategy)
def test_transient_expires_after_exact_unsuppressed_uses(uses, ops):
    ctx = EvalContext()
    p = make_poisoned(7, make_policy(uses=uses), 0, seed=3)
    unsuppressed_seen = 0
    for op, operand, suppress in ops:
        if suppress:
            with ctx.suppression():
                binop(op, p, operand, ctx)
        else:
            binop(op, p, operand, ctx)
            unsuppressed_seen += 1
        expected_active = unsuppressed_seen < uses
        assert is_poisoned(p) == expected_active
    assert is_poisoned(p) == (unsuppressed_seen < uses)


@settings(max_examples=100)
@given(ops_strategy)
def test_always_lifetime_never_expires(ops):
    ctx = EvalContext()
    p = make_poisoned(7, make_policy(rate=0.5), 0, seed=3)
    for op, operand, suppress in ops:
        assert is_poisoned(p)
        if suppress:
            with ctx.suppression():
                binop(op, p, operand, ctx)
        else:
            binop(op, p, operand, ctx)
        assert is_poisoned(p)


@settings(max_examples=100)
@given(st.booleans(), st.sampled_from(["add", "sub", "mul", "mod"]), st.integers(2, 50))
def test_infection_follows_policy(infectious, op, operand):
    ctx = EvalContext()
    p = make_poisoned(7, make_policy(infectious=infectious), 0, seed=3)
    result = binop(op, p, operand, ctx)
    assert is_poisoned(result) == infectious


@settings(max_examples=60)
@given(
    st.integers(min_value=-100, max_value=100),
    st.lists(
        st.tuples(st.sampled_from(["add", "sub", "mul", "mod"]), st.integers(2, 9)),
        min_size=1,
        max_size=20,
    ),
)
def test_clean_value_conservation(start, chain):
    """The shadow clean value tracks exact math no matter what deviates."""
    ctx = EvalContext()
    x = make_poisoned(start, make_policy(kind="stuck_at", magnitude=0, infectious=True), 0, seed=4)
    expected = start
    for op, operand in chain:
        x = binop(op, x, operand, ctx)
        expected = {
            "add": expected + operand,
            "sub": expected - operand,
            "mul": expected * operand,
            "mod": expected % operand,
        }[op]
    assert is_poisoned(x)
    assert x.clean_value == expected


def test_rng_schedule_isolated_between_origins():
    """Ops on one poisoned value never perturb another value's draw schedule."""

    def flags_for_a(interleave: bool):
        ctx = EvalContext()
        a = make_poisoned(1, make_policy(rate=0.5), 0, seed=6)
        b = make_poisoned(1, make_policy(rate=0.5), 1, seed=6)
        flags = []
        for _ in range(40):
            binop("add", a, 1, ctx)
            flags.append(ctx.event_sink[-1].deviated)
            if interleave:
                binop("add", b, 1, ctx)
        return flags

    assert flags_for_a(False) == flags_for_a(True)
