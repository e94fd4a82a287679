"""Operator-interception semantics: effect, lifetime, infection, suppression."""

from collections import deque
from contextlib import nullcontext as _null_scope
from dataclasses import replace
from enum import Enum, IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_policy
from unop_reference import reference_binop, reference_unop
from poisonring import (
    ArithmeticFault,
    DeviationModel,
    EvalContext,
    PoisonPolicy,
    PoisonedScalar,
    PolicyError,
    RingState,
    RunRecord,
    binop,
    clean_value_of,
    deviation_stats,
    dumps_record,
    is_poisoned,
    loads_record,
    make_poisoned,
    run,
)
from poisonring import _kernel
from poisonring._kernel import (
    BINARY_OPS,
    COMPARISONS,
    INT64_MAX,
    INT64_MIN,
    bernoulli,
    clean_binop,
    stream_seed,
)
from poisonring.cli import load_scenario
from poisonring.ring_sim import has_privilege

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


class _Small(IntEnum):
    THREE = 3


# The messages make_poisoned's checks give, up to the value shown.
_SEED_BOUNDS = r"^seed must be an integer in \[0, 18446744073709551615\], got "
_ORIGIN_BOUNDS = (r"^origin_id must be an integer in "
                  r"\[-9223372036854775808, 9223372036854775807\], got ")


class TestDeviationModel:
    def test_float_magnitude_reads_as_decimal(self):
        assert DeviationModel("scale", 1.01).magnitude == Fraction(101, 100)

    def test_offset_zero_rejected(self):
        with pytest.raises(PolicyError, match="offset magnitude"):
            DeviationModel("offset", 0)

    def test_scale_one_rejected(self):
        with pytest.raises(PolicyError, match="scale magnitude"):
            DeviationModel("scale", 1)

    @pytest.mark.parametrize("bit", [-1, 64, 1000, 1.5, _Small.THREE])
    def test_bitflip_index_bounds(self, bit):
        message = r"^bitflip magnitude must be an integer in \[0, 63\], got "
        with pytest.raises(PolicyError, match=message):
            DeviationModel("bitflip", bit)

    def test_stuck_at_range(self):
        DeviationModel("stuck_at", INT64_MIN)
        with pytest.raises(PolicyError, match="stuck_at"):
            DeviationModel("stuck_at", INT64_MAX + 1)

    @pytest.mark.parametrize("magnitude", [True, 3.0, _Small.THREE])
    def test_stuck_at_magnitude_is_an_exact_int(self, magnitude):
        with pytest.raises(PolicyError, match="stuck_at magnitude must be an integer"):
            DeviationModel("stuck_at", magnitude)

    @pytest.mark.parametrize("kind,magnitude", [("offset", True), ("scale", False)])
    def test_rational_magnitude_is_not_a_bool(self, kind, magnitude):
        with pytest.raises(PolicyError, match=f"^{kind} magnitude must be a number, not bool$"):
            DeviationModel(kind, magnitude)

    @pytest.mark.parametrize("kind,magnitude", [("offset", 2**70), ("scale", 1e-30)])
    def test_magnitude_beyond_64_bits(self, kind, magnitude):
        with pytest.raises(PolicyError, match="numerator/denominator exceed 64 bits"):
            DeviationModel(kind, magnitude)

    def test_unknown_kind(self):
        with pytest.raises(PolicyError, match="kind"):
            DeviationModel("gauss", 1)

    @pytest.mark.parametrize("kind", [["offset"], {}, None, 1, b"offset",
                                      pytest.param(10**5000, id="huge")])
    def test_non_string_kind(self, kind):
        # An unhashable kind used to escape as a raw TypeError, a huge int as a raw ValueError.
        with pytest.raises(PolicyError, match=rf"deviation kind .*, got {type(kind).__name__}$"):
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

    @pytest.mark.parametrize("uses", [-1, INT64_MAX + 1, 10**5000], ids=["minus_1", "2_63", "huge"])
    def test_uses_within_int64(self, uses):
        message = rf"^uses must be an integer in \[1, {INT64_MAX}\], got "
        with pytest.raises(PolicyError, match=message):
            make_policy(uses=uses)

    @pytest.mark.parametrize("uses", [True, 2.0, "2", _Small.THREE])
    def test_uses_must_be_a_plain_int(self, uses):
        with pytest.raises(PolicyError, match="uses must be an integer"):
            make_policy(uses=uses)

    @pytest.mark.parametrize("infectious", [1, 0, "yes", None, pytest.param(10**5000, id="huge")])
    def test_infectious_must_be_a_bool(self, infectious):
        message = rf"^infectious must be a boolean, got {type(infectious).__name__}$"
        with pytest.raises(PolicyError, match=message):
            make_policy(infectious=infectious)

    @pytest.mark.parametrize("deviation", [None, "offset", ("offset", 1)])
    def test_deviation_must_be_a_model(self, deviation):
        with pytest.raises(PolicyError, match="deviation must be a DeviationModel"):
            PoisonPolicy(deviation)

    def test_valid_combinations(self):
        assert make_policy().rate is None
        assert make_policy(rate=0.25, uses=3).uses == 3
        assert make_policy(uses=INT64_MAX).uses == INT64_MAX


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

    @pytest.mark.parametrize(
        "policy,origin_id,seed,named",
        [(DeviationModel("offset", 1), 0, 0, "policy must be a PoisonPolicy"),
         (None, 0, 0, "policy must be a PoisonPolicy"),
         (PoisonPolicy(DeviationModel("offset", 1)), True, 0, "origin_id must be an integer"),
         (PoisonPolicy(DeviationModel("offset", 1)), 1.0, 0, "origin_id must be an integer"),
         (PoisonPolicy(DeviationModel("offset", 1)), 0, -1, _SEED_BOUNDS + "-1$"),
         (PoisonPolicy(DeviationModel("offset", 1)), 0, 2**64, _SEED_BOUNDS + f"{2**64}$"),
         (PoisonPolicy(DeviationModel("offset", 1)), 0, True, _SEED_BOUNDS + "bool$"),
         (PoisonPolicy(DeviationModel("offset", 1)), _Small.THREE, 0,
          "origin_id must be an integer"),
         (PoisonPolicy(DeviationModel("offset", 1)), 0, _Small.THREE, _SEED_BOUNDS + "_Small$"),
         (PoisonPolicy(DeviationModel("offset", 1)), INT64_MAX + 1, 0,
          _ORIGIN_BOUNDS + f"{INT64_MAX + 1}$"),
         (PoisonPolicy(DeviationModel("offset", 1)), INT64_MIN - 1, 0,
          _ORIGIN_BOUNDS + f"{INT64_MIN - 1}$"),
         (PoisonPolicy(DeviationModel("offset", 1)), 10**5000, 0,
          _ORIGIN_BOUNDS + "an int of 16610 bits$")],
        ids=["model", "none", "origin_bool", "origin_float", "seed_negative", "seed_2_64",
             "seed_bool", "origin_int_enum", "seed_int_enum", "origin_2_63", "origin_below",
             "origin_huge"],
    )
    def test_rejects_bad_arguments(self, policy, origin_id, seed, named):
        with pytest.raises(PolicyError, match=named):
            make_poisoned(7, policy, origin_id, seed)

    @pytest.mark.parametrize(
        "policy,shown",
        [(None, "PoisonedScalar(7, clean)"),
         (make_policy(), "PoisonedScalar(7, poisoned, origin=3)"),
         (make_policy(uses=2), "PoisonedScalar(7, poisoned, origin=3, uses_remaining=2)")],
        ids=["clean", "always", "transient"],
    )
    def test_repr(self, policy, shown):
        assert repr(PoisonedScalar(7, policy, origin_id=3, rng_state=0)) == shown


def _deviated(model, clean, ctx):
    """The emitted result of one deterministic, non-infectious use of a value `clean`."""
    p = make_poisoned(clean, PoisonPolicy(model), origin_id=0, seed=0)
    assert binop("add", p, 0, ctx) == clean
    event = ctx.event_sink[-1]
    assert event.deviated and event.clean_result == clean
    return event.emitted_result


class TestDeviate:
    """Deviation models applied through binop, read off the event's emitted result."""

    def test_scale_one_percent(self, ctx):
        assert _deviated(DeviationModel("scale", 1.01), 200, ctx) == 202

    def test_offset(self, ctx):
        assert _deviated(DeviationModel("offset", 1), 0, ctx) == 1

    def test_bitflip(self, ctx):
        assert _deviated(DeviationModel("bitflip", 0), 4, ctx) == 5

    def test_stuck_at(self, ctx):
        assert _deviated(DeviationModel("stuck_at", 7), -13, ctx) == 7

    def test_overflow(self, ctx):
        with pytest.raises(ArithmeticFault) as raised:
            _deviated(DeviationModel("offset", 1), INT64_MAX, ctx)
        assert isinstance(raised.value.__cause__, OverflowError)


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

    def test_unhashable_operator_is_a_type_error(self, ctx):
        with pytest.raises(TypeError, match="unhashable"):
            binop(["add"], 1, 2, ctx)

    def test_str_enum_operator_records_its_name(self, ctx):
        class Op(str, Enum):
            ADD = "add"
            XOR = "xor"

        assert binop(Op.ADD, 1, 2, ctx) == 3
        [event] = ctx.event_sink
        assert event.op == "add" and type(event.op) is str
        record = RunRecord("0" * 64, 0, events=[event])
        assert loads_record(dumps_record(record)) == record
        with pytest.raises(ValueError, match="unknown operator"):
            binop(Op.XOR, 1, 2, ctx)

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


class TestNegation:
    """Negation is subtraction from zero: binop("sub", 0, x, ctx)."""

    def test_clean(self, ctx):
        assert binop("sub", 0, 3, ctx) == -3
        event = ctx.event_sink[-1]
        assert event.deviated is False
        assert (event.op, event.lhs_clean, event.lhs_poisoned) == ("sub", 0, False)
        assert (event.rhs_clean, event.rhs_poisoned) == (3, False)

    def test_poisoned_non_infectious(self, ctx):
        p = make_poisoned(2, make_policy(), 0, seed=1)
        result = binop("sub", 0, p, ctx)
        event = ctx.event_sink[-1]
        assert event.clean_result == -2
        assert event.emitted_result == -1  # clean -2, then offset +1
        assert result == -2
        assert not is_poisoned(result)

    def test_suppressed_leaves_lifetime(self, ctx):
        p = make_poisoned(2, make_policy(uses=2), 0, seed=1)
        with ctx.suppression():
            result = binop("sub", 0, p, ctx)
        assert result == -2 and type(result) is int
        assert ctx.event_sink == [] and ctx.step_counter == 1  # counted, not recorded
        assert p.uses_remaining == 2

    def test_infectious_wraps_result(self, ctx):
        p = make_poisoned(2, make_policy(infectious=True), 5, seed=1)
        result = binop("sub", 0, p, ctx)
        assert is_poisoned(result)
        assert result.clean_value == -2
        assert result.origin_id == 5

    def test_overflow(self, ctx):
        with pytest.raises(ArithmeticFault, match="^sub: "):
            binop("sub", 0, INT64_MIN, ctx)


class _Edge(IntEnum):
    MIN = INT64_MIN
    ZERO = 0
    MAX = INT64_MAX


_deviations = st.one_of(
    st.builds(DeviationModel, st.just("offset"), st.sampled_from([1, -3, Fraction(5, 2)])),
    st.builds(DeviationModel, st.just("scale"), st.sampled_from([2, -1, Fraction(101, 100)])),
    st.builds(DeviationModel, st.just("stuck_at"), st.sampled_from([INT64_MIN, 0, 7, INT64_MAX])),
    st.builds(DeviationModel, st.just("bitflip"), st.integers(0, 63)),
)
_policies = st.builds(
    PoisonPolicy,
    _deviations,
    rate=st.one_of(st.none(), st.floats(0.01, 0.99)),
    uses=st.one_of(st.none(), st.integers(1, 3)),
    infectious=st.booleans(),
)
_int64_edges = st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX])
_int64s = st.one_of(_int64_edges, st.integers(INT64_MIN, INT64_MAX))
# A recipe for a fresh operand: each run of the comparison needs its own poison state.
_operand_recipes = st.one_of(
    st.tuples(st.just("plain"), st.one_of(_int64s, st.sampled_from(list(_Edge)))),
    st.tuples(st.just("plain"), st.sampled_from([True, False, INT64_MAX + 1, INT64_MIN - 1,
                                                 3.0, "3", None])),
    st.tuples(st.just("poisoned"), _int64s, _policies, st.integers(0, 7), st.integers(0, 99)),
)


def _fresh_operand(recipe):
    if recipe[0] == "plain":
        return recipe[1]
    _, clean, policy, origin_id, seed = recipe
    return make_poisoned(clean, policy, origin_id, seed)


def _observed(value):
    """What a caller can see of a result or operand: its type, value and poison state."""
    if isinstance(value, PoisonedScalar):
        return ("scalar", value.clean_value, value.policy, value.uses_remaining,
                value.origin_id, value.rng_state)
    return (type(value), value)


@st.composite
def _used_scalars(draw):
    """A PoisonedScalar still poisoned, expired, or built with no policy, some uses spent."""
    clean, origin_id = draw(_int64s), draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["poisoned", "expired", "no policy"]))
    if kind == "no policy":
        return PoisonedScalar(clean, None, origin_id, draw(st.integers(0, 2**64 - 1)))
    policy = draw(_policies)
    if kind == "expired":
        policy = replace(policy, uses=draw(st.integers(1, 3)))
    scalar = make_poisoned(clean, policy, origin_id, draw(st.integers(0, 99)))
    spent = policy.uses if kind == "expired" else draw(st.integers(0, (policy.uses or 3) - 1))
    ctx = EvalContext()
    for _ in range(spent):  # a comparison spends a use and draws, and cannot fault
        binop("lt", scalar, 0, ctx)
    assert is_poisoned(scalar) == (kind == "poisoned")
    return scalar


@settings(max_examples=200)
@given(_used_scalars(), _policies, _int64s, st.integers(0, 2**64 - 1))
def test_make_poisoned_wraps_a_scalar_by_its_clean_value(scalar, policy, origin_id, seed):
    """make_poisoned reads a PoisonedScalar as binop does, by its clean value: none of its
    policy, uses or stream carries over, and the scalar itself is left as it was."""
    before = _observed(scalar)
    wrapped = make_poisoned(scalar, policy, origin_id, seed)
    assert _observed(scalar) == before
    expected = make_poisoned(clean_value_of(scalar), policy, origin_id, seed)
    assert _observed(wrapped) == _observed(expected)


def _outcome(apply, *args):
    try:
        return "ok", apply(*args)
    except (ArithmeticFault, TypeError, ValueError) as exc:
        return "raised", (type(exc), str(exc), getattr(exc, "step", None), type(exc.__cause__))


def _neg_outcome_as_sub(outcome):
    """A reference neg outcome as subtraction from zero gives it: a fault says "sub", not "neg"."""
    kind, result = outcome
    if kind == "raised" and result[0] is ArithmeticFault:
        error, message, step, cause = result
        assert message.startswith(("neg: ", "neg deviation: "))
        result = (error, "sub" + message[3:], step, cause)
    return kind, result


def _neg_event_as_sub(event):
    """A reference neg event as subtraction from zero records it: the operand in the rhs fields."""
    return replace(event, op="sub", lhs_clean=0, lhs_poisoned=False,
                   rhs_clean=event.lhs_clean, rhs_poisoned=event.lhs_poisoned)


@settings(max_examples=300)
@given(_operand_recipes,
       st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=6))
def test_negation_matches_the_reference_unop(recipe, calls):
    """binop("sub", 0, x) is the old separate unop("neg", x): results, counter, poison state,
    deviation_stats, and events once neg's lhs fields are read as sub's rhs fields.

    Each call runs suppressed or not, on the original operand or on the last
    result (an infected child, when the policy is infectious).
    """
    runs = []
    for negate in (lambda x, ctx: binop("sub", 0, x, ctx),
                   lambda x, ctx: reference_unop("neg", x, ctx)):
        ctx = EvalContext()
        operand = _fresh_operand(recipe)
        last = operand
        seen = []
        for suppressed, on_last in calls:
            with ctx.suppression() if suppressed else _null_scope():
                kind, result = _outcome(negate, last if on_last else operand, ctx)
            if kind == "ok":
                last = result
                result = _observed(result)
            seen.append(((kind, result), ctx.step_counter, _observed(operand)))
        runs.append((seen, ctx.event_sink))
    (seen, events), (reference_seen, reference_events) = runs
    assert seen == [(_neg_outcome_as_sub(outcome), step, state)
                    for outcome, step, state in reference_seen]
    assert events == [_neg_event_as_sub(event) for event in reference_events]
    assert deviation_stats(RunRecord("", 0, events=events)) == deviation_stats(
        RunRecord("", 0, events=reference_events)
    )


@settings(max_examples=300)
@given(_operand_recipes,
       st.one_of(st.just("same"), _operand_recipes),
       st.lists(st.tuples(st.sampled_from(sorted(BINARY_OPS)), st.booleans(), st.booleans()),
                min_size=1, max_size=6))
def test_binop_matches_the_reference_path(left_recipe, right_recipe, calls):
    """binop with the policy block inlined is the old binop that called it: same observables.

    The right operand is a fresh one or the left operand object itself. Each
    call runs suppressed or not, on the original operands or with the last
    result in the left slot (in both slots when one object fills them).
    """
    runs = []
    for apply in (binop, reference_binop):
        ctx = EvalContext()
        left = _fresh_operand(left_recipe)
        right = left if right_recipe == "same" else _fresh_operand(right_recipe)
        last = left
        seen = []
        for op, suppressed, on_last in calls:
            lhs = last if on_last else left
            rhs = lhs if right_recipe == "same" else right
            with ctx.suppression() if suppressed else _null_scope():
                kind, result = _outcome(apply, op, lhs, rhs, ctx)
            if kind == "ok":
                last = result
                result = _observed(result)
            seen.append((kind, result, ctx.step_counter, _observed(left), _observed(right)))
        runs.append((seen, ctx.event_sink))
    (seen, events), (reference_seen, reference_events) = runs
    assert seen == reference_seen
    assert events == reference_events


class TestOperandFastPath:
    """Exact in-range ints and exact PoisonedScalars skip the operand checks; every other
    operand, PoisonedScalar subclasses included, still takes them."""

    def test_int64_bounds_accepted(self, ctx):
        assert binop("lt", INT64_MIN, INT64_MAX, ctx) is True
        assert binop("add", INT64_MAX, INT64_MIN, ctx) == -1
        assert binop("sub", 0, INT64_MAX, ctx) == -INT64_MAX
        assert binop("sub", 0, INT64_MIN + 1, ctx) == INT64_MAX
        first = ctx.event_sink[0]
        assert (first.lhs_clean, first.rhs_clean) == (INT64_MIN, INT64_MAX)
        assert not (first.lhs_poisoned or first.rhs_poisoned)
        assert ctx.event_sink[2].rhs_clean == INT64_MAX

    @pytest.mark.parametrize(
        "call,error",
        [
            (lambda ctx: binop("add", INT64_MAX + 1, 0, ctx), ValueError),
            (lambda ctx: binop("add", 0, INT64_MIN - 1, ctx), ValueError),
            (lambda ctx: binop("sub", 0, INT64_MAX + 1, ctx), ValueError),
            (lambda ctx: binop("add", True, 0, ctx), TypeError),
            (lambda ctx: binop("eq", 0, False, ctx), TypeError),
            (lambda ctx: binop("sub", 0, True, ctx), TypeError),
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
        assert binop("sub", 0, _Small.THREE, with_enum) == binop("sub", 0, 3, with_int)
        assert with_enum.event_sink == with_int.event_sink
        # An int-subclass operand is recorded as the int that binop computes with.
        assert all(type(event.lhs_clean) is int and type(event.rhs_clean) is int
                   for event in with_enum.event_sink)

    def test_int_enum_value_is_poisoned_as_its_int(self):
        assert type(make_poisoned(_Small.THREE, make_policy(), 0, 0).clean_value) is int

    @pytest.mark.parametrize("suppressed", [False, True], ids=["live", "suppressed"])
    @pytest.mark.parametrize("right", ["active", "expired", "subclass", "int", "same"])
    @pytest.mark.parametrize("left", ["active", "expired", "subclass", "int"])
    def test_scalar_operand_matches_the_reference_path(self, left, right, suppressed):
        """An exact PoisonedScalar is read in place; expired, shared and subclassed
        scalars give what the full operand checks give: results, events, steps, state."""
        runs = []
        for apply in (binop, reference_binop):
            ctx = EvalContext()
            lhs = _scalar_operand(left, seed=3)
            rhs = lhs if right == "same" else _scalar_operand(right, seed=4)
            seen = []
            for op in sorted(BINARY_OPS):
                with ctx.suppression() if suppressed else _null_scope():
                    kind, result = _outcome(apply, op, lhs, rhs, ctx)
                if kind == "ok":
                    result = _observed(result)
                seen.append((kind, result, ctx.step_counter, _observed(lhs), _observed(rhs)))
            runs.append((seen, ctx.event_sink))
        (seen, events), (reference_seen, reference_events) = runs
        assert seen == reference_seen
        assert events == reference_events


class _SubScalar(PoisonedScalar):
    __slots__ = ()


def _scalar_operand(kind, seed):
    """A fresh operand of one kind: a live poisoned scalar (infectious, rate 0.5, 3 uses),
    one whose one use is spent (policy None), a live PoisonedScalar subclass, or an int."""
    if kind == "int":
        return 7
    if kind == "expired":
        scalar = make_poisoned(7, make_policy(uses=1), 1, seed)
        binop("add", scalar, 0, EvalContext())
        assert scalar.policy is None
        return scalar
    policy = make_policy(rate=0.5, uses=3, infectious=True)
    if kind == "subclass":
        return _SubScalar(7, policy, 1, stream_seed(seed, 1))
    return make_poisoned(7, policy, 1, seed)


def _raise_in_scope(ctx):
    with ctx.suppression():
        raise RuntimeError("boom")


def _ring_out_of_range():
    state = RingState(3, 3)
    state.statuses[1] = 2**63  # the suppressed binop rejects this operand
    return state


class TestSuppression:
    def test_suppressed_eq_uses_clean_semantics(self, ctx):
        p = make_poisoned(0, make_policy(), 0, seed=42)
        with ctx.suppression():
            assert binop("eq", p, 0, ctx) is True
        assert ctx.event_sink == [] and ctx.step_counter == 1  # counted, not recorded
        assert binop("eq", p, 0, ctx) is False  # outside the scope the poison deviates

    def test_nesting_depth(self, ctx):
        with ctx.suppression():
            with ctx.suppression():
                assert ctx.suppression_depth == 2
            assert ctx.suppression_depth > 0  # still suppressed after one exit
        assert ctx.suppression_depth == 0

    @pytest.mark.parametrize(
        "call,error",
        [
            (_raise_in_scope, RuntimeError),
            (lambda ctx: has_privilege(_ring_out_of_range(), 1, ctx), ValueError),
        ],
        ids=["body", "has_privilege"],
    )
    def test_restored_on_error(self, ctx, call, error):
        with pytest.raises(error):
            call(ctx)
        assert ctx.suppression_depth == 0

    def test_scope_binds_the_context(self, ctx):
        assert ctx.suppression() is ctx
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
        assert ctx.event_sink == []

    def test_step_counter_counts_suppressed_ops(self, ctx):
        binop("add", 1, 1, ctx)
        with ctx.suppression():
            binop("add", 1, 1, ctx)
        binop("add", 1, 1, ctx)
        assert [e.step for e in ctx.event_sink] == [0, 2]
        assert ctx.step_counter == 3


_SCOPE_SINKS = {"list": list, "deque(maxlen=0)": lambda: deque(maxlen=0),
                "deque(maxlen=2)": lambda: deque(maxlen=2)}


@st.composite
def _scope_operands(draw):
    """1..6 operands: ints, and active or expired scalars of any policy, a scalar
    possibly at several places, so that an op may take one object in both slots."""
    pool = []
    for kind in draw(st.lists(st.sampled_from(["int", "active", "expired"]),
                              min_size=1, max_size=4)):
        if kind == "int":
            pool.append(draw(_int64s))
            continue
        scalar = make_poisoned(draw(_int64s), draw(_policies), draw(st.integers(0, 7)),
                               draw(st.integers(0, 99)))
        if kind == "expired":
            scalar.policy = scalar.uses_remaining = None
        pool.append(scalar)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
    return [pool[i] for i in picks]


@settings(max_examples=300, deadline=None)
@given(operands=_scope_operands(),
       calls=st.lists(st.tuples(st.sampled_from(sorted(BINARY_OPS)), st.integers(0, 5),
                                st.integers(0, 5)), min_size=1, max_size=8),
       sink=st.sampled_from(sorted(_SCOPE_SINKS)), start=st.integers(0, 10**6))
def test_suppression_scope_counts_steps_and_records_nothing(operands, calls, sink, start):
    """In a suppression scope each binop returns the clean answer, or raises the clean op's
    ArithmeticFault at its step; it counts exactly one step, appends nothing to any sink
    and leaves every scalar's policy, uses and draw stream as they were. has_privilege,
    which opens its own scope, does the same on a ring of the same operands."""
    ctx = EvalContext(event_sink=_SCOPE_SINKS[sink]())
    ctx.step_counter = start
    before = [_observed(x) for x in operands]
    with ctx.suppression():
        for op, i, j in calls:
            lhs, rhs = operands[i % len(operands)], operands[j % len(operands)]
            step = ctx.step_counter
            try:
                expected = clean_binop(op, clean_value_of(lhs), clean_value_of(rhs))
            except (OverflowError, ZeroDivisionError) as exc:
                with pytest.raises(ArithmeticFault) as info:
                    binop(op, lhs, rhs, ctx)
                assert (info.value.args[0], info.value.step) == (f"{op}: {exc}", step)
            else:
                result = binop(op, lhs, rhs, ctx)
                assert type(result) is type(expected) and result == expected
            assert ctx.step_counter == step + 1
            assert list(ctx.event_sink) == []
            assert [_observed(x) for x in operands] == before
    state = RingState(len(operands), len(operands))
    state.statuses[:] = operands
    clean = [clean_value_of(x) for x in operands]
    for node in range(len(operands)):
        step = ctx.step_counter
        guard = (clean[node - 1] != clean[node]) if node else (clean[-1] == clean[0])
        assert has_privilege(state, node, ctx) is guard
        assert ctx.step_counter == step + 1
        assert list(ctx.event_sink) == []
        assert [_observed(x) for x in operands] == before


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

    def test_each_infection_calls_the_kernel_stream_child(self, monkeypatch):
        """binop reaches an infected result's stream through the name kernel.stream_child, the
        attribute a profiler wraps, once per poisoned arithmetic event of an infectious run."""
        calls = []

        def counted(state, step):
            calls.append(step)
            return stream_seed(state, step)

        monkeypatch.setattr(_kernel, "stream_child", counted)
        scenario = load_scenario(str(SCENARIOS / "poison_node0.json"))
        ctx = EvalContext([])
        run(scenario.ring, scenario.injections, ctx)
        infections = [e.step for e in ctx.event_sink
                      if (e.lhs_poisoned or e.rhs_poisoned) and e.op not in COMPARISONS]
        assert calls == infections and len(calls) > 0


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
    # Only the unsuppressed uses record an event.
    assert all(e.deviated for e in ctx.event_sink)
    assert len(ctx.event_sink) == sum(1 for _, _, s in ops if not s)


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
    assert len(ctx.event_sink) == 2 * sum(1 for _, _, s in ops if not s)
    for event in ctx.event_sink:
        if event.deviated:
            assert event.lhs_poisoned or event.rhs_poisoned
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
