"""Snapshot analytics and JSONL trace round-tripping."""

import dataclasses
import json
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_policy
from poisonring import (
    EvalContext,
    Injection,
    OperatorEvent,
    RingConfig,
    RunRecord,
    SnapshotEvent,
    TraceFormatError,
    binop,
    convergence_point,
    deviation_stats,
    dumps_record,
    is_legitimate,
    loads_record,
    make_poisoned,
    read_record,
    run,
    token_count,
    unop,
    write_record,
)
from poisonring._kernel import INT64_MAX, INT64_MIN
from poisonring.trace_metrics import _OP_PREFIX
from trace_reference import EVENT_KEYS, reference_dumps_record, reference_loads_record


def _op_line(**changes):
    """One op record line: a well-typed record without optional fields, with the given changes."""
    fields = {"step": 0, "op": "add", "lhs_clean": 1, "lhs_poisoned": False, "deviated": False,
              "clean_result": 2, "emitted_result": 2, "suppressed": False}
    return json.dumps({"type": "op", **fields, **changes})


class TestTokenCount:
    @pytest.mark.parametrize(
        "line,count",
        [("1,0,0,0,0", 1), ("0,0,0,0,0", 0), ("1,1,0,1,0", 3), ("1", 1), ("0", 0)],
    )
    def test_counts(self, line, count):
        assert token_count(line) == count

    @pytest.mark.parametrize("line", ["", "2,0", "1,,0", "01", "1,0,", ",1", "1 0"])
    def test_malformed(self, line):
        with pytest.raises(TraceFormatError):
            token_count(line)

    def test_multi_token_privilege_line(self, ctx):
        # Hand-oracle for statuses [0,1,1,0,0]: nodes 0, 1 and 3 hold privileges.
        from poisonring import RingState, out

        state = RingState(5, 5)
        state.statuses = [0, 1, 1, 0, 0]
        line = out(state, ctx)
        assert line == "1,1,0,1,0"
        assert token_count(line) == 3


class TestIsLegitimate:
    def test_examples(self):
        assert is_legitimate("1,0,0,0,0") is True
        assert is_legitimate("0,0,0,0,0") is False
        assert is_legitimate("1,1,0,0,0") is False


def _snaps(lines):
    return [SnapshotEvent(round=0, firing_node=0, line=l) for l in lines]


class TestConvergencePoint:
    def test_fault_free_run_converges_at_zero(self):
        _, snapshots = run(RingConfig(5, 5, 10))
        record = RunRecord("", 0, snapshots=snapshots)
        assert convergence_point(record) == 0

    def test_illegitimate_tail_means_absent(self):
        record = RunRecord("", 0, snapshots=_snaps(["1,0", "1,1"]))
        assert convergence_point(record) is None

    def test_no_snapshots_means_absent(self):
        assert convergence_point(RunRecord("", 0)) is None

    def test_mid_run_convergence(self):
        record = RunRecord("", 0, snapshots=_snaps(["1,1", "0,0", "1,0", "0,1"]))
        assert convergence_point(record) == 2


class TestDeviationStats:
    def test_deterministic_rate_is_exactly_one(self):
        ctx = EvalContext()
        p = make_poisoned(1, make_policy(), 0, seed=1)
        for _ in range(40):
            binop("add", p, 1, ctx)
        stats = deviation_stats(RunRecord("", 0, events=ctx.event_sink))
        assert stats.uses == 40
        assert stats.rate == 1.0

    def test_clean_run_has_no_uses(self):
        ctx = EvalContext()
        run(RingConfig(5, 5, 10), [], ctx)
        stats = deviation_stats(RunRecord("", 0, events=ctx.event_sink))
        assert stats.uses == 0
        assert stats.deviations == 0
        assert stats.rate == 0.0

    def test_suppressed_uses_excluded(self):
        ctx = EvalContext()
        p = make_poisoned(1, make_policy(), 0, seed=1)
        binop("add", p, 1, ctx)
        with ctx.suppression():
            binop("add", p, 1, ctx)
        stats = deviation_stats(RunRecord("", 0, events=ctx.event_sink))
        assert stats.uses == 1

    def test_deviations_never_exceed_uses(self):
        ctx = EvalContext()
        p = make_poisoned(1, make_policy(rate=0.5, uses=30), 0, seed=9)
        for _ in range(60):
            binop("mul", p, 1, ctx)
        stats = deviation_stats(RunRecord("", 0, events=ctx.event_sink))
        assert 0 < stats.deviations <= stats.uses == 30


def _rich_record():
    """A record exercising every optional event field."""
    ctx = EvalContext()
    p = make_poisoned(5, make_policy(rate=0.5, uses=3, infectious=True), 2, seed=8)
    x = binop("add", p, 1, ctx)
    unop("neg", x, ctx)
    with ctx.suppression():
        binop("eq", p, 5, ctx)
    binop("lt", 1, 2, ctx)
    _, snapshots = run(RingConfig(3, 3, 4), [], ctx)
    return RunRecord(
        scenario_digest="ab" * 32,
        seed=8,
        events=ctx.event_sink,
        snapshots=snapshots,
        final_statuses=[0, 1, 2],
    )


class TestJsonlRoundTrip:
    def test_dumps_loads_identity(self):
        record = _rich_record()
        assert loads_record(dumps_record(record)) == record

    def test_file_roundtrip(self, tmp_path):
        record = _rich_record()
        path = tmp_path / "trace.jsonl"
        write_record(record, path)
        assert read_record(path) == record

    def test_one_json_object_per_line(self):
        import json

        for line in dumps_record(_rich_record()).splitlines():
            obj = json.loads(line)
            assert obj["type"] in {"run", "op", "snapshot"}

    def test_optional_fields_omitted_not_null(self):
        text = dumps_record(_rich_record())
        assert "null" not in text

    def test_unary_events_have_no_rhs(self):
        import json

        for line in dumps_record(_rich_record()).splitlines():
            obj = json.loads(line)
            if obj["type"] == "op" and obj["op"] == "neg":
                assert "rhs_clean" not in obj
                assert "rhs_poisoned" not in obj
                break
        else:
            pytest.fail("no unary event found")

    def test_missing_header_rejected(self):
        with pytest.raises(TraceFormatError, match="header"):
            loads_record('{"type":"snapshot","round":0,"firing_node":0,"line":"1"}\n')

    def test_unknown_type_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown record type"):
            loads_record('{"type":"nope"}\n')

    def test_invalid_json_names_line(self):
        record = _rich_record()
        text = dumps_record(record) + "{oops\n"
        with pytest.raises(TraceFormatError, match="line"):
            loads_record(text)

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"type":"run","seed":0,"final_statuses":[]}',
            '{"type":"op","bogus":1}',
            "[1,2]",
            '{"type":"snapshot"}',
            '{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[]}',
            '{"type":"run","scenario_digest":7,"seed":0,"final_statuses":[]}',
            '{"type":"run","scenario_digest":"d","seed":"x","final_statuses":[]}',
            '{"type":"run","scenario_digest":"d","seed":true,"final_statuses":[]}',
            '{"type":"run","scenario_digest":"d","seed":0,"final_statuses":"abc"}',
            '{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[0,1.5]}',
            _op_line(step="0"),
            _op_line(step=False),
            _op_line(op=3),
            _op_line(deviated=0),
            _op_line(lhs_clean=1.0),
            _op_line(origin_id="0"),
            '{"type":"snapshot","round":"r","firing_node":0,"line":"1"}',
            '{"type":"snapshot","round":0,"firing_node":null,"line":"1"}',
            '{"type":"snapshot","round":0,"firing_node":0,"line":7}',
            '{"type":"snapshot","round":0,"firing_node":0,"line":"1,2"}',
            '{"type":"snapshot","round":0,"firing_node":0,"line":"1\\n"}',
        ],
        ids=["header_without_digest", "op_unknown_key", "json_list", "snapshot_without_fields",
             "second_header", "header_int_digest", "header_str_seed", "header_bool_seed",
             "header_str_statuses", "header_float_status", "op_str_step", "op_bool_step",
             "op_int_op", "op_int_deviated", "op_float_operand", "op_str_origin",
             "snapshot_str_round", "snapshot_null_node", "snapshot_int_line",
             "snapshot_bad_line", "snapshot_line_newline"],
    )
    def test_malformed_record_is_a_trace_format_error(self, bad_line):
        header = '{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[]}'
        with pytest.raises(TraceFormatError, match=r"^line 2: "):
            loads_record(f"{header}\n{bad_line}\n")

    @pytest.mark.parametrize(
        "data,line",
        [
            (b"\xff\xfe{", 1),
            (b'{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[]}\n'
             b'{"type":"snap\xffshot"}\n', 2),
        ],
        ids=["first_line", "after_header"],
    )
    def test_invalid_utf8_is_a_trace_format_error(self, tmp_path, data, line):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(data)
        with pytest.raises(TraceFormatError, match=rf"^line {line}: invalid UTF-8"):
            read_record(path)

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_other_line_breaks_inside_a_string_load(self, separator):
        # Records are "\n"-delimited; these are legal raw inside a JSON string.
        header = '{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[]}'
        op_line = json.dumps(json.loads(_op_line(op=f"a{separator}b")), ensure_ascii=False)
        assert loads_record(f"{header}\n{op_line}\n").events[0].op == f"a{separator}b"

    def test_line_numbers_count_newlines_only(self, tmp_path):
        # A form-feed line is one line, as read_record counts lines for invalid UTF-8.
        header = '{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[]}'
        with pytest.raises(TraceFormatError, match=r"^line 3: unknown record type"):
            loads_record(f'{header}\n\x0c\n{{"type":"nope"}}\n')
        path = tmp_path / "trace.jsonl"
        path.write_bytes(f"{header}\n\x0c\n".encode() + b'{"type":"n\xffope"}\n')
        with pytest.raises(TraceFormatError, match=r"^line 3: invalid UTF-8"):
            read_record(path)

    def test_crlf_line_ends_load(self):
        record = _rich_record()
        assert loads_record(dumps_record(record).replace("\n", "\r\n")) == record

    def test_well_typed_op_record_loads(self):
        header = '{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[1]}'
        record = loads_record(f"{header}\n{_op_line()}\n")
        assert record.events[0].op == "add" and record.events[0].emitted_result == 2


# Fuzzed traces: a valid header, op and snapshot record, some of their fields
# replaced, added or deleted, then the lines picked in any order, repeated or
# left out.
_VALID_LINES = (
    {"type": "run", "scenario_digest": "d", "seed": 0, "final_statuses": [1, 0]},
    json.loads(_op_line(rhs_clean=1, rhs_poisoned=True, origin_id=0, lifetime_after=2)),
    {"type": "snapshot", "round": 0, "firing_node": 1, "line": "1,0"},
)
# (line, key) pairs: every key of each line, plus a key the line lacks.
_EDIT_SITES = [(index, key) for index, line in enumerate(_VALID_LINES) for key in line]
_EDIT_SITES += [(0, "round"), (1, "line"), (2, "seed")]
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False, width=16),
    st.sampled_from(["", "1", "1,0", "1,2", "run", "op", "snapshot", "add"]),
    st.lists(st.integers(-1, 1), max_size=2), st.just({}),
)
_DELETE = object()
_EDITED_TRACES = st.builds(
    lambda edits, order: (edits, order),
    st.lists(st.tuples(st.sampled_from(_EDIT_SITES), st.one_of(st.just(_DELETE), _JSON_LEAVES)),
             max_size=3),
    st.lists(st.integers(0, 2), max_size=5),
)


def _edited_trace(edits, order) -> str:
    lines = [dict(line) for line in _VALID_LINES]
    for (index, key), value in edits:
        if value is _DELETE:
            lines[index].pop(key, None)
        else:
            lines[index][key] = value
    return "\n".join(json.dumps(lines[index]) for index in order)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=200), _EDITED_TRACES.map(lambda drawn: _edited_trace(*drawn))))
# Past json.loads' own limits: an integer of more than 4,300 digits, and 100,000 nested arrays.
@example('{"type":"run","scenario_digest":"d","seed":' + "1" * 5000 + ',"final_statuses":[]}')
@example("[" * 100_000 + "]" * 100_000)
def test_any_text_loads_or_is_a_trace_format_error(text):
    """loads_record gives a RunRecord that the analytics accept, or a TraceFormatError."""
    try:
        record = loads_record(text)
    except TraceFormatError:
        return
    assert isinstance(record, RunRecord)
    assert loads_record(dumps_record(record)) == record
    convergence_point(record)
    deviation_stats(record)


# Generated records for the encoder: int64 edges, bools against the ints 0
# and 1, optional fields present and absent, op strings that need escaping,
# and now and then one field holding a value of another JSON type.
class _Level(IntEnum):
    HIGH = 7


_INT64S = st.one_of(
    st.integers(INT64_MIN, INT64_MIN + 2), st.integers(INT64_MAX - 2, INT64_MAX),
    st.integers(-3, 3), st.integers(INT64_MIN, INT64_MAX),
)
_RESULTS = st.one_of(st.booleans(), st.sampled_from([0, 1]), _INT64S)
_OP_NAMES = st.one_of(
    st.sampled_from(["add", "neg", 'say "hi"', "back\\slash", "tab\tnew\nnul\x00\x1f\x7f",
                     "Ünïcødé 漢字 😀"]),
    st.text(max_size=8),
)
_OTHER_VALUES = st.one_of(
    st.floats(), st.text(max_size=4), st.none(), st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2), st.just(_Level.HIGH),
)


@st.composite
def _generated_events(draw, op_names=_OP_NAMES):
    event = OperatorEvent(
        step=draw(_INT64S), op=draw(op_names), lhs_clean=draw(_INT64S),
        lhs_poisoned=draw(st.booleans()), deviated=draw(st.booleans()),
        clean_result=draw(_RESULTS), emitted_result=draw(_RESULTS),
        suppressed=draw(st.booleans()), rhs_clean=draw(st.none() | _INT64S),
        rhs_poisoned=draw(st.none() | st.booleans()), origin_id=draw(st.none() | _INT64S),
        lifetime_after=draw(st.none() | _INT64S),
    )
    if draw(st.integers(0, 3)) == 0:
        setattr(event, draw(st.sampled_from(EVENT_KEYS)), draw(_OTHER_VALUES))
    return event


_GENERATED_RECORDS = st.builds(
    RunRecord,
    scenario_digest=st.text(max_size=8),
    seed=_INT64S,
    events=st.lists(_generated_events(), max_size=4),
    snapshots=st.lists(
        st.builds(SnapshotEvent, round=_INT64S | _OTHER_VALUES, firing_node=_INT64S,
                  line=st.text(max_size=6)),
        max_size=2,
    ),
    final_statuses=st.lists(_INT64S, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(_GENERATED_RECORDS)
def test_encoder_matches_reference_bytes(record):
    assert dumps_record(record) == reference_dumps_record(record)


def test_encoder_matches_reference_on_a_run():
    record = _rich_record()
    assert dumps_record(record) == reference_dumps_record(record)


# Edits of an op line's step token and tail, the text after the token. Each
# keeps the line starting as dumps_record writes it.
_LINE_EDITS = {
    **{f"step {token[:6]!r}": lambda step, tail, token=token: (token, tail)
       for token in ["-0", "007", "+5", " 5", "1_0", "5.0", "9" * 4301]},
    "escaped step key": lambda step, tail: (step, ',"st\\u0065p":3' + tail),
    "second step key": lambda step, tail: (step, tail[:-1] + ',"step":3}'),
    "type key": lambda step, tail: (step, ',"type":"op"' + tail),
    "spaces after commas": lambda step, tail: (step, tail.replace(',"', ', "')),
    "trailing CR": lambda step, tail: (step, tail + "\r"),
    "bad field type": lambda step, tail: (step, tail[:-1] + ',"deviated":0}'),
    "unknown and missing field": lambda step, tail: (step, tail.replace('"deviated"', '"bogus"')),
}


def _edit_op_line(line, edit):
    comma = line.find(",", len(_OP_PREFIX))
    return _OP_PREFIX + "".join(edit(line[len(_OP_PREFIX):comma], line[comma:]))


@st.composite
def _shared_tail_traces(draw):
    """The lines of a trace whose op lines are one or two events under many
    steps, so that they share tails; and the indices of the op lines to edit."""
    templates = draw(st.lists(
        _generated_events(st.sampled_from(["add", "neg", "eq", "lt", "step", 'say "hi"'])),
        min_size=1, max_size=2,
    ))
    picks = draw(st.lists(st.tuples(st.sampled_from(templates), st.integers(-2, 12) | _INT64S,
                                    st.booleans()),
                          min_size=2, max_size=8))
    events = [dataclasses.replace(event, step=step) for event, step, _ in picks]
    record = RunRecord("d", 0, events, [SnapshotEvent(0, 1, "1,0")], [1, 0])
    return dumps_record(record).split("\n"), {i for i, pick in enumerate(picks, 1) if pick[2]}


def _outcome(loads, text):
    """The record loads gives, or the message of the TraceFormatError it raises."""
    try:
        return loads(text)
    except TraceFormatError as exc:
        return str(exc)


_EVENT = OperatorEvent(0, "add", 1, True, True, 2, 3, False, 1, False, 0, 2)


@settings(max_examples=300, deadline=None)
@given(_shared_tail_traces())
# Three op lines with one tail, the last two edited: each edit follows a cached tail.
@example((dumps_record(RunRecord("d", 0, [dataclasses.replace(_EVENT, step=step)
                                          for step in (5, 6, 7)])).split("\n"), {2, 3}))
def test_decoder_matches_the_reference(drawn):
    """As drawn and under each edit of the chosen op lines, loads_record reads as the reference."""
    lines, edited = drawn
    for name, edit in [("no edit", None), *_LINE_EDITS.items()]:
        text = "\n".join(_edit_op_line(line, edit) if edit and index in edited else line
                         for index, line in enumerate(lines))
        assert _outcome(loads_record, text) == _outcome(reference_loads_record, text), name
