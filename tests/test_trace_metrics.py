"""Snapshot analytics and JSONL trace round-tripping."""

import dataclasses
import json
import tracemalloc
from collections import deque
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
    write_record,
)
from poisonring._kernel import INT64_MAX, INT64_MIN
from poisonring.trace_metrics import _EVENT_TYPES, _OP_PREFIX, _SNAPSHOT_LINE
from ring_oracle import reference_convergence_point
from trace_reference import (
    EVENT_KEYS,
    reference_dumps_record,
    reference_first_bad_line,
    reference_loads_record,
)


def _op_line(**changes):
    """One op record line: a well-typed record without optional fields, with the given changes."""
    fields = {"step": 0, "op": "add", "lhs_clean": 1, "rhs_clean": 1, "lhs_poisoned": False,
              "rhs_poisoned": False, "deviated": False, "clean_result": 2, "emitted_result": 2}
    return json.dumps({"type": "op", **fields, **changes})


def _outcome(call, *args):
    """What call(*args) gives, such as a loaded record or a written trace's text, or the
    message of the TraceFormatError it raises."""
    try:
        return call(*args)
    except TraceFormatError as exc:
        return str(exc)


def _typed(value):
    """value with each field and item paired with its type, so that == tells True from 1 and
    an IntEnum from its int: a record field by field, its events and snapshots too; anything
    else, such as a message, as (type, value)."""
    if dataclasses.is_dataclass(value):
        return type(value), [_typed(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (list, deque)):  # the reader's lists, or a context's sink
        return [_typed(item) for item in value]
    return type(value), value


def _read_back(path, text):
    """What read_record gives, or the message it raises, for text written to path as UTF-8."""
    path.write_bytes(text.encode("utf-8"))
    return _outcome(read_record, path)


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

    def test_multi_token_privilege_line(self):
        # Hand-oracle for statuses [0,1,1,0,0]: nodes 0, 1 and 3 hold privileges.
        from poisonring import Injection, RingConfig, run

        injections = [Injection(1, 0, new_status=1), Injection(2, 0, new_status=1)]
        _, snapshots = run(RingConfig(5, 5, 1), injections)
        line = snapshots[0].line
        assert (snapshots[0].firing_node, line) == (0, "1,1,0,1,0")
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

    # A few distinct lines, legitimate or not, each repeated: convergence_point checks
    # each distinct line once, and must still find the oracle's index.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("01"), min_size=1, max_size=4).map(",".join),
                    min_size=1, max_size=4, unique=True)
           .flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=30)))
    def test_repeated_lines_match_the_oracle(self, lines):
        record = RunRecord("", 0, snapshots=_snaps(lines))
        assert convergence_point(record) == reference_convergence_point(lines)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(["1,0,0", "0,1,0", "0,0,1"]), min_size=1, max_size=20),
           st.sampled_from(["", "2", "1,,0", "1;0", "0,1,", "1,0,0 "]))
    def test_malformed_line_before_a_repeated_legitimate_tail_raises(self, tail, bad):
        record = RunRecord("", 0, snapshots=_snaps(["1,0,0", bad, *tail]))
        with pytest.raises(TraceFormatError, match="malformed snapshot line"):
            convergence_point(record)


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
        assert len(ctx.event_sink) == 1  # the suppressed use records no event
        stats = deviation_stats(RunRecord("", 0, events=ctx.event_sink))
        assert stats.uses == stats.deviations == 1

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
    binop("sub", 0, x, ctx)
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
        assert _typed(loads_record(dumps_record(record))) == _typed(record)

    def test_file_roundtrip(self, tmp_path):
        record = _rich_record()
        path = tmp_path / "trace.jsonl"
        write_record(record, path)
        assert _typed(read_record(path)) == _typed(record)

    def test_file_codec_holds_one_line_at_a_time(self, tmp_path):
        """Neither write_record nor read_record holds the trace's text: each peaks at
        under a quarter of the file's size, besides the record that read_record returns."""
        events = [OperatorEvent(step=step, op="add", lhs_clean=step % 5, rhs_clean=1,
                                lhs_poisoned=True, rhs_poisoned=False, deviated=step % 3 == 0,
                                clean_result=step % 5 + 1, emitted_result=step % 5 + 2,
                                origin_id=3, lifetime_after=step % 7)
                  for step in range(21_000)]
        record = RunRecord("ab" * 32, 42, events, [SnapshotEvent(0, 1, "1,0")], [0, 1])
        path = tmp_path / "trace.jsonl"
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_record(record, path)
            write_peak = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            loaded = read_record(path)
            held, read_peak = tracemalloc.get_traced_memory()  # held counts the record too
        finally:
            if not tracing:
                tracemalloc.stop()
        assert _typed(loaded) == _typed(record)
        size = path.stat().st_size
        assert size >= 4_000_000
        assert write_peak < size / 4
        assert read_peak - held < size / 4

    def test_one_json_object_per_line(self):
        import json

        for line in dumps_record(_rich_record()).splitlines():
            obj = json.loads(line)
            assert obj["type"] in {"run", "op", "snapshot"}

    def test_optional_fields_omitted_not_null(self):
        text = dumps_record(_rich_record())
        assert "null" not in text

    def test_event_fields_are_the_line_keys_in_order(self):
        assert tuple(f.name for f in dataclasses.fields(OperatorEvent)) == tuple(_EVENT_TYPES)

    @pytest.mark.parametrize("key", ["rhs_clean", "rhs_poisoned"])
    def test_op_line_without_an_rhs_key_is_rejected(self, tmp_path, key):
        """Every op line carries both operands' keys; one without either is a
        TraceFormatError naming it, from loads_record and read_record alike."""
        header = '{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[]}'
        op = json.loads(_op_line(origin_id=2, lifetime_after=1))
        del op[key]
        text = f"{header}\n{json.dumps(op)}\n"
        message = f"line 2: op record lacks field '{key}'"
        assert _outcome(loads_record, text) == message
        assert _read_back(tmp_path / "trace.jsonl", text) == message

    @pytest.mark.parametrize("flag", ["false", "true"])
    def test_op_line_with_a_suppressed_key_is_rejected(self, tmp_path, flag):
        """An op line as traces were written when events carried a suppressed flag is
        a TraceFormatError naming that key, from loads_record and read_record alike."""
        header = '{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[]}'
        op = ('{"type":"op","step":0,"op":"add","lhs_clean":1,"rhs_clean":1,'
              '"lhs_poisoned":false,"rhs_poisoned":false,"deviated":false,"clean_result":2,'
              f'"emitted_result":2,"suppressed":{flag}}}')
        text = f"{header}\n{op}\n"
        message = "line 2: unknown op field 'suppressed'"
        assert _outcome(loads_record, text) == message
        assert _read_back(tmp_path / "trace.jsonl", text) == message

    def test_missing_header_rejected(self):
        with pytest.raises(TraceFormatError, match="header"):
            loads_record('{"type":"snapshot","round":0,"firing_node":0,"line":"1"}\n')

    def test_header_unknown_key_rejected(self):
        header = '{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[],"bogus":[1]}'
        with pytest.raises(TraceFormatError, match=r"^line 1: unknown run field 'bogus'$"):
            loads_record(header + "\n")

    def test_unknown_type_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown record type"):
            loads_record('{"type":"nope"}\n')

    def test_invalid_json_names_line(self):
        record = _rich_record()
        text = dumps_record(record) + "{oops\n"
        with pytest.raises(TraceFormatError, match="line"):
            loads_record(text)

    @pytest.mark.parametrize(
        "bad_line,message",
        [
            ('{"type":"run","seed":0,"final_statuses":[]}',
             "run record lacks field 'scenario_digest'"),
            ('{"type":"op","bogus":1}', "unknown op field 'bogus'"),
            ("[1,2]", "expected an object, got list"),
            ('{"type":"snapshot"}', "snapshot record lacks field 'round'"),
            ('{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[]}',
             "second run header"),
            ('{"type":"run","scenario_digest":7,"seed":0,"final_statuses":[]}',
             "run field 'scenario_digest' has type int"),
            ('{"type":"run","scenario_digest":"d","seed":"x","final_statuses":[]}',
             "run field 'seed' has type str"),
            ('{"type":"run","scenario_digest":"d","seed":true,"final_statuses":[]}',
             "run field 'seed' has type bool"),
            ('{"type":"run","scenario_digest":"d","seed":0,"final_statuses":"abc"}',
             "run field 'final_statuses' has type str"),
            ('{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[0,1.5]}',
             "run field 'final_statuses' holds a non-integer"),
            (_op_line(step="0"), "op field 'step' has type str"),
            (_op_line(step=False), "op field 'step' has type bool"),
            (_op_line(op=3), "op field 'op' has type int"),
            (_op_line(deviated=0), "op field 'deviated' has type int"),
            (_op_line(lhs_clean=1.0), "op field 'lhs_clean' has type float"),
            (_op_line(origin_id="0"), "op field 'origin_id' has type str"),
            ('{"type":"snapshot","round":"r","firing_node":0,"line":"1"}',
             "snapshot field 'round' has type str"),
            ('{"type":"snapshot","round":0,"firing_node":null,"line":"1"}',
             "snapshot field 'firing_node' has type NoneType"),
            ('{"type":"snapshot","round":0,"firing_node":0,"line":7}',
             "snapshot field 'line' has type int"),
            ('{"type":"snapshot","round":0,"firing_node":0,"line":"1,2"}',
             "malformed snapshot line '1,2'"),
            ('{"type":"snapshot","round":0,"firing_node":0,"line":"1\\n"}',
             "malformed snapshot line '1\\n'"),
            ('{"type":[1]}', "unknown record type [1]"),
            ('{"type":{}}', "unknown record type {}"),
            ('{"type":"snapshot","round":0,"firing_node":0,"line":"1","bogus":0}',
             "unknown snapshot field 'bogus'"),
            ('{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[0,true]}',
             "run field 'final_statuses' holds a non-integer"),
            # Two required keys missing: the first in schema order is named.
            ('{"type":"op","step":0,"lhs_clean":1,"rhs_clean":1,"lhs_poisoned":false,'
             '"rhs_poisoned":false,"deviated":false,"clean_result":2}',
             "op record lacks field 'op'"),
            ('{"type":"snapshot","round":0,"firing_node":0}', "snapshot record lacks field 'line'"),
        ],
        ids=["header_without_digest", "op_unknown_key", "json_list", "snapshot_without_fields",
             "second_header", "header_int_digest", "header_str_seed", "header_bool_seed",
             "header_str_statuses", "header_float_status", "op_str_step", "op_bool_step",
             "op_int_op", "op_int_deviated", "op_float_operand", "op_str_origin",
             "snapshot_str_round", "snapshot_null_node", "snapshot_int_line",
             "snapshot_bad_line", "snapshot_line_newline", "list_type", "object_type",
             "snapshot_unknown_key", "header_bool_status", "op_without_op_and_emitted_result",
             "snapshot_without_line"],
    )
    def test_malformed_record_is_a_trace_format_error(self, bad_line, message):
        header = '{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[]}'
        with pytest.raises(TraceFormatError) as info:
            loads_record(f"{header}\n{bad_line}\n")
        assert str(info.value) == f"line 2: {message}"

    @pytest.mark.parametrize(
        "data,message",
        [
            (b"\xff\xfe{", "line 1: invalid UTF-8 at byte 0"),
            (b'{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[]}\n'
             b'{"type":"snap\xffshot"}\n', "line 2: invalid UTF-8 at byte 79"),
            # The first bad line wins, though a later line is not UTF-8.
            (b'{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[]}\n'
             b'{"type":\n{"type":"snap\xffshot"}\n', "line 2: invalid JSON"),
        ],
        ids=["first_line", "after_header", "invalid_json_first"],
    )
    def test_invalid_utf8_is_a_trace_format_error(self, tmp_path, data, message):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(data)
        with pytest.raises(TraceFormatError, match=rf"^{message}\b"):
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
        assert _typed(loads_record(dumps_record(record).replace("\n", "\r\n"))) == _typed(record)

    def test_well_typed_op_record_loads(self):
        header = '{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[1]}'
        record = loads_record(f"{header}\n{_op_line()}\n")
        assert record.events[0].op == "add" and record.events[0].emitted_result == 2


# Fuzzed traces: a valid header, op and snapshot record, some of their fields
# replaced, added or deleted, then the lines picked in any order, repeated or
# left out.
_VALID_LINES = (
    {"type": "run", "scenario_digest": "d", "seed": 0, "final_statuses": [1, 0]},
    json.loads(_op_line(rhs_poisoned=True, origin_id=0, lifetime_after=2)),
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
# Blank, form-feed and CR-ended lines, and a last line with no "\n".
@example('\n{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[]}\r\n\x0c\n\n'
         + _op_line() + "\r\n \n" + _op_line(step=1))
@example('{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[]}\n\x0c{"type":"op"}')
def test_any_text_loads_or_is_a_trace_format_error(trace_path, text):
    """loads_record gives a RunRecord that the analytics accept, or a TraceFormatError;
    read_record gives the same for the text written to a file."""
    record = _outcome(loads_record, text)
    assert _typed(_read_back(trace_path, text)) == _typed(record)
    if isinstance(record, str):
        return
    assert isinstance(record, RunRecord)
    assert _typed(loads_record(dumps_record(record))) == _typed(record)
    convergence_point(record)
    deviation_stats(record)


# Generated records for the encoder: int64 edges, bools against the ints 0
# and 1, optional fields present and absent, op strings that need escaping,
# now and then one field holding a value of another JSON type, and snapshot
# lines of any text, well-formed ones included.
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
        clean_result=draw(_RESULTS), emitted_result=draw(_RESULTS), rhs_clean=draw(_INT64S),
        rhs_poisoned=draw(st.booleans()), origin_id=draw(st.none() | _INT64S),
        lifetime_after=draw(st.none() | _INT64S),
    )
    if draw(st.integers(0, 3)) == 0:
        setattr(event, draw(st.sampled_from(EVENT_KEYS)), draw(_OTHER_VALUES))
    return event


# Snapshot lines of 32 to 400 nodes, as long as ring200.json's and beyond, drawn now and
# then beside the short ones, so that each distinct line is checked once at these lengths.
_LONG_LINES = st.builds(lambda nodes, bits: ",".join(f"{bits:0400b}"[:nodes]),
                        st.integers(32, 400), st.integers(0, 2**400 - 1))
_GENERATED_RECORDS = st.builds(
    RunRecord,
    scenario_digest=st.text(max_size=8),
    seed=_INT64S,
    events=st.lists(_generated_events(), max_size=4),
    snapshots=st.lists(
        st.builds(SnapshotEvent, round=_INT64S | _OTHER_VALUES, firing_node=_INT64S,
                  line=st.text(max_size=6) | st.from_regex(r"[01](,[01]){0,3}", fullmatch=True)
                  | _LONG_LINES | _LONG_LINES.map(lambda line: line + ",")),
        max_size=2,
    ),
    final_statuses=st.lists(_INT64S, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(_GENERATED_RECORDS)
def test_encoder_matches_reference_bytes(trace_path, record):
    """A well-formed record is written as the reference writes it and loads back equal,
    each field of its own type; any other record is refused by dumps_record and
    write_record alike, at its first line that holds a value outside its field's type or
    a malformed snapshot line."""
    dumped = _outcome(dumps_record, record)
    written = _outcome(write_record, record, trace_path)
    bad = reference_first_bad_line(record)
    if bad is None:
        text = reference_dumps_record(record)
        assert dumped == text
        assert written is None and trace_path.read_bytes() == text.encode()
        assert _typed(loads_record(text)) == _typed(record)
    else:
        assert dumped.startswith(f"line {bad}: ")
        assert written == dumped


def test_encoder_matches_reference_on_a_run():
    record = _rich_record()
    assert dumps_record(record) == reference_dumps_record(record)


def test_int_enum_operands_under_every_deviation_kind_are_written(tmp_path):
    """A record the library builds from IntEnum operands, under each deviation kind,
    passes the writer's check: written as the reference writes it, it loads back equal,
    each field of its own type."""
    ctx = EvalContext()
    for origin_id, (kind, magnitude) in enumerate(
        [("offset", 2), ("scale", 2), ("stuck_at", 7), ("bitflip", 3)]
    ):
        policy = make_policy(kind, magnitude, uses=2, infectious=origin_id % 2 == 0)
        p = make_poisoned(_Level.HIGH, policy, origin_id, seed=9)
        x = binop("add", p, _Level.HIGH, ctx)
        binop("lt", _Level.HIGH, x, ctx)
        with ctx.suppression():
            binop("eq", p, _Level.HIGH, ctx)
        binop("sub", 0, p, ctx)
    record = RunRecord("lib", 9, events=ctx.event_sink, final_statuses=[7])
    assert {event.deviated for event in record.events} == {True, False}
    text = dumps_record(record)
    assert text == reference_dumps_record(record)
    assert _typed(loads_record(text)) == _typed(record)
    path = tmp_path / "trace.jsonl"
    write_record(record, path)
    assert _typed(read_record(path)) == _typed(record)


# Values that compare equal, and so hash alike, yet may encode apart; and two
# unhashable values.
_LOOKALIKES = (
    (True, 1, 1.0),
    (_Level.HIGH, 7, 7.0),
    (False, 0, -0.0, 0.0),
    ((1,), (True,), (1.0,)),
    ([1], {"a": 1}),
)


@pytest.mark.parametrize("order", ["forward", "reversed"])
@pytest.mark.parametrize("key", EVENT_KEYS[1:])
def test_writer_tells_lookalike_values_apart(key, order):
    """Events differing only in one field's type each get their own line: each value,
    after the written events before it, its lookalikes among them, is written as its
    own type, and read back as it, or refused with its own field's message."""
    base = OperatorEvent(step=0, op="add", lhs_clean=1, rhs_clean=1, lhs_poisoned=True,
                         rhs_poisoned=False, deviated=False, clean_result=2, emitted_result=2,
                         origin_id=0, lifetime_after=1)
    values = [value for group in _LOOKALIKES for value in group]
    if order == "reversed":
        values.reverse()
    written = []
    for value in values * 2:  # the second pass follows each value's lookalikes
        event = dataclasses.replace(base, step=len(written), **{key: value})
        record = RunRecord("digest", 1, events=[*written, event])
        if reference_first_bad_line(record) is None:
            text = dumps_record(record)
            assert text == reference_dumps_record(record)
            assert _typed(loads_record(text)) == _typed(record)
            written.append(event)
        else:
            assert _outcome(dumps_record, record) == (
                f"line {len(written) + 2}: op field {key!r} has type {type(value).__name__}"
            )


class _Node(IntEnum):
    ONE = 1


class _Line(str):
    pass


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"round": True}, "snapshot field 'round' has type bool"),
        ({"firing_node": _Node.ONE}, "snapshot field 'firing_node' has type _Node"),
        ({"line": _Line("1,0")}, "snapshot field 'line' has type _Line"),
    ],
    ids=["bool_round", "int_enum_firing_node", "str_subclass_line"],
)
def test_snapshot_check_cache_tells_lookalike_values_apart(tmp_path, changes, message):
    """A snapshot whose line an earlier snapshot already had is still refused for a
    lookalike of an exact int or str, by dumps_record and write_record alike."""
    first = SnapshotEvent(0, 1, "1,0")
    record = RunRecord("d", 0, snapshots=[first, SnapshotEvent(1, 0, "0,1"),
                                          dataclasses.replace(first, **{"round": 2, **changes})])
    message = f"line {reference_first_bad_line(record)}: {message}"
    assert _outcome(dumps_record, record) == message
    assert _outcome(write_record, record, tmp_path / "trace.jsonl") == message


_HEADER = {"scenario_digest": "d", "seed": 0, "final_statuses": [1, 0]}
_SNAPSHOT = SnapshotEvent(0, 1, "1,0")


@pytest.mark.parametrize(
    "header,events,snapshot,message",
    [
        ({"scenario_digest": 7}, [], _SNAPSHOT, "line 1: run field 'scenario_digest' has type int"),
        ({"seed": True}, [], _SNAPSHOT, "line 1: run field 'seed' has type bool"),
        ({"final_statuses": [0, 1.5]}, [], _SNAPSHOT,
         "line 1: run field 'final_statuses' holds a non-integer"),
        ({}, [{"lhs_clean": 1.5}], _SNAPSHOT, "line 2: op field 'lhs_clean' has type float"),
        ({}, [{}, {"step": "1"}], _SNAPSHOT, "line 3: op field 'step' has type str"),
        ({}, [{"op": 3}], _SNAPSHOT, "line 2: op field 'op' has type int"),
        ({}, [{"rhs_clean": [1]}], _SNAPSHOT, "line 2: op field 'rhs_clean' has type list"),
        # An equal event with 1 is written first.
        ({}, [{"lhs_clean": 1}, {"step": 1, "lhs_clean": True}], _SNAPSHOT,
         "line 3: op field 'lhs_clean' has type bool"),
        ({}, [{}], SnapshotEvent(0, 1, "1,2"), "line 3: malformed snapshot line '1,2'"),
    ],
    ids=["header_int_digest", "header_bool_seed", "header_float_status", "op_float_operand",
         "op_str_step", "op_int_op", "op_list_operand", "op_bool_after_cached_int",
         "snapshot_bad_line"],
)
def test_writer_refuses_what_the_reader_rejects(tmp_path, header, events, snapshot, message):
    """dumps_record and write_record raise the reader's TraceFormatError for a record
    outside the format, naming the line that record would have."""
    record = RunRecord(**{**_HEADER, **header},
                       events=[dataclasses.replace(_EVENT, **changes) for changes in events],
                       snapshots=[snapshot])
    assert _outcome(dumps_record, record) == message
    path = tmp_path / "trace.jsonl"
    assert _outcome(write_record, record, path) == message
    assert _read_back(path, reference_dumps_record(record)) == message


_TOO_LONG = 10**5000  # past the 4,300 digits str() writes, so no reader can read it back


@pytest.mark.parametrize(
    "header,events,snapshot,lineno",
    [
        ({"seed": _TOO_LONG}, [], _SNAPSHOT, 1),
        ({"final_statuses": [0, -_TOO_LONG]}, [], _SNAPSHOT, 1),
        ({}, [{"lhs_clean": _TOO_LONG}], _SNAPSHOT, 2),
        # The second event's tail is the first's: only its step differs.
        ({}, [{}, {"step": _TOO_LONG}], _SNAPSHOT, 3),
        ({}, [{}], SnapshotEvent(_TOO_LONG, 1, "1,0"), 3),
    ],
    ids=["header_seed", "header_status", "op_operand", "op_step_after_cached_tail",
         "snapshot_round"],
)
def test_writer_refuses_an_int_too_long_to_write(tmp_path, header, events, snapshot, lineno):
    """An int str() cannot write is the TraceFormatError of the line it would be on, from
    dumps_record and from write_record, which leaves the lines before it written."""
    record = RunRecord(**{**_HEADER, **header},
                       events=[dataclasses.replace(_EVENT, **changes) for changes in events],
                       snapshots=[snapshot])
    prefix = f"line {lineno}: cannot write an integer: "
    assert _outcome(dumps_record, record).startswith(prefix)
    path = tmp_path / "trace.jsonl"
    assert _outcome(write_record, record, path).startswith(prefix)
    assert path.read_text(encoding="utf-8").count("\n") == lineno - 1


# Edits of an op line's step token and tail, the text after the token. Each
# keeps the line starting as dumps_record writes it.
_LINE_EDITS = {
    **{f"step {token[:6]!r} of {len(token)} chars": lambda step, tail, token=token: (token, tail)
       for token in ["-0", "007", "+5", " 5", "1_0", "5.0", "9" * 19, "9" * 20,
                     "-9223372036854775808", "9" * 4301]},
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
    return (reference_dumps_record(record).split("\n"),
            {i for i, pick in enumerate(picks, 1) if pick[2]})


_EVENT = OperatorEvent(step=0, op="add", lhs_clean=1, rhs_clean=1, lhs_poisoned=True,
                       rhs_poisoned=False, deviated=True, clean_result=2, emitted_result=3,
                       origin_id=0, lifetime_after=2)


@settings(max_examples=300, deadline=None)
@given(_shared_tail_traces())
# Three op lines with one tail, the last two edited: each edit follows a cached tail.
@example((dumps_record(RunRecord("d", 0, [dataclasses.replace(_EVENT, step=step)
                                          for step in (5, 6, 7)])).split("\n"), {2, 3}))
def test_decoder_matches_the_reference(trace_path, drawn):
    """As drawn and under each edit of the chosen op lines, loads_record reads as the
    reference, and read_record reads the text's file the same."""
    lines, edited = drawn
    for name, edit in [("no edit", None), *_LINE_EDITS.items()]:
        text = "\n".join(_edit_op_line(line, edit) if edit and index in edited else line
                         for index, line in enumerate(lines))
        outcome = _typed(_outcome(reference_loads_record, text))
        assert _typed(_outcome(loads_record, text)) == outcome, name
        assert _typed(_read_back(trace_path, text)) == outcome, name


def _snapshot_text(round_, firing_node, line):
    """A snapshot record's line from its three JSON value texts, in dumps_record's form."""
    return f'{{"type":"snapshot","round":{round_},"firing_node":{firing_node},"line":{line}}}'


# Edits of a snapshot line, given its round and firing_node tokens and its line's
# JSON text. The reader must read each as json.loads does, in place or not.
_SNAPSHOT_EDITS = {
    **{f"{key} {token[:6]!r} of {len(token)} chars":
       lambda r, f, l, key=key, token=token: _snapshot_text(
           *((token, f) if key == "round" else (r, token)), l)
       for key in ("round", "firing_node")
       for token in ["-0", "007", "+5", " 5", "1_0", "5.0", "1e3", "-12", "9" * 19, "9" * 20,
                     "9" * 4301]},
    **{f"line {text}": lambda r, f, l, text=text: _snapshot_text(r, f, text)
       for text in ['"1,,0"', '"1,2"', '""', '"\\u0031"', '"1\\n"']},
    "line with a trailing comma": lambda r, f, l: _snapshot_text(r, f, l[:-1] + ',"'),
    "trailing CR": lambda r, f, l: _snapshot_text(r, f, l) + "\r",
    "spaces after commas": lambda r, f, l: _snapshot_text(r, f, l).replace(',"', ', "'),
    "reordered keys": lambda r, f, l: (
        f'{{"line":{l},"firing_node":{f},"type":"snapshot","round":{r}}}'),
    "extra key": lambda r, f, l: _snapshot_text(r, f, l)[:-1] + ',"extra":1}',
    "duplicate key": lambda r, f, l: _snapshot_text(r, f, l)[:-1] + f',"round":{r}}}',
}


def _edit_snapshot_line(line, edit):
    obj = json.loads(line)
    return edit(str(obj["round"]), str(obj["firing_node"]), json.dumps(obj["line"]))


_SNAPSHOT_LINES = st.from_regex(r"[01](,[01]){0,30}", fullmatch=True) | _LONG_LINES


@st.composite
def _snapshot_traces(draw):
    """The lines of a trace with an op line and snapshots that repeat their lines; and
    the indices of the snapshot lines to edit."""
    lines = draw(st.lists(_SNAPSHOT_LINES, min_size=1, max_size=2))
    picks = draw(st.lists(st.tuples(_INT64S, _INT64S, st.sampled_from(lines), st.booleans()),
                          min_size=1, max_size=5))
    record = RunRecord("d", 0, [_EVENT], [SnapshotEvent(*pick[:3]) for pick in picks], [1, 0])
    return (reference_dumps_record(record).split("\n"),
            {i for i, pick in enumerate(picks, 2) if pick[3]})


@settings(max_examples=200, deadline=None)
@given(_snapshot_traces())
# Three snapshots with one line, the last two edited: each edit follows a line read in place.
@example((dumps_record(RunRecord("d", 0, [_EVENT], [SnapshotEvent(step, 1, "1,0")
                                                    for step in (5, 6, 7)])).split("\n"), {3, 4}))
def test_snapshot_decoder_matches_the_reference(trace_path, drawn):
    """As drawn and under each edit of the chosen snapshot lines, loads_record and
    read_record give the reference's record, or an error on the reference's line; that
    error is the message of the same lines with a trailing space, which no line read in
    place has, so a line read in place never changes a message."""
    lines, edited = drawn
    for name, edit in [("no edit", None), *_SNAPSHOT_EDITS.items()]:
        edited_lines = [_edit_snapshot_line(line, edit) if edit and index in edited else line
                        for index, line in enumerate(lines)]
        text = "\n".join(edited_lines)
        outcome = _outcome(loads_record, text)
        assert _typed(_read_back(trace_path, text)) == _typed(outcome), name
        reference = _outcome(reference_loads_record, text)
        if isinstance(reference, str):
            assert isinstance(outcome, str), name
            assert outcome.startswith(reference[:reference.index(":") + 1]), name
            spaced = [line + " " if index in edited else line
                      for index, line in enumerate(edited_lines)]
            assert _outcome(loads_record, "\n".join(spaced)) == outcome, name
        else:
            assert _typed(outcome) == _typed(reference), name


@settings(max_examples=300, deadline=None)
@given(_INT64S, _INT64S, _SNAPSHOT_LINES)
def test_snapshot_line_read_in_place_is_what_json_reads(round_, firing_node, line):
    """A snapshot line as dumps_record writes it, round and firing_node at int64 edges,
    is read in place into the SnapshotEvent that json.loads gives for it."""
    text = dumps_record(RunRecord("d", 0, snapshots=[SnapshotEvent(round_, firing_node, line)]))
    snapshot_line = text.split("\n")[1]
    assert _SNAPSHOT_LINE(snapshot_line) is not None
    obj = json.loads(snapshot_line)
    del obj["type"]
    (snap,) = loads_record(text).snapshots
    assert snap == SnapshotEvent(**obj)
    assert type(snap.round) is type(snap.firing_node) is int and type(snap.line) is str
