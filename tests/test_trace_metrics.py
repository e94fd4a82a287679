"""Snapshot analytics and JSONL trace round-tripping."""

import pytest

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
        ],
        ids=["header_without_digest", "op_unknown_key", "json_list", "snapshot_without_fields"],
    )
    def test_malformed_record_is_a_trace_format_error(self, bad_line):
        header = '{"type":"run","scenario_digest":"d","seed":0,"final_statuses":[]}'
        with pytest.raises(TraceFormatError, match=r"^line 2: "):
            loads_record(f"{header}\n{bad_line}\n")
