"""Structured run records and self-stabilization analytics.

One run produces an ordered stream of OperatorEvents (one per intercepted operation,
when the sink keeps events) and SnapshotEvents (one per firing node). RunRecord bundles
both with the scenario digest and seed; the JSONL codec round-trips records exactly, one
self-describing object per line. One table, _RECORD_TYPES, states each line's keys, their
order and JSON types; one function, _check_record, checks each record against it, on read
and before it is written. Each distinct op-line tail is checked, encoded and decoded once.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from operator import attrgetter


class TraceFormatError(ValueError):
    """Malformed snapshot line or trace file."""


_LINE_RE = re.compile(r"[01](,[01])*")
# How every op line starts: dumps_record writes it, loads_record tests for it.
_OP_PREFIX = '{"type":"op","step":'

# JSON key order and the JSON types each key may hold (a bool is not an int here).
_INT, _BOOL = (int,), (bool,)
_EVENT_TYPES = {
    "step": _INT, "op": (str,), "lhs_clean": _INT, "rhs_clean": _INT,
    "lhs_poisoned": _BOOL, "rhs_poisoned": _BOOL, "deviated": _BOOL,
    "clean_result": (int, bool), "emitted_result": (int, bool),
    "origin_id": _INT, "lifetime_after": _INT,
}
# The op keys left out of a line when None, never written as null; all others are required.
_OPTIONAL = frozenset(("origin_id", "lifetime_after"))
# Every record's keys and their JSON types, by the record's "type".
_RECORD_TYPES = {
    "op": _EVENT_TYPES,
    "snapshot": {"round": _INT, "firing_node": _INT, "line": (str,)},
    "run": {"scenario_digest": (str,), "seed": _INT, "final_statuses": (list,)},
}
_REQUIRED = {kind: frozenset(schema.keys() - _OPTIONAL) for kind, schema in _RECORD_TYPES.items()}
# An op line's keys after step, in JSON key order: the line's tail is their text.
_TAIL_KEYS = tuple(_EVENT_TYPES)[1:]
_TAIL_FIELDS = attrgetter(*_TAIL_KEYS)


@dataclass(slots=True)
class OperatorEvent:
    """One intercepted operator application, its fields in an op line's key order.

    lhs_poisoned/rhs_poisoned record the two operands' poison state on entry; deviated
    records that the governing operand's draw fired, even where the emitted result equals
    the clean one (stuck_at 4 on a clean 4). origin_id and lifetime_after, the governing
    operand's, are None when neither operand is poisoned. A suppressed op records no event.
    """

    step: int
    op: str
    lhs_clean: int
    rhs_clean: int
    lhs_poisoned: bool
    rhs_poisoned: bool
    deviated: bool
    clean_result: int | bool
    emitted_result: int | bool
    origin_id: int | None = None
    lifetime_after: int | None = None


@dataclass(slots=True)
class SnapshotEvent:
    """One privilege-vector snapshot, emitted just before a node fires."""

    round: int
    firing_node: int
    line: str


@dataclass(slots=True)
class RunRecord:
    """A complete, replayable account of one simulation run."""

    scenario_digest: str
    seed: int
    events: list[OperatorEvent] = field(default_factory=list)
    snapshots: list[SnapshotEvent] = field(default_factory=list)
    final_statuses: list[int] = field(default_factory=list)


def token_count(line: str) -> int:
    """Number of privileged nodes in a snapshot line."""
    if not _LINE_RE.fullmatch(line):
        raise TraceFormatError(f"malformed snapshot line: {line!r}")
    return line.count("1")


def is_legitimate(line: str) -> bool:
    """True when the snapshot shows exactly one token."""
    return token_count(line) == 1


def convergence_point(record: RunRecord) -> int | None:
    """Smallest snapshot index from which every later snapshot is legitimate.

    None when the record has no snapshots or its tail is illegitimate.
    """
    snaps = record.snapshots
    if not snaps:
        return None
    i = len(snaps)
    while i > 0 and is_legitimate(snaps[i - 1].line):
        i -= 1
    return i if i < len(snaps) else None


@dataclass(slots=True, frozen=True)
class DeviationStats:
    """Poisoned uses and deviations; rate is 0.0 if uses is 0 (the CLI prints -)."""

    uses: int
    deviations: int
    rate: float


def deviation_stats(record: RunRecord) -> DeviationStats:
    """Counts over the events that used a poisoned operand; suppressed ops record none."""
    uses = 0
    deviations = 0
    for event in record.events:
        if event.lhs_poisoned or event.rhs_poisoned:
            uses += 1
            if event.deviated:
                deviations += 1
    return DeviationStats(uses, deviations, deviations / uses if uses else 0.0)


# One encoder configured as the JSON lines are written; its output for a value
# is that value's text inside json.dumps(obj, separators=(",", ":")).
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def _check_record(kind, obj: dict, lineno: int) -> None:
    """Raise line lineno's TraceFormatError unless obj, a record's keys but "type", is a
    kind record: known keys of their _RECORD_TYPES types (by identity: a bool or an IntEnum
    is no int), every required key, a 0/1 snapshot line and integer final_statuses."""
    schema = _RECORD_TYPES.get(kind) if type(kind) is str else None
    if schema is None:
        raise TraceFormatError(f"line {lineno}: unknown record type {kind!r}")
    for key, value in obj.items():
        types = schema.get(key)
        if types is None:
            raise TraceFormatError(f"line {lineno}: unknown {kind} field {key!r}")
        if type(value) not in types:
            raise TraceFormatError(
                f"line {lineno}: {kind} field {key!r} has type {type(value).__name__}"
            )
    if not _REQUIRED[kind] <= obj.keys():
        missing = next(key for key in schema if key in _REQUIRED[kind] and key not in obj)
        raise TraceFormatError(f"line {lineno}: {kind} record lacks field {missing!r}")
    if kind == "snapshot" and not _LINE_RE.fullmatch(obj["line"]):
        raise TraceFormatError(f"line {lineno}: malformed snapshot line {obj['line']!r}")
    if kind == "run" and not all(type(status) is int for status in obj["final_statuses"]):
        raise TraceFormatError(f"line {lineno}: run field 'final_statuses' holds a non-integer")


def _record_lines(record: RunRecord):
    """Yield the record's JSONL lines, each ending in "\\n": header, events, snapshots.

    Each record is first checked by _check_record under its line's number, so one the
    reader would reject raises the reader's TraceFormatError. The header and each op-line
    tail, the text after the step, are _ENCODE's text of their keys in _RECORD_TYPES
    order, optional keys left out when None; each distinct tail is checked and encoded
    once, keyed by its field values and their types (a cached 1 never vouches for a True).
    Checked steps and snapshots need no escaping and are written as f-strings. An int
    too long for str(), which the reader could not parse either, raises its line's error.
    """
    lineno = 1
    try:
        header = {"scenario_digest": record.scenario_digest, "seed": record.seed,
                  "final_statuses": record.final_statuses}
        _check_record("run", header, lineno)
        yield '{"type":"run",' + _ENCODE(header)[1:] + "\n"
        tails: dict[tuple, str] = {}  # (fields, *their types) -> tail, "\n" included
        for lineno, event in enumerate(record.events, start=2):
            fields = _TAIL_FIELDS(event)
            key = (fields, *map(type, fields))
            step = event.step
            try:
                tail = tails[key]
            except (KeyError, TypeError):  # a new tail, or an unhashable field (never well typed)
                tail = None
            if tail is None or type(step) is not int:
                obj = {name: value for name, value in zip(_TAIL_KEYS, fields)
                       if value is not None or name not in _OPTIONAL}
                _check_record("op", {"step": step, **obj}, lineno)
                tail = tails[key] = "," + _ENCODE(obj)[1:] + "\n"
            yield f"{_OP_PREFIX}{step}{tail}"
        for lineno, snap in enumerate(record.snapshots, start=len(record.events) + 2):
            _check_record("snapshot", {"round": snap.round, "firing_node": snap.firing_node,
                                       "line": snap.line}, lineno)
            yield (f'{{"type":"snapshot","round":{snap.round},"firing_node":{snap.firing_node}'
                   f',"line":"{snap.line}"}}\n')
    except TraceFormatError:
        raise
    except ValueError as exc:  # str() of an int past sys.get_int_max_str_digits()
        raise TraceFormatError(f"line {lineno}: cannot write an integer: {exc}") from exc


def dumps_record(record: RunRecord) -> str:
    """JSONL text: header, events, snapshots; a record the reader rejects raises its error."""
    return "".join(_record_lines(record))


def loads_record(text: str) -> RunRecord:
    """Parse a JSONL trace: records separated by "\\n", each one JSON object.

    Blank lines are skipped. One run header is required, holding only its three
    keys (scenario_digest, seed, final_statuses); op and snapshot records hold
    only their own keys. Every key is typed as dumps_record writes it, optional
    op keys left out, in any order and with any JSON whitespace ("\\r\\n" line
    ends load too). Any other text is a TraceFormatError, raised at the first bad
    line. read_record parses a file's lines the same way, one at a time.
    """
    return _parse_lines(text.split("\n"))


def _parse_lines(lines) -> RunRecord:
    """loads_record's parse of lines without their "\\n"; decodes each distinct op-line tail once."""
    record = None
    events: list[OperatorEvent] = []
    snapshots: list[SnapshotEvent] = []
    tails: dict[str, tuple] = {}  # op-line tail -> its _TAIL_KEYS values
    start = len(_OP_PREFIX)
    for lineno, raw in enumerate(lines, start=1):
        tail = None
        if raw.startswith(_OP_PREFIX):
            comma = raw.find(",", start)
            token, tail = raw[start:comma], raw[comma:]
            fields = tails.get(tail)
            if fields is not None:
                try:
                    step = int(token)
                except ValueError:  # not an integer, or past 4,300 digits
                    pass
                else:
                    if str(step) == token:  # canonical, as dumps_record writes it
                        events.append(OperatorEvent(step, *fields))
                        continue
        elif not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except (ValueError, RecursionError) as exc:  # also too many digits, or too deep
            raise TraceFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise TraceFormatError(f"line {lineno}: expected an object, got {type(obj).__name__}")
        kind = obj.pop("type", None)
        _check_record(kind, obj, lineno)
        if kind == "op":
            fields = tuple(map(obj.get, _TAIL_KEYS))
            events.append(OperatorEvent(obj["step"], *fields))
            # An int step's text holds no comma, so the tail is all that follows it;
            # with no escape and no "step" key there, any step can precede it.
            if tail is not None and "\\" not in tail and '"step"' not in tail:
                tails[tail] = fields
        elif kind == "snapshot":
            snapshots.append(SnapshotEvent(**obj))
        else:  # "run"
            if record is not None:
                raise TraceFormatError(f"line {lineno}: second run header")
            record = RunRecord(**obj)
    if record is None:
        raise TraceFormatError("trace has no run header")
    record.events = events
    record.snapshots = snapshots
    return record


def write_record(record: RunRecord, path) -> None:
    """Write dumps_record's text to path one line at a time, never the whole trace at once;
    a record the reader rejects raises its TraceFormatError, the lines before it written."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_record_lines(record))


def read_record(path) -> RunRecord:
    """Load a trace file as loads_record loads its text, reading and decoding line by line.

    Each line is parsed before the next is read, so the first bad line wins: invalid JSON
    on line 2 is reported even if line 3 is invalid UTF-8, a TraceFormatError
    "line N: invalid UTF-8 at byte B" with B counted from the start of the file.
    """
    def decoded(fh):
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield raw.decode("utf-8").removesuffix("\n")
            except UnicodeDecodeError as exc:
                byte = fh.tell() - len(raw) + exc.start
                raise TraceFormatError(f"line {lineno}: invalid UTF-8 at byte {byte}") from None

    with open(path, "rb") as fh:
        return _parse_lines(decoded(fh))
