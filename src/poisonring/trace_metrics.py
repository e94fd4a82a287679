"""Structured run records and self-stabilization analytics.

One run produces an ordered stream of OperatorEvents (one per intercepted operation,
when the sink keeps events) and SnapshotEvents (one per firing node). RunRecord bundles
both with the scenario digest and seed; the JSONL codec round-trips records exactly, one
self-describing object per line. One table, _RECORD_TYPES, states each line's keys, their
order and JSON types; one function, _check_record, judges each record against it, on read
and before it is written. Op and snapshot lines in the writer's exact form skip JSON: the
writer formats a record of exact field types as an f-string, and the reader matches such a
line with a regex and converts each distinct op tail and snapshot line once. Each accepts
only what _check_record accepts, and leaves anything else to it, so no byte or message
depends on these paths.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from operator import attrgetter


class TraceFormatError(ValueError):
    """Malformed snapshot line or trace file."""


_LINE_RE = re.compile(r"[01](?:,[01])*")
# How every op line starts: dumps_record writes it, _OP_LINE matches it.
_OP_PREFIX = '{"type":"op","step":'
_INT_TOKEN = r"(0|-?[1-9][0-9]{0,18})"  # a canonical int, short enough that int() reads it
# Lines in the writer's exact form: an op line's step and tail, a snapshot line's three fields
# (its line any text, for _LINE_RE to judge once per distinct line).
_OP_LINE = re.compile(re.escape(_OP_PREFIX) + _INT_TOKEN + "(,.*)").fullmatch
_SNAPSHOT_LINE = re.compile(rf'\{{"type":"snapshot","round":{_INT_TOKEN},"firing_node":'
                            rf'{_INT_TOKEN},"line":"(.*)"\}}').fullmatch

# JSON key order and the JSON types each key may hold (a bool is not an int here).
_INT, _BOOL, _RESULT = (int,), (bool,), (int, bool)
_EVENT_TYPES = {
    "step": _INT, "op": (str,), "lhs_clean": _INT, "rhs_clean": _INT,
    "lhs_poisoned": _BOOL, "rhs_poisoned": _BOOL, "deviated": _BOOL,
    "clean_result": _RESULT, "emitted_result": _RESULT,
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
_EVENT_FIELDS = attrgetter(*_EVENT_TYPES)
# An op line's tail, the text after its step, in the writer's exact form: one group per key
# in _EVENT_TYPES order, each read as _LITERALS gives it or as an int, but the op string,
# which needs no escape. Only a first-seen tail is matched, through re's cache, so a program
# that reads no trace never compiles it.
_TOKENS = {_INT: _INT_TOKEN, _BOOL: "(true|false)", _RESULT: _INT_TOKEN[:-1] + "|true|false)",
           (str,): r'"([^"\\\x00-\x1f]*)"'}
_OP_TAIL = "".join(
    f'(?:,"{key}":{_TOKENS[types]})?' if key in _OPTIONAL else f',"{key}":{_TOKENS[types]}'
    for key, types in _EVENT_TYPES.items() if key != "step") + "}"
_LITERALS = {"true": True, "false": False, None: None}


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
    legitimate = set()  # a tail repeats a few lines: each distinct one is checked once
    i = len(snaps)
    while i > 0 and (snaps[i - 1].line in legitimate or is_legitimate(snaps[i - 1].line)):
        legitimate.add(snaps[i - 1].line)
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

    A record the reader would reject raises the reader's TraceFormatError, naming its line.
    The header is checked by _check_record and written as _ENCODE's text of its keys in
    _RECORD_TYPES order. Events and snapshots are written as f-strings without JSON, optional
    keys left out when None. An event whose fields each hold exactly a type _EVENT_TYPES
    names, or a snapshot of exact ints and an exact str _LINE_RE matches (each distinct line
    matched once), is exactly what _check_record accepts, so it is called only for any other
    event or snapshot, to refuse it: no message changes and no byte depends on the f-strings.
    An int too long for str(), which no reader could parse, raises its line's error.
    """
    lineno = 1
    try:
        header = {"scenario_digest": record.scenario_digest, "seed": record.seed,
                  "final_statuses": record.final_statuses}
        _check_record("run", header, lineno)
        yield '{"type":"run",' + _ENCODE(header)[1:] + "\n"
        for lineno, event in enumerate(record.events, start=2):
            fields = _EVENT_FIELDS(event)
            step, op, lhs, rhs, lhs_p, rhs_p, deviated, clean, emitted, origin, life = fields
            # _EVENT_TYPES spelled out: _check_record accepts no other event, and refuses this.
            if not (type(step) is type(lhs) is type(rhs) is int and type(op) is str
                    and type(lhs_p) is type(rhs_p) is type(deviated) is bool
                    and type(clean) in _RESULT and type(emitted) in _RESULT
                    and (origin is None or type(origin) is int)
                    and (life is None or type(life) is int)):
                _check_record("op", {key: value for key, value in zip(_EVENT_TYPES, fields)
                                     if value is not None or key not in _OPTIONAL}, lineno)
            clean = "true" if clean is True else "false" if clean is False else clean
            emitted = "true" if emitted is True else "false" if emitted is False else emitted
            origin = "" if origin is None else f',"origin_id":{origin}'
            life = "" if life is None else f',"lifetime_after":{life}'
            yield (f'{_OP_PREFIX}{step},"op":{_ENCODE(op)},"lhs_clean":{lhs},"rhs_clean":{rhs},'
                   f'"lhs_poisoned":{"true" if lhs_p else "false"},'
                   f'"rhs_poisoned":{"true" if rhs_p else "false"},'
                   f'"deviated":{"true" if deviated else "false"},"clean_result":{clean},'
                   f'"emitted_result":{emitted}{origin}{life}}}\n')
        checked: set[str] = set()  # snapshot lines, each an exact str, that _LINE_RE matched
        for lineno, snap in enumerate(record.snapshots, start=len(record.events) + 2):
            round_, node, line = snap.round, snap.firing_node, snap.line
            if not (type(round_) is type(node) is int and type(line) is str
                    and (line in checked or _LINE_RE.fullmatch(line))):
                _check_record("snapshot", {"round": round_, "firing_node": node, "line": line},
                              lineno)  # refuses it, as it refuses such an event
            checked.add(line)
            yield f'{{"type":"snapshot","round":{round_},"firing_node":{node},"line":"{line}"}}\n'
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
    line. Op and snapshot lines in the writer's exact form are read without JSON;
    read_record parses a file's lines the same way, one at a time.
    """
    return _parse_lines(text.split("\n"))


def _parse_lines(lines) -> RunRecord:
    """loads_record's parse of lines without their "\\n". A line in the writer's exact form is
    read without JSON: an op line whose tail _OP_TAIL matches, each distinct tail converted
    once, and a snapshot line whose line _LINE_RE matches, each distinct line matched once
    and kept once. Any other line is json.loads' and _check_record's."""
    record = None
    events: list[OperatorEvent] = []
    snapshots: list[SnapshotEvent] = []
    tails: dict[str, tuple] = {}  # op-line tail -> its field values after step
    known: dict[str, str] = {}  # snapshot line -> the one str that holds it
    for lineno, raw in enumerate(lines, start=1):
        op = _OP_LINE(raw)  # as dumps_record writes it
        if op is not None:
            fields = tails.get(op[2])
            if fields is None and (tail := re.fullmatch(_OP_TAIL, op[2])) is not None:
                name, *values = tail.groups()
                fields = tails[op[2]] = (
                    name, *[_LITERALS[v] if v in _LITERALS else int(v) for v in values])
            if fields is not None:
                events.append(OperatorEvent(int(op[1]), *fields))
                continue
        elif (snap := _SNAPSHOT_LINE(raw)) is not None:  # as dumps_record writes it
            line = known.get(snap[3])
            if line is None and _LINE_RE.fullmatch(snap[3]):
                line = known[snap[3]] = snap[3]
            if line is not None:
                snapshots.append(SnapshotEvent(int(snap[1]), int(snap[2]), line))
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
            events.append(OperatorEvent(**obj))
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
