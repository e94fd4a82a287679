"""Structured run records and self-stabilization analytics.

One run produces an ordered stream of OperatorEvents (one per intercepted
operation) and SnapshotEvents (one per firing node). RunRecord bundles both
with the scenario digest and seed; the JSONL codec round-trips records
exactly, one self-describing object per line.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field


class TraceFormatError(ValueError):
    """Malformed snapshot line or trace file."""


_LINE_RE = re.compile(r"[01](,[01])*")
# How every op line starts: dumps_record writes it, loads_record tests for it.
_OP_PREFIX = '{"type":"op","step":'

# JSON key order and the JSON types each key may hold (a bool is not an int
# here). Optional keys are omitted, not null.
_INT, _BOOL = (int,), (bool,)
_EVENT_TYPES = {
    "step": _INT, "op": (str,), "lhs_clean": _INT, "rhs_clean": _INT,
    "lhs_poisoned": _BOOL, "rhs_poisoned": _BOOL, "deviated": _BOOL,
    "clean_result": (int, bool), "emitted_result": (int, bool), "suppressed": _BOOL,
    "origin_id": _INT, "lifetime_after": _INT,
}


@dataclass(slots=True)
class OperatorEvent:
    """One intercepted operator application.

    lhs_poisoned/rhs_poisoned record the operands' poison state on entry
    (whether this operation "used" a poisoned value); deviated records
    whether the emitted result differs from the clean one.
    """

    step: int
    op: str
    lhs_clean: int
    lhs_poisoned: bool
    deviated: bool
    clean_result: int | bool
    emitted_result: int | bool
    suppressed: bool
    rhs_clean: int | None = None
    rhs_poisoned: bool | None = None
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
    uses: int
    deviations: int
    rate: float


def deviation_stats(record: RunRecord) -> DeviationStats:
    """Counts over unsuppressed events that used a poisoned operand."""
    uses = 0
    deviations = 0
    for event in record.events:
        if event.suppressed:
            continue
        if event.lhs_poisoned or event.rhs_poisoned:
            uses += 1
            if event.deviated:
                deviations += 1
    return DeviationStats(uses, deviations, deviations / uses if uses else 0.0)


# One encoder configured as the JSON lines are written; its output for a value
# is that value's text inside json.dumps(obj, separators=(",", ":")).
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def _json_value(value) -> str:
    """JSON text of one field value: ints and bools inline, any other value encoded."""
    if type(value) is int:
        return str(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    return _ENCODE(value)


def dumps_record(record: RunRecord) -> str:
    """Serialize to newline-delimited JSON: header, events, snapshots.

    Each op and snapshot line is written directly, keys in _EVENT_TYPES order
    and optional keys left out when None, as json.dumps would write its dict.
    """
    j = _json_value
    header = {"type": "run", "scenario_digest": record.scenario_digest, "seed": record.seed,
              "final_statuses": record.final_statuses}
    lines = [_ENCODE(header)]
    for event in record.events:
        line = (
            f'{_OP_PREFIX}{j(event.step)},"op":{j(event.op)}'
            f',"lhs_clean":{j(event.lhs_clean)}'
        )
        if event.rhs_clean is not None:
            line += f',"rhs_clean":{j(event.rhs_clean)}'
        line += f',"lhs_poisoned":{j(event.lhs_poisoned)}'
        if event.rhs_poisoned is not None:
            line += f',"rhs_poisoned":{j(event.rhs_poisoned)}'
        line += (
            f',"deviated":{j(event.deviated)},"clean_result":{j(event.clean_result)}'
            f',"emitted_result":{j(event.emitted_result)},"suppressed":{j(event.suppressed)}'
        )
        if event.origin_id is not None:
            line += f',"origin_id":{j(event.origin_id)}'
        if event.lifetime_after is not None:
            line += f',"lifetime_after":{j(event.lifetime_after)}'
        lines.append(line + "}")
    lines += [
        f'{{"type":"snapshot","round":{j(snap.round)},"firing_node":{j(snap.firing_node)}'
        f',"line":{j(snap.line)}}}'
        for snap in record.snapshots
    ]
    return "\n".join(lines) + "\n"


def loads_record(text: str) -> RunRecord:
    """Parse a JSONL trace: records separated by "\\n", each one JSON object.

    Blank lines are skipped. One run header is required (other keys ignored);
    op and snapshot records hold only their own keys, typed as dumps_record
    writes them, optional op keys left out, in any order and with any JSON
    whitespace ("\\r\\n" line ends load too). Any other text is a TraceFormatError.
    Each distinct op-line tail, the text after the step number, is decoded once.
    """
    record = None
    events: list[OperatorEvent] = []
    snapshots: list[SnapshotEvent] = []
    tails: dict[str, tuple] = {}  # op-line tail -> the 11 fields after step it decodes to
    start = len(_OP_PREFIX)
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
        try:
            if kind == "op":
                for key, value in obj.items():
                    types = _EVENT_TYPES.get(key)
                    if types is None:
                        raise TraceFormatError(f"line {lineno}: unknown op field {key!r}")
                    if type(value) not in types:
                        raise TraceFormatError(
                            f"line {lineno}: op field {key!r} has type {type(value).__name__}"
                        )
                step = obj["step"]
                fields = (obj["op"], obj["lhs_clean"], obj["lhs_poisoned"], obj["deviated"],
                          obj["clean_result"], obj["emitted_result"], obj["suppressed"],
                          obj.get("rhs_clean"), obj.get("rhs_poisoned"),
                          obj.get("origin_id"), obj.get("lifetime_after"))
                events.append(OperatorEvent(step, *fields))
                # An int step's text holds no comma, so the tail is all that follows it;
                # with no escape and no "step" key there, any step can precede it.
                if tail is not None and "\\" not in tail and '"step"' not in tail:
                    tails[tail] = fields
            elif kind == "snapshot":
                snap = SnapshotEvent(**obj)
                if (
                    type(snap.round) is not int
                    or type(snap.firing_node) is not int
                    or type(snap.line) is not str
                    or not _LINE_RE.fullmatch(snap.line)
                ):
                    raise TraceFormatError(f"line {lineno}: malformed snapshot record")
                snapshots.append(snap)
            elif kind == "run":
                digest, seed, statuses = obj["scenario_digest"], obj["seed"], obj["final_statuses"]
                if not (type(digest) is str and type(seed) is int and type(statuses) is list
                        and all(type(status) is int for status in statuses)):
                    raise TraceFormatError(
                        f"line {lineno}: run header needs a string scenario_digest, "
                        "an integer seed and a list of integer final_statuses"
                    )
                if record is not None:
                    raise TraceFormatError(f"line {lineno}: second run header")
                record = RunRecord(digest, seed, final_statuses=statuses)
            else:
                raise TraceFormatError(f"line {lineno}: unknown record type {kind!r}")
        except KeyError as exc:
            raise TraceFormatError(f"line {lineno}: {kind} record lacks field {exc}") from exc
        except TypeError as exc:
            raise TraceFormatError(f"line {lineno}: bad {kind} record: {exc}") from exc
    if record is None:
        raise TraceFormatError("trace has no run header")
    record.events = events
    record.snapshots = snapshots
    return record


def write_record(record: RunRecord, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_record(record))


def read_record(path) -> RunRecord:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise TraceFormatError(f"line {line}: invalid UTF-8 at byte {exc.start}") from None
    return loads_record(text)
