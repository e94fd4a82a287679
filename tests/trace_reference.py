"""Reference JSONL encoder and decoder for run records.

Independent of the package's codec: each line is a dict serialized by
json.dumps with compact separators, the way dumps_record first wrote traces,
and read back by json.loads line by line, the way loads_record first read
them. Used as the oracles that the direct encoder must match byte for byte
and the tail-caching decoder must match record for record and error for error;
reference_first_bad_line names the line at which the encoder must refuse a record.
"""

import json
import re

from poisonring import OperatorEvent, RunRecord, SnapshotEvent, TraceFormatError

# JSON key order of an op line; the last two keys are left out when None.
EVENT_KEYS = (
    "step", "op", "lhs_clean", "rhs_clean", "lhs_poisoned", "rhs_poisoned", "deviated",
    "clean_result", "emitted_result", "origin_id", "lifetime_after",
)
OPTIONAL_EVENT_KEYS = ("origin_id", "lifetime_after")


def _event_to_obj(event) -> dict:
    obj = {}
    for key in EVENT_KEYS:
        value = getattr(event, key)
        if value is None and key in OPTIONAL_EVENT_KEYS:
            continue
        obj[key] = value
    return obj


def reference_dumps_record(record) -> str:
    """Newline-delimited JSON: header, events, snapshots."""
    lines = [
        json.dumps(
            {
                "type": "run",
                "scenario_digest": record.scenario_digest,
                "seed": record.seed,
                "final_statuses": record.final_statuses,
            },
            separators=(",", ":"),
        )
    ]
    for event in record.events:
        obj = {"type": "op"}
        obj.update(_event_to_obj(event))
        lines.append(json.dumps(obj, separators=(",", ":")))
    for snap in record.snapshots:
        obj = {
            "type": "snapshot",
            "round": snap.round,
            "firing_node": snap.firing_node,
            "line": snap.line,
        }
        lines.append(json.dumps(obj, separators=(",", ":")))
    return "\n".join(lines) + "\n"


# The decoder's copy of the format: snapshot line shape, op keys and their JSON types.
_LINE_RE = re.compile(r"[01](,[01])*")
_INT, _BOOL = (int,), (bool,)
_EVENT_TYPES = {
    "step": _INT, "op": (str,), "lhs_clean": _INT, "rhs_clean": _INT,
    "lhs_poisoned": _BOOL, "rhs_poisoned": _BOOL, "deviated": _BOOL,
    "clean_result": (int, bool), "emitted_result": (int, bool),
    "origin_id": _INT, "lifetime_after": _INT,
}


def reference_first_bad_line(record) -> int | None:
    """Number of the first line of reference_dumps_record(record) whose record holds a
    value outside its field's JSON type (by identity: a bool or an IntEnum is not an int),
    a malformed snapshot line or a non-integer final status; None if there is none."""
    if not (type(record.scenario_digest) is str and type(record.seed) is int
            and type(record.final_statuses) is list
            and all(type(status) is int for status in record.final_statuses)):
        return 1
    for lineno, event in enumerate(record.events, start=2):
        for key in EVENT_KEYS:
            value = getattr(event, key)
            if type(value) not in _EVENT_TYPES[key] and not (
                value is None and key in OPTIONAL_EVENT_KEYS
            ):
                return lineno
    for lineno, snap in enumerate(record.snapshots, start=len(record.events) + 2):
        if not (type(snap.round) is int and type(snap.firing_node) is int
                and type(snap.line) is str and _LINE_RE.fullmatch(snap.line)):
            return lineno
    return None


def reference_loads_record(text: str) -> RunRecord:
    """Parse a JSONL trace produced by dumps_record; any other text is a TraceFormatError."""
    record = None
    events: list[OperatorEvent] = []
    snapshots: list[SnapshotEvent] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
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
                events.append(OperatorEvent(
                    step=obj["step"], op=obj["op"], lhs_clean=obj["lhs_clean"],
                    rhs_clean=obj["rhs_clean"], lhs_poisoned=obj["lhs_poisoned"],
                    rhs_poisoned=obj["rhs_poisoned"], deviated=obj["deviated"],
                    clean_result=obj["clean_result"], emitted_result=obj["emitted_result"],
                    origin_id=obj.get("origin_id"), lifetime_after=obj.get("lifetime_after"),
                ))
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
