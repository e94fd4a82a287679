"""Reference JSONL encoder for run records.

Independent of the package's encoder: each line is a dict serialized by
json.dumps with compact separators, the way dumps_record first wrote traces.
Used as the oracle that the direct encoder must match byte for byte.
"""

import json

# JSON key order of an op line; the last four keys are left out when None.
EVENT_KEYS = (
    "step", "op", "lhs_clean", "rhs_clean", "lhs_poisoned", "rhs_poisoned", "deviated",
    "clean_result", "emitted_result", "suppressed", "origin_id", "lifetime_after",
)
OPTIONAL_EVENT_KEYS = ("rhs_clean", "rhs_poisoned", "origin_id", "lifetime_after")


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
