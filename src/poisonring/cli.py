"""Scenario-driven command line front end.

    poisonring run --config scenario.json [--seed U64] [--trace out.jsonl] [--quiet]
    poisonring check
    poisonring sweep --config scenario.json --param rate --values 0.1,0.5 --reps 20

stdout carries bare snapshot lines (run) or the sweep summary table; all
diagnostics go to stderr. Exit codes: 0 success, 1 scenario/config error
(an unwritable --trace path too), 2 arithmetic fault during simulation,
3 golden-trace check mismatch, 130 interrupted (Ctrl-C; one `interrupted`
line on stderr), 141 stdout closed by its reader (as in `run ... | head -1`;
nothing is printed). A stdout that cannot be written (as `> /dev/full`) exits 1
with one `error: cannot write stdout: ...` line on stderr.

Sweep --values is the inside of a JSON array, decoded once; a bad text is one
`invalid JSON at character N` error. A sweep point is the canonical scenario object
with one value set on every poison injection, read back by parse_scenario; its
error names `param=value`, the value in compact JSON, then the field path.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import sys
from collections import Counter
from fractions import Fraction

from .poison_core import ArithmeticFault, DeviationModel, EvalContext, PoisonPolicy, PolicyError
from .ring_sim import Injection, RingConfig, Scenario, ScenarioError, run
from .trace_metrics import RunRecord, convergence_point, deviation_stats, token_count, write_record

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CHECK_MISMATCH = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process that Ctrl-C ended
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process that SIGPIPE ended

# The 7-line fault-free golden prefix: 5 nodes, K=5, first 10 rounds.
GOLDEN_PREFIX = (
    "1,0,0,0,0",
    "0,1,0,0,0",
    "0,0,1,0,0",
    "0,0,0,1,0",
    "0,0,0,0,1",
    "1,0,0,0,0",
    "0,1,0,0,0",
)


# Scenario files hold the canonical object that scenario_obj writes and scenario_digest
# hashes; parse_scenario reads it back. The reader checks the JSON shape (objects, lists,
# known and required keys); every value is checked by the domain type it builds, and its
# error is passed on behind the field path.
# The policy axes: (file key, PoisonPolicy field, the plain form for None, the key of {key: value}).
_AXES = (("effect", "rate", "deterministic", "intermittent"),
         ("lifetime", "uses", "always", "transient"))
# Each sweep --param and the policy axis of the canonical scenario object it edits.
SWEEP_PARAMS = dict(zip(("rate", "transient_uses"), _AXES))
# A magnitude string as str() writes a Fraction or an int: "7", "-5/2".
_MAGNITUDE_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def scenario_obj(scenario: Scenario) -> dict:
    """The canonical JSON object of a scenario: what parse_scenario reads and the digest hashes.
    An injection with a policy is a "poison", one without a "perturb"; no other module names kinds."""
    injections = []
    for injection in scenario.injections:
        obj = {"kind": "poison", "node": injection.node, "at_round": injection.at_round}
        policy = injection.policy
        if policy is None:
            obj.update(kind="perturb", new_status=injection.new_status)
        else:
            deviation = {"kind": policy.deviation.kind, "magnitude": str(policy.deviation.magnitude)}
            obj["policy"] = {
                **{key: plain if getattr(policy, attr) is None else {keyed: getattr(policy, attr)}
                   for key, attr, plain, keyed in _AXES},
                "infectious": policy.infectious, "deviation": deviation,
            }
        injections.append(obj)
    ring = scenario.ring
    return {
        "ring": {"node_count": ring.node_count, "k_states": ring.k_states, "rounds": ring.rounds},
        "seed": ring.seed,
        "injections": injections,
    }


def scenario_digest(scenario: Scenario) -> str:
    """sha256 of the scenario's canonical object as compact, key-sorted JSON."""
    blob = json.dumps(scenario_obj(scenario), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _fail(field: str, message: str):
    raise ScenarioError(f"{field}: {message}")


def _fields(obj, field: str, required, optional=()) -> list:
    """Values of the required keys of a JSON object that has no keys but these."""
    if not isinstance(obj, dict):
        _fail(field, "expected an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        _fail(field, f"unknown keys {unknown} (no aliases are accepted)")
    missing = [key for key in required if obj.get(key) is None]
    if missing:
        _fail(field, f"missing or null keys {missing}")
    return [obj[key] for key in required]


def _build(field: str, factory, *args, **kwargs):
    """factory(*args, **kwargs), its domain error prefixed with the field path."""
    try:
        return factory(*args, **kwargs)
    except (ScenarioError, PolicyError, RecursionError) as exc:  # a value too deep for its repr
        raise ScenarioError(f"{field}: {exc}") from exc


def _magnitude(text: str):
    """A magnitude string read back: an int when whole, else a Fraction."""
    if not _MAGNITUDE_RE.fullmatch(text):
        raise ScenarioError('expected a number, an integer string or a "p/q" string')
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:  # "1/0", or more digits than int() reads
        raise ScenarioError(f"cannot read {text[:40]!r}: {exc}") from None
    return value.numerator if value.denominator == 1 else value


def _parse_policy(obj, field: str) -> PoisonPolicy:
    required = (*(axis[0] for axis in _AXES), "infectious", "deviation")
    *axes, infectious, deviation = _fields(obj, field, required)
    axis_args = {}
    for value, (key, attr, plain, keyed) in zip(axes, _AXES):
        if value == plain:
            continue
        if not isinstance(value, dict):
            _fail(f"{field}.{key}", f'expected "{plain}" or {{"{keyed}": ...}}, got {value!r}')
        (axis_args[attr],) = _fields(value, f"{field}.{key}", (keyed,))
    dev_field = f"{field}.deviation"
    kind, magnitude = _fields(deviation, dev_field, ("kind", "magnitude"))
    if isinstance(magnitude, str):
        magnitude = _build(f"{dev_field}.magnitude", _magnitude, magnitude)
    model = _build(dev_field, DeviationModel, kind, magnitude)
    return _build(field, PoisonPolicy, model, infectious=infectious, **axis_args)


def _parse_injection(obj, field: str) -> Injection:
    if not isinstance(obj, dict):
        _fail(field, "expected an object")
    kind = obj.get("kind")
    if kind not in ("poison", "perturb"):
        _fail(f"{field}.kind", f'expected "poison" or "perturb", got {kind!r}')
    spec_key = "policy" if kind == "poison" else "new_status"
    _, node, at_round, spec = _fields(obj, field, ("kind", "node", "at_round", spec_key))
    if kind == "poison":
        spec = _parse_policy(spec, f"{field}.policy")
    return _build(field, Injection, node, at_round, **{spec_key: spec})


def parse_scenario(obj, source: str = "<scenario>") -> Scenario:
    """Build a Scenario from a decoded scenario object, such as scenario_obj writes."""
    (ring_obj,) = _fields(obj, source, ("ring",), ("injections", "seed"))
    ring_args = _fields(ring_obj, f"{source}.ring", ("node_count", "k_states", "rounds"))
    ring = _build(source, RingConfig, *ring_args, seed=obj.get("seed", 0))
    injections = obj.get("injections", [])
    if not isinstance(injections, list):
        _fail(f"{source}.injections", "expected a list")
    parsed = tuple(
        _parse_injection(inj, f"{source}.injections[{i}]") for i, inj in enumerate(injections)
    )
    return _build(source, Scenario, ring, parsed)


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot read scenario: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno}: invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer of too many digits, or too deep
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return parse_scenario(obj, source=path)


def _with_seed(scenario: Scenario, seed: int) -> Scenario:
    return dataclasses.replace(scenario, ring=dataclasses.replace(scenario.ring, seed=seed))


def execute_scenario(scenario: Scenario) -> RunRecord:
    """Run a scenario and package its record: the trace that run writes, the sweep's per-rep analytics."""
    ctx = EvalContext()
    state, snapshots = run(scenario.ring, scenario.injections, ctx)
    return RunRecord(scenario_digest(scenario), scenario.seed, events=ctx.event_sink,
                     snapshots=snapshots, final_statuses=state.clean_statuses())


def _print_summary(record: RunRecord) -> None:
    histogram = Counter()
    for line, count in Counter(s.line for s in record.snapshots).items():  # each line once
        histogram[token_count(line)] += count
    stats = deviation_stats(record)
    point = convergence_point(record)
    hist = " ".join(f"{k}:{v}" for k, v in sorted(histogram.items())) or "(empty)"
    rate = f"{stats.rate:.4f}" if stats.uses else "-"  # no use: no rate, not a rate of 0
    print(
        f"snapshots: {len(record.snapshots)}\ntoken-count histogram: {hist}\n"
        f"convergence point: {'none' if point is None else point}\n"
        f"deviation stats: uses={stats.uses} deviations={stats.deviations} rate={rate}",
        file=sys.stderr,
    )


def cmd_run(scenario: Scenario, quiet: bool = False, trace_path=None) -> int:
    """Execute one scenario: snapshot lines to stdout, summary to stderr, the trace to trace_path."""
    record = execute_scenario(scenario)
    if trace_path is not None:
        try:
            write_record(record, trace_path)
        except OSError as exc:
            raise ScenarioError(f"--trace: cannot write {trace_path!r}: {exc.strerror or exc}") from exc
    if not quiet:
        sys.stdout.writelines(f"{snap.line}\n" for snap in record.snapshots)
        sys.stdout.flush()  # a stdout that cannot be written fails before the summary
        if trace_path is not None:
            print(f"trace written: {trace_path}", file=sys.stderr)
        _print_summary(record)
    return EXIT_OK


def compare_golden(lines):
    """First (index, expected, actual-or-None) mismatch, or None when the golden prefix matches."""
    for i, expected in enumerate(GOLDEN_PREFIX):
        actual = lines[i] if i < len(lines) else None
        if actual != expected:
            return (i, expected, actual)
    return None


def cmd_check() -> int:
    """Re-run the built-in fault-free 5-node ring through run alone, no record; compare the golden prefix."""
    _, snapshots = run(RingConfig(node_count=5, k_states=5, rounds=10))
    mismatch = compare_golden([s.line for s in snapshots])
    if mismatch is None:
        print(f"check: {len(GOLDEN_PREFIX)}/{len(GOLDEN_PREFIX)} golden lines match", file=sys.stderr)
        return EXIT_OK
    index, expected, actual = mismatch
    shown = "(missing)" if actual is None else actual
    print(f"check: mismatch at line {index + 1}: expected {expected} got {shown}", file=sys.stderr)
    return EXIT_CHECK_MISMATCH


def _sweep_values(text: str) -> list:
    """The --values text decoded as the inside of one JSON array."""
    wrapped = f"[{text}]"
    try:
        values, end = json.JSONDecoder().raw_decode(wrapped)
        if end < len(wrapped):  # a stray "]" in text closed the array: it is wrapped[end - 1]
            raise json.JSONDecodeError("unmatched ']'", wrapped, end - 1)
    except json.JSONDecodeError as exc:  # pos counts the added "[", N counts within text
        raise ScenarioError(f"--values: invalid JSON at character {exc.pos - 1}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer of too many digits, or too deep
        raise ScenarioError(f"--values: invalid JSON: {exc}") from exc
    return values


def _sweep_point(scenario: Scenario, param: str, value) -> Scenario:
    """The sweep point of one decoded --values value: it is set on every poison injection."""
    axis, _, _, key = SWEEP_PARAMS[param]
    # A value decoded just below the recursion limit can be too deep to write back.
    name = _build("--values: invalid JSON", json.dumps, value, separators=(",", ":"))
    field = f"--values: {param}={name}"
    obj = scenario_obj(scenario)
    for injection in obj["injections"]:
        if injection["kind"] == "poison":
            injection["policy"][axis] = {key: value}
    return _build(field, parse_scenario, obj)


def cmd_sweep(scenario: Scenario, param: str, values: list, reps: int) -> int:
    """Fault campaign over one policy knob; one table row per value, rep r at seed + r.

    `runs` is reps; `converged` counts reps whose snapshot tail is legitimate; `mean_cp`
    and `max_cp` are snapshot indices over the converged reps only (`-` if none);
    `mean_dev_rate` is the mean over reps of deviations/uses, a mean of ratios and not
    the pooled rate (ROADMAP H), `-` if no rep made a poisoned use.
    """
    if not values:
        raise ScenarioError("no values: --values must list at least one value")
    if reps < 1:
        raise ScenarioError("--reps must be at least 1")
    if not any(inj.policy is not None for inj in scenario.injections):
        raise ScenarioError(f"parameter {param!r} not applicable: scenario has no poison injection")
    # Every value is checked before the table starts, so a bad one prints no partial table.
    sweeps = [(value, _sweep_point(scenario, param, value)) for value in values]
    print(f"{'value':>12} {'runs':>6} {'converged':>9} {'mean_cp':>9} {'max_cp':>7} {'mean_dev_rate':>13}")
    for value, swept in sweeps:
        points, stats = [], []
        for rep in range(reps):
            seeded = _with_seed(swept, (scenario.seed + rep) % 2**64)
            try:
                record = execute_scenario(seeded)
            except ArithmeticFault as exc:  # name the point, so run --seed can replay it
                exc.args = (f"{param}={value!s}, seed {seeded.seed}: {exc.args[0]}",)
                raise
            points.append(convergence_point(record))
            stats.append(deviation_stats(record))
        converged = [p for p in points if p is not None]
        mean_cp = f"{sum(converged) / len(converged):.2f}" if converged else "-"
        max_cp = f"{max(converged)}" if converged else "-"
        mean_rate = f"{sum(s.rate for s in stats) / reps:.4f}" if any(s.uses for s in stats) else "-"
        print(f"{value!s:>12} {reps:>6} {len(converged):>9} {mean_cp:>9} {max_cp:>7} {mean_rate:>13}")
    return EXIT_OK


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Spec reserves exit code 2 for arithmetic faults; usage errors exit 1.
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="poisonring", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("--config", required=True, help="scenario JSON path")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--trace", default=None, help="write the JSONL trace here")
    p_run.add_argument("--quiet", action="store_true", help="suppress snapshot mirror and summary")

    sub.add_parser("check", help="verify the built-in golden trace")

    p_sweep = sub.add_parser("sweep", help="fault campaign over a policy knob")
    p_sweep.add_argument("--config", required=True, help="scenario JSON path")
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS, help="the swept knob")
    p_sweep.add_argument("--values", required=True,
                         help="the inside of a JSON array: JSON values separated by commas")
    p_sweep.add_argument("--reps", type=int, required=True, help="repetitions per value")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "check":
            code = cmd_check()
        else:
            scenario = load_scenario(args.config)
            if args.command == "run":
                if args.seed is not None:
                    scenario = _build("--seed", _with_seed, scenario, args.seed)
                code = cmd_run(scenario, quiet=args.quiet, trace_path=args.trace)
            else:
                code = cmd_sweep(scenario, args.param, _sweep_values(args.values), args.reps)
        sys.stdout.flush()  # inside the try, so that a reader gone away is caught below
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ScenarioError, PolicyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticFault as exc:
        print(f"arithmetic fault: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except OSError as exc:  # stdout closed by its reader (BrokenPipeError), or unwritable
        closed = isinstance(exc, BrokenPipeError)
        if not closed:
            print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        # Point stdout at devnull so that the flush at interpreter exit cannot raise again.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE if closed else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
