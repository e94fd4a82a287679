"""Scenario-driven command line front end.

    poisonring run --config scenario.json [--seed U64] [--trace out.jsonl] [--quiet]
    poisonring check
    poisonring sweep --config scenario.json --param rate --values 0.1,0.5 --reps 20

stdout carries bare snapshot lines (run) or the sweep summary table; all
diagnostics go to stderr. Exit codes: 0 success, 1 scenario/config error,
2 arithmetic fault during simulation, 3 golden-trace check mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from collections import Counter
from dataclasses import dataclass

from .poison_core import ArithmeticFault, DeviationModel, EvalContext, PoisonPolicy, PolicyError
from .ring_sim import Injection, RingConfig, ScenarioError, run
from .trace_metrics import RunRecord, convergence_point, deviation_stats, token_count, write_record

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CHECK_MISMATCH = 3

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

SWEEP_PARAMS = ("rate", "transient_uses")


@dataclass(frozen=True)
class Scenario:
    """A complete reproducible experiment."""

    ring: RingConfig
    injections: tuple[Injection, ...] = ()
    seed: int = 0
    trace_path: str | None = None


def reference_scenario() -> Scenario:
    """The built-in fault-free reference run behind `check`."""
    return Scenario(ring=RingConfig(node_count=5, k_states=5, rounds=10, seed=0))


def _fail(field: str, message: str):
    raise ScenarioError(f"{field}: {message}")


def _reject_unknown(obj: dict, allowed, field: str):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        _fail(field, f"unknown keys {unknown} (no aliases are accepted)")


def _require(obj: dict, key: str, field: str):
    if key not in obj:
        _fail(field, f"missing required key {key!r}")
    return obj[key]


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(field, f"expected an integer, got {value!r}")
    return value


def _parse_effect(value, field: str):
    """Canonical effect form -> rate (None means deterministic)."""
    if value == "deterministic":
        return None
    if isinstance(value, dict):
        _reject_unknown(value, ("intermittent",), field)
        rate = _require(value, "intermittent", field)
        if isinstance(rate, bool) or not isinstance(rate, (int, float)):
            _fail(field, f"intermittent rate must be a number, got {rate!r}")
        return rate
    _fail(field, f'expected "deterministic" or {{"intermittent": rate}}, got {value!r}')


def _parse_lifetime(value, field: str):
    """Canonical lifetime form -> uses (None means always)."""
    if value == "always":
        return None
    if isinstance(value, dict):
        _reject_unknown(value, ("transient",), field)
        return _as_int(_require(value, "transient", field), f"{field}.transient")
    _fail(field, f'expected "always" or {{"transient": uses}}, got {value!r}')


def _parse_policy(obj, field: str) -> PoisonPolicy:
    if not isinstance(obj, dict):
        _fail(field, "expected an object")
    _reject_unknown(obj, ("effect", "lifetime", "infectious", "deviation"), field)
    rate = _parse_effect(_require(obj, "effect", field), f"{field}.effect")
    uses = _parse_lifetime(_require(obj, "lifetime", field), f"{field}.lifetime")
    infectious = _require(obj, "infectious", field)
    if not isinstance(infectious, bool):
        _fail(f"{field}.infectious", f"expected a boolean, got {infectious!r}")
    dev = _require(obj, "deviation", field)
    if not isinstance(dev, dict):
        _fail(f"{field}.deviation", "expected an object")
    _reject_unknown(dev, ("kind", "magnitude"), f"{field}.deviation")
    kind = _require(dev, "kind", f"{field}.deviation")
    magnitude = _require(dev, "magnitude", f"{field}.deviation")
    try:
        model = DeviationModel(kind, magnitude)
        return PoisonPolicy(deviation=model, rate=rate, uses=uses, infectious=infectious)
    except PolicyError as exc:
        raise ScenarioError(f"{field}: {exc}") from exc


def _parse_injection(obj, field: str) -> Injection:
    if not isinstance(obj, dict):
        _fail(field, "expected an object")
    kind = _require(obj, "kind", field)
    node = _as_int(_require(obj, "node", field), f"{field}.node")
    at_round = _as_int(_require(obj, "at_round", field), f"{field}.at_round")
    if kind == "poison":
        _reject_unknown(obj, ("kind", "node", "at_round", "policy"), field)
        policy = _parse_policy(_require(obj, "policy", field), f"{field}.policy")
        spec = {"policy": policy}
    elif kind == "perturb":
        _reject_unknown(obj, ("kind", "node", "at_round", "new_status"), field)
        spec = {"new_status": _as_int(_require(obj, "new_status", field), f"{field}.new_status")}
    else:
        _fail(f"{field}.kind", f'expected "poison" or "perturb", got {kind!r}')
    try:
        return Injection(node=node, at_round=at_round, **spec)
    except ScenarioError as exc:
        raise ScenarioError(f"{field}: {exc}") from exc


def parse_scenario(obj: dict, source: str = "<scenario>") -> Scenario:
    """Validate a decoded scenario object; canonical field names only."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{source}: scenario must be a JSON object")
    _reject_unknown(obj, ("ring", "injections", "seed", "trace_path"), f"{source}")
    ring_obj = _require(obj, "ring", f"{source}.ring")
    if not isinstance(ring_obj, dict):
        _fail(f"{source}.ring", "expected an object")
    _reject_unknown(ring_obj, ("node_count", "k_states", "rounds"), f"{source}.ring")
    seed = obj.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        _fail(f"{source}.seed", f"expected an unsigned 64-bit integer, got {seed!r}")
    ring = RingConfig(
        node_count=_as_int(_require(ring_obj, "node_count", f"{source}.ring"), f"{source}.ring.node_count"),
        k_states=_as_int(_require(ring_obj, "k_states", f"{source}.ring"), f"{source}.ring.k_states"),
        rounds=_as_int(_require(ring_obj, "rounds", f"{source}.ring"), f"{source}.ring.rounds"),
        seed=seed,
    )
    injections = obj.get("injections", [])
    if not isinstance(injections, list):
        _fail(f"{source}.injections", "expected a list")
    parsed = tuple(
        _parse_injection(inj, f"{source}.injections[{i}]") for i, inj in enumerate(injections)
    )
    for i, injection in enumerate(parsed):
        if injection.node >= ring.node_count:
            _fail(f"{source}.injections[{i}].node", f"node {injection.node} out of range")
        if injection.at_round > ring.rounds:
            _fail(
                f"{source}.injections[{i}].at_round",
                f"round {injection.at_round} exceeds rounds {ring.rounds}",
            )
        if injection.new_status is not None and not 0 <= injection.new_status < ring.k_states:
            _fail(
                f"{source}.injections[{i}].new_status",
                f"status must lie in [0, {ring.k_states})",
            )
    trace_path = obj.get("trace_path")
    if trace_path is not None and not isinstance(trace_path, str):
        _fail(f"{source}.trace_path", "expected a string path")
    return Scenario(ring=ring, injections=parsed, seed=seed, trace_path=trace_path)


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read scenario: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno}: invalid JSON: {exc.msg}") from exc
    return parse_scenario(obj, source=path)


def _with_seed(scenario: Scenario, seed: int) -> Scenario:
    return dataclasses.replace(
        scenario, seed=seed, ring=dataclasses.replace(scenario.ring, seed=seed)
    )


def scenario_digest(scenario: Scenario) -> str:
    """Stable content hash of the effective scenario."""
    payload = {
        "ring": {
            "node_count": scenario.ring.node_count,
            "k_states": scenario.ring.k_states,
            "rounds": scenario.ring.rounds,
        },
        "seed": scenario.seed,
        "injections": [_injection_obj(inj) for inj in scenario.injections],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _injection_obj(injection: Injection) -> dict:
    if injection.policy is not None:
        policy = injection.policy
        return {
            "kind": "poison",
            "node": injection.node,
            "at_round": injection.at_round,
            "policy": {
                "effect": "deterministic" if policy.rate is None else {"intermittent": policy.rate},
                "lifetime": "always" if policy.uses is None else {"transient": policy.uses},
                "infectious": policy.infectious,
                "deviation": {
                    "kind": policy.deviation.kind,
                    "magnitude": str(policy.deviation.magnitude),
                },
            },
        }
    return {
        "kind": "perturb",
        "node": injection.node,
        "at_round": injection.at_round,
        "new_status": injection.new_status,
    }


def execute_scenario(scenario: Scenario) -> RunRecord:
    """Run a scenario and package the full record."""
    ctx = EvalContext()
    state, snapshots = run(scenario.ring, scenario.injections, ctx)
    return RunRecord(
        scenario_digest=scenario_digest(scenario),
        seed=scenario.seed,
        events=ctx.event_sink,
        snapshots=snapshots,
        final_statuses=state.clean_statuses(),
    )


def _print_summary(record: RunRecord, err) -> None:
    histogram = Counter(token_count(s.line) for s in record.snapshots)
    stats = deviation_stats(record)
    point = convergence_point(record)
    print(f"snapshots: {len(record.snapshots)}", file=err)
    hist = " ".join(f"{k}:{v}" for k, v in sorted(histogram.items())) or "(empty)"
    print(f"token-count histogram: {hist}", file=err)
    print(f"convergence point: {'none' if point is None else point}", file=err)
    print(
        f"deviation stats: uses={stats.uses} deviations={stats.deviations} "
        f"rate={stats.rate:.4f}",
        file=err,
    )


def cmd_run(scenario: Scenario, quiet: bool = False, out=None, err=None) -> int:
    """Execute one scenario: snapshot lines to stdout, summary to stderr."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    record = execute_scenario(scenario)
    if not quiet:
        for snap in record.snapshots:
            print(snap.line, file=out)
    if scenario.trace_path:
        write_record(record, scenario.trace_path)
        if not quiet:
            print(f"trace written: {scenario.trace_path}", file=err)
    if not quiet:
        _print_summary(record, err)
    return EXIT_OK


def compare_golden(lines, golden=None):
    """First (index, expected, actual-or-None) mismatch, or None when the prefix matches."""
    if golden is None:
        golden = GOLDEN_PREFIX
    for i, expected in enumerate(golden):
        actual = lines[i] if i < len(lines) else None
        if actual != expected:
            return (i, expected, actual)
    return None


def cmd_check(err=None) -> int:
    """Re-run the built-in reference scenario and compare the golden prefix."""
    err = sys.stderr if err is None else err
    record = execute_scenario(reference_scenario())
    mismatch = compare_golden([s.line for s in record.snapshots])
    if mismatch is None:
        print(f"check: {len(GOLDEN_PREFIX)}/{len(GOLDEN_PREFIX)} golden lines match", file=err)
        return EXIT_OK
    index, expected, actual = mismatch
    shown = "(missing)" if actual is None else actual
    print(f"check: mismatch at line {index + 1}: expected {expected} got {shown}", file=err)
    return EXIT_CHECK_MISMATCH


def _sweep_value(scenario: Scenario, param: str, value) -> Scenario:
    """Scenario with the swept knob applied to every poison injection."""
    injections = []
    for injection in scenario.injections:
        if injection.policy is None:
            injections.append(injection)
            continue
        if param == "rate":
            policy = dataclasses.replace(injection.policy, rate=value)
        else:
            policy = dataclasses.replace(injection.policy, uses=value)
        injections.append(dataclasses.replace(injection, policy=policy))
    return dataclasses.replace(scenario, injections=tuple(injections))


def cmd_sweep(scenario: Scenario, param: str, values, reps: int, out=None, err=None) -> int:
    """Fault campaign over one policy knob; one aggregated table row per value."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    if param not in SWEEP_PARAMS:
        raise ScenarioError(f"--param must be one of {SWEEP_PARAMS}, got {param!r}")
    if not values:
        raise ScenarioError("no values: --values must list at least one value")
    if reps < 1:
        raise ScenarioError("--reps must be at least 1")
    if not any(inj.policy is not None for inj in scenario.injections):
        raise ScenarioError(
            f"parameter {param!r} not applicable: scenario has no poison injection"
        )
    header = f"{'value':>12} {'runs':>6} {'converged':>9} {'mean_cp':>9} {'max_cp':>7} {'mean_dev_rate':>13}"
    print(header, file=out)
    for value in values:
        swept = _sweep_value(scenario, param, value)
        points = []
        rates = []
        for rep in range(reps):
            seeded = _with_seed(swept, (scenario.seed + rep) % 2**64)
            record = execute_scenario(seeded)
            points.append(convergence_point(record))
            rates.append(deviation_stats(record).rate)
        converged = [p for p in points if p is not None]
        mean_cp = f"{sum(converged) / len(converged):.2f}" if converged else "-"
        max_cp = f"{max(converged)}" if converged else "-"
        mean_rate = sum(rates) / len(rates)
        print(
            f"{value!s:>12} {reps:>6} {len(converged):>9} {mean_cp:>9} "
            f"{max_cp:>7} {mean_rate:>13.4f}",
            file=out,
        )
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
    p_sweep.add_argument("--param", required=True, help="rate or transient_uses")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--reps", type=int, required=True, help="repetitions per value")
    return parser


def _parse_values(param: str, csv: str):
    tokens = [t.strip() for t in csv.split(",") if t.strip()]
    values = []
    for token in tokens:
        try:
            values.append(int(token) if param == "transient_uses" else float(token))
        except ValueError:
            raise ScenarioError(f"--values: cannot parse {token!r} for {param}") from None
    return values


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "run":
            scenario = load_scenario(args.config)
            if args.seed is not None:
                if not 0 <= args.seed < 2**64:
                    raise ScenarioError("--seed must be an unsigned 64-bit integer")
                scenario = _with_seed(scenario, args.seed)
            if args.trace is not None:
                scenario = dataclasses.replace(scenario, trace_path=args.trace)
            return cmd_run(scenario, quiet=args.quiet)
        if args.command == "check":
            return cmd_check()
        scenario = load_scenario(args.config)
        return cmd_sweep(scenario, args.param, _parse_values(args.param, args.values), args.reps)
    except (ScenarioError, PolicyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticFault as exc:
        print(f"arithmetic fault: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
