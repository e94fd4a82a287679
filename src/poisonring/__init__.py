"""Data-poisoning fault injection for integer programs.

Wrap values with make_poisoned() and route operators through binop(), with
negation as binop("sub", 0, x, ctx); every application records an
OperatorEvent when the sink keeps events, and may emit a deviated result per
the value's PoisonPolicy (deterministic/intermittent effect, always/transient
lifetime, infectious propagation). Includes Dijkstra's K-state
self-stabilizing token ring as the reference workload plus trace analytics
and a CLI.
"""

from .poison_core import (
    ArithmeticFault,
    DeviationModel,
    EvalContext,
    PoisonPolicy,
    PoisonedScalar,
    PolicyError,
    binop,
    clean_value_of,
    is_poisoned,
    kernel_backend,
    make_poisoned,
)
from .ring_sim import (
    Injection,
    RingConfig,
    RingState,
    Scenario,
    ScenarioError,
    has_privilege,
    out,
    perturb,
    run,
    update,
    validate_injections,
)
from .trace_metrics import (
    DeviationStats,
    OperatorEvent,
    RunRecord,
    SnapshotEvent,
    TraceFormatError,
    convergence_point,
    deviation_stats,
    dumps_record,
    is_legitimate,
    loads_record,
    read_record,
    token_count,
    write_record,
)
from .cli import GOLDEN_PREFIX, execute_scenario, load_scenario, reference_scenario

__version__ = "0.1.0"

__all__ = [
    "ArithmeticFault",
    "DeviationModel",
    "DeviationStats",
    "EvalContext",
    "GOLDEN_PREFIX",
    "Injection",
    "OperatorEvent",
    "PoisonPolicy",
    "PoisonedScalar",
    "PolicyError",
    "RingConfig",
    "RingState",
    "RunRecord",
    "Scenario",
    "ScenarioError",
    "SnapshotEvent",
    "TraceFormatError",
    "binop",
    "clean_value_of",
    "convergence_point",
    "deviation_stats",
    "dumps_record",
    "execute_scenario",
    "has_privilege",
    "is_legitimate",
    "is_poisoned",
    "kernel_backend",
    "load_scenario",
    "loads_record",
    "make_poisoned",
    "out",
    "reference_scenario",
    "perturb",
    "read_record",
    "run",
    "token_count",
    "update",
    "validate_injections",
    "write_record",
]
