import json
import os
from pathlib import Path

import pytest

import poisonring
from poisonring import DeviationModel, EvalContext, PoisonPolicy


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\nACCEPTANCE {'PASS' if report.passed else 'FAIL'}: {name}")


def subprocess_env() -> dict:
    """Environment for a `python -m poisonring` child that imports the package under test.

    PYTHONUNBUFFERED is dropped, so the child buffers stdout as it does under
    a user's shell or CI.
    """
    package_root = str(Path(poisonring.__file__).resolve().parent.parent)
    paths = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def make_policy(kind="offset", magnitude=1, rate=None, uses=None, infectious=False):
    return PoisonPolicy(
        DeviationModel(kind, magnitude), rate=rate, uses=uses, infectious=infectious
    )


@pytest.fixture
def ctx():
    return EvalContext()


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """One file path that each hypothesis example of a test overwrites."""
    return tmp_path_factory.mktemp("traces") / "trace.jsonl"


@pytest.fixture
def scenario_file(tmp_path):
    """Write a scenario dict to a temp JSON file and return its path."""

    def write(obj, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return write


def base_scenario_obj(**overrides):
    obj = {"ring": {"node_count": 5, "k_states": 5, "rounds": 10}, "seed": 0}
    obj.update(overrides)
    return obj


def poison_injection_obj(node=0, at_round=0, effect="deterministic", lifetime="always",
                         infectious=True, kind="offset", magnitude=1):
    return {
        "kind": "poison",
        "node": node,
        "at_round": at_round,
        "policy": {
            "effect": effect,
            "lifetime": lifetime,
            "infectious": infectious,
            "deviation": {"kind": kind, "magnitude": magnitude},
        },
    }
