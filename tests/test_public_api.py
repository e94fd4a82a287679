"""The package's public surface: `__all__`, the version, the README's code examples, the
integer rule, the frozen value types and the run record types."""

import contextlib
import copy
import dataclasses
import io
import pickle
import re
import shlex
import subprocess
import sys
import tracemalloc
import types
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import subprocess_env
import poisonring
from poisonring import (
    DeviationModel,
    DeviationStats,
    Injection,
    PoisonPolicy,
    PolicyError,
    RingConfig,
    RingState,
    Scenario,
    ScenarioError,
    cli,
    make_poisoned,
)
from poisonring.poison_core import INT64_MAX, INT64_MIN, U64_MAX
from poisonring.ring_sim import MAX_NODES

README = Path(__file__).resolve().parent.parent / "README.md"
SCENARIOS = README.parent / "scenarios"


def test_all_lists_each_public_attribute_once():
    public = {
        name for name, value in vars(poisonring).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(poisonring.__all__) == len(set(poisonring.__all__))
    assert set(poisonring.__all__) == public


def test_package_version_is_the_projects():
    """__version__ is pyproject.toml's [project] version, so a version written into a trace
    names the release that wrote it. A regex reads the file: tomllib is new in 3.11."""
    text = (README.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.MULTILINE | re.DOTALL).group(1)
    version = re.search(r'^version = "([^"]+)"$', project, re.MULTILINE).group(1)
    assert version == poisonring.__version__


def test_importing_the_package_loads_no_cli():
    """A fresh `import poisonring` loads the library, not poisonring.cli or argparse. The test
    compares sys.modules before and after, so a site hook that loads argparse first passes."""
    code = ("import sys; before = set(sys.modules); import poisonring; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=subprocess_env(), timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "poisonring" in loaded
    assert not loaded & {"poisonring.cli", "argparse"}


def test_readme_python_examples_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert blocks
    for code in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(code, str(README), "exec"), {})


def test_readme_cli_examples_run(monkeypatch, capsys):
    """Each `poisonring ...` line of the CLI block, without its [optional] groups, exits 0."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", text, re.MULTILINE | re.DOTALL).group(1)
    commands = [re.sub(r"\s*\[[^]]*\]", "", line) for line in block.splitlines()
                if line.startswith("poisonring ")]
    assert [shlex.split(c)[1] for c in commands] == ["run", "check", "sweep"]
    monkeypatch.chdir(README.parent)
    for command in commands:
        assert cli.main(shlex.split(command)[1:]) == 0, (command, capsys.readouterr().err)


class _Small(IntEnum):
    THREE = 3


_HUGE = 10**5000  # past the 4,300 digits str() writes
_POLICY = PoisonPolicy(DeviationModel("offset", 1))
_RING = RingConfig(5, 5, 10)

# Every integer field the checker covers: (field, low, high, its error, a call given the value).
# An injection's numbers are checked once, by the Scenario that holds it, against its ring, and
# the error names the entry; the Injection builds whatever the value.
INT_FIELDS = [
    ("stuck_at magnitude", INT64_MIN, INT64_MAX, PolicyError,
     lambda v: DeviationModel("stuck_at", v)),
    ("bitflip magnitude", 0, 63, PolicyError, lambda v: DeviationModel("bitflip", v)),
    ("uses", 1, INT64_MAX, PolicyError, lambda v: PoisonPolicy(_POLICY.deviation, uses=v)),
    ("origin_id", INT64_MIN, INT64_MAX, PolicyError, lambda v: make_poisoned(7, _POLICY, v, 0)),
    ("seed", 0, U64_MAX, PolicyError, lambda v: make_poisoned(7, _POLICY, 0, v)),
    ("node_count", 1, MAX_NODES, ScenarioError, lambda v: RingConfig(v, MAX_NODES, 1)),
    ("k_states", 5, INT64_MAX, ScenarioError, lambda v: RingConfig(5, v, 1)),
    ("k_states", 5, INT64_MAX, ScenarioError, lambda v: RingState(5, v)),
    ("rounds", 0, INT64_MAX, ScenarioError, lambda v: RingConfig(5, 5, v)),
    ("seed", 0, U64_MAX, ScenarioError, lambda v: RingConfig(5, 5, 1, seed=v)),
    ("node", 0, 4, ScenarioError,
     lambda v: Scenario(_RING, [Injection(v, 0, new_status=1)])),
    ("at_round", 0, 10, ScenarioError,
     lambda v: Scenario(_RING, [Injection(0, v, new_status=1)])),
    ("new_status", 0, 4, ScenarioError,
     lambda v: Scenario(_RING, [Injection(0, 0, new_status=v)])),
]


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_every_integer_field_takes_exactly_the_ints_in_its_bounds(data):
    """Each field accepts exactly the exact ints in its bounds. Anything else, a huge int,
    a bool, an IntEnum, a float or a str, is its module's typed error naming the field,
    never a raw ValueError, TypeError or OverflowError."""
    name, low, high, error, call = data.draw(st.sampled_from(INT_FIELDS))
    value = data.draw(st.one_of(
        st.integers(),
        st.sampled_from([low - 1, low, high, high + 1, _HUGE, -_HUGE, True, _Small.THREE,
                         1.0, "1"]),
    ))
    if type(value) is int and low <= value <= high:
        call(value)
        return
    with pytest.raises(error) as excinfo:
        call(value)
    assert re.search(rf"(^|\.){name} must be an integer in \[{low}, {high}\], got ", str(excinfo.value))


# One of each frozen value type, every deviation kind, and each scenario file's Scenario.
_VALUES = [
    DeviationModel("offset", Fraction(-1, 3)),
    DeviationModel("scale", 1.01),
    DeviationModel("stuck_at", INT64_MIN),
    DeviationModel("bitflip", 63),
    PoisonPolicy(DeviationModel("scale", 2), rate=0.25, uses=3, infectious=True),
    RingConfig(5, 7, 10, seed=U64_MAX),
    Injection(4, 10, policy=_POLICY),
    Injection(0, 3, new_status=6),
    Scenario(RingConfig(5, 7, 10), [Injection(4, 10, policy=_POLICY), Injection(0, 3, new_status=6)]),
    DeviationStats(3, 1, 1 / 3),
    *(pytest.param(cli.load_scenario(str(path)), id=path.name)
      for path in sorted(SCENARIOS.glob("*.json"))),
]


@pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
def test_a_value_type_survives_pickle_copy_and_replace(value):
    """A process pool sends scenarios to its workers: each copy is an equal value of the same
    type with an equal hash. The types are slotted, so an instance has no __dict__."""
    assert not hasattr(value, "__dict__")
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value), dataclasses.replace(value)]
    for copied in copies:
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)


@pytest.mark.parametrize("name", ["poison_node0.json", "perturbed.json"])
def test_a_run_record_survives_pickle_and_copy(name):
    """A run's RunRecord, each of its OperatorEvents and each of its SnapshotEvents, binop and
    run filling the last two in place, has no __dict__ and comes back as an equal record of its
    type through pickle at every protocol, copy.copy and copy.deepcopy. A slot left unset fails."""
    record = cli.execute_scenario(cli.load_scenario(str(SCENARIOS / name)))
    assert record.events and record.snapshots
    for value in (record, *record.events, *record.snapshots):
        assert not hasattr(value, "__dict__")
        copies = [pickle.loads(pickle.dumps(value, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(value), copy.deepcopy(value)]
        for copied in copies:
            assert type(copied) is type(value)
            assert copied == value


def test_an_injection_takes_at_most_72_bytes():
    """A campaign holds its injections by the thousand. Slotted, one takes 64 bytes under
    tracemalloc on CPython 3.10 to 3.13; with a __dict__ it took 96 to 152."""
    count = 15_625
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        injections = [Injection(node=i % 5, at_round=0, new_status=i % 5) for i in range(count)]
        used = tracemalloc.get_traced_memory()[0] - before - sys.getsizeof(injections)
    finally:
        tracemalloc.stop()
    assert used / count <= 72
