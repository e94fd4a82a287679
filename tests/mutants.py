"""Hand mutants: each entry breaks one line of src/ and names the tests that must then fail.

Run as `python tests/mutants.py` (pytest does not collect it). Each run works in a fresh
temporary copy of src/, tests/, scenarios/, pyproject.toml and README.md, so that pytest runs
under the project's own settings (strict xfail, filterwarnings = error). Each selection must
first pass on the unmutated copy; then each mutant, applied alone, must make its selection
fail. Exits 1 if an entry's old text is not found exactly once in its file, if a selection
does not pass unmutated, or if a mutant survives.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scenarios", "pyproject.toml", "README.md")

RING_SIM = "src/poisonring/ring_sim.py"
TRACE_METRICS = "src/poisonring/trace_metrics.py"
OUT_STEPS = "    ctx.step_counter += len(state._flags)\n"
OUT_EVENT = OUT_STEPS + '    binop("eq", state.statuses[0], 0, ctx)\n'
GUARD_STEP = "        ctx.step_counter += 1\n"

# (file, old, new, killer test file, -k selection); an empty selection runs the whole file.
MUTANTS = [
    # update's inline guard takes no step.
    (RING_SIM, GUARD_STEP, "        pass\n", "tests/test_cli.py", "discarding_sink"),
    (RING_SIM, GUARD_STEP, "        pass\n", "tests/test_acceptance.py", "zero_capacity"),
    # A copying node sets its own flag.
    (RING_SIM, 'flags[node] = "0"', 'flags[node] = "1"',
     "tests/test_ring_sim.py", "matches_the_flag_free_loop"),
    # out makes one unsuppressed binop: an event, and a draw from a poisoned status's stream.
    (RING_SIM, OUT_STEPS, OUT_EVENT, "tests/test_acceptance.py", "criterion_8"),
    (RING_SIM, OUT_STEPS, OUT_EVENT, "tests/test_ring_sim.py", "MonitoringNeutrality"),
    # out counts N + 1 steps.
    (RING_SIM, OUT_STEPS, OUT_STEPS.replace(")\n", ") + 1\n"), "tests/test_cli.py", "per_node_path"),
    # binop's in-place op record swaps its clean and emitted results.
    ("src/poisonring/poison_core.py",
     "event.clean_result = clean_result\n        event.emitted_result = emitted\n",
     "event.clean_result = emitted\n        event.emitted_result = clean_result\n",
     "tests/test_acceptance.py", "frozen_trace_digests"),
    # update's in-place snapshot swaps its round and firing node.
    (RING_SIM, "snapshot.round = state.round_index\n    snapshot.firing_node = node\n",
     "snapshot.round = node\n    snapshot.firing_node = state.round_index\n",
     "tests/test_acceptance.py", "frozen_trace_digests"),
    # The right operand governs when both are poisoned.
    ("src/poisonring/poison_core.py", "governing = lhs if lhs_poisoned else rhs",
     "governing = rhs if rhs_poisoned else lhs", "tests/test_poison_core.py", ""),
    # Offsets and scales round ties to odd.
    ("src/poisonring/_kernel.py", "(twice == den and q & 1)", "(twice == den and not q & 1)",
     "tests/test_kernel.py", ""),
    # A snapshot line may hold a 2.
    (TRACE_METRICS, 'r"[01](?:,[01])*"', 'r"[012](?:,[012])*"',
     "tests/test_trace_metrics.py", ""),
    # A sweep's rep r runs at seed + r + 1.
    ("src/poisonring/cli.py", "scenario.seed + rep", "scenario.seed + rep + 1",
     "tests/test_acceptance.py", "frozen_sweep"),
    # A Scenario takes any node below MAX_NODES, whatever its ring's size.
    (RING_SIM, '"node", 0, ring.node_count - 1,', '"node", 0, MAX_NODES - 1,',
     "tests/test_ring_sim.py", "node_out_of_range"),
    # The writer checks every op line: same bytes, no fast path.
    (TRACE_METRICS, "(life is None or type(life) is int)", "(life is None and type(life) is int)",
     "tests/test_acceptance.py", "fast_paths"),
    # The reader's op-tail pattern swaps its optional and required keys: same records, no fast path.
    (TRACE_METRICS, " if key in _OPTIONAL else ", " if key not in _OPTIONAL else ",
     "tests/test_acceptance.py", "fast_paths"),
]


def _copy(into: Path) -> None:
    ignored = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=ignored)
        else:
            shutil.copy2(source, into / name)


def _pytest(test_file: str, selection: str, edit=None):
    """(pytest exit code, seconds, output) of one selection in a fresh copy, edit applied."""
    with tempfile.TemporaryDirectory(prefix="poisonring-mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        if edit is not None:
            file, old, new = edit
            path = copy / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        args = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test_file]
        if selection:
            args += ["-k", selection]
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        started = time.monotonic()
        done = subprocess.run(args, cwd=copy, env=env, capture_output=True, text=True)
        return done.returncode, time.monotonic() - started, done.stdout + done.stderr


def _named(test_file: str, selection: str) -> str:
    return f"{test_file} -k {selection}" if selection else test_file


def main() -> int:
    failed = 0
    for file, old, *_ in MUTANTS:
        found = (ROOT / file).read_text(encoding="utf-8").count(old)
        if found != 1:
            print(f"BAD ENTRY  {file}: {old.strip()!r} found {found} times, not once")
            failed += 1
    if failed:
        return 1
    for test_file, selection in dict.fromkeys((m[3], m[4]) for m in MUTANTS):
        code, seconds, output = _pytest(test_file, selection)
        print(f"{'passes' if code == 0 else 'FAILS'} unmutated  {seconds:5.1f} s  "
              f"{_named(test_file, selection)}")
        if code != 0:
            print(output[-2000:])
            failed += 1
    if failed:
        return 1
    for file, old, new, test_file, selection in MUTANTS:
        code, seconds, output = _pytest(test_file, selection, (file, old, new))
        # pytest exits 1 when a test fails; any other code (an import or collection error,
        # or no test selected) kills nothing.
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
        print(f"{verdict:<8}  {seconds:5.1f} s  {Path(file).name}: {old.strip()!r} -> "
              f"{new.strip()!r}  by {_named(test_file, selection)}")
        if code != 1:
            if code != 0:
                print(output[-2000:])
            failed += 1
    print(f"{len(MUTANTS) - failed}/{len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
