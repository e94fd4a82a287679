"""The package's public surface: `__all__` and the README's code examples."""

import contextlib
import io
import re
import shlex
import types
from pathlib import Path

import poisonring
from poisonring import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_lists_each_public_attribute_once():
    public = {
        name for name, value in vars(poisonring).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(poisonring.__all__) == len(set(poisonring.__all__))
    assert set(poisonring.__all__) == public


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
