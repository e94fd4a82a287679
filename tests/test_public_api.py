"""The package's public surface: `__all__` and the README's code examples."""

import contextlib
import io
import re
import types
from pathlib import Path

import poisonring

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
