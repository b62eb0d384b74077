"""The README's Python examples run against the installed API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_examples_run(capsys):
    blocks = python_blocks()
    assert blocks, "README.md has no python code block"
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
    assert capsys.readouterr().out
