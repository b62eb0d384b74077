"""The README's Python examples run against the installed API, its
tier-1 test command is the one CI runs, and none of its lines is longer
than 400 characters."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_examples_run(capsys):
    blocks = python_blocks()
    assert blocks, "README.md has no python code block"
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
    # The library example's first line is the run its comment describes.
    assert capsys.readouterr().out.splitlines()[0].endswith("('low_confidence:tear',)")


def test_readme_tier1_command_is_ci_command():
    (ci,) = re.findall(
        r"^ *- name: Tier-1 tests\n *run: (.+)$", WORKFLOW.read_text(encoding="utf-8"), re.M
    )
    (readme,) = re.findall(
        r"^## Run the tests\n\n```sh\n(.+)\n```$", README.read_text(encoding="utf-8"), re.M
    )
    assert readme == ci


def test_no_readme_line_is_longer_than_400_characters():
    long = [
        (number, len(line))
        for number, line in enumerate(README.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 400
    ]
    assert long == []
