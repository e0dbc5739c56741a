"""The README's python examples run as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    """(first line number, source) of each fenced python block, in order."""
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, match.start(1)) + 1, match.group(1))
        for match in re.finditer(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    ]


def test_python_blocks_run_in_order():
    blocks = python_blocks()
    assert blocks, "README.md has no python examples"
    namespace = {"__name__": "readme"}  # later blocks reuse names of earlier ones
    for line, source in blocks:
        # padded so that a traceback points at the README line
        exec(compile("\n" * (line - 1) + source, str(README), "exec"), namespace)
