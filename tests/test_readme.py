"""The README's Python examples run as written, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_python_examples_run():
    blocks = PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert blocks
    namespace: dict = {}
    for number, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
