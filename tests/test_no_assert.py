"""evencob checks nothing with `assert`, so `python -O` cannot turn a check off.

Each statement is checked once: by its campaign's evaluator, or, for what a
construction guarantees, by a test of that construction.  The tests' helper
module `oracles.py` holds no `assert` either: pytest rewrites asserts only in
test modules, and the CI steps under ``python -O`` import it, so one there
would vanish without a sign.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "evencob"


def test_no_assert_statement_and_no_debug_flag():
    paths = sorted(SOURCE.glob("*.py")) + [TESTS / "oracles.py"]
    assert len(paths) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert found == []
