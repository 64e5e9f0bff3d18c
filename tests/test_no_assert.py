"""evencob checks nothing with `assert`, so `python -O` cannot turn a check off.

Each statement is checked once: by its campaign's evaluator, or, for what a
construction guarantees, by a test of that construction.  The tests' helper
module `oracles.py` holds no `assert` either: pytest rewrites asserts only in
test modules, and the CI steps under ``python -O`` import it, so one there
would vanish without a sign.

Nor does evencob write the ``line N: `` prefix of an input error anywhere but
in `errors.EvencobError`, which writes it from its ``line`` argument.
"""

import ast
import re
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


# "line {}: " in an f-string with each replacement field emptied, or the
# prefix written out
LINE_PREFIX = re.compile(r"line (\{\}|\d+|%d): ")


def _writes_line_prefix(node: ast.AST) -> bool:
    if isinstance(node, ast.JoinedStr):
        text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
    else:
        return False
    return LINE_PREFIX.search(text) is not None


def test_only_the_error_class_writes_a_line_prefix():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if _writes_line_prefix(node)
    ]
    assert found == []
