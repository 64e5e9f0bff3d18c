"""The tests' oracle shares no code with evencob.

Every mathematical comparison in the suite runs against `bench/oracle.py`, so
a fault in evencob could pass on both sides only if that file reached into
evencob.  This test parses it (without importing or editing it) and allows no
import but ``__future__`` and ``fractions``.
"""

import ast

from oracles import BENCH_ORACLE

ALLOWED = {"__future__", "fractions"}


def imported_modules(source: str) -> set[str]:
    """The top-level modules a source imports, a relative import as '.', and
    '__import__' wherever the name appears."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add("." if node.level else node.module.split(".")[0])
        elif isinstance(node, ast.Name) and node.id == "__import__":
            found.add(node.id)
    return found


def test_bench_oracle_imports_only_fractions():
    assert imported_modules(BENCH_ORACLE.read_text()) <= ALLOWED
    # the scan sees each way a module could reach evencob
    for source in [
        "import evencob",
        "import os.path as p",
        "from evencob.linalg import kernel",
        "from . import linalg",
        "m = __import__('evencob')",
    ]:
        assert not imported_modules(source) <= ALLOWED, source
