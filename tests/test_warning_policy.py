"""A failing property test is reported, and the session goes on.

`pyproject.toml` turns every warning into an error.  When a hypothesis test
fails, hypothesis imports its patch writer, which may import a deprecated
`mypy_extensions.TypedDict`; unless that one warning is ignored, pytest ends
the session with INTERNALERROR and runs no later test.  This runs pytest in a
subprocess, under the repository's configuration, on a failing `@given` test
followed by a passing one.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_failing_property_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    config = str(ROOT / "pyproject.toml")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", config, "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        # the outer session's PYTEST_* variables would reach the inner one
        env={k: v for k, v in os.environ.items() if not k.startswith("PYTEST")},
        timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert done.returncode == 1
