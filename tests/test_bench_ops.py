"""Golden gate: every benchmark operation, byte for byte.

`bench/workloads.operations(w)` lists the argvs the benchmark runs.  Each runs
here in-process through `evencob.cli.main` from the repo root (the file-replay
argvs name corpus files relative to it), and the sha256 of its exit code,
stdout and stderr is compared with `tests/golden/bench_ops.json`.  The digests
were recorded before refactors that must not change any output, so a match
means the benchmark sees the same results.  `bench/` is only imported, never
modified.  One more case runs every operation in a single `python -O`
interpreter: stripping the `assert` statements must change no output on these
valid inputs.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from evencob.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).parent / "golden" / "bench_ops.json"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


def digest(argv: list[str]) -> str:
    """sha256 over the JSON of [exit code, stdout, stderr] of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    payload = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


def test_every_workload_is_recorded(expected):
    assert sorted(expected) == sorted(WORKLOADS.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_operations_are_byte_identical(workload, expected, monkeypatch):
    monkeypatch.chdir(ROOT)
    recorded = expected[workload]
    ops = WORKLOADS.operations(workload)
    assert [r["argv"] for r in recorded] == ops
    changed = [" ".join(r["argv"]) for r in recorded if digest(r["argv"]) != r["sha256"]]
    assert changed == []


# Prints {workload: [digest of each operation]} computed with this module's digest.
UNDER_O = """
import json, sys
if not sys.flags.optimize:
    sys.exit("not running under -O")
sys.path.insert(0, sys.argv[1])
import test_bench_ops as t
ops = {w: [t.digest(argv) for argv in t.WORKLOADS.operations(w)] for w in t.WORKLOADS.WORKLOADS}
print(json.dumps(ops))
"""


def test_operations_are_byte_identical_under_python_O(expected):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-O", "-c", UNDER_O, str(Path(__file__).parent)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    digests = json.loads(done.stdout)
    assert digests == {w: [r["sha256"] for r in recorded] for w, recorded in expected.items()}
