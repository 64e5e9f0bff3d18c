"""Golden gate: every benchmark operation, byte for byte.

`bench/workloads.operations(w)` lists the argvs the benchmark runs.  Each runs
here in-process through `evencob.cli.main` from the repo root (the file-replay
argvs name corpus files relative to it), and the sha256 of its exit code,
stdout and stderr is compared with `tests/golden/bench_ops.json`.  The digests
were recorded before refactors that must not change any output, so a match
means the benchmark sees the same results.  The same stdout then goes through
the benchmark's own report checks, `bench/checks.py::check`, which must find
no problem in any operation.  `bench/` is only imported, never modified.  One
more case runs every operation in a single `python -O` interpreter: stripping
the `assert` statements must change no output on these valid inputs.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from evencob.cli import main
from oracles import BENCH, bench_checks, load_file

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).parent / "golden" / "bench_ops.json"


WORKLOADS = load_file("bench_workloads", BENCH / "workloads.py")


def run(argv: list[str]) -> list:
    """[exit code, stdout, stderr] of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [code, out.getvalue(), err.getvalue()]


def digest_of(output: list) -> str:
    """sha256 over the JSON of one run's [exit code, stdout, stderr]."""
    return hashlib.sha256(json.dumps(output).encode()).hexdigest()


def digest(argv: list[str]) -> str:
    return digest_of(run(argv))


@functools.cache
def outputs(workload: str) -> list[list]:
    """Each operation of the workload run once, from the repo root: the
    file-replay argvs name corpus files relative to it."""
    with contextlib.chdir(ROOT):
        return [run(argv) for argv in WORKLOADS.operations(workload)]


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


def test_every_workload_is_recorded(expected):
    assert sorted(expected) == sorted(WORKLOADS.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_operations_are_byte_identical(workload, expected):
    recorded = expected[workload]
    assert [r["argv"] for r in recorded] == WORKLOADS.operations(workload)
    changed = [
        " ".join(r["argv"])
        for r, output in zip(recorded, outputs(workload))
        if digest_of(output) != r["sha256"]
    ]
    assert changed == []


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_reports_pass_the_benchmark_checks(workload):
    ops = WORKLOADS.operations(workload)
    reports = [stdout for _, stdout, _ in outputs(workload)]
    verdicts = bench_checks.check(workload, ops, reports, ROOT)
    assert len(verdicts) == len(ops)
    assert {" ".join(argv): p for argv, p in zip(ops, verdicts) if p} == {}


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
