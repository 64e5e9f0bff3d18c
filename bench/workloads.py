"""The fixed operation lists of the three workloads.

Every operation is one argv for evencob.cli.main.  The lists do not depend on
the run's seed: a run's seed only shuffles the order in which the same
operations run, so runs with different seeds measure the same work.
"""

from __future__ import annotations

import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CORPUS_DIR = BENCH_DIR / "corpus"

# parity-campaign: `check --trials 1` for seeds PARITY_SEED0 .. +PARITY_OPS-1,
# the trials of `check --theorem parity --trials PARITY_OPS --seed PARITY_SEED0`.
PARITY_SEED0 = 5000
PARITY_OPS = 100
PARITY_GENUS_MAX = 4

# closure-campaign: `closure --trials 1` at the CLI's default genus cap of 3.
CLOSURE_SEED0 = 7000
CLOSURE_OPS = 60
CLOSURE_GENUS_MAX = 3

WORKLOADS = ("parity-campaign", "closure-campaign", "file-replay")

# A run makes max(MIN_PASSES, seconds // PASS_SECONDS) whole passes, so
# --seconds sizes a run without any pass being cut short by a clock.  One
# untraced pass takes about 5 s on a 2-vCPU machine (closure-campaign: 6.5 s,
# rounded down so that its tail latency gets four passes).
PASS_SECONDS = {"parity-campaign": 5, "closure-campaign": 6, "file-replay": 5}
MIN_PASSES = 3


def corpus_files(suffix: str) -> list[Path]:
    return sorted(CORPUS_DIR.glob(f"*{suffix}"))


def operations(workload: str) -> list[list[str]]:
    """The workload's operations in their canonical order."""
    json_out = ["--output", "json"]
    if workload == "parity-campaign":
        return [
            ["check", "--theorem", "parity", "--trials", "1",
             "--genus-max", str(PARITY_GENUS_MAX), "--seed", str(s)] + json_out
            for s in range(PARITY_SEED0, PARITY_SEED0 + PARITY_OPS)
        ]
    if workload == "closure-campaign":
        return [
            ["closure", "--trials", "1", "--genus-max", str(CLOSURE_GENUS_MAX),
             "--seed", str(s)] + json_out
            for s in range(CLOSURE_SEED0, CLOSURE_SEED0 + CLOSURE_OPS)
        ]
    if workload == "file-replay":
        ops = []
        for path in corpus_files(".ssf"):
            rel = str(path.relative_to(BENCH_DIR.parent))
            ops.append(["maslov", "--in", rel] + json_out)
            ops.append(["check", "--theorem", "annihilator", "--in", rel] + json_out)
        for path in corpus_files(".cbf"):
            rel = str(path.relative_to(BENCH_DIR.parent))
            ops.append(["compose", "--in", rel] + json_out)
            ops.append(["even", "--in", rel] + json_out)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def run_order(count: int, seed: int) -> list[int]:
    """The run's order of the operation indices: a shuffle fixed by the seed."""
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order
