"""Seed-fixed benchmark of evencob's command line: three workloads, end-to-end
metrics, and a traced run for per-layer metrics.

    python3 bench/run.py                               every workload, in turn
    python3 bench/run.py --workload parity-campaign --seed 3 --seconds 30 --trace 0

Run it from the root of a checkout: it imports evencob from ./src.  Each run
makes whole passes over the workload's fixed operation list.  Every pass is a
fresh interpreter (worker.py) that calls evencob.cli.main once per operation
with stdout captured.  --seconds sets the number of passes and no pass is cut
short.  The run's seed only shuffles the order of the operations.  After the
passes, every report is checked against values computed apart from the
program (checks.py).

With --trace 0 the run prints the end-to-end metrics.  With --trace 1 it makes
two traced passes under two PYTHONHASHSEED values and prints the per-layer
metrics, and it fails unless the two passes agree on every count.  Human
lines go first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Raw per-pass data goes to bench/out/.
The exit code is 0 when every check passed, 1 when one failed, and 2 when the
run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import speed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKER = BENCH_DIR / "worker.py"

# Extra interpreters per pass that stop once the first operation is ready.
# With the pass itself they give setup_s four samples per pass.
SETUP_ONLY_PER_PASS = 3
TRACE_HASH_SEEDS = ("1", "2")
SPAWN_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class RunError(Exception):
    """The run could not be made: no result is printed."""


def spawn(workload: str, seed: int, *, setup_only: bool = False, hash_seed: str | None = None,
          trace_out: Path | None = None) -> dict:
    """Start one fresh interpreter and return its result with its setup time."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Imports use, and the first spawn writes, the bytecode cache, as an
    # installed package would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    reference_before = speed.settled_reference_seconds()
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=SPAWN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"a pass of {workload} ran over {SPAWN_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RunError(f"a pass of {workload} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    result["setup_raw_s"] = result["ready"] - start
    reference = (reference_before + result["setup_reference"]) / 2
    result["setup_s"] = speed.scaled(result["setup_raw_s"], reference)
    return result


def tail_rank(samples: int, operations: int) -> int:
    """Index, in ascending order, of the tail among `samples` times of a list of
    `operations` operations: the highest percentile, 1 - 10 / operations, with
    at least ten operations beyond it."""
    if operations < 40:
        raise RunError("a tail needs at least forty operations")
    return samples * (operations - 10) // operations - 1


def scaled_times(p: dict) -> list[float]:
    return [speed.scaled(t, ref) for t, ref in zip(p["seconds"], p["reference"])]


def timing_metrics(times: list[list[float]]) -> dict[str, float]:
    """ops_per_s and the latencies over every timed operation of every pass."""
    pooled = sorted(t for per_pass in times for t in per_pass)
    return {
        "ops_per_s": len(pooled) / sum(pooled),
        "latency_p50_ms": 1e3 * statistics.median(pooled),
        "latency_tail_ms": 1e3 * pooled[tail_rank(len(pooled), len(times[0]))],
    }


def faster_half(times: list[list[float]]) -> list[list[float]]:
    """Each operation's fastest ceil(P/2) times of P passes, as that many lists."""
    keep = (len(times) + 1) // 2
    fastest = [sorted(per_op)[:keep] for per_op in zip(*times)]
    return [list(column) for column in zip(*fastest)]


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    """Set-up and memory as medians; timings over each operation's faster half.

    Other tenants of the machine only ever add time, and they hit a few
    operations of a pass at a time, so those samples land in the slower half
    of each operation's times.  bench/README.md has the study behind this.
    """
    return {
        "setup_s": statistics.median(setups),
        **timing_metrics(faster_half([scaled_times(p) for p in passes])),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Counts and sizes must agree across passes; self times are averaged."""
    layers = [p["layers"] for p in passes]
    problems = []
    metrics = {}
    for name in tracing.metric_units():
        values = [layer[name] for layer in layers]
        if name.endswith("self_ms"):
            metrics[name] = statistics.fmean(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
    return metrics, problems


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    ops = workloads.operations(workload)
    if not ops:
        raise RunError(f"{workload} has no operations: is bench/corpus missing?")
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    passes, setup_spawns = [], []
    if trace:
        for hash_seed in TRACE_HASH_SEEDS:
            spans = OUT_DIR / f"spans-{workload}-seed{seed}-hash{hash_seed}.json"
            passes.append(spawn(workload, seed, hash_seed=hash_seed, trace_out=spans))
    else:
        count = max(workloads.MIN_PASSES, seconds // workloads.PASS_SECONDS[workload])
        for _ in range(count):
            for _ in range(SETUP_ONLY_PER_PASS):
                setup_spawns.append(spawn(workload, seed, setup_only=True))
            passes.append(spawn(workload, seed))
            setup_spawns.append(passes[-1])
    setups = [s["setup_s"] for s in setup_spawns]

    failures, problems = [], []
    for p in passes:
        for argv, code, err in zip(ops, p["codes"], p["errors"]):
            if code != 0:
                failures.append(f"{' '.join(argv)} exited {code}: {err.strip()[-300:]}")
    first = passes[0]["reports"]
    for p in passes[1:]:
        for argv, a, b in zip(ops, first, p["reports"]):
            if a != b:
                problems.append(f"{' '.join(argv)}: the report differs between passes")
    ok_codes = [code == 0 for code in passes[0]["codes"]]
    check_start = time.monotonic()
    verdicts = checks.check(workload, ops, first, ROOT)
    check_seconds = time.monotonic() - check_start
    for argv, ok, found in zip(ops, ok_codes, verdicts):
        if ok:
            problems += [f"{' '.join(argv)}: {text}" for text in found]

    if trace:
        metrics, layer_problems = per_layer(passes)
        problems += layer_problems
        units = tracing.metric_units()
    else:
        metrics = end_to_end(passes, setups)
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(passes),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    raw = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        # every pass pooled, to compare traced with untraced runs
        "ops_per_s_all_passes": timing_metrics([scaled_times(p) for p in passes])["ops_per_s"],
        "setups_s": setups,
        "setups_raw_s": [s["setup_raw_s"] for s in setup_spawns],
        "seconds": [p["seconds"] for p in passes],
        "reference": [p["reference"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "check_seconds": check_seconds,
        "failures": failures,
        "problems": problems,
        "result": result,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(raw, indent=1))
    return result, failures + problems


def describe(workload: str, result: dict, problems: list[str]) -> str:
    lines = [f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
             f"correct {str(result['correct']).lower()}"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<40} {metric['value']:>12.4f} {metric['unit']}")
    lines += [f"  problem: {text}" for text in problems[:20]]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all (default)")
    parser.add_argument("--seed", type=int, default=0, help="shuffles the operation order")
    parser.add_argument("--seconds", type=int, default=25, help="sizes the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evencob" / "__init__.py").is_file():
        print(f"error: no evencob sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import evencob  # noqa: F401  (the parent's import also writes the bytecode cache)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    all_good = True
    for workload in names:
        try:
            result, problems = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except RunError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(describe(workload, result, problems), flush=True)
        print(json.dumps(result), flush=True)
        all_good = all_good and result["correct"] and not result["failed"]
    return 0 if all_good else 1


if __name__ == "__main__":
    sys.exit(main())
