"""Alternating parent/change benchmark pairs, summarized for a BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workloads parity-campaign,closure-campaign,file-replay \
        --pairs 10 --first-seed 3001 --out pairs.json

For each workload, pair j runs ``python3 bench/run.py --workload W --seed S
--trace 0`` once in each checkout, with S = first seed + (workload index) *
pairs + j.  The parent goes first in the even pairs and the change in the odd
ones, so each side goes first in half of them.  Runs go one at a time, at
the benchmark's own run length.

The output holds two blocks in the layout of the committed BENCH_*.json
files: ``workloads``, each pair's seed, the side that went first and both
final JSON lines; and ``summary``, per workload and end-to-end metric, each
side's median and quartiles (statistics.quantiles, method 'inclusive') and in
how many pairs the change reads better, and its verdict; plus the failed
operations and whether every run passed its checks.  A metric's better
direction is read from the change checkout's BENCHMARK.json.

The verdict follows one rule.  A metric is "better" when the change reads
better in at least nine of every ten pairs (ties count for neither side) and
its median is better than the parent's by more than the parent's
interquartile range; it is "worse" by the same rule with the sides exchanged,
and "within noise" otherwise.  A claimed gain is met when its verdict is
"better".

The file is rewritten after every pair, so an interrupted run leaves the
pairs it finished.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def result_line(stdout: str) -> dict:
    """The final JSON line of a bench/run.py run."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise ValueError(f"the run's last line has no {key!r}")
    return result


def directions(benchmark: dict) -> dict[str, str]:
    """Each end-to-end metric's better direction, "higher" or "lower"."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"]}


def spread(values: list[float]) -> dict[str, float]:
    """Median and inclusive quartiles; one value is its own quartiles."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], direction: str) -> dict[str, str]:
    """In how many pairs the change reads better, and the verdict, "better",
    "worse" or "within noise", by the rule in the module docstring."""
    sign = 1 if direction == "higher" else -1
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
    gap = sign * (statistics.median(change) - statistics.median(parent))
    quartiles = spread(parent)
    noise = quartiles["q3"] - quartiles["q1"]
    # at least nine in ten: 10 * wins >= 9 * pairs
    if 10 * wins >= 9 * len(diffs) and gap > noise:
        verdict = "better"
    elif 10 * losses >= 9 * len(diffs) and -gap > noise:
        verdict = "worse"
    else:
        verdict = "within noise"
    return {"change_better_pairs": f"{wins} of {len(diffs)}", "verdict": verdict}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """The summary block of one workload's pairs."""
    out: dict = {}
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        out[name] = {side: spread(values[side]) for side in SIDES}
        out[name].update(compare(values["parent"], values["change"], direction))
    out["failed"] = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    out["correct"] = all(p[side]["correct"] for p in pairs for side in SIDES)
    return out


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited {done.returncode}: {done.stderr.strip()}")
    return result_line(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    better = directions(json.loads((args.change / "BENCHMARK.json").read_text()))
    checkouts = {"parent": args.parent, "change": args.change}
    report: dict = {"workloads": {}, "summary": {}}
    for w, workload in enumerate(args.workloads.split(",")):
        pairs = report["workloads"][workload] = []
        for j in range(args.pairs):
            seed = args.first_seed + w * args.pairs + j
            order = SIDES if j % 2 == 0 else SIDES[::-1]
            results = {side: run_once(checkouts[side], workload, seed) for side in order}
            pair = {"seed": seed, "first": order[0], **{side: results[side] for side in SIDES}}
            pairs.append(pair)
            report["summary"][workload] = summarize(pairs, better)
            args.out.write_text(json.dumps(report, indent=1) + "\n")
            ops = {side: round(pair[side]["metrics"]["ops_per_s"]["value"], 1) for side in SIDES}
            print(f"{workload} seed {seed}: ops_per_s {ops['parent']} -> {ops['change']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
