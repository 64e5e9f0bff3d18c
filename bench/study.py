"""Noise study: how steady each way of aggregating the passes is across runs.

    python3 bench/study.py [bench/out]

Reads the raw files that run.py writes (bench/out/<workload>-seed<n>-trace0.json)
and, for every workload with at least four runs, recomputes the metrics from
the same raw times under several aggregations.  It prints, per aggregation,
the spread across runs: the distance between the first and third quartiles as
a share of the median (statistics.quantiles, n=4).  "raw" rows use the
measured seconds, "scaled" rows the seconds at the reference speed
(speed.py).  "per-op" rows take each operation's median or minimum over the
passes first; "pooled" rows take every timed operation of every pass
together, and "faster half, pooled" only each operation's fastest ceil(P/2)
of P.  The benchmark reports "scaled, faster half, pooled".
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import faster_half, timing_metrics
from speed import scaled

# Each turns a run's per-pass operation times into the timing metrics.
AGGREGATIONS = {
    "first pass": lambda passes: timing_metrics(passes[:1]),
    "per-op median": lambda passes: timing_metrics(
        [[statistics.median(t) for t in zip(*passes)]]
    ),
    "per-op minimum": lambda passes: timing_metrics([[min(t) for t in zip(*passes)]]),
    "pooled": timing_metrics,
    "faster half, pooled": lambda passes: timing_metrics(faster_half(passes)),
}


def times(raw: dict, passes: int, at_reference_speed: bool) -> list[list[float]]:
    if not at_reference_speed:
        return raw["seconds"][:passes]
    return [
        [scaled(t, ref) for t, ref in zip(seconds, reference)]
        for seconds, reference in zip(raw["seconds"][:passes], raw["reference"][:passes])
    ]


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent / "out"
    runs: dict[str, list[dict]] = {}
    for path in sorted(out_dir.glob("*-trace0.json")):
        raw = json.loads(path.read_text())
        runs.setdefault(raw["workload"], []).append(raw)
    for workload, raws in sorted(runs.items()):
        if len(raws) < 4:
            continue
        passes = min(r["passes"] for r in raws)
        print(f"{workload}: {len(raws)} runs of {passes} passes, spread = IQR / median")
        for (label, aggregate), speed_scaled in (
            (item, flag) for flag in (False, True) for item in AGGREGATIONS.items()
        ):
            rows = [aggregate(times(r, passes, speed_scaled)) for r in raws]
            label = f"{'scaled' if speed_scaled else 'raw'}, {label}"
            cells = "  ".join(
                f"{name} {100 * spread([m[name] for m in rows]):5.2f}% "
                f"(median {statistics.median(m[name] for m in rows):.4g})"
                for name in rows[0]
            )
            print(f"  {label:<25} {cells}")
        for key, label in (("setups_raw_s", "raw"), ("setups_s", "scaled")):
            first = [r[key][0] for r in raws]
            median = [statistics.median(r[key]) for r in raws]
            print(f"  setup_s, {label:<15} first spawn {100 * spread(first):5.2f}%  "
                  f"median of {len(raws[0][key])} spawns {100 * spread(median):5.2f}% "
                  f"(median {statistics.median(median):.4f} s)")
        rss = [statistics.median(r["peak_rss_mb"]) for r in raws]
        print(f"  peak_rss_mb, median of passes {100 * spread(rss):5.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
