"""The pair summarizer of scripts/bench_pairs.py, fed canned result lines."""

import json
from pathlib import Path

import pytest

from oracles import load_file

ROOT = Path(__file__).resolve().parent.parent
bench_pairs = load_file("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
BETTER = bench_pairs.directions(json.loads((ROOT / "BENCHMARK.json").read_text()))


def result(ops, p50, rss, failed=0, correct=True):
    metrics = {
        "setup_s": {"value": 0.125, "unit": "s"},
        "ops_per_s": {"value": ops, "unit": "1/s"},
        "latency_p50_ms": {"value": p50, "unit": "ms"},
        "latency_tail_ms": {"value": 2 * p50, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    line = {"correct": correct, "attempted": 500, "failed": failed, "metrics": metrics}
    return "human line\n" + json.dumps(line) + "\n"


def pair(parent, change, seed=1, first="parent"):
    return {
        "seed": seed,
        "first": first,
        "parent": bench_pairs.result_line(parent),
        "change": bench_pairs.result_line(change),
    }


def test_directions_are_read_from_the_benchmark_declaration():
    assert BETTER == {
        "setup_s": "lower",
        "ops_per_s": "higher",
        "latency_p50_ms": "lower",
        "latency_tail_ms": "lower",
        "peak_rss_mb": "lower",
    }


def test_summary_counts_wins_in_each_metric_direction():
    pairs = [
        pair(result(100.0, 2.0, 17.0), result(110.0, 1.5, 17.5)),
        pair(result(120.0, 1.0, 17.0), result(115.0, 1.2, 17.0), first="change"),
        pair(result(90.0, 3.0, 18.0), result(95.0, 2.5, 17.0)),
        pair(result(100.0, 2.0, 17.0), result(100.0, 2.0, 16.0), first="change"),
    ]
    summary = bench_pairs.summarize(pairs, BETTER)
    assert summary["ops_per_s"]["change_better_pairs"] == "2 of 4"  # a tie is no win
    assert summary["latency_p50_ms"]["change_better_pairs"] == "2 of 4"
    assert summary["latency_tail_ms"]["change_better_pairs"] == "2 of 4"
    assert summary["peak_rss_mb"]["change_better_pairs"] == "2 of 4"
    assert summary["setup_s"]["change_better_pairs"] == "0 of 4"
    # inclusive quartiles of 90, 100, 100, 120 and of 95, 100, 110, 115
    assert summary["ops_per_s"]["parent"] == {"median": 100.0, "q1": 97.5, "q3": 105.0}
    assert summary["ops_per_s"]["change"] == {"median": 105.0, "q1": 98.75, "q3": 111.25}
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["correct"] is True


def test_summary_keeps_failures_and_failed_checks():
    pairs = [
        pair(result(100.0, 2.0, 17.0), result(110.0, 1.5, 17.0, failed=3)),
        pair(result(100.0, 2.0, 17.0, correct=False), result(110.0, 1.5, 17.0), first="change"),
    ]
    summary = bench_pairs.summarize(pairs, BETTER)
    assert summary["failed"] == {"parent": 0, "change": 3}
    assert summary["correct"] is False


def test_one_pair_is_its_own_quartiles():
    summary = bench_pairs.summarize([pair(result(100.0, 2.0, 17.0), result(99.0, 2.0, 17.0))], BETTER)
    assert summary["ops_per_s"]["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}
    assert summary["ops_per_s"]["change_better_pairs"] == "0 of 1"


@pytest.mark.parametrize(
    "stdout, message",
    [("", "printed nothing"), ('{"correct": true, "attempted": 1, "failed": 0}\n', "no 'metrics'")],
)
def test_result_line_refuses_what_is_not_a_run_result(stdout, message):
    with pytest.raises(ValueError, match=message):
        bench_pairs.result_line(stdout)


def test_result_line_is_the_last_line():
    line = bench_pairs.result_line(result(123.0, 1.0, 17.0))
    assert line["metrics"]["ops_per_s"]["value"] == 123.0


def ten_pairs(parent_ops, change_ops):
    return [
        pair(result(p, 2.0, 17.0), result(c, 2.0, 17.0), seed=j, first=("parent", "change")[j % 2])
        for j, (p, c) in enumerate(zip(parent_ops, change_ops))
    ]


PARENT_OPS = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 102.0, 98.0, 100.0, 101.0]


def test_verdict_better_needs_nine_wins_and_a_gap_past_the_parent_spread():
    # parent quartiles 99.625 and 100.875: a gap of 1.25
    change = [p + 5.0 for p in PARENT_OPS]
    change[3] = PARENT_OPS[3] - 1.0  # nine wins of ten
    summary = bench_pairs.summarize(ten_pairs(PARENT_OPS, change), BETTER)
    assert summary["ops_per_s"]["parent"]["q1"] == 99.625
    assert summary["ops_per_s"]["parent"]["q3"] == 100.875
    assert summary["ops_per_s"]["change_better_pairs"] == "9 of 10"
    assert summary["ops_per_s"]["verdict"] == "better"
    # equal latencies everywhere: no wins, a gap of zero
    assert summary["latency_p50_ms"]["verdict"] == "within noise"


def test_verdict_eight_wins_are_not_enough():
    change = [p + 5.0 for p in PARENT_OPS]
    change[3] = change[4] = 90.0
    summary = bench_pairs.summarize(ten_pairs(PARENT_OPS, change), BETTER)
    assert summary["ops_per_s"]["change_better_pairs"] == "8 of 10"
    assert summary["ops_per_s"]["verdict"] == "within noise"


def test_verdict_ten_small_wins_inside_the_parent_spread_are_noise():
    change = [p + 1.0 for p in PARENT_OPS]  # a median gap of 1.0 < 1.25
    summary = bench_pairs.summarize(ten_pairs(PARENT_OPS, change), BETTER)
    assert summary["ops_per_s"]["change_better_pairs"] == "10 of 10"
    assert summary["ops_per_s"]["verdict"] == "within noise"


def test_verdict_worse_by_the_same_rule_and_ties_count_for_neither():
    change = [p - 5.0 for p in PARENT_OPS]
    change[0] = PARENT_OPS[0]  # a tie: nine losses of ten still
    summary = bench_pairs.summarize(ten_pairs(PARENT_OPS, change), BETTER)
    assert summary["ops_per_s"]["change_better_pairs"] == "0 of 10"
    assert summary["ops_per_s"]["verdict"] == "worse"
    change[1] = PARENT_OPS[1]  # two ties: eight losses
    summary = bench_pairs.summarize(ten_pairs(PARENT_OPS, change), BETTER)
    assert summary["ops_per_s"]["verdict"] == "within noise"


def test_verdict_reads_the_metric_direction():
    # lower is better for latency: a change that halves it is better
    pairs = [
        pair(result(100.0, p50, 17.0), result(100.0, p50 / 2, 17.0))
        for p50 in (2.0, 2.1, 1.9, 2.0, 2.05, 1.95, 2.0, 2.0, 2.1, 1.9)
    ]
    summary = bench_pairs.summarize(pairs, BETTER)
    assert summary["latency_p50_ms"]["verdict"] == "better"
    assert summary["latency_tail_ms"]["verdict"] == "better"
    assert summary["ops_per_s"]["verdict"] == "within noise"
