"""The pair summarizer of scripts/bench_pairs.py, fed canned result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_script()
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
