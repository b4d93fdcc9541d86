"""Summary statistics of the pairing script `tools/bench_pairs.py`.

Oracle: medians, inclusive quartiles, pair wins and per-pair ratios
worked out by hand."""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import record, side_spread, summarize  # noqa: E402


def test_summarize_counts_pairs_and_ignores_missing_runs():
    parent = [{"wall_s": v} for v in (4.0, 2.0, 3.0, 5.0)] + [{}]
    change = [{"wall_s": v} for v in (3.0, 2.0, 1.0, 6.0)] + [{"wall_s": 0.5}]
    table = summarize({"parent": parent, "change": change}, ["wall_s", "setup_s"])
    # the fifth pair lacks the parent value, and no run has setup_s
    assert list(table) == ["wall_s"]
    assert table["wall_s"] == {"parent_median": 3.5, "parent_iqr": [2.75, 4.25],
                               "change_median": 2.5, "change_iqr": [1.75, 3.75],
                               "rel_change": -0.2857,
                               "change_wins": 2,   # the tie 2.0 vs 2.0 counts for neither
                               # ratios 3/4, 2/2, 1/3, 6/5 sorted: 1/3, 3/4, 1, 6/5;
                               # q1 = 1/3 + 0.75 (3/4 - 1/3), q3 = 1 + 0.25 (6/5 - 1)
                               "pair_ratio_median": 0.875,
                               "pair_ratio_iqr": [0.6458, 1.05]}


def test_pair_ratios_skip_zero_parents():
    parent = [{"failed": v} for v in (0, 2, 4)]
    change = [{"failed": v} for v in (1, 1, 1)]
    table = summarize({"parent": parent, "change": change}, ["failed"])
    # the first pair has no ratio; 1/2 and 1/4 remain
    assert table["failed"]["pair_ratio_median"] == 0.375
    assert table["failed"]["pair_ratio_iqr"] == [0.3125, 0.4375]
    table = summarize({"parent": parent[:1], "change": change[:1]}, ["failed"])
    assert table["failed"]["pair_ratio_median"] is None
    assert table["failed"]["pair_ratio_iqr"] is None


def test_side_spread_of_attempted_operations():
    runs = {"parent": [{"attempted": v} for v in (7, 9, 8, 8)],
            "change": [{"attempted": v} for v in (6, 9)] + [{}]}
    # parent sorted 7, 8, 8, 9: q1 = 7 + 0.75, q3 = 8 + 0.25; a run without
    # the field is left out
    assert side_spread(runs, "attempted") == {
        "parent": {"median": 8.0, "iqr": [7.75, 8.25]},
        "change": {"median": 7.5, "iqr": [6.75, 8.25]}}
    assert side_spread({"parent": [{}], "change": []}, "attempted") == {}


def test_record_keeps_the_load_before_the_run(monkeypatch):
    monkeypatch.setattr(bench_pairs.os, "getloadavg", lambda: (1.23456, 0.5, 0.25))
    monkeypatch.setattr(bench_pairs.os, "sched_getaffinity", lambda pid: {0, 1})
    load = bench_pairs.host_load()
    assert load == {"load_1min": 1.23, "cpus": 2}
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {"wall_s": {"value": 2.123456}}}
    row = record(result, 101, load)
    assert row == {"seed": 101, "correct": True, "attempted": 4, "failed": 0,
                   "load_1min": 1.23, "cpus": 2, "wall_s": 2.1235}
