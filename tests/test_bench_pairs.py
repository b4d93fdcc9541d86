"""Summary statistics of the pairing script `tools/bench_pairs.py`.

Oracle: medians, inclusive quartiles and pair wins counted by hand."""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))

from bench_pairs import summarize  # noqa: E402


def test_summarize_counts_pairs_and_ignores_missing_runs():
    parent = [{"wall_s": v} for v in (4.0, 2.0, 3.0, 5.0)] + [{}]
    change = [{"wall_s": v} for v in (3.0, 2.0, 1.0, 6.0)] + [{"wall_s": 0.5}]
    table = summarize({"parent": parent, "change": change}, ["wall_s", "setup_s"])
    # the fifth pair lacks the parent value, and no run has setup_s
    assert list(table) == ["wall_s"]
    assert table["wall_s"] == {"parent_median": 3.5, "parent_iqr": [2.75, 4.25],
                               "change_median": 2.5, "change_iqr": [1.75, 3.75],
                               "rel_change": -0.2857,
                               "change_wins": 2}   # the tie 2.0 vs 2.0 counts for neither
