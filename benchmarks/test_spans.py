"""Tests for the benchmark's own arithmetic and hooks.

    python3 -m pytest benchmarks -q
"""
import argparse
import json
import os
import sys
import time

import pytest

from spans import Span, Tracer, installed, percentile, self_times, tail_level

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))   # trefftz_dd


def span(name, start, end, parent):
    return Span(name, start, end, parent, "w", 0)


def test_self_time_of_nested_tree():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),        # child of root
        span("a1", 1.5, 2.0, 1),       # grandchild: counts against a only
        span("b", 3.0, 6.0, 0),        # overlaps a: coverage is the union
        span("c", 8.0, 9.0, 0),
        span("leaf", 20.0, 21.0, -1),  # second root without children
    ]
    assert self_times(spans) == pytest.approx([10.0 - (5.0 + 1.0), 3.0 - 0.5,
                                               0.5, 3.0, 1.0, 1.0])


def test_child_outside_parent_is_clipped():
    spans = [span("p", 0.0, 1.0, -1), span("c", 0.5, 2.0, 0)]
    assert self_times(spans)[0] == pytest.approx(0.5)


@pytest.mark.parametrize("n, level", [(18, 50), (19, 50), (20, 50),
                                      (72, 75), (121, 90), (200, 95)])
def test_tail_level_keeps_ten_samples_beyond(n, level):
    assert tail_level(n) == level
    rank = -(-level * n // 100)   # ceil
    assert n - rank >= 10 or level == 50


def test_tail_value_of_72_and_121_samples():
    assert percentile(range(1, 73), tail_level(72)) == 54     # 18 samples beyond
    assert percentile(range(1, 122), tail_level(121)) == 109  # 12 samples beyond
    assert percentile(range(1, 19), tail_level(18)) == 9      # falls back to p50


def test_tracer_records_parent_links():
    tracer = Tracer("w")
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]


def test_installed_rebinds_every_caller_and_restores():
    import trefftz_dd
    from trefftz_dd import coarse, fem, numerics, schwarz
    orig = fem.error_norms, numerics.Factorization.__init__
    tracer = Tracer("w")
    with installed(tracer):
        assert schwarz.error_norms is fem.error_norms is trefftz_dd.error_norms
        assert schwarz.error_norms is not orig[0]
        assert coarse.Factorization.__init__ is not orig[1]
    assert schwarz.error_norms is fem.error_norms is orig[0]
    assert numerics.Factorization.__init__ is orig[1]


def test_benchmark_json_lists_the_reported_metrics():
    import run
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.EXPECTED_SPANS)


def fake_workload(sweeps, builds, pause=0.0):
    """A Workload whose steps only sleep, for testing the pass scheduler."""
    from workloads import Workload

    def setup(seed, run):
        time.sleep(pause)
        return {}

    def build(state, run):
        time.sleep(pause)

    def solve(state, run):
        time.sleep(pause)
        run.h1_rel_err = 1.0

    return Workload(setup, build, solve, sweeps=sweeps, builds=builds)


def schedule(seconds, trace, workload):
    import run
    args = argparse.Namespace(workload="fake", seed=2, seconds=seconds, trace=trace)
    checks = []
    passes = run.run_passes(args, workload, {}, Tracer("fake"), checks)
    assert checks and all(ok for _, ok, _ in checks)
    return passes


@pytest.mark.parametrize("trace", [0, 1])
def test_no_time_left_gives_min_passes_of_one_sweep(trace):
    import run
    passes = schedule(0.0, trace, fake_workload(sweeps=3, builds=2))
    assert len(passes) == run.MIN_PASSES
    assert [p.traced for p in passes] == [False, bool(trace)]
    for p in passes:
        assert [len(p.times[k]) for k in ("setup", "build", "solve")] == [1, 1, 1]
        assert p.wall >= p.times["setup"][0] + p.times["build"][0] + p.times["solve"][0]
    assert passes[0].peak_rss_mb > 0


def test_untraced_run_fills_its_time_with_sweeps_and_builds():
    passes = schedule(0.5, 0, fake_workload(sweeps=3, builds=2, pause=0.005))
    solves = [len(p.times["solve"]) for p in passes]
    builds = [len(p.times["build"]) for p in passes]
    assert len(passes) >= 2 and sum(solves) > 2 * len(passes)
    assert all(n <= 3 for n in solves[:-1])   # only the last pass takes fill sweeps
    assert all(s <= b <= 2 * s for s, b in zip(solves, builds))
    assert sum(builds) > sum(solves)


def test_traced_run_alternates_passes_of_one_build_and_solve():
    passes = schedule(0.3, 1, fake_workload(sweeps=3, builds=2, pause=0.005))
    assert [p.traced for p in passes] == [i % 2 == 1 for i in range(len(passes))]
    assert all(len(p.times["build"]) == len(p.times["solve"]) == 1 for p in passes)
