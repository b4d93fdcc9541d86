"""trefftz-dd benchmark: one workload per run, in a fresh process.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
`src/` directory, and the run fails without printing a result when that is
missing.  A run sets the workload up at least MIN_PASSES times and builds
and solves on each set-up until `--seconds` have elapsed (see
`run_passes`), checks the outputs of every set-up and solve, and prints as
its last stdout line one JSON object {"correct", "attempted", "failed",
"metrics"}.  With `--trace 0` the metrics are the end-to-end medians over
the timed steps; with `--trace 1` passes alternate untraced and traced, and
the metrics are per-layer figures from the spans of the traced passes plus
the tracing overhead.  Provenance (versions, commit, thread count, sizes,
step times) is printed on the line before and written, with the spans,
under `.bench_out/`.  Exit status: 0 when every check passed, 1 when a check
failed, 2 when the source tree is missing.
"""
import os

#: BLAS/OpenMP threads, pinned before numpy loads.  One thread keeps timings
#: steady on a small shared host; the local solves (SuperLU) are serial anyway.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy
import scipy

from spans import Tracer, installed, percentile, self_times, tail_level

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
MIN_PASSES = 2
#: relative tolerance for errors compared against reference.json
ERR_RTOL = 1e-8

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "build_s": "s",
                    "solve_s": "s", "peak_rss_mb": "MB"}

#: layers reported per call (median, tail, count); TOTALS as seconds per pass
PER_CALL = ("fem.error_norms", "schwarz.ErrorMonitor.record",
            "coarse.CoarseSpace.apply", "schwarz.apply_ras",
            "schwarz.apply_two_level")
TOTALS = ("mesh.refine_toward", "mesh.generate_structured", "mesh.red_refine",
          "mesh.build_overlap", "fem.assemble", "fem.solve_fine",
          "coarse.build_cell_cache", "coarse.build_trefftz",
          "coarse.build_nicolaides", "coarse.coarse_approximation",
          "schwarz.solve_pgmres", "schwarz.hybrid_iterate",
          "schwarz.build_schwarz", "numerics.Factorization",
          "experiments.generate_urban_synthetic", "geometry.build_skeleton",
          "geometry.refine_edges")
CALLS = ("coarse.build_trefftz", "numerics.Factorization")
#: share of a traced pass's wall time spent in the self time of these spans
SHARES = {"share.refine_toward_self_pct": ("mesh.refine_toward",),
          "share.record_error_norms_self_pct": ("schwarz.ErrorMonitor.record",
                                                "fem.error_norms"),
          "share.apply_ras_self_pct": ("schwarz.apply_ras",)}
SIZES = ("n_points", "n_free", "ref_n_points", "coarse_dim", "n_subdomains",
         "subdomain_dofs_max")

#: spans each workload must record at least once in a traced pass
_COMMON = {"mesh.generate_structured", "fem.assemble", "fem.solve_fine",
           "geometry.build_skeleton", "coarse.build_cell_cache",
           "coarse.build_trefftz", "numerics.Factorization"}
_SCHWARZ = {"experiments.generate_urban_synthetic", "mesh.build_overlap",
            "schwarz.build_schwarz", "schwarz.solve_pgmres", "numerics.gmres",
            "schwarz.apply_two_level", "schwarz.apply_ras",
            "coarse.CoarseSpace.apply", "schwarz.ErrorMonitor.record"}
EXPECTED_SPANS = {
    "lshape-graded": _COMMON | {"mesh.refine_toward", "geometry.refine_edges",
                                "coarse.coarse_approximation", "fem.error_norms"},
    "urban-n256": _COMMON | _SCHWARZ | {"coarse.build_nicolaides",
                                        "schwarz.hybrid_iterate",
                                        "coarse.coarse_approximation"},
    "urban-ref": _COMMON | _SCHWARZ | {"mesh.red_refine", "fem.error_norms"},
}


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for name in PER_CALL:
        units.update({name + "_p50_ms": "ms", name + "_tail_ms": "ms",
                      name + "_calls": "count"})
    units.update({name + "_s": "s" for name in TOTALS})
    units.update({name + "_calls": "count" for name in CALLS})
    units.update({"numerics.gmres_self_s": "s", "numerics.factor_fill": "count",
                  "gmres_iters": "count", "hybrid_iters": "count",
                  "h1_rel_err": "1"})
    units.update({name: "%" for name in SHARES})
    units.update({"size." + name: "count" for name in SIZES})
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(EXPECTED_SPANS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    """HEAD of the checkout when it is itself a git work tree, else None."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest():
    """sha256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "trefftz_dd")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def release_heap():
    """Hand freed C-heap memory back to the OS between passes.

    glibc keeps what a pass freed, so without this each pass would start
    from a different heap and peak RSS would grow with the pass count.
    """
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):   # not glibc: nothing to trim
        pass


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_setup(workload, seed, run, reference):
    """(label, ok, detail) for the output check of one set-up."""
    if seed != 1 and workload != "lshape-graded":   # counts recorded for seed 1
        return []
    return [("mesh counts", run.counts == reference["counts"],
             json.dumps(run.counts, sort_keys=True))]


def check_solve(workload, run, reference, tol):
    """(label, ok, detail) for every output check of one solve."""
    checks = []
    for label, iters, converged, alg in run.solves:
        checks.append(("solve " + label, converged and alg <= tol,
                       "iters=%d converged=%s alg_l2=%.3e" % (iters, converged, alg)))
    if workload == "lshape-graded":   # no random input: every seed checks
        for label, want in reference["errors"].items():
            got = run.errors[label]
            ok = all(abs(g - w) <= ERR_RTOL * abs(w) for g, w in zip(got, want))
            checks.append(("errors " + label, ok,
                           "l2=%.12e h1=%.12e" % tuple(got)))
    h1 = run.h1_rel_err
    checks.append(("h1_rel_err", h1 is not None and math.isfinite(h1) and h1 > 0,
                   repr(h1)))
    return checks


def span_metrics(spans, traced_walls, untraced_walls):
    """Per-layer metrics from the spans of the traced passes."""
    n_runs = len(traced_walls)
    selfs = self_times(spans)
    by_name, self_by_name = {}, {}
    for span, own in zip(spans, selfs):
        by_name.setdefault(span.name, []).append(span.end - span.start)
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + own
    m = {}
    for name in PER_CALL:
        d = by_name.get(name, [])
        m[name + "_p50_ms"] = 1e3 * percentile(d, 50) if d else 0.0
        m[name + "_tail_ms"] = 1e3 * percentile(d, tail_level(len(d))) if d else 0.0
        m[name + "_calls"] = len(d) / n_runs
    for name in TOTALS:
        m[name + "_s"] = sum(by_name.get(name, [])) / n_runs
    for name in CALLS:
        m[name + "_calls"] = len(by_name.get(name, [])) / n_runs
    m["numerics.gmres_self_s"] = self_by_name.get("numerics.gmres", 0.0) / n_runs
    wall = statistics.median(traced_walls)
    for metric, names in SHARES.items():
        own = sum(self_by_name.get(name, 0.0) for name in names) / n_runs
        m[metric] = 100.0 * own / wall
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = wall - statistics.median(untraced_walls)
    return m


def run_passes(args, workload, reference, tracer, checks):
    """Set up, build and solve until `--seconds` have elapsed; return the passes.

    A pass is one set-up followed by sweeps, each a build and a solve, after
    which the build is repeated up to `workload.builds` times in all.  An
    untraced run makes up to `workload.sweeps` sweeps per pass, starts another
    pass while a set-up and a sweep should still end within `--seconds`, and
    then fills the time left with sweeps on the last set-up, so the samples
    of each step spread over the whole run.  A traced run alternates untraced
    and traced passes of one sweep with one build: the pipeline as a user
    runs it.  Every run makes at least MIN_PASSES passes, and steps beyond
    those start only when they should end in time.
    """
    from workloads import TOL, Pass
    sweeps, builds = (1, 1) if args.trace else (workload.sweeps, workload.builds)
    deadline = time.perf_counter() + args.seconds
    passes, sweep_times = [], []

    def fits(*steps):
        """True when one more of each named step, and a set-up and a sweep
        for each pass still owed to MIN_PASSES, should end by the deadline."""
        steps += ("setup", "sweep") * max(MIN_PASSES - len(passes), 0)
        expected = sum(statistics.median(sweep_times) if name == "sweep" else
                       statistics.median(t for p in passes for t in p.times[name])
                       for name in steps)
        return time.perf_counter() + expected <= deadline

    def sweep(run, state):
        """Build and solve once, check the outputs, then repeat the build
        while it fits; return the time the solve ended."""
        gc.collect()
        release_heap()
        t0 = time.perf_counter()
        run.step("build", workload.build, state)
        run.step("solve", workload.solve, state)
        t_solved = time.perf_counter()
        sweep_times.append(t_solved - t0)
        checks.extend(check_solve(args.workload, run, reference, TOL))
        if not passes[0].peak_rss_mb:
            # later sweeps inherit the heap the earlier ones fragmented
            passes[0].peak_rss_mb = peak_rss_mb()
        for _ in range(builds - 1):
            if not fits("build"):
                break
            run.step("build", workload.build, state)
        return t_solved

    state = None
    try:
        while True:
            if len(passes) < MIN_PASSES or fits("setup", "sweep"):
                traced = bool(args.trace) and len(passes) % 2 == 1
                run = Pass(traced)
                state = None   # free the previous set-up before timing the next
                gc.collect()
                release_heap()
                if traced:
                    tracer.current_run = sum(p.traced for p in passes)
                with installed(tracer) if traced else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    state = run.step("setup", workload.setup, args.seed)
                    passes.append(run)
                    checks.extend(check_setup(args.workload, args.seed, run, reference))
                    run.wall = sweep(run, state) - t0
                for _ in range(sweeps - 1):
                    if not fits("sweep"):
                        break
                    sweep(run, state)
            elif not args.trace and fits("sweep"):
                sweep(passes[-1], state)
            else:
                return passes
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        traceback.print_exc()
        checks.append(("pass %d" % len(passes), False,
                       "%s: %s" % (type(exc).__name__, exc)))
        return [p for p in passes if p.wall is not None]


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trefftz_dd", "__init__.py")):
        print("error: no trefftz_dd sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS   # imports trefftz_dd from SRC

    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)[args.workload]
    tracer = Tracer(args.workload)
    checks = []
    passes = run_passes(args, WORKLOADS[args.workload], reference, tracer, checks)
    traced_walls = [p.wall for p in passes if p.traced]
    untraced_walls = [p.wall for p in passes if not p.traced]

    if args.trace and traced_walls:
        fired = {s.name for s in tracer.spans}
        for name in sorted(EXPECTED_SPANS[args.workload]):
            checks.append(("spans " + name, name in fired,
                           "hook recorded %s" % ("spans" if name in fired else "no span")))

    failed = sum(1 for _, ok, _ in checks if not ok)
    for label, ok, detail in checks:
        if not ok:
            print("CHECK FAILED %s: %s" % (label, detail))

    metrics = {}
    if passes and (traced_walls or not args.trace):
        last = passes[-1]
        if args.trace:
            values = span_metrics(tracer.spans, traced_walls, untraced_walls)
            for method in ("gmres", "hybrid"):
                values[method + "_iters"] = sum(
                    it for label, it, _, _ in last.solves if method in label.split("."))
            values["h1_rel_err"] = last.h1_rel_err
            values["numerics.factor_fill"] = last.factor_fill
            values.update({"size." + k: last.sizes[k] for k in SIZES})
            units = per_layer_units()
        else:
            med = lambda key: statistics.median(t for p in passes for t in p.times[key])
            values = {"wall_s": statistics.median(untraced_walls),
                      "setup_s": med("setup"), "build_s": med("build"),
                      "solve_s": med("solve"), "peak_rss_mb": passes[0].peak_rss_mb}
            units = END_TO_END_UNITS
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_commit": git_commit(),
        "source_sha256": source_digest(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "threads": THREADS,
        "sizes": passes[-1].sizes if passes else None,
        "counts": passes[-1].counts if passes else None,
        "passes": [{"traced": p.traced, "wall": p.wall, **p.times} for p in passes],
        "solves": passes[-1].solves if passes else None,
        "recorded_iterations": reference.get("iterations") if args.seed == 1 else None,
        "fail_frac": failed / max(len(checks), 1),
    }
    for name, m in metrics.items():
        print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-44s %14.6g %s" % ("fail_frac", provenance["fail_frac"], "1"))
    print(json.dumps({"provenance": provenance}))

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as f:
        json.dump({"provenance": provenance, "metrics": metrics,
                   "checks": checks}, f, indent=1)
    if args.trace:
        with open(stem + "-spans.jsonl", "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span._asdict()) + "\n")

    result = {"correct": failed == 0 and bool(metrics),
              "attempted": max(len(checks), 1), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
