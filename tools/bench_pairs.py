"""Paired parent/change benchmark runs, summarised as one BENCH_<N>.json.

    python3 tools/bench_pairs.py --parent REV [--change REV] --out BENCH_N.json
        --note TEXT

Run from a git checkout.  Both revisions are exported with `git archive`
into `.bench_build/<commit>/`, so each side runs its own committed sources
with its own copy of the benchmark, and nothing uncommitted is measured.
For every workload in BENCHMARK.json, pair i of the PAIRS pairs runs
`benchmarks/run.py --workload W --seed S` (untraced, at the benchmark's
default run length) once on each side with seed S = FIRST_SEED + i; even
pairs run the parent first and odd pairs the change first, so drift on a
shared host falls on both sides alike.  Then each side makes one traced run
at seed 1, the parent first, for the per-layer figures; one run per side
resolves no per-layer change smaller than the run-to-run spread of a traced
run.

The output holds, per workload and end-to-end metric, each side's median
and inclusive quartiles over its runs, the relative change of the medians
and `change_wins`, the number of pairs in which the change's value is
better (lower, for every metric the benchmark declares), ties counting for
neither side; the median and inclusive quartiles of the per-pair
change/parent ratios (`pair_ratio_median`, `pair_ratio_iqr`), which cancel
what both runs of a pair share, such as the size of the seed's geometry;
plus every run and the traced per-layer metrics.  Per workload it also
holds each side's median and inclusive quartiles of `attempted`, the
output checks a run made, which grow with the sweeps it fitted into its
fixed length: a side that fits more sweeps takes more samples of every
step, which can move the medians of steps the change did not touch.
Fewer checks is not better, so `attempted` has no `change_wins`.  Every
run also records the host's 1-minute load average just before it started
(`load_1min`) and the number of cores the run may use (`cpus`): the gain
of a change that factorizes on two threads depends on the second core
being free.  The file is rewritten after every pair, so an interrupted run
keeps the pairs it finished.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
PAIRS = 10
FIRST_SEED = 101


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True).stdout


def export(rev):
    """Extract the tree of `rev` into .bench_build/<commit>; return the path."""
    sha = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    dest = os.path.join(BUILD, sha[:12])
    if not os.path.isdir(dest):
        os.makedirs(dest + ".part", exist_ok=True)
        subprocess.run(["tar", "-x", "-C", dest + ".part"],
                       input=git("archive", sha), check=True)
        os.rename(dest + ".part", dest)
    return sha, dest


def run_once(tree, workload, seed, trace, timeout):
    """One benchmark run: (result, provenance) from its last two stdout lines."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    try:
        out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                             timeout=timeout)
        lines = out.stdout.strip().splitlines()
        return json.loads(lines[-1]), json.loads(lines[-2])["provenance"]
    except (subprocess.TimeoutExpired, IndexError, KeyError,
            json.JSONDecodeError) as exc:
        print("run failed: %s %s seed %d: %s" % (tree, workload, seed, exc),
              file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, {}


def quartiles(values):
    """Inclusive (q1, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def summarize(runs, metrics):
    """Per-metric medians, quartiles, relative change, change wins and the
    median and quartiles of the per-pair change/parent ratios (pairs whose
    parent value is 0 have no ratio)."""
    table = {}
    for name in metrics:
        pairs = [(p[name], c[name]) for p, c in zip(runs["parent"], runs["change"])
                 if name in p and name in c]
        if not pairs:
            continue
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        ratios = [c / p for p, c in pairs if p]
        table[name] = {"parent_median": round(p_med, 4),
                       "parent_iqr": quartiles(parent),
                       "change_median": round(c_med, 4),
                       "change_iqr": quartiles(change),
                       "rel_change": round((c_med - p_med) / p_med, 4) if p_med else None,
                       "change_wins": sum(c < p for p, c in pairs),
                       "pair_ratio_median": round(statistics.median(ratios), 4) if ratios else None,
                       "pair_ratio_iqr": quartiles(ratios) if ratios else None}
    return table


def side_spread(runs, name):
    """Each side's median and inclusive quartiles of `name` over its runs."""
    table = {}
    for side, rows in runs.items():
        vals = [row[name] for row in rows if name in row]
        if vals:
            table[side] = {"median": statistics.median(vals), "iqr": quartiles(vals)}
    return table


def values(result):
    """Metric name -> value, floats rounded to 4 decimals."""
    return {k: round(m["value"], 4) if isinstance(m["value"], float) else m["value"]
            for k, m in result["metrics"].items()}


def host_load():
    """The 1-minute load average and the number of cores this process (and
    the run it starts) may use."""
    return {"load_1min": round(os.getloadavg()[0], 2),
            "cpus": len(os.sched_getaffinity(0))}


def record(result, seed, load):
    row = {"seed": seed, "correct": result["correct"],
           "attempted": result["attempted"], "failed": result["failed"]}
    row.update(load)
    row.update(values(result))
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", default="HEAD", help="change revision")
    parser.add_argument("--out", required=True, help="BENCH_<N>.json to write")
    parser.add_argument("--note", required=True, help="one line: what the change does")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    if any(m.get("better", "lower") != "lower" for m in bench["end_to_end"]):
        raise SystemExit("change_wins assumes every end-to-end metric is "
                         "better when lower")
    timeout = 10 * bench.get("run_seconds", 60)
    sides = dict(zip(("parent", "change"), (export(args.parent), export(args.change))))
    seeds = list(range(FIRST_SEED, FIRST_SEED + PAIRS))

    doc = {"change": args.note,
           "command": "python3 benchmarks/run.py --workload NAME --seed SEED "
                      "--trace 0|1 (default run length)",
           "commits": {side: sha for side, (sha, _) in sides.items()},
           "host": {"arch": platform.machine(), "nproc": os.cpu_count()},
           "design": {
               "end_to_end": "trace 0 runs, seeds %d-%d, one parent and one change "
                             "run per seed; even pairs run the parent first, odd "
                             "pairs the change" % (seeds[0], seeds[-1]),
               "per_layer": "one trace 1 run per side at seed 1",
               "fields": "median and inclusive quartiles over runs; change_wins "
                         "counts pairs where the change's value is lower; "
                         "pair_ratio_median/_iqr over the per-pair change/parent "
                         "ratios; attempted: each side's median and quartiles "
                         "of the output checks per run, with no change_wins; "
                         "each run's load_1min (1-minute load average before "
                         "it) and cpus (cores it may use)"},
           "workloads": {}}

    def save():
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")

    for workload in workloads:
        entry = doc["workloads"][workload] = {"seeds": seeds, "pairs": 0,
                                              "metrics": {},
                                              "runs": {"parent": [], "change": []}}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                load = host_load()
                result, prov = run_once(sides[side][1], workload, seed, 0, timeout)
                entry["runs"][side].append(record(result, seed, load))
                if prov and "blas_threads" not in doc["host"]:
                    doc["host"].update(blas_threads=prov["threads"],
                                       python=prov["python"], numpy=prov["numpy"],
                                       scipy=prov["scipy"])
            entry["pairs"] = i + 1
            entry["metrics"] = summarize(entry["runs"], metrics)
            entry["attempted"] = side_spread(entry["runs"], "attempted")
            print(workload, seed, {k: (v["parent_median"], v["change_median"],
                                       v["change_wins"])
                                   for k, v in entry["metrics"].items()}, flush=True)
            save()
        entry["per_layer_seed1_traced"] = {
            side: values(run_once(sides[side][1], workload, 1, 1, timeout)[0])
            for side in ("parent", "change")}
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
