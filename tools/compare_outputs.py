"""Compare the outputs of two commits, file by file, as one JSON record.

    python3 tools/compare_outputs.py --parent REV [--change REV] --out REPORT.json

Run from a git checkout.  Both revisions are exported with
`bench_pairs.export` into `.bench_build/<commit>/`, so each side runs its
own committed sources.  On each tree it runs the CLI configurations in
RUNS, each into its own directory under `.bench_build/outputs/<side>/`,
and `pytest -s tests/test_acceptance.py` for the criterion verdict lines,
and it runs `tools/coarse_hashes.py` (this tree's copy) on its sources for
the sha256 of T, labels, R and `lift_full` in eight fixed configurations.

Per output file the record says "byte-identical", or else whether the row
counts and the `iters` and `converged` columns are equal and, per column,
the maximum relative change |c - p| / max(|p|, |c|) over the rows (0 where
the two cells read alike); a column whose cells differ but are not both
finite numbers is listed under `text_changed`.  The verdict lines are
compared with their runtimes masked.  Each run also records its exit
status and peak RSS; every run has one BLAS and OpenMP thread (THREADS,
also in the record).  `all_identical` holds when every file is
byte-identical, the verdict lines are equal, both sides hash their coarse
spaces alike and every run, the acceptance suite and the hashing included,
exits with the same status on both sides.
"""
import argparse
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys

from bench_pairs import BUILD, export

#: name -> CLI arguments; each run writes into its own --out directory
RUNS = {
    "scalability": ["scalability"],
    "lshape_edge_p2": ["lshape", "--strategy", "edge", "--p", "2"],
    "lshape_mesh_p1": ["lshape", "--strategy", "mesh", "--p", "1"],
    "solve_lshape": ["solve"],
    # stopped by --max-iters: exit 3, with its history and summary written
    "solve_lshape_capped": ["solve", "--method", "gmres", "--max-iters", "2"],
    "solve_urban": ["solve", "--urban", "1", "--grid", "8", "8", "--pitch", "2.5",
                    "--method", "both", "--reference-levels", "1"],
    "solve_urban_nicolaides": ["solve", "--urban", "1", "--grid", "8", "8",
                               "--pitch", "2.5", "--space", "nicolaides",
                               "--method", "gmres", "--reference-levels", "1"],
}
ACCEPTANCE = ["-m", "pytest", "-s", "-q", "-p", "no:cacheprovider",
              "tests/test_acceptance.py"]
#: the thread counts of every child run, as `benchmarks/run.py` sets them
THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS")}
#: prints the coarse-space hashes of the tree on PYTHONPATH into a JSON file
HASHES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "coarse_hashes.py")
VERDICT = re.compile(r"\[criterion \d+\].*")
RUNTIME = re.compile(r"runtime [0-9.]+s")


def child_env(tree):
    """The environment of a run in `tree`: its sources first on the path
    and THREADS."""
    return dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), **THREADS)


def run(args, tree, log):
    """Run `python args` in `tree` in `child_env(tree)`, output to `log`;
    return (exit status, peak RSS in MB)."""
    with open(log, "w") as out:
        proc = subprocess.Popen([sys.executable, *args], cwd=tree, env=child_env(tree),
                                stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, round(usage.ru_maxrss / 1024.0, 1)   # kB on Linux


def verdicts(text):
    """The criterion verdict lines of a pytest log, runtimes masked."""
    return [RUNTIME.sub("runtime *s", m.group(0)) for m in VERDICT.finditer(text)]


def rel_change(p, c):
    """|c - p| / max(|p|, |c|); 0 when both are 0."""
    scale = max(abs(p), abs(c))
    return abs(c - p) / scale if scale else 0.0


def compare_csv(parent, change):
    """Row counts, `iters`/`converged` equality and per-column maximum
    relative change of two CSV texts with a header line."""
    (p_head, *p_rows), (c_head, *c_rows) = (list(csv.reader(io.StringIO(t)))
                                            for t in (parent, change))
    if p_head != c_head:
        return {"columns_equal": False}
    out = {"columns_equal": True, "rows_equal": len(p_rows) == len(c_rows)}
    for name in ("iters", "converged"):
        if name in p_head:
            k = p_head.index(name)
            out[name + "_equal"] = (out["rows_equal"]
                                    and [r[k] for r in p_rows] == [r[k] for r in c_rows])
    changes, text = {}, []
    for k, name in enumerate(p_head):
        moved = [(p[k], c[k]) for p, c in zip(p_rows, c_rows) if p[k] != c[k]]
        try:
            moved = [(float(p), float(c)) for p, c in moved]
        except ValueError:
            moved = [(math.nan, math.nan)]
        if all(math.isfinite(v) for pair in moved for v in pair):
            changes[name] = max((rel_change(p, c) for p, c in moved), default=0.0)
        else:
            text.append(name)
    out["max_rel_change"] = changes
    out["text_changed"] = text
    return out


def compare_dirs(parent, change):
    """Relative path -> comparison, for every file under either directory."""
    def files(top):
        return {os.path.relpath(os.path.join(d, f), top)
                for d, _, names in os.walk(top) for f in names}

    table = {}
    p_files, c_files = files(parent), files(change)
    for name in sorted(p_files | c_files):
        if name not in p_files or name not in c_files:
            table[name] = {"status": "only in " + ("change" if name in c_files
                                                   else "parent")}
            continue
        with open(os.path.join(parent, name), "rb") as f:
            p = f.read()
        with open(os.path.join(change, name), "rb") as f:
            c = f.read()
        if p == c:
            table[name] = {"status": "byte-identical"}
        elif name.endswith(".csv"):
            table[name] = dict(status="changed", **compare_csv(p.decode(), c.decode()))
        else:
            table[name] = {"status": "changed"}
    return table


def all_identical(doc):
    """Every file byte-identical, the verdict lines and the coarse-space
    hashes equal and every run's exit status equal on both sides."""
    runs = [*doc["runs"].values(), doc["acceptance"], doc["coarse_hashes"]]
    return (doc["acceptance"]["verdicts_equal"] and doc["coarse_hashes"]["equal"]
            and all(f["status"] == "byte-identical" for f in doc["files"].values())
            and all(run["exit"]["parent"] == run["exit"]["change"] for run in runs))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", default="HEAD", help="change revision")
    parser.add_argument("--out", required=True, help="JSON report to write")
    args = parser.parse_args(argv)

    sides = dict(zip(("parent", "change"), (export(args.parent), export(args.change))))
    doc = {"commits": {side: sha for side, (sha, _) in sides.items()}, "threads": THREADS,
           "runs": {name: {"args": cli, "exit": {}, "peak_rss_mb": {}}
                    for name, cli in RUNS.items()},
           "acceptance": {"exit": {}, "peak_rss_mb": {}},
           "coarse_hashes": {"exit": {}, "peak_rss_mb": {}}}
    lines, hashes = {}, {}
    for side, (_, tree) in sides.items():
        top = os.path.join(BUILD, "outputs", side)
        shutil.rmtree(top, ignore_errors=True)
        os.makedirs(os.path.join(top, "logs"))
        for name, cli in RUNS.items():
            status, rss = run(["-m", "trefftz_dd.cli", *cli, "--out",
                               os.path.join(top, "csv", name)], tree,
                              os.path.join(top, "logs", name + ".log"))
            doc["runs"][name]["exit"][side] = status
            doc["runs"][name]["peak_rss_mb"][side] = rss
            print(side, name, status, rss, flush=True)
        log = os.path.join(top, "logs", "acceptance.log")
        status, rss = run(ACCEPTANCE, tree, log)
        doc["acceptance"]["exit"][side] = status
        doc["acceptance"]["peak_rss_mb"][side] = rss
        with open(log) as f:
            lines[side] = verdicts(f.read())
        print(side, "acceptance", status, rss, flush=True)
        path = os.path.join(top, "coarse_hashes.json")
        status, rss = run([HASHES, path], tree, os.path.join(top, "logs", "coarse_hashes.log"))
        doc["coarse_hashes"]["exit"][side] = status
        doc["coarse_hashes"]["peak_rss_mb"][side] = rss
        if status == 0:
            with open(path) as f:
                hashes[side] = json.load(f)
        print(side, "coarse_hashes", status, rss, flush=True)
    doc["acceptance"]["verdicts_equal"] = lines["parent"] == lines["change"]
    doc["acceptance"]["verdicts"] = lines["change"]
    if not doc["acceptance"]["verdicts_equal"]:
        doc["acceptance"]["parent_verdicts"] = lines["parent"]
    doc["coarse_hashes"]["equal"] = (len(hashes) == 2
                                      and hashes["parent"] == hashes["change"])
    doc["coarse_hashes"]["hashes"] = hashes.get("change")
    if not doc["coarse_hashes"]["equal"]:
        doc["coarse_hashes"]["parent_hashes"] = hashes.get("parent")
    doc["files"] = compare_dirs(*(os.path.join(BUILD, "outputs", side, "csv")
                                  for side in sides))
    doc["all_identical"] = all_identical(doc)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print("%d files, %d byte-identical; verdict lines %s; coarse hashes %s; "
          "all identical: %s" % (
              len(doc["files"]), sum(f["status"] == "byte-identical"
                                     for f in doc["files"].values()),
              "equal" if doc["acceptance"]["verdicts_equal"] else "differ",
              "equal" if doc["coarse_hashes"]["equal"] else "differ",
              doc["all_identical"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
