"""Command-line experiment runner.

Subcommands reproduce the package's studies: `lshape` runs the coarse-space
convergence study, `solve` runs the two-level solvers on one configuration,
and `scalability` sweeps subdomain counts on the synthetic urban geometry.
Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""
import argparse
import json
import math
import sys

import os

from .experiments import (N_VALUES, ExperimentConfig, fitted_order,
                          run_lshape_convergence, run_scalability,
                          run_solver_study)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trefftz-dd",
        description="Two-level Schwarz solvers with a multiscale coarse space "
                    "on perforated domains.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{lshape,solve,scalability}")
    subs = {}

    ls = sub.add_parser("lshape",
                        help="coarse-space convergence on the L-shape problem")
    ls.add_argument("--strategy", choices=("edge", "mesh"), default="edge",
                    help="refine skeleton edges, or the coarse grid itself")
    ls.add_argument("--p", type=int, choices=(1, 2), default=1,
                    help="trace polynomial order")
    ls.add_argument("--levels", type=int, default=None,
                    help="refinement steps (default: 4 edge / 3 mesh)")
    ls.add_argument("--pitch", type=float, default=None,
                    help="fine pitch for the edge strategy (default 1/192)")
    ls.add_argument("--grade", type=int, default=None,
                    help="bisection rounds toward the reentrant corner")
    ls.add_argument("--divisions", type=int, default=48,
                    help="fine intervals per coarse cell (mesh strategy)")
    ls.add_argument("--out", default="results", help="output directory")
    ls.add_argument("--config", default=None,
                    help="JSON file providing defaults for these options")
    subs["lshape"] = ls

    so = sub.add_parser("solve",
                        help="two-level solvers on a single configuration")
    geo = so.add_mutually_exclusive_group()
    geo.add_argument("--geometry", default="lshape",
                     help="'lshape' or a geometry JSON file")
    geo.add_argument("--urban", type=int, metavar="SEED", default=None,
                     help="synthetic urban geometry from this seed")
    so.add_argument("--grid", type=int, nargs=2, metavar=("NX", "NY"),
                    default=None, help="coarse cells per direction")
    so.add_argument("--pitch", type=float, default=1.0 / 80.0)
    so.add_argument("--extent", type=float, default=640.0,
                    help="urban domain side length")
    so.add_argument("--buildings", type=int, default=24)
    so.add_argument("--walls", type=int, default=12)
    so.add_argument("--overlap", choices=("min", "h20"), default="h20")
    so.add_argument("--space", choices=("trefftz", "nicolaides"),
                    default="trefftz")
    so.add_argument("--p", type=int, choices=(1, 2), default=1)
    so.add_argument("--edge-ref", type=int, default=0,
                    help="skeleton edge refinement level r")
    so.add_argument("--method", choices=("hybrid", "gmres", "both"),
                    default="both")
    so.add_argument("--tol", type=float, default=1e-8,
                    help="algebraic L2 error tolerance")
    so.add_argument("--max-iters", type=int, default=200)
    so.add_argument("--reference-levels", type=int, default=2,
                    help="red refinements for the full-error reference")
    so.add_argument("--out", default="results")
    so.add_argument("--config", default=None)
    subs["solve"] = so

    sc = sub.add_parser("scalability",
                        help="iteration counts vs subdomain count (urban)")
    sc.add_argument("--seeds", type=int, nargs="+", default=[1])
    sc.add_argument("--n-values", type=int, nargs="+", default=N_VALUES,
                    help="subdomain counts (perfect squares; default %s)"
                    % " ".join(map(str, N_VALUES)))
    sc.add_argument("--extent", type=float, default=640.0)
    sc.add_argument("--pitch", type=float, default=2.5)
    sc.add_argument("--buildings", type=int, default=24)
    sc.add_argument("--walls", type=int, default=12)
    sc.add_argument("--tol", type=float, default=1e-8)
    sc.add_argument("--max-iters", type=int, default=400)
    sc.add_argument("--out", default="results")
    sc.add_argument("--config", default=None)
    subs["scalability"] = sc
    return parser, subs


def cmd_lshape(args):
    rows, floor = run_lshape_convergence(
        strategy=args.strategy, p=args.p, levels=args.levels,
        pitch=args.pitch, grade=args.grade, divisions=args.divisions,
        outdir=args.out)
    print("%-12s %-6s %-12s %-12s %-8s %-8s"
          % ("H", "dim", "l2_rel", "h1_rel", "eoc_l2", "eoc_h1"))
    for r in rows:
        print("%-12.4e %-6d %-12.4e %-12.4e %-8.3f %-8.3f"
              % (r.H, r.dim, r.l2_rel, r.h1_rel, r.eoc_l2, r.eoc_h1))
    if len(rows) >= 3:
        H = [r.H for r in rows[:3]]
        print("fitted orders (levels 0-2): l2 %.3f, h1 %.3f"
              % (fitted_order(H, [r.l2_rel for r in rows[:3]]),
                 fitted_order(H, [r.h1_rel for r in rows[:3]])))
        print("fitted coarse-part h1 order (levels 0-2), "
              "sqrt(h1_rel^2 - floor h1_rel^2): %.3f"
              % fitted_order(H, [math.sqrt(r.h1_rel ** 2 - f.h1_rel ** 2)
                                 for r, f in zip(rows[:3], floor)]))
    print("fine FE floor: l2 %.4e, h1 %.4e (n=%d)"
          % (floor[-1].l2_rel, floor[-1].h1_rel, floor[-1].dim))
    print("wrote %s" % args.out)
    return 0


def cmd_solve(args):
    methods = ("hybrid", "gmres") if args.method == "both" else (args.method,)
    nx, ny = args.grid if args.grid else (None, None)
    config = ExperimentConfig(
        geometry="urban" if args.urban is not None else args.geometry,
        seed=args.urban if args.urban is not None else 1,
        nx=nx, ny=ny, pitch=args.pitch, extent=args.extent,
        n_buildings=args.buildings, n_walls=args.walls,
        p=(args.p,), edge_ref=(args.edge_ref,), overlap=(args.overlap,),
        method=methods, space=args.space, tol=args.tol,
        max_iters=args.max_iters, reference_levels=args.reference_levels,
        outdir=args.out)
    reports = run_solver_study(config)
    failed = False
    for (method, rule, p, r), report in sorted(reports.items()):
        if report is None:
            print("%-7s overlap=%-4s p=%d r=%d  FAILED" % (method, rule, p, r))
            failed = True
            continue
        print("%-7s overlap=%-4s p=%d r=%d  iters=%-4d converged=%-5s "
              "alg_l2=%.3e" % (method, rule, p, r, report.iterations,
                               report.converged, report.rows[-1][2]))
        if not report.converged:
            failed = True
    print("wrote %s" % args.out)
    return 3 if failed else 0


def cmd_scalability(args):
    code = 0
    for seed in args.seeds:
        outdir = (os.path.join(args.out, "seed%d" % seed)
                  if len(args.seeds) > 1 else args.out)
        rows = run_scalability(seed=seed, outdir=outdir,
                               n_values=tuple(args.n_values),
                               extent=args.extent, pitch=args.pitch,
                               n_buildings=args.buildings, n_walls=args.walls,
                               tol=args.tol, max_iters=args.max_iters)
        print("seed %d" % seed)
        print("%-6s %-5s %-8s %-11s %-6s %-10s %-5s %-8s"
              % ("walls", "N", "overlap", "space", "iters", "converged",
                 "dim", "rel_dim"))
        for walls, N, rule, space, iters, conv, dim, rel, err in rows:
            print("%-6s %-5d %-8s %-11s %-6d %-10s %-5d %-8.2f %s"
                  % (walls, N, rule, space, iters, conv, dim, rel, err))
            if err or not conv:
                code = 3
        print("wrote %s" % outdir)
    return code


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subs = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        try:
            with open(args.config) as f:
                overrides = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            print("error: cannot read config: %s" % exc, file=sys.stderr)
            return 2
        if not isinstance(overrides, dict):
            print("error: config must hold a JSON object", file=sys.stderr)
            return 2
        flag = {action.dest: action.option_strings[0]
                for action in subs[args.command]._actions if action.dest != "help"}
        for problem, keys in (
                ("unknown config keys", set(overrides) - set(flag)),
                ("config keys set to null", {k for k, v in overrides.items() if v is None})):
            if keys:
                print("error: %s: %s" % (problem, ", ".join(sorted(keys))), file=sys.stderr)
                return 2
        # each entry becomes its option tokens, parsed in one pass ahead of the
        # explicit ones: argparse checks them as flags, and a later flag wins
        tokens = [token for key, value in overrides.items() for token in (
            [flag[key], *map(str, value)] if isinstance(value, list)
            else ["%s=%s" % (flag[key], value)])]
        try:
            args = parser.parse_args(argv[:1] + tokens + argv[1:])
        except SystemExit:      # argparse has reported the bad value
            return 2
    try:
        if args.command == "lshape":
            return cmd_lshape(args)
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_scalability(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
