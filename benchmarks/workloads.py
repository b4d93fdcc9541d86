"""The benchmark's three workload pipelines.

Each pipeline is composed only from the public API in trefftz_dd/__init__.py
and calls it through the package attribute (`td.name`), so a traced pass sees
the wrapped functions.  A pipeline is split into three steps that the runner
times one call at a time: `setup(seed, run)` returns the state that
`build(state, run)` adds its coarse spaces and Schwarz contexts to, and
`solve(state, run)` uses them.  A build replaces the previous build's
objects, so a run can repeat build and solve on one set-up.  Each step
records into `run` the problem sizes, solver outcomes and outputs the
checks compare.
"""
import time
from collections import namedtuple

import numpy as np

import trefftz_dd as td

#: algebraic L2 error tolerance for every iterative solve
TOL = 1e-8
CORNER = np.array([[0.0, 0.0]])
#: lshape-graded mesh pitch before grading (the acceptance edge study uses
#: 1/192); set-up stays short enough for three set-ups and many sweeps a run
LSHAPE_PITCH = 1.0 / 60.0

#: `sweeps`: build+solve sweeps after each set-up in an untraced run;
#: `builds`: builds per sweep, the first one before the solve and the rest,
#: timed as further build samples, after it
Workload = namedtuple("Workload", "setup build solve sweeps builds")


def ones(points):
    return np.ones(len(points))


def lshape_dirichlet(points):
    return td.exact_lshape(points)[0]


class Pass:
    """Step timings and outputs of one set-up and the sweeps run on it."""

    def __init__(self, traced=False):
        self.traced = traced
        self.times = {"setup": [], "build": [], "solve": []}
        self.wall = None         # set-up plus the first build and solve
        self.peak_rss_mb = None  # at the end of the first pass's `wall`
        self.sizes = {"n_points": 0, "n_free": 0, "ref_n_points": 0,
                      "coarse_dim": 0, "n_subdomains": 0,
                      "subdomain_dofs_max": 0}
        self.counts = {}         # label -> mesh point/triangle count
        self.errors = {}         # label -> (l2_rel, h1_rel), of the last solve
        self.solves = []         # (label, iterations, converged, final alg L2)
        self.factor_fill = 0     # of the last build
        self.h1_rel_err = None

    def step(self, name, fn, *args):
        """Run one step, append its wall time to `times[name]` and return
        its result.  Outputs of the previous step of that name are cleared."""
        if name == "build":
            self.factor_fill = 0
        elif name == "solve":
            self.errors, self.solves, self.h1_rel_err = {}, [], None
        t0 = time.perf_counter()
        result = fn(*args, self)
        self.times[name].append(time.perf_counter() - t0)
        return result

    def mesh_counts(self, label, mesh):
        self.counts[label + ".n_points"] = int(mesh.n_points)
        self.counts[label + ".n_triangles"] = int(mesh.n_triangles)

    def solved(self, label, report):
        self.solves.append((label, int(report.iterations), bool(report.converged),
                            float(report.rows[-1][2])))

    def local_factors(self, ctx, overlap):
        """Add the fill of a Schwarz context's local factors (Factorization
        exposes no count, so SuperLU's L and U are read) and the subdomain sizes."""
        self.factor_fill += sum(f._lu.L.nnz + f._lu.U.nnz for f in ctx.facts
                                if f is not None and f._lu is not None)
        self.sizes["n_subdomains"] = overlap.n_subdomains
        self.sizes["subdomain_dofs_max"] = max(len(d) for d in overlap.dof_sets)


# -- lshape-graded: graded L-shape edge study.  One mesh and cell cache; the
# p in {1,2} x r in {0,1,2} coarse spaces are each applied once and measured
# against the exact solution.  No random input, so `seed` is unused.

def lshape_setup(seed, run):
    domain = td.lshape_domain()
    part = td.CoarsePartition(domain.outer, 3, 3)
    mesh = td.generate_structured(domain, part, LSHAPE_PITCH)
    mesh = td.refine_toward(mesh, CORNER, 6)
    system = td.assemble(mesh, g=lshape_dirichlet)
    u_fine = td.solve_fine(system)
    skel = td.build_skeleton(domain, part)
    cache = td.build_cell_cache(mesh, system, skel)
    run.mesh_counts("mesh", mesh)
    run.sizes.update(n_points=mesh.n_points, n_free=system.dofmap.n_free)
    return {"mesh": mesh, "system": system, "u_fine": u_fine, "skel": skel,
            "cache": cache}


def lshape_build(state, run):
    state.pop("spaces", None)
    state["spaces"] = spaces = {}
    for p in (1, 2):
        for r in (0, 1, 2):
            spaces[p, r] = td.build_trefftz(state["mesh"], state["system"],
                                            td.refine_edges(state["skel"], r), p,
                                            state["cache"])
    run.sizes["coarse_dim"] = spaces[2, 2].dim


def lshape_solve(state, run):
    mesh, system = state["mesh"], state["system"]
    run.errors["fine"] = td.error_norms(mesh, state["u_fine"], td.exact_lshape)
    for (p, r), space in state["spaces"].items():
        u = td.coarse_approximation(system, space)
        run.errors["p%d.r%d" % (p, r)] = td.error_norms(mesh, u, td.exact_lshape)
    run.h1_rel_err = run.errors["p2.r2"][1]


# -- urban-n256: scalability-table configuration at N=256 with minimal
# overlap, with and without walls: both coarse spaces under GMRES, plus the
# hybrid sweep with the Trefftz space.  No exact solution, so the monitor
# tracks only the algebraic error against the fine solution.

GEOMETRIES = (("walls", 12), ("nowalls", 0))


def n256_setup(seed, run):
    state = {}
    for label, n_walls in GEOMETRIES:
        domain = td.generate_urban_synthetic(seed, 640.0, 2.5, 24, n_walls)
        part = td.CoarsePartition(domain.outer, 16, 16)
        mesh = td.generate_structured(domain, part, 2.5)
        system = td.assemble(mesh, f=ones)
        monitor = td.ErrorMonitor(mesh, system)
        skel = td.build_skeleton(domain, part)
        cache = td.build_cell_cache(mesh, system, skel)
        run.mesh_counts(label, mesh)
        state[label] = {"part": part, "mesh": mesh, "system": system,
                        "monitor": monitor, "skel": skel, "cache": cache}
    walls = state["walls"]
    run.sizes.update(n_points=walls["mesh"].n_points,
                     n_free=walls["system"].dofmap.n_free)
    return state


def n256_build(state, run):
    for label, geo in state.items():
        geo.pop("contexts", None)
        mesh, system = geo["mesh"], geo["system"]
        trefftz = td.build_trefftz(mesh, system, geo["skel"], 1, geo["cache"])
        overlap = td.build_overlap(mesh, system.dofmap,
                                   td.overlap_layers(geo["part"], 2.5, "min"),
                                   n_cells=geo["part"].n_cells)
        nicolaides = td.build_nicolaides(mesh, system, overlap)
        ctx_t = td.build_schwarz(system, overlap, coarse=trefftz)
        ctx_n = td.build_schwarz(system, overlap, coarse=nicolaides)
        run.local_factors(ctx_t, overlap)
        run.local_factors(ctx_n, overlap)
        geo["contexts"] = ctx_t, ctx_n
        if label == "walls":
            run.sizes["coarse_dim"] = trefftz.dim


def n256_solve(state, run):
    for label, geo in state.items():
        ctx_t, ctx_n = geo["contexts"]
        monitor = geo["monitor"]
        _, gmres_t = td.solve_pgmres(ctx_t, monitor, error_tol=TOL, max_iters=400)
        _, gmres_n = td.solve_pgmres(ctx_n, monitor, error_tol=TOL, max_iters=400)
        _, hybrid = td.hybrid_iterate(ctx_t, monitor, tol=TOL, max_iters=200)
        run.solved(label + ".gmres.trefftz", gmres_t)
        run.solved(label + ".gmres.nicolaides", gmres_n)
        run.solved(label + ".hybrid.trefftz", hybrid)
        if label == "walls":
            # row 0 of the hybrid history is the coarse approximation it starts from
            run.h1_rel_err = float(hybrid.rows[0][3])


# -- urban-ref: `trefftz-dd solve --urban SEED --grid 8 8 --pitch 2.5
# --method gmres` with one red refinement for the reference: Trefftz p=1,
# h20 overlap, GMRES monitored for the full error against the reference.

def ref_setup(seed, run):
    domain = td.generate_urban_synthetic(seed, 640.0, 2.5, 24, 12)
    part = td.CoarsePartition(domain.outer, 8, 8)
    mesh = td.generate_structured(domain, part, 2.5)
    system = td.assemble(mesh, f=ones)
    ref_mesh, P = td.red_refine(mesh, 1)
    ref_field = td.solve_fine(td.assemble(ref_mesh, f=ones))
    monitor = td.ErrorMonitor(mesh, system, (ref_mesh, ref_field, P))
    skel = td.build_skeleton(domain, part)
    cache = td.build_cell_cache(mesh, system, skel)
    run.mesh_counts("mesh", mesh)
    run.mesh_counts("ref", ref_mesh)
    run.sizes.update(n_points=mesh.n_points, n_free=system.dofmap.n_free,
                     ref_n_points=ref_mesh.n_points)
    return {"part": part, "mesh": mesh, "system": system, "monitor": monitor,
            "skel": skel, "cache": cache}


def ref_build(state, run):
    state.pop("context", None)
    mesh, system, part = state["mesh"], state["system"], state["part"]
    space = td.build_trefftz(mesh, system, state["skel"], 1, state["cache"])
    overlap = td.build_overlap(mesh, system.dofmap,
                               td.overlap_layers(part, 2.5, "h20"),
                               n_cells=part.n_cells)
    state["context"] = td.build_schwarz(system, overlap, coarse=space)
    run.local_factors(state["context"], overlap)
    run.sizes["coarse_dim"] = space.dim


def ref_solve(state, run):
    _, report = td.solve_pgmres(state["context"], state["monitor"],
                                error_tol=TOL, max_iters=200)
    run.solved("gmres.trefftz", report)
    run.h1_rel_err = float(report.rows[-1][5])


WORKLOADS = {
    "lshape-graded": Workload(lshape_setup, lshape_build, lshape_solve,
                              sweeps=6, builds=1),
    "urban-n256": Workload(n256_setup, n256_build, n256_solve,
                           sweeps=1, builds=1),
    "urban-ref": Workload(ref_setup, ref_build, ref_solve,
                          sweeps=2, builds=2),
}
