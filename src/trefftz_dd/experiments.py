"""Experiment drivers: convergence studies, solver comparisons, scalability.

Every driver is deterministic given its configuration (and seed, where one
applies): geometry generation draws integers from a seeded PCG64 stream,
solvers accumulate in fixed order, and CSV output is written with full
precision, so repeated runs produce byte-identical files.
"""
import math
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .coarse import (build_cell_cache, build_nicolaides, build_trefftz,
                     coarse_approximation, relative_dim)
from .errors import Divergence, PlacementFailure
from .fem import (assemble, error_norms, exact_lshape, nested_reference,
                  solve_fine)
from .geometry import (CoarsePartition, PerforatedDomain, Rect, build_skeleton,
                       cell_extent, load_geometry, refine_edges)
from .mesh import (_int_ratio, assign_cells, build_overlap, generate_structured,
                   red_refine, refine_toward)
from .schwarz import (REPORT_COLUMNS, ErrorMonitor, build_schwarz,
                      hybrid_iterate, solve_pgmres)

CONVERGENCE_COLUMNS = "H,dim,l2_rel,h1_rel,eoc_l2,eoc_h1"
SCALABILITY_COLUMNS = "walls,N,overlap,space,iters,converged,dim,relative_dim,error"
STUDY_COLUMNS = "method,N,overlap,space,p,r,iters,converged,final_alg_l2,error"
SPACES = ("trefftz", "nicolaides")
METHODS = ("hybrid", "gmres")
N_VALUES = (4, 16, 64, 256)      # default subdomain counts of the scalability sweep


def _format_cell(value):
    # bool before int: bool is an int subclass
    if isinstance(value, (bool, np.bool_)):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return "%.17g" % value


def write_csv(path, columns, rows):
    """Write a header line and one line per row, creating the directory.

    Cells are formatted by type: bools as True/False, strings as is,
    integers with %d and everything else with %.17g, so floats round-trip
    and a fixed input gives the same bytes.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        f.write(columns + "\n")
        for row in rows:
            f.write(",".join(map(_format_cell, row)) + "\n")


def lshape_domain():
    """(-1,1)^2 with the upper-right quadrant removed."""
    return PerforatedDomain(Rect(-1.0, -1.0, 1.0, 1.0),
                            (Rect(0.0, 0.0, 1.0, 1.0),))


def overlap_layers(partition, pitch, rule):
    """Number of overlap rings for a named rule: minimal or H_j/20."""
    if isinstance(rule, (int, np.integer)):
        return int(rule)
    if rule == "min":
        return 1
    if rule == "h20":
        extent = max(cell_extent(partition, j)
                     for j in range(partition.nx * partition.ny))
        return max(1, round(extent / (20.0 * pitch)))
    raise ValueError("unknown overlap rule %r" % (rule,))


def fitted_order(H, err):
    """Least-squares slope of log(err) against log(H)."""
    x = np.log(np.asarray(H, dtype=float))
    y = np.log(np.asarray(err, dtype=float))
    x = x - x.mean()
    return float((x @ (y - y.mean())) / (x @ x))


class ConvergenceRow(NamedTuple):
    H: float
    dim: int
    l2_rel: float
    h1_rel: float
    eoc_l2: float
    eoc_h1: float


def _convergence_rows(steps):
    """steps: list of (H, dim, l2, h1) -> ConvergenceRow list with EOCs."""
    rows = []
    for i, (H, dim, l2, h1) in enumerate(steps):
        if i == 0:
            eoc_l2 = eoc_h1 = float("nan")
        else:
            prev = steps[i - 1]
            ratio = math.log(prev[0] / H)
            eoc_l2 = math.log(prev[2] / l2) / ratio
            eoc_h1 = math.log(prev[3] / h1) / ratio
        rows.append(ConvergenceRow(H, dim, l2, h1, eoc_l2, eoc_h1))
    return rows


def run_lshape_convergence(strategy="edge", p=1, levels=None, pitch=None,
                           grade=None, divisions=48, outdir=None):
    """Coarse-space convergence on the L-shape corner-singularity problem.

    strategy "edge" keeps a fixed 3x3 coarse grid on one mesh (default
    pitch 1/192, graded toward the reentrant corner) and refines the
    skeleton edges r = 0..levels-1; strategy "mesh" refines the coarse grid
    itself, k = 1..levels with a (2k+1)x(2k+1) partition and a fine pitch
    of the cell width over `divisions`.  Returns (rows, floor) where floor
    lists the fine finite element error of each step's mesh — the
    attainable limit for any coarse space on it.  `p` may also be a tuple
    of trace degrees, studied on the same meshes, systems and cell caches;
    the result is then {p: (rows, floor)}.

    The problem has f = 0 and Neumann walls, so Galerkin orthogonality
    splits each row's error against the exact solution into a coarse-space
    part and the floor: sqrt(h1_rel**2 - floor h1_rel**2), taken row by row
    from ``lshape_<strategy>_p<p>.csv`` and its ``_floor.csv``, is the
    coarse error against the fine solution on the same mesh (the quantity
    the H1-projection estimate bounds), up to the |u| vs |u_h| scaling of
    the relative norms.
    """
    if (levels is not None and levels < 1) or divisions < 1:
        raise ValueError("levels and divisions must be >= 1")
    if strategy == "edge":
        levels = 4 if levels is None else levels
        grade = 3 if grade is None else grade
        # (cells per side, fine pitch, skeleton edge refinement levels)
        plan = [(3, 1.0 / 192.0 if pitch is None else pitch, range(levels))]
    elif strategy == "mesh":
        levels = 3 if levels is None else levels
        grade = 2 if grade is None else grade
        plan = [(2 * k + 1, 2.0 / ((2 * k + 1) * divisions), (0,))
                for k in range(1, levels + 1)]
    else:
        raise ValueError("strategy must be 'edge' or 'mesh'")
    degrees = p if isinstance(p, tuple) else (p,)
    domain = lshape_domain()

    steps, floor = {q: [] for q in degrees}, []
    for n, h, refinements in plan:
        _lshape_steps(domain, CoarsePartition(domain.outer, n, n), h, grade,
                      refinements, steps, floor)

    floor_rows = _convergence_rows(floor)
    studies = {q: (_convergence_rows(steps[q]), floor_rows) for q in degrees}
    if outdir is not None:
        for q, (rows, _) in studies.items():
            stem = os.path.join(outdir, "lshape_%s_p%d" % (strategy, q))
            write_csv(stem + ".csv", CONVERGENCE_COLUMNS, rows)
            write_csv(stem + "_floor.csv", CONVERGENCE_COLUMNS, floor_rows)
    return studies if isinstance(p, tuple) else studies[p]


def _lshape_steps(domain, part, h, grade, refinements, steps, floor):
    """Append one mesh's (H, dim, l2, h1) steps to steps[q] and floor.  Its
    system, cell cache and spaces die on return, before the next mesh."""
    mesh, system, exact = _fine_problem(domain, part, h, grade)
    mesh, skel, cache = _partition_setup(domain, part, mesh, system)
    fe = error_norms(mesh, solve_fine(system), exact)
    for r in refinements:
        H = skel.H / 2 ** r
        for q in steps:
            space = build_trefftz(mesh, system, refine_edges(skel, r), q, cache)
            u = coarse_approximation(system, space)
            steps[q].append((H, space.dim) + error_norms(mesh, u, exact))
        floor.append((H, system.dofmap.n_free) + fe)


def generate_urban_synthetic(seed, extent=640.0, pitch=2.5, n_buildings=24,
                             n_walls=12):
    """Random city block: building footprints plus free-standing walls.

    Rectangles are placed on the pitch grid by rejection sampling: buildings
    are 4-12 pitches per side, walls 1 pitch thick and 8-40 long.  Every
    placement keeps at least one pitch of clearance from previous ones and
    two from the outer boundary, and must leave the remaining domain
    connected.  All randomness is integer draws from PCG64(seed), so the
    result is reproducible bit for bit.
    """
    cells = _int_ratio(extent, pitch, "extent")
    rng = np.random.Generator(np.random.PCG64(seed))
    free = np.ones((cells, cells), dtype=bool)   # [ix, iy] pitch squares
    buildings, walls = [], []
    rejections = 0

    def try_place(w, h, out):
        nonlocal rejections
        if w > cells - 4 or h > cells - 4:   # cannot honour the margin
            rejections += 1
            if rejections >= 100000:
                raise PlacementFailure(len(buildings), len(walls), rejections)
            return False
        ix = int(rng.integers(2, cells - 2 - w + 1))
        iy = int(rng.integers(2, cells - 2 - h + 1))
        # one-pitch clearance against everything already placed
        lo_x, lo_y = max(ix - 1, 0), max(iy - 1, 0)
        good = free[lo_x:ix + w + 1, lo_y:iy + h + 1].all()
        if good:
            free[ix:ix + w, iy:iy + h] = False
            _, ncomp = ndimage.label(free)
            if ncomp == 1:
                out.append(Rect(ix * pitch, iy * pitch,
                                (ix + w) * pitch, (iy + h) * pitch))
                return True
            free[ix:ix + w, iy:iy + h] = True
        rejections += 1
        if rejections >= 100000:
            raise PlacementFailure(len(buildings), len(walls), rejections)
        return False

    while len(buildings) < n_buildings:
        try_place(int(rng.integers(4, 13)), int(rng.integers(4, 13)), buildings)
    while len(walls) < n_walls:
        length = int(rng.integers(8, 41))
        w, h = (length, 1) if rng.integers(2) else (1, length)
        try_place(w, h, walls)

    return PerforatedDomain(Rect(0.0, 0.0, extent, extent),
                            tuple(buildings + walls))


def _fine_problem(domain, partition, pitch, grade=0, reference_levels=0):
    """Geometry step: (mesh, system, exact) of one fine problem.

    The mesh is built on `partition` and graded `grade` bisection rounds
    toward the origin, the L-shape's reentrant corner.  On the L-shape the
    Dirichlet data is the trace of `exact_lshape`, which is also the exact
    solution.  Any other domain gets f = 1 and homogeneous Dirichlet data,
    and its exact solution is the `NestedReference` of the fine solution on
    the mesh red-refined `reference_levels` times, or None for zero levels.
    """
    mesh = generate_structured(domain, partition, pitch)
    if grade:
        mesh = refine_toward(mesh, np.array([[0.0, 0.0]]), grade)
    if domain == lshape_domain():
        g = lambda pts: exact_lshape(pts)[0]
        return mesh, assemble(mesh, g=g), exact_lshape
    f = lambda pts: np.ones(len(pts))
    system = assemble(mesh, f=f)
    if not reference_levels:
        return mesh, system, None
    ref_mesh, P = red_refine(mesh, reference_levels)
    ref = assemble(ref_mesh, f=f)
    return mesh, system, nested_reference(mesh, ref_mesh, solve_fine(ref), P,
                                          ref.A_full)


def _partition_setup(domain, partition, mesh, system):
    """Partition step: (mesh, skeleton, cell cache) for one coarse grid.

    The returned mesh is `mesh` with its triangles labelled by the cells of
    `partition`; a triangle that straddles two cells raises
    NonConformingMesh.
    """
    mesh = replace(mesh, cell_of_triangle=assign_cells(mesh.points,
                                                       mesh.triangles,
                                                       partition))
    skel = build_skeleton(domain, partition)
    return mesh, skel, build_cell_cache(mesh, system, skel)


@dataclass
class ExperimentConfig:
    """Sweep description for the solver study (one run per combination)."""
    geometry: str = "lshape"         # "lshape" or "urban"
    seed: int = 1
    nx: int = 5
    ny: int = 5
    pitch: float = 1.0 / 80.0
    extent: float = 640.0
    n_buildings: int = 24
    n_walls: int = 12
    p: tuple = (1,)
    edge_ref: tuple = (0,)
    overlap: tuple = ("h20",)
    method: tuple = ("hybrid", "gmres")
    space: str = "trefftz"
    tol: float = 1e-8
    max_iters: int = 200
    reference_levels: int = 2
    outdir: str | None = None


def _run_method(method, ctx, monitor, tol, max_iters):
    """One guarded solve to the algebraic L2 error tol: (report, error note).

    A diverged fixed point keeps its partial report with the note
    "diverged"; any other numerical failure gives no report and its message.
    """
    solve = hybrid_iterate if method == "hybrid" else solve_pgmres
    try:
        _, report = solve(ctx, monitor, tol, max_iters)
    except Divergence as exc:
        return exc.report, "diverged"
    except ArithmeticError as exc:
        return None, str(exc) or type(exc).__name__
    return report, ""


def run_solver_study(config):
    """Convergence histories of the hybrid and GMRES solvers over a sweep.

    Returns {(method, overlap, p, r): IterationReport}; with an output
    directory set, also writes one history CSV per run plus a summary.
    A diverged fixed point contributes its partial history and an error
    note rather than aborting the sweep.  An unknown coarse space or method
    raises ValueError before any set-up.
    """
    if config.space not in SPACES:
        raise ValueError("unknown coarse space %r" % (config.space,))
    for method in config.method:
        if method not in METHODS:
            raise ValueError("unknown method %r" % (method,))
    if config.geometry in ("lshape", "urban"):
        domain = (lshape_domain() if config.geometry == "lshape" else
                  generate_urban_synthetic(config.seed, config.extent,
                                           config.pitch, config.n_buildings,
                                           config.n_walls))
        part = CoarsePartition(domain.outer, config.nx or 5, config.ny or 5)
    else:                                    # a saved geometry JSON file
        domain, part = load_geometry(config.geometry)
        if config.nx and config.ny:
            part = CoarsePartition(domain.outer, config.nx, config.ny)
    mesh, system, exact = _fine_problem(
        domain, part, config.pitch, reference_levels=config.reference_levels)
    mesh, skel, cache = _partition_setup(domain, part, mesh, system)
    monitor = ErrorMonitor(mesh, system, exact)
    n_cells = part.nx * part.ny
    reports = {}
    summary = []
    for rule in config.overlap:
        ov = build_overlap(mesh, system.dofmap,
                           overlap_layers(part, config.pitch, rule),
                           n_cells=n_cells)
        local = build_schwarz(system, ov)
        if config.space == "nicolaides":    # independent of p and r
            nicolaides = build_nicolaides(mesh, system, ov)
        for p in config.p:
            for r in config.edge_ref:
                if config.space == "trefftz":
                    space = build_trefftz(mesh, system,
                                          refine_edges(skel, r), p, cache)
                else:
                    space = nicolaides
                for method in config.method:
                    report, err = _run_method(method, replace(local, coarse=space),
                                              monitor, config.tol,
                                              config.max_iters)
                    reports[(method, rule, p, r)] = report
                    summary.append((method, n_cells, rule, config.space, p, r,
                                    report.iterations if report else -1,
                                    report.converged if report else False,
                                    report.rows[-1][2] if report else float("nan"),
                                    err))
                    if config.outdir is not None and report is not None:
                        name = "history_%s_N%d_ov%s_p%d_r%d.csv" % (
                            method, n_cells, rule, p, r)
                        write_csv(os.path.join(config.outdir, name),
                                  REPORT_COLUMNS, report.rows)
        del ov, local           # freed before the next rule's factor is built
    if config.outdir is not None:
        write_csv(os.path.join(config.outdir, "study_summary.csv"),
                  STUDY_COLUMNS, summary)
    return reports


def _scalability_rows(walls, domain, N, mesh, system, monitor, pitch, tol,
                      max_iters):
    """The rows of the N-cell partition of one geometry.  Its cell cache,
    spaces and factors die on return, before the next N's are built."""
    part = CoarsePartition(domain.outer, math.isqrt(N), math.isqrt(N))
    mesh, skel, cache = _partition_setup(domain, part, mesh, system)
    trefftz = build_trefftz(mesh, system, skel, 1, cache)
    del cache                    # its last solve built the basis
    outcomes, rows = {}, []      # overlap layers -> one row tail per space
    for rule in ("min", "h20"):
        layers = overlap_layers(part, pitch, rule)
        if layers not in outcomes:
            ov = build_overlap(mesh, system.dofmap, layers, n_cells=N)
            local = build_schwarz(system, ov)
            outcomes[layers] = []
            for space in (trefftz, build_nicolaides(mesh, system, ov)):
                report, err = _run_method("gmres", replace(local, coarse=space),
                                          monitor, tol, max_iters)
                outcomes[layers].append((
                    space.kind, report.iterations if report else -1,
                    report.converged if report else False,
                    space.dim, relative_dim(space, part), err))
            del ov, local       # freed before the next rule's factor is built
        rows += [(walls, N, rule) + tail for tail in outcomes[layers]]
    return rows


def run_scalability(seed=1, outdir=None, n_values=N_VALUES,
                    extent=640.0, pitch=2.5, n_buildings=24, n_walls=12,
                    tol=1e-8, max_iters=400):
    """Iteration counts vs subdomain count for both coarse spaces.

    For geometries with and without walls, N in n_values subdomains, both
    overlap rules and both coarse spaces, runs preconditioned GMRES until
    the algebraic L2 error against the fine solution drops below tol, and
    tabulates iterations, coarse dimension, and dimension relative to the
    coarse-node (or subdomain) count.  Each geometry is meshed, assembled
    and solved once; only its coarse partition changes with N.  Where both
    overlap rules give the same number of layers, the overlap is built and
    solved once and its rows are written for both rules.
    """
    pitches = _int_ratio(extent, pitch, "extent")
    if any(N < 1 or math.isqrt(N) ** 2 != N or pitches % math.isqrt(N)
           for N in n_values):
        raise ValueError("n_values entries must be positive perfect squares "
                         "whose sqrt divides the %d pitches per side" % pitches)
    rows = []
    for walls in (True, False):
        domain = generate_urban_synthetic(seed, extent, pitch, n_buildings,
                                          n_walls if walls else 0)
        mesh, system, _ = _fine_problem(
            domain, CoarsePartition(domain.outer, 1, 1), pitch)
        monitor = ErrorMonitor(mesh, system, None)
        for N in n_values:
            rows += _scalability_rows(walls, domain, N, mesh, system, monitor,
                                      pitch, tol, max_iters)
    if outdir is not None:
        write_csv(os.path.join(outdir, "scalability.csv"),
                  SCALABILITY_COLUMNS, rows)
    return rows
