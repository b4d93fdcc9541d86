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
from .fem import assemble, error_norms, exact_lshape, solve_fine
from .geometry import (CoarsePartition, PerforatedDomain, Rect, build_skeleton,
                       cell_extent, load_geometry, refine_edges)
from .mesh import build_overlap, generate_structured, red_refine, refine_toward
from .schwarz import (REPORT_COLUMNS, ErrorMonitor, build_schwarz,
                      hybrid_iterate, solve_pgmres)

CONVERGENCE_COLUMNS = "H,dim,l2_rel,h1_rel,eoc_l2,eoc_h1"
SCALABILITY_COLUMNS = "walls,N,overlap,space,iters,converged,dim,relative_dim,error"
STUDY_COLUMNS = "method,N,overlap,space,p,r,iters,converged,final_alg_l2,error"
SPACES = ("trefftz", "nicolaides")
METHODS = ("hybrid", "gmres")


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
    if strategy not in ("edge", "mesh"):
        raise ValueError("strategy must be 'edge' or 'mesh'")
    degrees = p if isinstance(p, tuple) else (p,)
    domain = lshape_domain()
    g = lambda pts: exact_lshape(pts)[0]
    corner = np.array([[0.0, 0.0]])

    steps, floor = {q: [] for q in degrees}, []

    def measure(mesh, system, skel, H, cache=None):
        for q in degrees:
            space = build_trefftz(mesh, system, skel, q, cache)
            u = coarse_approximation(system, space)
            steps[q].append((H, space.dim) + error_norms(mesh, u, exact_lshape))

    if strategy == "edge":
        levels = 4 if levels is None else levels
        pitch = 1.0 / 192.0 if pitch is None else pitch
        grade = 3 if grade is None else grade
        part = CoarsePartition(domain.outer, 3, 3)
        mesh = generate_structured(domain, part, pitch)
        if grade:
            mesh = refine_toward(mesh, corner, grade)
        system = assemble(mesh, g=g)
        fe = error_norms(mesh, solve_fine(system), exact_lshape)
        skel = build_skeleton(domain, part)
        cache = build_cell_cache(mesh, system, skel)
        for r in range(levels):
            measure(mesh, system, refine_edges(skel, r), skel.H / 2 ** r, cache)
            floor.append((skel.H / 2 ** r, system.dofmap.n_free) + fe)
    else:
        levels = 3 if levels is None else levels
        grade = 2 if grade is None else grade
        for k in range(1, levels + 1):
            n = 2 * k + 1
            part = CoarsePartition(domain.outer, n, n)
            mesh = generate_structured(domain, part, 2.0 / (n * divisions))
            if grade:
                mesh = refine_toward(mesh, corner, grade)
            system = assemble(mesh, g=g)
            skel = build_skeleton(domain, part)
            measure(mesh, system, skel, skel.H)
            floor.append((skel.H, system.dofmap.n_free)
                         + error_norms(mesh, solve_fine(system), exact_lshape))

    floor_rows = _convergence_rows(floor)
    studies = {q: (_convergence_rows(steps[q]), floor_rows) for q in degrees}
    if outdir is not None:
        for q, (rows, _) in studies.items():
            stem = os.path.join(outdir, "lshape_%s_p%d" % (strategy, q))
            write_csv(stem + ".csv", CONVERGENCE_COLUMNS, rows)
            write_csv(stem + "_floor.csv", CONVERGENCE_COLUMNS, floor_rows)
    return studies if isinstance(p, tuple) else studies[p]


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
    cells = round(extent / pitch)
    if abs(cells * pitch - extent) > 1e-9 * pitch:
        raise ValueError("extent must be a whole number of pitches")
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


def _reference_solution(mesh, system, f, levels):
    """Nested reference solution for full-error tracking (red refinement)."""
    ref_mesh, P = red_refine(mesh, levels)
    ref_system = assemble(ref_mesh, f=f)
    return ref_mesh, solve_fine(ref_system), P


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


def _study_setup(config):
    """Mesh, system, skeleton and error monitor for a solver study."""
    if config.geometry == "lshape":
        domain = lshape_domain()
        part = CoarsePartition(domain.outer, config.nx or 5, config.ny or 5)
        mesh = generate_structured(domain, part, config.pitch)
        system = assemble(mesh, g=lambda pts: exact_lshape(pts)[0])
        exact = exact_lshape
    else:
        if config.geometry == "urban":
            domain = generate_urban_synthetic(config.seed, config.extent,
                                              config.pitch, config.n_buildings,
                                              config.n_walls)
            part = CoarsePartition(domain.outer, config.nx or 5, config.ny or 5)
        else:                                # a saved geometry JSON file
            domain, part = load_geometry(config.geometry)
            if config.nx and config.ny:
                part = CoarsePartition(domain.outer, config.nx, config.ny)
        mesh = generate_structured(domain, part, config.pitch)
        f = lambda pts: np.ones(len(pts))
        system = assemble(mesh, f=f)
        exact = (_reference_solution(mesh, system, f, config.reference_levels)
                 if config.reference_levels else None)
    skel = build_skeleton(domain, part)
    return domain, part, mesh, system, skel, ErrorMonitor(mesh, system, exact)


def _run_method(method, ctx, monitor, tol, max_iters):
    """One guarded solve to the algebraic L2 error tol: (report, error note).

    A diverged fixed point keeps its partial report with the note
    "diverged"; any other numerical failure gives no report and its message.
    """
    try:
        if method == "hybrid":
            _, report = hybrid_iterate(ctx, monitor, tol=tol, max_iters=max_iters)
        else:
            _, report = solve_pgmres(ctx, monitor, error_tol=tol,
                                     max_iters=max_iters)
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
    domain, part, mesh, system, skel, monitor = _study_setup(config)
    cache = build_cell_cache(mesh, system, skel)
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
                ctx = replace(local, coarse=space)
                for method in config.method:
                    report, err = _run_method(method, ctx, monitor, config.tol,
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
    if config.outdir is not None:
        write_csv(os.path.join(config.outdir, "study_summary.csv"),
                  STUDY_COLUMNS, summary)
    return reports


def run_scalability(seed=1, outdir=None, n_values=(4, 16, 64, 256),
                    extent=640.0, pitch=2.5, n_buildings=24, n_walls=12,
                    tol=1e-8, max_iters=400):
    """Iteration counts vs subdomain count for both coarse spaces.

    For geometries with and without walls, N in n_values subdomains, both
    overlap rules and both coarse spaces, runs preconditioned GMRES until
    the algebraic L2 error against the fine solution drops below tol, and
    tabulates iterations, coarse dimension, and dimension relative to the
    coarse-node (or subdomain) count.
    """
    if any(N < 1 or math.isqrt(N) ** 2 != N for N in n_values):
        raise ValueError("n_values entries must be positive perfect squares")
    rows = []
    for walls in (True, False):
        for N in n_values:
            n = math.isqrt(N)
            _, part, mesh, system, skel, monitor = _study_setup(ExperimentConfig(
                geometry="urban", seed=seed, nx=n, ny=n, pitch=pitch,
                extent=extent, n_buildings=n_buildings,
                n_walls=n_walls if walls else 0, reference_levels=0))
            cache = build_cell_cache(mesh, system, skel)
            trefftz = build_trefftz(mesh, system, skel, 1, cache)
            for rule in ("min", "h20"):
                ov = build_overlap(mesh, system.dofmap,
                                   overlap_layers(part, pitch, rule),
                                   n_cells=N)
                local = build_schwarz(system, ov)
                for space in (trefftz, build_nicolaides(mesh, system, ov)):
                    ctx = replace(local, coarse=space)
                    report, err = _run_method("gmres", ctx, monitor, tol,
                                              max_iters)
                    rows.append((walls, N, rule, space.kind,
                                 report.iterations if report else -1,
                                 report.converged if report else False,
                                 space.dim, relative_dim(space, part), err))
    if outdir is not None:
        write_csv(os.path.join(outdir, "scalability.csv"),
                  SCALABILITY_COLUMNS, rows)
    return rows
