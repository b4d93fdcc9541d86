"""Trefftz coarse spaces and two-level RAS solvers for perforated Poisson problems."""

from trefftz_dd.geometry import (
    CoarsePartition,
    PerforatedDomain,
    Rect,
    build_skeleton,
    load_geometry,
    refine_edges,
    save_geometry,
)
from trefftz_dd.mesh import build_overlap, generate_structured, red_refine, refine_toward
from trefftz_dd.fem import assemble, error_norms, exact_lshape, mass_matrix, solve_fine
from trefftz_dd.coarse import (
    build_cell_cache,
    build_nicolaides,
    build_trefftz,
    coarse_approximation,
    schur_split,
)
from trefftz_dd.schwarz import (
    ErrorMonitor,
    apply_ras,
    apply_two_level,
    build_schwarz,
    hybrid_iterate,
    solve_pgmres,
)
from trefftz_dd.experiments import (
    ExperimentConfig,
    generate_urban_synthetic,
    lshape_domain,
    overlap_layers,
    run_lshape_convergence,
    run_scalability,
    run_solver_study,
)

__version__ = "0.1.0"
