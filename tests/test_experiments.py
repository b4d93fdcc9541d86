"""Experiment driver tests on shrunk-down configurations."""
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from trefftz_dd import coarse, experiments, fem, numerics, schwarz
from trefftz_dd.coarse import build_cell_cache, build_trefftz, coarse_approximation
from trefftz_dd.errors import PlacementFailure
from trefftz_dd.experiments import (
    CONVERGENCE_COLUMNS,
    SCALABILITY_COLUMNS,
    STUDY_COLUMNS,
    ExperimentConfig,
    fitted_order,
    generate_urban_synthetic,
    lshape_domain,
    overlap_layers,
    run_lshape_convergence,
    run_scalability,
    run_solver_study,
    write_csv,
)
from trefftz_dd.fem import assemble, error_norms, exact_lshape, nested_reference, solve_fine
from trefftz_dd.geometry import CoarsePartition, Rect, build_skeleton, refine_edges
from trefftz_dd.mesh import generate_structured, refine_toward


def test_overlap_layers_rules():
    part = CoarsePartition(Rect(0.0, 0.0, 2.0, 1.0), 5, 2)  # cells 0.4 x 0.5
    assert overlap_layers(part, 1.0 / 80.0, 3) == 3
    assert overlap_layers(part, 1.0 / 80.0, "min") == 1
    assert overlap_layers(part, 1.0 / 80.0, "h20") == 2  # 0.5/(20/80) = 2.0
    assert overlap_layers(part, 1.0 / 10.0, "h20") == 1  # rounds up to >= 1
    with pytest.raises(ValueError):
        overlap_layers(part, 1.0 / 80.0, "huge")


def test_fitted_order_matches_log_fit():
    H = [1.0 / 2 ** i for i in range(4)]
    err = [3.0 * h ** 1.5 for h in H]
    assert fitted_order(H, err) == pytest.approx(1.5, abs=1e-12)
    # two-point oracle: consecutive EOC equals the fitted slope for a pure power
    two_point = np.log(err[0] / err[1]) / np.log(H[0] / H[1])
    assert fitted_order(H[:2], err[:2]) == pytest.approx(two_point, abs=1e-12)


def test_lshape_edge_study_small(tmp_path):
    rows, floor = run_lshape_convergence(strategy="edge", p=1, levels=3,
                                         pitch=1.0 / 24.0, grade=1,
                                         outdir=tmp_path)
    assert [r.H for r in rows] == pytest.approx([2 / 3, 1 / 3, 1 / 6])
    assert [r.dim for r in rows] == [5, 15, 35]
    assert rows[0].l2_rel > rows[1].l2_rel > rows[2].l2_rel
    assert rows[0].h1_rel > rows[1].h1_rel > rows[2].h1_rel
    assert np.isnan(rows[0].eoc_h1) and rows[1].eoc_h1 > 0.8
    # the fine-FE floor is below every coarse error, on the same mesh
    assert all(f.h1_rel < r.h1_rel for f, r in zip(floor, rows))
    assert all(f.dim == floor[0].dim for f in floor)

    text = (tmp_path / "lshape_edge_p1.csv").read_text()
    assert text.splitlines()[0] == CONVERGENCE_COLUMNS
    assert len(text.splitlines()) == 4
    assert (tmp_path / "lshape_edge_p1_floor.csv").exists()

    # byte-identical on rerun, also when p=1 shares its mesh with p=2
    rerun = tmp_path / "again"
    studies = run_lshape_convergence(strategy="edge", p=(1, 2), levels=3,
                                     pitch=1.0 / 24.0, grade=1, outdir=rerun)
    assert sorted(studies) == [1, 2]
    assert (rerun / "lshape_edge_p1.csv").read_text() == text
    for name in ("lshape_edge_p1_floor.csv", "lshape_edge_p2_floor.csv"):
        assert (rerun / name).read_bytes() == (tmp_path / "lshape_edge_p1_floor.csv").read_bytes()
    assert len((rerun / "lshape_edge_p2.csv").read_text().splitlines()) == 4


def test_lshape_edge_study_coarse_part_identity():
    # f = 0, Neumann walls: Galerkin orthogonality makes the error against
    # the exact solution sqrt(coarse part^2 + floor^2), where the coarse part
    # is the coarse error against the fine solution on the same mesh.  The
    # relative norms differ only in the |u| vs |u_h| normalisation.
    domain = lshape_domain()
    part = CoarsePartition(domain.outer, 3, 3)
    pitch = 1.0 / 24.0
    mesh = refine_toward(generate_structured(domain, part, pitch),
                         np.array([[0.0, 0.0]]), 1)
    system = assemble(mesh, g=lambda pts: exact_lshape(pts)[0])
    fine = nested_reference(mesh, mesh, solve_fine(system),
                            sp.identity(mesh.n_points, format="csr"))
    skel = build_skeleton(domain, part)
    cache = build_cell_cache(mesh, system, skel)
    for p in (1, 2):
        rows, floor = run_lshape_convergence(strategy="edge", p=p, levels=3,
                                             pitch=pitch, grade=1)
        for r, (row, fl) in enumerate(zip(rows, floor)):
            space = build_trefftz(mesh, system, refine_edges(skel, r), p, cache)
            assert (space.dim, fl.dim) == (row.dim, system.dofmap.n_free)
            _, direct = error_norms(mesh, coarse_approximation(system, space), fine)
            split = np.sqrt(row.h1_rel ** 2 - fl.h1_rel ** 2)
            assert split / direct == pytest.approx(1.0, abs=0.01)


def test_lshape_mesh_study_small():
    rows, floor = run_lshape_convergence(strategy="mesh", p=1, levels=2,
                                         grade=1, divisions=12)
    assert [r.H for r in rows] == pytest.approx([2 / 3, 2 / 5])
    assert rows[1].dim > rows[0].dim
    assert rows[1].h1_rel < rows[0].h1_rel
    assert 0.3 < rows[1].eoc_h1 < 1.2  # near the singular limit 2/3
    assert floor[1].h1_rel < rows[1].h1_rel


def _count_calls(monkeypatch, *targets):
    """Wrap each (module, name) in a call counter; returns {name: count}."""
    calls = {name: 0 for _, name in targets}
    for module, name in targets:
        def counted(*args, orig=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def _alive_at_calls(monkeypatch, built_in, name):
    """Track the BlockFactorizations that the modules `built_in` build, and
    wrap experiments.<name>.  Returns (weak references to the tracked
    factors, the number of them alive after a collection at each call)."""
    made, alive = [], []

    class Tracked(numerics.BlockFactorization):
        def __init__(self, A, block):
            super().__init__(A, block)
            made.append(weakref.ref(self))

    for module in built_in:
        monkeypatch.setattr(module, "BlockFactorization", Tracked)

    def counted(*args, orig=getattr(experiments, name), **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in made))
        return orig(*args, **kwargs)

    monkeypatch.setattr(experiments, name, counted)
    return made, alive


def test_lshape_mesh_study_frees_each_mesh(monkeypatch):
    # no cell cache of the first mesh is alive when the second's is built
    made, alive = _alive_at_calls(monkeypatch, (coarse,), "build_cell_cache")
    run_lshape_convergence(strategy="mesh", p=(1, 2), levels=2, grade=1,
                           divisions=12)
    assert len(made) == 2 and alive == [0, 0]


def test_lshape_mesh_study_one_cache_per_mesh(monkeypatch):
    kwargs = dict(strategy="mesh", levels=2, grade=1, divisions=12)
    single = {p: run_lshape_convergence(p=p, **kwargs) for p in (1, 2)}
    # build_trefftz builds its own cache when given none, so count both names
    calls = _count_calls(monkeypatch, (experiments, "build_cell_cache"),
                         (coarse, "build_cell_cache"))
    studies = run_lshape_convergence(p=(1, 2), **kwargs)
    assert sum(calls.values()) == 2
    for p in (1, 2):    # exact equality, with the nan first-row EOCs equal
        for got, want in zip(studies[p], single[p]):
            np.testing.assert_array_equal(np.array(got), np.array(want))


def test_urban_generator_deterministic_and_snapped():
    a = generate_urban_synthetic(7, extent=160.0, pitch=2.5, n_buildings=8,
                                 n_walls=4)
    b = generate_urban_synthetic(7, extent=160.0, pitch=2.5, n_buildings=8,
                                 n_walls=4)
    assert a.perforations == b.perforations
    assert len(a.perforations) == 12
    for rect in a.perforations:
        for v in (rect.x0, rect.y0, rect.x1, rect.y1):
            assert v / 2.5 == round(v / 2.5)       # grid-snapped
            assert 5.0 <= v <= 155.0               # two-pitch margin
    widths = [(r.width, r.height) for r in a.perforations]
    assert sum(1 for w, h in widths if min(w, h) == 2.5) == 4  # the walls

    empty = generate_urban_synthetic(3, extent=40.0, pitch=2.5,
                                     n_buildings=0, n_walls=0)
    assert empty.perforations == ()


def test_urban_generator_connectivity_audit():
    for seed in range(10):
        domain = generate_urban_synthetic(seed, extent=160.0, pitch=2.5,
                                          n_buildings=8, n_walls=4)
        part = CoarsePartition(domain.outer, 2, 2)
        generate_structured(domain, part, 2.5)  # raises if disconnected


def test_urban_generator_placement_failure():
    with pytest.raises(PlacementFailure) as err:
        generate_urban_synthetic(0, extent=40.0, pitch=2.5,
                                 n_buildings=50, n_walls=0)
    assert err.value.rejections == 100000
    assert err.value.placed_buildings < 50


def test_solver_study_small(tmp_path):
    config = ExperimentConfig(geometry="lshape", nx=3, ny=3, pitch=1.0 / 24.0,
                              p=(1,), edge_ref=(0, 1), overlap=("min",),
                              tol=1e-6, max_iters=100, outdir=str(tmp_path))
    reports = run_solver_study(config)
    assert set(reports) == {("hybrid", "min", 1, 0), ("gmres", "min", 1, 0),
                            ("hybrid", "min", 1, 1), ("gmres", "min", 1, 1)}
    for report in reports.values():
        assert report.converged
        assert report.rows[-1][2] <= 1e-6
    # edge refinement improves the initial coarse approximation
    assert (reports[("hybrid", "min", 1, 1)].rows[0][2]
            < reports[("hybrid", "min", 1, 0)].rows[0][2])
    # full error columns are populated for the L-shape (exact solution known)
    assert np.isfinite(reports[("hybrid", "min", 1, 0)].rows[-1][4])

    files = sorted(p.name for p in tmp_path.iterdir())
    assert "history_hybrid_N9_ovmin_p1_r0.csv" in files
    assert "history_gmres_N9_ovmin_p1_r1.csv" in files
    summary = (tmp_path / "study_summary.csv").read_text().splitlines()
    assert summary[0] == STUDY_COLUMNS
    assert len(summary) == 5


def test_nicolaides_study_builds_once_per_overlap(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, (experiments, "build_nicolaides"),
                         (experiments, "build_schwarz"))
    reports = run_solver_study(ExperimentConfig(
        geometry="lshape", nx=3, ny=3, pitch=1.0 / 24.0, p=(1, 2), edge_ref=(0, 1),
        overlap=("min", "h20"), method=("gmres",), space="nicolaides", tol=1e-6,
        outdir=str(tmp_path)))
    assert calls == {"build_nicolaides": 2, "build_schwarz": 2}
    assert len(reports) == 8
    assert len((tmp_path / "study_summary.csv").read_text().splitlines()) == 9


def test_solver_study_frees_each_overlap_factor(monkeypatch):
    # the min overlap's stacked factor is gone when the h20 one is built
    made, alive = _alive_at_calls(monkeypatch, (schwarz,), "build_schwarz")
    run_solver_study(ExperimentConfig(
        geometry="lshape", nx=3, ny=3, pitch=1.0 / 24.0, overlap=("min", "h20"),
        method=("gmres",), tol=1e-6, reference_levels=0))
    assert len(made) == 2 and alive == [0, 0]


def test_urban_study_assembles_the_reference_once(monkeypatch):
    # the monitor's nested reference reuses the reference system's A_full
    calls = _count_calls(monkeypatch, (fem, "stiffness_matrix"))
    reports = run_solver_study(ExperimentConfig(
        geometry="urban", seed=2, extent=80.0, pitch=2.5, n_buildings=4,
        n_walls=2, nx=2, ny=2, overlap=("min",), method=("gmres",), tol=1e-6,
        reference_levels=1))
    assert calls == {"stiffness_matrix": 2}      # fine mesh, reference mesh
    report = reports[("gmres", "min", 1, 0)]
    assert report.converged and np.isfinite(report.rows[-1][4:]).all()


def test_solver_study_rejects_unknown_space_and_method(tmp_path):
    base = dict(geometry="lshape", nx=3, ny=3, pitch=1.0 / 24.0,
                outdir=str(tmp_path))
    with pytest.raises(ValueError, match="coarse space"):
        run_solver_study(ExperimentConfig(space="trefft", **base))
    with pytest.raises(ValueError, match="method"):
        run_solver_study(ExperimentConfig(method=("gmres", "cg"), **base))
    assert not any(tmp_path.iterdir())


def test_write_csv_formats_by_type(tmp_path):
    path = tmp_path / "sub" / "row.csv"
    write_csv(path, "a,b,c,d,e,f,g,h",
              [(True, np.bool_(False), 3, np.int64(-1), 0.1,
                np.float64(1.0 / 3.0), float("nan"), "h20")])
    assert path.read_text() == (
        "a,b,c,d,e,f,g,h\n"
        "True,False,3,-1,0.10000000000000001,0.33333333333333331,nan,h20\n")


def test_scalability_tiny(tmp_path):
    rows = run_scalability(seed=2, outdir=tmp_path, n_values=(4, 16),
                           extent=80.0, pitch=2.5, n_buildings=4, n_walls=2,
                           tol=1e-6, max_iters=400)
    assert len(rows) == 16  # 2 geometries x 2 N x 2 overlaps x 2 spaces
    for walls, N, rule, space, iters, conv, dim, rel, err in rows:
        assert conv and err == ""
        assert iters > 0 and dim >= 1
        if space == "nicolaides":
            assert dim >= N       # at least one component per subdomain
    text = (tmp_path / "scalability.csv").read_text()
    assert text.splitlines()[0] == SCALABILITY_COLUMNS
    assert len(text.splitlines()) == 17

    rerun = tmp_path / "again"
    run_scalability(seed=2, outdir=rerun, n_values=(4, 16), extent=80.0,
                    pitch=2.5, n_buildings=4, n_walls=2, tol=1e-6,
                    max_iters=400)
    assert (rerun / "scalability.csv").read_text() == text


def test_scalability_builds_each_fine_problem_once(monkeypatch):
    calls = _count_calls(monkeypatch,
                         (experiments, "generate_urban_synthetic"),
                         (experiments, "assemble"), (schwarz, "solve_fine"),
                         (experiments, "build_cell_cache"),
                         (experiments, "build_schwarz"))
    rows = run_scalability(seed=2, n_values=(4, 16), extent=80.0, pitch=2.5,
                           n_buildings=4, n_walls=2, tol=1e-6)
    assert len(rows) == 16
    # at 80 m both overlap rules give one layer for N = 4 and 16, so each
    # (walls, N) builds one Schwarz context and writes its rows twice
    assert calls == {"generate_urban_synthetic": 2, "assemble": 2,
                     "solve_fine": 2, "build_cell_cache": 4, "build_schwarz": 4}
    for k in range(0, len(rows), 4):     # per (walls, N): min rows, h20 rows
        for m, h in zip(rows[k:k + 2], rows[k + 2:k + 4]):
            assert (m[2], h[2]) == ("min", "h20")
            assert m[:2] + m[3:] == h[:2] + h[3:]


def test_scalability_frees_each_partition(monkeypatch):
    # no N = 4 factor, cell cache or Schwarz, is alive when N = 16's cell
    # cache is built, nor any of the first geometry's in the second's sweep
    made, alive = _alive_at_calls(monkeypatch, (coarse, schwarz),
                                  "build_cell_cache")
    rows = run_scalability(seed=2, n_values=(4, 16), extent=80.0, pitch=2.5,
                           n_buildings=4, n_walls=2, tol=1e-6)
    assert len(rows) == 16
    assert len(made) == 8 and alive == [0, 0, 0, 0]


def test_scalability_frees_the_cell_cache_after_the_basis(monkeypatch):
    # the cell cache's last solve builds the Trefftz basis, so it is gone
    # before any Schwarz factor is built
    made, alive = _alive_at_calls(monkeypatch, (coarse,), "build_schwarz")
    run_scalability(seed=2, n_values=(4, 16), extent=80.0, pitch=2.5,
                    n_buildings=4, n_walls=2, tol=1e-6)
    assert len(made) == 4 and alive == [0, 0, 0, 0]


def test_scalability_rejects_partition_off_the_pitch_grid(monkeypatch):
    # 80 m is 32 pitches of 2.5 m, which 3 cells per side do not divide;
    # the sweep is rejected before any geometry is built
    calls = _count_calls(monkeypatch, (experiments, "generate_urban_synthetic"))
    with pytest.raises(ValueError, match="32 pitches"):
        run_scalability(seed=2, n_values=(4, 9), extent=80.0, pitch=2.5,
                        n_buildings=4, n_walls=2, tol=1e-6)
    assert calls == {"generate_urban_synthetic": 0}
