"""Schwarz solver tests.

Oracles: dense evaluations of the RAS / two-level operator formulas, the
exact fixed-point property at the fine solution, the closed form of one
hybrid iteration, and the partition-of-unity identity of the weights.
"""
import numpy as np
import pytest

from trefftz_dd import fem, schwarz
from trefftz_dd.coarse import build_trefftz, coarse_approximation
from trefftz_dd.errors import Divergence, MeshNotNested
from trefftz_dd.experiments import write_csv
from trefftz_dd.fem import assemble, exact_lshape, error_norms, solve_fine
from trefftz_dd.geometry import CoarsePartition, PerforatedDomain, Rect, build_skeleton
from trefftz_dd.mesh import build_overlap, generate_structured, red_refine
from trefftz_dd.schwarz import (
    REPORT_COLUMNS,
    ErrorMonitor,
    IterationReport,
    SchwarzContext,
    apply_ras,
    apply_two_level,
    build_schwarz,
    hybrid_iterate,
    solve_pgmres,
)


def perforated_square(nx=4, ny=4, pitch=1.0 / 16.0, f=None, g=None):
    outer = Rect(0.0, 0.0, 1.0, 1.0)
    domain = PerforatedDomain(outer, (Rect(0.3125, 0.3125, 0.4375, 0.5),
                                      Rect(0.625, 0.5625, 0.75, 0.6875)))
    part = CoarsePartition(outer, nx, ny)
    mesh = generate_structured(domain, part, pitch)
    system = assemble(mesh, f=f, g=g)
    skel = build_skeleton(domain, part)
    return domain, part, mesh, system, skel


def dense_ras(ctx):
    n = ctx.system.dofmap.n_free
    M = np.zeros((n, n))
    for idx, fact, w in zip(ctx.dof_sets, ctx.facts, ctx.weights):
        if fact is None:
            continue
        A_loc = ctx.system.A[idx][:, idx].toarray()
        M[np.ix_(idx, idx)] += w[:, None] * np.linalg.inv(A_loc)
    return M


def dense_coarse(space, A):
    R = space.R.toarray()
    return R.T @ np.linalg.solve(R @ A.toarray() @ R.T, R)


def test_weights_form_partition_of_unity():
    _, _, mesh, system, _ = perforated_square()
    for layers in (1, 2, [1, 2, 1, 3] * 4):
        ov = build_overlap(mesh, system.dofmap, layers, n_cells=16)
        ctx = build_schwarz(system, ov)
        acc = np.zeros(system.dofmap.n_free)
        for idx, w in zip(ctx.dof_sets, ctx.weights):
            acc[idx] += w
        assert np.abs(acc - 1.0).max() <= 1e-15  # every free dof covered, once


def test_apply_ras_matches_dense_oracle():
    rng = np.random.default_rng(17)
    _, _, mesh, system, _ = perforated_square()
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=16)
    ctx = build_schwarz(system, ov)
    M = dense_ras(ctx)
    for _ in range(3):
        r = rng.standard_normal(system.dofmap.n_free)
        z = apply_ras(ctx, r)
        assert np.linalg.norm(z - M @ r) <= 1e-12 * np.linalg.norm(M @ r)
    # linearity and zero
    r1 = rng.standard_normal(system.dofmap.n_free)
    r2 = rng.standard_normal(system.dofmap.n_free)
    lhs = apply_ras(ctx, 3.5 * r1 + r2)
    rhs = 3.5 * apply_ras(ctx, r1) + apply_ras(ctx, r2)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)
    assert np.array_equal(apply_ras(ctx, np.zeros_like(r1)), np.zeros_like(r1))


def test_single_full_subdomain_is_exact_solve():
    _, _, mesh, system, _ = perforated_square(nx=1, ny=1, pitch=1.0 / 16.0,
                                              f=lambda pts: np.ones(len(pts)))
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=1)
    assert len(ov.dof_sets) == 1 and len(ov.dof_sets[0]) == system.dofmap.n_free
    ctx = build_schwarz(system, ov)
    z = apply_ras(ctx, system.f)
    u = solve_fine(system)
    assert np.allclose(z, system.restrict(u), atol=1e-12)
    _, report = solve_pgmres(ctx, rel_tol=1e-10)
    assert report.converged and report.iterations <= 2


def test_two_level_matches_dense_oracle():
    rng = np.random.default_rng(5)
    _, _, mesh, system, skel = perforated_square(f=lambda pts: pts[:, 0])
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=16)
    space = build_trefftz(mesh, system, skel, 1)
    ctx = build_schwarz(system, ov, coarse=space)
    M = dense_ras(ctx) + dense_coarse(space, system.A)
    r = rng.standard_normal(system.dofmap.n_free)
    z = apply_two_level(ctx, r)
    assert np.linalg.norm(z - M @ r) <= 1e-12 * np.linalg.norm(M @ r)
    with pytest.raises(ValueError):
        apply_two_level(build_schwarz(system, ov), r)


def test_hybrid_fixed_point_at_fine_solution():
    _, _, mesh, system, skel = perforated_square(f=lambda pts: np.ones(len(pts)),
                                                 g=lambda pts: pts[:, 1])
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=16)
    space = build_trefftz(mesh, system, skel, 1)
    ctx = build_schwarz(system, ov, coarse=space)
    monitor = ErrorMonitor(mesh, system)
    u_h = solve_fine(system)
    u, report = hybrid_iterate(ctx, monitor, u0=u_h, tol=None, max_iters=6)
    assert np.abs(u - u_h).max() <= 1e-12 * np.abs(u_h).max()
    assert report.rows[0][2] <= 1e-13  # algebraic error starts at zero


def test_hybrid_one_iteration_closed_form():
    _, _, mesh, system, skel = perforated_square(
        f=lambda pts: np.sin(3 * pts[:, 0]) + pts[:, 1])
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=16)
    space = build_trefftz(mesh, system, skel, 1)
    ctx = build_schwarz(system, ov, coarse=space)
    monitor = ErrorMonitor(mesh, system)
    u1, report = hybrid_iterate(ctx, monitor, max_iters=1)
    assert report.iterations == 1 and not report.converged

    A = system.A.toarray()
    f = system.f
    M_ras = dense_ras(ctx)
    M_h = dense_coarse(space, system.A)
    u0 = M_h @ f  # the coarse approximation (homogeneous boundary data)
    u_half = u0 + M_ras @ (f - A @ u0)
    want = u_half + M_h @ (f - A @ u_half)
    got = system.restrict(u1)
    assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


def test_hybrid_error_a_orthogonal_to_coarse_space():
    _, _, mesh, system, skel = perforated_square(f=lambda pts: np.cos(pts[:, 0]))
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=16)
    space = build_trefftz(mesh, system, skel, 1)
    ctx = build_schwarz(system, ov, coarse=space)
    monitor = ErrorMonitor(mesh, system)
    u_h = system.restrict(solve_fine(system))
    for iters in (1, 3):
        u, _ = hybrid_iterate(ctx, monitor, max_iters=iters)
        e = system.restrict(u) - u_h
        proj = np.abs(space.R @ (system.A @ e)).max()
        assert proj <= 1e-9 * abs(system.A).max() * np.abs(e).max()


def test_hybrid_converges_and_plateau_stops():
    _, _, mesh, system, skel = perforated_square(
        pitch=1.0 / 32.0, f=lambda pts: np.ones(len(pts)),
        g=lambda pts: pts[:, 0] * pts[:, 1])
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=16)
    space = build_trefftz(mesh, system, skel, 1)
    ctx = build_schwarz(system, ov, coarse=space)
    monitor = ErrorMonitor(mesh, system)
    u, report = hybrid_iterate(ctx, monitor, tol=1e-10, max_iters=200)
    assert report.converged
    assert report.rows[-1][2] <= 1e-10
    assert report.iterations <= 200

    # default stopping: plateau once the error stops improving
    _, rep2 = hybrid_iterate(ctx, monitor, tol=None, max_iters=200)
    assert rep2.converged and rep2.iterations < 200
    assert rep2.rows[-1][2] <= 1e-8  # stalls only at the round-off floor


def test_hybrid_divergence_guard():
    _, _, mesh, system, skel = perforated_square(f=lambda pts: np.ones(len(pts)))
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=16)
    space = build_trefftz(mesh, system, skel, 1)
    good = build_schwarz(system, ov, coarse=space)
    # flipped weights turn the RAS sweep into an error amplifier
    bad = SchwarzContext(system, good.dof_sets, good.facts,
                         [-w for w in good.weights], coarse=space)
    monitor = ErrorMonitor(mesh, system)
    with pytest.raises(Divergence) as err:
        hybrid_iterate(bad, monitor, tol=1e-10, max_iters=100)
    assert err.value.report.rows  # history travels with the error


def test_two_level_beats_one_level():
    _, _, mesh, system, skel = perforated_square(pitch=1.0 / 32.0,
                                                 f=lambda pts: np.ones(len(pts)))
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=16)
    space = build_trefftz(mesh, system, skel, 1)
    one = build_schwarz(system, ov)
    two = build_schwarz(system, ov, coarse=space)
    u1, rep1 = solve_pgmres(one, rel_tol=1e-8)
    u2, rep2 = solve_pgmres(two, rel_tol=1e-8)
    assert rep1.converged and rep2.converged
    assert rep2.iterations <= rep1.iterations
    u_h = solve_fine(system)
    for u in (u1, u2):
        assert np.abs(u - u_h).max() <= 1e-6 * np.abs(u_h).max()


def test_pgmres_error_tol_stop():
    _, _, mesh, system, skel = perforated_square(pitch=1.0 / 32.0,
                                                 f=lambda pts: np.ones(len(pts)))
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=16)
    space = build_trefftz(mesh, system, skel, 1)
    ctx = build_schwarz(system, ov, coarse=space)
    monitor = ErrorMonitor(mesh, system)
    u, report = solve_pgmres(ctx, monitor, error_tol=1e-6)
    assert report.converged
    assert report.rows[-1][2] <= 1e-6
    with pytest.raises(ValueError):
        solve_pgmres(ctx, error_tol=1e-6)


def test_monitor_full_error_and_csv(tmp_path):
    outer = Rect(-1.0, -1.0, 1.0, 1.0)
    domain = PerforatedDomain(outer, (Rect(0.0, 0.0, 1.0, 1.0),))
    part = CoarsePartition(outer, 3, 3)
    mesh = generate_structured(domain, part, 1.0 / 12.0)
    system = assemble(mesh, g=lambda pts: exact_lshape(pts)[0])
    skel = build_skeleton(domain, part)
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=9)
    ctx = build_schwarz(system, ov, coarse=build_trefftz(mesh, system, skel, 1))
    monitor = ErrorMonitor(mesh, system, exact=exact_lshape)
    u, report = hybrid_iterate(ctx, monitor, tol=1e-9, max_iters=100)
    assert report.converged
    # the full error bottoms out at the finite element floor
    fe_l2, fe_h1 = error_norms(mesh, monitor.u_fine, exact_lshape)
    assert report.rows[-1][4] == pytest.approx(fe_l2, rel=1e-6)
    assert report.rows[-1][5] == pytest.approx(fe_h1, rel=1e-6)

    path = tmp_path / "history.csv"
    write_csv(path, REPORT_COLUMNS, report.rows)
    lines = path.read_text().splitlines()
    assert lines[0] == REPORT_COLUMNS
    back = np.genfromtxt(path, delimiter=",", names=True)
    assert back["iter"][-1] == report.iterations
    assert np.allclose(back["alg_err_L2"], report.column("alg_err_L2"))

    empty = IterationReport("gmres", [(0, 1.0, np.nan, np.nan, np.nan, np.nan)])
    write_csv(tmp_path / "nan.csv", REPORT_COLUMNS, empty.rows)
    text = (tmp_path / "nan.csv").read_text()
    assert "nan" in text.splitlines()[1]


def test_monitor_builds_nested_reference_once(monkeypatch):
    ones = lambda pts: np.ones(len(pts))
    _, _, mesh, system, _ = perforated_square(f=ones)
    ref, P = red_refine(mesh, 1)
    ref_field = solve_fine(assemble(ref, f=ones))
    built = []
    for name in ("mass_matrix", "stiffness_matrix"):
        def counted(m, orig=getattr(fem, name), name=name):
            built.append((name, m is ref))
            return orig(m)
        monkeypatch.setattr(fem, name, counted)
    monitor = ErrorMonitor(mesh, system, (ref, ref_field, P))
    rng = np.random.default_rng(5)
    fields = [monitor.u_fine, system.expand(np.zeros(system.dofmap.n_free)),
              monitor.u_fine + 1e-3 * rng.standard_normal(mesh.n_points)]
    recorded = [monitor.record(u)[2:] for u in fields]
    assert sorted(built) == [("mass_matrix", True), ("stiffness_matrix", True)]
    monkeypatch.undo()
    for u, full in zip(fields, recorded):
        assert full == error_norms(mesh, u, (ref, ref_field, P))   # bitwise


def test_monitor_rejects_unnested_reference_before_solving(monkeypatch):
    _, _, mesh, system, _ = perforated_square()
    ref, P = red_refine(perforated_square(pitch=1.0 / 32.0)[2], 1)

    def no_solve(system):
        raise AssertionError("solved before checking the reference")

    monkeypatch.setattr(schwarz, "solve_fine", no_solve)
    with pytest.raises(MeshNotNested):
        ErrorMonitor(mesh, system, (ref, np.zeros(ref.n_points), P))
