"""Schwarz solver tests.

Oracles: dense evaluations of the RAS / two-level operator formulas, built
from the overlap and the global matrix only, the exact fixed-point property
at the fine solution, the closed form of one hybrid iteration, and the
partition-of-unity identity of the weights.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from test_acceptance import _small_instance
from trefftz_dd import fem, schwarz
from trefftz_dd.coarse import build_cell_cache, build_trefftz, coarse_approximation
from trefftz_dd.errors import Divergence, MeshNotNested
from trefftz_dd.experiments import write_csv
from trefftz_dd.fem import assemble, exact_lshape, error_norms, solve_fine
from trefftz_dd.geometry import CoarsePartition, PerforatedDomain, Rect, build_skeleton
from trefftz_dd.mesh import build_overlap, generate_structured, red_refine
from trefftz_dd.schwarz import (
    REPORT_COLUMNS,
    ErrorMonitor,
    IterationReport,
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


def trefftz_p1(mesh, system, skel):
    """The p = 1 Trefftz space on its own cell cache."""
    return build_trefftz(mesh, system, skel, 1, build_cell_cache(mesh, system, skel))


def dense_ras(system, overlap):
    """sum_j R_j^T D_j (A_j')^{-1} R_j with D_j = 1/multiplicity, from the
    overlap's dof sets and the global matrix alone."""
    n = system.dofmap.n_free
    A = system.A.toarray()
    mult = np.zeros(n)
    for idx in overlap.dof_sets:
        mult[idx] += 1
    M = np.zeros((n, n))
    for idx in overlap.dof_sets:
        if len(idx):
            M[np.ix_(idx, idx)] += np.linalg.inv(A[np.ix_(idx, idx)]) / mult[idx, None]
    return M


def dense_coarse(space, A):
    R = space.R.toarray()
    return R.T @ np.linalg.solve(R @ A.toarray() @ R.T, R)


def test_weights_form_partition_of_unity():
    _, _, mesh, system, _ = perforated_square()
    for layers in (1, 2, [1, 2, 1, 3] * 4):
        ov = build_overlap(mesh, system.dofmap, layers, n_cells=16)
        ctx = build_schwarz(system, ov)
        acc = np.bincount(ctx.gather, ctx.weights, system.dofmap.n_free)
        assert np.abs(acc - 1.0).max() <= 1e-15  # every free dof covered, once


def test_apply_ras_matches_dense_oracle():
    rng = np.random.default_rng(17)
    _, _, mesh, system, _ = perforated_square()
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=16)
    ctx = build_schwarz(system, ov)
    M = dense_ras(system, ov)
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
    _, report = solve_pgmres(ctx, ErrorMonitor(mesh, system), error_tol=1e-10)
    assert report.converged and report.iterations <= 2


def test_two_level_matches_dense_oracle():
    rng = np.random.default_rng(5)
    _, _, mesh, system, skel = perforated_square(f=lambda pts: pts[:, 0])
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=16)
    space = trefftz_p1(mesh, system, skel)
    ctx = build_schwarz(system, ov, coarse=space)
    M = dense_ras(system, ov) + dense_coarse(space, system.A)
    r = rng.standard_normal(system.dofmap.n_free)
    z = apply_two_level(ctx, r)
    assert np.linalg.norm(z - M @ r) <= 1e-12 * np.linalg.norm(M @ r)
    with pytest.raises(ValueError):
        apply_two_level(build_schwarz(system, ov), r)


@given(seed=st.integers(0, 2 ** 16), nx=st.sampled_from((2, 4)),
       ny=st.sampled_from((2, 4)), data=st.data())
def test_stacked_apply_matches_dense_on_urban(seed, nx, ny, data):
    # 32 pitches do not divide into 3 cells, so grids are 2 or 4 per axis;
    # one extra cell without triangles gives an empty subdomain
    domain, part, mesh = _small_instance(seed, nx, ny)
    system = assemble(mesh)
    n_cells = part.n_cells + 1
    layers = data.draw(st.lists(st.integers(0, 3), min_size=n_cells, max_size=n_cells))
    ov = build_overlap(mesh, system.dofmap, layers, n_cells=n_cells)
    assert len(ov.dof_sets[-1]) == 0
    space = trefftz_p1(mesh, system, build_skeleton(domain, part))
    ctx = build_schwarz(system, ov, coarse=space)
    # with two or more nonempty subdomains the oracle also covers the cut
    if sum(len(d) > 0 for d in ov.dof_sets) >= 2:
        assert len(list(ctx.facts)) == 2
    n = system.dofmap.n_free
    assert np.abs(np.bincount(ctx.gather, ctx.weights, n) - 1.0).max() <= 1e-15
    M_ras = dense_ras(system, ov)
    M_two = M_ras + dense_coarse(space, system.A)
    r = np.random.default_rng(seed).standard_normal(n)
    for got, M in ((apply_ras(ctx, r), M_ras), (apply_two_level(ctx, r), M_two)):
        assert np.linalg.norm(got - M @ r) <= 1e-12 * np.linalg.norm(M @ r)


def test_hybrid_fixed_point_at_fine_solution():
    _, _, mesh, system, skel = perforated_square(f=lambda pts: np.ones(len(pts)),
                                                 g=lambda pts: pts[:, 1])
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=16)
    space = trefftz_p1(mesh, system, skel)
    ctx = build_schwarz(system, ov, coarse=space)
    monitor = ErrorMonitor(mesh, system)
    A, f = system.A, system.f
    u_h = system.restrict(solve_fine(system))
    # one sweep of hybrid_iterate, as the closed-form test below pins it
    u = u_h + apply_ras(ctx, f - A @ u_h)
    u += space.apply(f - A @ u)
    assert np.abs(u - u_h).max() <= 1e-12 * np.abs(u_h).max()
    assert monitor.record(system.expand(u))[0] <= 1e-13   # algebraic error stays at zero


def test_zero_solution_stops_at_row_0():
    # f = 0 and g = 0 make the fine solution 0; so are the coarse
    # approximation and the zero start, and row 0 already meets the rule
    outer = Rect(0.0, 0.0, 1.0, 1.0)
    domain = PerforatedDomain(outer, ())
    part = CoarsePartition(outer, 2, 2)
    mesh = generate_structured(domain, part, 1.0 / 8.0)
    system = assemble(mesh)
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=4)
    space = trefftz_p1(mesh, system, build_skeleton(domain, part))
    ctx = build_schwarz(system, ov, coarse=space)
    monitor = ErrorMonitor(mesh, system)
    for u, report in (hybrid_iterate(ctx, monitor, tol=1e-8, max_iters=10),
                      solve_pgmres(ctx, monitor, error_tol=1e-8, max_iters=10)):
        assert (report.stop, report.converged, report.iterations,
                len(report.rows)) == ("error_tol", True, 0, 1)
        assert report.rows[0][2] == 0.0 and not u.any()


def test_hybrid_one_iteration_closed_form():
    _, _, mesh, system, skel = perforated_square(
        f=lambda pts: np.sin(3 * pts[:, 0]) + pts[:, 1])
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=16)
    space = trefftz_p1(mesh, system, skel)
    ctx = build_schwarz(system, ov, coarse=space)
    monitor = ErrorMonitor(mesh, system)
    u1, report = hybrid_iterate(ctx, monitor, tol=0.0, max_iters=1)
    assert report.iterations == 1 and not report.converged
    assert report.stop == "max_iters"

    A = system.A.toarray()
    f = system.f
    M_ras = dense_ras(system, ov)
    M_h = dense_coarse(space, system.A)
    u0 = M_h @ f  # the coarse approximation (homogeneous boundary data)
    u_half = u0 + M_ras @ (f - A @ u0)
    want = u_half + M_h @ (f - A @ u_half)
    got = system.restrict(u1)
    assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


def test_hybrid_error_a_orthogonal_to_coarse_space():
    _, _, mesh, system, skel = perforated_square(f=lambda pts: np.cos(pts[:, 0]))
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=16)
    space = trefftz_p1(mesh, system, skel)
    ctx = build_schwarz(system, ov, coarse=space)
    monitor = ErrorMonitor(mesh, system)
    u_h = system.restrict(solve_fine(system))
    for iters in (1, 3):
        u, _ = hybrid_iterate(ctx, monitor, tol=0.0, max_iters=iters)
        e = system.restrict(u) - u_h
        proj = np.abs(space.R @ (system.A @ e)).max()
        assert proj <= 1e-9 * abs(system.A).max() * np.abs(e).max()


def test_hybrid_converges_to_error_tol():
    _, _, mesh, system, skel = perforated_square(
        pitch=1.0 / 32.0, f=lambda pts: np.ones(len(pts)),
        g=lambda pts: pts[:, 0] * pts[:, 1])
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=16)
    space = trefftz_p1(mesh, system, skel)
    ctx = build_schwarz(system, ov, coarse=space)
    monitor = ErrorMonitor(mesh, system)
    u, report = hybrid_iterate(ctx, monitor, tol=1e-10, max_iters=200)
    assert report.converged and report.stop == "error_tol"
    assert report.rows[-1][2] <= 1e-10
    assert report.iterations <= 200
    assert (report.column("alg_err_L2")[:-1] > 1e-10).all()   # the first such row


def test_hybrid_divergence_guard():
    _, _, mesh, system, skel = perforated_square(f=lambda pts: np.ones(len(pts)))
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=16)
    space = trefftz_p1(mesh, system, skel)
    good = build_schwarz(system, ov, coarse=space)
    # flipped weights turn the RAS sweep into an error amplifier
    bad = dataclasses.replace(good, weights=-good.weights)
    monitor = ErrorMonitor(mesh, system)
    with pytest.raises(Divergence) as err:
        hybrid_iterate(bad, monitor, tol=1e-10, max_iters=100)
    assert err.value.report.rows  # history travels with the error
    assert err.value.report.stop == "divergence"


def test_two_level_beats_one_level():
    _, _, mesh, system, skel = perforated_square(pitch=1.0 / 32.0,
                                                 f=lambda pts: np.ones(len(pts)))
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=16)
    space = trefftz_p1(mesh, system, skel)
    one = build_schwarz(system, ov)
    two = build_schwarz(system, ov, coarse=space)
    monitor = ErrorMonitor(mesh, system)
    u1, rep1 = solve_pgmres(one, monitor, error_tol=1e-8)
    u2, rep2 = solve_pgmres(two, monitor, error_tol=1e-8)
    assert rep1.converged and rep2.converged
    assert rep1.stop == rep2.stop == "error_tol"
    assert rep2.iterations <= rep1.iterations
    u_h = solve_fine(system)
    for u in (u1, u2):
        assert np.abs(u - u_h).max() <= 1e-6 * np.abs(u_h).max()


def test_pgmres_error_tol_stop():
    _, _, mesh, system, skel = perforated_square(pitch=1.0 / 32.0,
                                                 f=lambda pts: np.ones(len(pts)))
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=16)
    space = trefftz_p1(mesh, system, skel)
    ctx = build_schwarz(system, ov, coarse=space)
    monitor = ErrorMonitor(mesh, system)
    u, report = solve_pgmres(ctx, monitor, error_tol=1e-6)
    assert report.converged and report.stop == "error_tol"
    assert report.rows[-1][2] <= 1e-6
    _, capped = solve_pgmres(ctx, monitor, error_tol=1e-14, max_iters=2)
    assert not capped.converged and capped.stop == "max_iters"
    assert capped.iterations == 2 and len(capped.rows) == 3


def test_monitor_full_error_and_csv(tmp_path):
    outer = Rect(-1.0, -1.0, 1.0, 1.0)
    domain = PerforatedDomain(outer, (Rect(0.0, 0.0, 1.0, 1.0),))
    part = CoarsePartition(outer, 3, 3)
    mesh = generate_structured(domain, part, 1.0 / 12.0)
    system = assemble(mesh, g=lambda pts: exact_lshape(pts)[0])
    skel = build_skeleton(domain, part)
    ov = build_overlap(mesh, system.dofmap, 1, n_cells=9)
    ctx = build_schwarz(system, ov, coarse=trefftz_p1(mesh, system, skel))
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
    nested = fem.nested_reference(mesh, ref, ref_field, P)
    for u, full in zip(fields, recorded):
        assert full == error_norms(mesh, u, nested)   # bitwise


def test_monitor_rejects_unnested_reference_before_solving(monkeypatch):
    _, _, mesh, system, _ = perforated_square()
    ref, P = red_refine(perforated_square(pitch=1.0 / 32.0)[2], 1)

    def no_solve(system):
        raise AssertionError("solved before checking the reference")

    monkeypatch.setattr(schwarz, "solve_fine", no_solve)
    with pytest.raises(MeshNotNested):
        ErrorMonitor(mesh, system, (ref, np.zeros(ref.n_points), P))
