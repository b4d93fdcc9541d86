"""Finite element tests.

Oracles: factorial formula for monomial integrals over the reference
triangle, edge-midpoint quadrature and per-triangle gradient solves for the
bilinear forms, the plain COO sum for the stiffness matrix without its
exact zeros, dense solves for the fine system, finite differences for the
benchmark solution, and the patch test for exactness on linear fields.
The polar formula of the benchmark solution and the einsum quadrature loop
are kept as references for the one-angle `exact_lshape` and for
`error_norms`.
"""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import coo_matrix

from test_acceptance import _small_instance
from trefftz_dd import fem
from trefftz_dd.errors import DegenerateTriangle, MeshNotNested
from trefftz_dd.fem import (
    QUAD_POINTS,
    QUAD_WEIGHTS,
    _geometry,
    assemble,
    error_norms,
    exact_lshape,
    lumped_load,
    mass_matrix,
    nested_reference,
    solve_fine,
    stiffness_matrix,
)
from trefftz_dd.geometry import CoarsePartition, PerforatedDomain, Rect
from trefftz_dd.mesh import (DIRICHLET, Triangulation, build_dofmap, gathered_areas,
                             generate_structured, red_refine, refine_toward)
from trefftz_dd.numerics import Factorization
from trefftz_dd.schwarz import ErrorMonitor

EPS = np.finfo(float).eps


def unit_square_mesh(pitch, nx=1, ny=1):
    outer = Rect(0.0, 0.0, 1.0, 1.0)
    domain = PerforatedDomain(outer, ())
    return generate_structured(domain, CoarsePartition(outer, nx, ny), pitch)


def lshape_mesh(pitch, n=3):
    outer = Rect(-1.0, -1.0, 1.0, 1.0)
    domain = PerforatedDomain(outer, (Rect(0.0, 0.0, 1.0, 1.0),))
    return generate_structured(domain, CoarsePartition(outer, n, n), pitch)


def test_quadrature_monomial_oracle():
    # integral of x^a y^b over the reference triangle is a! b! / (a+b+2)!
    for a in range(8):
        for b in range(8 - a):
            want = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            got = float(QUAD_WEIGHTS @ (QUAD_POINTS[:, 0] ** a * QUAD_POINTS[:, 1] ** b))
            assert abs(got - want) <= 1e-15 * max(1.0, want), (a, b)


def test_bilinear_forms_match_handrolled_integrals():
    rng = np.random.default_rng(42)
    mesh = lshape_mesh(1.0 / 6.0)
    M = mass_matrix(mesh)
    A = stiffness_matrix(mesh)
    assert abs(M - M.T).max() < 1e-15
    assert abs(A - A.T).max() < 1e-12

    for _ in range(5):
        v = rng.standard_normal(mesh.n_points)
        w = rng.standard_normal(mesh.n_points)
        mass = stiff = 0.0
        for tri in mesh.triangles:
            p = mesh.points[tri]
            e1, e2 = p[1] - p[0], p[2] - p[0]
            area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
            # edge midpoint rule, exact for quadratics
            vm = (v[tri] + np.roll(v[tri], -1)) / 2.0
            wm = (w[tri] + np.roll(w[tri], -1)) / 2.0
            mass += area / 3.0 * float(vm @ wm)
            # nodal gradients from the plane through the three vertices
            Mat = np.column_stack([p, np.ones(3)])
            gv = np.linalg.solve(Mat, v[tri])[:2]
            gw = np.linalg.solve(Mat, w[tri])[:2]
            stiff += area * float(gv @ gw)
        assert abs(v @ (M @ w) - mass) <= 1e-12 * abs(mass)
        assert abs(v @ (A @ w) - stiff) <= 1e-10 * max(1.0, abs(stiff))


def _stiffness_coo_sum(mesh):
    """Reference: the element matrices summed by COO -> CSR, with every
    entry kept, the exact zeros of cancelling couplings included."""
    _, area, b, c = _geometry(mesh)
    K = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (4.0 * area)[:, None, None]
    i = np.repeat(mesh.triangles, 3, axis=1).ravel()
    j = np.tile(mesh.triangles, (1, 3)).ravel()
    return coo_matrix((K.ravel(), (i, j)), shape=(mesh.n_points, mesh.n_points)).tocsr()


#: one mesh of each kind the pipeline assembles on
MESH_KINDS = {
    "structured": lambda: lshape_mesh(1.0 / 6.0),
    "red_refined": lambda: red_refine(lshape_mesh(1.0 / 6.0), 1)[0],
    "graded": lambda: refine_toward(lshape_mesh(1.0 / 12.0), np.array([[0.0, 0.0]]), 3),
    "urban": lambda: _small_instance(7)[2],
}


@pytest.mark.parametrize("kind", sorted(MESH_KINDS))
def test_stiffness_matrix_stores_no_zeros(kind):
    mesh = MESH_KINDS[kind]()
    A = stiffness_matrix(mesh)
    want = _stiffness_coo_sum(mesh)
    assert (want.data == 0).sum() > 0     # right-triangle hypotenuse couplings
    assert (A.data == 0).sum() == 0
    assert A.nnz == (want.data != 0).sum()
    dense, want_dense = A.toarray(), want.toarray()
    assert dense.dtype == want_dense.dtype and dense.tobytes() == want_dense.tobytes()
    # so do the matrices of the assembled system
    system = assemble(mesh, f=1.0)
    assert (system.A.data == 0).sum() == 0 and (system.A_full.data == 0).sum() == 0


@pytest.mark.parametrize("kind", sorted(MESH_KINDS))
def test_geometry_areas_match_signed_areas(kind):
    mesh = MESH_KINDS[kind]()
    p, area, _, _ = _geometry(mesh)
    assert area.tobytes() == gathered_areas(mesh.points[mesh.triangles]).tobytes()
    assert p.tobytes() == mesh.points[mesh.triangles].tobytes()
    # the area-only forms: the mass matrix and the lumped load from the same areas
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    i = np.repeat(mesh.triangles, 3, axis=1).ravel()
    j = np.tile(mesh.triangles, (1, 3)).ravel()
    want = coo_matrix(((local[None] * area[:, None, None]).ravel(), (i, j)),
                      shape=(mesh.n_points, mesh.n_points)).tocsr()
    M = mass_matrix(mesh)
    assert M.toarray().tobytes() == want.toarray().tobytes()
    load = np.bincount(mesh.triangles.ravel(), np.repeat(area / 3.0, 3), mesh.n_points)
    assert lumped_load(mesh, 2.0).tobytes() == (2.0 * load).tobytes()


@given(seed=st.integers(0, 2 ** 16))
def test_solve_fine_matches_dense_solve_on_urban(seed):
    _, _, mesh = _small_instance(seed)
    system = assemble(mesh, f=1.0)
    u = system.restrict(solve_fine(system))
    want = np.linalg.solve(system.A.toarray(), system.f)
    assert np.linalg.norm(u - want) <= 1e-12 * np.linalg.norm(want)


def test_fine_solves_keep_no_factor(monkeypatch):
    made = []

    class Tracked(Factorization):
        def __init__(self, A):
            super().__init__(A)
            made.append(weakref.ref(self))

    monkeypatch.setattr(fem, "Factorization", Tracked)
    mesh = lshape_mesh(1.0 / 6.0)
    system = assemble(mesh, f=1.0, g=lambda pts: pts[:, 0])
    u = solve_fine(system)
    gc.collect()
    assert len(made) == 1 and made[0]() is None
    monitor = ErrorMonitor(mesh, system)    # the monitor's own fine solve
    gc.collect()
    assert len(made) == 2 and made[1]() is None
    assert monitor.u_fine.tobytes() == u.tobytes()


def test_patch_test_linear_exactness():
    # all-Dirichlet boundary: any harmonic linear field is reproduced exactly
    mesh = unit_square_mesh(1.0 / 8.0)

    def g(pts):
        return 0.75 * pts[:, 0] - 1.25 * pts[:, 1] + 0.5

    system = assemble(mesh, f=None, g=g)
    u = solve_fine(system)
    want = 0.75 * mesh.points[:, 0] - 1.25 * mesh.points[:, 1] + 0.5
    assert np.abs(u - want).max() < 1e-11

    def exact(pts):
        vals = 0.75 * pts[:, 0] - 1.25 * pts[:, 1] + 0.5
        grads = np.broadcast_to([0.75, -1.25], (len(pts), 2)).copy()
        return vals, grads

    l2, h1 = error_norms(mesh, u, exact)
    assert l2 < 1e-12 and h1 < 1e-11

    # with Neumann walls only constants satisfy all boundary conditions
    lmesh = lshape_mesh(1.0 / 6.0)
    lsys = assemble(lmesh, f=None, g=lambda pts: np.full(len(pts), 2.5))
    ul = solve_fine(lsys)
    assert np.abs(ul - 2.5).max() < 1e-11


def test_degenerate_triangle_rejected():
    # triangle 1 has three collinear vertices on y = 0
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
    tris = np.array([[0, 1, 2], [0, 1, 3]], dtype=np.int32)
    bedges = np.array([[0, 2], [0, 3], [1, 2], [1, 3]], dtype=np.int32)
    mesh = Triangulation(points, tris, np.zeros(2, dtype=np.int32), bedges,
                         np.full(4, DIRICHLET, dtype=np.int8), 2.0)
    with pytest.raises(DegenerateTriangle) as exc:
        assemble(mesh)
    assert exc.value.tri_index == 1


def test_manufactured_convergence_rates():
    def f(pts):
        return 2.0 * np.pi ** 2 * np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

    def exact(pts):
        sx, cx = np.sin(np.pi * pts[:, 0]), np.cos(np.pi * pts[:, 0])
        sy, cy = np.sin(np.pi * pts[:, 1]), np.cos(np.pi * pts[:, 1])
        return sx * sy, np.pi * np.column_stack([cx * sy, sx * cy])

    errs = []
    for pitch in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0):
        mesh = unit_square_mesh(pitch)
        u = solve_fine(assemble(mesh, f=f))
        errs.append(error_norms(mesh, u, exact))
    (l2a, h1a), (l2b, h1b), (l2c, h1c) = errs
    assert 1.9 < np.log2(l2a / l2b) < 2.1 and 1.9 < np.log2(l2b / l2c) < 2.1
    assert 0.9 < np.log2(h1a / h1b) < 1.1 and 0.9 < np.log2(h1b / h1c) < 1.1


def test_exact_lshape_is_harmonic_with_neumann_walls():
    rng = np.random.default_rng(7)
    # harmonicity by 5-point finite differences away from the corner
    pts = []
    while len(pts) < 40:
        x, y = rng.uniform(-1, 1, 2)
        if max(x, y) < -0.2 or (x < -0.2 or y < -0.2):
            if np.hypot(x, y) > 0.3:
                pts.append((x, y))
    h = 1e-5
    for x, y in pts:
        stencil = np.array([[x, y], [x + h, y], [x - h, y], [x, y + h], [x, y - h]])
        v, _ = exact_lshape(stencil)
        lap = (v[1] + v[2] + v[3] + v[4] - 4 * v[0]) / h ** 2
        assert abs(lap) < 1e-4

    # gradient vs central differences
    for x, y in pts[:15]:
        stencil = np.array([[x + h, y], [x - h, y], [x, y + h], [x, y - h], [x, y]])
        v, g = exact_lshape(stencil)
        assert abs((v[0] - v[1]) / (2 * h) - g[4, 0]) < 1e-6
        assert abs((v[2] - v[3]) / (2 * h) - g[4, 1]) < 1e-6

    # zero normal derivative on both walls of the re-entrant corner
    ys = np.linspace(0.05, 0.95, 9)
    _, g = exact_lshape(np.column_stack([np.zeros_like(ys), ys]))
    assert np.abs(g[:, 0]).max() < 1e-12
    _, g = exact_lshape(np.column_stack([ys, np.zeros_like(ys)]))
    assert np.abs(g[:, 1]).max() < 1e-12

    # corner sentinel
    v, g = exact_lshape(np.array([[0.0, 0.0]]))
    assert v[0] == 0.0 and np.isinf(g[0]).all()


def _exact_lshape_reference(points):
    """The polar formula: u = r^a cos(phi), phi = a (theta - pi/2), a = 2/3,
    and its radial and angular derivatives rotated by theta."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    r = np.hypot(x, y)
    theta = np.arctan2(y, x)
    theta = np.where(theta < np.pi / 2 - 1e-14, theta + 2.0 * np.pi, theta)
    a = 2.0 / 3.0
    phi = a * (theta - np.pi / 2)
    origin = r == 0.0
    rs = np.where(origin, 1.0, r)
    cos_phi, sin_phi, ra1 = np.cos(phi), np.sin(phi), rs ** (a - 1.0)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    vals = rs ** a * cos_phi
    dr = a * ra1 * cos_phi
    dt = -a * ra1 * sin_phi
    grads = np.column_stack([dr * cos_t - dt * sin_t, dr * sin_t + dt * cos_t])
    vals[origin] = 0.0
    grads[origin] = np.inf
    return vals, grads


def _assert_matches_reference(pts):
    """Values within 8 eps r^(2/3) and gradients within 8 eps r^(-1/3) of the
    polar formula, widened by that formula's own error: it raises r to
    fl(2/3) and fl(2/3) - 1, which miss 2/3 and -1/3 by eps/6, so its relative
    error grows as |ln r| eps/6 (38 eps at r = 1e-100)."""
    v, g = exact_lshape(pts)
    want_v, want_g = _exact_lshape_reference(pts)
    r = np.hypot(pts[:, 0], pts[:, 1])
    band = (8.0 + np.abs(np.log(r)) / 6.0) * EPS
    assert np.all(np.abs(v - want_v) <= band * r ** (2.0 / 3.0))
    assert np.all(np.abs(g - want_g).max(axis=1) <= band * r ** (-1.0 / 3.0))


def test_exact_lshape_matches_polar_formula():
    rng = np.random.default_rng(11)
    # the L-shape around its corner: theta from pi/2 through 2 pi
    r = 10.0 ** rng.uniform(-100.0, 1.0, 200_000)
    theta = rng.uniform(np.pi / 2, 2.0 * np.pi, len(r))
    _assert_matches_reference(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))

    # both Neumann walls, x = 0 above the corner and y = 0 (of either sign) right of it
    s = 10.0 ** np.linspace(-100.0, 1.0, 203)
    zero = np.zeros_like(s)
    for wall in (np.column_stack([zero, s]), np.column_stack([s, zero]),
                 np.column_stack([s, -zero])):
        _assert_matches_reference(wall)

    # either side of the branch test theta < pi/2 - 1e-14, within 1e-14 of it
    theta = np.pi / 2 - 1e-14 + np.linspace(-1e-14, 1e-14, 41)
    pts = np.concatenate([np.column_stack([r * np.cos(theta), r * np.sin(theta)])
                          for r in (1e-8, 0.3, 1.0, 7.0)])
    branch = np.arctan2(pts[:, 1], pts[:, 0]) < np.pi / 2 - 1e-14
    assert branch.any() and not branch.all()
    _assert_matches_reference(pts)

    # the corner sentinel
    for f in (exact_lshape, _exact_lshape_reference):
        v, g = f(np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert v[0] == 0.0 and not np.signbit(v[0]) and np.isposinf(g[0]).all()
        assert np.isfinite(g[1]).all()


def test_exact_lshape_against_high_precision():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    r = 10.0 ** rng.uniform(-100.0, 1.0, 300)
    theta = rng.uniform(np.pi / 2, 2.0 * np.pi, len(r))
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    v, g = exact_lshape(pts)
    with mpmath.workdps(40):
        third = mpmath.mpf(1) / 3
        for (x, y), vi, gi in zip(pts, v, g):
            x, y = mpmath.mpf(x), mpmath.mpf(y)
            rr, t = mpmath.sqrt(x * x + y * y), mpmath.atan2(y, x)
            if t < mpmath.pi / 2:
                t += 2 * mpmath.pi
            psi = t / 3 + mpmath.pi / 3
            scale = 2 * third * rr ** -third
            value = rr ** (2 * third) * mpmath.cos(2 * third * (t - mpmath.pi / 2))
            assert abs(vi - value) <= 8 * EPS * rr ** (2 * third)
            assert abs(gi[0] - scale * mpmath.cos(psi)) <= 8 * EPS * rr ** -third
            assert abs(gi[1] - scale * mpmath.sin(psi)) <= 8 * EPS * rr ** -third


def _error_norms_reference(mesh, u_full, exact):
    """The quadrature loop with the points formed by einsum."""
    p, area, b, c = _geometry(mesh)
    vals = u_full[mesh.triangles]
    gx = (vals * b).sum(axis=1) / (2.0 * area)
    gy = (vals * c).sum(axis=1) / (2.0 * area)

    err_l2 = err_h1 = ex_l2 = ex_h1 = 0.0
    for q, w in zip(QUAD_POINTS, QUAD_WEIGHTS):
        lam = np.array([1.0 - q[0] - q[1], q[0], q[1]])
        pts = np.einsum("k,mkd->md", lam, p)
        uh = vals @ lam
        u, gu = exact(pts)
        err_l2 += 2.0 * w * float(area @ (uh - u) ** 2)
        ex_l2 += 2.0 * w * float(area @ u ** 2)
        err_h1 += 2.0 * w * float(area @ ((gx - gu[:, 0]) ** 2 + (gy - gu[:, 1]) ** 2))
        ex_h1 += 2.0 * w * float(area @ (gu[:, 0] ** 2 + gu[:, 1] ** 2))
    return float(np.sqrt(err_l2 / ex_l2)), float(np.sqrt(err_h1 / ex_h1))


def test_error_norms_match_einsum_loop_on_graded_lshape():
    mesh = refine_toward(lshape_mesh(1.0 / 24.0), np.array([[0.0, 0.0]]), 2)
    system = assemble(mesh, f=None, g=lambda pts: _exact_lshape_reference(pts)[0])
    rng = np.random.default_rng(4)
    for u in (rng.standard_normal(mesh.n_points), solve_fine(system)):
        want = _error_norms_reference(mesh, u, _exact_lshape_reference)
        # the points are formed exactly as before: bitwise equal errors
        assert error_norms(mesh, u, _exact_lshape_reference) == want
        got = error_norms(mesh, u, exact_lshape)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_lshape_solve_singular_rates():
    errs = []
    for pitch in (1.0 / 12.0, 1.0 / 24.0):
        mesh = lshape_mesh(pitch)
        system = assemble(mesh, f=None, g=lambda pts: exact_lshape(pts)[0])
        u = solve_fine(system)
        errs.append(error_norms(mesh, u, exact_lshape))
    (l2a, h1a), (l2b, h1b) = errs
    assert 0.55 < np.log2(h1a / h1b) < 0.8   # corner limits the rate to 2/3
    assert 1.1 < np.log2(l2a / l2b) < 1.5    # and L2 to 4/3


def test_nested_error_norms():
    mesh = lshape_mesh(1.0 / 6.0)
    ref, P = red_refine(mesh, 1)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(mesh.n_points)
    bump = rng.standard_normal(ref.n_points) * 1e-3
    ref_field = P @ u + bump
    nested = nested_reference(mesh, ref, ref_field, P)
    l2, h1 = error_norms(mesh, u, nested)
    M, A = mass_matrix(ref), stiffness_matrix(ref)
    assert l2 == pytest.approx(np.sqrt(bump @ (M @ bump) / (ref_field @ (M @ ref_field))), rel=1e-12)
    assert h1 == pytest.approx(np.sqrt(bump @ (A @ bump) / (ref_field @ (A @ ref_field))), rel=1e-12)
    with pytest.raises(MeshNotNested):
        nested_reference(ref, mesh, u, P)
    with pytest.raises(MeshNotNested):   # nesting is checked on every call
        error_norms(ref, ref_field, nested)


def test_dirichlet_elimination_and_expand():
    mesh = lshape_mesh(1.0 / 6.0)
    system = assemble(mesh, f=1.0, g=lambda pts: pts[:, 0])
    assert abs(system.A - system.A.T).max() < 1e-12
    u = solve_fine(system)
    dofmap = system.dofmap
    assert np.allclose(u[dofmap.dirichlet_nodes], mesh.points[dofmap.dirichlet_nodes, 0])
    # residual of the full system on free rows vanishes
    res = system.load_full - system.A_full @ u
    assert np.abs(res[dofmap.free_nodes]).max() < 1e-10
    assert np.array_equal(system.restrict(u), u[dofmap.free_nodes])
