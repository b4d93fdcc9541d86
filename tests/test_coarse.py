"""Coarse space tests.

The load-bearing oracles: dimension formulas counted by hand, dense
A-orthogonal projection for the coarse Galerkin solve and dense solves of
the cell interiors (also on random urban draws), exact reproduction
of constants (and of linears on unperforated domains), discrete harmonicity
of every basis function, the row-by-row gluing of the Trefftz basis, and the
per-subdomain component labelling of the Nicolaides space.
"""
import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import coo_matrix, csc_matrix, csr_matrix, vstack
from scipy.sparse.linalg import splu

from test_acceptance import _small_instance
from test_experiments import _count_calls
from test_mesh import connected_components
from trefftz_dd.errors import (GluingMismatch, NodeOffSkeleton, RankDeficient,
                               SingularLocalSystem)
from trefftz_dd.experiments import generate_urban_synthetic, overlap_layers
from trefftz_dd.fem import assemble, exact_lshape, solve_fine
from trefftz_dd.geometry import (
    CoarsePartition,
    PerforatedDomain,
    Rect,
    Skeleton,
    build_skeleton,
    refine_edges,
    snap,
)
from trefftz_dd import coarse
from trefftz_dd.coarse import (
    _axis_sort,
    _edge_nodes,
    _extend_rows,
    build_cell_cache,
    build_nicolaides,
    build_trace_basis,
    build_trefftz,
    coarse_approximation,
    relative_dim,
    schur_split,
)
from trefftz_dd.mesh import build_dofmap, build_overlap, generate_structured, refine_toward
from trefftz_dd.numerics import PIECES, SUPERLU


def lshape_setup(pitch=1.0 / 12.0, n=3, f=None, g=None):
    outer = Rect(-1.0, -1.0, 1.0, 1.0)
    domain = PerforatedDomain(outer, (Rect(0.0, 0.0, 1.0, 1.0),))
    part = CoarsePartition(outer, n, n)
    mesh = generate_structured(domain, part, pitch)
    system = assemble(mesh, f=f, g=g)
    skel = build_skeleton(domain, part)
    return domain, part, mesh, system, skel


def square_setup(pitch=1.0 / 8.0, n=2, f=None, g=None):
    outer = Rect(0.0, 0.0, 1.0, 1.0)
    domain = PerforatedDomain(outer, ())
    part = CoarsePartition(outer, n, n)
    mesh = generate_structured(domain, part, pitch)
    system = assemble(mesh, f=f, g=g)
    skel = build_skeleton(domain, part)
    return domain, part, mesh, system, skel


def test_dimension_formulas():
    _, part, mesh, system, skel = lshape_setup()
    cache = build_cell_cache(mesh, system, skel)
    assert build_trace_basis(mesh, skel, 1, cache).dim == 5
    assert build_trace_basis(mesh, skel, 2, cache).dim == 15
    space = build_trefftz(mesh, system, skel, 2, cache)
    assert (space.kind, space.p, space.r, space.dim) == ("trefftz", 2, 0, 15)
    assert relative_dim(space, part) == 15 / 16
    for r in (1, 2):
        ref = refine_edges(skel, r)
        assert build_trace_basis(mesh, ref, 1, cache).dim == 5 + 10 * (2 ** r - 1)

    _, _, mesh2, system2, skel2 = square_setup()
    cache2 = build_cell_cache(mesh2, system2, skel2)
    assert build_trace_basis(mesh2, skel2, 1, cache2).dim == 1
    assert build_trace_basis(mesh2, skel2, 2, cache2).dim == 5


def test_trace_values():
    _, _, mesh, system, skel = square_setup()
    cache = build_cell_cache(mesh, system, skel)
    basis = build_trace_basis(mesh, skel, 2, cache)
    pos = {tuple(np.round(mesh.points[n], 9)): k
           for k, n in enumerate(cache.skeleton_fine)}
    hat = basis.T[0].toarray().ravel()
    assert hat[pos[(0.5, 0.5)]] == 1.0
    assert hat[pos[(0.5, 0.25)]] == pytest.approx(0.5)  # halfway down an edge
    assert hat[pos[(0.5, 0.0)]] == 0.0
    assert hat[pos[(0.0, 0.0)]] == 0.0
    for row in range(1, 5):  # bubbles: 1 at midpoint, 0 at ends
        bub = basis.T[row].toarray().ravel()
        assert set(np.round(bub[bub != 0], 12)) <= {0.75, 1.0}
        assert bub.max() == pytest.approx(1.0)


def test_cell_traces_cover_the_skeleton():
    for setup in (lshape_setup, square_setup):
        _, _, mesh, system, skel = setup()
        cache = build_cell_cache(mesh, system, skel)
        # every mesh node is on the skeleton or interior to exactly one cell
        nodes = np.concatenate([cache.skeleton_fine, cache.interior])
        assert np.array_equal(np.sort(nodes), np.unique(mesh.triangles))


def test_basis_functions_discrete_harmonic():
    _, _, mesh, system, skel = lshape_setup()
    cache = build_cell_cache(mesh, system, skel)
    A_max = abs(system.A_full).max()
    interior = cache.interior
    for p in (1, 2):
        for r in (0, 1):
            space = build_trefftz(mesh, system, refine_edges(skel, r), p, cache)
            for s in range(space.dim):
                phi = np.zeros(mesh.n_points)
                phi[system.dofmap.free_nodes] = space.R[s].toarray().ravel()
                res = (system.A_full @ phi)[interior]
                bound = 1e-9 * A_max * np.abs(phi).max()
                assert np.abs(res).max() <= bound, (p, r, s)


def test_coarse_solution_is_a_projection():
    rng = np.random.default_rng(2024)
    outer = Rect(0.0, 0.0, 2.0, 1.0)
    domain = PerforatedDomain(outer, (Rect(0.25, 0.25, 0.75, 0.5),
                                      Rect(1.25, 0.5, 1.5, 0.75)))
    part = CoarsePartition(outer, 4, 2)
    mesh = generate_structured(domain, part, 1.0 / 16.0)
    skel = build_skeleton(domain, part)
    for trial in range(3):
        f_vals = rng.standard_normal(mesh.n_points)
        system = assemble(mesh, f=lambda pts: f_vals[:len(pts)])
        cache = build_cell_cache(mesh, system, skel)
        u_h = solve_fine(system)
        for p in (1, 2):
            space = build_trefftz(mesh, system, skel, p, cache)
            u_c = coarse_approximation(system, space)
            # dense oracle: A-orthogonal projection of u_h onto span(R')
            A = system.A.toarray()
            Rd = space.R.toarray()
            c = np.linalg.solve(Rd @ A @ Rd.T, Rd @ A @ u_h[system.dofmap.free_nodes])
            want = Rd.T @ c
            err = want - u_c[system.dofmap.free_nodes]
            a_norm = np.sqrt(want @ A @ want)
            assert np.sqrt(err @ A @ err) <= 1e-9 * a_norm


def test_constant_reproduced_exactly():
    for p in (1, 2):
        _, _, mesh, system, skel = lshape_setup(g=lambda pts: np.full(len(pts), 3.0))
        space = build_trefftz(mesh, system, skel, p, build_cell_cache(mesh, system, skel))
        u = coarse_approximation(system, space)
        assert np.abs(u - 3.0).max() < 1e-11


def test_linear_reproduced_on_unperforated_domain():
    for p in (1, 2):
        _, _, mesh, system, skel = square_setup(n=3, pitch=1.0 / 9.0,
                                                g=lambda pts: pts[:, 0] - 2 * pts[:, 1])
        space = build_trefftz(mesh, system, skel, p, build_cell_cache(mesh, system, skel))
        u = coarse_approximation(system, space)
        want = mesh.points[:, 0] - 2 * mesh.points[:, 1]
        assert np.abs(u - want).max() < 1e-11


def test_coarse_approximation_beats_lift_alone():
    _, _, mesh, system, skel = lshape_setup(
        pitch=1.0 / 24.0, g=lambda pts: np.cos(np.pi * pts[:, 0]) * pts[:, 1])
    space = build_trefftz(mesh, system, skel, 1, build_cell_cache(mesh, system, skel))
    u_h = solve_fine(system)
    u_c = coarse_approximation(system, space)
    A = system.A_full
    e_c = u_h - u_c
    e_l = u_h - space.lift_full
    assert e_c @ (A @ e_c) < e_l @ (A @ e_l)
    # boundary values of the coarse solution are the coarse interpolant
    dn = system.dofmap.dirichlet_nodes
    assert np.array_equal(u_c[dn], space.lift_full[dn])


def test_schur_split_orthogonality():
    rng = np.random.default_rng(99)
    for trial in range(5):
        f_scale = float(rng.uniform(0.5, 2.0))
        _, _, mesh, system, skel = lshape_setup(
            pitch=1.0 / 12.0,
            f=lambda pts: np.sin(f_scale * pts[:, 0] * 3) + pts[:, 1],
            g=lambda pts: pts[:, 0] * rng.uniform(0.5, 1.5))
        cache = build_cell_cache(mesh, system, skel)
        u = solve_fine(system)
        split = schur_split(mesh, system, cache, u)
        assert np.allclose(split.bubble + split.harmonic, u)
        A = system.A_full
        cross = split.bubble @ (A @ split.harmonic)
        nb = np.sqrt(split.bubble @ (A @ split.bubble))
        nh = np.sqrt(split.harmonic @ (A @ split.harmonic))
        assert abs(cross) <= 1e-10 * nb * nh
        total = u @ (A @ u)
        assert abs(total - nb ** 2 - nh ** 2) <= 1e-8 * total
        # the harmonic part is discrete-harmonic cell by cell
        scale = abs(A).max() * np.abs(u).max()
        res = (A @ split.harmonic)[cache.interior]
        assert np.abs(res).max() <= 1e-9 * scale


def test_harmonic_extension_minimizes_energy():
    _, _, mesh, system, skel = square_setup()
    cache = build_cell_cache(mesh, system, skel)
    rng = np.random.default_rng(8)
    g = rng.standard_normal(len(cache.skeleton_fine))
    ext = np.empty(mesh.n_points)
    ext[cache.skeleton_fine] = g
    ext[cache.interior] = cache.fact.solve(-(cache.A_it @ g))
    # any perturbation of the interior values of cell 0 increases the energy
    inner = cache.interior[cache.interior_cell == 0]
    A = system.A_full.toarray()
    base = ext @ A @ ext
    for _ in range(5):
        pert = ext.copy()
        pert[inner] += 0.1 * rng.standard_normal(len(inner))
        assert pert @ A @ pert > base


def test_nicolaides_components_and_pu():
    _, _, mesh, system, skel = lshape_setup(pitch=1.0 / 6.0)
    dofmap = system.dofmap
    ov = build_overlap(mesh, dofmap, 1, n_cells=9)
    space = build_nicolaides(mesh, system, ov)
    assert space.kind == "nicolaides"
    assert space.dim == 8  # the fully perforated cell contributes nothing
    ones = np.asarray(space.R.sum(axis=0)).ravel()
    assert np.abs(ones - 1.0).max() <= 1e-15  # rows form a partition of unity

    # a wall longer than a cell splits that subdomain into two components
    outer = Rect(0.0, 0.0, 3.0, 1.0)
    domain = PerforatedDomain(outer, (Rect(0.5, 0.4, 2.5, 0.6),))
    part = CoarsePartition(outer, 3, 1)
    mesh2 = generate_structured(domain, part, 1.0 / 20.0)
    system2 = assemble(mesh2)
    ov2 = build_overlap(mesh2, system2.dofmap, 1, n_cells=3)
    space2 = build_nicolaides(mesh2, system2, ov2)
    assert space2.dim == 4


def _nicolaides_R_reference(mesh, system, overlap):
    """Reference: one connected-components call per subdomain, each
    subdomain's components appended as rows in order of smallest member."""
    dofmap = system.dofmap
    weights = np.zeros(dofmap.n_free)
    nz = overlap.multiplicity > 0
    weights[nz] = 1.0 / overlap.multiplicity[nz]
    ri, rj, rv = [], [], []
    row = 0
    for j in range(overlap.n_subdomains):
        comps = connected_components(mesh, dofmap, overlap.dof_sets[j], overlap.tri_sets[j])
        for comp in comps:
            ri.extend([row] * len(comp))
            rj.extend(comp.tolist())
            rv.extend(weights[comp].tolist())
            row += 1
    return coo_matrix((rv, (ri, rj)), shape=(row, dofmap.n_free)).tocsr()


def _assert_nicolaides_matches_reference(mesh, system, overlap):
    got = build_nicolaides(mesh, system, overlap).R
    want = _nicolaides_R_reference(mesh, system, overlap)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        got_a, want_a = getattr(got, name), getattr(want, name)
        assert got_a.dtype == want_a.dtype and got_a.tobytes() == want_a.tobytes(), name


@given(seed=st.integers(0, 2 ** 16), nx=st.sampled_from((2, 4)),
       ny=st.sampled_from((2, 4)), data=st.data())
def test_nicolaides_matches_per_subdomain_reference_on_urban(seed, nx, ny, data):
    # the draws of test_stacked_apply_matches_dense_on_urban: per-cell layers
    # 0-3 and one extra cell without triangles, an empty subdomain
    domain, part, mesh = _small_instance(seed, nx, ny)
    system = assemble(mesh)
    n_cells = part.n_cells + 1
    layers = data.draw(st.lists(st.integers(0, 3), min_size=n_cells, max_size=n_cells))
    ov = build_overlap(mesh, system.dofmap, layers, n_cells=n_cells)
    assert len(ov.dof_sets[-1]) == 0
    _assert_nicolaides_matches_reference(mesh, system, ov)


def test_nicolaides_matches_per_subdomain_reference_on_urban_16x16():
    domain = generate_urban_synthetic(1, 640.0, 2.5, 24, 12)
    part = CoarsePartition(domain.outer, 16, 16)
    mesh = generate_structured(domain, part, 2.5)
    system = assemble(mesh)
    ov = build_overlap(mesh, system.dofmap, overlap_layers(part, 2.5, "min"),
                       n_cells=part.n_cells)
    _assert_nicolaides_matches_reference(mesh, system, ov)


def test_nicolaides_rank_deficiency_detected():
    _, _, mesh, system, _ = square_setup(pitch=1.0 / 8.0)
    # absurd overlap: all four subdomains become the whole domain
    ov = build_overlap(mesh, system.dofmap, 50, n_cells=4)
    with pytest.raises(RankDeficient):
        build_nicolaides(mesh, system, ov)


def test_bubble_skipped_on_single_pitch_edge():
    # two perforations pinch the vertical interface down to one mesh pitch
    # between (12,5) and (12,6); that edge has no interior fine node, so it
    # keeps its endpoint hats but must not carry a bubble
    outer = Rect(0.0, 0.0, 24.0, 24.0)
    domain = PerforatedDomain(outer, (Rect(3.0, 6.0, 14.0, 10.0),
                                      Rect(5.0, 4.0, 22.0, 5.0)))
    part = CoarsePartition(outer, 2, 2)
    mesh = generate_structured(domain, part, 1.0)
    system = assemble(mesh)
    skel = build_skeleton(domain, part)
    cache = build_cell_cache(mesh, system, skel)

    pinched = [k for k, ends in enumerate(skel.ends)
               if sorted(map(tuple, skel.points[ends].tolist())) == [(12.0, 5.0), (12.0, 6.0)]]
    assert len(pinched) == 1
    basis = build_trace_basis(mesh, skel, 2, cache)
    bubble_edges = {k for kind, k in basis.labels if kind == "edge"}
    assert pinched[0] not in bubble_edges
    assert bubble_edges  # the ordinary edges still carry bubbles
    # the coarse matrix is regular and the solve goes through
    space = build_trefftz(mesh, system, skel, 2, cache)
    assert np.isfinite(coarse_approximation(system, space)).all()


def _on_mesh(mesh, position):
    return np.abs(mesh.points - position).max(axis=1).min() <= 1e-9


@pytest.mark.parametrize("levels, a_on_mesh, b_on_mesh, missing", [
    (2, False, True, 0), (2, True, False, 1), (3, False, False, 0)],
    ids=["misses-a", "misses-b", "no-fine-node"])
def test_node_off_skeleton(levels, a_on_mesh, b_on_mesh, missing):
    _, _, mesh, system, skel = lshape_setup(pitch=1.0 / 3.0)
    cache = build_cell_cache(mesh, system, skel)
    ref = refine_edges(skel, levels)  # splits land between pitch-1/3 nodes
    on_mesh = np.array([_on_mesh(mesh, xy) for xy in ref.points])
    k = np.flatnonzero((on_mesh[ref.ends] == [a_on_mesh, b_on_mesh]).all(axis=1))[:1]
    bad = dataclasses.replace(ref, ends=ref.ends[k], on_dirichlet=ref.on_dirichlet[k],
                              cells=ref.cells[k])
    assert len(bad.ends) == 1
    if not (a_on_mesh or b_on_mesh):   # shorter than a pitch: no fine node at all
        assert len(_edge_nodes_reference(mesh.points, bad)[0][0]) == 0
    with pytest.raises(NodeOffSkeleton) as exc:
        build_trace_basis(mesh, bad, 1, cache)
    # the error names the endpoint that misses, a coarse node that no mesh
    # node sits on
    assert exc.value.node == ref.ends[k[0], missing]
    assert exc.value.position == tuple(ref.points[exc.value.node])
    assert all(type(c) is float for c in exc.value.position)
    assert np.abs(mesh.points - exc.value.position).max(axis=1).min() > 0.01
    assert str(exc.value) == "coarse node %d at %r is not a node of the fine mesh" % (
        exc.value.node, exc.value.position)


def _edge_nodes_reference(points, skel):
    """Per edge, brute force: (node ids, t) of the mesh nodes whose snapped
    coordinate across the edge equals its endpoints' and whose coordinate
    along it lies in its closed span (widened by 1e-9 of its length), by t,
    ties by ascending node id."""
    snapped = np.array([[snap(x), snap(y)] for x, y in points.tolist()]).reshape(-1, 2)
    out = []
    for pa, pb in skel.points[skel.ends].tolist():
        across = 0 if snap(pa[0]) == snap(pb[0]) else 1
        start, end = pa[1 - across], pb[1 - across]
        lo, hi = min(start, end), max(start, end)
        tol = 1e-9 * max(hi - lo, 1e-12)
        along = points[:, 1 - across]
        ids = np.flatnonzero((snapped[:, across] == snap(pa[across]))
                             & (along >= lo - tol) & (along <= hi + tol))
        t = (along[ids] - start) / (end - start)
        order = np.lexsort((ids, t))
        out.append((ids[order], t[order]))
    return out


def _assert_edge_nodes_match(points, skel):
    edge, ids, t = _edge_nodes(skel, _axis_sort(points))
    want = _edge_nodes_reference(points, skel)
    assert np.array_equal(edge, np.repeat(np.arange(len(want)), [len(i) for i, _ in want]))
    assert np.array_equal(ids, np.concatenate([np.empty(0, dtype=np.int64)]
                                              + [i for i, _ in want]))
    assert t.tobytes() == np.concatenate([np.empty(0)] + [t for _, t in want]).tobytes()


def _free_rows_reference(mesh, skel, cache, p):
    """The basis traces built row by row: a hat for each free coarse node,
    then (p = 2) a bubble for each non-Dirichlet edge with a fine node
    strictly inside it."""
    edge_nodes = _edge_nodes_reference(mesh.points, skel)
    rows = []
    for i in np.flatnonzero(~skel.constrained).tolist():
        row = {}
        for (ids, t), (a, b) in zip(edge_nodes, skel.ends.tolist()):
            if i in (a, b):
                tt = t if a == i else 1.0 - t
                row.update(zip(cache.slot_of_node[ids].tolist(), (1.0 - tt).tolist()))
        rows.append(row)
    for (ids, t), dirichlet in zip(edge_nodes, skel.on_dirichlet.tolist()):
        vals = 4.0 * t * (1.0 - t)
        if p == 2 and not dirichlet and np.any(vals > 0.0):
            rows.append(dict(zip(cache.slot_of_node[ids].tolist(), vals.tolist())))
    ri = [k for k, row in enumerate(rows) for _ in row]
    rj = [j for row in rows for j in row]
    rv = [v for row in rows for v in row.values()]
    return coo_matrix((rv, (ri, rj)), shape=(len(rows), len(cache.skeleton_fine))).tocsr()


def _lift_trace_reference(mesh, system, skel, p, cache):
    """The lift's trace on skeleton_fine, edge by edge: the hat interpolant
    of g at the constrained coarse nodes plus, for p = 2, on each Dirichlet
    edge the bubble that matches g at the edge midpoint."""
    g = system.expand(np.zeros(system.dofmap.n_free))
    gc = np.zeros(len(skel.points))
    for i in np.flatnonzero(skel.constrained).tolist():
        at = np.abs(mesh.points - skel.points[i]).max(axis=1) <= 1e-9
        gc[i] = g[np.flatnonzero(at)[0]]
    trace = np.zeros(len(cache.skeleton_fine))
    for (a, b), dirichlet, (ids, t) in zip(skel.ends.tolist(), skel.on_dirichlet.tolist(),
                                           _edge_nodes_reference(mesh.points, skel)):
        if gc[a] == 0.0 and gc[b] == 0.0 and not dirichlet:
            continue
        vals = gc[a] * (1.0 - t) + gc[b] * t
        if p == 2 and dirichlet:
            g_mid = float(np.interp(0.5, t, g[ids]))
            vals = vals + (g_mid - 0.5 * (gc[a] + gc[b])) * 4.0 * t * (1.0 - t)
        trace[cache.slot_of_node[ids]] = vals
    return trace


def _vanishing_at_coarse_nodes(pts):
    """Zero at the skeleton nodes of the 3 x 3 L-shape (rounded, since 1/3
    is not a float), but not at most edge midpoints: without edge
    refinement, a p = 1 lift of zero and a p = 2 lift of bubbles alone."""
    h = pts * (pts ** 2 - 1.0) * (pts ** 2 - 1.0 / 9.0)
    return np.round(h[:, 0] + h[:, 1], 12)


def _exact_values(pts):
    return exact_lshape(pts)[0]


@pytest.mark.parametrize("pitch, n, rounds, g", [
    (1.0 / 24.0, 3, 0, _exact_values),
    (1.0 / 60.0, 3, 6, _exact_values),
    (1.0 / 60.0, 5, 6, _exact_values),   # pitch 1/24 does not divide 5 x 5 cells
    (1.0 / 24.0, 3, 0, _vanishing_at_coarse_nodes)],
    ids=["24-3x3", "60-graded-3x3", "60-graded-5x5", "24-3x3-bubbles-only"])
def test_trace_table_matches_edge_by_edge_lift(pitch, n, rounds, g):
    _, _, mesh, _, skel0 = lshape_setup(pitch=pitch, n=n)
    mesh = refine_toward(mesh, np.array([[0.0, 0.0]]), rounds)
    system = assemble(mesh, g=g)
    cache = build_cell_cache(mesh, system, skel0)
    g = system.expand(np.zeros(system.dofmap.n_free))
    tol = 16 * np.finfo(float).eps * np.abs(g).max()
    for r in (0, 1, 2):
        skel = refine_edges(skel0, r)
        for p in (1, 2):
            basis = build_trace_basis(mesh, skel, p, cache)
            want = _free_rows_reference(mesh, skel, cache, p)
            for name in ("indptr", "indices", "data"):
                assert getattr(basis.T, name).tobytes() == getattr(want, name).tobytes()
            trace = _lift_trace_reference(mesh, system, skel, p, cache)
            space = build_trefftz(mesh, system, skel, p, cache)
            assert np.abs(space.lift_full[cache.skeleton_fine] - trace).max() <= tol, (r, p)


def _cell_solvers(mesh, system, cache):
    """Per-cell reference solvers, made here from A_full and the mesh alone:
    cell j -> (nodes, trace mask, extend), where extend(g) solves the cell's
    own interior block of A_full (one SuperLU factor per cell, in the SPD
    setting of the package) for the harmonic extension of trace values g."""
    A_full = system.A_full.tocsr()
    on_skeleton = cache.slot_of_node >= 0
    solvers = {}
    for j in np.unique(mesh.cell_of_triangle).tolist():
        nodes = np.unique(mesh.triangles[mesh.cell_of_triangle == j])
        mask = on_skeleton[nodes]
        trace, interior = nodes[mask], nodes[~mask]
        A_i = A_full[interior]
        lu = splu(csc_matrix(A_i[:, interior]), **SUPERLU) if len(interior) else None

        def extend(g, mask=mask, lu=lu, A_it=A_i[:, trace]):
            out = np.empty(len(mask))
            out[mask] = g
            if lu is not None:
                out[~mask] = lu.solve(-(A_it @ g))
            return out
        solvers[j] = (nodes, mask, extend)
    return solvers


def _edge_support(skel, labels):
    """Each basis row's cells, read off the skeleton edges: the cells of the
    edges incident to the coarse node of a hat, or of a bubble's own edge."""
    cells = [{c for c in pair if c >= 0} for pair in skel.cells.tolist()]
    incident = [set() for _ in skel.points]
    for (a, b), sides in zip(skel.ends.tolist(), cells):
        incident[a] |= sides
        incident[b] |= sides
    return [sorted(incident[i] if kind == "node" else cells[i]) for kind, i in labels]


def _extend_rows_reference(mesh, system, cache, trace_rows, support_cells):
    """Row-by-row gluing: one harmonic extension per (row, cell) for the
    cells support_cells[row], by the per-cell solvers of `_cell_solvers`,
    checking on every write that no node is interior to two cells and that
    cells agree on shared trace nodes."""
    dofmap = system.dofmap
    solvers = _cell_solvers(mesh, system, cache)
    ri, rj, rv = [], [], []
    phi = np.zeros(mesh.n_points)
    written = np.zeros(mesh.n_points, dtype=np.int8)
    for row in range(trace_rows.shape[0]):
        tr = np.asarray(trace_rows[row].todense()).ravel()
        touched = []
        for j in support_cells[row]:
            nodes, mask, extend = solvers[j]
            ext = extend(tr[cache.slot_of_node[nodes[mask]]])
            for flag, part in ((1, mask), (2, ~mask)):
                sub, piece = nodes[part], ext[part]
                prev = written[sub]
                if flag == 2 and (prev == 2).any():
                    raise GluingMismatch("interior node written by two cells")
                mism = prev > 0
                if mism.any() and np.abs(phi[sub[mism]] - piece[mism]).max() > 1e-9:
                    raise GluingMismatch("cell extensions disagree on the skeleton")
                phi[sub] = piece
                written[sub] = flag
            touched.append(nodes)
        if touched:
            nodes = np.unique(np.concatenate(touched))
            free = dofmap.global_to_free[nodes]
            sel = free >= 0
            vals = phi[nodes[sel]]
            nz = vals != 0.0
            ri.extend([row] * int(nz.sum()))
            rj.extend(free[sel][nz].tolist())
            rv.extend(vals[nz].tolist())
            phi[nodes] = 0.0
            written[nodes] = 0
    return coo_matrix((rv, (ri, rj)),
                      shape=(trace_rows.shape[0], dofmap.n_free)).tocsr()


def _extend_rows_coo(system, cache, trace_rows):
    """The former read-back of `_extend_rows`, kept as a bitwise oracle: the
    same padded solve, then every (pair, interior node) entry at once and
    one COO -> CSR conversion, which sorts each row's columns."""
    k = trace_rows.shape[0]
    rhs = (cache.A_it @ trace_rows.T).tocoo()
    pairs, pair_of = np.unique(cache.interior_cell[rhs.row] * k + rhs.col, return_inverse=True)
    pair_cell = pairs // k
    col = np.arange(len(pairs)) - np.searchsorted(pair_cell, pair_cell)
    B = np.zeros((len(cache.interior), col.max(initial=-1) + 1), order="F")
    B[rhs.row, col[pair_of]] = -rhs.data
    X = cache.fact.solve(B)
    lo = np.searchsorted(cache.interior_cell, pair_cell, side="left")
    count = np.searchsorted(cache.interior_cell, pair_cell, side="right") - lo
    pos = np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)
    flat = pos + len(X) * np.repeat(col, count)   # column-major index of X
    T = trace_rows.tocoo()
    ri = np.concatenate([T.row, np.repeat(pairs % k, count)])
    rj = system.dofmap.global_to_free[np.concatenate([cache.skeleton_fine[T.col],
                                                      cache.interior[pos]])]
    rv = np.concatenate([T.data, X.ravel(order="F")[flat]])
    keep = (rj >= 0) & (rv != 0.0)
    return coo_matrix((rv[keep], (ri[keep], rj[keep])),
                      shape=(k, system.dofmap.n_free)).tocsr()


def _assert_matches_coo_oracle(system, cache, trace_rows):
    """R byte for byte as the COO oracle builds it, in canonical format,
    read back in blocks of one node, of 7 entries and of the default size."""
    want = _extend_rows_coo(system, cache, trace_rows)
    for block in (1, 7, coarse.READ_BLOCK):
        with mock.patch.object(coarse, "READ_BLOCK", block):
            R = _extend_rows(system, cache, trace_rows)
        assert R.has_canonical_format and R.shape == want.shape
        for name in ("indptr", "indices", "data"):
            got_a, want_a = getattr(R, name), getattr(want, name)
            assert got_a.dtype == want_a.dtype, (block, name)
            assert got_a.tobytes() == want_a.tobytes(), (block, name)


def _assert_rows_match_reference(mesh, system, cache, skel, p):
    basis = build_trace_basis(mesh, skel, p, cache)
    _assert_matches_coo_oracle(system, cache, basis.T)
    R = _extend_rows(system, cache, basis.T)
    want = _extend_rows_reference(mesh, system, cache, basis.T,
                                  _edge_support(skel, basis.labels))
    # the (cell, row) pairs of A_IΓ T' reach exactly the cells of the edges
    # each trace has parts on
    for name in ("indptr", "indices"):
        got_a, want_a = getattr(R, name), getattr(want, name)
        assert got_a.dtype == want_a.dtype and got_a.tobytes() == want_a.tobytes(), name
    # SuperLU solves several right-hand sides with BLAS-3 kernels, which may
    # sum in another order than one right-hand side at a time: on the pitch
    # 1/192 graded L-shape a few entries move by up to 5 ulps
    assert R.data.dtype == want.data.dtype
    tol = 64 * np.finfo(float).eps * np.abs(want.data).max()
    assert np.abs(R.data - want.data).max() <= tol
    # every basis function is discrete-harmonic off the skeleton
    AR = np.abs((system.A @ R.T).toarray())
    off_skeleton = np.ones(mesh.n_points, dtype=bool)
    off_skeleton[cache.skeleton_fine] = False
    rows = off_skeleton[system.dofmap.free_nodes]
    bound = 1e-9 * abs(system.A).max() * np.abs(R.toarray()).max(axis=1)
    assert (AR[rows] <= bound).all()


@given(seed=st.integers(0, 2 ** 16), nx=st.sampled_from((2, 4)),
       ny=st.sampled_from((2, 4)), p=st.sampled_from((1, 2)))
def test_extend_rows_matches_row_loop_on_urban(seed, nx, ny, p):
    domain, part, mesh = _small_instance(seed, nx, ny)
    system = assemble(mesh)
    skel = build_skeleton(domain, part)
    cache = build_cell_cache(mesh, system, skel)
    _assert_rows_match_reference(mesh, system, cache, skel, p)
    _assert_edge_nodes_match(mesh.points, skel)


@given(seed=st.integers(0, 2 ** 16), nx=st.sampled_from((2, 4)),
       ny=st.sampled_from((2, 4)), p=st.sampled_from((1, 2)))
def test_coarse_solves_match_dense_on_urban(seed, nx, ny, p):
    # the draws of test_extend_rows_matches_row_loop_on_urban, with a random
    # load and homogeneous Dirichlet data, so no lift offsets the solves
    domain, part, mesh = _small_instance(seed, nx, ny)
    rng = np.random.default_rng(seed)
    f_vals = rng.standard_normal(mesh.n_points)
    system = assemble(mesh, f=lambda pts: f_vals)
    skel = build_skeleton(domain, part)
    cache = build_cell_cache(mesh, system, skel)
    A_full, A = system.A_full.toarray(), system.A.toarray()

    # harmonic extension of a random trace = dense solve of the cell
    # interior: each row takes random values on a random part of the
    # skeleton and is extended into every cell that part touches, and into
    # no other, where the dense solve is zero
    cells = np.unique(mesh.cell_of_triangle)
    traces = rng.standard_normal((4, len(cache.skeleton_fine)))
    traces *= rng.random(traces.shape) < 0.2
    R = _extend_rows(system, cache, csr_matrix(traces)).toarray()
    on_skel = system.dofmap.global_to_free[cache.skeleton_fine]
    free = on_skel >= 0
    assert np.array_equal(R[:, on_skel[free]], traces[:, free])
    for j in cells.tolist():
        nodes = np.unique(mesh.triangles[mesh.cell_of_triangle == j])
        trace = nodes[cache.slot_of_node[nodes] >= 0]
        interior = nodes[cache.slot_of_node[nodes] < 0]
        assert np.array_equal(interior, cache.interior[cache.interior_cell == j])
        if not len(interior):
            continue
        A_ii = A_full[np.ix_(interior, interior)]
        A_it = A_full[np.ix_(interior, trace)]
        want = np.linalg.solve(A_ii, -A_it @ traces[:, cache.slot_of_node[trace]].T).T
        cols = system.dofmap.global_to_free[interior]
        assert (cols >= 0).all()
        got = R[:, cols]
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max()), j

    overlap = build_overlap(mesh, system.dofmap, 1, n_cells=part.n_cells)
    for space in (build_trefftz(mesh, system, skel, p, cache),
                  build_nicolaides(mesh, system, overlap)):
        # A_H = R A R^T is symmetric positive definite
        R = space.R.toarray()
        A_H = R @ A @ R.T
        assert np.abs(A_H - A_H.T).max() <= 1e-13 * np.abs(A_H).max()
        eig = np.linalg.eigvalsh(A_H)
        assert eig[0] > 1e-12 * eig[-1], space.kind
        # the Galerkin solve in span R, against the dense one
        u = coarse_approximation(system, space)
        assert not u[system.dofmap.dirichlet_nodes].any()
        want = R.T @ np.linalg.solve(A_H, R @ system.f)
        err = system.restrict(u) - want
        assert np.sqrt(err @ A @ err) <= 1e-10 * np.sqrt(want @ A @ want), space.kind


def test_extend_rows_matches_row_loop_on_graded_lshape():
    domain, part, mesh, _, skel = lshape_setup(pitch=1.0 / 12.0)
    mesh = refine_toward(mesh, np.array([[0.0, 0.0]]), 3)
    system = assemble(mesh)
    cache = build_cell_cache(mesh, system, skel)
    for p in (1, 2):
        _assert_rows_match_reference(mesh, system, cache, refine_edges(skel, 2), p)
    for r in (0, 1, 2):
        _assert_edge_nodes_match(mesh.points, refine_edges(skel, r))


def test_extend_rows_matches_coo_oracle_with_lift_and_unpaired_cells():
    # the graded L-shape with Dirichlet data: the basis traces plus the lift
    # row, as build_trefftz extends them; then two traces and an empty row,
    # which leave some cells with no (cell, row) pair at all
    _, _, mesh, _, skel0 = lshape_setup(pitch=1.0 / 12.0)
    mesh = refine_toward(mesh, np.array([[0.0, 0.0]]), 3)
    system = assemble(mesh, g=_exact_values)
    cache = build_cell_cache(mesh, system, skel0)
    g = system.expand(np.zeros(system.dofmap.n_free))
    for p, r in ((1, 0), (2, 2)):
        skel = refine_edges(skel0, r)
        basis = build_trace_basis(mesh, skel, p, cache)
        lift = coarse._lift_coefficients(skel, basis, g) @ basis.table
        assert np.any(lift)
        _assert_matches_coo_oracle(system, cache, vstack([basis.T, csr_matrix(lift)],
                                                         format="csr"))
        few = vstack([basis.T[0], csr_matrix((1, basis.T.shape[1])), basis.T[-1]],
                     format="csr")
        paired = np.unique(cache.interior_cell[(cache.A_it @ few.T).tocoo().row])
        assert 0 < len(paired) < len(np.unique(cache.interior_cell))
        _assert_matches_coo_oracle(system, cache, few)


def test_extend_rows_reads_back_in_bounded_memory():
    # the lshape-graded benchmark mesh at p = 2, r = 2: R has 207,821
    # entries (2.49 MB) and the solve's result X 2.77 MB.  From the solve's
    # return, the traced peak above X measured 1.48 times R's bytes (R as
    # CSC, then converted to CSR, plus the read-back's blocks and the
    # (cell, row) pairs), so the bound is 2.  Keeping the padded right-hand
    # sides through the read-back measured 2.59, and the former read-back,
    # which held every (pair, interior node) entry at once, 7.21
    _, _, mesh, _, skel = lshape_setup(pitch=1.0 / 60.0)
    mesh = refine_toward(mesh, np.array([[0.0, 0.0]]), 6)
    system = assemble(mesh, g=_exact_values)
    cache = build_cell_cache(mesh, system, skel)
    traces = build_trace_basis(mesh, refine_edges(skel, 2), 2, cache).T
    solve, x_bytes = cache.fact.solve, []

    def traced_solve(b):
        x = solve(b)
        x_bytes.append(x.nbytes)
        tracemalloc.reset_peak()
        return x

    cache.fact.solve = traced_solve
    tracemalloc.start()
    try:
        R = _extend_rows(system, cache, traces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    r_bytes = R.data.nbytes + R.indices.nbytes + R.indptr.nbytes
    assert len(x_bytes) == 1 and R.nnz > 200_000
    assert peak - x_bytes[0] <= 2.0 * r_bytes


def test_edge_nodes_match_reference_on_graded_1_192_lshape():
    # the mesh of the acceptance edge study: pitch 1/192, 6 grading rounds
    domain, part, _, _, skel = lshape_setup(pitch=1.0 / 6.0)
    mesh = refine_toward(generate_structured(domain, part, 1.0 / 192.0),
                         np.array([[0.0, 0.0]]), 6)
    for r in (0, 1, 2):
        _assert_edge_nodes_match(mesh.points, refine_edges(skel, r))


def test_edge_nodes_merge_values_that_snap_alike():
    # 0.1 + 0.2 and 0.3 differ in the last bit but snap to one line
    xs = np.array([0.1 + 0.2, 0.3, 0.3, 0.1 + 0.2, 0.7])
    points = np.column_stack([xs, [2.0, 1.0, 2.0, 0.0, 1.0]])
    assert len(np.unique(xs)) == 3
    # up the line x = 0.3, down it again (b -> a, decreasing y), and along y = 1
    skel = Skeleton(np.array([(0.3, 0.0), (0.3, 2.0), (0.3, 1.0), (0.7, 1.0)]),
                    np.array([(0, 1), (1, 0), (2, 3)]), np.zeros(3, dtype=bool),
                    np.array([(0, -1)] * 3))
    _assert_edge_nodes_match(points, skel)
    edge, ids, t = _edge_nodes(skel, _axis_sort(points))
    # equal y (ids 0 and 2) is a tie in t, kept in ascending id either way
    assert np.array_equal(ids[edge == 0], [3, 1, 0, 2])
    assert np.array_equal(ids[edge == 1], [0, 2, 1, 3])
    assert np.array_equal(t[edge == 1], [0.0, 0.0, 0.5, 1.0])
    assert np.array_equal(ids[edge == 2], [1, 4])


def test_interior_node_shared_by_two_cells_raises():
    _, _, mesh, system, skel = square_setup()
    # move the cell-0 triangle with vertices (3/8, 1/4), (1/2, 1/4), (1/2, 3/8),
    # which has an edge on the interface x = 1/2, into cell 1: its vertex
    # (3/8, 1/4) is then interior to both cells
    centroid = mesh.points[mesh.triangles].mean(axis=1)
    t = np.argmin(np.hypot(centroid[:, 0] - 11 / 24, centroid[:, 1] - 7 / 24))
    assert mesh.cell_of_triangle[t] == 0
    cells = mesh.cell_of_triangle.copy()
    cells[t] = 1
    bad = dataclasses.replace(mesh, cell_of_triangle=cells)
    with pytest.raises(GluingMismatch):
        build_cell_cache(bad, system, skel)


def _with_added_entries(system, rows, cols, vals):
    """The system with vals added to A_full at (rows, cols)."""
    delta = coo_matrix((vals, (rows, cols)), shape=system.A_full.shape)
    return dataclasses.replace(system, A_full=(system.A_full + delta).tocsr())


@pytest.mark.parametrize("cell", [2, 3])
def test_singular_interior_names_its_cell(cell):
    _, _, mesh, system, skel = square_setup()
    cache = build_cell_cache(mesh, system, skel)
    # cells 2 and 3 are factorized in the second piece, so the cell named
    # comes from an index shifted back to the whole interior numbering
    lo, hi = cache.fact.bounds[1:3]
    assert np.isin([2, 3], cache.interior_cell[lo:hi]).all()
    nodes = np.unique(mesh.triangles[mesh.cell_of_triangle == cell])
    a, b = nodes[cache.slot_of_node[nodes] < 0][:2]
    diag = system.A_full.diagonal()
    # a nonpositive diagonal entry, caught before the factorization
    bad = _with_added_entries(system, [a], [a], [-2.0 * diag[a]])
    with pytest.raises(SingularLocalSystem) as exc:
        build_cell_cache(mesh, bad, skel)
    assert exc.value.cell == cell
    assert "diagonal" in str(exc.value.__cause__)
    # a positive diagonal but an indefinite 2x2 principal minor: only a
    # nonpositive pivot of the factorization shows it
    big = 10.0 * diag.max()
    bad = _with_added_entries(system, [a, b], [b, a], [big, big])
    assert (bad.A_full.diagonal() > 0).all()
    with pytest.raises(SingularLocalSystem) as exc:
        build_cell_cache(mesh, bad, skel)
    assert exc.value.cell == cell
    assert "pivot" in str(exc.value.__cause__)


def test_floating_interior_names_its_cell():
    # cut cell 1's interior off from its trace and make the cut-off block a
    # Neumann operator (rows summing to zero): SuperLU meets an exactly zero
    # pivot and names no column, so the cell comes from the cut itself
    _, _, mesh, system, skel = square_setup()
    cache = build_cell_cache(mesh, system, skel)
    nodes = np.unique(mesh.triangles[mesh.cell_of_triangle == 1])
    inner = nodes[cache.slot_of_node[nodes] < 0]
    A = system.A_full.tocoo()
    cut = np.isin(A.row, inner) != np.isin(A.col, inner)
    keep = ~cut
    rows, cols, vals = A.row[keep], A.col[keep], A.data[keep]
    lost = np.bincount(A.row[cut], A.data[cut], minlength=mesh.n_points)
    bad = dataclasses.replace(system, A_full=coo_matrix(
        (np.concatenate([vals, lost]),
         (np.concatenate([rows, np.arange(mesh.n_points)]),
          np.concatenate([cols, np.arange(mesh.n_points)]))),
        shape=A.shape).tocsr())
    with pytest.raises(SingularLocalSystem) as exc:
        build_cell_cache(mesh, bad, skel)
    assert exc.value.cell == 1


def test_one_factorization_per_cell_cache(monkeypatch):
    # the cell interiors are factorized together, not cell by cell: one
    # block factorization in at most PIECES pieces of whole cells
    _, _, lmesh, lsystem, lskel = lshape_setup()
    domain, part, umesh = _small_instance(5, 4, 4)
    cases = [(lmesh, lsystem, lskel),
             (umesh, assemble(umesh), build_skeleton(domain, part))]
    calls = _count_calls(monkeypatch, (coarse, "BlockFactorization"),
                         (coarse, "Factorization"))
    for mesh, system, skel in cases:
        calls.update(BlockFactorization=0, Factorization=0)
        cache = build_cell_cache(mesh, system, skel)
        assert calls == {"BlockFactorization": 1, "Factorization": 0}
        assert 1 <= len(list(cache.fact)) <= PIECES
