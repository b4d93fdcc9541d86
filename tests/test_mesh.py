"""Meshing tests.

Counting oracles (node/triangle/boundary counts, areas) are worked out by
hand for small structured grids and frozen.  Graph-flavoured operations
(overlap growth, connected components) are cross-checked against plain
Python breadth-first search / union-find reimplementations.
"""
import numpy as np
import pytest

from trefftz_dd import mesh as mesh_module
from trefftz_dd.errors import (
    DegenerateTriangle,
    DisconnectedDomain,
    GeometryNotSnapped,
    NonConformingMesh,
    ParseError,
    PitchMismatch,
)
from trefftz_dd.experiments import generate_urban_synthetic
from trefftz_dd.geometry import CoarsePartition, PerforatedDomain, Rect
from trefftz_dd.mesh import (
    DIRICHLET,
    NEUMANN,
    _boundary_pairs,
    _near_targets,
    build_dofmap,
    build_overlap,
    connected_components,
    generate_structured,
    load_triangle,
    red_refine,
    refine_toward,
    save_triangle,
    signed_areas,
)


def unit_square(nx=1, ny=1):
    outer = Rect(0.0, 0.0, 1.0, 1.0)
    return PerforatedDomain(outer, ()), CoarsePartition(outer, nx, ny)


def lshape(n=3):
    outer = Rect(-1.0, -1.0, 1.0, 1.0)
    return (PerforatedDomain(outer, (Rect(0.0, 0.0, 1.0, 1.0),)),
            CoarsePartition(outer, n, n))


def total_area(mesh):
    return signed_areas(mesh.points, mesh.triangles).sum()


def marker_length(mesh, marker):
    sel = mesh.boundary_marker == marker
    d = mesh.points[mesh.boundary_edges[sel, 0]] - mesh.points[mesh.boundary_edges[sel, 1]]
    return np.hypot(d[:, 0], d[:, 1]).sum()


def assert_conforming(mesh):
    """Every edge belongs to 1 or 2 triangles; count-1 edges are the stored boundary."""
    tris = mesh.triangles
    edges = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    assert counts.max() <= 2
    boundary = uniq[counts == 1]
    stored = np.unique(np.sort(mesh.boundary_edges, axis=1), axis=0)
    assert np.array_equal(boundary, stored)


def test_unit_square_structured():
    domain, part = unit_square()
    mesh = generate_structured(domain, part, 0.5)
    assert mesh.n_points == 9 and mesh.n_triangles == 8
    assert (signed_areas(mesh.points, mesh.triangles) > 0).all()
    assert total_area(mesh) == pytest.approx(1.0)
    assert len(mesh.boundary_edges) == 8
    assert (mesh.boundary_marker == DIRICHLET).all()
    assert mesh.h == pytest.approx(0.5 * np.sqrt(2))
    assert_conforming(mesh)
    dofmap = build_dofmap(mesh)
    assert dofmap.n_free == 1
    assert mesh.points[dofmap.free_nodes[0]] == pytest.approx((0.5, 0.5))


def test_lshape_structured_counts():
    domain, part = lshape()
    mesh = generate_structured(domain, part, 1.0 / 3.0)
    assert mesh.n_triangles == 2 * (36 - 9)
    # 49 grid nodes, minus 4 strictly inside the perforation, minus the 5 on
    # the outer boundary whose neighbourhood is swallowed by the perforation
    assert mesh.n_points == 49 - 4 - 5
    assert total_area(mesh) == pytest.approx(3.0)
    assert marker_length(mesh, DIRICHLET) == pytest.approx(6.0)
    assert marker_length(mesh, NEUMANN) == pytest.approx(2.0)
    assert_conforming(mesh)
    # cells are row-major; upper-right cell (index 8) is fully perforated
    assert not (mesh.cell_of_triangle == 8).any()
    cen = mesh.points[mesh.triangles].mean(axis=1)
    for t in range(mesh.n_triangles):
        j = mesh.cell_of_triangle[t]
        ix, iy = j % 3, j // 3
        assert -1 + ix * 2 / 3 < cen[t, 0] < -1 + (ix + 1) * 2 / 3
        assert -1 + iy * 2 / 3 < cen[t, 1] < -1 + (iy + 1) * 2 / 3


def test_pitch_validation():
    domain, part = lshape()
    with pytest.raises(PitchMismatch):
        generate_structured(domain, part, 0.25)  # does not divide the 2/3 cells
    outer = Rect(0.0, 0.0, 1.0, 1.0)
    dom2 = PerforatedDomain(outer, (Rect(0.3, 0.25, 0.55, 0.5),))
    with pytest.raises(GeometryNotSnapped):
        generate_structured(dom2, CoarsePartition(outer, 2, 2), 0.25)


def test_disconnected_domain_detected():
    outer = Rect(0.0, 0.0, 3.0, 1.0)
    domain = PerforatedDomain(outer, (Rect(1.0, 0.0, 2.0, 1.0),))
    with pytest.raises(DisconnectedDomain):
        generate_structured(domain, CoarsePartition(outer, 3, 1), 0.25)


def test_triangle_roundtrip(tmp_path):
    domain, part = lshape()
    mesh = generate_structured(domain, part, 1.0 / 6.0)
    stem = tmp_path / "lshape"
    save_triangle(mesh, stem)
    back = load_triangle(stem)
    assert np.array_equal(back.points, mesh.points)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.cell_of_triangle, mesh.cell_of_triangle)
    pairs = {tuple(e) for e in np.sort(mesh.boundary_edges, axis=1)}
    assert {tuple(e) for e in back.boundary_edges} == pairs
    for e, mk in zip(back.boundary_edges, back.boundary_marker):
        k = np.flatnonzero((np.sort(mesh.boundary_edges, axis=1) == e).all(axis=1))[0]
        assert mk == mesh.boundary_marker[k]


def test_load_zero_based(tmp_path):
    stem = tmp_path / "tiny"
    with open(str(stem) + ".node", "w") as f:
        f.write("4 2 0 0\n0 0 0\n1 1 0\n2 1 1\n3 0 1\n")
    with open(str(stem) + ".ele", "w") as f:
        f.write("2 3 0\n0 0 1 2\n1 0 2 3\n")
    mesh = load_triangle(stem)
    assert mesh.n_points == 4 and mesh.n_triangles == 2
    assert (signed_areas(mesh.points, mesh.triangles) > 0).all()
    assert (mesh.boundary_marker == DIRICHLET).all()  # no .poly: everything Dirichlet


def test_load_fixes_orientation_and_rejects_degenerate(tmp_path):
    stem = tmp_path / "cw"
    with open(str(stem) + ".node", "w") as f:
        f.write("3 2 0 0\n1 0 0\n2 1 0\n3 0 1\n")
    with open(str(stem) + ".ele", "w") as f:
        f.write("1 3 0\n1 1 3 2\n")  # clockwise on purpose
    mesh = load_triangle(stem)
    assert signed_areas(mesh.points, mesh.triangles)[0] > 0

    stem = tmp_path / "degen"
    with open(str(stem) + ".node", "w") as f:
        f.write("3 2 0 0\n1 0 0\n2 1 0\n3 2 0\n")  # collinear
    with open(str(stem) + ".ele", "w") as f:
        f.write("1 3 0\n1 1 2 3\n")
    with pytest.raises(DegenerateTriangle):
        load_triangle(stem)


def test_parse_errors(tmp_path):
    stem = tmp_path / "bad"
    with open(str(stem) + ".node", "w") as f:
        f.write("3 2 0 0\n1 0 0\n2 1 0\n")  # one row short
    with open(str(stem) + ".ele", "w") as f:
        f.write("1 3 0\n1 1 2 3\n")
    with pytest.raises(ParseError) as exc:
        load_triangle(stem)
    assert exc.value.path.endswith(".node")
    assert exc.value.lineno >= 1


def test_conformity_check_on_load(tmp_path):
    domain, part = unit_square()
    mesh = generate_structured(domain, part, 0.5)
    stem = tmp_path / "sq"
    save_triangle(mesh, stem)
    # pitch-1/2 triangles straddle the cells of a 3x3 partition
    with pytest.raises(NonConformingMesh) as exc:
        load_triangle(stem, partition=CoarsePartition(domain.outer, 3, 3))
    assert exc.value.tri_index == 0
    # the smallest offending index is reported: at pitch 1/4, triangles 0
    # and 1 fit the lower-left third, triangle 2 crosses x = 1/3
    save_triangle(generate_structured(domain, part, 0.25), stem)
    with pytest.raises(NonConformingMesh) as exc:
        load_triangle(stem, partition=CoarsePartition(domain.outer, 3, 3))
    assert exc.value.tri_index == 2
    save_triangle(mesh, stem)
    # but conform to the 2x2 partition
    back = load_triangle(stem, partition=CoarsePartition(domain.outer, 2, 2))
    assert set(np.unique(back.cell_of_triangle)) == {0, 1, 2, 3}


def test_refine_toward_grades_and_conforms():
    domain, part = lshape()
    mesh = generate_structured(domain, part, 1.0 / 6.0)
    fine = refine_toward(mesh, [(0.0, 0.0)], 3)
    assert fine.n_triangles > mesh.n_triangles
    assert_conforming(fine)
    assert (signed_areas(fine.points, fine.triangles) > 0).all()
    assert total_area(fine) == pytest.approx(3.0)
    assert marker_length(fine, DIRICHLET) == pytest.approx(6.0)
    assert marker_length(fine, NEUMANN) == pytest.approx(2.0)
    # triangles near the corner shrink, far ones keep the original size
    cen = fine.points[fine.triangles].mean(axis=1)
    diam = np.array([
        max(np.hypot(*(fine.points[t[i]] - fine.points[t[j]])) for i, j in ((0, 1), (1, 2), (0, 2)))
        for t in fine.triangles
    ])
    # each bisection round shrinks diameters by sqrt(2) near the corner
    near = np.hypot(cen[:, 0], cen[:, 1]) < 0.05
    assert near.any() and diam[near].max() <= mesh.h / 2 ** 1.5 + 1e-12
    far = np.hypot(cen[:, 0] + 0.9, cen[:, 1] + 0.9) < 0.1
    assert diam[far].max() == pytest.approx(mesh.h)
    # cell assignment survives bisection
    for t in range(fine.n_triangles):
        j = fine.cell_of_triangle[t]
        ix, iy = j % 3, j // 3
        assert -1 + ix * 2 / 3 - 1e-12 < cen[t, 0] < -1 + (ix + 1) * 2 / 3 + 1e-12


def test_refine_toward_deterministic():
    domain, part = lshape()
    mesh = generate_structured(domain, part, 1.0 / 6.0)
    a = refine_toward(mesh, [(0.0, 0.0)], 2)
    b = refine_toward(mesh, [(0.0, 0.0)], 2)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.triangles, b.triangles)


def test_refine_toward_two_targets():
    domain, part = lshape()
    mesh = generate_structured(domain, part, 1.0 / 6.0)
    fine = refine_toward(mesh, [(0.0, 0.0), (-0.5, -0.5)], 3)
    assert (fine.n_points, fine.n_triangles) == (306, 556)
    assert_conforming(fine)
    assert (signed_areas(fine.points, fine.triangles) > 0).all()
    assert total_area(fine) == pytest.approx(3.0)
    # both targets are graded: three rounds shrink diameters by 2^1.5 there
    p = fine.points[fine.triangles]
    diam = np.hypot(*(p - p[:, [1, 2, 0]]).transpose(2, 0, 1)).max(axis=1)
    cen = p.mean(axis=1)
    for q in ((0.0, 0.0), (-0.5, -0.5)):
        near = np.hypot(cen[:, 0] - q[0], cen[:, 1] - q[1]) < 0.05
        assert near.any() and diam[near].max() <= mesh.h / 2 ** 1.5 + 1e-12


def _dist2_point_triangle_ref(q, p):
    """Squared distance from point q to the (closed) triangle with rows p."""
    d = 0.0
    inside = True
    best = np.inf
    for i in range(3):
        a, b = p[i], p[(i + 1) % 3]
        ab = b - a
        cross = ab[0] * (q[1] - a[1]) - ab[1] * (q[0] - a[0])
        if cross < 0.0:  # outside this CCW edge
            inside = False
        t = np.dot(q - a, ab) / np.dot(ab, ab)
        t = min(max(t, 0.0), 1.0)
        d = ((a + t * ab - q) ** 2).sum()
        best = min(best, d)
    return 0.0 if inside else best


def _near_target_ref(p, targets):
    """Per-triangle marking predicate, one triangle and target at a time."""
    diam2 = max(((p[i] - p[j]) ** 2).sum() for i, j in ((0, 1), (1, 2), (0, 2)))
    for q in targets:
        if _dist2_point_triangle_ref(q, p) < 4.0 * diam2:
            return True
    return False


def test_near_targets_matches_scalar_reference():
    rng = np.random.default_rng(20231)
    p = rng.uniform(-1.0, 1.0, (300, 3, 2))
    cw = signed_areas(p.reshape(-1, 2), np.arange(p.size // 2).reshape(-1, 3)) < 0
    p[cw] = p[cw][:, ::-1]
    # one whole-array call with shared targets scattered over [-4, 4]^2
    shared = rng.uniform(-4.0, 4.0, (5, 2))
    got = _near_targets(p, shared)
    want = np.array([_near_target_ref(tri, shared) for tri in p])
    assert np.array_equal(got, want) and 0 < want.sum() < len(p)
    for k in range(len(shared)):
        want = np.array([_near_target_ref(tri, shared[k:k + 1]) for tri in p])
        assert np.array_equal(_near_targets(p, shared[k:k + 1]), want)
    # per-triangle targets: inside, on a vertex, on an edge, far away
    for tri in p:
        cases = {"inside": (tri.mean(axis=0), True), "vertex": (tri[1], True),
                 "edge": (0.5 * (tri[2] + tri[0]), True), "far": (tri[0] + 50.0, False)}
        for name, (q, expect) in cases.items():
            got = _near_targets(tri[None], q[None])[0]
            assert got == _near_target_ref(tri, [q]) == expect, name
    # distance^2 == 4 diam^2 exactly is not marked; one ulp closer is
    for tri, q in ((((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), (-2.0, -2.0)),     # to a vertex
                   (((0.0, 0.0), (3.0, 0.0), (0.0, 4.0)), (1.5, -10.0))):    # to an edge
        tri, q = np.array(tri), np.array(q)
        closer = np.array([q[0], np.nextafter(q[1], 0.0)])
        assert not _near_target_ref(tri, [q]) and _near_target_ref(tri, [closer])
        assert not _near_targets(tri[None], q[None])[0]
        assert _near_targets(tri[None], closer[None])[0]


def test_red_refine_prolongation():
    domain, part = lshape()
    mesh = generate_structured(domain, part, 1.0 / 3.0)
    fine, P = red_refine(mesh, 2)
    assert fine.n_triangles == 16 * mesh.n_triangles
    assert P.shape == (fine.n_points, mesh.n_points)
    assert total_area(fine) == pytest.approx(3.0)
    assert_conforming(fine)
    assert (signed_areas(fine.points, fine.triangles) > 0).all()
    # coarse nodes keep their ids and positions
    assert np.array_equal(fine.points[:mesh.n_points], mesh.points)
    # P reproduces linear fields exactly
    lin = 2.0 * mesh.points[:, 0] - 0.7 * mesh.points[:, 1] + 0.3
    lin_fine = 2.0 * fine.points[:, 0] - 0.7 * fine.points[:, 1] + 0.3
    assert np.abs(P @ lin - lin_fine).max() < 1e-14
    assert marker_length(fine, NEUMANN) == pytest.approx(2.0)
    assert fine.h == pytest.approx(mesh.h / 4)


def _unique_edges_ref(edges, n):
    """Row deduplication as np.unique(axis=0), which `_unique_edges`
    replaces with np.unique over int64 keys."""
    return np.unique(edges, axis=0, return_inverse=True, return_counts=True)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _urban_mesh():
    domain = generate_urban_synthetic(1, 160.0, 2.5, 8, 4)
    return generate_structured(domain, CoarsePartition(domain.outer, 4, 4), 2.5)


EDGE_KEY_MESHES = {
    "lshape": lambda: generate_structured(*lshape(), 1.0 / 12.0),
    "urban": _urban_mesh,
    "graded": lambda: refine_toward(generate_structured(*lshape(), 1.0 / 12.0),
                                    np.array([[0.0, 0.0]]), 2),
}


@pytest.mark.parametrize("name", sorted(EDGE_KEY_MESHES))
def test_edge_keys_match_row_unique(name, monkeypatch):
    mesh = EDGE_KEY_MESHES[name]()
    pairs = _boundary_pairs(mesh.triangles)
    fine, P = red_refine(mesh, 2)
    monkeypatch.setattr(mesh_module, "_unique_edges", _unique_edges_ref)
    ref_fine, ref_P = red_refine(mesh, 2)
    assert _same_bytes(pairs, _boundary_pairs(mesh.triangles))
    for field in ("points", "triangles", "cell_of_triangle", "boundary_edges",
                  "boundary_marker"):
        assert _same_bytes(getattr(fine, field), getattr(ref_fine, field)), field
    assert fine.h == ref_fine.h
    assert P.shape == ref_P.shape
    for part in ("data", "indices", "indptr"):
        assert _same_bytes(getattr(P, part), getattr(ref_P, part)), part


def grow_overlap_bfs(mesh, cell, layers):
    """Independent ring-growth oracle on plain Python sets."""
    tri_sets = [set(np.flatnonzero(mesh.cell_of_triangle == cell))]
    tris_of_node = {}
    for t, tri in enumerate(mesh.triangles):
        for v in tri:
            tris_of_node.setdefault(int(v), set()).add(t)
    current = tri_sets[0]
    for _ in range(layers):
        nodes = set()
        for t in current:
            nodes.update(int(v) for v in mesh.triangles[t])
        grown = set()
        for v in nodes:
            grown |= tris_of_node[v]
        current = grown
    return current


def test_overlap_matches_bfs_oracle():
    domain, part = lshape()
    mesh = generate_structured(domain, part, 1.0 / 6.0)
    dofmap = build_dofmap(mesh)
    for layers in (1, 2):
        ov = build_overlap(mesh, dofmap, layers, n_cells=part.n_cells)
        assert ov.n_subdomains == 9
        for j in range(9):
            want = grow_overlap_bfs(mesh, j, layers)
            assert set(ov.tri_sets[j].tolist()) == want
            nodes = {int(v) for t in want for v in mesh.triangles[t]}
            dofs = sorted(int(dofmap.global_to_free[v]) for v in nodes
                          if dofmap.global_to_free[v] >= 0)
            assert ov.dof_sets[j].tolist() == dofs
        # multiplicity counts subdomain ownership
        mult = np.zeros(dofmap.n_free, dtype=int)
        for j in range(9):
            mult[ov.dof_sets[j]] += 1
        assert np.array_equal(mult, ov.multiplicity)
        covered = ov.multiplicity > 0
        assert covered.all()
        # empty cell: no triangles, no dofs
        assert len(ov.tri_sets[8]) == 0 and len(ov.dof_sets[8]) == 0


def test_per_cell_layers():
    domain, part = unit_square(2, 2)
    mesh = generate_structured(domain, part, 1.0 / 8.0)
    dofmap = build_dofmap(mesh)
    ov = build_overlap(mesh, dofmap, [1, 2, 1, 3], n_cells=4)
    sizes = [len(s) for s in ov.tri_sets]
    assert sizes[1] > sizes[0] and sizes[3] > sizes[1]
    with pytest.raises(ValueError):
        build_overlap(mesh, dofmap, [1, 2], n_cells=4)


def components_union_find(mesh, dofmap, dofs, tri_subset):
    parent = {int(d): int(d) for d in dofs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    slot = {int(n): int(dofmap.global_to_free[n]) for n in dofmap.free_nodes[dofs]}
    for t in tri_subset:
        tri = mesh.triangles[t]
        for i, j in ((0, 1), (1, 2), (2, 0)):
            a, b = slot.get(int(tri[i])), slot.get(int(tri[j]))
            if a is not None and b is not None:
                parent[find(a)] = find(b)
    groups = {}
    for d in dofs:
        groups.setdefault(find(int(d)), []).append(int(d))
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def test_connected_components_oracle():
    rng = np.random.default_rng(4821)
    domain, part = lshape()
    mesh = generate_structured(domain, part, 1.0 / 6.0)
    dofmap = build_dofmap(mesh)
    for _ in range(10):
        tri_subset = np.flatnonzero(rng.random(mesh.n_triangles) < 0.35)
        nodes = np.unique(mesh.triangles[tri_subset])
        dofs = dofmap.global_to_free[nodes]
        dofs = np.sort(dofs[dofs >= 0])
        got = connected_components(mesh, dofmap, dofs, tri_subset)
        want = components_union_find(mesh, dofmap, dofs, tri_subset)
        assert [c.tolist() for c in got] == want
    assert connected_components(mesh, dofmap, np.array([], dtype=int)) == []
