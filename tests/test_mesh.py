"""Meshing tests.

Counting oracles (node/triangle/boundary counts, areas) are worked out by
hand for small structured grids and frozen.  Graph-flavoured operations
(overlap growth, connected components) are cross-checked against plain
Python breadth-first search / union-find reimplementations.
"""
import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components as _cc

from test_acceptance import _small_instance
from trefftz_dd import mesh as mesh_module
from trefftz_dd.errors import (
    DisconnectedDomain,
    GeometryNotSnapped,
    NonConformingMesh,
    PitchMismatch,
)
from trefftz_dd.experiments import generate_urban_synthetic
from trefftz_dd.geometry import CoarsePartition, PerforatedDomain, Rect
from trefftz_dd.mesh import (
    DIRICHLET,
    NEUMANN,
    _boundary_pairs,
    _near_targets,
    assign_cells,
    build_dofmap,
    build_overlap,
    gathered_areas,
    generate_structured,
    red_refine,
    refine_toward,
)


def unit_square(nx=1, ny=1):
    outer = Rect(0.0, 0.0, 1.0, 1.0)
    return PerforatedDomain(outer, ()), CoarsePartition(outer, nx, ny)


def lshape(n=3):
    outer = Rect(-1.0, -1.0, 1.0, 1.0)
    return (PerforatedDomain(outer, (Rect(0.0, 0.0, 1.0, 1.0),)),
            CoarsePartition(outer, n, n))


def total_area(mesh):
    return gathered_areas(mesh.points[mesh.triangles]).sum()


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
    assert (gathered_areas(mesh.points[mesh.triangles]) > 0).all()
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


def test_conformity_check_on_load():
    domain, part = unit_square()
    mesh = generate_structured(domain, part, 0.5)
    # pitch-1/2 triangles straddle the cells of a 3x3 partition
    with pytest.raises(NonConformingMesh) as exc:
        assign_cells(mesh.points, mesh.triangles, CoarsePartition(domain.outer, 3, 3))
    assert exc.value.tri_index == 0
    # the smallest offending index is reported: at pitch 1/4, triangles 0
    # and 1 fit the lower-left third, triangle 2 crosses x = 1/3
    fine = generate_structured(domain, part, 0.25)
    with pytest.raises(NonConformingMesh) as exc:
        assign_cells(fine.points, fine.triangles, CoarsePartition(domain.outer, 3, 3))
    assert exc.value.tri_index == 2
    # but conform to the 2x2 partition
    cells = assign_cells(mesh.points, mesh.triangles, CoarsePartition(domain.outer, 2, 2))
    assert set(np.unique(cells)) == {0, 1, 2, 3}


@given(seed=st.integers(0, 2 ** 16), nx=st.sampled_from((1, 2, 4, 8)),
       ny=st.sampled_from((1, 2, 4, 8)))
def test_assign_cells_relabels_like_generate_structured(seed, nx, ny):
    # the fine mesh does not depend on the partition, so re-labelling one
    # mesh must give the cells that meshing on the partition gives
    domain, _, mesh = _small_instance(seed)
    part = CoarsePartition(domain.outer, nx, ny)
    direct = generate_structured(domain, part, 1.0)
    for name in ("points", "triangles", "boundary_edges", "boundary_marker"):
        np.testing.assert_array_equal(getattr(direct, name), getattr(mesh, name))
    assert direct.h == mesh.h
    cells = assign_cells(mesh.points, mesh.triangles, part)
    assert cells.dtype == direct.cell_of_triangle.dtype
    np.testing.assert_array_equal(cells, direct.cell_of_triangle)
    # 32 pitches do not divide into 3 cells
    with pytest.raises(NonConformingMesh):
        assign_cells(mesh.points, mesh.triangles,
                     CoarsePartition(domain.outer, 3, 3))


def test_refine_toward_grades_and_conforms():
    domain, part = lshape()
    mesh = generate_structured(domain, part, 1.0 / 6.0)
    fine = refine_toward(mesh, [(0.0, 0.0)], 3)
    assert fine.n_triangles > mesh.n_triangles
    assert_conforming(fine)
    assert (gathered_areas(fine.points[fine.triangles]) > 0).all()
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
    assert (gathered_areas(fine.points[fine.triangles]) > 0).all()
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
    cw = gathered_areas(p) < 0
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
    assert (gathered_areas(fine.points[fine.triangles]) > 0).all()
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


class _DictMesh:
    """Rivara bisection on dicts of tuples, one Python entry per triangle and
    edge, which `mesh._MutableMesh` replaces with arrays and a lazily built
    edge map."""

    def __init__(self, mesh):
        self.points = mesh.points.tolist()
        self.tris = {}
        self.cell = {}
        self.edge_tris = {}
        cells = mesh.cell_of_triangle.tolist()
        for t, tri in enumerate(mesh.triangles.tolist()):
            self._add_tri(t, tuple(tri), cells[t])
        self.next_tri = mesh.n_triangles
        self.bmark = {tuple(e): mk for e, mk in zip(mesh.boundary_edges.tolist(),
                                                    mesh.boundary_marker.tolist())}
        self.node_of_edge = {}

    def _add_tri(self, tid, tri, cell):
        self.tris[tid] = tri
        self.cell[tid] = cell
        for e in self._edges(tri):
            self.edge_tris.setdefault(e, []).append(tid)

    def _remove_tri(self, tid):
        tri = self.tris.pop(tid)
        self.cell.pop(tid)
        for e in self._edges(tri):
            owners = self.edge_tris[e]
            owners.remove(tid)
            if not owners:
                del self.edge_tris[e]

    @staticmethod
    def _edges(tri):
        a, b, c = tri
        return ((min(a, b), max(a, b)), (min(b, c), max(b, c)), (min(a, c), max(a, c)))

    def _length2(self, e):
        (xa, ya), (xb, yb) = self.points[e[0]], self.points[e[1]]
        return (xb - xa) ** 2 + (yb - ya) ** 2

    def longest_edge(self, tid):
        return max(self._edges(self.tris[tid]), key=lambda e: (self._length2(e), e))

    def _midpoint(self, e):
        m = self.node_of_edge.get(e)
        if m is None:
            (xa, ya), (xb, yb) = self.points[e[0]], self.points[e[1]]
            m = len(self.points)
            self.points.append((0.5 * (xa + xb), 0.5 * (ya + yb)))
            self.node_of_edge[e] = m
        return m

    def _split(self, tid, e, mid):
        a, b, c = self.tris[tid]
        cyc = [(a, b, c), (b, c, a), (c, a, b)]
        p, q, r = next(t for t in cyc if (min(t[0], t[1]), max(t[0], t[1])) == e)
        cell = self.cell[tid]
        self._remove_tri(tid)
        self._add_tri(self.next_tri, (p, mid, r), cell)
        self._add_tri(self.next_tri + 1, (mid, q, r), cell)
        self.next_tri += 2

    def bisect_edge(self, e):
        mid = self._midpoint(e)
        for tid in list(self.edge_tris.get(e, ())):
            self._split(tid, e, mid)
        if e in self.bmark:
            mk = self.bmark.pop(e)
            a, b = e
            self.bmark[(min(a, mid), max(a, mid))] = mk
            self.bmark[(min(b, mid), max(b, mid))] = mk

    def refine_triangle(self, tid):
        while tid in self.tris:
            t = tid
            while True:
                e = self.longest_edge(t)
                others = [o for o in self.edge_tris[e] if o != t]
                if not others or self.longest_edge(others[0]) == e:
                    self.bisect_edge(e)
                    break
                t = others[0]

    def to_mesh(self):
        order = sorted(self.tris)
        tris = np.array([self.tris[t] for t in order], dtype=np.int32)
        cells = np.array([self.cell[t] for t in order], dtype=np.int32)
        points = np.asarray(self.points)
        pairs = sorted(self.bmark)
        bpairs = np.array(pairs, dtype=np.int32).reshape(-1, 2)
        marker = np.array([self.bmark[e] for e in pairs], dtype=np.int8)
        return mesh_module.Triangulation(points, tris, cells, bpairs, marker,
                                         mesh_module.max_edge_length(points, tris))


def _refine_toward_ref(mesh, targets, rounds):
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    work = _DictMesh(mesh)
    for _ in range(rounds):
        ids = sorted(work.tris)
        corners = np.asarray(work.points)[np.array([work.tris[t] for t in ids])]
        for tid in np.asarray(ids)[_near_targets(corners, targets)].tolist():
            if tid in work.tris:
                work.refine_triangle(tid)
    return work.to_mesh()


def _assert_refines_like_ref(mesh, targets, rounds):
    fine = refine_toward(mesh, targets, rounds)
    ref = _refine_toward_ref(mesh, targets, rounds)
    for field in ("points", "triangles", "cell_of_triangle", "boundary_edges",
                  "boundary_marker"):
        assert _same_bytes(getattr(fine, field), getattr(ref, field)), field
    assert fine.h == ref.h
    return fine


def _tied_mesh(n=6):
    """Staggered rows of triangles with base 1 and height 1, so each
    triangle's two longest edges tie exactly (squared lengths 1.25)."""
    j, i = np.divmod(np.arange((n + 1) ** 2), n + 1)
    points = np.column_stack([i + 0.5 * (j % 2), j]).astype(float)
    tris = []
    for r in range(n):
        for c in range(n):
            a, b = r * (n + 1) + c, (r + 1) * (n + 1) + c
            tris += ([(a, a + 1, b), (a + 1, b + 1, b)] if r % 2 == 0
                     else [(a, a + 1, b + 1), (a, b + 1, b)])
    tris = np.array(tris, dtype=np.int32)
    pairs = _boundary_pairs(tris)
    return mesh_module.Triangulation(points, tris, np.zeros(len(tris), np.int32), pairs,
                                     np.full(len(pairs), DIRICHLET, np.int8),
                                     mesh_module.max_edge_length(points, tris))


# the graded meshes of the tests above, EDGE_KEY_MESHES["graded"], no
# targets, and length ties
@pytest.mark.parametrize("make, targets, rounds", [
    (lambda: generate_structured(*lshape(), 1.0 / 6.0), [(0.0, 0.0)], 3),
    (lambda: generate_structured(*lshape(), 1.0 / 6.0), [(0.0, 0.0)], 2),
    (lambda: generate_structured(*lshape(), 1.0 / 6.0), [(0.0, 0.0), (-0.5, -0.5)], 3),
    (lambda: generate_structured(*lshape(), 1.0 / 12.0), np.array([[0.0, 0.0]]), 2),
    (lambda: generate_structured(*lshape(), 1.0 / 6.0), np.empty((0, 2)), 3),
    (_tied_mesh, [(3.0, 3.0)], 3),
])
def test_refine_toward_matches_dict_oracle(make, targets, rounds):
    mesh = make()
    fine = _assert_refines_like_ref(mesh, targets, rounds)
    assert (fine.n_triangles > mesh.n_triangles) == (len(targets) > 0)


_coords = st.floats(-1.5, 1.5, allow_nan=False)


@given(divisions=st.sampled_from(range(6, 25, 3)), rounds=st.integers(0, 4),
       targets=st.lists(st.tuples(_coords, _coords), min_size=1, max_size=2))
@example(divisions=6, rounds=3, targets=[(0.5, 0.5), (-1.25, 1.5)])  # in the hole, outside
def test_refine_toward_matches_dict_oracle_random(divisions, rounds, targets):
    _assert_refines_like_ref(generate_structured(*lshape(), 1.0 / divisions),
                             targets, rounds)


@pytest.mark.parametrize("targets, rounds", [
    (np.zeros((1, 3)), 1),
    ([], 1),
    ((0.0, 0.0), 1),
    ([(np.nan, 0.0)], 1),
    ([(0.0, np.inf)], 1),
    ([(0.0, 0.0)], -1),
    ([(0.0, 0.0)], 1.0),
])
def test_refine_toward_rejects_bad_input(targets, rounds):
    with pytest.raises(ValueError):
        refine_toward(generate_structured(*lshape(), 1.0 / 6.0), targets, rounds)


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


def build_overlap_per_cell(mesh, dofmap, layers, n_cells):
    """Reference: grow one cell at a time with two SpMVs per layer."""
    if np.isscalar(layers):
        layers = [int(layers)] * n_cells
    m = mesh.n_triangles
    tri_node = csr_matrix((np.ones(3 * m, dtype=np.int8),
                           (np.repeat(np.arange(m), 3), mesh.triangles.ravel())),
                          shape=(m, mesh.n_points))
    node_tri = tri_node.T.tocsr()
    dof_sets, tri_sets = [], []
    mult = np.zeros(dofmap.n_free, dtype=np.int64)
    for j in range(n_cells):
        tri_mask = (mesh.cell_of_triangle == j).astype(np.int8)
        for _ in range(layers[j]):
            node_mask = (node_tri @ tri_mask > 0).astype(np.int8)
            tri_mask = (tri_node @ node_mask > 0).astype(np.int8)
        tri_ids = np.flatnonzero(tri_mask)
        dofs = dofmap.global_to_free[np.unique(mesh.triangles[tri_ids])]
        dofs = np.sort(dofs[dofs >= 0])
        dof_sets.append(dofs)
        tri_sets.append(tri_ids)
        mult[dofs] += 1
    return dof_sets, tri_sets, mult


def _lshape_overlap_case():
    domain, part = lshape()
    return generate_structured(domain, part, 1.0 / 24.0), part.n_cells


def _urban_overlap_case():
    domain = generate_urban_synthetic(5, extent=32.0, pitch=1.0, n_buildings=3,
                                      n_walls=1)
    part = CoarsePartition(domain.outer, 4, 4)
    return generate_structured(domain, part, 1.0), part.n_cells


@pytest.mark.parametrize("case", [_lshape_overlap_case, _urban_overlap_case])
def test_overlap_matches_per_cell_growth(case):
    mesh, n_cells = case()
    dofmap = build_dofmap(mesh)
    rng = np.random.default_rng(11)
    # cell 8 of the L-shape has no triangles; n_cells + 1 adds an empty cell
    for layers, cells in ((0, n_cells), (1, n_cells), (3, n_cells),
                          (rng.integers(0, 4, n_cells + 1).tolist(), n_cells + 1)):
        ov = build_overlap(mesh, dofmap, layers, n_cells=cells)
        dof_sets, tri_sets, mult = build_overlap_per_cell(mesh, dofmap, layers, cells)
        assert len(ov.dof_sets) == len(ov.tri_sets) == cells
        for got, want in zip(ov.dof_sets + ov.tri_sets + [ov.multiplicity],
                             dof_sets + tri_sets + [mult]):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_per_cell_layers():
    domain, part = unit_square(2, 2)
    mesh = generate_structured(domain, part, 1.0 / 8.0)
    dofmap = build_dofmap(mesh)
    ov = build_overlap(mesh, dofmap, [1, 2, 1, 3], n_cells=4)
    sizes = [len(s) for s in ov.tri_sets]
    assert sizes[1] > sizes[0] and sizes[3] > sizes[1]
    with pytest.raises(ValueError):
        build_overlap(mesh, dofmap, [1, 2], n_cells=4)


def connected_components(mesh, dofmap, dofs, tri_subset=None):
    """Reference: connected components of a set of free dofs linked by mesh
    edges, one csgraph call per set.

    Only edges of triangles in `tri_subset` (all triangles when None) with
    both endpoints among the given dofs count.  Returns a list of sorted
    arrays of free-dof indices, ordered by their smallest member.
    """
    dofs = np.asarray(dofs, dtype=np.int64)
    if len(dofs) == 0:
        return []
    nd = len(dofs)
    slot_of_node = np.full(mesh.n_points, -1, dtype=np.int64)
    slot_of_node[dofmap.free_nodes[dofs]] = np.arange(nd)

    tris = mesh.triangles if tri_subset is None else mesh.triangles[tri_subset]
    edges = mesh_module._all_edges(tris)
    a = slot_of_node[edges[:, 0]]
    b = slot_of_node[edges[:, 1]]
    keep = (a >= 0) & (b >= 0)
    g = coo_matrix((np.ones(keep.sum(), dtype=np.int8), (a[keep], b[keep])), shape=(nd, nd))
    n_comp, labels = _cc(g, directed=False)
    comps = [dofs[labels == k] for k in range(n_comp)]
    comps.sort(key=lambda c: int(c.min()))
    return comps


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
