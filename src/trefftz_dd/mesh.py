"""Triangulations of perforated domains.

Fine meshes are structured right-triangle grids (every grid square split
along its lower-left to upper-right diagonal), optionally graded toward
points of interest by longest-edge bisection.  Triangles carry the index of
the coarse cell containing them; meshes are conforming to the coarse
partition by construction, and `assign_cells` checks conformity when it
labels a mesh's triangles with the cells of another partition.

Boundary edges are stored as canonical (min, max) node pairs with a marker:
DIRICHLET (1) on the outer rectangle, NEUMANN (2) on perforation walls.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, diags, identity
from scipy.sparse.csgraph import connected_components as _cc

from .errors import (
    DegenerateTriangle,
    DisconnectedDomain,
    GeometryNotSnapped,
    NonConformingMesh,
    PitchMismatch,
)

DIRICHLET = 1
NEUMANN = 2


@dataclass
class Triangulation:
    points: np.ndarray           # (n, 2) float64
    triangles: np.ndarray        # (m, 3) int32, counter-clockwise
    cell_of_triangle: np.ndarray  # (m,) int32 coarse-cell index
    boundary_edges: np.ndarray   # (nb, 2) int32, canonical (min, max) pairs
    boundary_marker: np.ndarray  # (nb,) int8
    h: float                     # longest edge in the mesh

    @property
    def n_points(self):
        return len(self.points)

    @property
    def n_triangles(self):
        return len(self.triangles)


@dataclass
class DofMap:
    """Free/constrained node split induced by the Dirichlet boundary."""

    n_nodes: int
    free_nodes: np.ndarray       # sorted node indices
    dirichlet_nodes: np.ndarray  # sorted node indices
    global_to_free: np.ndarray   # (n_nodes,) position among free nodes, -1 otherwise

    @property
    def n_free(self):
        return len(self.free_nodes)


def build_dofmap(mesh):
    dirichlet = np.unique(mesh.boundary_edges[mesh.boundary_marker == DIRICHLET])
    mask = np.ones(mesh.n_points, dtype=bool)
    mask[dirichlet] = False
    free = np.flatnonzero(mask)
    g2f = np.full(mesh.n_points, -1, dtype=np.int64)
    g2f[free] = np.arange(len(free))
    return DofMap(mesh.n_points, free, dirichlet, g2f)


def gathered_areas(p):
    """Signed areas of triangles from their vertices p = points[triangles]."""
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def _edge_lengths(points, pairs):
    d = points[pairs[:, 0]] - points[pairs[:, 1]]
    return np.hypot(d[:, 0], d[:, 1])


def _all_edges(triangles):
    e = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    return np.sort(e, axis=1)


def max_edge_length(points, triangles):
    return float(_edge_lengths(points, _all_edges(triangles)).max())


def _unique_edges(edges, n):
    """Distinct rows of `edges`, sorted pairs a < b < n, in lexicographic
    order, with the inverse map and the counts: np.unique over the int64
    keys a*n + b, whose order is the lexicographic row order."""
    keys, inverse, counts = np.unique(edges[:, 0].astype(np.int64) * n + edges[:, 1],
                                      return_inverse=True, return_counts=True)
    return np.column_stack([keys // n, keys % n]).astype(edges.dtype), inverse, counts


def _boundary_pairs(triangles):
    """Canonical pairs of edges owned by exactly one triangle."""
    uniq, _, counts = _unique_edges(_all_edges(triangles), int(triangles.max()) + 1)
    return uniq[counts == 1]


def _int_ratio(length, step, what):
    if step <= 0:
        raise PitchMismatch("the pitch must be positive, got %r" % (step,))
    r = length / step
    n = int(round(r))
    if n < 1 or abs(r - n) > 1e-9 * max(1.0, abs(r)):
        raise PitchMismatch("%s (%r) is not a positive multiple of the pitch %r"
                            % (what, length, step))
    return n


def _assert_connected(n_points, triangles):
    i = np.repeat(np.arange(len(triangles)), 3)
    j = triangles.ravel()
    g = coo_matrix((np.ones(len(j)), (i, j)), shape=(len(triangles), n_points))
    n_comp, _ = _cc(g.T @ g, directed=False)
    if n_comp > 1:
        raise DisconnectedDomain("perforations split the domain into %d parts" % n_comp)


def generate_structured(domain, partition, pitch):
    """Structured right-triangle mesh of the perforated domain.

    The fine pitch must divide every coarse cell side and all perforation
    coordinates must lie on the fine grid, so that grid squares are either
    kept whole or removed whole.  Kept squares are split along the
    lower-left to upper-right diagonal.
    """
    outer = domain.outer
    gx = _int_ratio(outer.width, pitch, "domain width")
    gy = _int_ratio(outer.height, pitch, "domain height")
    if gx % partition.nx or gy % partition.ny:
        raise PitchMismatch("pitch %r does not divide the %d x %d coarse cells"
                            % (pitch, partition.nx, partition.ny))
    spx, spy = gx // partition.nx, gy // partition.ny

    def grid_index(coord, origin, n):
        t = (coord - origin) / pitch
        k = int(round(t))
        if abs(t - k) > 1e-9:
            raise GeometryNotSnapped("perforation coordinate %r is off the pitch-%g grid"
                                     % (coord, pitch))
        return min(max(k, 0), n)

    keep_sq = np.ones((gy, gx), dtype=bool)
    interior = np.zeros((gy + 1, gx + 1), dtype=bool)
    for p in domain.perforations:
        i0 = grid_index(p.x0, outer.x0, gx)
        i1 = grid_index(p.x1, outer.x0, gx)
        j0 = grid_index(p.y0, outer.y0, gy)
        j1 = grid_index(p.y1, outer.y0, gy)
        keep_sq[j0:j1, i0:i1] = False
        interior[j0 + 1:j1, i0 + 1:i1] = True

    used = np.zeros((gy + 1, gx + 1), dtype=bool)
    J, I = np.nonzero(keep_sq)
    if len(J) == 0:
        raise PitchMismatch("no grid square survives the perforations")
    for dj, di in ((0, 0), (0, 1), (1, 0), (1, 1)):
        used[J + dj, I + di] = True
    used &= ~interior

    ids = np.full((gy + 1, gx + 1), -1, dtype=np.int64)
    jj, ii = np.nonzero(used)
    ids[jj, ii] = np.arange(len(jj))
    points = np.column_stack([outer.x0 + ii * pitch, outer.y0 + jj * pitch]).astype(float)

    a = ids[J, I]
    b = ids[J, I + 1]
    c = ids[J + 1, I + 1]
    d = ids[J + 1, I]
    tris = np.empty((2 * len(J), 3), dtype=np.int32)
    tris[0::2] = np.column_stack([a, b, c])
    tris[1::2] = np.column_stack([a, c, d])
    cells = np.repeat((J // spy) * partition.nx + (I // spx), 2).astype(np.int32)

    _assert_connected(len(points), tris)

    bpairs = _boundary_pairs(tris).astype(np.int32)
    mids = 0.5 * (points[bpairs[:, 0]] + points[bpairs[:, 1]])
    tol = 1e-9 * pitch
    on_outer = ((np.abs(mids[:, 0] - outer.x0) < tol) | (np.abs(mids[:, 0] - outer.x1) < tol)
                | (np.abs(mids[:, 1] - outer.y0) < tol) | (np.abs(mids[:, 1] - outer.y1) < tol))
    marker = np.where(on_outer, DIRICHLET, NEUMANN).astype(np.int8)

    return Triangulation(points, tris, cells, bpairs, marker, float(pitch) * np.sqrt(2.0))


def assign_cells(points, triangles, partition):
    """Coarse-cell index per triangle, rejecting triangles that straddle cells."""
    outer = partition.outer
    w, h = outer.width / partition.nx, outer.height / partition.ny
    p = points[triangles]
    cen = p.mean(axis=1)
    ix = np.clip(np.floor((cen[:, 0] - outer.x0) / w).astype(int), 0, partition.nx - 1)
    iy = np.clip(np.floor((cen[:, 1] - outer.y0) / h).astype(int), 0, partition.ny - 1)
    tol = 1e-9 * max(w, h)
    x0, y0 = (outer.x0 + ix * w)[:, None], (outer.y0 + iy * h)[:, None]
    bad = ((p[..., 0] < x0 - tol) | (p[..., 0] > x0 + w + tol)
           | (p[..., 1] < y0 - tol) | (p[..., 1] > y0 + h + tol)).any(axis=1)
    if bad.any():
        raise NonConformingMesh(int(np.argmax(bad)))
    return (iy * partition.nx + ix).astype(np.int32)


# ---------------------------------------------------------------------------
# Local refinement by longest-edge bisection (Rivara)

def _edge_key(a, b):
    """int64 key of the sorted node pair a < b; node ids are int32, so
    keys order pairs lexicographically."""
    return a * 2**31 + b


def _grown(a):
    """`a` followed by half as many zero rows again, as spare capacity."""
    return np.concatenate([a, np.zeros((len(a) // 2 + 8,) + a.shape[1:], a.dtype)])


class _MutableMesh:
    """Mesh under longest-edge bisection, held in numpy arrays.

    `points` (rows below `n_points`), `tris` and `cell` (rows below
    `next_tri`) carry spare rows, and `alive` is False on dead and spare
    triangle rows.  Splitting a triangle clears its `alive` flag and appends
    two rows, with ids `next_tri` and `next_tri + 1`; bisecting an edge
    appends one point.

    `edge_tris` maps a canonical (min, max) edge to the ascending ids of the
    live triangles that own it.  An entry is made the first time the walk
    reads or changes its edge, from its owners in the input mesh, looked up
    in one sort of the `_edge_key`s of all input edges (an edge with a new
    point finds none).  Entries stay when they empty.  So the Python work
    scales with the triangles the walk visits, not with the mesh.  `bmark`
    maps boundary edges to markers.
    """

    def __init__(self, mesh):
        self.points = _grown(mesh.points)
        self.n_points = mesh.n_points
        self.tris = _grown(mesh.triangles)
        self.cell = _grown(mesh.cell_of_triangle)
        self.alive = np.arange(len(self.tris)) < mesh.n_triangles
        self.next_tri = mesh.n_triangles
        edges = _all_edges(mesh.triangles).astype(np.int64)
        keys = _edge_key(edges[:, 0], edges[:, 1])
        order = np.argsort(keys)
        self.edge_keys, self.edge_owner = keys[order], order % mesh.n_triangles
        self.edge_tris = {}
        self.bmark = {tuple(e): mk for e, mk in zip(mesh.boundary_edges.tolist(),
                                                    mesh.boundary_marker.tolist())}

    def _owners(self, e):
        owners = self.edge_tris.get(e)
        if owners is None:
            key = _edge_key(*e)
            lo, hi = np.searchsorted(self.edge_keys, (key, key + 1))
            owners = self.edge_tris[e] = sorted(self.edge_owner[lo:hi].tolist())
        return owners

    def _tri(self, tid):
        return tuple(self.tris[tid].tolist())

    def _add_tri(self, tri, cell):
        tid = self.next_tri
        if tid == len(self.tris):
            self.tris, self.cell, self.alive = map(_grown, (self.tris, self.cell, self.alive))
        self.tris[tid], self.cell[tid], self.alive[tid] = tri, cell, True
        self.next_tri += 1
        for e in self._edges(tri):
            self._owners(e).append(tid)

    def _remove_tri(self, tid):
        self.alive[tid] = False
        for e in self._edges(self._tri(tid)):
            self._owners(e).remove(tid)

    @staticmethod
    def _edges(tri):
        a, b, c = tri
        return ((min(a, b), max(a, b)), (min(b, c), max(b, c)), (min(a, c), max(a, c)))

    def _ends(self, e):
        return self.points[list(e)].tolist()

    def _length2(self, e):
        (xa, ya), (xb, yb) = self._ends(e)
        return (xb - xa) ** 2 + (yb - ya) ** 2

    def longest_edge(self, tid):
        return max(self._edges(self._tri(tid)), key=lambda e: (self._length2(e), e))

    def _midpoint(self, e):
        (xa, ya), (xb, yb) = self._ends(e)
        m = self.n_points
        if m == len(self.points):
            self.points = _grown(self.points)
        self.points[m] = (0.5 * (xa + xb), 0.5 * (ya + yb))
        self.n_points += 1
        return m

    def _split(self, tid, e, mid):
        a, b, c = self._tri(tid)
        cyc = [(a, b, c), (b, c, a), (c, a, b)]
        p, q, r = next(t for t in cyc if (min(t[0], t[1]), max(t[0], t[1])) == e)
        cell = self.cell[tid]
        self._remove_tri(tid)
        self._add_tri((p, mid, r), cell)
        self._add_tri((mid, q, r), cell)

    def bisect_edge(self, e):
        mid = self._midpoint(e)
        for tid in list(self._owners(e)):
            self._split(tid, e, mid)
        if e in self.bmark:
            mk = self.bmark.pop(e)
            a, b = e
            self.bmark[(min(a, mid), max(a, mid))] = mk
            self.bmark[(min(b, mid), max(b, mid))] = mk

    def refine_triangle(self, tid):
        """Rivara bisection: walk the longest-edge propagation path."""
        while self.alive[tid]:
            t = tid
            while True:
                e = self.longest_edge(t)
                others = [o for o in self._owners(e) if o != t]
                if not others or self.longest_edge(others[0]) == e:
                    self.bisect_edge(e)
                    break
                t = others[0]

    def to_mesh(self):
        keep = np.flatnonzero(self.alive)
        tris = self.tris[keep]
        points = self.points[:self.n_points].copy()
        pairs = np.array(list(self.bmark), dtype=np.int64).reshape(-1, 2)
        order = np.argsort(_edge_key(pairs[:, 0], pairs[:, 1]))
        marker = np.array(list(self.bmark.values()), dtype=np.int8)[order]
        return Triangulation(points, tris, self.cell[keep], pairs[order].astype(np.int32),
                             marker, max_edge_length(points, tris))


def refine_toward(mesh, targets, rounds):
    """Grade the mesh toward target points by repeated longest-edge bisection.

    Each round bisects every triangle closer to some target than twice its
    own diameter, so each round roughly halves the local mesh size in a
    shrinking neighbourhood of the targets.  `targets` is a finite (k, 2)
    array, k >= 0, and `rounds` a non-negative integer; anything else raises
    ValueError.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2 or targets.shape[1] != 2 or not np.isfinite(targets).all():
        raise ValueError("targets must be a finite (k, 2) array, got shape %s"
                         % (targets.shape,))
    if not isinstance(rounds, (int, np.integer)) or rounds < 0:
        raise ValueError("rounds must be a non-negative integer, got %r" % (rounds,))
    work = _MutableMesh(mesh)
    for _ in range(rounds):
        ids = np.flatnonzero(work.alive)
        corners = work.points[work.tris[ids]]
        for tid in ids[_near_targets(corners, targets)].tolist():
            work.refine_triangle(tid)
    return work.to_mesh()


def _near_targets(corners, targets):
    """Mask of the counter-clockwise triangles `corners` (m, 3, 2) whose
    squared distance, as closed sets, to some of the (k, 2) `targets` is
    below four times their squared diameter."""
    x, y = corners[..., 0], corners[..., 1]
    diam2 = np.maximum.reduce([(x[:, i] - x[:, j]) ** 2 + (y[:, i] - y[:, j]) ** 2
                               for i, j in ((0, 1), (1, 2), (0, 2))])
    qx, qy = targets[:, 0], targets[:, 1]
    inside, dist2 = True, np.inf
    for i in range(3):
        ax, ay = x[:, i, None], y[:, i, None]
        abx, aby = x[:, (i + 1) % 3, None] - ax, y[:, (i + 1) % 3, None] - ay
        inside = inside & (abx * (qy - ay) - aby * (qx - ax) >= 0.0)
        t = np.clip(((qx - ax) * abx + (qy - ay) * aby) / (abx * abx + aby * aby), 0.0, 1.0)
        dist2 = np.minimum(dist2, (ax + t * abx - qx) ** 2 + (ay + t * aby - qy) ** 2)
    return (np.where(inside, 0.0, dist2) < 4.0 * diam2[:, None]).any(axis=1)


# ---------------------------------------------------------------------------
# Uniform (red) refinement with prolongation

def red_refine(mesh, levels=1):
    """Split every triangle into four, `levels` times.

    Returns the refined mesh and the prolongation matrix P mapping nodal
    values on the input mesh to nodal values on the refined one (piecewise
    linear interpolation, so linear fields are reproduced exactly).
    """
    points = mesh.points
    tris = mesh.triangles
    cells = mesh.cell_of_triangle
    bedges = mesh.boundary_edges
    bmark = mesh.boundary_marker
    P = identity(mesh.n_points, format="csr")

    for _ in range(levels):
        n = len(points)
        edges = _all_edges(tris)
        uniq, inverse, _ = _unique_edges(edges, n)
        ne = len(uniq)
        mid_id = n + np.arange(ne)
        points = np.vstack([points, 0.5 * (points[uniq[:, 0]] + points[uniq[:, 1]])])

        rows = np.concatenate([np.arange(n), mid_id, mid_id])
        cols = np.concatenate([np.arange(n), uniq[:, 0], uniq[:, 1]])
        vals = np.concatenate([np.ones(n), np.full(2 * ne, 0.5)])
        P_lev = csr_matrix((vals, (rows, cols)), shape=(n + ne, n))
        P = P_lev @ P

        m = len(tris)
        mab = mid_id[inverse[:m]]
        mbc = mid_id[inverse[m:2 * m]]
        mca = mid_id[inverse[2 * m:]]
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        children = np.empty((4 * m, 3), dtype=np.int64)
        children[0::4] = np.column_stack([a, mab, mca])
        children[1::4] = np.column_stack([mab, b, mbc])
        children[2::4] = np.column_stack([mca, mbc, c])
        children[3::4] = np.column_stack([mab, mbc, mca])
        tris = children
        cells = np.repeat(cells, 4)

        bkey = np.sort(bedges, axis=1).astype(np.int64)
        scalar = uniq[:, 0].astype(np.int64) * n + uniq[:, 1]  # lexicographic, sorted
        loc = np.searchsorted(scalar, bkey[:, 0] * n + bkey[:, 1])
        bm = mid_id[loc]
        nb = len(bedges)
        newb = np.empty((2 * nb, 2), dtype=np.int64)
        newb[0::2] = np.column_stack([bkey[:, 0], bm])
        newb[1::2] = np.column_stack([bm, bkey[:, 1]])
        bedges = np.sort(newb, axis=1)
        bmark = np.repeat(bmark, 2)

    fine = Triangulation(points, tris.astype(np.int32), cells.astype(np.int32),
                         bedges.astype(np.int32), bmark.astype(np.int8),
                         max_edge_length(points, tris))
    return fine, P.tocsr()


# ---------------------------------------------------------------------------
# Overlapping subdomains

@dataclass
class Overlap:
    """Overlapping subdomains grown from the coarse cells.

    dof_sets[j] are the free dofs of subdomain j (sorted), tri_sets[j] its
    triangles, and multiplicity[k] counts the subdomains owning free dof k.
    """

    dof_sets: list
    tri_sets: list
    multiplicity: np.ndarray

    @property
    def n_subdomains(self):
        return len(self.dof_sets)


def build_overlap(mesh, dofmap, layers, n_cells=None):
    """Grow each coarse cell by `layers` rings of node-connected triangles.

    `layers` may be a single int or a per-cell sequence.  All cells grow at
    once: the rows of an n_cells x n_triangles indicator T start as the
    cells' triangles, and each ring replaces T by the support of
    T (triangle -> node) (node -> triangle), on the rows whose own layer
    count is not yet reached.  Row j of T gives tri_sets[j]; row j of T
    (triangle -> free dof) gives dof_sets[j], sorted, with the Dirichlet
    nodes dropped.  Cells without triangles give empty sets.
    """
    if n_cells is None:
        n_cells = int(mesh.cell_of_triangle.max()) + 1
    if np.isscalar(layers):
        layers = [int(layers)] * n_cells
    elif len(layers) != n_cells:
        raise ValueError("expected %d per-cell layer counts, got %d" % (n_cells, len(layers)))
    layers = np.asarray(layers, dtype=np.int64)

    m = mesh.n_triangles
    rows = np.repeat(np.arange(m), 3)
    cols = mesh.triangles.ravel()
    tri_node = csr_matrix((np.ones(3 * m, dtype=np.int8), (rows, cols)),
                          shape=(m, mesh.n_points))
    node_tri = tri_node.T.tocsr()

    T = csr_matrix((np.ones(m, dtype=np.int32), (mesh.cell_of_triangle, np.arange(m))),
                   shape=(n_cells, m))
    for k in range(int(layers.max(initial=0))):
        growing = diags(layers > k, dtype=np.int32)
        T = ((T + growing @ T @ tri_node @ node_tri) > 0).astype(np.int32)
    dofs = T @ tri_node[:, dofmap.free_nodes]
    T.sort_indices()
    dofs.sort_indices()
    tri_sets = np.split(T.indices.astype(np.int64), T.indptr[1:-1])
    dof_sets = np.split(dofs.indices.astype(np.int64), dofs.indptr[1:-1])
    mult = np.bincount(dofs.indices, minlength=dofmap.n_free)
    return Overlap(dof_sets, tri_sets, mult)


def _stacked(sets):
    """Per-subdomain index sets (an Overlap's dof_sets or tri_sets) stacked
    subdomain after subdomain: the concatenated indices and the subdomain
    of each entry."""
    return np.concatenate(sets), np.repeat(np.arange(len(sets)), list(map(len, sets)))
