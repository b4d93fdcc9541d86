"""Triangulations of perforated domains.

Fine meshes are structured right-triangle grids (every grid square split
along its lower-left to upper-right diagonal), optionally graded toward
points of interest by longest-edge bisection.  Triangles carry the index of
the coarse cell containing them; meshes are conforming to the coarse
partition by construction and loaded meshes are checked for it.

Boundary edges are stored as canonical (min, max) node pairs with a marker:
DIRICHLET (1) on the outer rectangle, NEUMANN (2) on perforation walls.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, identity
from scipy.sparse.csgraph import connected_components as _cc

from .errors import (
    DegenerateTriangle,
    DisconnectedDomain,
    GeometryNotSnapped,
    NonConformingMesh,
    ParseError,
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


def signed_areas(points, triangles):
    p = points[triangles]
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
# Triangle-format files (.node / .ele / .poly)

def save_triangle(mesh, stem):
    """Write stem.node, stem.ele and stem.poly (1-based indices)."""
    stem = str(stem)
    node_marker = np.zeros(mesh.n_points, dtype=int)
    for val in (NEUMANN, DIRICHLET):  # Dirichlet wins at corners
        sel = mesh.boundary_marker == val
        node_marker[mesh.boundary_edges[sel].ravel()] = val
    with open(stem + ".node", "w") as f:
        f.write("%d 2 0 1\n" % mesh.n_points)
        for i, (x, y) in enumerate(mesh.points):
            f.write("%d %.17g %.17g %d\n" % (i + 1, x, y, node_marker[i]))
    with open(stem + ".ele", "w") as f:
        f.write("%d 3 1\n" % mesh.n_triangles)
        for t, (a, b, c) in enumerate(mesh.triangles):
            f.write("%d %d %d %d %d\n" % (t + 1, a + 1, b + 1, c + 1, mesh.cell_of_triangle[t]))
    with open(stem + ".poly", "w") as f:
        f.write("0 2 0 1\n")
        f.write("%d 1\n" % len(mesh.boundary_edges))
        for k, (a, b) in enumerate(mesh.boundary_edges):
            f.write("%d %d %d %d\n" % (k + 1, a + 1, b + 1, mesh.boundary_marker[k]))
        f.write("0\n")


def _data_lines(path):
    out = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            body = line.split("#", 1)[0].strip()
            if body:
                out.append((lineno, body.split()))
    if not out:
        raise ParseError(path, 1, "empty file")
    return out


def load_triangle(stem, partition=None):
    """Read a mesh written in Triangle's .node/.ele(/.poly) format.

    Vertex numbering may start at 0 or 1 (autodetected).  Boundary markers
    come from the .poly segments when present; boundary edges without a
    marker default to Dirichlet.  When `partition` is given, triangles are
    assigned to coarse cells by centroid and checked for conformity;
    otherwise the .ele attribute column is used (0 when absent).
    """
    stem = str(stem)
    npath, epath = stem + ".node", stem + ".ele"

    lines = _data_lines(npath)
    lineno, head = lines[0]
    try:
        n, dim = int(head[0]), int(head[1])
    except (ValueError, IndexError):
        raise ParseError(npath, lineno, "malformed node header %r" % " ".join(head))
    if dim != 2:
        raise ParseError(npath, lineno, "expected 2-d points, got dimension %d" % dim)
    if len(lines) != n + 1:
        raise ParseError(npath, lines[-1][0], "expected %d point rows, found %d"
                         % (n, len(lines) - 1))
    base = int(lines[1][1][0])
    if base not in (0, 1):
        raise ParseError(npath, lines[1][0], "vertex numbering must start at 0 or 1")
    points = np.empty((n, 2))
    for k, (lineno, tok) in enumerate(lines[1:]):
        try:
            idx = int(tok[0]) - base
            points[idx] = (float(tok[1]), float(tok[2]))
        except (ValueError, IndexError):
            raise ParseError(npath, lineno, "malformed point row %r" % " ".join(tok))
        if idx != k:
            raise ParseError(npath, lineno, "point ids must be consecutive")

    lines = _data_lines(epath)
    lineno, head = lines[0]
    try:
        m, per, nattr = int(head[0]), int(head[1]), int(head[2]) if len(head) > 2 else 0
    except ValueError:
        raise ParseError(epath, lineno, "malformed element header %r" % " ".join(head))
    if per != 3:
        raise ParseError(epath, lineno, "expected 3 nodes per triangle, got %d" % per)
    if len(lines) != m + 1:
        raise ParseError(epath, lines[-1][0], "expected %d element rows, found %d"
                         % (m, len(lines) - 1))
    tris = np.empty((m, 3), dtype=np.int32)
    attrs = np.zeros(m, dtype=np.int32)
    for k, (lineno, tok) in enumerate(lines[1:]):
        try:
            tris[k] = [int(t) - base for t in tok[1:4]]
            if nattr:
                attrs[k] = int(float(tok[4]))
        except (ValueError, IndexError):
            raise ParseError(epath, lineno, "malformed element row %r" % " ".join(tok))
    if tris.min() < 0 or tris.max() >= n:
        raise ParseError(epath, 1, "element vertex index out of range")

    area = signed_areas(points, tris)
    flip = area < 0
    tris[flip] = tris[flip][:, ::-1]
    h = max_edge_length(points, tris)
    bad = np.flatnonzero(np.abs(area) < 1e-14 * h * h)
    if len(bad):
        raise DegenerateTriangle(int(bad[0]))

    bpairs = _boundary_pairs(tris).astype(np.int32)
    marker = np.full(len(bpairs), DIRICHLET, dtype=np.int8)
    ppath = stem + ".poly"
    if os.path.exists(ppath):
        lines = _data_lines(ppath)
        lineno, head = lines[0]
        try:
            inline = int(head[0])
        except ValueError:
            raise ParseError(ppath, lineno, "malformed poly header %r" % " ".join(head))
        pos = 1 + inline  # skip inline vertex rows, vertices live in .node
        lineno, head = lines[pos]
        try:
            nseg = int(head[0])
            has_mark = len(head) > 1 and int(head[1]) == 1
        except (ValueError, IndexError):
            raise ParseError(ppath, lineno, "malformed segment header %r" % " ".join(head))
        seg_marker = {}
        for lineno, tok in lines[pos + 1:pos + 1 + nseg]:
            try:
                a, b = int(tok[1]) - base, int(tok[2]) - base
                seg_marker[(min(a, b), max(a, b))] = int(tok[3]) if has_mark and len(tok) > 3 else DIRICHLET
            except (ValueError, IndexError):
                raise ParseError(ppath, lineno, "malformed segment row %r" % " ".join(tok))
        for k, (a, b) in enumerate(bpairs):
            marker[k] = seg_marker.get((int(a), int(b)), DIRICHLET)

    if partition is not None:
        cells = assign_cells(points, tris, partition)
    else:
        cells = attrs
    return Triangulation(points, tris, cells, bpairs, marker, h)


# ---------------------------------------------------------------------------
# Local refinement by longest-edge bisection (Rivara)

class _MutableMesh:
    """Edit-friendly mesh view used by the bisection routines."""

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
        """Rivara bisection: walk the longest-edge propagation path."""
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
        return Triangulation(points, tris, cells, bpairs, marker,
                             max_edge_length(points, tris))


def refine_toward(mesh, targets, rounds):
    """Grade the mesh toward target points by repeated longest-edge bisection.

    Each round bisects every triangle closer to some target than twice its
    own diameter, so each round roughly halves the local mesh size in a
    shrinking neighbourhood of the targets.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    work = _MutableMesh(mesh)
    for _ in range(rounds):
        ids = sorted(work.tris)
        corners = np.asarray(work.points)[np.array([work.tris[t] for t in ids])]
        for tid in np.asarray(ids)[_near_targets(corners, targets)].tolist():
            if tid in work.tris:
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
# Overlapping subdomains and connectivity

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

    `layers` may be a single int or a per-cell sequence.
    """
    if n_cells is None:
        n_cells = int(mesh.cell_of_triangle.max()) + 1
    if np.isscalar(layers):
        layers = [int(layers)] * n_cells
    elif len(layers) != n_cells:
        raise ValueError("expected %d per-cell layer counts, got %d" % (n_cells, len(layers)))

    m = mesh.n_triangles
    rows = np.repeat(np.arange(m), 3)
    cols = mesh.triangles.ravel()
    tri_node = csr_matrix((np.ones(3 * m, dtype=np.int8), (rows, cols)),
                          shape=(m, mesh.n_points))
    node_tri = tri_node.T.tocsr()

    dof_sets, tri_sets = [], []
    mult = np.zeros(dofmap.n_free, dtype=np.int64)
    for j in range(n_cells):
        tri_mask = (mesh.cell_of_triangle == j).astype(np.int8)
        for _ in range(layers[j]):
            if not tri_mask.any():
                break
            node_mask = (node_tri @ tri_mask > 0).astype(np.int8)
            tri_mask = (tri_node @ node_mask > 0).astype(np.int8)
        tri_ids = np.flatnonzero(tri_mask)
        nodes = np.unique(mesh.triangles[tri_ids])
        dofs = dofmap.global_to_free[nodes]
        dofs = np.sort(dofs[dofs >= 0])
        dof_sets.append(dofs)
        tri_sets.append(tri_ids)
        mult[dofs] += 1
    return Overlap(dof_sets, tri_sets, mult)


def connected_components(mesh, dofmap, dofs, tri_subset=None):
    """Connected components of a set of free dofs linked by mesh edges.

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
    edges = _all_edges(tris)
    a = slot_of_node[edges[:, 0]]
    b = slot_of_node[edges[:, 1]]
    keep = (a >= 0) & (b >= 0)
    g = coo_matrix((np.ones(keep.sum(), dtype=np.int8), (a[keep], b[keep])), shape=(nd, nd))
    n_comp, labels = _cc(g, directed=False)
    comps = [dofs[labels == k] for k in range(n_comp)]
    comps.sort(key=lambda c: int(c.min()))
    return comps
