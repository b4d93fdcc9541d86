"""Coarse spaces built on the partition skeleton.

The main space takes piecewise-polynomial traces on the skeleton (nodal
hats, plus quadratic edge bubbles for p = 2), extends each trace into the
adjacent coarse cells as a discrete-harmonic function (solving the fine
stiffness operator cell by cell with the trace as boundary data), and glues
the cell pieces by taking each skeleton value once from the trace.  The
resulting functions satisfy the fine-mesh equation away from the skeleton,
which is what buys superconvergence on perforated geometries.

A Nicolaides-style space (one weighted indicator per connected component of
each overlapping subdomain) is provided as the classical baseline.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    GluingMismatch,
    NodeOffSkeleton,
    NotPositiveDefinite,
    RankDeficient,
    SingularLocalSystem,
)
from .geometry import snap
from .mesh import _all_edges, _stacked
from .numerics import Factorization


# ---------------------------------------------------------------------------
# Locating the skeleton inside the fine mesh

class _AxisBuckets:
    """Mesh nodes grouped by snapped x (sorted by y) and by snapped y."""

    def __init__(self, points):
        self.by_x = self._group(points, 0)
        self.by_y = self._group(points, 1)

    @staticmethod
    def _group(points, axis):
        """{snap(coordinate): (other coordinates ascending, node ids)}; ties
        in the other coordinate keep ascending node id.  Distinct raw values
        that snap alike share one bucket."""
        values, inverse = np.unique(points[:, axis], return_inverse=True)
        keys, key_of_value = np.unique([snap(v) for v in values], return_inverse=True)
        key = key_of_value[inverse.ravel()]
        other = points[:, 1 - axis]
        ids = np.lexsort((other, key))
        chunks = np.split(ids, np.flatnonzero(np.diff(key[ids])) + 1)
        return {k: (other[chunk], chunk) for k, chunk in zip(keys.tolist(), chunks)}

    def on_segment(self, pa, pb):
        """Node ids on the closed axis-aligned segment pa-pb, ordered pa -> pb."""
        (xa, ya), (xb, yb) = pa, pb
        if snap(xa) == snap(xb):
            coords, ids = self.by_x.get(snap(xa), (np.empty(0), np.empty(0, dtype=int)))
            lo, hi = sorted((ya, yb))
        else:
            coords, ids = self.by_y.get(snap(ya), (np.empty(0), np.empty(0, dtype=int)))
            lo, hi = sorted((xa, xb))
        tol = 1e-9 * max(hi - lo, 1e-12)
        a = bisect_left(coords, lo - tol)
        b = bisect_right(coords, hi + tol)
        sel_coords, sel = coords[a:b], ids[a:b]
        start = ya if snap(xa) == snap(xb) else xa
        end = yb if snap(xa) == snap(xb) else xb
        t = (sel_coords - start) / (end - start)
        order = np.argsort(t, kind="stable")
        return sel[order], t[order]

    def node_at(self, pos):
        coords, ids = self.by_x.get(snap(pos[0]), (None, None))
        if coords is None:
            return -1
        k = bisect_left(coords, pos[1] - 1e-9)
        if k < len(ids) and abs(coords[k] - pos[1]) <= 1e-9:
            return int(ids[k])
        return -1


def _edge_node_lists(mesh, skeleton, buckets):
    """Per-edge (node ids, parameters) plus the fine id of every coarse node."""
    fine_of_coarse = np.empty(len(skeleton.nodes), dtype=np.int64)
    for i, node in enumerate(skeleton.nodes):
        fid = buckets.node_at(node.position)
        if fid < 0:
            raise NodeOffSkeleton(i, node.position)
        fine_of_coarse[i] = fid
    edge_nodes = []
    for e in skeleton.edges:
        pa, pb = skeleton.edge_points(e)
        ids, t = buckets.on_segment(pa, pb)
        if len(ids) < 2 or abs(t[0]) > 1e-9 or abs(t[-1] - 1.0) > 1e-9:
            raise NodeOffSkeleton(e.endpoints[0], pa)
        edge_nodes.append((ids, t))
    return fine_of_coarse, edge_nodes


# ---------------------------------------------------------------------------
# Cell-local solvers

@dataclass
class CellData:
    cell: int
    nodes: np.ndarray      # all mesh nodes of the cell's triangles (sorted)
    trace: np.ndarray      # the skeleton part of those nodes (sorted)
    interior: np.ndarray   # the rest (sorted)
    trace_mask: np.ndarray  # boolean mask of trace entries within nodes
    A_it: csr_matrix       # interior x trace coupling
    fact: Factorization | None  # interior solver; None when no interior nodes


@dataclass
class CellCache:
    """Skeleton location data plus one local factorization per coarse cell.

    Depends only on the mesh and the skeleton's geometry, so one cache
    serves every trace degree p and every edge-refinement level r.
    """

    skeleton_fine: np.ndarray       # sorted mesh node ids on the skeleton
    slot_of_node: np.ndarray        # mesh node -> position in skeleton_fine (-1 off it)
    cells: dict                     # cell id -> CellData
    buckets: _AxisBuckets = field(repr=False, default=None)


def build_cell_cache(mesh, system, skeleton):
    buckets = _AxisBuckets(mesh.points)
    on_skel = np.zeros(mesh.n_points, dtype=bool)
    for e in skeleton.edges:
        pa, pb = skeleton.edge_points(e)
        ids, _ = buckets.on_segment(pa, pb)
        on_skel[ids] = True
    skeleton_fine = np.flatnonzero(on_skel)
    slot = np.full(mesh.n_points, -1, dtype=np.int64)
    slot[skeleton_fine] = np.arange(len(skeleton_fine))

    cells = {}
    A_full = system.A_full.tocsr()
    order = np.argsort(mesh.cell_of_triangle, kind="stable")
    cell_ids, starts = np.unique(mesh.cell_of_triangle[order], return_index=True)
    for j, tri_ids in zip(cell_ids.tolist(), np.split(order, starts[1:])):
        nodes = np.unique(mesh.triangles[tri_ids])
        is_trace = on_skel[nodes]
        trace = nodes[is_trace]
        interior = nodes[~is_trace]
        if len(trace) == 0:
            raise SingularLocalSystem(j, "cell touches no skeleton edge")
        A_i = A_full[interior]
        if len(interior):
            try:
                fact = Factorization(A_i[:, interior], check_symmetry=False)
            except NotPositiveDefinite as exc:
                raise SingularLocalSystem(j, "interior operator is singular "
                                          "(node %d)" % interior[exc.index]) from exc
        else:
            fact = None
        cells[j] = CellData(j, nodes, trace, interior, is_trace, A_i[:, trace].tocsr(), fact)
    return CellCache(skeleton_fine, slot, cells, buckets)


def harmonic_extension(cache, j, trace_values):
    """Discrete-harmonic extension into cell j of values on its trace nodes.

    `trace_values` is indexed like cache.cells[j].trace: a vector, or an
    (n_trace, k) block of k traces extended by one multi-RHS solve.  Returns
    values on cache.cells[j].nodes (same order), shaped (n_nodes,) or
    (n_nodes, k).
    """
    data = cache.cells[j]
    trace_values = np.asarray(trace_values, dtype=float)
    out = np.empty((len(data.nodes),) + trace_values.shape[1:])
    out[data.trace_mask] = trace_values
    if data.fact is not None:
        out[~data.trace_mask] = data.fact.solve(-(data.A_it @ trace_values))
    return out


# ---------------------------------------------------------------------------
# Trace basis: hats on coarse nodes, quadratic bubbles on edges

@dataclass
class TraceBasis:
    """Coarse basis traces sampled at the fine nodes of the skeleton."""

    p: int
    T: csr_matrix            # dim x len(skeleton_fine): nodal trace values
    labels: list             # ('node', coarse node id) or ('edge', edge index)
    support_cells: list      # per row: sorted cell ids the trace touches

    @property
    def dim(self):
        return self.T.shape[0]


def build_trace_basis(mesh, skeleton, p, cache):
    """Hat traces for free coarse nodes; for p = 2 also one 4t(1-t) bubble
    per non-Dirichlet skeleton edge with at least one fine node strictly
    inside it.  (Perforations can squeeze a skeleton edge down to a single
    mesh pitch; such an edge keeps its endpoint hats but cannot carry a
    bubble.)  Traces vanish on the Dirichlet part of the skeleton by
    construction."""
    if p not in (1, 2):
        raise ValueError("trace degree must be 1 or 2, got %r" % (p,))
    fine_of_coarse, edge_nodes = _edge_node_lists(mesh, skeleton, cache.buckets)
    slot = cache.slot_of_node

    incident = defaultdict(list)
    for k, e in enumerate(skeleton.edges):
        incident[e.endpoints[0]].append(k)
        incident[e.endpoints[1]].append(k)

    rows_i, rows_j, rows_v = [], [], []
    labels, support = [], []

    def emit(row, cols, vals, cells):
        rows_i.extend([row] * len(cols))
        rows_j.extend(cols)
        rows_v.extend(vals)
        support.append(np.unique(np.asarray(cells, dtype=int)))

    row = 0
    for i, node in enumerate(skeleton.nodes):
        if node.constrained:
            continue
        cols, vals, cells = {}, [], []
        entries = {}
        for k in incident[i]:
            e = skeleton.edges[k]
            ids, t = edge_nodes[k]
            tt = t if e.endpoints[0] == i else 1.0 - t
            for nid, ti in zip(ids, tt):
                entries[int(slot[nid])] = 1.0 - ti
            cells.extend(e.cells)
        emit(row, list(entries.keys()), list(entries.values()), cells)
        labels.append(("node", i))
        row += 1

    if p == 2:
        for k, e in enumerate(skeleton.edges):
            if e.on_dirichlet:
                continue
            ids, t = edge_nodes[k]
            vals = 4.0 * t * (1.0 - t)
            if not np.any(vals > 0.0):
                continue
            emit(row, [int(slot[n]) for n in ids], list(vals), list(e.cells))
            labels.append(("edge", k))
            row += 1

    n_free_nodes = sum(1 for n in skeleton.nodes if not n.constrained)
    assert row >= n_free_nodes
    T = coo_matrix((rows_v, (rows_i, rows_j)),
                   shape=(row, len(cache.skeleton_fine))).tocsr()
    return TraceBasis(p, T, labels, support)


# ---------------------------------------------------------------------------
# Coarse spaces

@dataclass
class CoarseSpace:
    """R maps free fine dofs to coarse dofs; fact solves the coarse operator."""

    kind: str                # 'trefftz' or 'nicolaides'
    p: int | None
    r: int | None
    R: csr_matrix            # dim x n_free
    fact: Factorization
    lift_full: np.ndarray | None = None  # coarse interpolant of Dirichlet data
    trace: TraceBasis | None = field(default=None, repr=False)

    @property
    def dim(self):
        return self.R.shape[0]

    def apply(self, r_free):
        """One coarse correction: R' (R A R')^{-1} R applied to a residual."""
        return self.R.T @ self.fact.solve(self.R @ r_free)


def _extend_rows(mesh, system, cache, trace_rows, support_cells):
    """Glue cell-by-cell harmonic extensions of the trace rows.

    Returns a dim x n_free sparse matrix of basis functions on free dofs.
    Skeleton values are taken once from trace_rows, so cells sharing a trace
    node cannot disagree on it.  Each cell extends all the rows it supports
    in one multi-RHS solve; a node interior to two cells means the cells
    overlap, and the gluing raises GluingMismatch.
    """
    g2f = system.dofmap.global_to_free
    interior = np.concatenate([data.interior for data in cache.cells.values()])
    if np.bincount(interior, minlength=mesh.n_points).max() > 1:
        raise GluingMismatch("interior node written by two cells")

    T = trace_rows.tocoo()
    ri, rj, rv = [T.row], [g2f[cache.skeleton_fine[T.col]]], [T.data]
    cell_ids = np.concatenate([np.empty(0, dtype=np.int64), *support_cells])
    row_ids = np.repeat(np.arange(T.shape[0]), list(map(len, support_cells)))
    order = np.argsort(cell_ids, kind="stable")
    cells, starts = np.unique(cell_ids[order], return_index=True)
    for j, rows in zip(cells.tolist(), np.split(row_ids[order], starts[1:])):
        data = cache.cells[j]
        block = trace_rows[rows][:, cache.slot_of_node[data.trace]].toarray().T
        ext = harmonic_extension(cache, j, block)[~data.trace_mask]
        ri.append(np.broadcast_to(rows, ext.shape).ravel())
        rj.append(np.broadcast_to(g2f[data.interior][:, None], ext.shape).ravel())
        rv.append(ext.ravel())
    ri, rj, rv = np.concatenate(ri), np.concatenate(rj), np.concatenate(rv)
    keep = (rj >= 0) & (rv != 0.0)
    return coo_matrix((rv[keep], (ri[keep], rj[keep])),
                      shape=(T.shape[0], system.dofmap.n_free)).tocsr()


def _build_lift(mesh, system, skeleton, p, cache):
    """Coarse interpolant of the Dirichlet data: hat values at constrained
    coarse nodes, plus (p = 2) midpoint-matching bubbles on Dirichlet edges,
    extended harmonically.  None when the data is identically zero."""
    g = system.dirichlet_values
    if not np.any(g):
        return None
    dofmap = system.dofmap
    g_of_node = np.zeros(mesh.n_points)
    g_of_node[dofmap.dirichlet_nodes] = g

    fine_of_coarse, edge_nodes = _edge_node_lists(mesh, skeleton, cache.buckets)
    gc = np.zeros(len(skeleton.nodes))
    for i, node in enumerate(skeleton.nodes):
        if node.constrained:
            gc[i] = g_of_node[fine_of_coarse[i]]

    trace = np.zeros(len(cache.skeleton_fine))
    cells = set()
    for k, e in enumerate(skeleton.edges):
        a, b = e.endpoints
        if gc[a] == 0.0 and gc[b] == 0.0 and not e.on_dirichlet:
            continue
        ids, t = edge_nodes[k]
        vals = gc[a] * (1.0 - t) + gc[b] * t
        if p == 2 and e.on_dirichlet:
            g_mid = float(np.interp(0.5, t, g_of_node[ids]))
            vals = vals + (g_mid - 0.5 * (gc[a] + gc[b])) * 4.0 * t * (1.0 - t)
        trace[cache.slot_of_node[ids]] = vals
        if np.any(vals):
            cells.update(e.cells)

    lift = np.zeros(mesh.n_points)
    lift[cache.skeleton_fine] = trace
    for j in sorted(cells):
        data = cache.cells[j]
        ext = harmonic_extension(cache, j, trace[cache.slot_of_node[data.trace]])
        lift[data.nodes] = ext
    return lift


def build_trefftz(mesh, system, skeleton, p, cache=None):
    """Assemble the harmonically-extended skeleton coarse space.

    Returns a CoarseSpace whose R holds the basis functions (rows) on free
    dofs and whose factorization solves the coarse Galerkin matrix.  When
    the system carries nonzero Dirichlet data, the space also stores its
    coarse interpolant for use as an initial guess / affine offset.
    """
    if cache is None:
        cache = build_cell_cache(mesh, system, skeleton)
    basis = build_trace_basis(mesh, skeleton, p, cache)
    R = _extend_rows(mesh, system, cache, basis.T, basis.support_cells)
    A_H = (R @ system.A @ R.T).tocsc()
    try:
        fact = Factorization(A_H, check_symmetry=False)
    except NotPositiveDefinite as exc:
        raise RankDeficient("coarse matrix is singular at dof %d (%s)"
                            % (exc.index, basis.labels[exc.index],)) from exc
    r = max((e.refinement_level for e in skeleton.edges), default=0)
    lift = _build_lift(mesh, system, skeleton, p, cache)
    return CoarseSpace("trefftz", p, r, R, fact, lift, basis)


def build_nicolaides(mesh, system, overlap):
    """Partition-of-unity indicator space: one dof per connected component
    of each overlapping subdomain, weighted by inverse multiplicity.

    The components are labelled on the stacked subdomains that
    `build_schwarz` factorizes, in one pass: each edge of subdomain j's
    triangles with two free endpoints links their stacked slots, found by
    one searchsorted on the ascending keys block * n_free + gather.  This
    relies on `build_overlap` making dof_sets[j] exactly the free nodes of
    tri_sets[j], so every such endpoint has a slot.  Components never cross
    subdomains, and csgraph numbers them by their smallest vertex, so the
    rows come subdomain by subdomain, then by smallest member.
    """
    n = system.dofmap.n_free
    gather, block = _stacked(overlap.dof_sets)
    tri_ids, tri_block = _stacked(overlap.tri_sets)
    ends = system.dofmap.global_to_free[_all_edges(mesh.triangles[tri_ids])]
    linked = (ends >= 0).all(axis=1)
    keys = np.tile(tri_block, 3)[linked, None] * n + ends[linked]
    slots = np.searchsorted(block * n + gather, keys)
    graph = coo_matrix((np.ones(len(slots), dtype=np.int8), (slots[:, 0], slots[:, 1])),
                       shape=(len(gather), len(gather)))
    n_comp, labels = connected_components(graph, directed=False)
    R = coo_matrix((1.0 / overlap.multiplicity[gather], (labels, gather)),
                   shape=(n_comp, n)).tocsr()
    try:
        fact = Factorization((R @ system.A @ R.T).tocsc(), check_symmetry=False)
    except NotPositiveDefinite as exc:
        raise RankDeficient("Nicolaides coarse matrix is singular at dof %d"
                            % exc.index) from exc
    return CoarseSpace("nicolaides", None, None, R, fact)


def coarse_approximation(system, space):
    """Galerkin solution in the coarse space; returns a full nodal vector.

    With a stored lift, the solve happens in the affine space lift + span R;
    otherwise the Dirichlet data of the system itself is used as offset.
    """
    if space.lift_full is not None:
        base = space.lift_full
    else:
        base = system.expand(np.zeros(system.dofmap.n_free))
    res = (system.load_full - system.A_full @ base)[system.dofmap.free_nodes]
    c = space.fact.solve(space.R @ res)
    u = base.copy()
    u[system.dofmap.free_nodes] += space.R.T @ c
    return u


# ---------------------------------------------------------------------------
# Bubble / discrete-harmonic splitting

@dataclass
class SchurSplit:
    """u = bubble + harmonic: the bubble part solves the load cell-interior-
    wise with zero trace, the remainder is discrete-harmonic per cell."""

    bubble: np.ndarray
    harmonic: np.ndarray


def schur_split(mesh, system, cache, u_full):
    bubble = np.zeros(mesh.n_points)
    for j in sorted(cache.cells):
        data = cache.cells[j]
        if data.fact is not None:
            bubble[data.interior] = data.fact.solve(system.load_full[data.interior])
    return SchurSplit(bubble, u_full - bubble)


def relative_dim(space, partition):
    """Coarse dimension per coarse node (Trefftz) or per cell (Nicolaides)."""
    if space.kind == "trefftz":
        return space.dim / ((partition.nx + 1) * (partition.ny + 1))
    return space.dim / partition.n_cells

