"""Coarse spaces built on the partition skeleton.

The main space takes piecewise-polynomial traces on the skeleton (nodal
hats, plus quadratic edge bubbles for p = 2), extends each trace into the
adjacent coarse cells as a discrete-harmonic function (the fine stiffness
operator on the cell interiors, with the trace as boundary data, solved for
every trace and cell at once by one factorization), and glues the cell
pieces by taking each skeleton value once from the trace.  The
resulting functions satisfy the fine-mesh equation away from the skeleton,
which is what buys superconvergence on perforated geometries.

One trace table holds a hat for every coarse node and a bubble for every
edge.  Its free rows are the basis traces; the coarse interpolant of the
Dirichlet data (the lift) is a vector of coefficients on the other rows,
so both come from the one trace evaluator.

A Nicolaides-style space (one weighted indicator per connected component of
each overlapping subdomain) is provided as the classical baseline.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, vstack
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
from .numerics import BlockFactorization, Factorization


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


def _edge_node_lists(skeleton, buckets):
    """Per-edge (fine node ids, parameters), from endpoint a at t = 0 to
    endpoint b at t = 1.  Every coarse node is an edge endpoint, so an
    edge whose ends are not fine nodes locates a coarse node off the mesh."""
    edge_nodes = []
    for e in skeleton.edges:
        pa, pb = skeleton.edge_points(e)
        ids, t = buckets.on_segment(pa, pb)
        if len(ids) < 2 or abs(t[0]) > 1e-9 or abs(t[-1] - 1.0) > 1e-9:
            off = int(len(ids) > 0 and abs(t[0]) <= 1e-9)   # the end that misses
            raise NodeOffSkeleton(e.endpoints[off], (pa, pb)[off])
        edge_nodes.append((ids, t))
    return edge_nodes


# ---------------------------------------------------------------------------
# The cell interiors

@dataclass
class CellCache:
    """Skeleton location data plus one factorization of all cell interiors.

    The mesh nodes off the skeleton are the interiors of the coarse cells,
    listed cell after cell.  Two cells couple only through the skeleton,
    so A_II, the block of A_full on those nodes, is block diagonal, and one
    factorization of it, in pieces of whole cells, solves every cell at
    once: the discrete-harmonic extension of skeleton values g is
    -A_II^{-1} A_IΓ g (substructuring, as in Smith, Bjørstad & Gropp,
    Domain Decomposition, 1996).  Depends only on the mesh and the
    skeleton's geometry, so one cache serves every trace degree p and every
    edge-refinement level r.
    """

    skeleton_fine: np.ndarray       # sorted mesh node ids on the skeleton
    slot_of_node: np.ndarray        # mesh node -> position in skeleton_fine (-1 off it)
    interior: np.ndarray            # interior node ids, by cell, then ascending
    interior_cell: np.ndarray       # the cell of each interior node (ascending)
    A_it: csr_matrix                # A_IΓ: interior x skeleton_fine coupling
    fact: BlockFactorization        # of A_II, interior x interior
    buckets: _AxisBuckets = field(repr=False, default=None)


def build_cell_cache(mesh, system, skeleton):
    buckets = _AxisBuckets(mesh.points)
    on_skel = np.zeros(mesh.n_points, dtype=bool)
    for e in skeleton.edges:
        ids, _ = buckets.on_segment(*skeleton.edge_points(e))
        on_skel[ids] = True
    skeleton_fine = np.flatnonzero(on_skel)
    slot = np.full(mesh.n_points, -1, dtype=np.int64)
    slot[skeleton_fine] = np.arange(len(skeleton_fine))

    # the (cell, node) pairs of the triangle corners, ascending
    n = mesh.n_points
    keys = np.repeat(mesh.cell_of_triangle.astype(np.int64), 3) * n + mesh.triangles.ravel()
    cell, node = np.divmod(np.unique(keys), n)
    bare = np.setdiff1d(cell, cell[on_skel[node]])
    if len(bare):
        raise SingularLocalSystem(int(bare[0]), "cell touches no skeleton edge")
    inner = ~on_skel[node]
    interior, interior_cell = node[inner], cell[inner]
    if np.bincount(interior, minlength=n).max() > 1:
        raise GluingMismatch("a node is interior to two cells")
    A_i = system.A_full.tocsr()[interior]
    A_ii, A_it = A_i[:, interior], A_i[:, skeleton_fine]
    try:
        fact = BlockFactorization(A_ii, interior_cell)
    except NotPositiveDefinite as exc:
        k = exc.index
        if k < 0:  # an exactly zero pivot names no column: name a node of an
            # interior component that couples to no skeleton node instead
            _, label = connected_components(A_ii, directed=False)
            floating = np.flatnonzero(~np.isin(label, label[A_it.getnnz(axis=1) > 0]))
            k = floating[0] if len(floating) else -1
        raise SingularLocalSystem(int(interior_cell[k]), "interior operator is "
                                  "singular (node %d)" % interior[k]) from exc
    return CellCache(skeleton_fine, slot, interior, interior_cell, A_it, fact, buckets)


# ---------------------------------------------------------------------------
# Trace basis: hats on coarse nodes, quadratic bubbles on edges

@dataclass
class TraceBasis:
    """Coarse basis traces sampled at the fine nodes of the skeleton.

    One table holds a hat row for every coarse node, in node order, then
    (p = 2) a bubble row for every edge that carries one, in edge order.
    The free rows (unconstrained nodes, non-Dirichlet edges) are the basis
    traces T, with their labels and support cells; the rest carry the
    Dirichlet lift."""

    p: int
    T: csr_matrix            # dim x len(skeleton_fine): the free rows of table
    labels: list             # ('node', coarse node id) or ('edge', edge index)
    support_cells: list      # per row: sorted cell ids the trace touches
    table: csr_matrix = field(repr=False)   # every row, free or not
    table_labels: list = field(repr=False)
    table_support: list = field(repr=False)
    edge_nodes: list = field(repr=False)    # _edge_node_lists output

    @property
    def dim(self):
        return self.T.shape[0]


def build_trace_basis(mesh, skeleton, p, cache):
    """Hat traces for coarse nodes; for p = 2 also one 4t(1-t) bubble per
    skeleton edge with at least one fine node strictly inside it.
    (Perforations can squeeze a skeleton edge down to a single mesh pitch;
    such an edge keeps its endpoint hats but cannot carry a bubble.)  The
    basis traces are those of free nodes and non-Dirichlet edges, so they
    vanish on the Dirichlet part of the skeleton by construction."""
    if p not in (1, 2):
        raise ValueError("trace degree must be 1 or 2, got %r" % (p,))
    edge_nodes = _edge_node_lists(skeleton, cache.buckets)
    slot = cache.slot_of_node

    incident = defaultdict(list)
    for k, e in enumerate(skeleton.edges):
        incident[e.endpoints[0]].append(k)
        incident[e.endpoints[1]].append(k)

    rows_i, rows_j, rows_v = [], [], []
    labels, support, free = [], [], []

    def emit(label, is_free, cols, vals, cells):
        rows_i.extend([len(labels)] * len(cols))
        rows_j.extend(cols)
        rows_v.extend(vals)
        support.append(np.unique(np.asarray(cells, dtype=int)))
        labels.append(label)
        free.append(is_free)

    for i, node in enumerate(skeleton.nodes):
        entries, cells = {}, []
        for k in incident[i]:
            e = skeleton.edges[k]
            ids, t = edge_nodes[k]
            tt = t if e.endpoints[0] == i else 1.0 - t
            entries.update(zip(slot[ids].tolist(), (1.0 - tt).tolist()))
            cells.extend(e.cells)
        emit(("node", i), not node.constrained, list(entries.keys()),
             list(entries.values()), cells)

    if p == 2:
        for k, e in enumerate(skeleton.edges):
            ids, t = edge_nodes[k]
            vals = 4.0 * t * (1.0 - t)
            if not np.any(vals > 0.0):
                continue
            emit(("edge", k), not e.on_dirichlet, slot[ids].tolist(), vals.tolist(),
                 list(e.cells))

    table = coo_matrix((rows_v, (rows_i, rows_j)),
                       shape=(len(labels), len(cache.skeleton_fine))).tocsr()
    free = np.flatnonzero(free)
    return TraceBasis(p, table[free], [labels[j] for j in free],
                      [support[j] for j in free], table, labels, support, edge_nodes)


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

    @property
    def dim(self):
        return self.R.shape[0]

    def apply(self, r_free):
        """One coarse correction: R' (R A R')^{-1} R applied to a residual."""
        return self.R.T @ self.fact.solve(self.R @ r_free)


def _extend_rows(system, cache, trace_rows, support_cells):
    """Glue the harmonic extensions of the trace rows into basis functions.

    Returns a sparse matrix of basis functions on free dofs, one per row.
    Skeleton values are taken once from trace_rows.  Interior values come
    from one multi-RHS solve of A_II: row s is extended into the interiors
    of the cells support_cells[s], and each (cell, row) pair takes the
    column given by the row's rank among its cell's rows, so the cells share
    columns and the solve has as many as the busiest cell has rows.  The
    entries of -A_IΓ T' whose (cell, row) pair is supported fill those
    columns, found by one searchsorted on the ascending keys cell * k + row.
    Each interior node belongs to one cell, so the pieces cannot disagree.
    """
    k = trace_rows.shape[0]
    cells = np.concatenate([np.empty(0, dtype=np.int64), *support_cells])
    pairs = np.sort(cells * k + np.repeat(np.arange(k), list(map(len, support_cells))))
    pair_cell = pairs // k
    col = np.arange(len(pairs)) - np.searchsorted(pair_cell, pair_cell)
    rhs = (cache.A_it @ trace_rows.T).tocoo()
    key = cache.interior_cell[rhs.row] * k + rhs.col
    hit = np.isin(key, pairs)
    B = np.zeros((len(cache.interior), col.max(initial=-1) + 1), order="F")
    B[rhs.row[hit], col[np.searchsorted(pairs, key[hit])]] = -rhs.data[hit]
    X = cache.fact.solve(B)

    # read back every interior node of every pair's cell
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


def _lift_coefficients(skeleton, basis, g):
    """Coefficients on the trace table of the coarse interpolant of the
    nodal Dirichlet data g, and the sorted cells of the rows they weight.
    A constrained coarse node's hat weighs g at the node (read at the end
    of an incident edge's fine node list); for p = 2, a Dirichlet edge's
    bubble weighs the mismatch of g and the hats at the edge midpoint."""
    g_node = np.zeros(len(skeleton.nodes))
    for e, (ids, _) in zip(skeleton.edges, basis.edge_nodes):
        g_node[list(e.endpoints)] = g[ids[[0, -1]]]
    c = np.zeros(len(basis.table_labels))
    for row, (kind, i) in enumerate(basis.table_labels):
        if kind == "node" and skeleton.nodes[i].constrained:
            c[row] = g_node[i]
        elif kind == "edge" and skeleton.edges[i].on_dirichlet:
            ids, t = basis.edge_nodes[i]
            a, b = skeleton.edges[i].endpoints
            c[row] = np.interp(0.5, t, g[ids]) - 0.5 * (g_node[a] + g_node[b])
    cells = [basis.table_support[row] for row in np.flatnonzero(c)]
    return c, np.unique(np.concatenate([np.empty(0, dtype=np.int64), *cells]))


def build_trefftz(mesh, system, skeleton, p, cache):
    """Assemble the harmonically-extended skeleton coarse space.

    Returns a CoarseSpace whose R holds the basis functions (rows) on free
    dofs and whose factorization solves the coarse Galerkin matrix.  When
    the system carries nonzero Dirichlet data, the space also stores its
    coarse interpolant for use as an initial guess / affine offset: its
    trace is a combination of the trace table's rows, and its harmonic
    extension is one more row, and column, of the basis solve.
    """
    basis = build_trace_basis(mesh, skeleton, p, cache)
    traces, support = basis.T, basis.support_cells
    lift = None
    if np.any(system.dirichlet_values):
        c, cells = _lift_coefficients(skeleton, basis,
                                      system.expand(np.zeros(system.dofmap.n_free)))
        lift = c @ basis.table
        traces = vstack([traces, csr_matrix(lift)], format="csr")
        support = support + [cells]
    R = _extend_rows(system, cache, traces, support)
    lift_full = None
    if lift is not None:
        lift_full = np.zeros(mesh.n_points)
        lift_full[cache.skeleton_fine] = lift
        row, R = R[basis.dim], R[:basis.dim]
        lift_full[system.dofmap.free_nodes[row.indices]] = row.data
    A_H = (R @ system.A @ R.T).tocsc()
    try:
        fact = Factorization(A_H)
    except NotPositiveDefinite as exc:
        raise RankDeficient("coarse matrix is singular at dof %d (%s)"
                            % (exc.index, basis.labels[exc.index],)) from exc
    r = max((e.refinement_level for e in skeleton.edges), default=0)
    return CoarseSpace("trefftz", p, r, R, fact, lift_full)


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
        fact = Factorization((R @ system.A @ R.T).tocsc())
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
    bubble[cache.interior] = cache.fact.solve(system.load_full[cache.interior])
    return SchurSplit(bubble, u_full - bubble)


def relative_dim(space, partition):
    """Coarse dimension per coarse node (Trefftz) or per cell (Nicolaides)."""
    if space.kind == "trefftz":
        return space.dim / ((partition.nx + 1) * (partition.ny + 1))
    return space.dim / partition.n_cells

