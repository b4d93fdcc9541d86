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

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix, csr_matrix, vstack
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

def _snapped(values):
    """snap of every value, called once per distinct value (np.round(x, 12)
    differs from Python's round)."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([snap(v) for v in distinct.tolist()])[inverse].reshape(np.shape(values))


def _axis_sort(points):
    """Per axis, the records snap(coordinate) + 1j * other coordinate of the
    mesh nodes, sorted with ties by node id, and their ids, axis after axis.
    numpy orders complex numbers by real, then imaginary part, so a span of
    a line (values that snap alike share one) is one searchsorted away."""
    keys = _snapped(points)
    ids = [np.lexsort((points[:, 1 - axis], keys[:, axis])) for axis in (0, 1)]
    return (np.concatenate([keys[i, axis] + 1j * points[i, 1 - axis]
                            for axis, i in enumerate(ids)]), np.concatenate(ids))


def _edge_nodes(skeleton, axis_sort):
    """The fine nodes on the skeleton edges as flat arrays (edge, node id, t),
    edge after edge, each from endpoint a (t = 0) to b (t = 1), ties in t by
    node id: those of the edge's axis line in its closed span, widened by
    1e-9 of its length.  Every coarse node is an edge endpoint, so an edge
    whose ends are not both fine nodes has a coarse node off the mesh:
    NodeOffSkeleton names the end that misses of the first such edge."""
    records, node_ids = axis_sort
    ends, xy = skeleton.ends, skeleton.points
    (a, b), (snap_a, snap_b) = xy[ends.T], _snapped(xy)[ends.T]
    vertical = snap_a[:, 0] == snap_b[:, 0]
    key = np.where(vertical, snap_a[:, 0], snap_a[:, 1])
    start, end = np.where(vertical, a[:, 1], a[:, 0]), np.where(vertical, b[:, 1], b[:, 0])
    lo, hi = np.minimum(start, end), np.maximum(start, end)
    tol = 1e-9 * np.maximum(hi - lo, 1e-12)
    first, stop = np.empty((2, len(ends)), dtype=np.int64)
    n = len(records) // 2
    for axis, on in enumerate((vertical, ~vertical)):
        line = records[axis * n:(axis + 1) * n]
        first[on] = axis * n + np.searchsorted(line, key[on] + 1j * (lo - tol)[on], "left")
        stop[on] = axis * n + np.searchsorted(line, key[on] + 1j * (hi + tol)[on], "right")
    count = stop - first
    begin = np.cumsum(count) - count    # each edge's first flat position
    edge = np.repeat(np.arange(len(ends)), count)
    at = np.arange(count.sum()) + np.repeat(first - begin, count)
    t = (records.imag[at] - start[edge]) / (end[edge] - start[edge])
    order = np.lexsort((t, edge))   # stable: ties in t keep ascending node id
    t, ids = t[order], node_ids[at[order]]
    t_ends = np.append(t, np.nan)[[begin, begin + count - 1]] - [[0.0], [1.0]]
    hit_a, hit_b = (np.abs(t_ends) <= 1e-9) & (count > [[0], [1]])
    off = np.flatnonzero(~(hit_a & hit_b))
    if len(off):
        node = int(ends[off[0], int(hit_a[off[0]])])   # the end that misses
        raise NodeOffSkeleton(node, tuple(xy[node].tolist()))
    return edge, ids, t


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
    Domain Decomposition, 1996).  A solve's rows follow `interior`, which
    `_extend_rows` reads back node by node.  Depends only on the mesh and
    the skeleton, so one cache serves every trace degree p and level r.
    """

    skeleton_fine: np.ndarray       # sorted mesh node ids on the skeleton
    slot_of_node: np.ndarray        # mesh node -> position in skeleton_fine (-1 off it)
    interior: np.ndarray            # interior node ids, by cell, then ascending
    interior_cell: np.ndarray       # the cell of each interior node (ascending)
    A_it: csr_matrix                # A_IΓ: interior x skeleton_fine coupling
    fact: BlockFactorization        # of A_II, interior x interior
    axis_sort: tuple = field(repr=False)    # _axis_sort(mesh.points)


def build_cell_cache(mesh, system, skeleton):
    axis_sort = _axis_sort(mesh.points)
    on_skel = np.zeros(mesh.n_points, dtype=bool)
    on_skel[_edge_nodes(skeleton, axis_sort)[1]] = True
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
    return CellCache(skeleton_fine, slot, interior, interior_cell, A_it, fact, axis_sort)


# ---------------------------------------------------------------------------
# Trace basis: hats on coarse nodes, quadratic bubbles on edges

@dataclass
class TraceBasis:
    """Coarse basis traces sampled at the fine nodes of the skeleton.

    One table holds a hat row for every coarse node, in node order, then
    (p = 2) a bubble row for every edge that carries one, in edge order.
    The free rows (unconstrained nodes, non-Dirichlet edges) are the basis
    traces T, with their labels; the rest carry the Dirichlet lift."""

    p: int
    T: csr_matrix            # dim x len(skeleton_fine): the free rows of table
    labels: list             # ('node', coarse node id) or ('edge', edge index)
    table: csr_matrix = field(repr=False)   # every row, free or not
    bubble_row: np.ndarray = field(repr=False)  # each edge's bubble row of table, or -1
    edge_nodes: tuple = field(repr=False)   # (edge, node id, t): _edge_nodes

    @property
    def dim(self):
        return self.T.shape[0]


def build_trace_basis(mesh, skeleton, p, cache):
    """Hat traces for coarse nodes; for p = 2 also one 4t(1-t) bubble per
    skeleton edge with at least one fine node strictly inside it.
    (Perforations can squeeze a skeleton edge down to a single mesh pitch;
    such an edge keeps its endpoint hats but cannot carry a bubble.)  The
    basis traces are those of free nodes and non-Dirichlet edges, so they
    vanish on the Dirichlet part of the skeleton by construction.  On each
    edge, endpoint a's hat is 1 - t and b's 1 - (1 - t); a coarse node's own
    value, which can differ by an ulp between its edges, is its last edge's."""
    if p not in (1, 2):
        raise ValueError("trace degree must be 1 or 2, got %r" % (p,))
    edge, ids, t = edge_nodes = _edge_nodes(skeleton, cache.axis_sort)
    n_nodes, n_edges = len(skeleton.points), len(skeleton.ends)
    # per edge, the row each part fills: the hats of a and b, then a bubble
    row_of = list(skeleton.ends.T)
    values = [1.0 - t, 1.0 - (1.0 - t)]
    labels = [("node", i) for i in range(n_nodes)]
    free = [~skeleton.constrained]
    bubble_row = np.full(n_edges, -1)
    if p == 2:
        values.append(4.0 * t * (1.0 - t))
        carries = np.bincount(edge[values[2] > 0.0], minlength=n_edges) > 0
        bubble_row[carries] = n_nodes + np.arange(carries.sum())
        row_of.append(bubble_row)
        labels += [("edge", k) for k in np.flatnonzero(carries).tolist()]
        free.append(~skeleton.on_dirichlet[carries])
    n_rows, n_cols = len(labels), len(cache.skeleton_fine)

    # keep the last entry of each (row, column) in edge order; the keys
    # row * n_cols + column put the kept entries in CSR order
    rows = np.concatenate([r[edge] for r in row_of])
    cols = np.tile(cache.slot_of_node[ids], len(row_of))
    keys = np.where(rows >= 0, rows * n_cols + cols, -1)
    order = np.lexsort((np.tile(edge, len(row_of)), keys))
    order = order[(np.diff(keys[order], append=-1) != 0) & (keys[order] >= 0)]
    table = csr_matrix((np.concatenate(values)[order], cols[order], np.concatenate(
        [[0], np.cumsum(np.bincount(rows[order], minlength=n_rows))])), shape=(n_rows, n_cols))
    free = np.flatnonzero(np.concatenate(free))
    return TraceBasis(p, table[free], [labels[j] for j in free], table, bubble_row, edge_nodes)


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


#: entries of the solve's result (interior node x column) read back at a time
READ_BLOCK = 1 << 14


def _extend_rows(system, cache, trace_rows):
    """Glue the harmonic extensions of the trace rows into basis functions.

    Returns R, one basis function per row on the free dofs.  One multi-RHS
    solve of A_II extends row s into every cell where -A_IΓ T' has an entry
    in its column, that is every cell whose boundary its trace touches.  The
    (cell, row) pairs are the sorted keys cell * k + row; a pair's column is
    its row's rank among its cell's rows, so the solve has as many columns
    as the busiest cell has rows.  R is read back one column per free dof:
    an interior node of a cell with n pairs takes the first n entries of its
    row of the solution, READ_BLOCK entries at a time, a skeleton node its
    column of trace_rows; exact zeros are then dropped in place, and one
    CSC → CSR conversion sorts each row.
    """
    k, n_free, to_free = trace_rows.shape[0], system.dofmap.n_free, system.dofmap.global_to_free
    rhs = (cache.A_it @ trace_rows.T).tocoo()
    pairs, pair_of = np.unique(cache.interior_cell[rhs.row] * k + rhs.col, return_inverse=True)
    pair_cell, row_of_pair = np.divmod(pairs, k)
    # interior node i reads X[i, :n[i]], the rows of pairs first[i], ...
    first = np.searchsorted(pair_cell, cache.interior_cell)
    n = np.searchsorted(pair_cell, cache.interior_cell, side="right") - first
    B = np.zeros((len(cache.interior), n.max(initial=0)), order="F")
    B[rhs.row, pair_of - first[rhs.row]] = -rhs.data
    X = cache.fact.solve(B)
    del B

    # a column per free dof, as long as its node's n or its column of
    # trace_rows; constrained interior nodes count in a spare last slot
    dof, t_dof = to_free[cache.interior], to_free[cache.skeleton_fine]
    n[dof < 0] = 0
    T, t_dof = trace_rows.tocsc()[:, t_dof >= 0], t_dof[t_dof >= 0]
    count = np.zeros(n_free + 1, dtype=np.int64)
    count[dof], count[t_dof] = n, np.diff(T.indptr)
    indptr = np.concatenate([[0], np.cumsum(count[:-1])])
    indices, data = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
    at = np.repeat(indptr[t_dof] - T.indptr[:-1], np.diff(T.indptr)) + np.arange(T.nnz)
    indices[at], data[at] = T.indices, T.data
    step = max(1, READ_BLOCK // max(X.shape[1], 1))
    for lo in range(0, len(X), step):
        node, c = np.nonzero(np.arange(X.shape[1]) < n[lo:lo + step, None])
        node += lo
        at = indptr[dof[node]] + c
        indices[at], data[at] = row_of_pair[first[node] + c], X[node, c]
    del X
    R = csc_matrix((data, indices, indptr), shape=(k, n_free))
    R.eliminate_zeros()
    return R.tocsr()


def _lift_coefficients(skeleton, basis, g):
    """Coefficients on the trace table of the coarse interpolant of the
    nodal Dirichlet data g.  A constrained coarse node's hat weighs g at the
    node (read at the end of an incident edge's fine nodes); for p = 2, a
    Dirichlet edge's bubble weighs the mismatch of g and the hats at the
    edge midpoint, with g interpolated in t as np.interp does."""
    edge, ids, t = basis.edge_nodes
    ends = skeleton.ends
    bounds = np.searchsorted(edge, np.arange(len(ends) + 1))
    g_node = np.zeros(len(skeleton.points))
    g_node[ends] = g[ids[np.column_stack([bounds[:-1], bounds[1:] - 1])]]
    c = np.zeros(basis.table.shape[0])
    c[:len(g_node)] = np.where(skeleton.constrained, g_node, 0.0)
    k = np.flatnonzero(skeleton.on_dirichlet & (basis.bubble_row >= 0))
    j = np.searchsorted(2 * edge + (t > 0.5), 2 * k + 1) - 1   # the last t <= 1/2
    slope = (g[ids[j + 1]] - g[ids[j]]) / (t[j + 1] - t[j])
    g_mid = np.where(t[j] == 0.5, g[ids[j]], slope * (0.5 - t[j]) + g[ids[j]])
    c[basis.bubble_row[k]] = g_mid - 0.5 * (g_node[ends[k, 0]] + g_node[ends[k, 1]])
    return c


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
    traces, lift = basis.T, None
    if np.any(system.dirichlet_values):
        lift = _lift_coefficients(skeleton, basis,
                                  system.expand(np.zeros(system.dofmap.n_free))) @ basis.table
        traces = vstack([traces, csr_matrix(lift)], format="csr")
    R = _extend_rows(system, cache, traces)
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
    return CoarseSpace("trefftz", p, skeleton.level, R, fact, lift_full)


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

