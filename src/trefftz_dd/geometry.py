"""Perforated rectangular domains, coarse partitions, and skeletons.

Geometry is rectilinear and grid-snapped: the outer boundary is an
axis-aligned rectangle and every perforation is an axis-aligned rectangle
inside it (possibly sharing part of the outer boundary, as in the L-shaped
benchmark).  The skeleton collects the straight pieces of the coarse-cell
interfaces and of the outer boundary that do not touch perforations; these
carry the coarse degrees of freedom.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, GeometryNotSnapped, PartitionMismatch

#: decimal digits used to identify coinciding coordinates
SNAP_DECIMALS = 12


def snap(x):
    return round(float(x), SNAP_DECIMALS)


def snap_point(p):
    return (snap(p[0]), snap(p[1]))


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle (x0, y0) .. (x1, y1) with positive extent."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise GeometryError("rectangle %r has nonpositive extent" % (self,))

    @property
    def width(self):
        return self.x1 - self.x0

    @property
    def height(self):
        return self.y1 - self.y0

    @property
    def area(self):
        return self.width * self.height

    def contains_rect(self, other):
        return (self.x0 <= other.x0 and other.x1 <= self.x1
                and self.y0 <= other.y0 and other.y1 <= self.y1)

    def closure_intersects(self, other):
        return not (self.x1 < other.x0 or other.x1 < self.x0
                    or self.y1 < other.y0 or other.y1 < self.y0)

    def vertices(self, ccw=True):
        v = [(self.x0, self.y0), (self.x1, self.y0), (self.x1, self.y1), (self.x0, self.y1)]
        return v if ccw else [v[0]] + v[:0:-1]

    @classmethod
    def from_vertices(cls, verts):
        """Build from a 4-vertex axis-aligned polygon in either orientation."""
        if len(verts) != 4:
            raise GeometryNotSnapped("perforations must be rectangles, got %d vertices" % len(verts))
        xs = sorted(set(snap(v[0]) for v in verts))
        ys = sorted(set(snap(v[1]) for v in verts))
        if len(xs) != 2 or len(ys) != 2:
            raise GeometryNotSnapped("polygon %r is not an axis-aligned rectangle" % (verts,))
        corners = {(x, y) for x in xs for y in ys}
        if {snap_point(v) for v in verts} != corners:
            raise GeometryNotSnapped("polygon %r is not an axis-aligned rectangle" % (verts,))
        return cls(xs[0], ys[0], xs[1], ys[1])


@dataclass(frozen=True)
class PerforatedDomain:
    """Domain D minus the closures of a family of rectangular perforations."""

    outer: Rect
    perforations: tuple

    def __post_init__(self):
        object.__setattr__(self, "perforations", tuple(self.perforations))
        for p in self.perforations:
            if not self.outer.contains_rect(p):
                raise GeometryError("perforation %r sticks out of the outer rectangle" % (p,))
        for i, a in enumerate(self.perforations):
            for b in self.perforations[i + 1:]:
                if a.closure_intersects(b):
                    raise GeometryError("perforation closures %r and %r intersect" % (a, b))
        if sum(p.area for p in self.perforations) >= self.outer.area:
            raise GeometryError("perforations cover the whole domain")


@dataclass(frozen=True)
class CoarsePartition:
    """n_x-by-n_y grid of rectangular cells tiling the outer rectangle.

    Cells are indexed row-major: j = iy * nx + ix, 0-based.
    """

    outer: Rect
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise GeometryError("grid dims must be positive, got %d x %d" % (self.nx, self.ny))

    @property
    def n_cells(self):
        return self.nx * self.ny

    def x_lines(self):
        w = self.outer.width / self.nx
        return [self.outer.x0 + i * w for i in range(self.nx)] + [self.outer.x1]

    def y_lines(self):
        h = self.outer.height / self.ny
        return [self.outer.y0 + i * h for i in range(self.ny)] + [self.outer.y1]

    def cell(self, j):
        if not 0 <= j < self.n_cells:
            raise IndexError("cell index %d out of range [0, %d)" % (j, self.n_cells))
        ix, iy = j % self.nx, j // self.nx
        xl, yl = self.x_lines(), self.y_lines()
        return Rect(xl[ix], yl[iy], xl[ix + 1], yl[iy + 1])


def cell_extent(partition, j):
    """Max axis-aligned extent of cell j (the overlap-rule length scale)."""
    c = partition.cell(j)
    return max(c.width, c.height)


@dataclass
class Skeleton:
    """The skeleton as arrays, one row per node or per edge.

    Each edge is a piece of one grid line, its ends ordered along the line;
    `cells` are the coarse cells on its two sides, -1 standing for the one
    missing on the outer boundary.  The ends of the Dirichlet
    (outer-boundary) edges are the constrained nodes, and H is the longest
    edge.  `level` counts the bisections of every edge since
    `build_skeleton`.
    """

    points: np.ndarray              # (n, 2) float64 node positions
    ends: np.ndarray                # (m, 2) int64 node ids of each edge
    on_dirichlet: np.ndarray        # (m,) bool
    cells: np.ndarray               # (m, 2) int64, -1 padded
    level: int = 0
    constrained: np.ndarray = field(init=False)     # (n,) bool
    H: float = field(init=False)

    def __post_init__(self):
        self.constrained = np.zeros(len(self.points), dtype=bool)
        self.constrained[self.ends[self.on_dirichlet]] = True
        a, b = self.points[self.ends.T]
        self.H = float(np.hypot(*(b - a).T).max())


def _open_pieces(rects, k, coord, lo, hi):
    """The pieces lo .. hi of the grid line {coordinate k = coord} outside
    every perforation closure (x0, y0, x1, y1) in `rects`, in order; the
    closures lie inside the outer rectangle, so they need no clipping."""
    pieces, cur = [], lo
    for a, b in sorted((r[1 - k], r[3 - k]) for r in rects
                       if snap(r[k]) <= snap(coord) <= snap(r[2 + k])):
        if snap(a) > snap(cur):
            pieces.append((cur, a))
        cur = max(cur, b)
    if snap(hi) > snap(cur):
        pieces.append((cur, hi))
    return pieces


def build_skeleton(domain, partition):
    """Skeleton of the coarse partition clipped against the perforations.

    Edges are the straight pieces of inter-cell interfaces and of the outer
    boundary, with every interval covered by a perforation closure removed,
    split at cell corners and at perforation contacts.  Outer-boundary edges
    are flagged on_dirichlet; a node is constrained iff it is an endpoint of
    such an edge.
    """
    if (snap_point((partition.outer.x0, partition.outer.y0))
            != snap_point((domain.outer.x0, domain.outer.y0))
            or snap_point((partition.outer.x1, partition.outer.y1))
            != snap_point((domain.outer.x1, domain.outer.y1))):
        raise PartitionMismatch("partition outer %r does not tile domain outer %r"
                                % (partition.outer, domain.outer))

    points, node_id, ends, on_dirichlet, cells = [], {}, [], [], []

    def node(p):
        i = node_id.setdefault(snap_point(p), len(points))
        if i == len(points):
            points.append(p)
        return i

    outer, nx = partition.outer, partition.nx
    xl, yl = partition.x_lines(), partition.y_lines()
    rects = [(p.x0, p.y0, p.x1, p.y1) for p in domain.perforations]
    # per axis k: its grid lines, the lines across them and their span, the
    # count of cell columns (k = 0) or rows (k = 1), and the cell-index
    # strides of a column (row) and of a step along a line
    for k, lines, across, span, n, stride in (
            (0, xl, yl, (outer.y0, outer.y1), nx, (1, nx)),
            (1, yl, xl, (outer.x0, outer.x1), partition.ny, (nx, 1))):
        for i, coord in enumerate(lines):
            band = [c for c in (i - 1, i) if 0 <= c < n]
            for a, b in _open_pieces(rects, k, coord, *span):
                cuts = [a] + [c for c in across if snap(a) < snap(c) < snap(b)] + [b]
                for c0, c1 in zip(cuts[:-1], cuts[1:]):
                    ends.append([node((coord, c) if k == 0 else (c, coord)) for c in (c0, c1)])
                    mid = snap(0.5 * (c0 + c1))
                    step = max(j for j, c in enumerate(across[:-1]) if snap(c) <= mid)
                    cells.append(([c * stride[0] + step * stride[1] for c in band] + [-1])[:2])
                    on_dirichlet.append(i in (0, n))
    return Skeleton(np.array(points, dtype=float), np.array(ends, dtype=np.int64),
                    np.array(on_dirichlet), np.array(cells, dtype=np.int64))


def refine_edges(skeleton, levels):
    """Bisect every edge `levels` times (2**levels equal children per edge).

    Edge e's split nodes a + (b - a) k / 2**levels, k = 1 .. 2**levels - 1,
    follow the nodes of `skeleton` edge after edge, and its children take
    its place in edge order, chained from a to b.  A split node lies
    strictly inside its edge, so no two nodes coincide."""
    if levels < 0:
        raise GeometryError("levels must be >= 0, got %d" % levels)
    if levels == 0:
        return skeleton
    m = 2 ** levels
    a, b = skeleton.points[skeleton.ends.T]
    split = a[:, None] + (b - a)[:, None] * np.arange(1, m)[:, None] / m
    ids = len(skeleton.points) + np.arange(split.shape[0] * (m - 1)).reshape(-1, m - 1)
    chain = np.column_stack([skeleton.ends[:, 0], ids, skeleton.ends[:, 1]])
    return Skeleton(np.concatenate([skeleton.points, split.reshape(-1, 2)]),
                    np.stack([chain[:, :-1], chain[:, 1:]], axis=2).reshape(-1, 2),
                    np.repeat(skeleton.on_dirichlet, m), np.repeat(skeleton.cells, m, axis=0),
                    skeleton.level + levels)


def load_geometry(path):
    """Read { outer, perforations, grid } JSON into (domain, partition).
    A file that holds no JSON object, or a field that is missing or not of
    that shape (perforations may be left out), raises GeometryError naming
    it."""
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise GeometryError("geometry file %s holds a JSON %s, not an object"
                            % (path, type(data).__name__))
    data = {"perforations": [], **data}

    def read(name, parse):
        try:
            return parse(data[name])
        except GeometryError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise GeometryError("geometry file %s: missing or malformed %r field"
                                % (path, name)) from exc

    domain = PerforatedDomain(read("outer", Rect.from_vertices), read(
        "perforations", lambda polygons: [Rect.from_vertices(v) for v in polygons]))
    return domain, read("grid", lambda grid: CoarsePartition(domain.outer, *map(int, grid)))


def save_geometry(domain, partition, path):
    data = {
        "outer": [list(v) for v in domain.outer.vertices(ccw=True)],
        "perforations": [[list(v) for v in p.vertices(ccw=False)] for p in domain.perforations],
        "grid": [partition.nx, partition.ny],
    }
    with open(path, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")
