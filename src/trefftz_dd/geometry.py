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
from dataclasses import dataclass, replace

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

    @classmethod
    def from_polygons(cls, outer_verts, perforation_verts):
        return cls(Rect.from_vertices(outer_verts),
                   tuple(Rect.from_vertices(v) for v in perforation_verts))


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


@dataclass(frozen=True)
class CoarseNode:
    position: tuple
    kind: str  # 'cell-corner' | 'perforation-contact' | 'refinement-split'
    constrained: bool


@dataclass(frozen=True)
class CoarseEdge:
    endpoints: tuple  # (node id, node id), ordered along the parent interface
    parent_interface: int
    refinement_level: int
    on_dirichlet: bool
    cells: tuple  # adjacent coarse cell indices (1 on the outer boundary, else 2)


@dataclass
class Skeleton:
    nodes: list
    edges: list
    H: float

    def edge_points(self, edge):
        a, b = edge.endpoints
        return self.nodes[a].position, self.nodes[b].position

    def edge_length(self, edge):
        (xa, ya), (xb, yb) = self.edge_points(edge)
        return ((xb - xa) ** 2 + (yb - ya) ** 2) ** 0.5


def _blocked_intervals(perforations, axis, coord, lo, hi):
    """Closed intervals of the line {axis = coord} covered by perforation closures."""
    out = []
    for p in perforations:
        if axis == "v":
            if snap(p.x0) <= snap(coord) <= snap(p.x1):
                a, b = max(p.y0, lo), min(p.y1, hi)
                if a < b:
                    out.append((a, b))
        else:
            if snap(p.y0) <= snap(coord) <= snap(p.y1):
                a, b = max(p.x0, lo), min(p.x1, hi)
                if a < b:
                    out.append((a, b))
    out.sort()
    merged = []
    for a, b in out:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def _open_subsegments(lo, hi, blocked):
    segs, cur = [], lo
    for a, b in blocked:
        if snap(a) > snap(cur):
            segs.append((cur, a))
        cur = max(cur, b)
    if snap(hi) > snap(cur):
        segs.append((cur, hi))
    return segs


def _constrained_skeleton(nodes, edges):
    """Skeleton of `nodes` and `edges`, with every endpoint of an
    on_dirichlet edge marked constrained (in place in `nodes`) and H the
    longest edge length."""
    for i in {i for e in edges if e.on_dirichlet for i in e.endpoints}:
        nodes[i] = replace(nodes[i], constrained=True)
    skel = Skeleton(nodes, edges, 0.0)
    skel.H = max(skel.edge_length(e) for e in edges)
    return skel


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

    xl, yl = partition.x_lines(), partition.y_lines()
    x_set = {snap(x) for x in xl}
    y_set = {snap(y) for y in yl}

    nodes = []
    node_id = {}

    def get_node(x, y, kind):
        key = snap_point((x, y))
        i = node_id.get(key)
        if i is None:
            if key[0] in x_set and key[1] in y_set:
                kind = "cell-corner"
            i = len(nodes)
            nodes.append(CoarseNode((x, y), kind, False))
            node_id[key] = i
        return i

    edges = []
    parent = 0

    def emit(axis, coord, lo, hi, boundary, band):
        # band: for vertical lines the bordering cell columns, etc.
        nonlocal parent
        blocked = _blocked_intervals(domain.perforations, axis, coord, lo, hi)
        lines = yl if axis == "v" else xl
        for a, b in _open_subsegments(lo, hi, blocked):
            cuts = [a] + [c for c in lines if snap(a) < snap(c) < snap(b)] + [b]
            for c0, c1 in zip(cuts[:-1], cuts[1:]):
                pa = (coord, c0) if axis == "v" else (c0, coord)
                pb = (coord, c1) if axis == "v" else (c1, coord)
                ia = get_node(*pa, "perforation-contact")
                ib = get_node(*pb, "perforation-contact")
                mid = 0.5 * (c0 + c1)
                row = max(i for i, c in enumerate(lines[:-1]) if snap(c) <= snap(mid))
                if axis == "v":
                    cells = tuple(row * partition.nx + c for c in band)
                else:
                    cells = tuple(c * partition.nx + row for c in band)
                edges.append(CoarseEdge((ia, ib), parent, 0, boundary, cells))
            parent += 1

    for i, x in enumerate(xl):
        band = tuple(c for c in (i - 1, i) if 0 <= c < partition.nx)
        emit("v", x, partition.outer.y0, partition.outer.y1, i in (0, partition.nx), band)
    for i, y in enumerate(yl):
        band = tuple(c for c in (i - 1, i) if 0 <= c < partition.ny)
        emit("h", y, partition.outer.x0, partition.outer.x1, i in (0, partition.ny), band)

    return _constrained_skeleton(nodes, edges)


def refine_edges(skeleton, levels):
    """Bisect every edge `levels` times (2**levels equal children per edge)."""
    if levels < 0:
        raise GeometryError("levels must be >= 0, got %d" % levels)
    if levels == 0:
        return skeleton
    nodes = list(skeleton.nodes)
    node_id = {snap_point(n.position): i for i, n in enumerate(nodes)}

    def get_node(x, y):
        key = snap_point((x, y))
        i = node_id.get(key)
        if i is None:
            i = len(nodes)
            nodes.append(CoarseNode((x, y), "refinement-split", False))
            node_id[key] = i
        return i

    m = 2 ** levels
    edges = []
    for e in skeleton.edges:
        (xa, ya), (xb, yb) = skeleton.edge_points(e)
        ids = [e.endpoints[0]]
        ids += [get_node(xa + (xb - xa) * k / m, ya + (yb - ya) * k / m) for k in range(1, m)]
        ids.append(e.endpoints[1])
        for a, b in zip(ids[:-1], ids[1:]):
            edges.append(CoarseEdge((a, b), e.parent_interface,
                                    e.refinement_level + levels, e.on_dirichlet, e.cells))
    return _constrained_skeleton(nodes, edges)


def load_geometry(path):
    """Read { outer, perforations, grid } JSON into (domain, partition)."""
    with open(path) as f:
        data = json.load(f)
    domain = PerforatedDomain.from_polygons(data["outer"], data.get("perforations", []))
    nx, ny = data["grid"]
    return domain, CoarsePartition(domain.outer, int(nx), int(ny))


def save_geometry(domain, partition, path):
    data = {
        "outer": [list(v) for v in domain.outer.vertices(ccw=True)],
        "perforations": [[list(v) for v in p.vertices(ccw=False)] for p in domain.perforations],
        "grid": [partition.nx, partition.ny],
    }
    with open(path, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")
