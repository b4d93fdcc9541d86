"""Exception types shared across the package."""


class GeometryError(ValueError):
    """Invalid or inconsistent geometry input."""


class PartitionMismatch(GeometryError):
    """The coarse partition does not tile the domain's outer rectangle."""


class GeometryNotSnapped(GeometryError):
    """A perforation is not rectilinear or a vertex is off the fine grid."""


class PitchMismatch(GeometryError):
    """fine_pitch does not divide the cell widths or perforation coordinates."""


class DisconnectedDomain(GeometryError):
    """The perforated domain splits into several mesh components."""


class NonConformingMesh(ValueError):
    """A triangle does not sit inside a single coarse cell."""

    def __init__(self, tri_index, message="straddles a cell boundary"):
        super().__init__("triangle %d %s" % (tri_index, message))
        self.tri_index = tri_index


class DegenerateTriangle(ValueError):
    """A triangle has (numerically) zero area."""

    def __init__(self, tri_index):
        super().__init__("triangle %d has zero area" % tri_index)
        self.tri_index = tri_index


class DimMismatch(ValueError):
    """Incompatible operand dimensions."""


class NotPositiveDefinite(ArithmeticError):
    """A matrix expected to be SPD has a nonpositive pivot."""

    def __init__(self, index, message=None):
        super().__init__(message or "nonpositive pivot at index %d" % index)
        self.index = index


class NodeOffSkeleton(ValueError):
    """A coarse skeleton node is not a node of the fine mesh, so the traces
    of its edges cannot be sampled there."""

    def __init__(self, node, position):
        super().__init__("coarse node %d at %r is not a node of the fine mesh"
                         % (node, position))
        self.node = node
        self.position = position


class SingularLocalSystem(ArithmeticError):
    """A cell-local problem has no Dirichlet data and cannot be solved."""

    def __init__(self, cell, message=None):
        super().__init__(message or "cell %d yields a singular local system" % cell)
        self.cell = cell


class GluingMismatch(ValueError):
    """A fine node is interior to two cells, so the basis cannot be glued:
    the mesh's cell labels disagree with the skeleton (invalid input)."""


class RankDeficient(ArithmeticError):
    """The coarse matrix A_H is rank deficient; drop dependent columns."""


class MeshNotNested(ValueError):
    """Field-vs-field errors need the reference mesh to refine the coarse one."""


class PlacementFailure(GeometryError):
    """Rejection sampling could not place the requested perforations."""

    def __init__(self, placed_buildings, placed_walls, rejections):
        super().__init__(
            "placement failed after %d rejections (placed %d buildings, %d walls)"
            % (rejections, placed_buildings, placed_walls)
        )
        self.placed_buildings = placed_buildings
        self.placed_walls = placed_walls
        self.rejections = rejections


class Divergence(RuntimeError):
    """Fixed-point iteration error grew far beyond its running minimum."""

    def __init__(self, report, message="iteration diverged"):
        super().__init__(message)
        self.report = report
