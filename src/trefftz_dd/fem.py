"""Piecewise-linear finite elements for the Poisson problem.

Assembles -Laplace(u) = f with homogeneous Neumann data on perforation
walls and Dirichlet data g on the outer boundary, eliminating constrained
nodes but keeping the full matrices around: the coarse spaces need the
unconstrained operator on the cell interiors.  The stiffness matrix stores
no exact zeros: on the right-triangle grids built here the coupling across
each hypotenuse, -cot(90 deg)/2, cancels to 0.0, and leaving it out keeps it
out of every sparse product and fill-reducing ordering downstream.

Error integrals use a 4x4 Gauss product rule on the Duffy square (exact
through total degree 7), so quadrature error stays far below every
discretization error measured here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.special import roots_jacobi, roots_legendre

from .errors import DegenerateTriangle, MeshNotNested
from .mesh import Triangulation, build_dofmap, gathered_areas
from .numerics import Factorization


def _duffy_rule():
    """Quadrature on the reference triangle (0,0)-(1,0)-(0,1), degree 7."""
    xu, wu = roots_legendre(4)
    xv, wv = roots_jacobi(4, 1.0, 0.0)  # weight (1 - x) on [-1, 1]
    u, wu = 0.5 * (xu + 1.0), 0.5 * wu
    v, wv = 0.5 * (xv + 1.0), 0.25 * wv
    U, V = np.meshgrid(u, v)
    WU, WV = np.meshgrid(wu, wv)
    x = (U * (1.0 - V)).ravel()
    y = V.ravel()
    w = (WU * WV).ravel()
    return np.column_stack([x, y]), w


QUAD_POINTS, QUAD_WEIGHTS = _duffy_rule()


def _areas(mesh, p):
    """Triangle areas from the vertices p = points[triangles], checked."""
    area = gathered_areas(p)
    bad = np.flatnonzero(area <= 1e-14 * mesh.h ** 2)
    if len(bad):
        raise DegenerateTriangle(int(bad[0]))
    return area


def _geometry(mesh):
    p = mesh.points[mesh.triangles]
    area = _areas(mesh, p)
    # gradient coefficients of the three hat functions on each triangle
    b = np.stack([p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1], p[:, 0, 1] - p[:, 1, 1]], axis=1)
    c = np.stack([p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0], p[:, 1, 0] - p[:, 0, 0]], axis=1)
    return p, area, b, c


def stiffness_matrix(mesh):
    """Unconstrained stiffness matrix over all mesh nodes (csr).

    Entries whose element contributions sum to exactly 0.0, such as the
    hypotenuse couplings of right triangles, are not stored.
    """
    _, area, b, c = _geometry(mesh)
    K = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (4.0 * area)[:, None, None]
    i = np.repeat(mesh.triangles, 3, axis=1).ravel()
    j = np.tile(mesh.triangles, (1, 3)).ravel()
    A = coo_matrix((K.ravel(), (i, j)), shape=(mesh.n_points, mesh.n_points)).tocsr()
    A.eliminate_zeros()
    return A


def mass_matrix(mesh):
    """Unconstrained mass matrix over all mesh nodes (csr)."""
    area = _areas(mesh, mesh.points[mesh.triangles])
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    M = local[None, :, :] * area[:, None, None]
    i = np.repeat(mesh.triangles, 3, axis=1).ravel()
    j = np.tile(mesh.triangles, (1, 3)).ravel()
    return coo_matrix((M.ravel(), (i, j)), shape=(mesh.n_points, mesh.n_points)).tocsr()


def lumped_load(mesh, f):
    """Load vector by vertex quadrature: exact for constant f."""
    if f is None:
        return np.zeros(mesh.n_points)
    vals = f(mesh.points) if callable(f) else np.broadcast_to(float(f), mesh.n_points)
    area = _areas(mesh, mesh.points[mesh.triangles])
    load = np.zeros(mesh.n_points)
    np.add.at(load, mesh.triangles.ravel(), np.repeat(area / 3.0, 3))
    return load * np.asarray(vals, dtype=float)


@dataclass
class AssembledSystem:
    """Stiffness system with the Dirichlet nodes eliminated.

    A and f act on free dofs; A_full and load_full keep the unconstrained
    operator and load for the cell-interior solves of the coarse space and
    for boundary lifts.
    """

    A: csr_matrix              # free x free
    f: np.ndarray              # free rhs, Dirichlet lift included
    dofmap: object
    dirichlet_values: np.ndarray
    A_full: csr_matrix         # all nodes x all nodes
    load_full: np.ndarray

    def expand(self, u_free):
        """Scatter free values and Dirichlet data into a full nodal vector."""
        u = np.empty(self.dofmap.n_nodes)
        u[self.dofmap.free_nodes] = u_free
        u[self.dofmap.dirichlet_nodes] = self.dirichlet_values
        return u

    def restrict(self, u_full):
        return u_full[self.dofmap.free_nodes]


def assemble(mesh, f=None, g=None, dofmap=None):
    """Assemble the Poisson system on the mesh.

    f is the volume load (callable on an (n,2) array, a scalar, or None for
    zero); g the Dirichlet boundary data (callable or None for zero).
    """
    if dofmap is None:
        dofmap = build_dofmap(mesh)
    A_full = stiffness_matrix(mesh)
    load_full = lumped_load(mesh, f)

    fr, dr = dofmap.free_nodes, dofmap.dirichlet_nodes
    A_free = A_full[fr]
    A, A_fd = A_free[:, fr].tocsr(), A_free[:, dr].tocsr()
    if g is None:
        g_vals = np.zeros(len(dr))
    else:
        g_vals = np.asarray(g(mesh.points[dr]), dtype=float)
    rhs = load_full[fr] - A_fd @ g_vals
    return AssembledSystem(A, rhs, dofmap, g_vals, A_full, load_full)


def solve_fine(system):
    """Direct solve of the assembled system, whose factor dies on return;
    returns the full nodal vector."""
    return system.expand(Factorization(system.A).solve(system.f))


class NestedReference(NamedTuple):
    """A reference field on a refinement of the field's mesh, with the
    reference mass and stiffness matrices and the field's norms in them."""
    mesh: Triangulation
    field: np.ndarray
    P: csr_matrix              # prolongation, field's mesh -> reference mesh
    M: csr_matrix
    A: csr_matrix
    l2_norm: float
    h1_norm: float


def _check_nested(mesh, ref_mesh, P):
    if P.shape != (ref_mesh.n_points, mesh.n_points) \
            or ref_mesh.n_points < mesh.n_points \
            or not np.array_equal(ref_mesh.points[:mesh.n_points], mesh.points):
        raise MeshNotNested("reference mesh is not a refinement of the field's mesh")


def nested_reference(mesh, ref_mesh, ref_field, P, A=None):
    """Check that `mesh` is nested in ref_mesh under P, then assemble the
    reference operators and norms once for repeated `error_norms` calls.

    A is `stiffness_matrix(ref_mesh)` when the caller has assembled it
    already, as the reference system's `A_full`; it is assembled here when
    None.
    """
    _check_nested(mesh, ref_mesh, P)
    M = mass_matrix(ref_mesh)
    if A is None:
        A = stiffness_matrix(ref_mesh)
    return NestedReference(ref_mesh, ref_field, P, M, A,
                           np.sqrt(ref_field @ (M @ ref_field)),
                           np.sqrt(ref_field @ (A @ ref_field)))


def error_norms(mesh, u_full, exact):
    """Relative (L2, H1-seminorm) errors of a nodal field.

    `exact` is either a callable points -> (values, gradients), integrated
    by quadrature, or the `NestedReference` that `nested_reference` builds
    from a field on a refinement of the field's mesh.  The error is then
    measured discretely on the reference mesh with the reference operators
    the `NestedReference` carries, so a call costs two sparse products.
    Nesting is checked on every call.

    A callable is called once per rule point (16 calls), each time on one
    point per triangle, so no temporary holds more than one value per
    triangle and coordinate.  The points are the barycentric combinations
    `p[:, :, d] @ lam` of the triangle vertices p.
    """
    if isinstance(exact, NestedReference):
        _check_nested(mesh, exact.mesh, exact.P)
        e = exact.field - exact.P @ u_full
        l2 = np.sqrt(e @ (exact.M @ e)) / exact.l2_norm
        h1 = np.sqrt(e @ (exact.A @ e)) / exact.h1_norm
        return float(l2), float(h1)

    p, area, b, c = _geometry(mesh)
    px, py = p[:, :, 0], p[:, :, 1]
    vals = u_full[mesh.triangles]
    gx = (vals * b).sum(axis=1) / (2.0 * area)
    gy = (vals * c).sum(axis=1) / (2.0 * area)

    err_l2 = err_h1 = ex_l2 = ex_h1 = 0.0
    for q, w in zip(QUAD_POINTS, QUAD_WEIGHTS):
        lam = np.array([1.0 - q[0] - q[1], q[0], q[1]])
        # (2, m) transposed: the coordinate columns `exact` reads are contiguous
        pts = np.stack([px @ lam, py @ lam]).T
        uh = vals @ lam
        u, gu = exact(pts)
        err_l2 += 2.0 * w * float(area @ (uh - u) ** 2)
        ex_l2 += 2.0 * w * float(area @ u ** 2)
        err_h1 += 2.0 * w * float(area @ ((gx - gu[:, 0]) ** 2 + (gy - gu[:, 1]) ** 2))
        ex_h1 += 2.0 * w * float(area @ (gu[:, 0] ** 2 + gu[:, 1] ** 2))
    return float(np.sqrt(err_l2 / ex_l2)), float(np.sqrt(err_h1 / ex_h1))


def exact_lshape(points):
    """Singular harmonic benchmark on the L-shape around the corner (0,0).

    u = r^(2/3) cos(2(theta - pi/2)/3) with theta measured from pi/2 (the
    positive y-axis) counter-clockwise through 2*pi, so the normal
    derivative vanishes on both perforation walls meeting at the corner.
    Returns values and gradients; the gradient at the corner itself is
    infinite and flagged by a sentinel.

    Evaluated from one angle psi = theta/3 + pi/3: the polar gradient
    rotated to Cartesian axes is grad u = (2/3) r^(-1/3) (cos psi, sin psi),
    and since 2 psi = 2(theta - pi/2)/3 + pi, u = r^(2/3) (1 - 2 cos^2 psi).
    r^(2/3) is cbrt(x^2 + y^2) and r^(-1/3) its inverse square root, so a
    point costs one arctan2, one cos and one sin.  Below r ~ 1e-154,
    x^2 + y^2 is subnormal and loses digits; where it underflows to 0 the
    point reads as the corner.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    theta = np.arctan2(y, x)
    # theta + 2 pi below the branch, folded into the shift of theta / 3
    psi = theta / 3.0 + np.where(theta < np.pi / 2 - 1e-14, np.pi, np.pi / 3.0)
    r23 = np.cbrt(x * x + y * y)
    origin = r23 == 0.0
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    vals = r23 * (1.0 - 2.0 * cos_psi * cos_psi)
    grad_norm = (2.0 / 3.0) / np.sqrt(np.where(origin, 1.0, r23))
    grads = np.column_stack([grad_norm * cos_psi, grad_norm * sin_psi])
    vals[origin] = 0.0
    grads[origin] = np.inf
    return vals, grads
