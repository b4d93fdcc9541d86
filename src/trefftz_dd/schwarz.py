"""One- and two-level restricted additive Schwarz solvers.

The one-level preconditioner is the classical restricted additive Schwarz
sum M_RAS^{-1} r = sum_j R_j' ^T D_j (A_j')^{-1} R_j' r over overlapping
subdomains, with partition-of-unity weights D_j given by inverse overlap
multiplicity.  Adding a coarse space gives the additive two-level
preconditioner M_RAS^{-1} + M_H^{-1} for GMRES; the fixed-point variant
composes the two corrections multiplicatively (a purely additive fixed
point does not converge).
"""
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .coarse import CoarseSpace, coarse_approximation
from .errors import Divergence
from .fem import (AssembledSystem, NestedReference, error_norms, mass_matrix,
                  nested_reference, solve_fine)
from .mesh import _stacked
from .numerics import BlockFactorization, gmres

REPORT_COLUMNS = "iter,res_norm,alg_err_L2,alg_err_H1,full_err_L2,full_err_H1"


@dataclass
class SchwarzContext:
    """The subdomain problems of an overlap, stacked into one system.

    `gather` concatenates the overlap's free-dof sets, subdomain after
    subdomain (G r = r[gather]); `weights` holds 1/multiplicity on each
    stacked entry.  `facts` factorizes the block-diagonal matrix diag(A_j')
    in pieces of whole subdomains; iterating over it yields the pieces.
    """
    system: AssembledSystem
    gather: np.ndarray              # stacked free-dof indices, int64
    weights: np.ndarray             # 1/multiplicity per stacked entry
    facts: BlockFactorization       # of diag(A_j')
    coarse: CoarseSpace | None = None


def build_schwarz(system, overlap, coarse=None):
    """Factorize the local operators A_j' = R_j' A R_j'^T as one stacked matrix.

    A[gather][:, gather], which is G A G^T for the gather matrix G of the
    concatenated subdomain dof sets, holds A_j' in its diagonal blocks;
    entries coupling two subdomains are dropped, and the block-diagonal rest
    is factorized once, in pieces of whole subdomains.  Empty subdomains
    contribute no rows.
    """
    gather, block = _stacked(overlap.dof_sets)
    GAG = system.A[gather][:, gather]
    keep = np.repeat(block, np.diff(GAG.indptr)) == block[GAG.indices]
    indptr = np.append(0, np.cumsum(keep))[GAG.indptr]     # kept entries before each row
    local = csr_matrix((GAG.data[keep], GAG.indices[keep], indptr), shape=GAG.shape)
    del GAG
    return SchwarzContext(system, gather, 1.0 / overlap.multiplicity[gather],
                          BlockFactorization(local, block), coarse)


def apply_ras(ctx, r):
    """z = sum_j R_j'^T D_j (A_j')^{-1} R_j' r = G^T (w * LU^{-1} (G r)).

    The scatter adds the subdomain pieces in subdomain order."""
    z = ctx.weights * ctx.facts.solve(r[ctx.gather])
    return np.bincount(ctx.gather, weights=z, minlength=len(r))


def apply_two_level(ctx, r):
    """Additive two-level preconditioner z = M_H^{-1} r + M_RAS^{-1} r."""
    if ctx.coarse is None:
        raise ValueError("two-level preconditioner needs a coarse space")
    return apply_ras(ctx, r) + ctx.coarse.apply(r)


class ErrorMonitor:
    """Per-iteration distances to the fine solution and to the exact one.

    The algebraic error measures the gap to the fine finite element solution
    (computed once by direct solve) in the relative L2 and H1 norms of the
    mesh; the full error measures the gap to the exact solution, supplied
    either as a callable (values, gradients) or as a nested reference, a
    triple (ref_mesh, ref_field, P) or a `NestedReference`.  A triple is
    checked for nesting and its reference mass and stiffness matrices are
    assembled once, here, so each `record` costs two sparse products on the
    reference mesh.  Without an exact solution the full-error columns are
    recorded as nan.
    """

    def __init__(self, mesh, system, exact=None):
        if isinstance(exact, tuple) and not isinstance(exact, NestedReference):
            exact = nested_reference(mesh, *exact)
        self.mesh = mesh
        self.system = system
        self.exact = exact
        self.u_fine = solve_fine(system)
        self._M = mass_matrix(mesh)
        self._A = system.A_full
        self._l2_den = np.sqrt(self.u_fine @ (self._M @ self.u_fine)) or 1.0
        self._h1_den = np.sqrt(self.u_fine @ (self._A @ self.u_fine)) or 1.0

    def record(self, u_full):
        e = u_full - self.u_fine
        alg_l2 = np.sqrt(max(e @ (self._M @ e), 0.0)) / self._l2_den
        alg_h1 = np.sqrt(max(e @ (self._A @ e), 0.0)) / self._h1_den
        if self.exact is None:
            return alg_l2, alg_h1, np.nan, np.nan
        full_l2, full_h1 = error_norms(self.mesh, u_full, self.exact)
        return alg_l2, alg_h1, full_l2, full_h1


@dataclass
class IterationReport:
    """Convergence history of one solver run.

    Rows hold (iteration, relative residual, algebraic L2/H1 error, full
    L2/H1 error); the full-error columns are nan when the monitor has no
    exact solution.  `stop` says why the run ended: "error_tol" (a row's
    algebraic L2 error reached the tolerance, row 0 included),
    "max_iters", "divergence" (hybrid), or GMRES's "breakdown" or
    "stagnation".  It is not written to the history CSVs.
    """
    method: str
    rows: list = field(default_factory=list)
    iterations: int = 0
    stop: str | None = None

    @property
    def converged(self):
        return self.stop == "error_tol"

    def column(self, name):
        i = REPORT_COLUMNS.split(",").index(name)
        return np.array([row[i] for row in self.rows])


def hybrid_iterate(ctx, monitor, tol, max_iters=200):
    """Two-level fixed point: a RAS sweep followed by a coarse correction.

    Each iteration performs u <- u + M_RAS^{-1}(f - A u) and then
    u <- u + M_H^{-1}(f - A u), starting from the coarse approximation.
    Stops at the first row, row 0 included, whose algebraic L2 error is
    <= tol.  Raises Divergence (carrying the report collected so far) if
    the error grows a thousandfold past its running minimum.
    """
    system = ctx.system
    if ctx.coarse is None:
        raise ValueError("hybrid iteration needs a coarse space")
    A, f = system.A, system.f
    u = system.restrict(coarse_approximation(system, ctx.coarse))
    f_norm = np.linalg.norm(f) or 1.0
    report = IterationReport("hybrid", stop="max_iters")
    best = np.inf
    for n in range(max_iters + 1):
        if n:
            u += apply_ras(ctx, res)
            u += ctx.coarse.apply(f - A @ u)
        res = f - A @ u
        errs = monitor.record(system.expand(u))
        report.rows.append((n, np.linalg.norm(res) / f_norm) + errs)
        report.iterations, best = n, min(best, errs[0])
        if errs[0] <= tol:
            report.stop = "error_tol"
            break
        if errs[0] > 1e3 * best and errs[0] > 1e-12:
            report.stop = "divergence"
            raise Divergence(report)
    return system.expand(u), report


def solve_pgmres(ctx, monitor, error_tol, max_iters=400):
    """Preconditioned GMRES with the RAS (or two-level) preconditioner.

    Solves M^{-1} A u = M^{-1} f from u = 0, where M^{-1} is
    apply_two_level when the context carries a coarse space and apply_ras
    otherwise.  Stops at the first row, row 0 included, whose algebraic L2
    error against the fine solution is <= error_tol.
    """
    system = ctx.system
    f = system.f
    apply_m = apply_two_level if ctx.coarse is not None else apply_ras
    report = IterationReport("gmres", stop="error_tol")

    def callback(k, x_k, res, b_norm):
        errs = monitor.record(system.expand(x_k))
        report.rows.append((k, res / b_norm) + errs)
        return errs[0] <= error_tol

    x = np.zeros_like(f)
    if not callback(0, x, 1.0, 1.0):
        x, report.iterations, stop = gmres(
            lambda v: system.A @ v, lambda v: apply_m(ctx, v), f, rel_tol=0.0,
            max_iters=max_iters, callback=callback)
        report.stop = "error_tol" if stop == "callback" else stop
    return system.expand(x), report
