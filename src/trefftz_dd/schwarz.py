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
from .numerics import BlockFactorization, GmresOptions, gmres

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
    L2/H1 error); error columns are nan when no monitor / exact solution
    was available.  `stop` says why the run ended: "tol" (preconditioned
    residual tolerance), "error_tol" (algebraic L2 error tolerance),
    "plateau", "breakdown", "stagnation", "max_iters" or "divergence".  It
    is not written to the history CSVs.
    """
    method: str
    rows: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    stop: str | None = None

    def column(self, name):
        i = REPORT_COLUMNS.split(",").index(name)
        return np.array([row[i] for row in self.rows])


def hybrid_iterate(ctx, monitor, u0=None, tol=None, max_iters=200):
    """Two-level fixed point: a RAS sweep followed by a coarse correction.

    Each iteration performs u <- u + M_RAS^{-1}(f - A u) and then
    u <- u + M_H^{-1}(f - A u), starting from the coarse approximation
    unless u0 (a full nodal vector) is given.  Stops when the algebraic
    L2 error drops below tol, or — when tol is None — once it improves by
    less than 1% over five iterations.  Raises Divergence (carrying the
    report collected so far) if the error grows a thousandfold past its
    running minimum.
    """
    system = ctx.system
    if ctx.coarse is None:
        raise ValueError("hybrid iteration needs a coarse space")
    A, f = system.A, system.f
    if u0 is None:
        u0 = coarse_approximation(system, ctx.coarse)
    u = system.restrict(np.asarray(u0, dtype=float))
    f_norm = np.linalg.norm(f) or 1.0
    report = IterationReport("hybrid")

    def push(k):
        """Record iterate k; return its residual f - A u and algebraic L2 error."""
        res = f - A @ u
        errs = monitor.record(system.expand(u))
        report.rows.append((k, np.linalg.norm(res) / f_norm) + errs)
        return res, errs[0]

    res, best = push(0)
    n = 0
    report.stop = "max_iters"
    for n in range(1, max_iters + 1):
        u += apply_ras(ctx, res)
        u += ctx.coarse.apply(f - A @ u)
        res, alg = push(n)
        best = min(best, alg)
        if alg > 1e3 * best and alg > 1e-12:
            report.iterations, report.stop = n, "divergence"
            raise Divergence(report)
        if tol is not None:
            if alg <= tol:
                report.converged, report.stop = True, "error_tol"
                break
        elif n >= 5 and alg >= 0.99 * report.rows[n - 5][2]:
            report.converged, report.stop = True, "plateau"
            break
    report.iterations = n
    return system.expand(u), report


def solve_pgmres(ctx, monitor=None, rel_tol=1e-8, error_tol=None,
                 max_iters=400):
    """Preconditioned GMRES with the RAS (or two-level) preconditioner.

    Solves M^{-1} A u = M^{-1} f where M^{-1} is apply_two_level when the
    context carries a coarse space and apply_ras otherwise.  By default the
    stopping test is the relative preconditioned residual rel_tol; passing
    error_tol (which requires a monitor) stops instead when the algebraic
    L2 error against the fine solution drops below it, as in scalability
    iteration counts.
    """
    system = ctx.system
    if error_tol is not None and monitor is None:
        raise ValueError("error_tol stopping needs an ErrorMonitor")
    f = system.f
    apply_m = apply_two_level if ctx.coarse is not None else apply_ras
    report = IterationReport("gmres")
    f_norm = np.linalg.norm(f) or 1.0
    if monitor is not None:
        errs = monitor.record(system.expand(np.zeros_like(f)))
    else:
        errs = (np.nan,) * 4
    report.rows.append((0, 1.0) + errs)
    hit = [False]

    def callback(k, x_k, res, b_norm):
        if monitor is not None:
            errs = monitor.record(system.expand(x_k))
        else:
            errs = (np.nan,) * 4
        report.rows.append((k, res / b_norm) + errs)
        if error_tol is not None and errs[0] <= error_tol:
            hit[0] = True
            return True
        return False

    opts = GmresOptions(rel_tol=0.0 if error_tol is not None else rel_tol,
                        max_iters=max_iters)
    x, info = gmres(lambda v: ctx.system.A @ v, lambda v: apply_m(ctx, v),
                    f, opts, callback=callback)
    report.converged = hit[0] if error_tol is not None else info["converged"]
    report.iterations = info["iterations"]
    report.stop = ("error_tol" if hit[0] else "breakdown" if info["breakdown"]
                   else "stagnation" if info["stagnation"]
                   else "tol" if info["converged"] else "max_iters")
    return system.expand(x), report
