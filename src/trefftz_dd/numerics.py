"""Sparse linear algebra: SPD factorization and preconditioned GMRES.

The factorization wraps SuperLU configured for symmetric positive definite
matrices (symmetric mode, no off-diagonal pivoting) and turns the factor
diagonal into a definiteness certificate.  A block-diagonal matrix is
factorized in a fixed number of pieces at once, one of them on a worker
thread (SuperLU's factorization releases the GIL).  GMRES is written out
explicitly because the solvers here need left preconditioning together
with per-iteration iterate access for error monitors and monitor-driven
stopping.
"""
from __future__ import annotations

import atexit
import os
import sys
import threading
from concurrent.futures import Future, wait
from queue import SimpleQueue

import numpy as np
from scipy.linalg import solve_triangular
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.linalg import splu

from .errors import DimMismatch, NotPositiveDefinite

#: pivots below this are treated as a Krylov-basis breakdown
BREAKDOWN = 1e-300

#: SuperLU's configuration for every factorization: symmetric mode,
#: minimum-degree ordering on A+A', diagonal pivots only (see
#: Factorization) and one-column panels.  scipy's default 20-column panel
#: (Demmel, Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix Anal. Appl. 20(3),
#: 1999) costs more than it saves on 2-D P1 stiffness matrices and stacks
#: of small blocks: one-column panels factorized 27-35% faster on the urban
#: fine, cell-interior and stacked Schwarz matrices and the graded L-shape,
#: and 17% faster on the 255k-row urban reference (2-core x86-64 host, one
#: BLAS thread, medians of 5); 2- to 10-column panels were no faster beyond
#: the noise.  The panel size does not enter the L+U structure, so the fill
#: and the solve times stay as they were and the factors move at rounding
#: level.  `relax` stays at scipy's 10, which keeps the relaxed supernodes
#: and SuperLU's stored entries as they were too.
SUPERLU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
               panel_size=1, options={"SymmetricMode": True})

#: pieces a BlockFactorization cuts its matrix into.  Fixed, not read from
#: the host, so the factors and every output are the same on any core count.
PIECES = 2


def _new_worker():
    """The worker thread's task queue; the thread starts at the first task.
    A forked child gets a new queue and thread: the parent's thread is not
    copied, and a task queued for it would wait forever."""
    global _TASKS, _THREAD, _START
    _TASKS, _THREAD, _START = SimpleQueue(), None, threading.Lock()


def _serve(tasks):
    """The worker's loop: run each task, a callable, until None comes."""
    while (task := tasks.get()) is not None:
        task()
        del task    # what the task held is dropped on this thread


def _on_worker(fn, *args):
    """A Future of fn(*args), run on the worker thread, which factorizes
    every piece but the last while the calling thread does the last."""
    global _THREAD
    future = Future()

    def task():
        try:
            future.set_result(fn(*args))
        except BaseException as exc:    # raised again by future.result()
            future.set_exception(exc)

    with _START:
        if _THREAD is None:
            _THREAD = threading.Thread(target=_serve, args=(_TASKS,), daemon=True,
                                       name="trefftz-dd-factor")
            _THREAD.start()
    _TASKS.put(task)
    return future


@atexit.register
def _stop_worker():
    """End the worker before the interpreter finalizes, as an executor's
    thread is joined at exit."""
    global _THREAD
    with _START:
        if _THREAD is not None:
            _TASKS.put(None)
            _THREAD.join()
            _THREAD = None


_new_worker()
os.register_at_fork(after_in_child=_new_worker)


class Factorization:
    """Direct solver for a sparse symmetric positive definite matrix.

    Uses a symmetric-mode sparse LU with minimum-degree ordering on A+A' and
    pivoting restricted to the diagonal, so the factorization doubles as an
    SPD certificate: any nonpositive pivot raises NotPositiveDefinite with
    the offending (unpermuted) index.  Symmetry is the caller's to ensure;
    it is not checked.  Reading the pivots through SuperLU's `U` makes
    scipy build CSC copies of L and U, which stay cached on the factor for
    its whole life; `fill`, the L + U entry count, is read off them.
    """

    def __init__(self, A):
        if A.shape[0] != A.shape[1]:
            raise DimMismatch("cannot factorize a %s matrix" % (A.shape,))
        self.n = A.shape[0]
        if self.n == 0:
            self._lu, self.fill = None, 0
            return
        A = csc_matrix(A)
        d = A.diagonal()
        bad = np.flatnonzero(d <= 0)
        if len(bad):
            raise NotPositiveDefinite(int(bad[0]), "nonpositive diagonal entry")
        try:
            self._lu = splu(A, **SUPERLU)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise NotPositiveDefinite(-1, str(exc)) from exc
        pivots = self._lu.U.diagonal()
        self.fill = self._lu.L.nnz + self._lu.U.nnz
        bad = np.flatnonzero(pivots <= 0)
        if len(bad):  # Pr A Pc = LU puts column i of A at position perm_c[i]
            raise NotPositiveDefinite(int(np.flatnonzero(self._lu.perm_c == bad[0])[0]),
                                      "nonpositive pivot in factorization")

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise DimMismatch("factorization is %d x %d but vector has length %d"
                              % (self.n, self.n, b.shape[0]))
        if self.n == 0:
            return b.copy()
        return self._lu.solve(b)


def _factor(A, lo):
    """Factorization(A) of the piece whose first row is row lo of the whole
    matrix, with a NotPositiveDefinite index shifted to the whole matrix's
    numbering (−1 stays −1)."""
    try:
        return Factorization(A)
    except NotPositiveDefinite as exc:
        index = exc.index + lo if exc.index >= 0 else -1
        raise NotPositiveDefinite(int(index), str(exc)) from exc


class BlockFactorization:
    """Direct solver for a sparse SPD matrix that is block diagonal with
    respect to the nondecreasing row labels `block`.

    The rows are cut into PIECES contiguous pieces at label boundaries, each
    cut at the boundary nearest an equal share of the stored entries, read
    off the CSR row pointers (one label gives one piece).  A piece is a row
    range A[lo:hi] of one CSR copy with its column indices shifted by lo.
    Every piece but the last is factorized on the module's worker thread
    while the calling thread factorizes the last.  Each piece is a plain
    Factorization, so its factors do not depend on the thread or the core
    count; iterating yields the pieces in row order.  A NotPositiveDefinite
    index is in the whole matrix's numbering (−1 stays −1); when several
    pieces fail, the first of them is named.  A stored entry whose column
    lies outside its row's piece couples two pieces and raises ValueError
    naming the first such (row, col).  `fill` sums the pieces' fill.
    """

    def __init__(self, A, block):
        if A.shape[0] != A.shape[1]:
            raise DimMismatch("cannot factorize a %s matrix" % (A.shape,))
        self.n = n = A.shape[0]
        block = np.asarray(block)
        if block.shape != (n,) or np.any(np.diff(block) < 0):
            raise ValueError("need one nondecreasing block label per row")
        A = csr_matrix(A)
        starts = np.flatnonzero(np.diff(block)) + 1     # where a new label begins
        share = A.indptr[-1] * np.arange(1, PIECES) / PIECES
        cuts = []
        if len(starts):
            cuts = starts[np.abs(A.indptr[starts][:, None] - share).argmin(axis=0)]
        self.bounds = np.concatenate([[0], np.unique(cuts), [n]]).astype(np.int64)
        parts = []
        for lo, hi in zip(self.bounds[:-1].tolist(), self.bounds[1:].tolist()):
            begin, end = A.indptr[lo], A.indptr[hi]
            cols = A.indices[begin:end] - lo
            cross = np.flatnonzero((cols < 0) | (cols >= hi - lo))
            if len(cross):
                row = np.searchsorted(A.indptr, begin + cross[0], side="right") - 1
                raise ValueError("entry (%d, %d) couples two pieces"
                                 % (row, cols[cross[0]] + lo))
            parts.append(csr_matrix((A.data[begin:end], cols, A.indptr[lo:hi + 1] - begin),
                                    shape=(hi - lo, hi - lo)))
        del A           # the pieces keep views of its data, not its indices
        futures = [_on_worker(_factor, part, lo)
                   for part, lo in zip(parts[:-1], self.bounds)]
        try:
            last = _factor(parts[-1], self.bounds[-2])
        except BaseException:   # wait for every piece, so that none is left
            wait(futures)       # factorizing and the first to fail is named,
            first = [f.result() for f in futures]
            futures.clear()     # and let the worker's good pieces go on the
            _TASKS.put(first.clear)     # worker, as __del__ does
            raise
        wait(futures)
        self.pieces = [f.result() for f in futures] + [last]
        self.fill = sum(fact.fill for fact in self.pieces)

    def __del__(self):
        """Let the worker's pieces go on the worker.  scipy's SuperLU frees
        a block only on the thread that allocated it and silently keeps it
        anywhere else, so a piece that died here would leak its factor.
        The release takes no lock (a SimpleQueue put), since the cyclic
        garbage collector may run this while the thread holds one.  While
        the interpreter finalizes the pieces are left: the worker has stopped."""
        worker_pieces = getattr(self, "pieces", [])[:-1]   # none if __init__ raised
        if worker_pieces and not sys.is_finalizing():
            del self.pieces[:-1]    # the worker's list holds the last references
            _TASKS.put(worker_pieces.clear)

    def __iter__(self):
        return iter(self.pieces)

    def solve(self, b):
        """Solve piece after piece into one array shaped like b (1-D or 2-D)."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise DimMismatch("factorization is %d x %d but vector has length %d"
                              % (self.n, self.n, b.shape[0]))
        x = np.empty_like(b)
        for fact, lo, hi in zip(self.pieces, self.bounds[:-1], self.bounds[1:]):
            x[lo:hi] = fact.solve(b[lo:hi])
        return x


#: restart length of gmres, the only one the solvers use
RESTART = 200


def gmres(apply_A, apply_M, b, rel_tol=1e-8, max_iters=1000, callback=None):
    """Left-preconditioned restarted GMRES with modified Gram-Schmidt.

    Solves A x = b from x = 0, iterating on M (b - A x), so M b is both the
    first residual and the scale of the stopping test: convergence is
    declared when the preconditioned residual drops below rel_tol * ||M b||.
    `callback`, when given, is invoked every iteration as callback(k, x_k,
    res, b_norm) and may return True to stop early (the per-iteration
    iterate x_k is reconstructed on the fly).  Returns (x, iterations, stop);
    stop is "callback", "breakdown" (lucky: x is exact) or "tol", checked in
    that order each iteration, else "stagnation" (a restart cycle without
    progress) or "max_iters".
    """
    b = np.asarray(b, dtype=float)
    n = len(b)
    x = np.zeros(n)

    r = apply_M(b)      # the first residual M (b - A x), as x = 0
    b_norm = float(np.linalg.norm(r))
    if b_norm == 0.0:
        return x, 0, "tol"
    target = rel_tol * b_norm

    def current(j):     # the iterate after step j of the running cycle
        y = solve_triangular(H[:j + 1, :j + 1], g[:j + 1], lower=False)
        return x + y @ V[:j + 1]

    total = 0
    while total < max_iters:
        if total:
            r = apply_M(b - apply_A(x))
        beta = float(np.linalg.norm(r))
        if beta <= target:
            return x, total, "tol"
        m = min(RESTART, max_iters - total)
        # rows are written one by one, so untouched pages are never mapped
        V = np.empty((m + 1, n))
        V[0] = r / beta
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        for j in range(m):
            # copy: apply_A / apply_M may hand back their argument unchanged
            w = np.array(apply_M(apply_A(V[j])), dtype=float)
            for i in range(j + 1):
                H[i, j] = float(V[i] @ w)
                w -= H[i, j] * V[i]
            H[j + 1, j] = float(np.linalg.norm(w))
            lucky = H[j + 1, j] < BREAKDOWN
            if not lucky:
                V[j + 1] = w / H[j + 1, j]
            for i in range(j):  # apply stored rotations to the new column
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            denom = float(np.hypot(H[j, j], H[j + 1, j]))
            if denom < BREAKDOWN:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            res = abs(g[j + 1])
            total += 1
            if callback is not None and callback(total, current(j), res, b_norm):
                stop = "callback"
            elif lucky:
                stop = "breakdown"
            elif res <= target:
                stop = "tol"
            else:
                continue
            return current(j), total, stop
        x = current(j)
        if total < max_iters and res >= beta:   # no progress over a whole cycle
            return x, total, "stagnation"
    return x, total, "max_iters"
