"""Linear algebra tests: factorization vs dense reference, GMRES behaviour."""
import gc
import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest
from scipy.sparse import block_diag, csr_matrix, diags, random as sparse_random

from trefftz_dd import numerics
from trefftz_dd.errors import DimMismatch, NotPositiveDefinite
from trefftz_dd.numerics import (PIECES, BlockFactorization, Factorization,
                                  GmresOptions, gmres)


def random_spd(rng, n, density=0.3):
    B = sparse_random(n, n, density=density, random_state=np.random.RandomState(rng.integers(2**31)))
    A = (B @ B.T).toarray() + n * np.eye(n)
    return csr_matrix(A)


def test_factorization_matches_dense_solve():
    rng = np.random.default_rng(1234)
    for _ in range(10):
        n = int(rng.integers(3, 60))
        A = random_spd(rng, n)
        b = rng.standard_normal(n)
        x = Factorization(A).solve(b)
        want = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


def test_factorization_validates_input():
    with pytest.raises(DimMismatch):
        Factorization(csr_matrix(np.ones((2, 3))))
    with pytest.raises(NotPositiveDefinite) as exc:
        Factorization(csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]])))
    assert exc.value.index == 1
    # indefinite with positive diagonal: caught by the pivot certificate
    A = csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite) as exc:
        Factorization(A)
    assert exc.value.index in (0, 1)
    # the index is an unpermuted one: between two SPD blocks, it falls in
    # the indefinite block
    for n in (3, 5, 8, 12):
        spd = diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
        with pytest.raises(NotPositiveDefinite) as exc:
            Factorization(block_diag([spd, A, spd]))
        assert exc.value.index in (n, n + 1), n
    with pytest.raises(DimMismatch):
        Factorization(csr_matrix(np.eye(3))).solve(np.ones(4))


def test_factorization_empty():
    f = Factorization(csr_matrix((0, 0)))
    assert f.solve(np.zeros(0)).shape == (0,)


def block_stack(rng, sizes):
    """A block-diagonal SPD matrix with blocks of the given sizes, and the
    block label of each row."""
    blocks = [random_spd(rng, m) for m in sizes]
    return block_diag(blocks, format="csr"), np.repeat(np.arange(len(sizes)), sizes)


def test_block_factorization_matches_dense_solve():
    rng = np.random.default_rng(2024)
    for _ in range(5):
        sizes = rng.integers(1, 40, size=int(rng.integers(2, 9)))
        A, block = block_stack(rng, sizes)
        fact = BlockFactorization(A, block)
        assert len(list(fact)) == PIECES
        dense = A.toarray()
        for b in (rng.standard_normal(A.shape[0]), rng.standard_normal((A.shape[0], 3))):
            x = fact.solve(b)
            want = np.linalg.solve(dense, b)
            assert x.shape == b.shape
            assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
    with pytest.raises(DimMismatch):
        fact.solve(np.ones(A.shape[0] + 1))


def test_fill_counts_the_entries_of_l_and_u():
    rng = np.random.default_rng(11)
    A, block = block_stack(rng, [7, 3, 12, 5, 9])
    facts = BlockFactorization(A, block)
    fills = [f._lu.L.nnz + f._lu.U.nnz for f in facts]
    assert len(fills) == PIECES and min(fills) > 0
    assert [f.fill for f in facts] == fills
    assert facts.fill == sum(fills)
    assert Factorization(csr_matrix((0, 0))).fill == 0
    assert BlockFactorization(csr_matrix((0, 0)), np.zeros(0, dtype=int)).fill == 0


def test_block_factorization_cuts_on_label_boundaries():
    rng = np.random.default_rng(8)
    A, _ = block_stack(rng, [6, 9])
    fact = BlockFactorization(A, np.zeros(15, dtype=int))   # one label, one piece
    assert [f.n for f in fact] == [15]
    assert fact.bounds.tolist() == [0, 15]
    for _ in range(20):
        sizes = rng.integers(1, 12, size=int(rng.integers(2, 12)))
        A, block = block_stack(rng, sizes)
        fact = BlockFactorization(A, block)
        cuts = fact.bounds[1:-1]
        assert len(cuts) == PIECES - 1
        assert (block[cuts] != block[cuts - 1]).all()    # a cut starts a new label
        assert [f.n for f in fact] == np.diff(fact.bounds).tolist()
        # no other label boundary balances the stored entries better
        entries = np.concatenate([[0], np.cumsum(A.getnnz(axis=1))])
        starts = np.flatnonzero(np.diff(block)) + 1
        assert abs(2 * entries[cuts[0]] - entries[-1]) == \
            np.abs(2 * entries[starts] - entries[-1]).min()
    empty = BlockFactorization(csr_matrix((0, 0)), np.zeros(0, dtype=int))
    assert empty.solve(np.zeros(0)).shape == (0,)
    with pytest.raises(ValueError):
        BlockFactorization(A, block[::-1])               # labels must not decrease


def test_block_factorization_names_global_index():
    rng = np.random.default_rng(4)
    A, block = block_stack(rng, [5, 5, 5, 5])
    assert BlockFactorization(A, block).bounds.tolist() == [0, 10, 20]
    # a nonpositive diagonal entry in the second piece
    bad = A.tolil()
    bad[13, 13] = -1.0
    with pytest.raises(NotPositiveDefinite) as exc:
        BlockFactorization(bad.tocsr(), block)
    assert exc.value.index == 13 and "diagonal" in str(exc.value)
    # with both pieces bad, the first one is named
    bad[3, 3] = -1.0
    with pytest.raises(NotPositiveDefinite) as exc:
        BlockFactorization(bad.tocsr(), block)
    assert exc.value.index == 3
    # a positive diagonal but an indefinite 2x2 minor: only a pivot shows it
    bad = A.tolil()
    big = 10.0 * A.diagonal().max()
    bad[16, 17] = bad[17, 16] = big
    with pytest.raises(NotPositiveDefinite) as exc:
        BlockFactorization(bad.tocsr(), block)
    assert exc.value.index in (16, 17) and "pivot" in str(exc.value)


def test_block_factorization_refuses_coupled_pieces():
    rng = np.random.default_rng(6)
    A, block = block_stack(rng, [4, 4])
    coupled = A.tolil()
    coupled[2, 6] = coupled[6, 2] = -0.1
    with pytest.raises(ValueError, match="couples two pieces"):
        BlockFactorization(coupled.tocsr(), block)


def test_block_factorization_takes_csr_csc_and_coo():
    rng = np.random.default_rng(31)
    A, block = block_stack(rng, [7, 3, 12, 5, 9])
    b = rng.standard_normal((A.shape[0], 2))
    facts = [BlockFactorization(M, block) for M in (A.tocsr(), A.tocsc(), A.tocoo())]
    for fact in facts[1:]:
        assert fact.bounds.tolist() == facts[0].bounds.tolist()
        assert fact.fill == facts[0].fill
        assert fact.solve(b).tobytes() == facts[0].solve(b).tobytes()
    # the first coupled entry in row order, in the whole matrix's numbering,
    # whether it lies in the first piece or in a later one
    cut = int(facts[0].bounds[1])
    coupled = A.tolil()
    coupled[cut + 1, cut - 2] = coupled[cut - 2, cut + 1] = -0.1
    coupled[cut + 2, 1] = coupled[1, cut + 2] = -0.1
    late = A.tolil()
    late[cut + 3, 0] = -0.1
    for M, entry in ((coupled, (1, cut + 2)), (late, (cut + 3, 0))):
        for copy in (M.tocsr(), M.tocsc(), M.tocoo()):
            with pytest.raises(ValueError, match=r"entry \(%d, %d\) couples two pieces" % entry):
                BlockFactorization(copy, block)


def test_block_factorization_is_reproducible():
    rng = np.random.default_rng(12)
    A, block = block_stack(rng, rng.integers(20, 60, size=7))
    b = rng.standard_normal((A.shape[0], 2))
    first, second = (BlockFactorization(A, block).solve(b) for _ in range(2))
    assert np.array_equal(first, second)


def test_block_factorization_from_many_threads():
    # callers on several threads share the one worker; each still gets the
    # factors of its own matrix, bitwise as when called alone
    rng = np.random.default_rng(31)
    cases = [block_stack(rng, rng.integers(5, 40, size=6)) for _ in range(3)]
    rhs = [rng.standard_normal(A.shape[0]) for A, _ in cases]
    want = [BlockFactorization(A, block).solve(b) for (A, block), b in zip(cases, rhs)]
    got = {}

    def work(t):
        k = t % len(cases)
        for _ in range(5):
            x = BlockFactorization(*cases[k]).solve(rhs[k])
            got[t] = got.get(t, True) and np.array_equal(x, want[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {t: True for t in range(6)}


def test_block_factorization_frees_each_piece_on_its_own_thread(monkeypatch):
    # scipy's SuperLU frees a block only on the thread that allocated it,
    # so a worker piece that died on the calling thread would leak
    same_thread = []

    class Tracked(Factorization):
        def __init__(self, A):
            super().__init__(A)
            self.built_on = threading.get_ident()

        def __del__(self):
            same_thread.append(self.built_on == threading.get_ident())

    monkeypatch.setattr(numerics, "Factorization", Tracked)
    A, block = block_stack(np.random.default_rng(5), [6, 9, 4, 7])
    facts = BlockFactorization(A, block)
    assert len(facts.pieces) == PIECES
    del facts
    gc.collect()
    numerics._on_worker(lambda: None).result()   # after the worker's release
    assert same_thread == [True] * PIECES


def test_block_factorization_frees_worker_pieces_when_the_last_fails(monkeypatch):
    # when the calling thread's piece is indefinite, the worker's good piece
    # must still be freed on the worker, or its factor leaks
    main, freed = threading.get_ident(), []

    class Tracked(Factorization):
        def __init__(self, A):
            self.built_on = threading.get_ident()   # set before a failure
            super().__init__(A)

        def __del__(self):
            if self.built_on != main:
                freed.append(self.built_on == threading.get_ident())

    monkeypatch.setattr(numerics, "Factorization", Tracked)
    A, block = block_stack(np.random.default_rng(7), [6, 6])
    bad = A.tolil()
    bad[8, 8] = -1.0
    with pytest.raises(NotPositiveDefinite) as exc:
        BlockFactorization(bad.tocsr(), block)
    assert exc.value.index == 8
    del exc
    gc.collect()
    numerics._on_worker(lambda: None).result()   # after the worker's release
    assert freed == [True]


def test_block_factorization_release_takes_no_lock(monkeypatch):
    # the cyclic garbage collector can free a factor at any allocation, here
    # while a worker task is being queued; the release must not wait for a
    # lock that the same thread holds
    A, block = block_stack(np.random.default_rng(9), [5, 6, 7])
    cycle = [BlockFactorization(A, block)]
    cycle.append(cycle)
    del cycle
    init = Future.__init__

    def collecting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        gc.collect()

    monkeypatch.setattr(Future, "__init__", collecting)
    done = []
    caller = threading.Thread(target=lambda: done.append(BlockFactorization(A, block)),
                              daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive() and len(done) == 1


def test_exit_with_a_live_block_factorization():
    # the worker thread is stopped before the interpreter finalizes, so a
    # factor still alive at exit lets the process end cleanly
    code = ("import numpy as np; from scipy.sparse import identity; "
            "from trefftz_dd.numerics import BlockFactorization; "
            "KEEP = BlockFactorization(identity(6, format='csr'), np.repeat([0, 1], 3)); "
            "print(len(KEEP.pieces))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert (run.returncode, run.stdout, run.stderr) == (0, "2\n", "")


def _solve_in_child(A, block, b, queue):
    queue.put(BlockFactorization(A, block).solve(b))


def test_block_factorization_in_forked_child():
    # the parent's worker thread exists before the fork; the child must get
    # its own rather than queue work for a thread it does not have
    rng = np.random.default_rng(17)
    A, block = block_stack(rng, [8, 8, 8])
    b = rng.standard_normal(A.shape[0])
    want = BlockFactorization(A, block).solve(b)
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_solve_in_child, args=(A, block, b, queue))
    child.start()
    try:
        got = queue.get(timeout=30)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert np.array_equal(got, want)


def test_gmres_solves_spd_system():
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.integers(5, 80))
        A = random_spd(rng, n)
        b = rng.standard_normal(n)
        M = diags(1.0 / A.diagonal())
        x, info = gmres(lambda v: A @ v, lambda v: M @ v, b,
                        GmresOptions(rel_tol=1e-10, max_iters=500))
        assert info["converged"]
        want = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(x - want) <= 1e-6 * np.linalg.norm(want)


def test_gmres_perfect_preconditioner_converges_immediately():
    rng = np.random.default_rng(5)
    A = random_spd(rng, 30)
    fact = Factorization(A)
    b = rng.standard_normal(30)
    x, info = gmres(lambda v: A @ v, fact.solve, b, GmresOptions(rel_tol=1e-12))
    assert info["converged"] and info["iterations"] <= 3
    assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_gmres_restart_path():
    rng = np.random.default_rng(9)
    A = random_spd(rng, 40)
    b = rng.standard_normal(40)
    x, info = gmres(lambda v: A @ v, lambda v: v, b,
                    GmresOptions(rel_tol=1e-10, restart=5, max_iters=400))
    assert info["converged"]
    assert np.linalg.norm(A @ x - b) <= 1e-7 * np.linalg.norm(b)


def test_gmres_callback_early_stop():
    rng = np.random.default_rng(21)
    A = random_spd(rng, 25)
    b = rng.standard_normal(25)
    seen = []

    def cb(k, xk, res, b_norm):
        seen.append((k, res))
        assert xk.shape == (25,)
        return k >= 3

    x, info = gmres(lambda v: A @ v, lambda v: v, b,
                    GmresOptions(rel_tol=1e-14), callback=cb)
    assert info["iterations"] == 3
    assert [k for k, _ in seen] == [1, 2, 3]
    assert not info["converged"]


def test_gmres_history_and_identity_breakdown():
    rng = np.random.default_rng(3)
    A = random_spd(rng, 20)
    b = rng.standard_normal(20)
    x, info = gmres(lambda v: A @ v, lambda v: v, b,
                    GmresOptions(rel_tol=1e-10))
    res = info["pre_res"]
    assert len(res) == info["iterations"]
    assert (np.diff(res) <= 1e-12 * res[0]).all()  # Givens residuals never grow
    assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 2e-10

    # A = I converges in one step by exact breakdown
    x, info = gmres(lambda v: v, lambda v: v, b, GmresOptions())
    assert info["breakdown"] and info["converged"]
    assert np.allclose(x, b, atol=1e-14)


def test_gmres_reuses_its_first_preconditioner_apply():
    # M b is the first residual M (b - A x) at x = 0: one apply per Arnoldi
    # step and per restart, plus the one that scales the stopping test
    rng = np.random.default_rng(17)
    A = random_spd(rng, 40)
    M = diags(1.0 / A.diagonal())
    b = rng.standard_normal(40)
    b[3] = -0.0
    for restart in (200, 5):
        opts = GmresOptions(rel_tol=1e-10, restart=restart)
        applies = []
        _, info = gmres(lambda v: A @ v, lambda v: applies.append(1) or M @ v, b, opts)
        cycles = -(-info["iterations"] // restart)
        assert info["converged"] and len(applies) == info["iterations"] + cycles
        # the same history, bit for bit, as from the recomputed M (b - A 0)
        first = [M @ (b - A @ np.zeros(40))]
        _, again = gmres(lambda v: A @ v, lambda v: first.pop() if first else M @ v, b, opts)
        assert again["pre_res"].tobytes() == info["pre_res"].tobytes()


def test_gmres_zero_rhs():
    x, info = gmres(lambda v: v, lambda v: v, np.zeros(7), GmresOptions())
    assert info["converged"] and np.array_equal(x, np.zeros(7))

