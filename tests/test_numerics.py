"""Linear algebra tests: factorization vs dense reference, GMRES behaviour."""
import numpy as np
import pytest
from scipy.sparse import block_diag, csr_matrix, diags, random as sparse_random

from trefftz_dd.errors import DimMismatch, NotPositiveDefinite
from trefftz_dd.numerics import Factorization, GmresOptions, gmres


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


def test_gmres_zero_rhs():
    x, info = gmres(lambda v: v, lambda v: v, np.zeros(7), GmresOptions())
    assert info["converged"] and np.array_equal(x, np.zeros(7))

