"""Feature-sign solver tests: closed forms, KKT certificates, brute force."""

import warnings

import numpy as np
import pytest

from segdict import sparse_coder
from segdict.errors import ConvergenceWarning, SingularActiveSetError
from segdict.sparse_coder import (SolverOptions, batch_encode,
                                  coding_objective, feature_sign_solve,
                                  kkt_violation)

from oracles import lasso_brute_force


def random_instance(rng, d, k):
    D = rng.normal(size=(d, k))
    D /= np.linalg.norm(D, axis=0)
    y = rng.normal(size=d)
    return D, y


def test_scalar_soft_threshold():
    x = feature_sign_solve(np.array([[1.0]]), np.array([2.0]),
                           SolverOptions(lam=1.0))
    assert x.shape == (1,)
    assert x[0] == pytest.approx(1.0, abs=1e-12)


def test_large_lambda_gives_zero():
    rng = np.random.default_rng(7)
    D, y = random_instance(rng, 4, 6)
    lam = float(np.abs(D.T @ y).max()) + 0.01
    x = feature_sign_solve(D, y, SolverOptions(lam=lam))
    assert np.all(x == 0.0)


def test_matches_brute_force_5x8():
    rng = np.random.default_rng(12)
    D, y = random_instance(rng, 5, 8)
    opts = SolverOptions(lam=0.1)
    x = feature_sign_solve(D, y, opts)
    obj = coding_objective(D, y.reshape(-1, 1), x.reshape(-1, 1), opts.lam)
    best_obj, _ = lasso_brute_force(D, y, opts.lam)
    assert obj == pytest.approx(best_obj, abs=1e-8)


def test_oracle_equivalence_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(2, 9))
        lam = float(rng.uniform(0.05, 0.5))
        D, y = random_instance(rng, d, k)
        x = feature_sign_solve(D, y, SolverOptions(lam=lam))
        assert kkt_violation(D, y, x, lam) <= 1e-6
        obj = coding_objective(D, y.reshape(-1, 1), x.reshape(-1, 1), lam)
        best_obj, _ = lasso_brute_force(D, y, lam)
        assert obj <= best_obj + 1e-8


def test_never_worse_than_zero_code():
    rng = np.random.default_rng(5)
    for _ in range(20):
        D, y = random_instance(rng, 6, 10)
        lam = float(rng.uniform(0.05, 0.5))
        x = feature_sign_solve(D, y, SolverOptions(lam=lam))
        obj = coding_objective(D, y.reshape(-1, 1), x.reshape(-1, 1), lam)
        assert obj <= 0.5 * float(y @ y) + 1e-12


def test_homogeneity():
    rng = np.random.default_rng(9)
    D, y = random_instance(rng, 5, 7)
    lam = 0.2
    x1 = feature_sign_solve(D, y, SolverOptions(lam=lam))
    for c in (0.5, 3.0):
        x2 = feature_sign_solve(D, c * y, SolverOptions(lam=c * lam))
        assert np.allclose(x2, c * x1, atol=1e-9)


def test_activation_tie_breaks_to_lowest_index():
    # duplicate atoms produce equal gradients; the first must activate
    D = np.array([[1.0, 1.0]])
    x = feature_sign_solve(D, np.array([2.0]), SolverOptions(lam=1.0))
    assert x[0] != 0.0
    assert x[1] == 0.0


def test_solve_active_raises_after_ridge_retry():
    from segdict.sparse_coder import _solve_active

    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(SingularActiveSetError):
        _solve_active(indefinite, np.array([1.0, 1.0]))


def test_rank_deficient_active_set_survives_via_ridge():
    # a3 = 0.7*(a1 + a2) joins the active set and makes the gram singular;
    # the ridge retry keeps the solve going and the KKT check still passes
    D = np.array([[1.0, 0.0, 0.7], [0.0, 1.0, 0.7]])
    y = np.array([3.0, 3.0])
    lam = 0.1
    x = feature_sign_solve(D, y, SolverOptions(lam=lam))
    assert kkt_violation(D, y, x, lam) <= 1e-6


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        feature_sign_solve(np.array([[1.0, 0.0]]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        feature_sign_solve(np.zeros((2, 1)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        SolverOptions(lam=0.0)


def test_batch_single_column_matches_solve():
    rng = np.random.default_rng(3)
    D, y = random_instance(rng, 4, 5)
    opts = SolverOptions(lam=0.1)
    X = batch_encode(D, y.reshape(-1, 1), opts)
    assert np.array_equal(X[:, 0], feature_sign_solve(D, y, opts))


def test_batch_on_orthonormal_atoms_recovers_identity():
    rng = np.random.default_rng(11)
    D, _ = np.linalg.qr(rng.normal(size=(40, 8)))
    opts = SolverOptions(lam=0.01)
    X = batch_encode(D, D, opts)
    for i in range(8):
        assert np.argmax(np.abs(X[:, i])) == i
        assert X[i, i] >= 0.9


def test_batch_equals_sequential():
    rng = np.random.default_rng(17)
    D, _ = random_instance(rng, 6, 9)
    Y = rng.normal(size=(6, 5))
    opts = SolverOptions(lam=0.15)
    X = batch_encode(D, Y, opts)
    for i in range(5):
        assert np.array_equal(X[:, i], feature_sign_solve(D, Y[:, i], opts))


def test_batch_across_blocks_equals_single_solves():
    rng = np.random.default_rng(31)
    D, _ = random_instance(rng, 12, 10)
    n = 2 * sparse_coder._BLOCK + 3
    Y = rng.normal(size=(12, n))
    opts = SolverOptions(lam=0.05)
    X = batch_encode(D, Y, opts)
    for i in range(n):
        assert np.array_equal(X[:, i], feature_sign_solve(D, Y[:, i], opts))


def test_rank_deficient_column_among_ordinary_columns(monkeypatch):
    # column 7 is the a3 = 0.7*(a1 + a2) case: its active set is singular,
    # so it leaves the stacked solve for the ridge retry of _solve_active
    D = np.array([[1.0, 0.0, 0.7], [0.0, 1.0, 0.7]])
    rng = np.random.default_rng(8)
    Y = 3.0 * rng.normal(size=(2, 20))
    Y[:, 7] = [3.0, 3.0]
    lam = 0.1
    calls = []
    solve_active = sparse_coder._solve_active

    def spy(A, b):
        calls.append(A.shape[0])
        return solve_active(A, b)

    monkeypatch.setattr(sparse_coder, "_solve_active", spy)
    X = batch_encode(D, Y, SolverOptions(lam=lam))
    assert calls
    for i in range(20):
        assert kkt_violation(D, Y[:, i], X[:, i], lam) <= 1e-6


def test_singular_failure_names_its_column(monkeypatch):
    # a pivot ratio that no factorization can meet fails the stacked solve
    # and the ridge retry alike
    monkeypatch.setattr(sparse_coder, "_PIVOT_RTOL", 2.0)
    rng = np.random.default_rng(4)
    D, _ = random_instance(rng, 5, 6)
    Y = np.zeros((5, sparse_coder._BLOCK + 60))
    Y[:, 300] = rng.normal(size=5)
    with pytest.raises(SingularActiveSetError, match="column 300"):
        batch_encode(D, Y, SolverOptions(lam=0.01))


def warning_messages(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn(*args)
    return [str(w.message) for w in caught
            if issubclass(w.category, ConvergenceWarning)]


def test_warnings_count_stalled_and_max_iter_columns():
    # two nearly equal atoms and large data: some line searches cannot
    # decrease the objective at the relative tolerance of the stall test
    rng = np.random.default_rng(1)
    D = rng.normal(size=(6, 3))
    D[:, 1] = D[:, 0] + 3e-5 * rng.normal(size=6)
    D /= np.linalg.norm(D, axis=0)
    Y = 60.0 * rng.normal(size=(6, 40))
    opts = SolverOptions(lam=4e-4)
    single = ("feature-sign search stalled (the line search could not "
              "decrease the objective) on 1 of 1 columns (first: column 0)")
    alone = [warning_messages(feature_sign_solve, D, Y[:, i], opts)
             for i in range(40)]
    stalled = [i for i, caught in enumerate(alone) if caught == [single]]
    assert stalled
    assert all(caught in ([], [single]) for caught in alone)
    assert warning_messages(batch_encode, D, Y, opts) == [
        "feature-sign search stalled (the line search could not decrease "
        f"the objective) on {len(stalled)} of 40 columns "
        f"(first: column {stalled[0]})"]

    Y[:, :2] = 0.0   # optimal at the start, before any step
    assert warning_messages(batch_encode, D, Y,
                            SolverOptions(lam=4e-4, max_iter=1)) == [
        "feature-sign search hit max_iter=1 before optimality on 38 of 40 "
        "columns (first: column 2)"]


def test_batch_error_carries_column_index():
    D = np.array([[1.0, 0.5]])
    Y = np.array([[1.0, np.nan]])
    with pytest.raises(ValueError, match="column 1"):
        batch_encode(D, Y, SolverOptions(lam=0.1))


def test_coding_objective_examples():
    D = np.array([[1.0]])
    Y = np.array([[2.0]])
    assert coding_objective(D, Y, np.array([[0.0]]), 1.0) == pytest.approx(2.0)
    assert coding_objective(D, Y, np.array([[2.0]]), 1e-9) == pytest.approx(
        2e-9, abs=1e-12)
    assert coding_objective(D, Y, np.array([[1.0]]), 1.0) == pytest.approx(1.5)
    rng = np.random.default_rng(1)
    Dr = rng.normal(size=(4, 3))
    Xr = rng.normal(size=(3, 6))
    assert coding_objective(Dr, Dr @ Xr, Xr, 0.0) == pytest.approx(0.0, abs=1e-18)
    Yr = rng.normal(size=(4, 6))
    assert coding_objective(Dr, Yr, np.zeros((3, 6)), 0.3) == pytest.approx(
        0.5 * np.sum(Yr * Yr))
