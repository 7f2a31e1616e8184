"""Feature-sign solver tests: closed forms, KKT certificates, brute force."""

import warnings

import numpy as np
import pytest

from segdict import sparse_coder
from segdict.errors import ConvergenceWarning, SingularActiveSetError
from segdict.sparse_coder import (_solve_active_sets, batch_encode,
                                  coding_objective)

from oracles import lasso_brute_force, lasso_kkt_violation


def encode_one(D, y, lam):
    return batch_encode(D, y[:, None], lam)[:, 0]


def random_instance(rng, d, k):
    D = rng.normal(size=(d, k))
    D /= np.linalg.norm(D, axis=0)
    y = rng.normal(size=d)
    return D, y


def test_scalar_soft_threshold():
    x = encode_one(np.array([[1.0]]), np.array([2.0]), 1.0)
    assert x.shape == (1,)
    assert x[0] == pytest.approx(1.0, abs=1e-12)


def test_large_lambda_gives_zero():
    rng = np.random.default_rng(7)
    D, y = random_instance(rng, 4, 6)
    lam = float(np.abs(D.T @ y).max()) + 0.01
    x = encode_one(D, y, lam)
    assert np.all(x == 0.0)


def test_matches_brute_force_5x8():
    rng = np.random.default_rng(12)
    D, y = random_instance(rng, 5, 8)
    lam = 0.1
    x = encode_one(D, y, lam)
    obj = coding_objective(D, y.reshape(-1, 1), x.reshape(-1, 1), lam)
    best_obj, _ = lasso_brute_force(D, y, lam)
    assert obj == pytest.approx(best_obj, abs=1e-8)


def test_oracle_equivalence_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(2, 9))
        lam = float(rng.uniform(0.05, 0.5))
        D, y = random_instance(rng, d, k)
        x = encode_one(D, y, lam)
        assert lasso_kkt_violation(D, y, x, lam) <= 1e-6
        obj = coding_objective(D, y.reshape(-1, 1), x.reshape(-1, 1), lam)
        best_obj, _ = lasso_brute_force(D, y, lam)
        assert obj <= best_obj + 1e-8


def test_never_worse_than_zero_code():
    rng = np.random.default_rng(5)
    for _ in range(20):
        D, y = random_instance(rng, 6, 10)
        lam = float(rng.uniform(0.05, 0.5))
        x = encode_one(D, y, lam)
        obj = coding_objective(D, y.reshape(-1, 1), x.reshape(-1, 1), lam)
        assert obj <= 0.5 * float(y @ y) + 1e-12


def test_homogeneity():
    rng = np.random.default_rng(9)
    D, y = random_instance(rng, 5, 7)
    lam = 0.2
    x1 = encode_one(D, y, lam)
    for c in (0.5, 3.0):
        x2 = encode_one(D, c * y, c * lam)
        assert np.allclose(x2, c * x1, atol=1e-9)


def test_activation_tie_breaks_to_lowest_index():
    # duplicate atoms produce equal gradients; the first must activate
    D = np.array([[1.0, 1.0]])
    x = encode_one(D, np.array([2.0]), 1.0)
    assert x[0] != 0.0
    assert x[1] == 0.0


def test_solve_active_raises_after_ridge_retry():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(SingularActiveSetError,
                       match="column 5: rank-deficient active set of size 2"):
        _solve_active_sets(indefinite, np.ones((1, 2), dtype=bool),
                           np.array([[1.0, 1.0]]), np.array([5]))


def test_rank_deficient_active_set_survives_via_ridge():
    # a3 = 0.7*(a1 + a2) joins the active set and makes the gram singular;
    # the ridge retry keeps the solve going and the KKT check still passes
    D = np.array([[1.0, 0.0, 0.7], [0.0, 1.0, 0.7]])
    y = np.array([3.0, 1.0])
    lam = 0.1
    x = encode_one(D, y, lam)
    assert lasso_kkt_violation(D, y, x, lam) <= 1e-6


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        encode_one(np.array([[1.0, 0.0]]), np.array([1.0, 2.0]), 0.1)
    with pytest.raises(ValueError):
        encode_one(np.zeros((2, 1)), np.array([1.0, 0.0]), 0.1)
    with pytest.raises(ValueError):
        encode_one(np.eye(2), np.array([1.0, 0.0]), 0.0)


def test_rejects_a_nan_lambda():
    y = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="lam must be positive, got nan"):
        batch_encode(np.eye(2), y[:, None], float("nan"))


def test_batch_on_orthonormal_atoms_recovers_identity():
    rng = np.random.default_rng(11)
    D, _ = np.linalg.qr(rng.normal(size=(40, 8)))
    X = batch_encode(D, D, 0.01)
    for i in range(8):
        assert np.argmax(np.abs(X[:, i])) == i
        assert X[i, i] >= 0.9


def test_batch_equals_sequential():
    rng = np.random.default_rng(17)
    D, _ = random_instance(rng, 6, 9)
    Y = rng.normal(size=(6, 5))
    lam = 0.15
    X = batch_encode(D, Y, lam)
    for i in range(5):
        assert np.array_equal(X[:, i], encode_one(D, Y[:, i], lam))


def test_batch_across_blocks_equals_single_solves():
    rng = np.random.default_rng(31)
    D, _ = random_instance(rng, 12, 10)
    n = 2 * sparse_coder._BLOCK + 3
    Y = rng.normal(size=(12, n))
    lam = 0.05
    X = batch_encode(D, Y, lam)
    for i in range(n):
        assert np.array_equal(X[:, i], encode_one(D, Y[:, i], lam))


def planted_columns(seed, nnz, coherence, d=50, k=16,
                    n=2 * sparse_coder._BLOCK + 40):
    # unit atoms leaning `coherence` toward one shared direction; each
    # column mixes nnz of them with signed weights of magnitude 0.5 to 1.5,
    # plus noise
    rng = np.random.default_rng(seed)
    D = coherence * rng.normal(size=(d, 1)) / np.sqrt(d)
    D = D + rng.normal(size=(d, k)) / np.sqrt(d)
    D /= np.linalg.norm(D, axis=0)
    X = np.zeros((k, n))
    for i in range(n):
        X[rng.choice(k, nnz, replace=False), i] = (
            rng.uniform(0.5, 1.5, nnz) * rng.choice([-1.0, 1.0], nnz))
    return D, D @ X + 0.05 * rng.normal(size=(d, n))


def test_guess_gives_the_loops_codes(monkeypatch):
    # from FISTA's iterate and from zero alike, the search leaves from the
    # exact solve on its final support and signs: coherent atoms make the
    # last step long enough that x + (x_new - x) can round away from
    # x_new, and on seeds 3 and 25 a column meets the stop test at a sign
    # crossing, which is solved once more on its support and signs
    for seed, coherence in ((23, 2.0), (3, 0.0), (25, 1.0)):
        D, Y = planted_columns(seed, 8, coherence)
        monkeypatch.setattr(sparse_coder, "_GUESS_STEPS", 30)
        X = batch_encode(D, Y, 0.1)
        monkeypatch.setattr(sparse_coder, "_GUESS_STEPS", 0)
        assert np.array_equal(batch_encode(D, Y, 0.1), X)


def test_guess_settles_most_columns(monkeypatch):
    # from FISTA's iterate most columns hold their signs, so one exact
    # solve, the first round's, settles them; from zero every column
    # activates its atoms one round at a time
    D, Y = planted_columns(1, 3, 0.0)
    n = Y.shape[1]
    solved = []
    solve = sparse_coder._solve_active_sets

    def spy(G, active, b, cols):
        solved.extend(cols)
        return solve(G, active, b, cols)

    monkeypatch.setattr(sparse_coder, "_solve_active_sets", spy)
    X = batch_encode(D, Y, 0.1)
    rounds = np.bincount(solved, minlength=n)
    assert np.count_nonzero(rounds != 1) < 0.1 * n
    for i in range(0, n, 37):
        assert lasso_kkt_violation(D, Y[:, i], X[:, i], 0.1) <= 1e-6


def test_singular_gram_skips_the_guess(monkeypatch):
    # with more atoms than rows the lasso optimum need not be unique, so
    # every column starts from zero and keeps its lowest-index tie-break
    guessed = []
    fista = sparse_coder._fista

    def spy(*args):
        guessed.append(args)
        return fista(*args)

    monkeypatch.setattr(sparse_coder, "_fista", spy)
    rng = np.random.default_rng(6)
    D, _ = random_instance(rng, 4, 7)
    Y = rng.normal(size=(4, 30))
    X = batch_encode(D, Y, 0.1)
    for i in range(30):
        assert lasso_kkt_violation(D, Y[:, i], X[:, i], 0.1) <= 1e-6
    test_activation_tie_breaks_to_lowest_index()
    assert guessed == []
    # a positive definite gram takes the guess
    batch_encode(D[:, :3], Y, 0.1)
    assert len(guessed) == 1


def test_an_optimal_start_ends_on_its_exact_solve():
    # a start that meets the optimality conditions but is not an exact
    # solve takes one more solve on its support and signs; with large data
    # its objective can read higher by rounding, which is not a stall
    rng = np.random.default_rng(0)
    D = rng.normal(size=(8, 4))
    D /= np.linalg.norm(D, axis=0)
    Y = D @ (1e3 * rng.normal(size=(4, 40)))
    X = batch_encode(D, Y, 0.1)
    Yr = Y.T.copy()
    Dty = np.matmul(Yr[:, None, :], D)[:, 0, :]
    start = X.T * (1.0 + 1e-13 * rng.uniform(-1.0, 1.0, size=X.T.shape))
    codes, outcome = sparse_coder._solve_block(D.T @ D, Dty, 0.1,
                                               np.arange(40), start)
    assert np.all(outcome == sparse_coder._CONVERGED)
    assert np.array_equal(codes, X)


def test_a_warm_start_gives_the_cold_codes(monkeypatch):
    # the dictionary fit starts each alternation from the previous codes;
    # on a positive definite gram the search ends on the same exact solves
    # as from FISTA's iterate, bit for bit, across blocks and column by
    # column
    D1, Y = planted_columns(4, 3, 0.5)
    rng = np.random.default_rng(4)
    D2 = D1 + 1e-3 * rng.normal(size=D1.shape)
    D2 /= np.linalg.norm(D2, axis=0)
    start = batch_encode(D1, Y, 0.1)
    cold = batch_encode(D2, Y, 0.1)
    guessed = []
    fista = sparse_coder._fista

    def spy(*args):
        guessed.append(args)
        return fista(*args)

    monkeypatch.setattr(sparse_coder, "_fista", spy)
    warm = batch_encode(D2, Y, 0.1, start=start)
    assert Y.shape[1] > sparse_coder._BLOCK and guessed == []
    assert np.array_equal(warm, cold)
    for i in range(0, Y.shape[1], 41):
        one = batch_encode(D2, Y[:, i:i + 1], 0.1, start=start[:, i:i + 1])
        assert np.array_equal(one[:, 0], warm[:, i])


def test_singular_gram_ignores_the_start():
    # atom 3 duplicates atom 0, so the optimum is not unique: a start on
    # the copy is ignored and the lowest index takes the weight
    rng = np.random.default_rng(9)
    D0, _ = random_instance(rng, 4, 3)
    D = np.hstack([D0, D0[:, :1]])
    Y = rng.normal(size=(4, 20))
    X0 = batch_encode(D0, Y, 0.1)
    start = np.vstack([np.zeros((1, 20)), X0[1:], X0[:1]])
    X = batch_encode(D, Y, 0.1, start=start)
    assert np.count_nonzero(X0[0]) > 0
    assert not X[3].any()
    assert np.array_equal(X, batch_encode(D, Y, 0.1))


def test_rejects_a_bad_start():
    D, Y = np.eye(3), np.ones((3, 4))
    with pytest.raises(ValueError,
                       match=r"start has shape \(3, 3\), expected \(3, 4\)"):
        batch_encode(D, Y, 0.1, start=np.zeros((3, 3)))
    start = np.zeros((3, 4))
    start[1, 2] = np.nan
    with pytest.raises(ValueError, match="column 2: start must be finite"):
        batch_encode(D, Y, 0.1, start=start)


def test_rank_deficient_column_among_ordinary_columns(monkeypatch):
    # with a3 = 0.7*(a1 + a2) every three-atom active set is singular;
    # columns 7 and 12, mirror images, reach one in the same round, so both
    # fail the stacked factorization and share one stacked ridge retry
    D = np.array([[1.0, 0.0, 0.7], [0.0, 1.0, 0.7]])
    rng = np.random.default_rng(8)
    Y = 3.0 * rng.normal(size=(2, 20))
    Y[:, 7] = [3.0, 1.0]
    Y[:, 12] = [-3.0, -1.0]
    lam = 0.1
    rounds = []        # per round, the ok mask of each outer _factor call
    depth = []         # _factor splits a failed stack by calling itself
    solve, factor = sparse_coder._solve_active_sets, sparse_coder._factor

    def spy_solve(G, active, b, cols):
        rounds.append((cols, []))
        return solve(G, active, b, cols)

    def spy_factor(A, active):
        depth.append(1)
        L, ok = factor(A, active)
        depth.pop()
        if not depth:
            rounds[-1][1].append(ok)
        return L, ok

    monkeypatch.setattr(sparse_coder, "_solve_active_sets", spy_solve)
    monkeypatch.setattr(sparse_coder, "_factor", spy_factor)
    X = batch_encode(D, Y, lam)
    retried = [(set(cols[~oks[0]]), oks[1]) for cols, oks in rounds
               if len(oks) > 1]
    assert any({7, 12} <= cols for cols, _ in retried)
    assert all(ok.all() for _, ok in retried)
    for i in range(20):
        assert lasso_kkt_violation(D, Y[:, i], X[:, i], lam) <= 1e-6


def test_singular_failure_names_its_column(monkeypatch):
    # a pivot ratio that no factorization can meet fails the stacked solve
    # and the ridge retry alike
    monkeypatch.setattr(sparse_coder, "_PIVOT_RTOL", 2.0)
    rng = np.random.default_rng(4)
    D, _ = random_instance(rng, 5, 6)
    Y = np.zeros((5, sparse_coder._BLOCK + 60))
    Y[:, 300] = rng.normal(size=5)
    Y[:, 310] = rng.normal(size=5)
    with pytest.raises(SingularActiveSetError, match="column 300"):
        batch_encode(D, Y, 0.01)


def warning_messages(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn(*args)
    return [str(w.message) for w in caught
            if issubclass(w.category, ConvergenceWarning)]


def near_duplicate_atoms():
    # two nearly equal atoms and large data
    rng = np.random.default_rng(1)
    D = rng.normal(size=(6, 3))
    D[:, 1] = D[:, 0] + 3e-5 * rng.normal(size=6)
    D /= np.linalg.norm(D, axis=0)
    return D, 60.0 * rng.normal(size=(6, 40)), 4e-4


def near_optimal_start(seed):
    # atom 1 is atom 0 plus 1e-3 noise (gram condition 1e6 to 4e7), large
    # data, and a start at the cold codes nudged by 1e-12, as the
    # dictionary fit's warm start is once the fit settles
    rng = np.random.default_rng(seed)
    D = rng.normal(size=(6, 4))
    D[:, 1] = D[:, 0] + 1e-3 * rng.normal(size=6)
    D /= np.linalg.norm(D, axis=0)
    Y = 100.0 * rng.normal(size=(6, 50))
    cold = batch_encode(D, Y, 0.01)
    start = cold * (1.0 + 1e-12 * rng.uniform(-1.0, 1.0, size=cold.shape))
    return D, Y, 0.01, start


def warm_encode_with_warnings(D, Y, lam, start):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        X = batch_encode(D, Y, lam, start=start)
    return X, [str(w.message) for w in caught
               if issubclass(w.category, ConvergenceWarning)]


def stall_message(count, n, first):
    return ("feature-sign search stalled (the line search could not "
            f"decrease the objective) on {count} of {n} columns (first: "
            f"column {first})")


def test_warnings_count_stalled_and_max_iter_columns(monkeypatch):
    # from a near-optimal start some line searches cannot decrease the
    # objective; those columns are solved once more from FISTA's iterate
    # and reach optimality, with no warning
    for seed in range(10):
        D, Y, lam, start = near_optimal_start(seed)
        X, caught = warm_encode_with_warnings(D, Y, lam, start)
        assert caught == []
        assert max(lasso_kkt_violation(D, Y[:, i], X[:, i], lam)
                   for i in range(50)) <= 1e-9

    # only a column that stalls on the second solve too is counted
    D, Y, lam, start = near_optimal_start(0)
    solve, calls = sparse_coder._solve_block, []
    stalls = [[7, 9, 30], [9, 30]]      # marked stalled on each solve

    def stalling(G, Dty, lam, cols, X):
        codes, outcome = solve(G, Dty, lam, cols, X)
        calls.append(cols)
        stall = np.isin(cols, stalls[len(calls) - 1])
        return codes, np.where(stall, sparse_coder._STALLED, outcome)

    monkeypatch.setattr(sparse_coder, "_solve_block", stalling)
    assert warm_encode_with_warnings(D, Y, lam, start)[1] == [
        stall_message(2, 50, 9)]
    assert len(calls) == 2 and set(calls[1]) >= {7, 9, 30}
    monkeypatch.undo()

    D, Y, lam = near_duplicate_atoms()
    Y[:, :2] = 0.0   # optimal at the start, before any step
    monkeypatch.setattr(sparse_coder, "_MAX_STEPS", 1)
    assert warning_messages(batch_encode, D, Y, lam) == [
        "feature-sign search hit max_iter=1 before optimality on 38 of 40 "
        "columns (first: column 2)"]


def test_a_near_optimal_start_stalls_alike_in_any_block():
    # the stalls of a warm batch are those of its one-column calls, and
    # every column of the batch is its one-column call bit for bit: each
    # per-column product of the line search is its own stacked item
    for seed in range(10):
        D, Y, lam, start = near_optimal_start(seed)
        warm, caught = warm_encode_with_warnings(D, Y, lam, start)
        stalled = []
        for i in range(50):
            one, alone = warm_encode_with_warnings(D, Y[:, i:i + 1], lam,
                                                   start[:, i:i + 1])
            assert np.array_equal(one[:, 0], warm[:, i])
            assert alone in ([], [stall_message(1, 1, 0)])
            stalled += [i] if alone else []
        assert caught == ([stall_message(len(stalled), 50, stalled[0])]
                          if stalled else [])


def test_no_column_stalls_from_zero_on_near_duplicate_atoms(monkeypatch):
    # from zero too, every column reaches optimality: the line search
    # scores the objective's exact change along the step, so the rounding
    # of a large objective cannot stop it short
    monkeypatch.setattr(sparse_coder, "_GUESS_STEPS", 0)
    D, Y, lam = near_duplicate_atoms()
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        X = batch_encode(D, Y, lam)
    for i in range(40):
        assert lasso_kkt_violation(D, Y[:, i], X[:, i], lam) <= 1e-6


def test_fista_start_reaches_optimality_on_near_duplicate_atoms():
    # from FISTA's iterate, as from zero, every column reaches optimality
    D, Y, lam = near_duplicate_atoms()
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        X = batch_encode(D, Y, lam)
    for i in range(40):
        assert lasso_kkt_violation(D, Y[:, i], X[:, i], lam) <= 1e-6


def test_batch_error_carries_column_index():
    D = np.array([[1.0, 0.5]])
    Y = np.array([[1.0, np.nan]])
    with pytest.raises(ValueError, match="column 1"):
        batch_encode(D, Y, 0.1)


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
