"""SVM tests: kernel closed forms, SMO KKT certificates, grid search."""

import warnings
from itertools import combinations, product

import numpy as np
import pytest

from segdict import classifier
from segdict.classifier import (MultiClassSvm, TrainedSvm, _cv_correct,
                                _pair_problems, _smo_batch, _stratified_folds,
                                _vote, decision_values, grid_search_cv,
                                predict_batch, rbf_gram, smo_train,
                                train_multiclass)
from segdict.errors import (ConvergenceWarning, InsufficientDataError,
                            SingleClassError)

from oracles import svm_dual_pg, svm_kkt_violations, svm_wss2


def dual_objective_value(features, labels, alphas_signed, sv_idx, gamma):
    """0.5 * sum a_i a_j y_i y_j K_ij - sum a_i from a sparse solution."""
    y = np.asarray(labels, dtype=float)
    a_signed = np.zeros(y.size)
    a_signed[sv_idx] = alphas_signed
    K = rbf_gram(features, features, gamma)
    quad = 0.5 * float(a_signed @ (K @ a_signed))
    return quad - float(np.abs(a_signed).sum())


def kernel(a, b, gamma):
    """K(a, b) through rbf_gram on one column each."""
    return float(rbf_gram(a[:, None], b[:, None], gamma)[0, 0])


def test_rbf_gram_column_values():
    a = np.array([1.0, 2.0])
    assert kernel(a, a, 0.7) == pytest.approx(1.0)
    b = np.array([1.0, 3.0])  # ||a-b||^2 = 1
    assert kernel(a, b, 1.0) == pytest.approx(np.exp(-1.0))
    assert kernel(a, b, 1.0) == pytest.approx(0.367879, abs=1e-6)


def test_rbf_gram_column_symmetry_sweep():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        g = float(rng.uniform(0.1, 3.0))
        assert abs(kernel(a, b, g) - kernel(b, a, g)) <= 1e-15
        assert 0.0 < kernel(a, b, g) <= 1.0


def test_rbf_gram_rejects_non_positive_gamma():
    A = np.array([[0.0, 1.0]])
    for gamma, shown in ((-1.0, "-1"), (0.0, "0"), (float("nan"), "nan")):
        with pytest.raises(ValueError, match=f"gamma must be positive, got "
                                             f"{shown}$"):
            rbf_gram(A, A, gamma)


@pytest.mark.parametrize("shape,gamma", [((3, 1, 1), 0.7), ((4, 9, 5), 2.0),
                                         ((50, 100, 390), 2.0 ** -10),
                                         ((1, 7, 7), 8.0)])
def test_rbf_gram_equals_the_plain_formula_bit_for_bit(shape, gamma):
    d, m, n = shape
    rng = np.random.default_rng(m + n)
    A, B = rng.normal(size=(d, m)), rng.normal(size=(d, n))
    na, nb = np.einsum("ij,ij->j", A, A), np.einsum("ij,ij->j", B, B)
    d2 = np.maximum(na[:, None] + nb[None, :] - 2.0 * (A.T @ B), 0.0)
    assert rbf_gram(A, B, gamma).tobytes() == np.exp(-gamma * d2).tobytes()


@pytest.mark.parametrize("field", ["gamma", "c_penalty"])
def test_trained_svm_rejects_a_nan_gamma_or_c(field):
    args = {"gamma": 0.5, "c_penalty": 1.0, field: float("nan")}
    with pytest.raises(ValueError, match=f"^{field} must be positive, got nan$"):
        TrainedSvm(np.eye(2), [0.5, -0.5], 0.0, args["gamma"],
                   args["c_penalty"], ("a", "b"), [0, 1])


def test_two_point_symmetric_machine():
    X = np.array([[0.0, 2.0]])
    y = np.array([1.0, -1.0])
    m = smo_train(X, y, c_penalty=1e6, gamma=0.5)
    assert m.alphas.size == 2  # both points are support vectors
    unsigned = np.abs(m.alphas)
    assert unsigned[0] == pytest.approx(unsigned[1], rel=1e-9)
    assert m.bias == pytest.approx(0.0, abs=1e-6)
    pred = np.sign(np.array([m.alphas @ rbf_gram(m.support_vectors,
                                                 X[:, [i]], 0.5).ravel()
                             for i in range(2)]) + m.bias)
    assert np.array_equal(pred, y)


def test_xor_training_accuracy():
    X = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    m = smo_train(X, y, c_penalty=10.0, gamma=1.0)
    from segdict.classifier import decision_values
    f = decision_values(m, X)
    assert np.all(np.sign(f) == y)
    assert svm_kkt_violations(m, X, y).max() <= 1e-3


def test_dual_objective_matches_qp_oracle():
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(size=(2, 3)) - 2.0,
                   ]).reshape(2, 3)
    X = np.hstack([X, rng.normal(size=(2, 3)) + 2.0])
    y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    C, gamma = 10.0, 0.5
    m = smo_train(X, y, C, gamma)
    ours = dual_objective_value(X, y, m.alphas, m.sv_indices, gamma)
    K = rbf_gram(X, X, gamma)
    _, oracle = svm_dual_pg(K, y, C)
    assert ours == pytest.approx(oracle, abs=1e-4)


def test_smo_kkt_over_random_instances():
    rng = np.random.default_rng(5)
    for trial in range(10):
        m_count = int(rng.integers(6, 20))
        X = rng.normal(size=(3, m_count))
        y = np.where(rng.random(m_count) < 0.5, 1.0, -1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        C = float(rng.uniform(0.5, 20.0))
        gamma = float(rng.uniform(0.2, 2.0))
        machine = smo_train(X, y, C, gamma)
        assert svm_kkt_violations(machine, X, y).max() <= 1e-3
        # equality constraint and box constraint
        assert abs(machine.alphas.sum()) <= 1e-6 * np.abs(machine.alphas).sum() + 1e-9
        assert np.all(np.abs(machine.alphas) <= C * (1 + 1e-9))


def test_dual_objective_non_increasing_across_pair_updates():
    rng = np.random.default_rng(15)
    X = np.hstack([rng.normal(size=(2, 8)) - 1.0, rng.normal(size=(2, 8)) + 1.0])
    y = np.array([1.0] * 8 + [-1.0] * 8)
    gamma, C = 0.8, 5.0
    K = rbf_gram(X, X, gamma)
    Q = K * np.outer(y, y)
    objectives = []
    _smo_batch(K, np.arange(16)[None], y[None], C, gamma, [("+1", "-1")],
               on_step=lambda a, b: objectives.append(
                   0.5 * float(a @ (Q @ a)) - float(a.sum())))
    assert len(objectives) > 1
    assert np.all(np.diff(np.array(objectives)) <= 1e-12)


def test_final_bias_treats_alpha_one_ulp_below_c_as_bound():
    # on this set the pair updates leave one alpha at 0.29999999999999993,
    # one ulp below C; counted as free, it would enter the bias average
    X = np.array([[0.23117221786996256, -0.040436618910061714,
                   0.6101709946993459, -0.10539934301813095,
                   0.6895232544513857, -0.7633239814379331,
                   0.20820036582097876, -0.4594058127982602,
                   0.7132569413988241, -0.5193189271515435,
                   -0.5820721024633683, 1.2243963470095887]])
    y = np.array([-1.0, 1, -1, -1, 1, 1, 1, 1, 1, -1, 1, 1])
    C, tol = 0.3, 1e-3
    seen = []
    _smo_batch(rbf_gram(X, X, 0.0625), np.arange(12)[None], y[None], C,
               0.0625, [("+1", "-1")],
               on_step=lambda alpha, b: seen.append(alpha))
    m = smo_train(X, y, C, 0.0625)
    assert np.any(seen[-1] == np.nextafter(C, 0.0))
    assert m.converged
    assert svm_kkt_violations(m, X, y).max() <= tol
    assert not np.any(np.abs(m.alphas) == np.nextafter(C, 0.0))


def test_batch_of_mixed_sizes_equals_single_solves():
    # 40 problems of 4-20 samples share one padded batch; each must get
    # the same duals, bias and outcome, bit for bit, as when solved alone
    rng = np.random.default_rng(12)
    sizes = rng.integers(4, 21, size=40)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    X = rng.normal(size=(3, int(sizes.sum())))
    idx = np.zeros((40, sizes.max()), dtype=int)
    y = np.zeros(idx.shape)
    for p, (s, m) in enumerate(zip(starts, sizes)):
        idx[p, :m] = np.arange(s, s + m)
        y[p, :m] = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        y[p, 0], y[p, 1] = 1.0, -1.0
    pairs = [("a", "b")] * 40
    for C, gamma in ((0.5, 0.3), (40.0, 0.3), (8.0, 2.0)):
        K = rbf_gram(X, X, gamma)
        alpha, bias, ok = _smo_batch(K, idx, y, C, gamma, pairs)
        assert ok.all()
        for p, m in enumerate(sizes):
            a1, b1, ok1 = _smo_batch(K, idx[p:p + 1, :m], y[p:p + 1, :m], C,
                                     gamma, pairs[:1])
            assert np.array_equal(alpha[p, :m], a1[0])
            assert np.all(alpha[p, m:] == 0.0)
            assert bias[p] == b1[0] and ok[p] == ok1[0]


def test_batch_of_mixed_c_equals_single_solves(monkeypatch):
    # one batch over five C values, with a tolerance and update cap under
    # which problems stop after 2 to 88 updates and some hit the cap: each
    # problem must get its own C's duals, bias and outcome, bit for bit
    rng = np.random.default_rng(13)
    sizes = rng.integers(4, 25, size=30)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    X = rng.normal(size=(3, int(sizes.sum())))
    idx = np.zeros((30, sizes.max()), dtype=int)
    y = np.zeros(idx.shape)
    for p, (s, m) in enumerate(zip(starts, sizes)):
        idx[p, :m] = np.arange(s, s + m)
        y[p, :m] = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        y[p, 0], y[p, 1] = 1.0, -1.0
    C = np.array([0.01, 0.5, 8.0, 200.0, 5000.0])[np.arange(30) % 5]
    pairs = [(f"p{p}", "q") for p in range(30)]
    K = rbf_gram(X, X, 0.5)
    monkeypatch.setattr(classifier, "_MAX_SWEEPS", 4)
    with pytest.warns(ConvergenceWarning) as caught:
        alpha, bias, ok = _smo_batch(K, idx, y, C, 0.5, pairs)
    updates = []
    with warnings.catch_warnings(record=True) as single:
        warnings.simplefilter("always")
        for p, m in enumerate(sizes):
            count = []
            a1, b1, ok1 = _smo_batch(K, idx[p:p + 1, :m], y[p:p + 1, :m],
                                     C[p], 0.5, pairs[p:p + 1],
                                     on_step=lambda a, b: count.append(1))
            updates.append(len(count))
            assert np.array_equal(alpha[p, :m], a1[0])
            assert np.all(alpha[p, m:] == 0.0)
            assert bias[p] == b1[0] and ok[p] == ok1[0]
    assert min(updates) <= 5 and max(updates) >= 80
    # each single solve that stops at the cap warns once
    assert [w.category for w in single] == [ConvergenceWarning] * np.sum(~ok)
    assert np.any(updates == 4 * sizes) and 0 < np.sum(~ok) < 30
    # the warning names the first unconverged machine's own C
    first = np.argmin(ok)
    assert len(caught) == 1 and C[first] != C[0]
    assert str(caught[0].message).endswith(
        f"on {np.sum(~ok)} of 30 machines (first: pair ('p{first}', 'q'), "
        f"C={C[first]:g}, gamma=0.5)")


@pytest.mark.parametrize("max_sweeps", [500, 2])
def test_batch_equals_a_scalar_wss2_transcription(monkeypatch, max_sweeps):
    # mixed sizes and boxes in one batch, the scalar solver per problem:
    # duals, bias and outcome bit for bit; at 2 updates per sample about
    # half the problems stop at the cap.  Features on an integer grid
    # repeat, so selection ties and the curvature floor occur
    rng = np.random.default_rng(16)
    sizes = rng.integers(3, 19, size=24)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    X = np.round(rng.normal(size=(2, int(sizes.sum()))))
    idx = np.zeros((24, sizes.max()), dtype=int)
    y = np.zeros(idx.shape)
    for p, (s, m) in enumerate(zip(starts, sizes)):
        idx[p, :m] = rng.permutation(np.arange(s, s + m))
        y[p, :m] = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        y[p, 0], y[p, 1] = 1.0, -1.0
    C = rng.choice([0.05, 0.5, 4.0, 64.0, 1000.0], size=24)
    monkeypatch.setattr(classifier, "_MAX_SWEEPS", max_sweeps)
    for gamma in (0.25, 2.0):
        K = rbf_gram(X, X, gamma)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            alpha, bias, ok = _smo_batch(K, idx, y, C, gamma,
                                         [("a", "b")] * 24)
        assert [w.category for w in caught] == (
            [] if ok.all() else [ConvergenceWarning])
        for p, m in enumerate(sizes):
            ix = idx[p, :m]
            a1, b1, ok1 = svm_wss2(K[np.ix_(ix, ix)], y[p, :m], C[p],
                                   0.9 * classifier._KKT_TOL, max_sweeps * m)
            assert np.array_equal(alpha[p, :m], a1)
            assert np.all(alpha[p, m:] == 0.0)
            assert bias[p] == b1 and ok[p] == ok1
        assert ok.all() if max_sweeps == 500 else 0 < np.sum(~ok) < 24


def test_batch_rejects_a_non_positive_c_of_any_problem():
    X, labels = _blobs("abc", 6, seed=2)
    arr = np.array(labels)
    pairs, idx, y = _pair_problems(arr, list("abc"), [np.arange(arr.size)])
    K = rbf_gram(X, X, 1.0)
    for C, shown in (([1.0, 0.0, 2.0], "0"), ([1.0, 2.0, -4.0], "-4"),
                     ([float("nan"), 1.0, 2.0], "nan"), (-1.0, "-1")):
        with pytest.raises(ValueError, match=f"c_penalty must be positive, "
                                             f"got {shown}$"):
            _smo_batch(K, idx, y, C, 1.0, pairs)


def test_infinite_c_or_gamma_is_rejected():
    X, labels = _blobs("abc", 6, seed=2)
    inf = float("inf")
    calls = [
        (lambda: grid_search_cv(X, labels, [1.0, inf], [0.5], folds=2),
         "C grid values must be finite, got inf"),
        (lambda: grid_search_cv(X, labels, [1.0], [inf], folds=2),
         "gamma grid values must be finite, got inf"),
        (lambda: grid_search_cv(X, labels, [-inf], [0.5], folds=2),
         "C grid values must be positive, got -inf"),
        (lambda: train_multiclass(X, labels, inf, 0.5),
         "c_penalty must be finite, got inf"),
        (lambda: train_multiclass(X, labels, 1.0, inf),
         "gamma must be finite, got inf"),
        (lambda: rbf_gram(X, X, inf), "gamma must be finite, got inf"),
        (lambda: TrainedSvm(np.eye(2), [0.5, -0.5], 0.0, 0.5, inf, ("a", "b"),
                            [0, 1]), "c_penalty must be finite, got inf"),
        (lambda: TrainedSvm(np.eye(2), [0.5, -0.5], 0.0, inf, 1.0, ("a", "b"),
                            [0, 1]), "gamma must be finite, got inf")]
    for call, message in calls:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_non_finite_features_are_rejected_naming_the_column():
    X, labels = _blobs("abc", 6, seed=2)
    model = train_multiclass(X, labels, 1.0, 0.5)
    for bad in (float("nan"), float("inf"), -float("inf")):
        Y = X.copy()
        Y[1, 2], Y[0, 7] = bad, bad
        for call in (lambda: grid_search_cv(Y, labels, [1.0], [0.5], folds=2),
                     lambda: train_multiclass(Y, labels, 1.0, 0.5),
                     lambda: predict_batch(model, Y)):
            with pytest.raises(ValueError,
                               match="^column 2: features must be finite$"):
                call()


def test_decision_values_rejects_non_finite_columns(monkeypatch):
    machine = smo_train(np.array([[0.0, 1.0, 2.0, 3.0]]), [1, 1, -1, -1],
                        1.0, 0.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError,
                           match="^column 1: features must be finite$"):
            decision_values(machine, [[0.5, bad, float("inf")]])
    # predict_batch checks its input once, not once per machine
    X, labels = _blobs("abc", 6, seed=2)
    model = train_multiclass(X, labels, 1.0, 0.5)
    checked = []
    samples = classifier._samples
    monkeypatch.setattr(classifier, "_samples",
                        lambda Z: checked.append(1) or samples(Z))
    assert len(model.machines) == 3
    assert predict_batch(model, X) == labels
    assert len(checked) == 1


def _blobs(classes, per_class, seed):
    rng = np.random.default_rng(seed)
    centers = 2.0 * rng.normal(size=(3, len(classes)))
    X = np.hstack([centers[:, [k]] + rng.normal(size=(3, per_class))
                   for k in range(len(classes))])
    return X, [c for c in classes for _ in range(per_class)]


@pytest.mark.parametrize("classes, per_class", [("abcd", 9), ("ABCDEFGH", 6)])
def test_grid_cells_equal_per_fold_training_and_prediction(classes, per_class):
    X, labels = _blobs(classes, per_class, seed=len(classes))
    arr = np.array(labels)
    c_values, g_values = [0.125, 2.0, 32.0], [0.0625, 0.5, 4.0]
    fold_of = _stratified_folds(arr, 3, np.random.default_rng(4))
    cells = _cv_correct(X, arr, sorted(set(labels)), fold_of, c_values,
                        g_values)
    expected = np.zeros(cells.shape, dtype=int)
    for (ci, C), (gi, g) in product(enumerate(c_values), enumerate(g_values)):
        for f in range(3):
            tr = fold_of != f
            model = train_multiclass(X[:, tr], arr[tr], C, g)
            expected[ci, gi] += np.sum(
                np.array(predict_batch(model, X[:, ~tr])) == arr[~tr])
    assert np.array_equal(cells, expected)
    assert len(set(cells.ravel())) > 1      # the grid tells cells apart
    best = np.unravel_index(np.argmax(expected), expected.shape)
    assert grid_search_cv(X, labels, c_values, g_values, folds=3, seed=4) == (
        c_values[best[0]], g_values[best[1]])


def test_update_cap_warns_once_per_call_naming_the_first_machine(
        monkeypatch):
    X, labels = _blobs("abcd", 8, seed=3)
    arr = np.array(labels)
    pairs, idx, y = _pair_problems(arr, list("abcd"), [np.arange(arr.size)])
    K = rbf_gram(X, X, 4.0)
    monkeypatch.setattr(classifier, "_MAX_SWEEPS", 0)
    with pytest.warns(ConvergenceWarning) as caught:
        _, _, ok = _smo_batch(K, idx, y, 512.0, 4.0, pairs)
    assert len(caught) == 1 and not ok.any()
    assert str(caught[0].message) == (
        "SMO hit max_sweeps before satisfying the KKT conditions on 6 of 6 "
        "machines (first: pair ('a', 'b'), C=512, gamma=4)")
    monkeypatch.setattr(classifier, "_MAX_SWEEPS", 2)
    with pytest.warns(ConvergenceWarning) as caught:
        _, _, ok = _smo_batch(rbf_gram(X, X, 1.0), idx, y, 512.0, 1.0, pairs)
    assert len(caught) == 1 and np.sum(~ok) == 3
    assert str(caught[0].message).endswith(
        f"on 3 of 6 machines (first: pair {pairs[np.argmin(ok)]}, C=512, "
        "gamma=1)")
    monkeypatch.setattr(classifier, "_MAX_SWEEPS", 0)
    with pytest.warns(ConvergenceWarning) as caught:
        machine = smo_train(X[:, idx[0]], y[0], 512.0, 4.0,
                            class_pair=("a", "b"))
    assert len(caught) == 1 and not machine.converged


def test_grid_search_warns_at_most_once_per_gamma(monkeypatch):
    X, labels = _blobs("abc", 6, seed=2)
    monkeypatch.setattr(classifier, "_MAX_SWEEPS", 0)
    c_values, g_values = [0.5, 4.0], [0.25, 1.0, 4.0]
    with pytest.warns(ConvergenceWarning) as caught:
        grid_search_cv(X, labels, c_values, g_values, folds=3)
    # each gamma's batch holds 2 C x 3 folds x 3 pairs machines
    assert [str(w.message) for w in caught] == [
        "SMO hit max_sweeps before satisfying the KKT conditions on 18 of "
        f"18 machines (first: pair ('a', 'b'), C=0.5, gamma={g:g})"
        for g in g_values]


def test_smo_rejects_single_class():
    with pytest.raises(SingleClassError):
        smo_train(np.ones((1, 3)), np.ones(3), 1.0, 1.0)


def test_two_class_model_reduces_to_sign():
    rng = np.random.default_rng(6)
    X = np.hstack([rng.normal(size=(2, 8)) - 1.5, rng.normal(size=(2, 8)) + 1.5])
    labels = ["a"] * 8 + ["b"] * 8
    model = train_multiclass(X, labels, 5.0, 0.5)
    assert len(model.machines) == 1
    from segdict.classifier import decision_values
    f = decision_values(model.machines[0], X)
    pred = predict_batch(model, X)
    for i in range(16):
        assert pred[i] == ("a" if f[i] >= 0 else "b")


def test_interior_support_vectors_predict_their_label():
    rng = np.random.default_rng(7)
    X = np.hstack([rng.normal(size=(2, 10)) - 2.0,
                   rng.normal(size=(2, 10)) + 2.0])
    labels = ["neg"] * 10 + ["pos"] * 10
    model = train_multiclass(X, labels, 10.0, 0.5)
    machine = model.machines[0]
    unsigned = np.abs(machine.alphas)
    interior = (unsigned > 1e-8) & (unsigned < machine.c_penalty - 1e-8)
    for pos in np.flatnonzero(interior):
        col = machine.support_vectors[:, pos]
        assert predict_batch(model, col[:, None]) == [
            labels[machine.sv_indices[pos]]]


def test_predict_unanimous_and_order_invariance():
    rng = np.random.default_rng(8)
    centers = {"N": np.array([0.0, 0.0]), "V": np.array([4.0, 0.0]),
               "S": np.array([0.0, 4.0])}
    cols, labels = [], []
    for lab, c in centers.items():
        cols.append(c[:, None] + 0.3 * rng.normal(size=(2, 12)))
        labels += [lab] * 12
    X = np.hstack(cols)
    model = train_multiclass(X, labels, 10.0, 1.0)
    probe = centers["N"][:, None]
    assert predict_batch(model, probe)[0] == "N"
    shuffled = MultiClassSvm(tuple(reversed(model.machines)), model.classes)
    test_pts = rng.normal(size=(2, 20)) * 3.0
    assert predict_batch(model, test_pts) == predict_batch(shuffled, test_pts)


def _reference_vote(model, Z):
    """The per-column vote loop that predict_batch must agree with."""
    return _reference_vote_values(
        [decision_values(m, Z) for m in model.machines],
        [m.class_pair for m in model.machines], model.classes)


def _reference_vote_values(F, pairs, classes):
    """The vote loop on decision values, one row per machine."""
    n = len(F[0])
    votes = {c: np.zeros(n) for c in classes}
    margins = {c: np.zeros(n) for c in classes}
    for f, (a, b) in zip(F, pairs):
        first = f >= 0
        votes[a] += first
        votes[b] += ~first
        margins[a] += np.where(first, np.abs(f), 0.0)
        margins[b] += np.where(first, 0.0, np.abs(f))
    out = []
    for i in range(n):
        best = max(votes[c][i] for c in classes)
        tied = [c for c in classes if votes[c][i] == best]
        if len(tied) > 1:
            top = max(margins[c][i] for c in tied)
            tied = [c for c in tied if margins[c][i] == top]
        out.append(min(tied))
    return out


def test_vote_matches_the_reference_loop_on_tie_heavy_values():
    # 8 classes at the grid's shape (28 machines x 224 held-out columns),
    # values rounded to 0.1 and zero in alternate columns, so vote and
    # margin ties are common; grid pair order, then shuffled machines with
    # some pairs flipped
    classes = ["V", "N", "/", "A", "f", "F", "S", "R"]
    rng = np.random.default_rng(17)
    grid_pairs = list(combinations(sorted(classes), 2))
    shuffled = [p if rng.random() < 0.5 else p[::-1]
                for p in rng.permutation(grid_pairs).tolist()]
    for pairs in (grid_pairs, [tuple(p) for p in shuffled]):
        for trial in range(10):
            F = np.round(rng.normal(scale=0.3, size=(28, 224)), 1)
            F[:, ::2] = 0.0
            won = _vote(F, pairs, sorted(classes))
            assert won.tolist() == _reference_vote_values(F, pairs, classes)


def test_predict_on_no_columns_returns_no_labels():
    X, labels = _blobs("abc", 6, seed=2)
    model = train_multiclass(X, labels, 1.0, 0.5)
    assert predict_batch(model, np.zeros((3, 0))) == []


def test_predict_vote_ties_match_reference_loop():
    classes = ("q", "c", "m", "x")          # not in label order
    pairs = list(combinations(classes, 2))

    def constant(pair, bias):               # no support vectors: f = bias
        return TrainedSvm(np.zeros((2, 0)), [], bias, 0.5, 1.0, pair, [])

    # q, c and m win two votes each by |f| = 1: label order picks c; a
    # larger |f| for m's win over q lets the margin pick m
    biases = {("q", "c"): 1.0, ("q", "m"): -1.0, ("q", "x"): 1.0,
              ("c", "m"): 1.0, ("c", "x"): 1.0, ("m", "x"): 1.0}
    Z = np.random.default_rng(14).normal(size=(2, 50))
    for qm, expected in ((-1.0, "c"), (-3.0, "m")):
        biases[("q", "m")] = qm
        model = MultiClassSvm([constant(p, biases[p]) for p in pairs], classes)
        assert predict_batch(model, Z) == [expected] * 50
        assert _reference_vote(model, Z) == [expected] * 50

    # random two-vector machines, some constant: ties of both kinds occur
    rng = np.random.default_rng(15)
    for trial in range(20):
        machines = []
        for p in pairs:
            if rng.random() < 0.4:
                machines.append(constant(p, float(rng.choice([-1.0, 1.0]))))
            else:
                a = rng.uniform(0.1, 1.0)
                machines.append(TrainedSvm(rng.normal(size=(2, 2)), [a, -a],
                                           float(rng.normal()), 0.5, 1.0, p,
                                           [0, 1]))
        model = MultiClassSvm(machines, classes)
        assert predict_batch(model, Z) == _reference_vote(model, Z)


def test_grid_search_single_point_and_duplicates():
    rng = np.random.default_rng(9)
    X = np.hstack([rng.normal(size=(2, 6)) - 2.0, rng.normal(size=(2, 6)) + 2.0])
    labels = ["a"] * 6 + ["b"] * 6
    assert grid_search_cv(X, labels, [4.0], [0.25], folds=2) == (4.0, 0.25)
    assert grid_search_cv(X, labels, [4.0, 4.0], [0.25, 0.25],
                          folds=2) == (4.0, 0.25)


def test_grid_search_rejects_empty_grids():
    X = np.array([[0.0, 0.1, 1.0, 1.1]])
    labels = ["a", "a", "b", "b"]
    for c_grid, gamma_grid in (([], [1.0]), ([1.0], [])):
        with pytest.raises(ValueError, match="grids must be nonempty"):
            grid_search_cv(X, labels, c_grid, gamma_grid, folds=2)


def test_grid_search_rejects_non_positive_grid_values():
    X = np.array([[0.0, 0.1, 1.0, 1.1]])
    labels = ["a", "a", "b", "b"]
    for c_grid, gamma_grid, bad in (([1.0], [0.0], "gamma grid .* got 0$"),
                                    ([-1.0, 2.0], [1.0], "C grid .* got -1$"),
                                    ([1.0], [0.5, float("nan")],
                                     "gamma grid .* got nan$")):
        with pytest.raises(ValueError, match=bad):
            grid_search_cv(X, labels, c_grid, gamma_grid, folds=2)


def test_grid_search_avoids_underfitting_gamma():
    # XOR-style data: a nearly linear kernel (tiny gamma) cannot separate it
    rng = np.random.default_rng(10)
    blocks, labels = [], []
    for cx, cy, lab in ((0, 0, "a"), (4, 4, "a"), (0, 4, "b"), (4, 0, "b")):
        blocks.append(np.array([[cx], [cy]]) + 0.2 * rng.normal(size=(2, 8)))
        labels += [lab] * 8
    X = np.hstack(blocks)
    c_grid = [10.0]
    gamma_grid = [1e-5, 1.0]
    _, gamma = grid_search_cv(X, labels, c_grid, gamma_grid, folds=2)
    assert gamma == 1.0


def test_grid_search_needs_enough_samples_per_fold():
    X = np.ones((1, 3))
    with pytest.raises(InsufficientDataError):
        grid_search_cv(X, ["a", "a", "b"], [1.0], [1.0], folds=2)


def test_too_few_samples_names_the_class_as_written():
    X = np.random.default_rng(0).normal(size=(3, 7))
    with pytest.raises(InsufficientDataError) as err:
        grid_search_cv(X, ["a"] * 6 + ["b"], [1.0], [0.5], 3, 0)
    assert str(err.value) == "class 'b' has 1 samples for 3 folds"
