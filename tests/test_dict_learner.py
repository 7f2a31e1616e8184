"""Dictionary learning tests: dual correctness, monotonicity, recovery."""

import warnings

import numpy as np
import pytest

from segdict import dict_learner
from segdict.beat_model import BeatMatrix, SegmentSpec, segment_view
from segdict.dict_learner import (DualState, TrainConfig, _init_atoms,
                                  _train_one, encode_beats,
                                  lagrange_dual_update,
                                  train_segment_dictionaries)
from segdict.errors import (ConvergenceWarning, InsufficientDataError,
                            ShapeMismatchError)
from segdict.ingest import normalize_beat
from segdict.synthetic import generate_planted_dataset

from oracles import (constrained_lsq_pg, dual_stationarity,
                     lagrangian_min_gd, lasso_kkt_violation)


def test_init_atoms_unit_norms_and_determinism():
    rng = np.random.default_rng(0)
    segments = rng.normal(size=(6, 10))
    a1 = _init_atoms(segments, 4, np.random.default_rng(42))
    a2 = _init_atoms(segments, 4, np.random.default_rng(42))
    assert np.array_equal(a1, a2)
    assert np.allclose(np.linalg.norm(a1, axis=0), 1.0, atol=1e-12)


def test_init_atoms_forced_selection_is_permutation():
    rng = np.random.default_rng(1)
    segments = rng.normal(size=(5, 4))
    atoms = _init_atoms(segments, 4, np.random.default_rng(0))
    normalized = segments / np.linalg.norm(segments, axis=0)
    matched = set()
    for kappa in range(4):
        hits = [j for j in range(4)
                if np.allclose(atoms[:, kappa], normalized[:, j], atol=1e-15)]
        assert hits and hits[0] not in matched
        matched.add(hits[0])


def test_training_requires_distinct_columns_naming_the_segment():
    beats = BeatMatrix(np.ones((8, 3)), ("N",) * 3)
    spec = SegmentSpec.equal(8, 2)
    with pytest.raises(InsufficientDataError,
                       match="^segment 1: fewer than 2 distinct nonzero"):
        train_segment_dictionaries(beats, spec, TrainConfig(k=2), np.arange(3))


def test_dual_objective_matches_lagrangian_min():
    # Newton starts from lam = 1, so the first recorded R is R(1)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(3, 5))
    Y = rng.normal(size=(4, 5))
    r = lagrange_dual_update(X, Y)[1].r_history[0]
    oracle = lagrangian_min_gd(Y, X, np.ones(3))
    assert r == pytest.approx(oracle, abs=1e-5)


def test_dual_update_identity_codes_recovers_data():
    rng = np.random.default_rng(4)
    Y = rng.normal(size=(6, 4))
    Y /= np.linalg.norm(Y, axis=0)
    D, _ = lagrange_dual_update(np.eye(4), Y)
    assert np.linalg.norm(Y - D.atoms) < 1e-6


def test_dual_update_beats_previous_dictionary():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d, k, n = 3, 4, 8
        Y = rng.normal(size=(d, n))
        X = rng.normal(size=(k, n)) * (rng.random(size=(k, n)) < 0.6)
        if not np.any(np.any(X != 0, axis=1)):
            continue
        prev = rng.normal(size=(d, k))
        prev /= np.maximum(np.linalg.norm(prev, axis=0), 1.0)
        D, _ = lagrange_dual_update(X, Y)
        new_obj = np.sum((Y - D.atoms @ X) ** 2)
        old_obj = np.sum((Y - prev @ X) ** 2)
        assert new_obj <= old_obj + 1e-9


def test_dual_update_matches_projected_gradient_oracle():
    rng = np.random.default_rng(6)
    Y = rng.normal(size=(2, 4))
    X = rng.normal(size=(2, 4))
    D, _ = lagrange_dual_update(X, Y)
    _, oracle_obj = constrained_lsq_pg(Y, X)
    ours = float(np.sum((Y - D.atoms @ X) ** 2))
    assert ours <= oracle_obj + 1e-4


def test_dual_update_stationarity_and_feasibility():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k, 21))
        Y = rng.normal(size=(d, n))
        X = rng.normal(size=(k, n)) * (rng.random(size=(k, n)) < 0.5)
        X[0] += rng.normal(size=n) * 0.1  # keep at least one row nonzero
        D, dual = lagrange_dual_update(X, Y)
        atoms = D.atoms
        norms = np.linalg.norm(atoms, axis=0)
        assert np.all(norms <= 1.0 + 1e-6)
        # stationarity of the Lagrangian in D at the returned (D, lam)
        resid = (-2.0 * Y @ X.T + 2.0 * atoms @ (X @ X.T)
                 + 2.0 * atoms * dual.lam[None, :])
        assert np.linalg.norm(resid) <= 1e-6 * max(np.linalg.norm(Y @ X.T), 1e-12)
        # dual ascent history is non-decreasing and lam is feasible
        assert np.all(dual.lam >= 0.0)
        hist = np.array(dual.r_history)
        assert np.all(np.diff(hist) >= -1e-12)


def test_dual_update_from_a_nearby_start():
    # Newton from the dual variables of nearby codes reaches the cold
    # update's dictionary in fewer steps
    for seed in range(4):
        rng = np.random.default_rng(seed)
        Y = rng.normal(size=(10, 80))
        X1 = 0.2 * rng.normal(size=(6, 80)) * (rng.random((6, 80)) < 0.4)
        X2 = X1 * (1.0 + 0.01 * rng.normal(size=X1.shape))
        _, state = lagrange_dual_update(X1, Y)
        cold, cold_dual = lagrange_dual_update(X2, Y)
        warm, dual = lagrange_dual_update(X2, Y, start=state)
        assert np.abs(warm.atoms - cold.atoms).max() <= 1e-8
        assert dual_stationarity(Y, X2, warm.atoms, dual.lam) <= 1e-6
        assert np.all(np.linalg.norm(warm.atoms, axis=0) <= 1.0 + 1e-6)
        assert len(dual.r_history) < len(cold_dual.r_history)


def test_dual_update_rejects_a_start_of_the_wrong_size():
    X, Y = np.eye(3), np.ones((2, 3))
    with pytest.raises(ShapeMismatchError,
                       match="start has 2 dual variables, codes have 3 atoms"):
        lagrange_dual_update(X, Y, start=DualState(np.ones(2)))


def test_dual_update_refreshes_unused_atoms():
    rng = np.random.default_rng(8)
    Y = rng.normal(size=(4, 6))
    X = np.zeros((3, 6))
    X[0] = rng.normal(size=6)  # atoms 1 and 2 unused
    D, dual = lagrange_dual_update(X, Y)
    norms = np.linalg.norm(D.atoms, axis=0)
    assert np.allclose(norms[1:], 1.0, atol=1e-12)  # refreshed from data
    assert dual.lam[1] == 0.0 and dual.lam[2] == 0.0


def test_dual_update_refreshes_from_the_one_nonzero_column():
    # one nonzero column among 5,000: every unused atom is drawn from it
    Y = np.zeros((5, 5000))
    Y[:, 17] = 1.0
    X = np.zeros((4, 5000))
    X[0, 17] = 1.0
    D, dual = lagrange_dual_update(X, Y)
    assert np.array_equal(D.atoms[:, 1:],
                          np.full((5, 3), 1.0 / np.linalg.norm(Y[:, 17])))
    assert np.all(dual.lam[1:] == 0.0)


def test_dual_update_reaches_the_optimum_on_rank_deficient_codes():
    # 5 atoms on 7 columns, rank 4: a Newton direction can fail to ascend,
    # and only the gradient-ascent retry carries the dual to the optimum
    rng = np.random.default_rng(2026)
    X = rng.normal(size=(5, 7)) * (rng.random((5, 7)) < 0.4)
    X[4] = 0.0
    X[4, 0] = rng.normal()
    Y = rng.normal(size=(30, 7))
    assert np.linalg.matrix_rank(X) == 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        D, _ = lagrange_dual_update(X, Y)
    _, oracle_obj = constrained_lsq_pg(Y, X)
    ours = float(np.sum((Y - D.atoms @ X) ** 2))
    assert abs(ours - oracle_obj) <= 1e-9 * oracle_obj


def test_dual_update_requires_a_used_atom():
    with pytest.raises(InsufficientDataError):
        lagrange_dual_update(np.zeros((2, 3)), np.ones((2, 3)))


def test_train_config_rejects_a_nan_lambda():
    with pytest.raises(ValueError, match="lam must be positive, got nan"):
        TrainConfig(lam=float("nan"))


def test_dual_state_rejects_negative():
    with pytest.raises(ValueError):
        DualState(np.array([0.5, -0.1]))
    assert np.array_equal(DualState(np.array([1.0, 2.0])).lam, [1.0, 2.0])


def guard_fixture():
    """Codes and data on which Newton, stopped by a loose step tolerance
    (_NEWTON_TOL = 1e-2), leaves atom 1 over unit norm (by 4e-8 in squared
    norm); row 0 of the codes is unused."""
    rng = np.random.default_rng(5)
    Y = rng.normal(size=(5, 10))
    X = rng.normal(size=(4, 10))
    X[0] = 0.0
    return X, Y


def unit_norm_root(X, Y, lam, w):
    """The lam_w at which row w of (X X^T + Lam)^{-1} X Y^T has unit norm,
    the other duals held at lam: bisection with numpy only."""
    def norm(value):
        probe = lam.copy()
        probe[w] = value
        return np.linalg.norm(
            np.linalg.solve(X @ X.T + np.diag(probe), X @ Y.T)[w])
    lo, hi = lam[w], lam[w] + 1.0
    while norm(hi) > 1.0:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if norm(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def test_feasibility_guard_takes_the_exact_unit_norm_step(monkeypatch):
    X, Y = guard_fixture()
    monkeypatch.setattr(dict_learner, "_NEWTON_TOL", 1e-2)
    factorizations = []
    real_solve = dict_learner._inverse_factor

    def counting_solve(*args, **kwargs):
        factorizations.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(dict_learner, "_inverse_factor", counting_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        D, dual = lagrange_dual_update(X, Y)
    guarded = len(factorizations)
    # the same Newton run with the guard switched off
    monkeypatch.setattr(dict_learner, "_GUARD_ROUNDS", 0)
    factorizations.clear()
    with pytest.warns(ConvergenceWarning, match="feasibility guard"):
        D_newton, newton = lagrange_dual_update(X, Y)
    assert dual.r_history == newton.r_history
    assert np.sum(D_newton.atoms ** 2, axis=0).max() > 1.0 + 1e-9
    assert np.all(np.sum(D.atoms ** 2, axis=0) <= 1.0 + 1e-9)
    corrected = np.flatnonzero(dual.lam != newton.lam)
    assert corrected.tolist() == [1]
    assert guarded - len(factorizations) <= corrected.size
    used = slice(1, None)
    root = unit_norm_root(X[used], Y, newton.lam[used], 0)
    assert dual.lam[1] == pytest.approx(root, rel=1e-10)


def test_newton_cap_and_exhausted_guard_warn_naming_the_cause(monkeypatch):
    X, Y = guard_fixture()
    monkeypatch.setattr(dict_learner, "_NEWTON_MAX", 1)
    with pytest.warns(ConvergenceWarning) as caught:
        _, dual = lagrange_dual_update(X, Y, segment_index=3)
    assert len(dual.r_history) == 2
    assert [str(w.message) for w in caught] == [
        "segment 3: Newton's method took 1 steps without its relative step "
        "falling below 1e-06"]

    monkeypatch.undo()
    monkeypatch.setattr(dict_learner, "_NEWTON_TOL", 1e-2)
    monkeypatch.setattr(dict_learner, "_GUARD_ROUNDS", 0)
    with pytest.warns(ConvergenceWarning) as caught:
        D, dual = lagrange_dual_update(X, Y, segment_index=2)
    norm = np.linalg.norm(D.atoms[:, 1])
    assert len(caught) == 1
    assert str(caught[0].message) == (
        f"segment 2: the feasibility guard ran out of corrections after "
        f"{len(dual.r_history) - 1} Newton steps; atom 1 has norm "
        f"{norm:.12g}")


def test_a_failed_guard_factorization_ends_in_the_guard_warning():
    # 18 atoms in use on 7 columns: a guard correction leaves X X^T + Lam
    # numerically indefinite, and the guard stops as if out of
    # corrections, so the call warns and the over-norm atom is refused
    # instead of a LinAlgError escaping
    rng = np.random.default_rng(20)
    X = rng.normal(size=(19, 7)) * (rng.random((19, 7)) < 0.4)
    Y = rng.normal(size=(4, 7))
    assert np.count_nonzero(X.any(axis=1)) == 18
    with pytest.warns(ConvergenceWarning) as caught:
        with pytest.raises(ValueError, match="^atom norm exceeds 1"):
            lagrange_dual_update(X, Y)
    assert len(caught) == 1
    assert str(caught[0].message).startswith(
        "segment 1: the feasibility guard ran out of corrections after ")


def planted_beats(rng, gamma=12, j_count=2, k=4, n=80, noise=0.0,
                  lo=1.0, hi=2.0):
    spec = SegmentSpec.equal(gamma, j_count)
    d = gamma // j_count
    beats = np.empty((gamma, n))
    for j in range(j_count):
        atoms = rng.normal(size=(d, k))
        atoms /= np.linalg.norm(atoms, axis=0)
        usage = rng.integers(k, size=n)
        coeff = rng.uniform(lo, hi, size=n)
        block = atoms[:, usage] * coeff
        if noise:
            block = block + rng.normal(scale=noise, size=block.shape)
        beats[j * d:(j + 1) * d, :] = block
    labels = tuple("N" for _ in range(n))
    return BeatMatrix(beats, labels), spec


def test_planted_model_recovery():
    rng = np.random.default_rng(0)
    beats, spec = planted_beats(rng, lo=5.0, hi=10.0)
    cfg = TrainConfig(k=4, lam=0.01, outer_iters=30, seed=5)
    history = []
    train_segment_dictionaries(beats, spec, cfg, np.arange(beats.count),
                               log_fn=lambda j, t, obj: history.append((j, t, obj)))
    for j in (1, 2):
        objs = [obj for (jj, _, obj) in history if jj == j]
        assert objs[-1] <= 0.05 * objs[0]


def test_alternation_objective_non_increasing():
    rng = np.random.default_rng(10)
    beats, spec = planted_beats(rng, noise=0.1)
    cfg = TrainConfig(k=4, lam=0.05, outer_iters=12, seed=1)
    history = {1: [], 2: []}
    train_segment_dictionaries(beats, spec, cfg, np.arange(beats.count),
                               log_fn=lambda j, t, obj: history[j].append(obj))
    for objs in history.values():
        diffs = np.diff(np.array(objs))
        assert np.all(diffs <= 1e-9)


def test_trained_used_atoms_have_unit_norm():
    from segdict.beat_model import segment_view
    from segdict.sparse_coder import batch_encode

    rng = np.random.default_rng(21)
    beats, spec = planted_beats(rng, noise=0.1)
    cfg = TrainConfig(k=4, lam=0.05, outer_iters=30, seed=21)
    dicts = train_segment_dictionaries(beats, spec, cfg, np.arange(beats.count))
    for j, dictionary in enumerate(dicts, start=1):
        codes = batch_encode(dictionary.atoms, segment_view(beats, spec, j),
                             cfg.lam)
        used = np.any(codes != 0.0, axis=1)
        norms = np.linalg.norm(dictionary.atoms, axis=0)
        assert np.all(np.abs(norms[used] - 1.0) <= 1e-6)


def test_single_segment_training_matches_inner_loop():
    rng = np.random.default_rng(11)
    beats, spec = planted_beats(rng, gamma=6, j_count=1, k=3, n=30, noise=0.05)
    cfg = TrainConfig(k=3, lam=0.05, outer_iters=5, seed=7)
    outer = train_segment_dictionaries(beats, spec, cfg, np.arange(30))
    inner = _train_one(beats.samples, cfg, segment_index=1)
    assert np.array_equal(outer[0].atoms, inner.atoms)


def test_every_alternation_calls_both_traced_solvers(monkeypatch):
    # the benchmark counts coded columns and Newton steps through the
    # module-global names, so each alternation must call each once, warm
    # from the previous call's result after the first
    coded, updated = [], []
    encode = dict_learner.batch_encode
    update = dict_learner.lagrange_dual_update

    def encode_spy(*args, start=None, **kwargs):
        coded.append(start)
        return encode(*args, start=start, **kwargs)

    def update_spy(*args, start=None, **kwargs):
        updated.append(start)
        return update(*args, start=start, **kwargs)

    monkeypatch.setattr(dict_learner, "batch_encode", encode_spy)
    monkeypatch.setattr(dict_learner, "lagrange_dual_update", update_spy)
    rng = np.random.default_rng(13)
    beats, spec = planted_beats(rng, j_count=1, noise=0.1)
    log = []
    cfg = TrainConfig(k=4, lam=0.05, outer_iters=8, seed=3)
    train_segment_dictionaries(beats, spec, cfg, np.arange(beats.count),
                               log_fn=lambda j, t, obj: log.append(t))
    assert len(log) >= 3
    assert len(coded) == len(updated) == len(log)
    assert coded[0] is None and updated[0] is None
    assert all(c is not None for c in coded[1:])
    assert all(isinstance(u, DualState) for u in updated[1:])


def test_train_rejects_empty_or_bad_subset():
    rng = np.random.default_rng(12)
    beats, spec = planted_beats(rng, n=20)
    cfg = TrainConfig(k=4, lam=0.1)
    with pytest.raises(InsufficientDataError):
        train_segment_dictionaries(beats, spec, cfg, [])
    with pytest.raises(IndexError):
        train_segment_dictionaries(beats, spec, cfg, [0, 99])


def test_train_errors_tagged_with_segment():
    rng = np.random.default_rng(13)
    beats, spec = planted_beats(rng, n=3)  # fewer columns than k
    cfg = TrainConfig(k=4, lam=0.1)
    with pytest.raises(InsufficientDataError, match="segment 1"):
        train_segment_dictionaries(beats, spec, cfg, [0, 1, 2])


def test_encode_beats_against_planted_atom():
    rng = np.random.default_rng(14)
    beats, spec = planted_beats(rng, gamma=40, j_count=2, k=4, n=60)
    cfg = TrainConfig(k=4, lam=0.01, outer_iters=20, seed=5)
    dicts = train_segment_dictionaries(beats, spec, cfg, np.arange(60))

    codes = encode_beats(beats, dicts, lam=0.01)
    assert codes.codes.shape == (4, 60)
    # every column satisfies the solver's KKT certificate
    from segdict.beat_model import stack_dictionaries
    stacked = stack_dictionaries(dicts)
    for i in range(0, 60, 7):
        assert lasso_kkt_violation(stacked, beats.samples[:, i],
                                   codes.codes[:, i], 0.01) <= 1e-6


def test_encode_beats_zero_code_when_lambda_large():
    rng = np.random.default_rng(15)
    beats, spec = planted_beats(rng, gamma=8, j_count=2, k=3, n=12)
    cfg = TrainConfig(k=3, lam=0.05, outer_iters=3, seed=2)
    dicts = train_segment_dictionaries(beats, spec, cfg, np.arange(12))
    from segdict.beat_model import stack_dictionaries
    stacked = stack_dictionaries(dicts)
    lam_big = float(np.abs(stacked.T @ beats.samples).max()) + 1.0
    codes = encode_beats(beats, dicts, lam_big)
    assert np.all(codes.codes == 0.0)


def planted_hundred():
    labels, raw = generate_planted_dataset(beats_per_class=25, seed=0)
    samples = np.column_stack([normalize_beat(raw[:, i])
                               for i in range(raw.shape[1])])
    return BeatMatrix(samples, labels), SegmentSpec.equal(200, 4)


def test_encode_beats_accepts_dense_codes_at_small_lambda():
    beats, spec = planted_hundred()
    cfg = TrainConfig(k=16, lam=1e-5, outer_iters=5, seed=0)
    dicts = train_segment_dictionaries(beats, spec, cfg, np.arange(100))
    codes = encode_beats(beats, dicts, 1e-5)
    assert np.count_nonzero(codes.codes) == codes.codes.size


def test_lambda_at_lambda_max_names_both():
    beats, spec = planted_hundred()
    cfg = TrainConfig(k=16, lam=0.6, outer_iters=5, seed=0)
    # segment 1 codes against its initial atoms first
    segments = segment_view(beats, spec, 1)
    atoms = _init_atoms(segments, 16, np.random.default_rng([0, 1]))
    lam_max = float(np.abs(atoms.T @ segments).max())
    assert lam_max <= 0.6
    with pytest.raises(InsufficientDataError) as info:
        train_segment_dictionaries(beats, spec, cfg, np.arange(100))
    message = str(info.value)
    assert message.startswith("segment 1:")
    assert "lambda=0.6:" in message
    assert f"lambda_max={lam_max:.6g}," in message


def test_encode_beats_rejects_a_nan_lambda():
    from segdict.beat_model import SegmentDictionary
    atoms, _ = np.linalg.qr(np.random.default_rng(17).normal(size=(6, 3)))
    beats = BeatMatrix(atoms.copy(), tuple("NNN"))
    with pytest.raises(ValueError, match="lam must be positive, got nan"):
        encode_beats(beats, [SegmentDictionary(atoms, 1)], float("nan"))


def test_dominant_entry_for_beat_equal_to_stacked_atom():
    rng = np.random.default_rng(16)
    d, k, j_count = 20, 4, 2
    dicts = []
    for j in range(1, j_count + 1):
        atoms, _ = np.linalg.qr(rng.normal(size=(d, k)))
        from segdict.beat_model import SegmentDictionary
        dicts.append(SegmentDictionary(atoms, j))
    from segdict.beat_model import stack_dictionaries
    stacked = stack_dictionaries(dicts)
    beats = BeatMatrix(stacked.copy(), tuple("N" * k))
    codes = encode_beats(beats, dicts, lam=0.01)
    for i in range(k):
        assert int(np.argmax(np.abs(codes.codes[:, i]))) == i
