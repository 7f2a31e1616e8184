"""Split, scoring, and rank-sum tests."""

import numpy as np
import pytest

from segdict import evaluation
from segdict.beat_model import BeatMatrix
from segdict.errors import (EmptySampleError, InsufficientDataError,
                            LengthMismatchError)
from segdict.evaluation import (SplitPlan, evaluate, stratified_split,
                                wilcoxon_rank_sum)

from oracles import ranksum_enumeration


def labeled_beats(counts, gamma=8, seed=0):
    rng = np.random.default_rng(seed)
    labels = [cls for cls, n in counts.items() for _ in range(n)]
    return BeatMatrix(rng.normal(size=(gamma, len(labels))), tuple(labels))


def test_split_counts_and_complement():
    beats = labeled_beats({"N": 400, "V": 50})
    train, test = stratified_split(beats, SplitPlan({"N": 350, "V": 40}, seed=3))
    labels = np.array(beats.labels)
    assert np.sum(labels[train] == "N") == 350
    assert np.sum(labels[test] == "N") == 50
    assert np.sum(labels[train] == "V") == 40
    assert np.intersect1d(train, test).size == 0
    assert train.size + test.size == beats.count


def test_split_insufficient_class_named():
    beats = labeled_beats({"N": 10, "V": 5})
    with pytest.raises(InsufficientDataError, match="'V'"):
        stratified_split(beats, SplitPlan({"N": 5, "V": 6}))


def test_split_deterministic():
    beats = labeled_beats({"N": 30, "V": 30})
    a = stratified_split(beats, SplitPlan({"N": 10, "V": 10}, seed=9))
    b = stratified_split(beats, SplitPlan({"N": 10, "V": 10}, seed=9))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_evaluate_all_correct():
    rep = evaluate(["N", "V", "N"], ["N", "V", "N"])
    assert rep.overall_accuracy == 1.0
    assert np.array_equal(rep.confusion, np.diag([2, 1]))


def test_evaluate_degenerate_constant_classifier():
    pred = ["N"] * 10
    true = ["N"] * 5 + ["V"] * 5
    rep = evaluate(pred, true)
    assert rep.overall_accuracy == pytest.approx(0.5)
    assert rep.per_class_accuracy == {"N": 1.0, "V": 0.0}


def test_evaluate_hand_computed_fraction():
    pred = ["a", "a", "b", "b", "a", "b"]
    true = ["a", "a", "b", "b", "b", "a"]
    rep = evaluate(pred, true)
    assert rep.overall_accuracy == pytest.approx(2 / 3, abs=1e-12)
    # confusion rows sum to per-class truth counts
    assert rep.confusion.sum(axis=1).tolist() == [3, 3]
    assert np.trace(rep.confusion) == 4


def test_evaluate_length_mismatch():
    with pytest.raises(LengthMismatchError):
        evaluate(["a"], ["a", "b"])
    with pytest.raises(LengthMismatchError):
        evaluate([], [])


def test_wilcoxon_identical_samples():
    _, p = wilcoxon_rank_sum([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    assert p == 1.0


def test_wilcoxon_fully_separated_example():
    u, p = wilcoxon_rank_sum([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert u == 0.0
    assert p == pytest.approx(0.1, abs=1e-15)  # 2 / C(6,3)


def test_wilcoxon_matches_enumeration_oracle():
    rng = np.random.default_rng(1)
    for n1 in range(1, 6):
        for n2 in range(1, 6):
            xs = rng.normal(size=n1)
            ys = rng.normal(size=n2) + rng.uniform(-1, 1)
            u, p = wilcoxon_rank_sum(xs, ys)
            u_ref, p_ref = ranksum_enumeration(xs, ys)
            assert u == pytest.approx(u_ref, abs=1e-12)
            assert p == pytest.approx(p_ref, abs=1e-12)


def test_wilcoxon_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(10):
        xs = rng.normal(size=int(rng.integers(2, 9)))
        ys = rng.normal(size=int(rng.integers(2, 9)))
        _, p1 = wilcoxon_rank_sum(xs, ys)
        _, p2 = wilcoxon_rank_sum(ys, xs)
        assert p1 == pytest.approx(p2, abs=1e-12)


def test_wilcoxon_exact_near_normal_for_balanced_eights(monkeypatch):
    rng = np.random.default_rng(3)
    samples = [(rng.normal(size=8), rng.normal(size=8) + rng.uniform(0.0, 1.5))
               for _ in range(20)]
    p_exact = [wilcoxon_rank_sum(xs, ys)[1] for xs, ys in samples]
    monkeypatch.setattr(evaluation, "_EXACT_LIMIT", 0)
    p_normal = [wilcoxon_rank_sum(xs, ys)[1] for xs, ys in samples]
    assert np.all(np.abs(np.subtract(p_exact, p_normal)) <= 0.02)


def test_wilcoxon_empty_sample():
    with pytest.raises(EmptySampleError):
        wilcoxon_rank_sum([], [1.0])


def test_wilcoxon_ties_use_normal_path():
    xs = [1.0, 2.0, 2.0, 3.0]
    ys = [2.0, 4.0, 5.0, 6.0]
    u, p = wilcoxon_rank_sum(xs, ys)
    assert 0.0 < p <= 1.0

