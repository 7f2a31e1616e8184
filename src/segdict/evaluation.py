"""Experiment protocol: splits, accuracy reports, rank-sum test, seeded runs.

The rank-sum observations compared across feature methods are per-run test
accuracies over repeated seeded splits; each experiment is repeated with
distinct seeds and reported as mean +/- std.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import fft_features, kmeans_train, one_hot_codes, vq_encode
from .beat_model import BeatMatrix, SegmentSpec, segment_view
from .classifier import grid_search_cv, predict_batch, train_multiclass
from .dict_learner import TrainConfig, encode_beats, train_segment_dictionaries
from .errors import (EmptySampleError, InsufficientDataError,
                     LengthMismatchError)

_EXACT_LIMIT = 16     # largest tie-free pooled size given an exact p


@dataclass(frozen=True)
class SplitPlan:
    """How many training beats to draw per class; the rest become the test set."""

    per_class_train_counts: dict[str, int]
    seed: int = 0

    def __post_init__(self):
        counts = {str(k): int(v) for k, v in self.per_class_train_counts.items()}
        object.__setattr__(self, "per_class_train_counts", counts)
        if not counts:
            raise ValueError("per_class_train_counts must be nonempty")
        for cls, cnt in counts.items():
            if cnt < 1:
                raise ValueError(f"class {cls!r}: count must be >= 1")


def split_by_labels(labels, plan: SplitPlan) -> tuple[np.ndarray, np.ndarray]:
    """Seeded per-class sampling without replacement; test = complement."""
    rng = np.random.default_rng(plan.seed)
    labels = np.array([str(l) for l in labels])
    train: list[int] = []
    for cls in sorted(plan.per_class_train_counts):
        want = plan.per_class_train_counts[cls]
        idx = np.flatnonzero(labels == cls)
        if idx.size < want:
            raise InsufficientDataError(
                f"class {cls!r}: requested {want} training beats, "
                f"only {idx.size} available")
        train.extend(int(i) for i in rng.choice(idx, size=want, replace=False))
    train_idx = np.sort(np.array(train, dtype=int))
    test_idx = np.setdiff1d(np.arange(labels.size), train_idx)
    return train_idx, test_idx


def stratified_split(beats: BeatMatrix, plan: SplitPlan) -> tuple[np.ndarray, np.ndarray]:
    """Split the beats of a BeatMatrix per the plan's per-class counts."""
    return split_by_labels(beats.labels, plan)


@dataclass
class EvalReport:
    """Accuracy summary of one classification run."""

    overall_accuracy: float
    per_class_accuracy: dict[str, float]
    confusion: np.ndarray
    classes: tuple[str, ...]
    timing: dict[str, float] = field(default_factory=dict)


def evaluate(pred_labels, true_labels) -> EvalReport:
    """Overall and per-class accuracy plus a confusion matrix (rows = truth)."""
    pred = [str(l) for l in pred_labels]
    true = [str(l) for l in true_labels]
    if len(pred) != len(true):
        raise LengthMismatchError(f"{len(pred)} predictions for {len(true)} labels")
    if not true:
        raise LengthMismatchError("empty label sequences")
    classes = tuple(sorted(set(true) | set(pred)))
    pos = {c: i for i, c in enumerate(classes)}
    confusion = np.zeros((len(classes), len(classes)), dtype=int)
    for p, t in zip(pred, true):
        confusion[pos[t], pos[p]] += 1
    per_class = {}
    for c in classes:
        row = confusion[pos[c]]
        total = int(row.sum())
        if total:
            per_class[c] = float(row[pos[c]] / total)
    overall = float(np.trace(confusion) / len(true))
    return EvalReport(overall, per_class, confusion, classes)


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _rank_sum_counts(n1: int, total: int) -> np.ndarray:
    """counts[s] = number of n1-subsets of ranks {1..total} with sum s."""
    max_sum = n1 * total
    dp = np.zeros((n1 + 1, max_sum + 1), dtype=np.int64)
    dp[0, 0] = 1
    for r in range(1, total + 1):
        for c in range(min(n1, r), 0, -1):
            dp[c, r:] += dp[c - 1, :-r]
    return dp[n1]


def wilcoxon_rank_sum(xs, ys) -> tuple[float, float]:
    """Two-sided rank-sum test; returns (U statistic for xs, p-value).

    For combined sizes up to 16 with no ties the p-value is exact by
    enumeration of the rank-sum distribution; otherwise a normal
    approximation with tie-corrected variance and continuity correction
    is used.  Fully tied data yields p = 1.
    """
    xs = np.asarray(list(xs), dtype=float)
    ys = np.asarray(list(ys), dtype=float)
    if xs.size == 0 or ys.size == 0:
        raise EmptySampleError("both samples must be nonempty")
    n1, n2 = xs.size, ys.size
    total = n1 + n2
    pooled = np.concatenate([xs, ys])
    ranks = _midranks(pooled)
    w1 = float(ranks[:n1].sum())
    u1 = w1 - n1 * (n1 + 1) / 2.0

    if total <= _EXACT_LIMIT and np.unique(pooled).size == total:
        counts = _rank_sum_counts(n1, total)
        min_w = n1 * (n1 + 1) // 2
        w = int(round(w1))
        le = int(counts[:w + 1].sum())
        ge = int(counts[w:].sum())
        all_counts = int(counts[min_w:].sum())
        p = min(1.0, 2.0 * min(le, ge) / all_counts)
        return u1, p

    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(tie_counts.astype(float) ** 3 - tie_counts))
    correction = 1.0 - tie_term / (total ** 3 - total)
    var = correction * n1 * n2 * (total + 1) / 12.0
    if var <= 0.0:
        return u1, 1.0
    z = (abs(u1 - n1 * n2 / 2.0) - 0.5) / math.sqrt(var)
    z = max(z, 0.0)
    return u1, min(1.0, math.erfc(z / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# feature extraction methods shared by the experiment runner and benchmark

def sample_subset(count: int, size: int, seed: int) -> np.ndarray:
    """Seeded subset of beat indices used for dictionary/codebook training."""
    take = min(size, count)
    rng = np.random.default_rng([seed, 104729])
    return np.sort(rng.choice(count, size=take, replace=False))


class SparseDictFeatures:
    """Learn segment dictionaries on the training beats, emit sparse codes."""

    def __init__(self, spec: SegmentSpec, cfg: TrainConfig):
        self.spec = spec
        self.cfg = cfg
        self.dictionaries: list | None = None

    def fit(self, train_beats: BeatMatrix) -> None:
        subset = sample_subset(train_beats.count, self.cfg.subset_size,
                               self.cfg.seed)
        self.dictionaries = train_segment_dictionaries(
            train_beats, self.spec, self.cfg, subset)

    def transform(self, beats: BeatMatrix) -> np.ndarray:
        if self.dictionaries is None:
            raise RuntimeError("fit must run before transform")
        return encode_beats(beats, self.dictionaries, self.cfg.lam).codes


class VqFeatures:
    """Per-segment k-means codebooks, one-hot encoded for the classifier."""

    def __init__(self, spec: SegmentSpec, k: int, seeding: str = "random",
                 seed: int = 0, *, subset_size: int = 1000):
        self.spec = spec
        self.k = k
        self.seeding = seeding
        self.seed = seed
        self.subset_size = subset_size
        self.codebooks: list | None = None

    def fit(self, train_beats: BeatMatrix) -> None:
        subset = sample_subset(train_beats.count, self.subset_size, self.seed)
        self.codebooks = [
            kmeans_train(segment_view(train_beats, self.spec, j)[:, subset],
                         self.k, self.seeding, self.seed + j,
                         segment_index=j)
            for j in range(1, self.spec.j_count + 1)
        ]

    def transform(self, beats: BeatMatrix) -> np.ndarray:
        if self.codebooks is None:
            raise RuntimeError("fit must run before transform")
        return one_hot_codes(vq_encode(beats, self.spec, self.codebooks))


class FftFeatures:
    """First-coefficient DFT magnitudes; nothing to fit."""

    def __init__(self, n_coeffs: int = 100):
        self.n_coeffs = n_coeffs

    def fit(self, train_beats: BeatMatrix) -> None:
        pass

    def transform(self, beats: BeatMatrix) -> np.ndarray:
        return fft_features(beats, self.n_coeffs)


def run_single(beats: BeatMatrix, method, counts: dict[str, int], seed: int,
               folds: int = 3, c_grid=None, gamma_grid=None
               ) -> tuple[EvalReport, tuple[float, float],
                          tuple[np.ndarray, np.ndarray]]:
    """One full feature-extraction + classification experiment."""
    train_idx, test_idx = stratified_split(beats, SplitPlan(counts, seed))
    train_beats = beats.take(train_idx)

    t0 = time.perf_counter()
    method.fit(train_beats)
    t1 = time.perf_counter()
    features = method.transform(beats)
    t2 = time.perf_counter()

    labels = np.array(beats.labels)
    c_penalty, gamma = grid_search_cv(features[:, train_idx], labels[train_idx],
                                      c_grid, gamma_grid, folds, seed)
    model = train_multiclass(features[:, train_idx], labels[train_idx],
                             c_penalty, gamma)
    pred = predict_batch(model, features[:, test_idx])
    report = evaluate(pred, labels[test_idx])
    report.timing = {"construction_s": t1 - t0, "encoding_s": t2 - t1}
    return report, (c_penalty, gamma), (train_idx, test_idx)

