"""Multi-class RBF-kernel SVM trained by sequential minimal optimization.

Binary machines solve the box-constrained dual

    min_a 0.5 * sum_ij y_i y_j a_i a_j K(z_i, z_j) - sum_i a_i
    s.t.  sum_i a_i y_i = 0,  0 <= a_i <= C

by LIBSVM's clipped pair updates with second-order working-set selection
(Fan, Chen & Lin, JMLR 6, 2005).  One core solves a padded batch of such
problems in lockstep with elementwise numpy operations, so a machine's
duals do not depend on its batch: a single machine, the class pairs of a
one-vs-one (majority vote) model, or every C x fold x pair of one grid
gamma.  Problems leave the batch as they stop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (ConvergenceWarning, InsufficientDataError,
                     LengthMismatchError, ShapeMismatchError,
                     SingleClassError)

DEFAULT_C_GRID = tuple(2.0 ** e for e in range(-3, 11, 2))       # 2^-3 .. 2^9
DEFAULT_GAMMA_GRID = tuple(2.0 ** e for e in range(-10, 4, 2))   # 2^-10 .. 2^2
_KKT_TOL = 1e-3
_MAX_SWEEPS = 500


def _require_positive(name, values):
    """Raise ValueError naming the first of values that is not finite and
    positive."""
    values = np.asarray(values, dtype=float).ravel()
    bad = np.flatnonzero(~(np.isfinite(values) & (values > 0)))
    if bad.size:
        v = values[bad[0]]
        raise ValueError(f"{name} must be {'finite' if v > 0 else 'positive'}"
                         f", got {v:g}")


def _samples(features) -> np.ndarray:
    """Features as a 2-D float array of sample columns, all finite."""
    X = np.atleast_2d(np.asarray(features, dtype=float))
    bad = np.flatnonzero(~np.isfinite(X).all(axis=0))
    if bad.size:
        raise ValueError(f"column {bad[0]}: features must be finite")
    return X


def rbf_gram(A, B, gamma: float) -> np.ndarray:
    """Kernel matrix between the columns of A and the columns of B."""
    _require_positive("gamma", gamma)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    na = np.einsum("ij,ij->j", A, A)
    nb = np.einsum("ij,ij->j", B, B)
    # (na + nb) - 2 A'B, with one temporary beside A'B
    AB = A.T @ B
    AB *= 2.0
    d2 = na[:, None] + nb[None, :]
    d2 -= AB
    np.maximum(d2, 0.0, out=d2)
    d2 *= -gamma
    return np.exp(d2, out=d2)


@dataclass(frozen=True)
class TrainedSvm:
    """One binary machine: support vectors, signed duals a_i*y_i, and bias."""

    support_vectors: np.ndarray
    alphas: np.ndarray
    bias: float
    gamma: float
    c_penalty: float
    class_pair: tuple[str, str]
    sv_indices: np.ndarray
    converged: bool = True

    def __post_init__(self):
        sv = np.atleast_2d(np.asarray(self.support_vectors, dtype=float))
        al = np.asarray(self.alphas, dtype=float).ravel()
        object.__setattr__(self, "support_vectors", sv)
        object.__setattr__(self, "alphas", al)
        object.__setattr__(self, "sv_indices",
                           np.asarray(self.sv_indices, dtype=int).ravel())
        if sv.shape[1] != al.size or al.size != self.sv_indices.size:
            raise LengthMismatchError("support vectors, alphas, indices disagree")
        _require_positive("gamma", self.gamma)
        _require_positive("c_penalty", self.c_penalty)
        if np.any(np.abs(al) > self.c_penalty * (1 + 1e-9)):
            raise ValueError("dual coefficients exceed the box constraint")
        if abs(al.sum()) > 1e-6 * np.abs(al).sum() + 1e-9:
            raise ValueError("sum of signed duals must vanish")


def decision_values(machine: TrainedSvm, Z) -> np.ndarray:
    """f(z) = sum_i a_i y_i K(sv_i, z) + b for each column z of Z; every
    column must be finite."""
    return _decisions(machine, _samples(Z))


def _decisions(machine: TrainedSvm, Z: np.ndarray) -> np.ndarray:
    """decision_values on a finite 2-D float Z; checks its row count."""
    if machine.support_vectors.shape[0] != Z.shape[0]:
        raise ShapeMismatchError(
            f"features have {Z.shape[0]} rows, the model was trained on "
            f"{machine.support_vectors.shape[0]}")
    if machine.alphas.size == 0:
        return np.full(Z.shape[1], machine.bias)
    K = rbf_gram(machine.support_vectors, Z, machine.gamma)
    return machine.alphas @ K + machine.bias


def _pair_step(ai, aj, yi, yj, t, c):
    """LIBSVM's two-variable update a_i += y_i t, a_j -= y_j t, which keeps
    w = a_i + y_i y_j a_j, clipped to the box [0, c] in LIBSVM's order."""
    r = yi * yj
    ni, nj, w, same = ai + yi * t, aj - yj * t, ai + r * aj, r > 0
    # LIBSVM tests w against c (labels agree) or 0 (they differ), then
    # makes at most two of these clips, in this order
    high = w > np.where(same, c, 0.0)
    flip = high ^ same
    for k, vi, vj in ((flip & (nj < 0), w, 0.0),
                      (~high & (ni < 0), 0.0, r * w)):
        ni, nj = np.where(k, vi, ni), np.where(k, vj, nj)
    for k, vi, vj in ((high & (ni > c), c, r * (w - c)),
                      (~flip & (nj > c), w - r * c, c)):
        ni, nj = np.where(k, vi, ni), np.where(k, vj, nj)
    return ni, nj


def _smo_batch(K, idx, y, C, gamma, pairs, on_step=None):
    """Solve P padded binary duals in lockstep -> (alpha, bias, converged).

    Problem p has kernel K[idx[p]][:, idx[p]], labels y[p] (+/-1, then 0
    as padding), box C (one value, or one per problem), and the name
    pairs[p] in the warning.  It converges when its maximal violating pair
    is within 0.9 * _KKT_TOL, and stops unconverged after _MAX_SWEEPS
    updates per sample.  A problem leaves the batch as it stops; its
    arithmetic is elementwise and the update count is shared, so its
    duals, bias and outcome do not depend on the batch.
    A step works on v = -y * g for the dual gradient g and on the signed
    duals s = y * a, both exact for labels +/-1.  The box on s is [0, C]
    for y = +1 and [-C, 0] for y = -1, so WSS2's index sets are
    I_up = {s < hi} and I_low = {s > lo}, with bounds set once per problem.
    on_step(alpha, bias estimate) is called after every update of a
    one-problem batch."""
    C = np.broadcast_to(np.asarray(C, dtype=float), y.shape[:1])
    _require_positive("c_penalty", C)
    alpha, G = np.empty(y.shape), np.empty(y.shape)
    converged = np.empty(y.shape[0], dtype=bool)
    flat, n = K.ravel(), K.shape[1]
    # the live batch: each problem's row in the outputs, then its signed
    # duals s, v = -y * g (padding's v is never read), the bounds of s
    # (+inf / -inf on padding, so it is in neither index set), and its
    # labels, indices, box, diagonal and cap
    live = np.arange(y.shape[0])
    s, v = np.zeros(y.shape), y.astype(float)
    lo = np.where(y > 0, 0.0, np.where(y < 0, -C[:, None], np.inf))
    hi = np.where(y > 0, C[:, None], np.where(y < 0, 0.0, -np.inf))
    yl, il, c = y, idx, C
    diag, cap = K.diagonal()[idx], _MAX_SWEEPS * np.count_nonzero(y, axis=1)
    rows, steps = live, 0
    while True:
        vu = np.where(s < hi, v, -np.inf)
        vl = np.where(s > lo, v, np.inf)
        i = vu.argmax(1)
        top, bottom = vu[rows, i], vl.min(1)
        if on_step is not None and steps:
            on_step(yl[0] * s[0], 0.5 * float(top[0] + bottom[0]))
        ok = top - bottom <= 0.9 * _KKT_TOL  # margin for the final bias
        stop = ok | (steps >= cap)
        if stop.any():
            # a stopped problem's state is final: write it out, drop its row
            done = live[stop]
            alpha[done], converged[done] = yl[stop] * s[stop], ok[stop]
            G[done] = -yl[stop] * v[stop]
            go = np.flatnonzero(~stop)
            if not go.size:
                break
            live, s, v, vl, lo, hi, yl, il, c, diag, cap, i, top = (
                x[go] for x in (live, s, v, vl, lo, hi, yl, il, c, diag, cap,
                                i, top))
            rows = np.arange(live.size)
        Ki = flat[(il[rows, i] * n)[:, None] + il]
        quad = diag[rows, i][:, None] + diag - 2.0 * Ki
        quad[quad <= 0] = 1e-12     # LIBSVM's curvature floor, tau
        # j maximizes (v_i - v_j)^2 / quad over I_low where v_j < v_i;
        # elsewhere the gain is -inf or at most 0, so the clip sets it to 0
        gain = np.maximum(top[:, None] - vl, 0.0)
        j = (gain * gain / quad).argmax(1)
        Kj = flat[(il[rows, j] * n)[:, None] + il]
        yi, yj = yl[rows, i], yl[rows, j]
        ai, aj = yi * s[rows, i], yj * s[rows, j]
        ni, nj = _pair_step(ai, aj, yi, yj, gain[rows, j] / quad[rows, j], c)
        v -= (yi * (ni - ai))[:, None] * Ki + (yj * (nj - aj))[:, None] * Kj
        s[rows, i], s[rows, j] = yi * ni, yj * nj
        steps += 1
    if not converged.all():
        p = np.argmin(converged)
        warnings.warn(f"SMO hit max_sweeps before satisfying the KKT "
                      f"conditions on {np.sum(~converged)} of {y.shape[0]} "
                      f"machines (first: pair {tuple(map(str, pairs[p]))}, "
                      f"C={C[p]:g}, gamma={gamma:g})", ConvergenceWarning,
                      stacklevel=3)
    # final bias: alphas an ulp off a bound go onto it (counted as free,
    # they would pull the mean onto samples that do not set it), then the
    # mean of y - g over free SVs (g = y * (G + 1)), else the midpoint of
    # the interval the bound samples leave feasible
    box = C[:, None]
    alpha = np.where(alpha <= 1e-12 * box, 0.0, alpha)
    alpha = np.where(alpha >= box - 1e-12 * box, box, alpha)
    resid = y - y * (G + 1.0)
    free = (alpha > 0) & (alpha < box)
    count = free.sum(1)
    # cumsum adds in sample order, so padding cannot change the sum's bits
    mean = np.where(free, resid, 0.0).cumsum(1)[:, -1] / np.maximum(count, 1)
    lower = (y != 0) & ((alpha == 0) == (y > 0))
    lo = np.where(lower, resid, -np.inf).max(1)
    hi = np.where((y != 0) & ~lower, resid, np.inf).min(1)
    lo, hi = np.where(np.isinf(lo), hi, lo), np.where(np.isinf(hi), lo, hi)
    return alpha, np.where(count > 0, mean, 0.5 * (lo + hi)), converged


def _train(X, idx, y, C, gamma, pairs) -> list[TrainedSvm]:
    """One batch on the columns of X; sv_indices count within a problem."""
    alpha, bias, ok = _smo_batch(rbf_gram(X, X, gamma), idx, y, C, gamma,
                                 pairs)
    svs = [np.flatnonzero(a > 0) for a in alpha]
    return [TrainedSvm(X[:, idx[p, sv]], alpha[p, sv] * y[p, sv],
                       float(bias[p]), float(gamma), float(C), pair, sv,
                       bool(ok[p]))
            for p, (sv, pair) in enumerate(zip(svs, pairs))]


def smo_train(features, labels, c_penalty: float, gamma: float,
              class_pair: tuple[str, str] = ("+1", "-1")) -> TrainedSvm:
    """Train one binary machine on +/-1 labels; samples are columns.

    At most ``_MAX_SWEEPS * m`` pair updates are made on m samples."""
    X = _samples(features)
    y = np.asarray(labels, dtype=float).ravel()
    m = X.shape[1]
    if y.size != m:
        raise LengthMismatchError(f"{y.size} labels for {m} samples")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")
    if np.all(y == y[0]):
        raise SingleClassError("both classes must be present")
    return _train(X, np.arange(m)[None], y[None], c_penalty, gamma,
                  [class_pair])[0]


@dataclass(frozen=True)
class MultiClassSvm:
    """One-vs-one ensemble: one binary machine per unordered class pair."""

    machines: tuple[TrainedSvm, ...]
    classes: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "machines", tuple(self.machines))
        n = len(self.classes)
        if len(self.machines) != n * (n - 1) // 2:
            raise ValueError(
                f"{len(self.machines)} machines for {n} classes, "
                f"expected {n * (n - 1) // 2}")
        if ({frozenset(m.class_pair) for m in self.machines}
                != {frozenset(p) for p in combinations(self.classes, 2)}):
            raise ValueError(f"the machines' class pairs are not the pairs "
                             f"of classes {' '.join(self.classes)}")


def _labelled(features, labels):
    """Finite features as columns, labels as strings, and the sorted
    classes."""
    X = _samples(features)
    labels = np.array([str(l) for l in labels])
    if labels.size != X.shape[1]:
        raise LengthMismatchError(f"{labels.size} labels for {X.shape[1]} "
                                  "samples")
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise SingleClassError("need at least two classes")
    return X, labels, classes


def _pair_problems(labels, classes, train_sets):
    """Class pairs, and the column indices and +/-1 labels (0 marks padding)
    of every pair on every training set, padded to one width."""
    pairs = list(combinations(classes, 2))
    cols = [tr[np.isin(labels[tr], pair)] for tr in train_sets
            for pair in pairs]
    idx = np.zeros((len(cols), max(c.size for c in cols)), dtype=int)
    y = np.zeros(idx.shape)
    for p, c in enumerate(cols):
        idx[p, :c.size] = c
        y[p, :c.size] = 1.0 - 2.0 * (labels[c] != pairs[p % len(pairs)][0])
    return pairs, idx, y


def train_multiclass(features, labels, c_penalty: float,
                     gamma: float) -> MultiClassSvm:
    """Train one machine per class pair, all in one batch; +1 maps to the
    pair's first label."""
    X, labels, classes = _labelled(features, labels)
    pairs, idx, y = _pair_problems(labels, classes, [np.arange(labels.size)])
    machines = _train(X, idx, y, c_penalty, gamma, pairs)
    return MultiClassSvm(tuple(machines), tuple(classes))


def _vote(F, pairs, classes) -> np.ndarray:
    """Winning label per column of F (one row of decision values per
    machine, whose +1 side is pairs[k][0]): most votes, then the largest
    summed |f| over the machines won, then label order.

    Each class's n - 1 machine sides are gathered in machine order, and
    cumsum adds their margins in that order, as a loop over the machines
    would, so margin ties break the same way."""
    who = np.array([classes.index(c) for pair in pairs for c in pair], int)
    mine = np.argsort(who, kind="stable").reshape(len(classes), -1)
    won = F >= 0
    sides = np.stack([won, ~won], 1).reshape(2 * len(F), -1)[mine]
    votes = sides.sum(1)
    margin = np.where(sides, np.abs(F)[mine // 2], 0.0).cumsum(1)[:, -1]
    tied = votes == votes.max(0)
    tied &= margin == np.where(tied, margin, -np.inf).max(0)
    order = np.argsort(classes)
    return np.array(classes)[order[tied[order].argmax(0)]]


def predict_batch(model: MultiClassSvm, Z) -> list[str]:
    """Majority vote over the pairwise machines for each column of Z.

    Vote ties go to the class with the largest summed |f| over the machines
    it won, then to lexicographic label order.
    """
    Z = _samples(Z)
    F = np.array([_decisions(m, Z) for m in model.machines])
    pairs = [m.class_pair for m in model.machines]
    return _vote(F, pairs, model.classes).tolist()


def _stratified_folds(labels: np.ndarray, folds: int,
                      rng: np.random.Generator) -> np.ndarray:
    assign = np.empty(labels.size, dtype=int)
    for cls in sorted(set(labels)):
        idx = np.flatnonzero(labels == cls)
        if idx.size < folds:
            raise InsufficientDataError(
                f"class {str(cls)!r} has {idx.size} samples for {folds} "
                "folds")
        idx = rng.permutation(idx)
        for f in range(folds):
            assign[idx[f::folds]] = f
    return assign


def _cv_correct(X, labels, classes, fold_of, c_values,
                g_values) -> np.ndarray:
    """Held-out correct counts of every (C, gamma) cell.  The kernel is
    formed once per gamma, and one batch trains every C x fold x pair of
    that gamma; problems leave the batch as they stop.  One vote scores
    every C of a fold."""
    folds = range(fold_of.max() + 1)
    pairs, idx, y = _pair_problems(labels, classes, [
        np.flatnonzero(fold_of != f) for f in folds])
    n, nc = len(idx), len(c_values)         # n: problems of one cell
    idx_all, y_all = np.tile(idx, (nc, 1)), np.tile(y, (nc, 1))
    correct = np.zeros((nc, len(g_values)), dtype=int)
    for gi, g in enumerate(g_values):
        K = rbf_gram(X, X, g)
        alpha, bias, _ = _smo_batch(K, idx_all, y_all, np.repeat(c_values, n),
                                    g, pairs * (nc * len(folds)))
        coef = (alpha * y_all).reshape(nc, n, -1)
        bias = bias.reshape(nc, n)
        for f in folds:
            te = np.flatnonzero(fold_of == f)
            p = slice(f * len(pairs), (f + 1) * len(pairs))
            Kt = K[idx[p][..., None], te]       # shared by every C
            F = np.einsum("cps,pst->pct", coef[:, p], Kt)
            F += bias[:, p].T[:, :, None]
            won = _vote(F.reshape(len(pairs), -1), pairs, classes)
            correct[:, gi] += np.count_nonzero(
                won.reshape(nc, -1) == labels[te], axis=1)
    return correct


def grid_search_cv(features, labels, c_grid=None, gamma_grid=None,
                   folds: int = 3, seed: int = 0) -> tuple[float, float]:
    """Pick (C, gamma) by stratified k-fold accuracy; ties prefer the
    smaller C, then smaller gamma."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if c_grid is None:
        c_grid = DEFAULT_C_GRID
    if gamma_grid is None:
        gamma_grid = DEFAULT_GAMMA_GRID
    c_values = sorted(set(float(c) for c in c_grid))
    g_values = sorted(set(float(g) for g in gamma_grid))
    if not c_values or not g_values:
        raise ValueError("grids must be nonempty")
    _require_positive("C grid values", c_values)
    _require_positive("gamma grid values", g_values)
    X, labels, classes = _labelled(features, labels)
    fold_of = _stratified_folds(labels, folds, np.random.default_rng(seed))
    correct = _cv_correct(X, labels, classes, fold_of, c_values, g_values)
    # argmax takes the first best cell: the smallest C, then gamma
    ci, gi = np.unravel_index(np.argmax(correct), correct.shape)
    return c_values[ci], g_values[gi]
