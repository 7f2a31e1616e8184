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
                     LengthMismatchError, SingleClassError)

DEFAULT_C_GRID = tuple(2.0 ** e for e in range(-3, 11, 2))       # 2^-3 .. 2^9
DEFAULT_GAMMA_GRID = tuple(2.0 ** e for e in range(-10, 4, 2))   # 2^-10 .. 2^2
_KKT_TOL = 1e-3
_MAX_SWEEPS = 500


def rbf_gram(A, B, gamma: float) -> np.ndarray:
    """Kernel matrix between the columns of A and the columns of B."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma:g}")
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
        for name, value in (("gamma", self.gamma),
                            ("c_penalty", self.c_penalty)):
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value:g}")
        if np.any(np.abs(al) > self.c_penalty * (1 + 1e-9)):
            raise ValueError("dual coefficients exceed the box constraint")
        if abs(al.sum()) > 1e-6 * np.abs(al).sum() + 1e-9:
            raise ValueError("sum of signed duals must vanish")


def decision_values(machine: TrainedSvm, Z) -> np.ndarray:
    """f(z) = sum_i a_i y_i K(sv_i, z) + b for each column z of Z."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if machine.alphas.size == 0:
        return np.full(Z.shape[1], machine.bias)
    K = rbf_gram(machine.support_vectors, Z, machine.gamma)
    return machine.alphas @ K + machine.bias


def _pair_step(ai, aj, gi, gj, same, quad, c):
    """LIBSVM's two-variable update, clipped to the box [0, c]."""
    def clip(k, ni, nj, vi, vj):    # (vi, vj) where k holds, else (ni, nj)
        return np.where(k, vi, ni), np.where(k, vj, nj)
    # labels differ: a_i - a_j stays fixed
    d, delta = ai - aj, (-gi - gj) / quad
    pi, pj, pos = ai + delta, aj + delta, d > 0
    pi, pj = clip(pos & (pj < 0), pi, pj, d, 0.0)
    pi, pj = clip(~pos & (pi < 0), pi, pj, 0.0, -d)
    pi, pj = clip(pos & (pi > c), pi, pj, c, c - d)
    pi, pj = clip(~pos & (pj > c), pi, pj, c + d, c)
    # labels agree: a_i + a_j stays fixed
    s, delta = ai + aj, (gi - gj) / quad
    qi, qj, over = ai - delta, aj + delta, s > c
    qi, qj = clip(over & (qi > c), qi, qj, c, s - c)
    qi, qj = clip(~over & (qj < 0), qi, qj, s, 0.0)
    qi, qj = clip(over & (qj > c), qi, qj, s - c, c)
    qi, qj = clip(~over & (qi < 0), qi, qj, 0.0, s)
    return np.where(same, qi, pi), np.where(same, qj, pj)


def _smo_batch(K, idx, y, C, gamma, pairs, on_step=None):
    """Solve P padded binary duals in lockstep -> (alpha, bias, converged).

    Problem p has kernel K[idx[p]][:, idx[p]], labels y[p] (+/-1, then 0
    as padding), box C (one value, or one per problem), and the name
    pairs[p] in the warning.  It converges when its maximal violating pair
    is within 0.9 * _KKT_TOL, and stops unconverged after _MAX_SWEEPS
    updates per sample.  A problem leaves the batch as it stops; its
    arithmetic is elementwise and the update count is shared, so its
    duals, bias and outcome do not depend on the batch.
    on_step(alpha, bias estimate) is called after every update of a
    one-problem batch."""
    C = np.broadcast_to(np.asarray(C, dtype=float), y.shape[:1])
    if not np.all(C > 0):
        raise ValueError(f"c_penalty must be positive, got "
                         f"{C[np.argmin(C > 0)]:g}")
    alpha, G = np.empty(y.shape), np.empty(y.shape)
    converged = np.empty(y.shape[0], dtype=bool)
    # the live batch: each problem's row in the outputs, then its duals a,
    # their gradient g, and its labels, indices, box, diagonal and cap
    live = np.arange(y.shape[0])
    a, g, yl, il, c = np.zeros(y.shape), -np.abs(y), y, idx, C
    diag, cap = K.diagonal()[idx], _MAX_SWEEPS * np.count_nonzero(y, axis=1)
    steps = 0
    while True:
        box, v = c[:, None], -yl * g
        # padding has alpha = 0, so it is in neither index set
        vu = np.where(np.where(yl > 0, a < box, a > 0), v, -np.inf)
        low = np.where(yl < 0, a < box, a > 0)
        i, rows = vu.argmax(1), np.arange(live.size)
        top, bottom = vu[rows, i], np.where(low, v, np.inf).min(1)
        if on_step is not None and steps:
            on_step(a[0].copy(), 0.5 * float(top[0] + bottom[0]))
        ok = top - bottom <= 0.9 * _KKT_TOL  # margin for the final bias
        stop = ok | (steps >= cap)
        if stop.any():
            # a stopped problem's state is final: write it out, drop its row
            done = live[stop]
            alpha[done], G[done], converged[done] = a[stop], g[stop], ok[stop]
            go = ~stop
            if not go.any():
                break
            live, a, g, yl, il, c, diag, cap, v, low, i, top = (
                x[go] for x in (live, a, g, yl, il, c, diag, cap, v, low, i,
                                top))
            rows = np.arange(live.size)
        Ki = K[il[rows, i][:, None], il]
        quad = Ki[rows, i][:, None] + diag - 2.0 * Ki
        quad[quad <= 0] = 1e-12     # LIBSVM's curvature floor, tau
        gain = top[:, None] - v
        j = np.where(low & (v < top[:, None]), -(gain * gain) / quad,
                     np.inf).argmin(1)
        Kj = K[il[rows, j][:, None], il]
        ai, aj = a[rows, i], a[rows, j]
        yi, yj = yl[rows, i], yl[rows, j]
        ni, nj = _pair_step(ai, aj, g[rows, i], g[rows, j], yi == yj,
                            quad[rows, j], c)
        g += yl * ((yi * (ni - ai))[:, None] * Ki
                   + (yj * (nj - aj))[:, None] * Kj)
        a[rows, i], a[rows, j] = ni, nj
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


def _train(X, idx, y, C, gamma, pairs, on_step=None) -> list[TrainedSvm]:
    """One batch on the columns of X; sv_indices count within a problem."""
    alpha, bias, ok = _smo_batch(rbf_gram(X, X, gamma), idx, y, C, gamma,
                                 pairs, on_step)
    svs = [np.flatnonzero(a > 0) for a in alpha]
    return [TrainedSvm(X[:, idx[p, sv]], alpha[p, sv] * y[p, sv],
                       float(bias[p]), float(gamma), float(C), pair, sv,
                       bool(ok[p]))
            for p, (sv, pair) in enumerate(zip(svs, pairs))]


def smo_train(features, labels, c_penalty: float, gamma: float,
              class_pair: tuple[str, str] = ("+1", "-1"),
              on_step=None) -> TrainedSvm:
    """Train one binary machine on +/-1 labels; samples are columns.

    At most ``_MAX_SWEEPS * m`` pair updates are made on m samples;
    ``on_step(alpha, bias)``, a debug hook, is called after each."""
    X = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=float).ravel()
    m = X.shape[1]
    if y.size != m:
        raise LengthMismatchError(f"{y.size} labels for {m} samples")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")
    if np.all(y == y[0]):
        raise SingleClassError("both classes must be present")
    return _train(X, np.arange(m)[None], y[None], c_penalty, gamma,
                  [class_pair], on_step)[0]


def kkt_violations(machine: TrainedSvm, features, labels) -> np.ndarray:
    """Per-sample KKT violation of a machine on its full training set."""
    X = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=float).ravel()
    m = X.shape[1]
    alpha = np.zeros(m)
    alpha[machine.sv_indices] = machine.alphas * y[machine.sv_indices]
    yf = y * decision_values(machine, X)
    out = np.empty(m)
    at_c = alpha >= machine.c_penalty * (1 - 1e-9)
    at_zero = alpha <= 1e-12
    out[at_zero] = np.maximum(0.0, 1.0 - yf[at_zero])
    out[at_c] = np.maximum(0.0, yf[at_c] - 1.0)
    interior = ~(at_zero | at_c)
    out[interior] = np.abs(yf[interior] - 1.0)
    return out


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


def _labelled(features, labels):
    """Features as columns, labels as strings, and the sorted classes."""
    X = np.atleast_2d(np.asarray(features, dtype=float))
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
    summed |f| over the machines won, then label order."""
    # each machine adds to its first class, then its second, as a loop would
    who = np.array([classes.index(c) for pair in pairs for c in pair], int)
    won = F >= 0
    sides = np.stack([won, ~won], 1).reshape(-1, F.shape[1])
    votes, margin = np.zeros((2, len(classes), F.shape[1]))
    np.add.at(votes, who, sides)
    np.add.at(margin, who, np.where(sides, np.abs(F).repeat(2, 0), 0.0))
    tied = votes == votes.max(0)
    tied &= margin == np.where(tied, margin, -np.inf).max(0)
    order = np.argsort(classes)
    return np.array(classes)[order[tied[order].argmax(0)]]


def predict_batch(model: MultiClassSvm, Z) -> list[str]:
    """Majority vote over the pairwise machines for each column of Z.

    Vote ties go to the class with the largest summed |f| over the machines
    it won, then to lexicographic label order.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    F = np.array([decision_values(m, Z) for m in model.machines])
    pairs = [m.class_pair for m in model.machines]
    return _vote(F.reshape(-1, Z.shape[1]), pairs, model.classes).tolist()


def _stratified_folds(labels: np.ndarray, folds: int,
                      rng: np.random.Generator) -> np.ndarray:
    assign = np.empty(labels.size, dtype=int)
    for cls in sorted(set(labels)):
        idx = np.flatnonzero(labels == cls)
        if idx.size < folds:
            raise InsufficientDataError(
                f"class {cls!r} has {idx.size} samples for {folds} folds")
        idx = rng.permutation(idx)
        for f in range(folds):
            assign[idx[f::folds]] = f
    return assign


def _cv_correct(X, labels, classes, fold_of, c_values,
                g_values) -> np.ndarray:
    """Held-out correct counts of every (C, gamma) cell.  The kernel is
    formed once per gamma, and one batch trains every C x fold x pair of
    that gamma; problems leave the batch as they stop."""
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
            for ci in range(nc):
                F = np.einsum("ps,pst->pt", coef[ci, p], Kt)
                F += bias[ci, p, None]
                correct[ci, gi] += np.count_nonzero(
                    _vote(F, pairs, classes) == labels[te])
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
    for name, values in (("C", c_values), ("gamma", g_values)):
        bad = [v for v in values if not v > 0]
        if bad:
            raise ValueError(f"{name} grid values must be positive, "
                             f"got {bad[0]:g}")
    X, labels, classes = _labelled(features, labels)
    fold_of = _stratified_folds(labels, folds, np.random.default_rng(seed))
    correct = _cv_correct(X, labels, classes, fold_of, c_values, g_values)
    # argmax takes the first best cell: the smallest C, then gamma
    ci, gi = np.unravel_index(np.argmax(correct), correct.shape)
    return c_values[ci], g_values[gi]
