"""Multi-class RBF-kernel SVM trained by sequential minimal optimization.

Binary machines solve the box-constrained dual

    min_a 0.5 * sum_ij y_i y_j a_i a_j K(z_i, z_j) - sum_i a_i
    s.t.  sum_i a_i y_i = 0,  0 <= a_i <= C

with pairwise analytic updates; the working pair is the maximal KKT
violator matched with the sample of largest |E_i - E_j|, alternating full
passes with passes over the free (0 < a < C) set.  Multi-class decisions
use one-vs-one majority voting.  Hyperparameters come from a stratified
cross-validated grid search.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import (ConvergenceWarning, InsufficientDataError,
                     LengthMismatchError, SingleClassError)

DEFAULT_C_GRID = tuple(2.0 ** e for e in range(-3, 11, 2))       # 2^-3 .. 2^9
DEFAULT_GAMMA_GRID = tuple(2.0 ** e for e in range(-10, 4, 2))   # 2^-10 .. 2^2


def rbf_kernel(a, b, gamma: float) -> float:
    """K(a, b) = exp(-gamma * ||a - b||^2)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise LengthMismatchError(f"vector lengths {a.size} and {b.size}")
    diff = a - b
    return float(np.exp(-gamma * float(diff @ diff)))


def rbf_gram(A, B, gamma: float) -> np.ndarray:
    """Kernel matrix between the columns of A and the columns of B."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    na = np.einsum("ij,ij->j", A, A)
    nb = np.einsum("ij,ij->j", B, B)
    d2 = na[:, None] + nb[None, :] - 2.0 * (A.T @ B)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-gamma * d2)


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
        if self.gamma <= 0 or self.c_penalty <= 0:
            raise ValueError("gamma and c_penalty must be positive")
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


def smo_train(features, labels, c_penalty: float, gamma: float,
              tol: float = 1e-3, max_sweeps: int = 500,
              class_pair: tuple[str, str] = ("+1", "-1"),
              on_step=None) -> TrainedSvm:
    """Train one binary machine on +/-1 labels; samples are columns.

    ``on_step(alpha, bias)`` is a debug hook called after every accepted
    pair update.
    """
    X = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=float).ravel()
    m = X.shape[1]
    if y.size != m:
        raise LengthMismatchError(f"{y.size} labels for {m} samples")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")
    if np.all(y == y[0]):
        raise SingleClassError("both classes must be present")
    if c_penalty <= 0:
        raise ValueError("c_penalty must be positive")

    C = float(c_penalty)
    # run the sweeps a bit tighter than the advertised tolerance so the
    # final bias recomputation cannot push any sample past it
    tol_in = 0.45 * tol
    K = rbf_gram(X, X, gamma)
    alpha = np.zeros(m)
    b = 0.0
    E = -y.copy()  # E_i = f(x_i) - y_i with f identically zero at the start
    eps = 1e-12

    def take_step(i: int, j: int) -> bool:
        nonlocal b, E
        if i == j:
            return False
        ai, aj = alpha[i], alpha[j]
        yi, yj = y[i], y[j]
        s = yi * yj
        if s > 0:
            L, H = max(0.0, ai + aj - C), min(C, ai + aj)
        else:
            L, H = max(0.0, aj - ai), min(C, C + aj - ai)
        if H - L < eps:
            return False
        kii, kjj, kij = K[i, i], K[j, j], K[i, j]
        Ei, Ej = E[i], E[j]
        eta = kii + kjj - 2.0 * kij
        if eta > eps:
            aj_new = aj + yj * (Ei - Ej) / eta
            aj_new = min(H, max(L, aj_new))
        else:
            # flat or concave direction: compare the objective at the clips
            f1 = yi * (Ei + b) - ai * kii - s * aj * kij
            f2 = yj * (Ej + b) - aj * kjj - s * ai * kij
            L1 = ai + s * (aj - L)
            H1 = ai + s * (aj - H)
            lobj = (L1 * f1 + L * f2 + 0.5 * L1 * L1 * kii
                    + 0.5 * L * L * kjj + s * L * L1 * kij)
            hobj = (H1 * f1 + H * f2 + 0.5 * H1 * H1 * kii
                    + 0.5 * H * H * kjj + s * H * H1 * kij)
            if lobj < hobj - 1e-12:
                aj_new = L
            elif lobj > hobj + 1e-12:
                aj_new = H
            else:
                return False
        if abs(aj_new - aj) < eps * (aj_new + aj + eps):
            return False
        ai_new = min(C, max(0.0, ai + s * (aj - aj_new)))
        b_old = b
        b1 = b - Ei - yi * (ai_new - ai) * kii - yj * (aj_new - aj) * kij
        b2 = b - Ej - yi * (ai_new - ai) * kij - yj * (aj_new - aj) * kjj
        if 0.0 < ai_new < C:
            b = b1
        elif 0.0 < aj_new < C:
            b = b2
        else:
            b = 0.5 * (b1 + b2)
        alpha[i], alpha[j] = ai_new, aj_new
        E += (yi * (ai_new - ai) * K[i] + yj * (aj_new - aj) * K[j]
              + (b - b_old))
        if on_step is not None:
            on_step(alpha.copy(), b)
        return True

    def examine(i: int) -> bool:
        r = y[i] * E[i]
        if not ((r < -tol_in and alpha[i] < C) or (r > tol_in and alpha[i] > 0)):
            return False
        free = np.flatnonzero((alpha > 0) & (alpha < C))
        tried: set[int] = {i}
        order: list[int] = []
        if free.size:
            order.append(int(free[int(np.argmax(np.abs(E[i] - E[free])))]))
            order.extend(int(t) for t in free)
        order.extend(range(m))
        for j in order:
            if j in tried:
                continue
            tried.add(j)
            if take_step(i, j):
                return True
        return False

    examine_all = True
    converged = False
    for _ in range(max_sweeps):
        changed = 0
        idxs = range(m) if examine_all else np.flatnonzero((alpha > 0) & (alpha < C))
        for i in idxs:
            changed += examine(int(i))
        if examine_all:
            if changed == 0:
                converged = True
                break
            examine_all = False
        elif changed == 0:
            examine_all = True
    if not converged:
        warnings.warn("SMO hit max_sweeps before satisfying the KKT conditions",
                      ConvergenceWarning, stacklevel=2)

    # pair updates can leave an alpha an ulp off its bound; counted as free,
    # it would pull the bias average onto a sample that does not set it
    snap = 1e-12 * C
    alpha[alpha <= snap] = 0.0
    alpha[alpha >= C - snap] = C

    # final bias: average over free support vectors, else the midpoint of
    # the interval the bound constraints leave feasible
    g = (alpha * y) @ K
    free = (alpha > 0) & (alpha < C)
    if free.any():
        b = float(np.mean(y[free] - g[free]))
    else:
        lowers, uppers = [], []
        for i in range(m):
            bound = 1.0 / y[i] - g[i]
            at_zero = alpha[i] == 0.0
            if (at_zero and y[i] > 0) or (not at_zero and y[i] < 0):
                lowers.append(bound)
            else:
                uppers.append(bound)
        lo = max(lowers) if lowers else min(uppers)
        hi = min(uppers) if uppers else max(lowers)
        b = 0.5 * (lo + hi)

    sv = np.flatnonzero(alpha > 0)
    return TrainedSvm(X[:, sv], alpha[sv] * y[sv], float(b), float(gamma), C,
                      class_pair, sv, converged)


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


def train_multiclass(features, labels, c_penalty: float, gamma: float,
                     tol: float = 1e-3) -> MultiClassSvm:
    """Train one machine per class pair; +1 maps to the pair's first label."""
    X = np.atleast_2d(np.asarray(features, dtype=float))
    labels = [str(l) for l in labels]
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise SingleClassError("need at least two classes")
    arr = np.array(labels)
    machines = []
    for a, b in combinations(classes, 2):
        mask = (arr == a) | (arr == b)
        y = np.where(arr[mask] == a, 1.0, -1.0)
        machines.append(smo_train(X[:, mask], y, c_penalty, gamma, tol,
                                  class_pair=(a, b)))
    return MultiClassSvm(tuple(machines), tuple(classes))


def predict_batch(model: MultiClassSvm, Z) -> list[str]:
    """Majority vote over the pairwise machines for each column of Z.

    Vote ties go to the class with the largest summed |f| over the machines
    it won, then to lexicographic label order.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    n = Z.shape[1]
    votes = {c: np.zeros(n) for c in model.classes}
    margins = {c: np.zeros(n) for c in model.classes}
    for machine in model.machines:
        f = decision_values(machine, Z)
        first = f >= 0
        a, b = machine.class_pair
        votes[a] += first
        votes[b] += ~first
        margins[a] += np.where(first, np.abs(f), 0.0)
        margins[b] += np.where(first, 0.0, np.abs(f))
    out = []
    for i in range(n):
        best = max(votes[c][i] for c in model.classes)
        tied = [c for c in model.classes if votes[c][i] == best]
        if len(tied) > 1:
            top = max(margins[c][i] for c in tied)
            tied = [c for c in tied if margins[c][i] == top]
        out.append(min(tied))
    return out


def predict(model: MultiClassSvm, z) -> str:
    """Predicted label for a single feature vector."""
    return predict_batch(model, np.asarray(z, dtype=float).reshape(-1, 1))[0]


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


def grid_search_cv(features, labels, c_grid=None, gamma_grid=None,
                   folds: int = 3, seed: int = 0,
                   tol: float = 1e-3) -> tuple[float, float]:
    """Pick (C, gamma) by stratified k-fold accuracy; ties prefer the
    smaller C, then smaller gamma."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    c_values = sorted(set(float(c) for c in (c_grid or DEFAULT_C_GRID)))
    g_values = sorted(set(float(g) for g in (gamma_grid or DEFAULT_GAMMA_GRID)))
    if not c_values or not g_values:
        raise ValueError("grids must be nonempty")
    X = np.atleast_2d(np.asarray(features, dtype=float))
    arr = np.array([str(l) for l in labels])
    fold_of = _stratified_folds(arr, folds, np.random.default_rng(seed))

    best = None
    for C, g in product(c_values, g_values):
        correct = 0
        for f in range(folds):
            tr = fold_of != f
            te = ~tr
            model = train_multiclass(X[:, tr], arr[tr], C, g, tol)
            pred = predict_batch(model, X[:, te])
            correct += int(np.sum(np.array(pred) == arr[te]))
        acc = correct / arr.size
        if best is None or acc > best[0]:
            best = (acc, C, g)
    return best[1], best[2]
