"""Dictionary learning by alternating sparse coding and Lagrange-dual updates.

With codes X fixed, minimizing ||Y - D X||_F^2 subject to ||d_k|| <= 1 is
solved through its dual: maximize over nonnegative lam

    R(lam) = Tr(Y^T Y - Y X^T (X X^T + Lam)^{-1} X Y^T - Lam),
    Lam = diag(lam),

by a safeguarded Newton method (backtracking on R, projection onto
lam >= 0), then recover D = Y X^T (X X^T + Lam)^{-1}.  Writing
G = Y X^T (X X^T + Lam)^{-1}, the gradient and Hessian have closed forms

    dR/dlam_k         = ||G e_k||^2 - 1
    d2R/dlam_k dlam_l = -2 (G^T G)_{kl} * ((X X^T + Lam)^{-1})_{kl}.

Atoms never selected by any code are left at zero by the dual and are
re-initialized from random data columns so all k atoms stay effective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .beat_model import (ATOM_NORM_SLACK, BeatMatrix, SegmentDictionary,
                         SegmentSpec, SparseCodeMatrix, segment_view,
                         stack_dictionaries)
from .errors import (IndefiniteSystemError, InsufficientDataError,
                     SegdictError, ShapeMismatchError)
from .sparse_coder import SolverOptions, batch_encode, coding_objective

_EARLY_STOP_REL = 1e-6


@dataclass(frozen=True)
class DualState:
    """Nonnegative dual variables of the atom-norm constraints.

    ``r_history`` records R(lam) at every accepted Newton step of the run
    that produced this state.
    """

    lam: np.ndarray
    r_history: tuple[float, ...] = ()

    def __post_init__(self):
        arr = np.asarray(self.lam, dtype=float)
        object.__setattr__(self, "lam", arr)
        if arr.ndim != 1:
            raise ValueError("lam must be a vector")
        if np.any(arr < 0):
            raise ValueError("dual variables must be nonnegative")

    @property
    def Lam(self) -> np.ndarray:
        return np.diag(self.lam)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one dictionary-learning run."""

    k: int = 32
    lam: float = 0.15
    outer_iters: int = 30
    newton_tol: float = 1e-6
    newton_max: int = 50
    seed: int = 0
    subset_size: int = 1000

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.outer_iters < 1:
            raise ValueError("outer_iters must be >= 1")
        if self.newton_tol <= 0 or self.newton_max < 1:
            raise ValueError("bad Newton controls")
        if self.subset_size < 1:
            raise ValueError("subset_size must be >= 1")


def _init_atoms(segments: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct nonzero data columns, shuffled then normalized."""
    d, n = segments.shape
    if n < k:
        raise InsufficientDataError(f"need at least {k} columns, got {n}")
    chosen: list[int] = []
    for idx in rng.permutation(n):
        col = segments[:, idx]
        if np.linalg.norm(col) == 0.0:
            continue
        if any(np.array_equal(col, segments[:, j]) for j in chosen):
            continue
        chosen.append(int(idx))
        if len(chosen) == k:
            break
    if len(chosen) < k:
        raise InsufficientDataError(
            f"fewer than {k} distinct nonzero columns available")
    atoms = segments[:, chosen].copy()
    atoms /= np.linalg.norm(atoms, axis=0)
    return atoms


def init_dictionary(segments, k: int, seed, segment_index: int = 1) -> SegmentDictionary:
    """Seed a dictionary with k distinct data columns normalized to unit norm."""
    segments = np.asarray(segments, dtype=float)
    rng = np.random.default_rng(seed)
    return SegmentDictionary(_init_atoms(segments, k, rng), segment_index)


def dual_objective(lam, X, Y) -> float:
    """R(lam), evaluated through a Cholesky factorization of X X^T + Lam."""
    lam = np.asarray(lam, dtype=float).ravel()
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    A = X @ X.T + np.diag(lam)
    try:
        c = cho_factor(A, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise IndefiniteSystemError("X X^T + Lam is not positive definite") from exc
    XYt = X @ Y.T
    quad = float(np.sum(cho_solve(c, XYt, check_finite=False) * XYt))
    return float(np.sum(Y * Y)) - quad - float(lam.sum())


def _newton_dual(X: np.ndarray, Y: np.ndarray, tol: float,
                 max_iter: int) -> tuple[np.ndarray, list[float]]:
    """Maximize R over lam >= 0; X must have no all-zero rows."""
    k = X.shape[0]
    XXt = X @ X.T
    XYt = X @ Y.T
    yty = float(np.sum(Y * Y))
    eye = np.eye(k)

    def factor(lam_v):
        return cho_factor(XXt + np.diag(lam_v), lower=True, check_finite=False)

    def evaluate(c_fac, lam_v):
        M = cho_solve(c_fac, XYt, check_finite=False)  # (XX^T+Lam)^{-1} X Y^T
        r = yty - float(np.sum(M * XYt)) - float(lam_v.sum())
        return r, M

    lam = np.ones(k)
    c = factor(lam)
    r_cur, M = evaluate(c, lam)
    history = [r_cur]

    def backtrack(direction):
        """Halve the step until R increases under the lam >= 0 projection."""
        t = 1.0
        while t >= 1e-12:
            cand = np.maximum(lam + t * direction, 0.0)
            if not np.array_equal(cand, lam):
                try:
                    c_cand = factor(cand)
                except LinAlgError:
                    t *= 0.5
                    continue
                r_cand, M_cand = evaluate(c_cand, cand)
                if r_cand > r_cur:
                    return cand, c_cand, r_cand, M_cand
            t *= 0.5
        return None

    for _ in range(max_iter):
        GtG = M @ M.T                      # (G^T G) with G = (M)^T
        grad = np.diag(GtG) - 1.0
        # coordinates clamped at zero with inward gradient stay fixed;
        # a Newton step over the remaining free block keeps ascent
        free = (lam > 0.0) | (grad > 0.0)
        if not free.any():
            break
        Ainv = cho_solve(c, eye, check_finite=False)
        H = -2.0 * GtG * Ainv
        direction = np.zeros(k)
        try:
            ch = cho_factor(-H[np.ix_(free, free)], lower=True,
                            check_finite=False)
            direction[free] = cho_solve(ch, grad[free], check_finite=False)
        except LinAlgError:
            direction[free] = grad[free]   # gradient ascent fallback

        lam_prev_norm = max(float(np.linalg.norm(lam)), 1.0)
        step = backtrack(direction)
        if step is None and np.any(direction[free] != grad[free]):
            fallback = np.zeros(k)
            fallback[free] = grad[free]
            step = backtrack(fallback)
        if step is None:
            break                          # projected-gradient stationary
        cand, c, r_cur, M = step
        step_norm = float(np.linalg.norm(cand - lam))
        lam = cand
        history.append(r_cur)
        if step_norm / lam_prev_norm < tol:
            break

    # feasibility guard: the stalled Newton point can leave an atom a hair
    # over unit norm; bisect that coordinate's dual upward until the norm
    # is back inside the slack (a ~1e-6 move, so R is essentially unchanged)
    def norm2_at(idx, value):
        probe = lam.copy()
        probe[idx] = value
        m = cho_solve(factor(probe), XYt, check_finite=False)
        return float(np.einsum("ij,ij->i", m, m)[idx])

    for _ in range(5 * k):
        norms2 = np.einsum("ij,ij->i", M, M)
        worst = int(np.argmax(norms2))
        if norms2[worst] <= 1.0 + 1e-9:
            break
        lo, hi = lam[worst], max(2.0 * lam[worst], lam[worst] + 1.0)
        while norm2_at(worst, hi) > 1.0:
            lo, hi = hi, 2.0 * hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if norm2_at(worst, mid) > 1.0:
                lo = mid
            else:
                hi = mid
        lam[worst] = hi
        M = cho_solve(factor(lam), XYt, check_finite=False)
    return lam, history


def lagrange_dual_update(X, Y, cfg: TrainConfig, segment_index: int = 1,
                         rng: np.random.Generator | None = None
                         ) -> tuple[SegmentDictionary, DualState]:
    """One dictionary update for fixed codes X against data Y.

    Rows of X that are identically zero (unused atoms) are excluded from the
    dual system; their atoms come back re-initialized from random data
    columns with dual variable 0.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise ShapeMismatchError(
            f"codes {X.shape} and data {Y.shape} do not align")
    k = X.shape[0]
    d = Y.shape[0]
    used = np.flatnonzero(np.any(X != 0.0, axis=1))
    if used.size == 0:
        raise InsufficientDataError("no atom is used by any code")

    lam_used, history = _newton_dual(X[used], Y, cfg.newton_tol, cfg.newton_max)
    A = X[used] @ X[used].T + np.diag(lam_used)
    try:
        c = cho_factor(A, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise IndefiniteSystemError("X X^T + Lam is not positive definite") from exc
    D_used = cho_solve(c, X[used] @ Y.T, check_finite=False).T

    atoms = np.zeros((d, k))
    atoms[:, used] = D_used
    lam_full = np.zeros(k)
    lam_full[used] = lam_used

    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    used_mask = np.zeros(k, dtype=bool)
    used_mask[used] = True
    norms = np.linalg.norm(atoms, axis=0)
    for kappa in np.flatnonzero(~used_mask & (norms < 1.0 - ATOM_NORM_SLACK)):
        for _ in range(100):
            col = Y[:, int(rng.integers(Y.shape[1]))]
            nrm = np.linalg.norm(col)
            if nrm > 0.0:
                atoms[:, kappa] = col / nrm
                break
        else:
            raise InsufficientDataError("no nonzero data column to refresh atom")

    return SegmentDictionary(atoms, segment_index), DualState(lam_full, tuple(history))


def _train_one(segments: np.ndarray, cfg: TrainConfig, segment_index: int,
               log_fn: Callable[[int, int, float], None] | None = None
               ) -> SegmentDictionary:
    """Alternate coding and dictionary updates on one segment's data."""
    rng = np.random.default_rng([cfg.seed, segment_index])
    dictionary = SegmentDictionary(_init_atoms(segments, cfg.k, rng), segment_index)
    opts = SolverOptions(lam=cfg.lam)
    prev = None
    flat_streak = 0
    for it in range(cfg.outer_iters):
        codes = batch_encode(dictionary.atoms, segments, opts)
        if not codes.any():
            lam_max = float(np.abs(dictionary.atoms.T @ segments).max())
            raise InsufficientDataError(
                f"every code is zero at lambda={cfg.lam:.6g}: lambda must "
                f"stay below lambda_max={lam_max:.6g}, the largest "
                f"|d_k^T y| over the {segments.shape[1]} training columns")
        dictionary, _ = lagrange_dual_update(codes, segments, cfg,
                                             segment_index, rng=rng)
        obj = coding_objective(dictionary.atoms, segments, codes, cfg.lam)
        if log_fn is not None:
            log_fn(segment_index, it, obj)
        if prev is not None:
            if prev - obj < _EARLY_STOP_REL * max(abs(prev), 1.0):
                flat_streak += 1
                if flat_streak >= 2:
                    break
            else:
                flat_streak = 0
        prev = obj
    return dictionary


def train_segment_dictionaries(beats: BeatMatrix, spec: SegmentSpec,
                               cfg: TrainConfig, train_subset,
                               log_fn: Callable[[int, int, float], None] | None = None
                               ) -> list[SegmentDictionary]:
    """Learn one dictionary per segment from the given training beats."""
    idx = np.asarray(train_subset, dtype=int)
    if idx.size == 0:
        raise InsufficientDataError("train_subset must be nonempty")
    if idx.min() < 0 or idx.max() >= beats.count:
        raise IndexError(f"train_subset indices outside [0,{beats.count})")
    dicts = []
    for j in range(1, spec.j_count + 1):
        segments = segment_view(beats, spec, j)[:, idx]
        try:
            dicts.append(_train_one(segments, cfg, j, log_fn))
        except (SegdictError, ValueError) as exc:
            raise type(exc)(f"segment {j}: {exc}") from exc
    return dicts


def encode_beats(beats: BeatMatrix, dicts: list[SegmentDictionary],
                 lam: float) -> SparseCodeMatrix:
    """Stack the segment dictionaries and encode every beat against them."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    stacked = stack_dictionaries(dicts)
    if stacked.atoms.shape[0] != beats.gamma:
        raise ShapeMismatchError(
            f"stacked dictionary covers {stacked.atoms.shape[0]} rows, "
            f"beats have {beats.gamma}")
    codes = batch_encode(stacked.atoms, beats.samples, SolverOptions(lam=lam))
    return SparseCodeMatrix(codes, lam)
