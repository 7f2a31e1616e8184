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

Every system is solved through the inverse L^{-1} of its Cholesky factor:
with L L^T = X X^T + Lam, R = Tr(Y^T Y) - ||L^{-1} X Y^T||_F^2 - Tr(Lam), and
a failed factorization marks a step that leaves the positive definite cone.

Newton stops on its relative step size, which can leave an atom a hair over
unit norm.  A feasibility guard then raises that atom's dual variable by the
exact amount that returns it to unit norm: by Sherman-Morrison, raising
lam_w by t divides atom w by 1 + t ((X X^T + Lam)^{-1})_ww, so the step
costs one refactorization.  It corrects the worst atom first, at most 5 k
times, and stops early if a refactorization fails.

Atoms never selected by any code are left at zero by the dual and are
re-initialized from random data columns so all k atoms stay effective.

The fit warm-starts every alternation after the first from the one before
it, through the same public calls: feature-sign search starts from the
previous codes, and Newton from the previous dual variables on the atoms
still in use (from 1 on the others).  Consecutive alternations differ
little, so the codes skip FISTA's start-up steps, and Newton takes fewer
steps (about half on planted data).  The codes still end on the exact
solve on their final support and signs, so they differ from a cold start's
only where two starts stop at different points that both meet the
optimality slack; the dictionary moves in its last bits, within Newton's
stopping tolerance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError

from .beat_model import (BeatMatrix, SegmentDictionary, SegmentSpec,
                         SparseCodeMatrix, segment_view, stack_dictionaries)
from .errors import (ConvergenceWarning, InsufficientDataError, SegdictError,
                     ShapeMismatchError)
from .sparse_coder import batch_encode, coding_objective

_EARLY_STOP_REL = 1e-6
_NEWTON_TOL = 1e-6        # relative step at which Newton stops
_NEWTON_MAX = 50          # Newton steps per dual solve; hitting it warns
# the guard corrects an atom whose squared norm exceeds 1 + _GUARD_SLACK,
# at most _GUARD_ROUNDS * k times per dual solve
_GUARD_SLACK = 1e-9
_GUARD_ROUNDS = 5


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


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one dictionary-learning run."""

    k: int = 32
    lam: float = 0.15
    outer_iters: int = 30
    seed: int = 0
    subset_size: int = 1000

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam:g}")
        if self.outer_iters < 1:
            raise ValueError("outer_iters must be >= 1")
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


def _inverse_factor(A: np.ndarray) -> np.ndarray:
    """L^{-1} for the lower Cholesky factor L of A, so that
    A^{-1} = L^{-T} L^{-1}; raises LinAlgError when A is not positive
    definite."""
    return np.linalg.inv(np.linalg.cholesky(A))


def _newton_dual(X: np.ndarray, Y: np.ndarray, lam: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, list[float], bool]:
    """Maximize R over lam >= 0 from the positive start `lam`, which the
    feasibility guard may change in place; X must have no all-zero rows.

    Returns lam, M = (X X^T + Lam)^{-1} X Y^T (the transposed dictionary),
    R at every accepted step, and whether Newton stopped before _NEWTON_MAX.
    """
    k = X.shape[0]
    XXt = X @ X.T
    XYt = X @ Y.T
    yty = float(np.sum(Y * Y))

    def evaluate(lam_v):
        """R(lam_v), M and L^{-1}; LinAlgError when X X^T + Lam is not
        positive definite."""
        Linv = _inverse_factor(XXt + np.diag(lam_v))
        W = Linv @ XYt
        r = yty - float(np.sum(W * W)) - float(lam_v.sum())
        return r, Linv.T @ W, Linv

    r_cur, M, Linv = evaluate(lam)
    history = [r_cur]

    def backtrack(direction):
        """Halve the step until R increases under the lam >= 0 projection."""
        t = 1.0
        while t >= 1e-12:
            cand = np.maximum(lam + t * direction, 0.0)
            if not np.array_equal(cand, lam):
                try:
                    r_cand, M_cand, Linv_cand = evaluate(cand)
                except LinAlgError:
                    t *= 0.5
                    continue
                if r_cand > r_cur:
                    return cand, r_cand, M_cand, Linv_cand
            t *= 0.5
        return None

    converged = True
    for _ in range(_NEWTON_MAX):
        GtG = M @ M.T                      # (G^T G) with G = (M)^T
        grad = np.diag(GtG) - 1.0
        # coordinates clamped at zero with inward gradient stay fixed;
        # a Newton step over the remaining free block keeps ascent
        free = (lam > 0.0) | (grad > 0.0)
        if not free.any():
            break
        H = -2.0 * GtG * (Linv.T @ Linv)
        direction = np.zeros(k)
        try:
            Hinv = _inverse_factor(-H[np.ix_(free, free)])
            direction[free] = Hinv.T @ (Hinv @ grad[free])
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
        cand, r_cur, M, Linv = step
        step_norm = float(np.linalg.norm(cand - lam))
        lam = cand
        history.append(r_cur)
        if step_norm / lam_prev_norm < _NEWTON_TOL:
            break
    else:
        converged = False

    # feasibility guard (see the module docstring): raising lam_w by
    # t = (||M_w|| - 1) / (A^{-1})_ww puts atom w exactly on the unit sphere;
    # worst atom first, since each step can lengthen the others
    norms2 = np.einsum("ij,ij->i", M, M)
    for _ in range(_GUARD_ROUNDS * k):
        worst = int(np.argmax(norms2))
        if norms2[worst] <= 1.0 + _GUARD_SLACK:
            break
        a_ww = Linv[:, worst] @ Linv[:, worst]      # (A^{-1})_ww
        lam_w = lam[worst]
        lam[worst] += (np.sqrt(norms2[worst]) - 1.0) / a_ww
        try:
            _, M, Linv = evaluate(lam)
        except LinAlgError:         # end as if out of corrections
            lam[worst] = lam_w
            break
        norms2 = np.einsum("ij,ij->i", M, M)
    return lam, M, history, converged


def lagrange_dual_update(X, Y, *, segment_index: int = 1,
                         rng: np.random.Generator | None = None,
                         start: DualState | None = None
                         ) -> tuple[SegmentDictionary, DualState]:
    """One dictionary update for fixed codes X against data Y.

    Rows of X that are identically zero (unused atoms) are excluded from the
    dual system; their atoms come back as normalized nonzero data columns
    drawn by rng (default_rng(0) if None), with dual variable 0.  Newton
    starts from 1 on every atom, or, given a warm `start` (the previous
    update's state), from start.lam on the atoms in use whose start value
    is positive.  Warns (ConvergenceWarning) when Newton stops at
    _NEWTON_MAX, and when the feasibility guard runs out of corrections
    with an atom still over unit norm.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise ShapeMismatchError(
            f"codes {X.shape} and data {Y.shape} do not align")
    k = X.shape[0]
    d = Y.shape[0]
    if start is not None and start.lam.shape != (k,):
        raise ShapeMismatchError(
            f"start has {start.lam.size} dual variables, codes have {k} "
            f"atoms")
    used = np.flatnonzero(np.any(X != 0.0, axis=1))
    if used.size == 0:
        raise InsufficientDataError("no atom is used by any code")

    lam0 = np.ones(used.size)
    if start is not None:
        warm = start.lam[used]
        lam0[warm > 0.0] = warm[warm > 0.0]
    lam_used, M, history, converged = _newton_dual(X[used], Y, lam0)
    if not converged:
        warnings.warn(f"segment {segment_index}: Newton's method took "
                      f"{_NEWTON_MAX} steps without its relative step "
                      f"falling below {_NEWTON_TOL:g}",
                      ConvergenceWarning, stacklevel=2)
    norms2 = np.einsum("ij,ij->i", M, M)
    worst = int(np.argmax(norms2))
    if norms2[worst] > 1.0 + _GUARD_SLACK:
        warnings.warn(f"segment {segment_index}: the feasibility guard ran "
                      f"out of corrections after {len(history) - 1} Newton "
                      f"steps; atom {used[worst]} has norm "
                      f"{np.sqrt(norms2[worst]):.12g}",
                      ConvergenceWarning, stacklevel=2)

    atoms = np.zeros((d, k))
    atoms[:, used] = M.T
    lam_full = np.zeros(k)
    lam_full[used] = lam_used

    if rng is None:
        rng = np.random.default_rng(0)
    nonzero = np.flatnonzero(Y.any(axis=0))
    for kappa in np.setdiff1d(np.arange(k), used):
        if nonzero.size == 0:
            raise InsufficientDataError("no nonzero data column to refresh atom")
        col = Y[:, nonzero[rng.integers(nonzero.size)]]
        atoms[:, kappa] = col / np.linalg.norm(col)

    return SegmentDictionary(atoms, segment_index), DualState(lam_full, tuple(history))


def _train_one(segments: np.ndarray, cfg: TrainConfig, segment_index: int,
               log_fn: Callable[[int, int, float], None] | None = None
               ) -> SegmentDictionary:
    """Alternate coding and dictionary updates on one segment's data.

    The first alternation starts both solvers cold.  Every later one is
    warm: feature-sign search starts from the previous codes and Newton
    from the previous dual variables.  Both still go through the public
    `batch_encode` and `lagrange_dual_update`, once per alternation.
    """
    rng = np.random.default_rng([cfg.seed, segment_index])
    dictionary = SegmentDictionary(_init_atoms(segments, cfg.k, rng), segment_index)
    prev = None
    flat_streak = 0
    codes = dual = None
    for it in range(cfg.outer_iters):
        codes = batch_encode(dictionary.atoms, segments, cfg.lam, start=codes)
        if not codes.any():
            lam_max = float(np.abs(dictionary.atoms.T @ segments).max())
            raise InsufficientDataError(
                f"every code is zero at lambda={cfg.lam:.6g}: lambda must "
                f"stay below lambda_max={lam_max:.6g}, the largest "
                f"|d_k^T y| over the {segments.shape[1]} training columns")
        dictionary, dual = lagrange_dual_update(
            codes, segments, segment_index=segment_index, rng=rng,
            start=dual)
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
    stacked = stack_dictionaries(dicts)
    if stacked.shape[0] != beats.gamma:
        raise ShapeMismatchError(
            f"stacked dictionary covers {stacked.shape[0]} rows, "
            f"beats have {beats.gamma}")
    codes = batch_encode(stacked, beats.samples, lam)
    return SparseCodeMatrix(codes, lam)
