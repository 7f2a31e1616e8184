"""Feature-sign search for L1-regularized least squares.

Solves min_x 0.5*||y - D x||^2 + lam*||x||_1 with an active-set strategy:
activate the most violating zero coordinate with its sign guessed against
the gradient, solve the sign-constrained quadratic on the active set in
closed form, and run a discrete line search across the sign changes on the
way to that solution.  The returned vector satisfies the subgradient
optimality conditions

    x_k != 0:  |grad_k + lam * sign(x_k)| <= opt_tol
    x_k == 0:  |grad_k| <= lam + opt_tol

where grad = D^T (D x - y).

One core solves every column.  batch_encode takes the columns in fixed
blocks of _BLOCK and runs feature-sign search on a block in lockstep: each
round applies the next step of the method to every unfinished column of
the block at once.  The gram D^T D is formed once per call, the
sign-constrained systems of a round are one stack of k x k systems with
identity rows on the inactive coordinates, and all line-search candidates
of the block are scored together.  Every per-column product is its own
item of a stacked ``np.matmul`` or of a batched ``np.linalg`` call, never
one product over the block, so a column's code is bit for bit the same
whichever columns share its block; feature_sign_solve is the one-column
case.  A column that stalls (its line search cannot decrease the
objective) or reaches max_iter keeps its last iterate, and each call warns
once per kind of stop with the number of such columns and the first one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .errors import ConvergenceWarning, SingularActiveSetError

_PIVOT_RTOL = 1e-12
_RIDGE_SCALE = 1e-10
_BLOCK = 256                 # columns solved in lockstep; bounds the temporaries
_CONVERGED, _STALLED, _MAX_ITER = range(3)


@dataclass(frozen=True)
class SolverOptions:
    """Regularizer and stopping controls for feature_sign_solve."""

    lam: float = 0.1
    max_iter: int = 1000
    opt_tol: float = 1e-7

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.opt_tol <= 0:
            raise ValueError("opt_tol must be positive")


def _solve_spd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    L = np.linalg.cholesky(A)
    piv = np.diag(L) ** 2
    if piv.min() < _PIVOT_RTOL * piv.max():
        raise LinAlgError("pivot below threshold")
    return _cholesky_solve(L[None], b[None])[0]


def _solve_active(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """SPD solve with one ridge retry before declaring the set singular."""
    try:
        return _solve_spd(A, b)
    except LinAlgError:
        ridge = _RIDGE_SCALE * np.trace(A) / A.shape[0]
        try:
            return _solve_spd(A + ridge * np.eye(A.shape[0]), b)
        except LinAlgError as exc:
            raise SingularActiveSetError(
                f"rank-deficient active set of size {A.shape[0]}") from exc


def _validated(D, Y) -> tuple[np.ndarray, np.ndarray]:
    D = np.asarray(D, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if D.ndim != 2:
        raise ValueError(f"D must be 2-D, got shape {D.shape}")
    if Y.ndim != 2:
        raise ValueError(f"Y must be 2-D, got shape {Y.shape}")
    if Y.shape[0] != D.shape[0]:
        raise ValueError(f"y has {Y.shape[0]} rows, D has {D.shape[0]}")
    if not np.isfinite(D).all():
        raise ValueError("D must be finite")
    bad = np.flatnonzero(~np.isfinite(Y).all(axis=0))
    if bad.size:
        raise ValueError(f"column {bad[0]}: y must be finite")
    if np.any(np.linalg.norm(D, axis=0) == 0.0):
        raise ValueError("every dictionary column must have nonzero norm")
    return D, Y


def feature_sign_solve(D, y, opts: SolverOptions | None = None) -> np.ndarray:
    """Solve one lasso instance; columns of D are the dictionary atoms.

    This is batch_encode on a single column."""
    y = np.asarray(y, dtype=float).ravel()
    D, Y = _validated(D, y[:, None])
    return _encode(D, Y, opts or SolverOptions())[:, 0]


def batch_encode(D, Y, opts: SolverOptions | None = None) -> np.ndarray:
    """Encode every column of Y independently; column i of the result is
    feature_sign_solve(D, Y[:, i]), bit for bit."""
    D, Y = _validated(D, Y)
    return _encode(D, Y, opts or SolverOptions())


def _encode(D: np.ndarray, Y: np.ndarray, opts: SolverOptions) -> np.ndarray:
    """Solve every column in blocks of _BLOCK; warn once per bad outcome."""
    n = Y.shape[1]
    G = D.T @ D
    X = np.empty((D.shape[1], n))
    outcome = np.empty(n, dtype=int)
    for start in range(0, n, _BLOCK):
        cols = slice(start, min(start + _BLOCK, n))
        X[:, cols], outcome[cols] = _solve_block(D, G, Y[:, cols], opts,
                                                 start)
    for kind, what in (
            (_STALLED, "stalled (the line search could not decrease the "
                       "objective)"),
            (_MAX_ITER, f"hit max_iter={opts.max_iter} before optimality")):
        hit = np.flatnonzero(outcome == kind)
        if hit.size:
            warnings.warn(f"feature-sign search {what} on {hit.size} of {n} "
                          f"columns (first: column {hit[0]})",
                          ConvergenceWarning, stacklevel=3)
    return X


def _solve_block(D: np.ndarray, G: np.ndarray, Y: np.ndarray,
                 opts: SolverOptions, first: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Feature-sign search in lockstep on the columns of Y.

    Arrays hold one row per column.  Each round takes every unfinished
    column through one step of the single-column method; columns that meet
    the optimality conditions, or whose line search cannot decrease the
    objective, leave the round set.  Returns the k x m codes and each
    column's outcome.
    """
    lam, tol = opts.lam, opts.opt_tol
    Yr = np.ascontiguousarray(Y.T)
    m, k = Yr.shape[0], G.shape[0]
    Dty = np.matmul(Yr[:, None, :], D)[:, 0, :]
    yty = np.matmul(Yr[:, None, :], Yr[:, :, None])[:, 0, 0]
    X = np.zeros((m, k))
    cur = 0.5 * yty
    outcome = np.full(m, _MAX_ITER)
    todo = np.arange(m)
    for _ in range(opts.max_iter):
        x = X[todo]
        active = x != 0.0
        theta = np.sign(x)
        grad = np.matmul(x[:, None, :], G)[:, 0, :] - Dty[todo]
        # once the active set is optimal, activate the worst violator with
        # its sign set against the gradient; ties go to the lowest index
        # (argmax returns the first maximum)
        settled = np.all(~active | (np.abs(grad + lam * theta) <= tol),
                         axis=1)
        viol = np.where(active, -1.0, np.abs(grad))
        done = settled & (viol.max(axis=1) <= lam + tol)
        add = np.flatnonzero(settled & ~done)
        mu = np.argmax(viol[add], axis=1)
        active[add, mu] = True
        theta[add, mu] = -np.sign(grad[add, mu])
        outcome[todo[done]] = _CONVERGED
        step = ~done
        todo, x, active, theta = todo[step], x[step], active[step], theta[step]
        if todo.size == 0:
            break
        x_new = _solve_active_sets(G, active, Dty[todo] - lam * theta,
                                   first + todo)
        best, obj = _line_search(G, x, x_new, Dty[todo], yty[todo], lam)
        # stalled: no candidate decreases the objective at this tolerance
        stalled = obj > cur[todo] + 1e-12 * np.maximum(1.0, np.abs(cur[todo]))
        outcome[todo[stalled]] = _STALLED
        todo, best, obj = todo[~stalled], best[~stalled], obj[~stalled]
        X[todo] = best
        cur[todo] = obj
    return X.T, outcome


def _solve_active_sets(G: np.ndarray, active: np.ndarray, b: np.ndarray,
                       cols: np.ndarray) -> np.ndarray:
    """Per row r, x[r] solving G[a, a] x[a] = b[r, a] on a = active[r] and
    zero elsewhere: one stack of k x k systems padded with identity rows.

    Rows whose padded factorization fails or whose active pivots fail the
    test of _solve_spd go through _solve_active and its ridge retry; `cols`
    names the column of each row in errors.
    """
    k = G.shape[0]
    rhs = np.where(active, b, 0.0)
    L, ok = _factor(np.where(active[:, :, None] & active[:, None, :], G,
                             np.eye(k)), active)
    x = np.zeros_like(rhs)
    x[ok] = _cholesky_solve(L if ok.all() else L[ok], rhs[ok])
    for r in np.flatnonzero(~ok):
        sigma = np.flatnonzero(active[r])
        try:
            x[r, sigma] = _solve_active(G[np.ix_(sigma, sigma)], rhs[r, sigma])
        except SingularActiveSetError as exc:
            raise SingularActiveSetError(f"column {cols[r]}: {exc}") from exc
    return np.where(active, x, 0.0)


def _factor(A: np.ndarray, active: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of stacked systems, and per system whether
    the factor exists and its squared pivots on the active coordinates stay
    within _PIVOT_RTOL of each other."""
    try:
        L = np.linalg.cholesky(A)
    except LinAlgError:
        if len(A) == 1:
            return np.zeros_like(A), np.zeros(1, dtype=bool)
        parts = [_factor(A[i:i + 1], active[i:i + 1]) for i in range(len(A))]
        return (np.concatenate([L for L, _ in parts]),
                np.concatenate([ok for _, ok in parts]))
    piv = np.diagonal(L, axis1=1, axis2=2) ** 2
    lo = np.where(active, piv, np.inf).min(axis=1)
    hi = np.where(active, piv, 0.0).max(axis=1)
    return L, ~(lo < _PIVOT_RTOL * hi)


def _cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L L^T x = b for stacked factors by forward and back
    substitution, each row's sums a stacked matmul of its own.

    This reuses the factor the pivot test needs; np.linalg.solve would
    factor every system again, by LU, at twice the cost here."""
    k = b.shape[1]
    z = np.empty_like(b)
    for i in range(k):
        dot = np.matmul(L[:, i, None, :i], z[:, :i, None])[:, 0, 0]
        z[:, i] = (b[:, i] - dot) / L[:, i, i]
    x = np.empty_like(b)
    for i in range(k - 1, -1, -1):
        dot = np.matmul(L[:, None, i + 1:, i], x[:, i + 1:, None])[:, 0, 0]
        x[:, i] = (z[:, i] - dot) / L[:, i, i]
    return x


def _line_search(G: np.ndarray, x: np.ndarray, x_new: np.ndarray,
                 Dty: np.ndarray, yty: np.ndarray, lam: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Best point, and its objective, among the full step from x to x_new
    and the sign crossings in (0, 1) on the way, taken in that order with
    the first minimum winning.

    Every row gets k + 1 candidate slots, the unused ones scored +inf, so
    the arrays have the same shape whichever columns share the block.
    """
    s, k = x.shape
    delta = x_new - x
    with np.errstate(divide="ignore", invalid="ignore"):
        t = x / (x - x_new)
    crossing = ((x != 0.0) & (np.sign(x_new) != np.sign(x))
                & (0.0 < t) & (t < 1.0))
    T = np.concatenate([np.ones((s, 1)), np.where(crossing, t, 0.0)], axis=1)
    P = T[:, :, None] * delta[:, None, :]
    P += x[:, None, :]
    P[:, 0][x_new == 0.0] = 0.0        # the full step keeps exact zeros
    idx = np.arange(k)
    P[:, 1 + idx, idx] = 0.0           # a crossing lands on zero
    PG = np.matmul(P, G)
    quad = np.matmul(PG[:, :, None, :], P[:, :, :, None])[..., 0, 0]
    lin = np.matmul(P, Dty[:, :, None])[..., 0]
    l1 = np.matmul(np.abs(P, out=PG), np.ones(k))
    obj = 0.5 * quad - lin + 0.5 * yty[:, None] + lam * l1
    obj[:, 1:][~crossing] = np.inf
    rows = np.arange(s)
    pick = np.argmin(obj, axis=1)
    return P[rows, pick], obj[rows, pick]


def coding_objective(D, Y, X, lam: float) -> float:
    """Sum over columns of 0.5*||y_i - D x_i||^2 + lam*||x_i||_1."""
    D = np.asarray(D, dtype=float)
    Y = np.asarray(Y, dtype=float)
    X = np.asarray(X, dtype=float)
    R = Y - D @ X
    return 0.5 * float(np.sum(R * R)) + lam * float(np.abs(X).sum())


def kkt_violation(D, y, x, lam: float) -> float:
    """Largest subgradient-condition violation of x for the given instance.

    Zero (up to solver tolerance) certifies optimality without any oracle.
    """
    D = np.asarray(D, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    grad = D.T @ (D @ x - y)
    nz = x != 0.0
    worst = 0.0
    if nz.any():
        worst = float(np.abs(grad[nz] + lam * np.sign(x[nz])).max())
    if (~nz).any():
        worst = max(worst, float(np.maximum(np.abs(grad[~nz]) - lam, 0.0).max()))
    return worst
