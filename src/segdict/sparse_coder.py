"""Feature-sign search for L1-regularized least squares.

Solves min_x 0.5*||y - D x||^2 + lam*||x||_1 with an active-set strategy:
activate the most violating zero coordinate with its sign guessed against
the gradient, solve the sign-constrained quadratic on the active set in
closed form, and run a discrete line search across the sign changes on the
way to that solution.  The returned vector satisfies the subgradient
optimality conditions

    x_k != 0:  |grad_k + lam * sign(x_k)| <= _OPT_TOL
    x_k == 0:  |grad_k| <= lam + _OPT_TOL

where grad = D^T (D x - y) and _OPT_TOL = 1e-7; lam is the only control.

One core solves every column.  The gram G = D^T D is formed once per
call, and it chooses one kind of start point for every column.  When G is
positive definite (its smallest eigenvalue above _PIVOT_RTOL times its
largest), the optimum is unique, and feature-sign search starts from the
caller's start point if one is given (the dictionary fit passes the
previous alternation's codes), else from the iterate of _GUESS_STEPS FISTA
steps from 0 (of size 1 / the largest eigenvalue); a column whose start
has the optimum's support and signs is settled by its first round's
solve.  Otherwise, so that ties keep their lowest-index rule, it starts
from zero and ignores any given start.  Either way the search ends on the
exact solve on its final support and signs: a column leaves as converged
only from zero or a full step, and one that meets the conditions anywhere
else (a nonzero start or a sign crossing) is solved once more on its own
support and signs.  From a given start near the optimum, rounding can
leave no line-search candidate that lowers the objective; a column that
stalls there is solved once more from FISTA's iterate, and only a second
stall counts.

Feature-sign search runs on a block in lockstep: each round applies the
next step of the method to every unfinished column of the block at once.
The sign-constrained systems of a round are one stack of k x k systems
with identity rows on the inactive coordinates.  All line-search
candidates of the block are scored together, each by the objective's exact
change from the column's point: a quadratic in the step length from the
round's gradient, plus the candidate's own l1 term.  Every per-column
product, in FISTA and in the search, is its own item of a stacked
``np.matmul`` or of a batched ``np.linalg`` call, never one product over
the block, so a column's code is bit for bit the same whichever columns
share its block.  An active set whose factorization fails, or whose pivots
spread more than _PIVOT_RTOL apart, is factored once more with a small
ridge on its active diagonal, in the same stack.  A column that stalls
(every candidate raises the objective) or takes _MAX_STEPS steps keeps its
last iterate, and each call warns once per kind of stop with the number of
such columns and the first one.
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.linalg import LinAlgError

from .errors import ConvergenceWarning, SingularActiveSetError

_OPT_TOL = 1e-7
_MAX_STEPS = 1000            # feature-sign steps per column
_PIVOT_RTOL = 1e-12
_RIDGE_SCALE = 1e-10
_BLOCK = 256                 # columns solved in lockstep; bounds the temporaries
_GUESS_STEPS = 30            # FISTA steps to the start point
_CONVERGED, _STALLED, _MAX_ITER = range(3)


def _validated(D, Y, lam) -> tuple[np.ndarray, np.ndarray]:
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam:g}")
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


def batch_encode(D, Y, lam: float, *, start=None) -> np.ndarray:
    """Encode every column of Y independently against the atoms (columns)
    of D; column i of the result is batch_encode(D, Y[:, i:i+1], lam),
    bit for bit.

    `start`, a k x n array, is a warm start: it replaces FISTA's iterate as
    the search's start point when the gram is positive definite, and column
    i of the result is then batch_encode(D, Y[:, i:i+1], lam,
    start=start[:, i:i+1]), bit for bit.
    """
    D, Y = _validated(D, Y, lam)
    if start is not None:
        start = np.asarray(start, dtype=float)
        shape = (D.shape[1], Y.shape[1])
        if start.shape != shape:
            raise ValueError(f"start has shape {start.shape}, expected "
                             f"{shape}")
        bad = np.flatnonzero(~np.isfinite(start).all(axis=0))
        if bad.size:
            raise ValueError(f"column {bad[0]}: start must be finite")
    return _encode(D, Y, lam, start)


def _encode(D: np.ndarray, Y: np.ndarray, lam: float,
            start: np.ndarray | None) -> np.ndarray:
    """Solve the columns in blocks of _BLOCK, each from `start` or else
    FISTA's iterate when the gram is positive definite and from zero
    otherwise; a column that stalls from `start` is solved once more from
    FISTA's iterate.  Warn once per bad outcome."""
    n = Y.shape[1]
    G = D.T @ D
    X = np.empty((D.shape[1], n))
    outcome = np.empty(n, dtype=int)
    ev = np.linalg.eigvalsh(G)
    positive_definite = ev[0] > _PIVOT_RTOL * ev[-1]
    for first in range(0, n, _BLOCK):
        cols = np.arange(first, min(first + _BLOCK, n))
        Yr = Y.T[cols]                 # one C-contiguous row per column
        Dty = np.matmul(Yr[:, None, :], D)[:, 0, :]
        if not positive_definite:
            x0 = np.zeros_like(Dty)
        elif start is None:
            x0 = _fista(G, Dty, lam, 1.0 / ev[-1])
        else:
            x0 = np.ascontiguousarray(start.T[cols])
        X[:, cols], outcome[cols] = _solve_block(G, Dty, lam, cols, x0)
        redo = np.flatnonzero(outcome[cols] == _STALLED)
        if start is not None and positive_definite and redo.size:
            X[:, cols[redo]], outcome[cols[redo]] = _solve_block(
                G, Dty[redo], lam, cols[redo],
                _fista(G, Dty[redo], lam, 1.0 / ev[-1]))
    for kind, what in (
            (_STALLED, "stalled (the line search could not decrease the "
                       "objective)"),
            (_MAX_ITER, f"hit max_iter={_MAX_STEPS} before optimality")):
        hit = np.flatnonzero(outcome == kind)
        if hit.size:
            warnings.warn(f"feature-sign search {what} on {hit.size} of {n} "
                          f"columns (first: column {hit[0]})",
                          ConvergenceWarning, stacklevel=3)
    return X


def _fista(G: np.ndarray, Dty: np.ndarray, lam: float, step: float
           ) -> np.ndarray:
    """Per row, the iterate of _GUESS_STEPS FISTA steps of size `step`
    from 0."""
    x = z = np.zeros_like(Dty)
    t = 1.0
    for _ in range(_GUESS_STEPS):
        u = z - step * (np.matmul(z[:, None, :], G)[:, 0, :] - Dty)
        x_next = np.sign(u) * np.maximum(np.abs(u) - step * lam, 0.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_next + ((t - 1.0) / t_next) * (x_next - x)
        x, t = x_next, t_next
    return x


def _solve_block(G: np.ndarray, Dty: np.ndarray, lam: float,
                 cols: np.ndarray, X: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Feature-sign search in lockstep from the rows of X, which it
    overwrites, one row per column: D^T y in Dty and the column's index in
    the caller's input in `cols`.

    Each round takes every unfinished column through one step of the
    single-column method.  A column that meets the optimality conditions
    leaves as converged if it stands at zero or at a full step; anywhere
    else (a nonzero start or a sign crossing) it is solved once more on its
    own support and signs, so its code is that exact solve.  A column whose
    best line-search candidate raises the objective (a positive change)
    leaves as stalled, unless it met the conditions and takes the full
    step.  Returns the k x m codes and each column's outcome.
    """
    m = len(X)
    exact = ~X.any(axis=1)             # at zero or at a full step
    outcome = np.full(m, _MAX_ITER)
    todo = np.arange(m)
    for _ in range(_MAX_STEPS):
        x = X[todo]
        active = x != 0.0
        theta = np.sign(x)
        grad = np.matmul(x[:, None, :], G)[:, 0, :] - Dty[todo]
        settled = np.all(~active | (np.abs(grad + lam * theta) <= _OPT_TOL),
                         axis=1)
        viol = np.where(active, -1.0, np.abs(grad))
        opt = settled & (viol.max(axis=1) <= lam + _OPT_TOL)
        done = opt & exact[todo]
        # once the active set is optimal, activate the worst violator with
        # its sign set against the gradient; ties go to the lowest index
        # (argmax returns the first maximum)
        add = np.flatnonzero(settled & ~opt)
        mu = np.argmax(viol[add], axis=1)
        active[add, mu] = True
        theta[add, mu] = -np.sign(grad[add, mu])
        outcome[todo[done]] = _CONVERGED
        step = ~done
        todo, x, active, theta, opt = (todo[step], x[step], active[step],
                                       theta[step], opt[step])
        if todo.size == 0:
            break
        x_new = _solve_active_sets(G, active, Dty[todo] - lam * theta,
                                   cols[todo])
        best, change, full = _line_search(G, x, x_new, grad[step], lam)
        # stalled: every candidate raises the objective.  A column that met
        # the conditions and takes the full step lands on its exact solve,
        # whatever rounding does to the change.
        stalled = (change > 0.0) & ~(opt & full)
        outcome[todo[stalled]] = _STALLED
        keep = ~stalled
        todo = todo[keep]
        X[todo], exact[todo] = best[keep], full[keep]
    return X.T, outcome


def _solve_active_sets(G: np.ndarray, active: np.ndarray, b: np.ndarray,
                       cols: np.ndarray) -> np.ndarray:
    """Per row r, x[r] solving G[a, a] x[a] = b[r, a] on a = active[r] and
    zero elsewhere: one stack of k x k systems padded with identity rows.

    Rows whose factor fails _factor's test are factored once more with
    _RIDGE_SCALE * trace(G[a, a]) / |a| added on the active diagonal; a row
    that fails again raises, naming its column from `cols`.
    """
    eye = np.eye(G.shape[0])
    pair = active[:, :, None] & active[:, None, :]
    L, ok = _factor(np.where(pair, G, eye), active)
    if not ok.all():
        retry, act = np.flatnonzero(~ok), active[~ok]
        trace = np.where(act, np.diagonal(G), 0.0).sum(axis=1)
        ridge = _RIDGE_SCALE * trace / act.sum(axis=1)
        L[retry], ok = _factor(np.where(pair[retry],
                                        G + ridge[:, None, None] * eye, eye),
                               act)
        if not ok.all():
            r = retry[np.argmin(ok)]
            raise SingularActiveSetError(
                f"column {cols[r]}: rank-deficient active set of size "
                f"{np.count_nonzero(active[r])}")
    return np.where(active, _cholesky_solve(L, np.where(active, b, 0.0)), 0.0)


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
                 grad: np.ndarray, lam: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best point, its change in the objective from x, and whether it is
    the full step, among the full step from x to x_new and the sign
    crossings in (0, 1) on the way, taken in that order with the first
    minimum winning.

    Along x + t*delta, delta = x_new - x, the smooth part changes by
    t*grad^T delta + t^2/2 * delta^T G delta, grad its gradient at x.  Each
    row gets k + 1 candidate slots, the unused ones scored +inf, so the
    arrays have the same shape whichever columns share the block.
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
    P[:, 0] = x_new                    # the exact solve, not x + delta
    idx = np.arange(k)
    P[:, 1 + idx, idx] = 0.0           # a crossing lands on zero
    slope = np.matmul(grad[:, None, :], delta[:, :, None])[:, 0, 0]
    curve = np.matmul(np.matmul(delta[:, None, :], G),
                      delta[:, :, None])[:, 0, 0]
    l1 = np.matmul(np.abs(P), np.ones(k))
    # one stacked item per row, so no column's bits depend on its block
    l1 -= np.matmul(np.abs(x)[:, None, :], np.ones(k))
    change = T * (slope[:, None] + 0.5 * T * curve[:, None]) + lam * l1
    change[:, 1:][~crossing] = np.inf
    rows = np.arange(s)
    pick = np.argmin(change, axis=1)
    return P[rows, pick], change[rows, pick], pick == 0


def coding_objective(D, Y, X, lam: float) -> float:
    """Sum over columns of 0.5*||y_i - D x_i||^2 + lam*||x_i||_1."""
    D = np.asarray(D, dtype=float)
    Y = np.asarray(Y, dtype=float)
    X = np.asarray(X, dtype=float)
    R = Y - D @ X
    return 0.5 * float(np.sum(R * R)) + lam * float(np.abs(X).sum())

