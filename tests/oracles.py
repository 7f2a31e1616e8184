"""Independent reference implementations and certificates used only to
check the solvers.

The solvers are deliberately brute-force: sign-pattern enumeration for the
lasso, projected gradient for constrained least squares and the SVM dual,
exhaustive partitions for k-means, direct summation for the DFT, and subset
enumeration for the rank-sum distribution.  The certificates measure how
far a solution is from optimal without any solver: the lasso subgradient
conditions and the SVM dual KKT conditions, the latter on a decision
function summed here.  None of it shares code with the library paths under
test.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np


def lasso_brute_force(D, y, lam):
    """Global minimum of 0.5*||y - Dx||^2 + lam*||x||_1 over sign patterns.

    For every support of size <= min(d, k) and every sign assignment,
    solve the equality-constrained quadratic and keep sign-consistent
    solutions; return (best objective, best x).
    """
    D = np.asarray(D, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    d, k = D.shape
    DtD = D.T @ D
    Dty = D.T @ y
    yty = float(y @ y)

    def objective(x):
        return (0.5 * float(x @ (DtD @ x)) - float(Dty @ x)
                + 0.5 * yty + lam * float(np.abs(x).sum()))

    best_obj = 0.5 * yty
    best_x = np.zeros(k)
    for size in range(1, min(d, k) + 1):
        for support in combinations(range(k), size):
            S = list(support)
            A = DtD[np.ix_(S, S)]
            signs = np.array(list(product((-1.0, 1.0), repeat=size))).T
            rhs = Dty[S][:, None] - lam * signs
            try:
                sols = np.linalg.solve(A, rhs)
            except np.linalg.LinAlgError:
                continue
            consistent = np.all(np.sign(sols) == signs, axis=0)
            for col in np.flatnonzero(consistent):
                x = np.zeros(k)
                x[S] = sols[:, col]
                obj = objective(x)
                if obj < best_obj:
                    best_obj, best_x = obj, x
    return best_obj, best_x



def lasso_kkt_violation(D, y, x, lam):
    """Largest subgradient-condition violation of x for one lasso instance.

    Zero (up to solver tolerance) certifies optimality without an oracle:
    |grad_k + lam*sign(x_k)| on the support, max(|grad_k| - lam, 0) off it,
    with grad = D^T (D x - y).
    """
    D = np.asarray(D, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    grad = D.T @ (D @ x - y)
    nz = x != 0.0
    on = np.abs(grad[nz] + lam * np.sign(x[nz]))
    off = np.maximum(np.abs(grad[~nz]) - lam, 0.0)
    return float(np.concatenate([on, off, [0.0]]).max())

def constrained_lsq_pg(Y, X, iters=30000, tol=1e-12):
    """min_D ||Y - D X||_F^2 s.t. ||d_k||_2 <= 1, by projected gradient."""
    Y = np.asarray(Y, dtype=float)
    X = np.asarray(X, dtype=float)
    d, k = Y.shape[0], X.shape[0]
    XXt = X @ X.T
    YXt = Y @ X.T
    step = 1.0 / (2.0 * max(np.linalg.norm(XXt, 2), 1e-12))
    D = np.zeros((d, k))
    prev = np.inf
    for it in range(iters):
        G = 2.0 * (D @ XXt - YXt)
        D = D - step * G
        norms = np.linalg.norm(D, axis=0)
        over = norms > 1.0
        if over.any():
            D[:, over] /= norms[over]
        if it % 200 == 0:
            obj = float(np.sum((Y - D @ X) ** 2))
            if prev - obj < tol * max(1.0, abs(prev)):
                break
            prev = obj
    return D, float(np.sum((Y - D @ X) ** 2))


def lagrangian_min_gd(Y, X, lam, iters=50000, tol=1e-14):
    """min_D ||Y - DX||_F^2 + sum_k lam_k (||d_k||^2 - 1) by gradient descent."""
    Y = np.asarray(Y, dtype=float)
    X = np.asarray(X, dtype=float)
    lam = np.asarray(lam, dtype=float).ravel()
    XXt = X @ X.T
    YXt = Y @ X.T
    lip = 2.0 * (np.linalg.norm(XXt, 2) + lam.max())
    step = 1.0 / max(lip, 1e-12)
    D = np.zeros((Y.shape[0], X.shape[0]))
    prev = np.inf
    for it in range(iters):
        G = 2.0 * (D @ XXt - YXt) + 2.0 * D * lam[None, :]
        D = D - step * G
        if it % 200 == 0:
            val = (float(np.sum((Y - D @ X) ** 2))
                   + float(np.sum(lam * (np.sum(D * D, axis=0) - 1.0))))
            if prev - val < tol * max(1.0, abs(prev)):
                break
            prev = val
    return (float(np.sum((Y - D @ X) ** 2))
            + float(np.sum(lam * (np.sum(D * D, axis=0) - 1.0))))


def dual_stationarity(Y, X, D, lam):
    """Norm of the gradient in D of ||Y - DX||_F^2 + sum_k lam_k ||d_k||^2
    at (D, lam), relative to ||Y X^T||."""
    Y, X, D = (np.asarray(a, dtype=float) for a in (Y, X, D))
    grad = 2.0 * (D @ (X @ X.T) - Y @ X.T + D * np.asarray(lam)[None, :])
    return float(np.linalg.norm(grad)) / max(float(np.linalg.norm(Y @ X.T)),
                                             1e-12)


def kmeans_exhaustive(points, k):
    """Optimal k-means distortion by enumerating canonical assignments."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    best = np.inf
    assign = np.zeros(n, dtype=int)

    def recurse(i, used):
        nonlocal best
        if i == n:
            if used == k:
                total = 0.0
                for c in range(k):
                    members = pts[assign[:n] == c]
                    total += float(np.sum((members - members.mean(axis=0)) ** 2))
                best = min(best, total)
            return
        if n - i < k - used:
            return
        for c in range(min(used + 1, k)):
            assign[i] = c
            recurse(i + 1, max(used, c + 1))

    recurse(0, 0)
    return best


def nearest_center_scan(centers, points):
    """1-based index of the closest center per point, ties to the lowest."""
    out = np.empty(points.shape[0], dtype=int)
    for i, p in enumerate(points):
        dists = [float(np.sum((p - c) ** 2)) for c in centers]
        out[i] = int(np.argmin(dists)) + 1
    return out


def naive_dft_magnitudes(signal, n_coeffs):
    """O(N^2) direct DFT magnitude computation."""
    x = np.asarray(signal, dtype=float).ravel()
    n = x.size
    out = np.empty(n_coeffs)
    for f in range(n_coeffs):
        re = sum(x[t] * np.cos(-2.0 * np.pi * f * t / n) for t in range(n))
        im = sum(x[t] * np.sin(-2.0 * np.pi * f * t / n) for t in range(n))
        out[f] = np.hypot(re, im)
    return out


def svm_dual_pg(K, y, C, iters=200000, tol=1e-14):
    """min_a 0.5 a^T Q a - 1^T a on the box-and-hyperplane feasible set.

    Projection onto {0 <= a <= C, y^T a = 0} is done by bisection on the
    hyperplane multiplier.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    Q = K * np.outer(y, y)
    m = y.size
    step = 1.0 / max(np.linalg.norm(Q, 2), 1e-12)

    def project(v):
        lo, hi = -1e12, 1e12
        for _ in range(200):
            nu = 0.5 * (lo + hi)
            a = np.clip(v - nu * y, 0.0, C)
            g = float(y @ a)
            if g > 0:
                lo = nu
            else:
                hi = nu
        return np.clip(v - 0.5 * (lo + hi) * y, 0.0, C)

    a = project(np.zeros(m))
    prev = np.inf
    for it in range(iters):
        grad = Q @ a - 1.0
        a = project(a - step * grad)
        if it % 500 == 0:
            obj = 0.5 * float(a @ (Q @ a)) - float(a.sum())
            if prev - obj < tol * max(1.0, abs(prev)):
                break
            prev = obj
    return a, 0.5 * float(a @ (Q @ a)) - float(a.sum())


def svm_wss2(K, y, C, tol, cap):
    """One binary dual solved by LIBSVM's SMO with second-order working-set
    selection (Fan, Chen & Lin, JMLR 6, 2005), one scalar at a time.

    Keeps the gradient G = Q a - 1 with Q_ts = y_t y_s K_ts.  Each update
    takes i in I_up maximizing -y_i G_i, stops when that maximum minus the
    minimum of -y_t G_t over I_low is at most tol (converged) or after cap
    updates (not converged), else takes j in I_low with -y_j G_j < -y_i G_i
    minimizing -b_ij^2 / a_ij, with b_ij = -y_i G_i + y_j G_j and
    a_ij = K_ii + K_jj - 2 K_ij (1e-12 if not positive), and moves a_i and
    a_j as LIBSVM's Solver::solve does.  Ties go to the lowest index.
    The bias sets y_t f(x_t) = 1 on free samples, so b = y_t - y_t (G_t + 1)
    averaged in sample order, else the midpoint of the interval the bound
    samples leave; duals within 1e-12 C of a bound count as on it.
    Returns (alpha, bias, converged).
    """
    K = np.asarray(K, dtype=float)
    y = [float(t) for t in y]
    m = len(y)
    a, G = [0.0] * m, [-1.0] * m

    def in_up(t):
        return a[t] < C if y[t] > 0 else a[t] > 0

    def in_low(t):
        return a[t] < C if y[t] < 0 else a[t] > 0

    updates = 0
    while True:
        i, top, bottom = -1, -np.inf, np.inf
        for t in range(m):
            if in_up(t) and -y[t] * G[t] > top:
                i, top = t, -y[t] * G[t]
            if in_low(t):
                bottom = min(bottom, -y[t] * G[t])
        converged = top - bottom <= tol
        if converged or updates >= cap:
            break
        j, best = -1, np.inf
        for t in range(m):
            if in_low(t) and -y[t] * G[t] < top:
                b = top - (-y[t] * G[t])
                quad = K[i, i] + K[t, t] - 2.0 * K[i, t]
                if quad <= 0:
                    quad = 1e-12
                if -(b * b) / quad < best:
                    j, best = t, -(b * b) / quad
        quad = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if quad <= 0:
            quad = 1e-12
        old_i, old_j = a[i], a[j]
        if y[i] != y[j]:
            delta = (-G[i] - G[j]) / quad
            diff = a[i] - a[j]
            a[i] += delta
            a[j] += delta
            if diff > 0:
                if a[j] < 0:
                    a[j], a[i] = 0.0, diff
            elif a[i] < 0:
                a[i], a[j] = 0.0, -diff
            if diff > 0:
                if a[i] > C:
                    a[i], a[j] = C, C - diff
            elif a[j] > C:
                a[j], a[i] = C, C + diff
        else:
            delta = (G[i] - G[j]) / quad
            total = a[i] + a[j]
            a[i] -= delta
            a[j] += delta
            if total > C:
                if a[i] > C:
                    a[i], a[j] = C, total - C
            elif a[j] < 0:
                a[j], a[i] = 0.0, total
            if total > C:
                if a[j] > C:
                    a[j], a[i] = C, total - C
            elif a[i] < 0:
                a[i], a[j] = 0.0, total
        di, dj = a[i] - old_i, a[j] - old_j
        for t in range(m):
            G[t] += (y[i] * y[t] * K[i, t]) * di + (y[j] * y[t] * K[j, t]) * dj
        updates += 1

    free_sum, free, lo, hi = 0.0, 0, -np.inf, np.inf
    for t in range(m):
        if a[t] <= 1e-12 * C:
            a[t] = 0.0
        elif a[t] >= C - 1e-12 * C:
            a[t] = C
        r = y[t] - y[t] * (G[t] + 1.0)
        if 0 < a[t] < C:
            free_sum += r
            free += 1
        elif (a[t] == 0) == (y[t] > 0):     # y f(x) >= 1 bounds b below
            lo = max(lo, r)
        else:
            hi = min(hi, r)
    if free:
        bias = free_sum / free
    else:
        lo, hi = (hi if lo == -np.inf else lo), (lo if hi == np.inf else hi)
        bias = 0.5 * (lo + hi)
    return np.array(a), bias, converged


def svm_kkt_violations(machine, X, y):
    """Per-sample dual KKT violation of a binary machine on its training set.

    With f(z) = sum_i a_i y_i exp(-gamma ||sv_i - z||^2) + b summed here
    from the machine's support vectors, signed duals and bias: a sample at
    a = 0 needs y f >= 1, one at a = C needs y f <= 1, and a free one needs
    y f = 1.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    sv = machine.support_vectors
    d2 = np.sum((sv[:, :, None] - X[:, None, :]) ** 2, axis=0)
    yf = y * (machine.alphas @ np.exp(-machine.gamma * d2) + machine.bias)
    alpha = np.zeros(y.size)
    alpha[machine.sv_indices] = machine.alphas * y[machine.sv_indices]
    at_c = alpha >= machine.c_penalty * (1 - 1e-9)
    at_zero = alpha <= 1e-12
    return np.where(at_zero, np.maximum(0.0, 1.0 - yf),
                    np.where(at_c, np.maximum(0.0, yf - 1.0),
                             np.abs(yf - 1.0)))

def ranksum_enumeration(xs, ys):
    """Exact two-sided rank-sum p by enumerating every rank subset."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n1, n2 = xs.size, ys.size
    total = n1 + n2
    pooled = np.concatenate([xs, ys])
    order = np.argsort(pooled)
    ranks = np.empty(total)
    ranks[order] = np.arange(1, total + 1)
    w_obs = float(ranks[:n1].sum())
    u_obs = w_obs - n1 * (n1 + 1) / 2.0

    le = ge = count = 0
    for subset in combinations(range(1, total + 1), n1):
        count += 1
        u = sum(subset) - n1 * (n1 + 1) / 2.0
        if u <= u_obs:
            le += 1
        if u >= u_obs:
            ge += 1
    return u_obs, min(1.0, 2.0 * min(le, ge) / count)


def one_nn_accuracy(train_X, train_labels, test_X, test_labels):
    """1-nearest-neighbor accuracy with samples as columns."""
    train_labels = np.asarray(train_labels)
    test_labels = np.asarray(test_labels)
    d2 = (np.sum(test_X ** 2, axis=0)[:, None]
          + np.sum(train_X ** 2, axis=0)[None, :]
          - 2.0 * test_X.T @ train_X)
    pred = train_labels[np.argmin(d2, axis=1)]
    return float(np.mean(pred == test_labels))
