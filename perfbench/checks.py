"""Output checks computed with numpy alone, never with the program's code.

Each check raises CheckError with the reason; a pass that raises one counts
as failed.
"""

from __future__ import annotations

import numpy as np

INGEST_TOL = 1e-7        # CSV keeps 10 significant digits
ATOM_NORM_MAX = 1.0 + 1e-6
RISE_TOL = 1e-9          # relative slack on "never rises"
LASSO_TOL = 1e-6         # the coder stops at opt_tol = 1e-7
TIE_MARGIN = 1e-9        # decision values this close to 0 may round either way
# largest training-set KKT violation a final SVM machine's duals may leave
# under the best bias: smo_train left at most 2.1e-3 on 52 seeds, an SMO cut
# to 2 or 5 sweeps 0.23 or more (see README)
KKT_GAP_MAX = 0.05


class CheckError(Exception):
    """A program output failed an independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def ingest(samples: np.ndarray, labels, expected: np.ndarray,
           expected_labels) -> None:
    require(list(labels) == list(expected_labels), "ingested labels differ")
    require(samples.shape == expected.shape,
            f"beat matrix {samples.shape}, expected {expected.shape}")
    err = float(np.abs(samples - expected).max())
    require(err <= INGEST_TOL, f"ingested beat off by {err:.3g}")


def never_rises(values, what: str) -> None:
    v = np.asarray(values, dtype=float)
    if v.size > 1:
        rise = np.diff(v) - RISE_TOL * np.maximum(np.abs(v[:-1]), 1.0)
        require(bool(np.all(rise <= 0.0)),
                f"{what} rose by {float(np.diff(v).max()):.3g}")


def atoms(atom_blocks) -> None:
    for j, block in enumerate(atom_blocks, start=1):
        norms = np.sqrt(np.sum(block * block, axis=0))
        require(bool(np.all(norms > 0.0)), f"segment {j}: zero atom")
        require(bool(np.all(norms <= ATOM_NORM_MAX)),
                f"segment {j}: atom norm {float(norms.max()):.9f} > 1+1e-6")


def lasso(D: np.ndarray, Y: np.ndarray, X: np.ndarray, lam: float) -> None:
    """Subgradient optimality of every column of X for min 0.5||y-Dx||^2 +
    lam||x||_1."""
    G = D.T @ (D @ X - Y)
    nz = X != 0.0
    on = np.abs(G + lam * np.sign(X))[nz]
    off = (np.abs(G) - lam)[~nz]
    worst = max(float(on.max()) if on.size else 0.0,
                float(off.max()) if off.size else 0.0)
    require(worst <= LASSO_TOL, f"lasso subgradient violation {worst:.3g}")


def identical(what: str, a, b) -> None:
    a, b = np.asarray(a), np.asarray(b)
    require(a.shape == b.shape and a.dtype == b.dtype
            and bool(np.array_equal(a, b)),
            f"{what} did not load back bit-identical")


def vq(segments, centers, onehot: np.ndarray, k: int) -> None:
    """One-hot features pick, in each segment block, a nearest center."""
    n = onehot.shape[1]
    require(onehot.shape[0] == len(segments) * k, "one-hot row count")
    for j, (Y, C) in enumerate(zip(segments, centers)):
        block = onehot[j * k:(j + 1) * k]
        require(bool(np.all((block == 0.0) | (block == 1.0)))
                and bool(np.all(block.sum(axis=0) == 1.0)),
                f"segment {j + 1}: features are not one-hot")
        chosen = np.argmax(block, axis=0)
        yy, cc = np.sum(Y * Y, axis=0), np.sum(C * C, axis=0)
        d2 = yy[:, None] + cc[None, :] - 2.0 * Y.T @ C              # n x k
        best = d2.min(axis=1)
        got = d2[np.arange(n), chosen]
        # the expansion rounds differently from a difference-based scan
        slack = 1e-9 * (yy + cc.max())
        require(bool(np.all(got <= best + slack)),
                f"segment {j + 1}: a code is not a nearest center")


def rbf(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    d2 = (np.sum(A * A, axis=0)[:, None] + np.sum(B * B, axis=0)[None, :]
          - 2.0 * A.T @ B)
    return np.exp(-gamma * np.maximum(d2, 0.0))


def machine(X: np.ndarray, y: np.ndarray, sv, alphas, bias: float,
            gamma: float, C: float, sv_indices) -> float:
    """Check the box and equality conditions of one binary SVM whose
    training samples are the columns of X with +/-1 labels y, and require
    its duals to meet the training-set KKT conditions within KKT_GAP_MAX
    under the best bias.  Return the largest violation under the machine's
    own bias, which is measured and not required: smo_train's final bias
    step can miss the best bias by far more (see CHANGES.md)."""
    idx = np.asarray(sv_indices, dtype=int)
    require(bool(np.array_equal(sv, X[:, idx])),
            "support vectors are not training columns")
    a = np.asarray(alphas) * y[idx]
    require(bool(np.all(a > 0.0)) and bool(np.all(a <= C * (1 + 1e-9))),
            "a dual lies outside (0, C]")
    total = float(np.sum(alphas))
    require(abs(total) <= 1e-6 * float(np.abs(alphas).sum()) + 1e-9,
            f"sum of alpha*y is {total:.3g}")
    alpha = np.zeros(y.size)
    alpha[idx] = a
    g = alphas @ rbf(sv, X, gamma) if idx.size else np.zeros(y.size)
    at_zero = alpha == 0.0
    at_c = alpha >= C * (1 - 1e-9)
    free = ~(at_zero | at_c)
    # sample i puts the bias b >= y_i - g_i (alpha 0 and y +1, alpha C and
    # y -1), b <= y_i - g_i (the other two), or b = y_i - g_i (free); the
    # best bias halves the largest excess of a lower over an upper bound
    target = y - g
    lower = free | (at_zero & (y > 0)) | (at_c & (y < 0))
    upper = free | (at_zero & (y < 0)) | (at_c & (y > 0))
    gap = (max(0.0, float(target[lower].max() - target[upper].min())) / 2
           if lower.any() and upper.any() else 0.0)
    require(gap <= KKT_GAP_MAX, f"the duals violate the training-set KKT "
            f"conditions by {gap:.3g} under the best bias")
    yf = y * (g + bias)
    viol = np.concatenate([np.maximum(0.0, 1.0 - yf[at_zero]),
                           np.maximum(0.0, yf[at_c] - 1.0),
                           np.abs(yf[free] - 1.0)])
    return float(viol.max()) if viol.size else 0.0


def votes(machines, classes, Z: np.ndarray, predicted) -> None:
    """Recompute the one-vs-one vote: each machine votes for its first class
    when f >= 0; ties go to the larger summed |f| over the machines a class
    won, then to the smaller label."""
    n = Z.shape[1]
    pos = {c: i for i, c in enumerate(classes)}
    count = np.zeros((len(classes), n))
    margin = np.zeros((len(classes), n))
    near_zero = np.zeros(n, dtype=bool)
    for m in machines:
        f = (m["alphas"] @ rbf(m["sv"], Z, m["gamma"]) + m["bias"]
             if m["alphas"].size else np.full(n, m["bias"]))
        near_zero |= np.abs(f) < TIE_MARGIN
        first = f >= 0
        a, b = pos[m["pair"][0]], pos[m["pair"][1]]
        count[a] += first
        count[b] += ~first
        margin[a] += np.where(first, np.abs(f), 0.0)
        margin[b] += np.where(first, 0.0, np.abs(f))
    for i in range(n):
        if near_zero[i]:
            continue
        tied = np.flatnonzero(count[:, i] == count[:, i].max())
        if tied.size > 1:
            top = margin[tied, i].max()
            tied = tied[margin[tied, i] == top]
        want = min(classes[t] for t in tied)
        require(predicted[i] == want,
                f"beat {i}: predicted {predicted[i]!r}, the vote gives {want!r}")


def one_nn_accuracy(train: np.ndarray, train_labels, test: np.ndarray,
                    test_labels) -> float:
    """1-NN in Euclidean distance between columns."""
    d2 = ((np.sum(test * test, axis=0)[:, None]
           + np.sum(train * train, axis=0)[None, :]) - 2.0 * test.T @ train)
    nearest = np.asarray(train_labels)[np.argmin(d2, axis=1)]
    return float(np.mean(nearest == np.asarray(test_labels)))
