"""Baseline feature extractors: k-means VQ codebooks and DFT magnitudes."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .beat_model import BeatMatrix, SegmentSpec, segment_view
from .errors import (ConvergenceWarning, InsufficientDataError,
                     ShapeMismatchError)

_DIFF_BLOCK = 1 << 16     # values in one block of point-center differences
_LLOYD_MAX = 100          # Lloyd passes per fit; a fit that hits it warns


@dataclass(frozen=True)
class VqCodebook:
    """Cluster centers for one segment; ``distortions`` logs each Lloyd pass."""

    centers: np.ndarray
    segment_index: int = 1
    distortions: tuple[float, ...] = ()

    def __post_init__(self):
        arr = np.asarray(self.centers, dtype=float)
        object.__setattr__(self, "centers", arr)
        if arr.ndim != 2:
            raise ShapeMismatchError("centers must be d x k")
        if not np.isfinite(arr).all():
            raise ValueError("centers must be finite")
        _, first, group = np.unique(arr, axis=1, return_index=True,
                                    return_inverse=True)
        head = first[group]         # the first center equal to each center
        later = np.flatnonzero(head != np.arange(arr.shape[1]))
        if later.size:
            # name the pair a pairwise scan meets first: the smallest a
            # with an equal center after it, then the first such b
            a = head[later].min()
            b = later[head[later] == a][0]
            raise ValueError(f"duplicate centers {a} and {b}")

    @property
    def k(self) -> int:
        return self.centers.shape[1]


@dataclass(frozen=True)
class VqCodeMatrix:
    """J x phi matrix of 1-based code words."""

    codes: np.ndarray
    k: int

    def __post_init__(self):
        arr = np.asarray(self.codes, dtype=int)
        object.__setattr__(self, "codes", arr)
        if arr.ndim != 2:
            raise ShapeMismatchError("codes must be J x phi")
        if arr.size and (arr.min() < 1 or arr.max() > self.k):
            raise ValueError(f"code words must lie in [1,{self.k}]")


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # points n x d, centers k x d -> n x k squared distances, computed
    # directly (no expansion trick) so distortion bookkeeping stays exact,
    # about _DIFF_BLOCK differences at a time (81 rows at k=16, d=50).
    # Each block's differences are laid out C-ordered, so every distance is
    # summed in one order whatever the layout of points and its block
    n = points.shape[0]
    k, d = centers.shape
    rows = max(1, _DIFF_BLOCK // max(1, k * d))
    out = np.empty((n, k))
    for lo in range(0, n, rows):
        diff = np.subtract(points[lo:lo + rows, None, :], centers, order="C")
        np.einsum("nkd,nkd->nk", diff, diff, out=out[lo:lo + rows])
    return out


def _seed_random(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    idx = rng.choice(points.shape[0], size=k, replace=False)
    return points[idx].copy()


def _seed_kmeanspp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = _sq_dists(points, centers[:1])[:, 0]
    for i in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:  # every point coincides with a center
            idx = int(rng.integers(n))
        centers[i] = points[idx]
        d2 = np.minimum(d2, _sq_dists(points, centers[i:i + 1])[:, 0])
    return centers


def kmeans_train(segments, k: int, seeding: str = "kmeanspp", seed: int = 0,
                 segment_index: int = 1) -> VqCodebook:
    """Lloyd iterations until assignments stabilize, for at most _LLOYD_MAX
    passes; warns (ConvergenceWarning) when the cap is hit.

    Empty clusters are re-seeded from the point farthest from its current
    center, which keeps the distortion non-increasing.  Fewer than k
    distinct points leave equal centers and raise InsufficientDataError.
    """
    Y = np.asarray(segments, dtype=float)
    if Y.ndim != 2:
        raise ShapeMismatchError("segments must be d x n")
    d, n = Y.shape
    if n < k:
        raise InsufficientDataError(f"need at least {k} points, got {n}")
    rng = np.random.default_rng(seed)
    points = Y.T
    if seeding == "kmeanspp":
        centers = _seed_kmeanspp(points, k, rng)
    elif seeding == "random":
        centers = _seed_random(points, k, rng)
    else:
        raise ValueError(f"unknown seeding {seeding!r}")

    distortions = []
    prev_assign = None
    for _ in range(_LLOYD_MAX):
        d2 = _sq_dists(points, centers)
        assign = np.argmin(d2, axis=1)  # ties go to the lowest center index
        own = d2[np.arange(n), assign]
        distortions.append(float(own.sum()))
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        for c in range(k):
            members = assign == c
            if members.any():
                centers[c] = points[members].mean(axis=0)
            else:
                far = int(np.argmax(own))
                centers[c] = points[far]
                own[far] = 0.0  # keep a second empty cluster from grabbing it
    else:
        warnings.warn(f"segment {segment_index}: k-means took {_LLOYD_MAX} "
                      f"Lloyd passes without its assignments settling",
                      ConvergenceWarning, stacklevel=2)

    try:
        return VqCodebook(centers.T, segment_index, tuple(distortions))
    except ValueError as exc:
        distinct = np.unique(points, axis=0).shape[0]
        if distinct < k:
            raise InsufficientDataError(
                f"segment {segment_index}: fewer than {k} distinct points "
                f"for k={k}, got {distinct}") from exc
        raise


def assign_codes(codebook: VqCodebook, segments) -> np.ndarray:
    """1-based index of the nearest center per column, ties to the lowest."""
    Y = np.asarray(segments, dtype=float)
    if Y.shape[0] != codebook.centers.shape[0]:
        raise ShapeMismatchError(
            f"segment length {Y.shape[0]} != center length "
            f"{codebook.centers.shape[0]}")
    d2 = _sq_dists(Y.T, codebook.centers.T)
    return np.argmin(d2, axis=1) + 1


def vq_encode(beats: BeatMatrix, spec: SegmentSpec,
              codebooks: list[VqCodebook]) -> VqCodeMatrix:
    """Per-segment nearest-center code words for every beat."""
    if len(codebooks) != spec.j_count:
        raise ShapeMismatchError(
            f"{len(codebooks)} codebooks for {spec.j_count} segments")
    indices = sorted(cb.segment_index for cb in codebooks)
    if indices != list(range(1, spec.j_count + 1)):
        raise ShapeMismatchError(
            f"codebook segment indices must be 1..{spec.j_count}, got {indices}")
    ks = {cb.k for cb in codebooks}
    if len(ks) != 1:
        raise ShapeMismatchError(f"codebooks have mixed k: {sorted(ks)}")
    ordered = sorted(codebooks, key=lambda cb: cb.segment_index)
    codes = np.empty((spec.j_count, beats.count), dtype=int)
    for j, cb in enumerate(ordered, start=1):
        codes[j - 1] = assign_codes(cb, segment_view(beats, spec, j))
    return VqCodeMatrix(codes, ordered[0].k)


def one_hot_codes(vq: VqCodeMatrix) -> np.ndarray:
    """(J*k) x phi binary indicator features, one block of k rows per segment."""
    J, n = vq.codes.shape
    out = np.zeros((J * vq.k, n))
    cols = np.arange(n)
    for j in range(J):
        out[j * vq.k + vq.codes[j] - 1, cols] = 1.0
    return out


def fft_features(beats: BeatMatrix, n_coeffs: int = 100) -> np.ndarray:
    """Magnitudes of the first n_coeffs DFT coefficients per channel.

    Channels are transformed independently and the magnitude blocks
    concatenated, giving n_coeffs * channels features per beat.
    """
    per_chan = beats.gamma // beats.channels
    if not 1 <= n_coeffs <= per_chan:
        raise ValueError(
            f"n_coeffs must be in [1,{per_chan}] for this beat matrix")
    blocks = []
    for c in range(beats.channels):
        chan = beats.samples[c * per_chan:(c + 1) * per_chan, :]
        blocks.append(np.abs(np.fft.fft(chan, axis=0)[:n_coeffs]))
    return np.vstack(blocks)
