"""Core data containers: beats, segments, dictionaries, and sparse codes.

Beats are stored as the columns of a matrix; a segment spec slices each
beat into J windows; per-segment dictionaries hold unit-norm atoms and can
be stacked column-wise into a whole-beat dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DictionaryStackError, SegmentIndexError, ShapeMismatchError

ATOM_NORM_SLACK = 1e-6


def _as_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"{name} must be a 2-D array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class BeatMatrix:
    """Fixed-length beats as columns plus one class label per beat.

    ``channels`` records how many concatenated channels make up each column
    (rows = per-channel length * channels).
    """

    samples: np.ndarray
    labels: tuple[str, ...]
    channels: int = 1

    def __post_init__(self):
        arr = _as_matrix(self.samples, "samples")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeMismatchError("beat matrix must be non-empty")
        if not np.isfinite(arr).all():
            raise ValueError("beat samples must be finite")
        if len(self.labels) != arr.shape[1]:
            raise ShapeMismatchError(
                f"{len(self.labels)} labels for {arr.shape[1]} beats")
        if self.channels < 1 or arr.shape[0] % self.channels != 0:
            raise ShapeMismatchError(
                f"row count {arr.shape[0]} not divisible by channels={self.channels}")

    @property
    def gamma(self) -> int:
        return self.samples.shape[0]

    @property
    def count(self) -> int:
        return self.samples.shape[1]

    def take(self, indices) -> "BeatMatrix":
        """Sub-matrix of the given beat columns (labels carried over)."""
        idx = np.asarray(indices, dtype=int)
        return BeatMatrix(self.samples[:, idx],
                          tuple(self.labels[i] for i in idx),
                          self.channels)


@dataclass(frozen=True)
class SegmentSpec:
    """Partition of [0, gamma) into J windows of equal length, given by
    their (start, end) boundaries; J and the length follow from them.

    The default partition (``SegmentSpec.equal``) is contiguous and
    non-overlapping; custom boundaries may overlap but must all have the
    same length so per-segment dictionaries share one atom size.
    """

    gamma: int
    boundaries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "boundaries",
                           tuple((int(s), int(e)) for s, e in self.boundaries))
        if not self.boundaries:
            raise ShapeMismatchError("at least one segment is required")
        for s, e in self.boundaries:
            if not (0 <= s < e <= self.gamma):
                raise ShapeMismatchError(f"boundary ({s},{e}) outside [0,{self.gamma})")
            if e - s != self.seg_len:
                raise ShapeMismatchError("all segments must have one length")

    @property
    def j_count(self) -> int:
        return len(self.boundaries)

    @property
    def seg_len(self) -> int:
        start, end = self.boundaries[0]
        return end - start

    @classmethod
    def equal(cls, gamma: int, j_count: int) -> "SegmentSpec":
        if j_count < 1:
            raise ShapeMismatchError(f"j_count must be at least 1, got {j_count}")
        if gamma % j_count != 0:
            raise ShapeMismatchError(
                f"gamma={gamma} is not divisible by j_count={j_count}")
        d = gamma // j_count
        return cls(gamma, tuple((j * d, (j + 1) * d) for j in range(j_count)))


def segment_view(beats: BeatMatrix, spec: SegmentSpec, j: int) -> np.ndarray:
    """Rows of segment j (1-based) for every beat."""
    if not 1 <= j <= spec.j_count:
        raise SegmentIndexError(f"segment index {j} outside [1,{spec.j_count}]")
    if spec.gamma != beats.gamma:
        raise ShapeMismatchError(
            f"spec gamma {spec.gamma} != beat matrix gamma {beats.gamma}")
    start, end = spec.boundaries[j - 1]
    return beats.samples[start:end, :]


@dataclass(frozen=True)
class SegmentDictionary:
    """d x k atom matrix for one segment; atoms have L2 norm in (0, 1]."""

    atoms: np.ndarray
    segment_index: int = 1

    def __post_init__(self):
        arr = _as_matrix(self.atoms, "atoms")
        object.__setattr__(self, "atoms", arr)
        if not np.isfinite(arr).all():
            raise ValueError("atoms must be finite")
        norms = np.linalg.norm(arr, axis=0)
        if np.any(norms <= 0.0):
            raise ValueError("every atom must have nonzero norm")
        if np.any(norms > 1.0 + ATOM_NORM_SLACK):
            raise ValueError(f"atom norm exceeds 1 (max {norms.max():.9f})")
        if self.segment_index < 1:
            raise SegmentIndexError("segment_index must be >= 1")

    @property
    def d(self) -> int:
        return self.atoms.shape[0]

    @property
    def k(self) -> int:
        return self.atoms.shape[1]


def stack_dictionaries(dicts: list[SegmentDictionary]) -> np.ndarray:
    """Whole-beat dictionary: column kappa stacks atom kappa of D_1..D_J,
    ordered by segment index."""
    if not dicts:
        raise DictionaryStackError("no dictionaries to stack")
    ks = {d.k for d in dicts}
    if len(ks) != 1:
        raise DictionaryStackError(f"mismatched atom counts: {sorted(ks)}")
    ds = {d.d for d in dicts}
    if len(ds) != 1:
        raise DictionaryStackError(f"mismatched segment lengths: {sorted(ds)}")
    indices = sorted(d.segment_index for d in dicts)
    if indices != list(range(1, len(dicts) + 1)):
        raise DictionaryStackError(
            f"segment indices must be 1..{len(dicts)} exactly once, got {indices}")
    ordered = sorted(dicts, key=lambda d: d.segment_index)
    return np.vstack([d.atoms for d in ordered])


@dataclass(frozen=True)
class SparseCodeMatrix:
    """k x phi sparse codes plus the regularizer that produced them.

    A small regularizer can make every code dense; that is still a valid
    lasso solution, so density is not checked.
    """

    codes: np.ndarray
    lam: float

    def __post_init__(self):
        arr = _as_matrix(self.codes, "codes")
        object.__setattr__(self, "codes", arr)
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam:g}")

    @property
    def k(self) -> int:
        return self.codes.shape[0]

    @property
    def count(self) -> int:
        return self.codes.shape[1]
