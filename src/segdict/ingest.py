"""Load beat CSV files, resample beats to a fixed length, and normalize.

CSV schema: an optional ``#channels=2`` directive on the first line, an
optional ``label,s1,s2,...`` header, then one beat per row as a class
string followed by comma-separated decimal samples.  Two-channel rows carry
channel 1 samples then channel 2 samples, equal length each.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .beat_model import BeatMatrix
from .errors import (DegenerateBeatError, EmptyDatasetError, FlatBeatWarning,
                     MixedChannelError, ParseError)

MIN_SAMPLES_PER_CHANNEL = 8


@dataclass(frozen=True)
class RawBeatRecord:
    """One labeled beat before resampling; channels stored concatenated."""

    label: str
    samples: np.ndarray
    channel_count: int = 1

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float).ravel()
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "label", str(self.label))
        if self.channel_count not in (1, 2):
            raise ValueError(f"channel_count must be 1 or 2, got {self.channel_count}")
        if not np.isfinite(arr).all():
            raise ValueError("samples must be finite")
        if arr.size % self.channel_count != 0:
            raise ValueError(
                f"{arr.size} samples do not split evenly into "
                f"{self.channel_count} channels")
        if arr.size // self.channel_count < MIN_SAMPLES_PER_CHANNEL:
            raise ValueError(
                f"need at least {MIN_SAMPLES_PER_CHANNEL} samples per channel, "
                f"got {arr.size // self.channel_count}")

    @property
    def per_channel_len(self) -> int:
        return self.samples.size // self.channel_count

    def channel(self, c: int) -> np.ndarray:
        n = self.per_channel_len
        return self.samples[c * n:(c + 1) * n]


def load_dataset(path) -> list[RawBeatRecord]:
    """Parse a beat CSV file into raw records, labels preserved verbatim."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()

    channels = 1
    start = 0
    if lines and lines[0].startswith("#channels="):
        try:
            channels = int(lines[0].split("=", 1)[1])
        except ValueError as exc:
            raise ParseError(f"row 1: bad channels directive {lines[0]!r}") from exc
        start = 1
    # optional header right after the directive
    if start < len(lines) and lines[start].split(",", 1)[0].strip() == "label":
        start += 1

    records = []
    for lineno in range(start, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) < 2:
            raise ParseError(f"row {lineno + 1}: expected label and samples")
        label = fields[0].strip()
        try:
            samples = np.array([float(f) for f in fields[1:]], dtype=float)
        except ValueError as exc:
            raise ParseError(f"row {lineno + 1}: {exc}") from exc
        try:
            records.append(RawBeatRecord(label, samples, channels))
        except ValueError as exc:
            raise ParseError(f"row {lineno + 1}: {exc}") from exc
    if not records:
        raise EmptyDatasetError(f"no data rows in {path}")
    return records


def resample_beat(rec: RawBeatRecord, target_len: int) -> np.ndarray:
    """Linear interpolation of each channel onto target_len uniform points.

    Endpoints are preserved exactly; channels come back concatenated, so the
    output has length target_len * channel_count.
    """
    if target_len < 2:
        raise ValueError("target_len must be >= 2")
    out = np.empty(target_len * rec.channel_count)
    for c in range(rec.channel_count):
        chan = rec.channel(c)
        n = chan.size
        if n < 2:
            raise DegenerateBeatError(f"channel {c} has {n} sample(s)")
        grid = np.linspace(0.0, n - 1.0, target_len)
        out[c * target_len:(c + 1) * target_len] = np.interp(grid, np.arange(n), chan)
    return out


def normalize_beat(v: np.ndarray) -> np.ndarray:
    """Shift to zero mean and scale to unit L2 norm.

    A constant beat has nothing left after centering; it maps to the zero
    vector and a FlatBeatWarning is recorded.
    """
    v = np.asarray(v, dtype=float).ravel()
    if v.size < 2:
        raise ValueError("need at least 2 samples")
    if not np.isfinite(v).all():
        raise ValueError("samples must be finite")
    centered = v - v.mean()
    norm = np.linalg.norm(centered)
    if norm <= 1e-12 * max(1.0, float(np.abs(v).max())):
        warnings.warn("flat beat normalized to zero vector", FlatBeatWarning,
                      stacklevel=2)
        return np.zeros_like(v)
    return centered / norm


def build_beat_matrix(records: list[RawBeatRecord], target_len: int) -> BeatMatrix:
    """Resample and normalize every record into the columns of a BeatMatrix."""
    if not records:
        raise EmptyDatasetError("no records")
    channels = records[0].channel_count
    for i, rec in enumerate(records):
        if rec.channel_count != channels:
            raise MixedChannelError(
                f"record {i} has {rec.channel_count} channels, expected {channels}")
    gamma = target_len * channels
    samples = np.empty((gamma, len(records)))
    for i, rec in enumerate(records):
        samples[:, i] = normalize_beat(resample_beat(rec, target_len))
    return BeatMatrix(samples, tuple(r.label for r in records), channels)
