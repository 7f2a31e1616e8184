"""Load beat CSV files, resample beats to a fixed length, and normalize.

CSV schema: an optional ``#channels=2`` directive on the first line, an
optional ``label,s1,s2,...`` header, then one beat per row as a class
string followed by comma-separated decimal samples.  Two-channel rows carry
channel 1 samples then channel 2 samples, equal length each.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .beat_model import BeatMatrix
from .errors import (DegenerateBeatError, EmptyDatasetError, FlatBeatWarning,
                     MixedChannelError, ParseError)

MIN_SAMPLES_PER_CHANNEL = 8
_CHUNK = 256        # beats centred and normalized at once; bounds the temporaries
_READ = 1 << 16     # characters of the CSV read at once


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
    """Parse a beat CSV file into raw records, labels preserved verbatim.

    The file is read _READ characters at a time and its data rows go to
    numpy's C parser as they are read; a file that the parse rejects, or
    that holds a row RawBeatRecord would reject, is read again whole and
    parsed one line at a time, so that the error names its row.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = _lines(fh)
        # the first two lines, without their line breaks
        head = [line.splitlines()[0] for line in itertools.islice(lines, 2)]
        channels = 1
        start = 0
        if head and head[0].startswith("#channels="):
            try:
                channels = int(head[0].split("=", 1)[1])
            except ValueError as exc:
                raise ParseError(
                    f"row 1: bad channels directive {head[0]!r}") from exc
            start = 1
        # optional header right after the directive
        if start < len(head) and head[start].split(",", 1)[0].strip() == "label":
            start += 1
        records = _parse_rows(itertools.chain(head[start:], lines), channels)
        if records is None:
            fh.seek(0)
            records = _parse_lines(fh.read().splitlines(), start, channels)
    if not records:
        raise EmptyDatasetError(f"no data rows in {path}")
    return records


def _lines(fh) -> Iterator[str]:
    """The lines of fh, line breaks kept, split where str.splitlines splits
    the whole text: at form feeds, U+0085 and U+2028 too, where file
    iteration does not.  The last line of a block waits for the next."""
    carry, size = "", _READ
    while chunk := fh.read(size):
        *whole, carry = (carry + chunk).splitlines(keepends=True)
        yield from whole
        # a line longer than a block is read in doubling blocks, so it is
        # copied a bounded number of times
        size = _READ if whole else 2 * size
    if carry:
        yield carry


def _parse_rows(lines: Iterable[str], channels: int
                ) -> list[RawBeatRecord] | None:
    """Records of the nonblank data lines, stripped and parsed as one
    matrix while they are read; None when the parse or a record's checks
    fail, so that the lines must go through _parse_lines.

    np.loadtxt accepts a subset of what float() accepts (not "1_0", for
    one) and reads the same value from it, correctly rounded; with usecols
    it ignores extra fields, so each row's field count is compared with the
    first row's as it goes by.
    """
    rows = filter(None, map(str.strip, lines))
    first = next(rows, None)
    if first is None:
        return []
    width = first.count(",")
    if width == 0:
        return None
    labels = []

    def checked():
        for row in itertools.chain([first], rows):
            if row.count(",") != width:
                raise ValueError("rows differ in field count")
            labels.append(row[:row.index(",")].strip())
            yield row

    try:
        data = np.loadtxt(checked(), delimiter=",",
                          usecols=range(1, width + 1), comments=None,
                          ndmin=2)
        return [RawBeatRecord(label, samples, channels)
                for label, samples in zip(labels, data)]
    except ValueError:
        return None


def _parse_lines(lines: list[str], start: int, channels: int
                 ) -> list[RawBeatRecord]:
    """Records of lines[start:], parsed one line at a time; raises a
    ParseError naming the first bad row."""
    records = []
    for lineno in range(start, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) < 2:
            raise ParseError(f"row {lineno + 1}: expected label and samples")
        label = fields[0].strip()
        # float() would read "1_0" as 10 and "٣" as 3; padding, Unicode
        # whitespace included, is stripped as float() and np.loadtxt do
        odd = [t for t in map(str.strip, fields[1:])
               if "_" in t or not t.isascii()]
        if odd:
            raise ParseError(f"row {lineno + 1}: sample {odd[0]!r} holds "
                             "'_' or a non-ASCII character")
        try:
            samples = np.array([float(f) for f in fields[1:]], dtype=float)
        except ValueError as exc:
            raise ParseError(f"row {lineno + 1}: {exc}") from exc
        try:
            records.append(RawBeatRecord(label, samples, channels))
        except ValueError as exc:
            raise ParseError(f"row {lineno + 1}: {exc}") from exc
    return records


def resample_beat(rec: RawBeatRecord, target_len: int) -> np.ndarray:
    """Linear interpolation of each channel onto target_len uniform points.

    Endpoints are preserved exactly; channels come back concatenated, so the
    output has length target_len * channel_count.
    """
    grid, xp = _grid(rec.per_channel_len, target_len)
    out = np.empty(target_len * rec.channel_count)
    for c in range(rec.channel_count):
        out[c * target_len:(c + 1) * target_len] = np.interp(grid, xp,
                                                             rec.channel(c))
    return out


def _grid(n: int, target_len: int) -> tuple[np.ndarray, np.ndarray]:
    """The target_len uniform points at which a channel of n samples is
    interpolated, and the n sample positions."""
    if target_len < 2:
        raise ValueError("target_len must be >= 2")
    if n < 2:
        raise DegenerateBeatError(f"channel 0 has {n} sample(s)")
    return np.linspace(0.0, n - 1.0, target_len), np.arange(n)


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
    """Resample and normalize every record into the columns of a BeatMatrix.

    Column i is normalize_beat(resample_beat(records[i], target_len)) bit for
    bit.  Records of one length share one interpolation grid, and beats are
    centred and normalized _CHUNK at a time.
    """
    if not records:
        raise EmptyDatasetError("no records")
    channels = records[0].channel_count
    for i, rec in enumerate(records):
        if rec.channel_count != channels:
            raise MixedChannelError(
                f"record {i} has {rec.channel_count} channels, expected {channels}")
    gamma = target_len * channels
    samples = np.empty((gamma, len(records)))
    grids = {}
    for start in range(0, len(records), _CHUNK):
        chunk = records[start:start + _CHUNK]
        R = np.empty((len(chunk), channels, target_len))
        for r, rec in enumerate(chunk):
            n = rec.per_channel_len
            if n not in grids:
                grids[n] = _grid(n, target_len)
            for c in range(channels):
                R[r, c] = np.interp(*grids[n], rec.channel(c))
        R = R.reshape(len(chunk), gamma)
        # the per-row mean and dot sum each row as normalize_beat's mean
        # and 1-D norm do; flat rows, and rows whose arithmetic overflowed
        # to nan, go through normalize_beat, which warns or raises
        C = R - R.mean(axis=1, keepdims=True)
        norm = np.sqrt(np.matmul(C[:, None, :], C[:, :, None])[:, 0, 0])
        plain = norm > 1e-12 * np.maximum(1.0, np.abs(R).max(axis=1))
        C /= np.where(plain, norm, 1.0)[:, None]
        for r in np.flatnonzero(~plain):
            C[r] = normalize_beat(R[r])
        samples[:, start:start + len(chunk)] = C.T
    return BeatMatrix(samples, tuple(r.label for r in records), channels)
