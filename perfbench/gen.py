"""Seeded planted-beat inputs for the benchmark, independent of segdict.

Each class owns a stacked dictionary whose per-segment atoms scatter around
a class direction (the classes' directions are orthonormal); a clean beat is
one atom of its class scaled by U(0.8, 1.2) plus Gaussian noise.  The stored
beat is that clean beat times a random positive gain plus a random DC offset,
which the program's per-beat zero-mean, unit-norm normalization must remove.

Nothing here imports the program, so an edit to the program cannot change
a workload's inputs.
"""

from __future__ import annotations

import numpy as np

CSV_DIGITS = 10          # significant digits written per sample
NOISE = 0.02
SPREAD = 0.5


def planted_beats(seed: int, tag: int, class_counts: dict[str, int],
                  gamma: int, j_count: int, k: int
                  ) -> tuple[list[str], np.ndarray]:
    """Labels and a gamma x n matrix of stored (gain- and offset-distorted)
    beats; the columns come in a seeded random order."""
    rng = np.random.default_rng([seed, tag])
    d = gamma // j_count
    n_classes = len(class_counts)
    directions, _ = np.linalg.qr(rng.normal(size=(gamma, n_classes)))
    labels: list[str] = []
    columns = []
    for c, (label, count) in enumerate(class_counts.items()):
        atoms = np.empty((gamma, k))
        for j in range(j_count):
            rows = slice(j * d, (j + 1) * d)
            center = directions[rows, c] / np.linalg.norm(directions[rows, c])
            g = rng.normal(size=(d, k))
            g /= np.linalg.norm(g, axis=0)
            block = center[:, None] + SPREAD * g
            atoms[rows] = block / np.linalg.norm(block, axis=0)
        picks = rng.integers(k, size=count)
        scale = rng.uniform(0.8, 1.2, size=count)
        clean = atoms[:, picks] * scale + rng.normal(scale=NOISE,
                                                     size=(gamma, count))
        columns.append(clean)
        labels.extend([label] * count)
    clean = np.hstack(columns)
    n = clean.shape[1]
    gain = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=n))
    offset = rng.uniform(-3.0, 3.0, size=n)
    stored = clean * gain + offset
    order = rng.permutation(n)
    return [labels[i] for i in order], stored[:, order]


def write_csv(path, labels: list[str], samples: np.ndarray) -> None:
    """One beat per row in the ingest schema: label, then the samples."""
    fmt = f"{{:.{CSV_DIGITS}g}}"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, label in enumerate(labels):
            fh.write(label + "," + ",".join(fmt.format(v)
                                            for v in samples[:, i]) + "\n")


def normalized(samples: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-norm version of every column."""
    centered = samples - samples.mean(axis=0)
    return centered / np.linalg.norm(centered, axis=0)
