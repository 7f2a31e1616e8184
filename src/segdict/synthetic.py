"""Planted-dictionary synthetic datasets for end-to-end validation.

Each class owns a stacked dictionary whose per-segment atoms scatter around
a class-specific direction; beats are one atom scaled by a random positive
coefficient plus Gaussian noise.  Recovering the planted structure is what
the pipeline acceptance run checks.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError


def generate_planted_dataset(n_classes: int = 4, beats_per_class: int = 125,
                             gamma: int = 200, j_count: int = 4, k: int = 16,
                             noise: float = 0.02, spread: float = 0.5,
                             seed: int = 0) -> tuple[list[str], np.ndarray]:
    """Labels plus a gamma x n matrix of raw (unnormalized) beats."""
    for name, value in (("n_classes", n_classes),
                        ("beats_per_class", beats_per_class),
                        ("gamma", gamma), ("j_count", j_count), ("k", k)):
        if value < 1:
            raise ShapeMismatchError(f"{name} must be at least 1, got {value}")
    if not (np.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and non-negative, got {noise}")
    if not np.isfinite(spread):
        raise ValueError(f"spread must be finite, got {spread}")
    if n_classes > gamma:
        # the class directions are orthonormal columns of gamma rows
        raise ShapeMismatchError(
            f"n_classes={n_classes} exceeds gamma={gamma}")
    if gamma % j_count != 0:
        raise ShapeMismatchError(f"gamma={gamma} not divisible by j_count={j_count}")
    d = gamma // j_count
    rng = np.random.default_rng(seed)

    # orthonormal class directions keep the classes well separated
    directions, _ = np.linalg.qr(rng.normal(size=(gamma, n_classes)))
    stacked = []
    for c in range(n_classes):
        atoms = np.empty((gamma, k))
        for j in range(j_count):
            center = directions[j * d:(j + 1) * d, c]
            center = center / np.linalg.norm(center)
            for kappa in range(k):
                g = rng.normal(size=d)
                g /= np.linalg.norm(g)
                atom = center + spread * g
                atoms[j * d:(j + 1) * d, kappa] = atom / np.linalg.norm(atom)
        stacked.append(atoms)

    n = n_classes * beats_per_class
    samples = np.empty((gamma, n))
    labels = []
    for i in range(n):
        c = i % n_classes
        kappa = int(rng.integers(k))
        scale = rng.uniform(0.8, 1.2)
        samples[:, i] = (scale * stacked[c][:, kappa]
                         + rng.normal(scale=noise, size=gamma))
        labels.append(f"c{c + 1}")
    order = rng.permutation(n)
    return [labels[i] for i in order], samples[:, order]


def write_beats_csv(path, labels: list[str], samples: np.ndarray,
                    channels: int = 1) -> None:
    """Emit beats in the ingest CSV schema (one row per beat)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if channels != 1:
            fh.write(f"#channels={channels}\n")
        for i, label in enumerate(labels):
            values = ",".join(f"{v:.10g}" for v in samples[:, i])
            fh.write(f"{label},{values}\n")
