"""Diff-friendly text serialization for matrices, labels, and models.

A matrix block is a header line ``rows cols name`` followed by the values
row-major, whitespace-separated, 17 significant digits.  Files may hold
several blocks back to back.
"""

from __future__ import annotations

import numpy as np

from .beat_model import SegmentDictionary, SparseCodeMatrix
from .classifier import MultiClassSvm, TrainedSvm
from .errors import ParseError


def write_matrix(fh, name: str, arr: np.ndarray) -> None:
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    if any(ch.isspace() for ch in name) or not name:
        raise ValueError(f"bad block name {name!r}")
    fh.write(f"{arr.shape[0]} {arr.shape[1]} {name}\n")
    line = " ".join(["%.17g"] * arr.shape[1]) + "\n"
    for row in arr:
        fh.write(line % tuple(row.tolist()))


def _read_block(lines: list[str], pos: int) -> tuple[str, np.ndarray, int]:
    if pos >= len(lines):
        raise ParseError(f"row {pos + 1}: file ends before a matrix header")
    header = lines[pos].split()
    if len(header) != 3:
        raise ParseError(f"row {pos + 1}: bad matrix header {lines[pos]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
        if rows < 0 or cols < 0:
            raise ValueError(f"negative shape {rows} x {cols}")
    except ValueError as exc:
        raise ParseError(f"row {pos + 1}: {exc}") from exc
    name = header[2]
    values = np.empty((rows, cols))
    for r in range(rows):
        lineno = pos + 1 + r
        try:
            fields = lines[lineno].split()
            if len(fields) != cols:
                raise ValueError(f"expected {cols} values, got {len(fields)}")
            values[r] = [float(f) for f in fields]
        except (IndexError, ValueError) as exc:
            raise ParseError(f"row {lineno + 1}: {exc}") from exc
    return name, values, pos + 1 + rows


def save_matrices(path, items: list[tuple[str, np.ndarray]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for name, arr in items:
            write_matrix(fh, name, arr)


def _read_blocks(path) -> dict[str, tuple[np.ndarray, int]]:
    """Each block's values and the row number of its header."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out: dict[str, tuple[np.ndarray, int]] = {}
    pos = 0
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        row = pos + 1
        name, arr, pos = _read_block(lines, pos)
        if name in out:
            raise ParseError(f"row {row}: a second block named {name!r}")
        out[name] = arr, row
    return out


def load_matrices(path) -> dict[str, np.ndarray]:
    return {name: arr for name, (arr, _) in _read_blocks(path).items()}


def save_dictionaries(path, dicts: list[SegmentDictionary]) -> None:
    ordered = sorted(dicts, key=lambda d: d.segment_index)
    save_matrices(path, [(f"segment_{d.segment_index}", d.atoms) for d in ordered])


def load_dictionaries(path) -> list[SegmentDictionary]:
    dicts = []
    for name, (arr, row) in _read_blocks(path).items():
        if not name.startswith("segment_"):
            raise ParseError(f"row {row}: unexpected block {name!r} in "
                             f"dictionary file")
        try:
            dicts.append(SegmentDictionary(arr, int(name.split("_", 1)[1])))
        except (ValueError, IndexError) as exc:
            raise ParseError(f"row {row}: block {name!r}: {exc}") from exc
    return sorted(dicts, key=lambda d: d.segment_index)


def save_codes(path, codes: SparseCodeMatrix) -> None:
    save_matrices(path, [("codes", codes.codes),
                         ("lambda", np.array([[codes.lam]]))])


def load_codes(path) -> SparseCodeMatrix:
    blocks = _read_blocks(path)
    try:
        (codes, _), (lam, row) = blocks["codes"], blocks["lambda"]
    except KeyError as exc:
        raise ParseError(f"missing block {exc} in codes file") from exc
    try:
        return SparseCodeMatrix(codes, float(lam.item()))
    except ValueError as exc:
        raise ParseError(f"row {row}: block 'lambda': {exc}") from exc


def save_labels(path, labels) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for label in labels:
            fh.write(f"{label}\n")


def load_labels(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def _check_labels(labels) -> None:
    """Labels are written whitespace-separated, so none may hold any."""
    for c in labels:
        if any(ch.isspace() for ch in c):
            raise ValueError(f"label {str(c)!r} contains whitespace")


def save_svm(path, model: MultiClassSvm) -> None:
    _check_labels(model.classes)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("classes " + " ".join(model.classes) + "\n")
        for i, m in enumerate(model.machines):
            fh.write("machine %s %s %.17g %.17g %.17g %d\n"
                     % (m.class_pair[0], m.class_pair[1], m.bias, m.gamma,
                        m.c_penalty, m.converged))
            write_matrix(fh, f"support_vectors_{i}", m.support_vectors)
            write_matrix(fh, f"alphas_{i}", m.alphas.reshape(1, -1))
            write_matrix(fh, f"sv_indices_{i}",
                         m.sv_indices.astype(float).reshape(1, -1))


def load_svm(path) -> MultiClassSvm:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("classes "):
        raise ParseError("row 1: expected a classes line")
    classes = tuple(lines[0].split()[1:])
    machines = []
    pos = 1
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        row = pos + 1
        fields = lines[pos].split()
        if fields[0] != "machine" or len(fields) != 7:
            raise ParseError(f"row {row}: bad machine line")
        _, sv, pos = _read_block(lines, pos + 1)
        _, alphas, pos = _read_block(lines, pos)
        idx_row = pos + 2                  # the indices' value row
        _, sv_idx, pos = _read_block(lines, pos)
        idx = sv_idx.ravel()
        # positions np.flatnonzero gave; above 2**53 floats skip integers
        if not (np.all((idx >= 0) & (idx <= 2.0 ** 53) & (idx == np.floor(idx)))
                and np.all(np.diff(idx) > 0)):
            raise ParseError(f"row {idx_row}: support-vector indices must be "
                             f"distinct non-negative integers in increasing "
                             f"order")
        try:
            machines.append(TrainedSvm(
                sv, alphas.ravel(), float(fields[3]), float(fields[4]),
                float(fields[5]), (fields[1], fields[2]),
                idx.astype(int), bool(int(fields[6]))))
        except ValueError as exc:
            raise ParseError(f"row {row}: {exc}") from exc
    try:
        return MultiClassSvm(tuple(machines), classes)
    except ValueError as exc:
        raise ParseError(f"row 1: {exc}") from exc
