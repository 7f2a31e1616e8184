"""Container tests: segment views, stacking, and type invariants."""

import numpy as np
import pytest

from segdict.beat_model import (BeatMatrix, SegmentDictionary, SegmentSpec,
                                SparseCodeMatrix, segment_view,
                                stack_dictionaries)
from segdict.errors import (DictionaryStackError, SegmentIndexError,
                            ShapeMismatchError)


def beats_6x1():
    return BeatMatrix(np.array([[1.0, 2, 3, 4, 5, 6]]).T, ("N",))


def test_segment_view_slices_rows():
    spec = SegmentSpec.equal(6, 2)
    view = segment_view(beats_6x1(), spec, 2)
    assert np.array_equal(view[:, 0], [4.0, 5.0, 6.0])


def test_equal_spec_300_over_6():
    spec = SegmentSpec.equal(300, 6)
    assert spec.seg_len == 50
    beats = BeatMatrix(np.zeros((300, 2)) + np.arange(2), ("N", "V"))
    for j in range(1, 7):
        assert segment_view(beats, spec, j).shape == (50, 2)


def test_views_partition_the_beats():
    rng = np.random.default_rng(0)
    beats = BeatMatrix(rng.normal(size=(12, 5)), tuple("NVAFR"))
    spec = SegmentSpec.equal(12, 4)
    rebuilt = np.vstack([segment_view(beats, spec, j) for j in range(1, 5)])
    assert np.array_equal(rebuilt, beats.samples)


def test_segment_view_errors():
    beats = beats_6x1()
    spec = SegmentSpec.equal(6, 2)
    with pytest.raises(SegmentIndexError):
        segment_view(beats, spec, 0)
    with pytest.raises(SegmentIndexError):
        segment_view(beats, spec, 3)
    with pytest.raises(ShapeMismatchError):
        segment_view(beats, SegmentSpec.equal(8, 2), 1)


def test_equal_spec_rejects_fewer_than_one_segment():
    for j_count in (0, -2):
        with pytest.raises(ShapeMismatchError, match="j_count"):
            SegmentSpec.equal(12, j_count)


def test_segment_view_is_pure():
    beats = beats_6x1()
    spec = SegmentSpec.equal(6, 3)
    a = segment_view(beats, spec, 2)
    b = segment_view(beats, spec, 2)
    assert np.array_equal(a, b)


def test_custom_boundaries_may_overlap():
    spec = SegmentSpec(6, ((0, 4), (2, 6)))
    beats = beats_6x1()
    assert np.array_equal(segment_view(beats, spec, 2)[:, 0], [3.0, 4, 5, 6])


def test_stack_two_dictionaries():
    d1 = SegmentDictionary(np.array([[1.0], [0.0]]), 1)
    d2 = SegmentDictionary(np.array([[0.0], [1.0]]), 2)
    stacked = stack_dictionaries([d2, d1])
    assert np.array_equal(stacked[:, 0], [1.0, 0.0, 0.0, 1.0])


def test_stack_single_is_identity():
    atoms = np.array([[0.6], [0.8]])
    stacked = stack_dictionaries([SegmentDictionary(atoms, 1)])
    assert np.array_equal(stacked, atoms)


def test_stack_blocks_match_sources():
    rng = np.random.default_rng(4)
    dicts = []
    for j in range(1, 4):
        atoms = rng.normal(size=(2, 4))
        atoms /= np.linalg.norm(atoms, axis=0)
        dicts.append(SegmentDictionary(atoms, j))
    stacked = stack_dictionaries(dicts)
    assert stacked.shape == (6, 4)
    for j, d in enumerate(dicts, start=1):
        assert np.array_equal(stacked[2 * (j - 1):2 * j], d.atoms)


def test_stack_errors():
    a = SegmentDictionary(np.array([[1.0]]), 1)
    b = SegmentDictionary(np.array([[1.0, 0.0], [0.0, 1.0]]), 2)
    with pytest.raises(DictionaryStackError):
        stack_dictionaries([a, b])  # mismatched k
    with pytest.raises(DictionaryStackError):
        stack_dictionaries([a, SegmentDictionary(np.array([[1.0]]), 1)])
    with pytest.raises(DictionaryStackError):
        stack_dictionaries([a, SegmentDictionary(np.array([[1.0]]), 3)])
    with pytest.raises(DictionaryStackError):
        stack_dictionaries([])


def test_beat_matrix_invariants():
    with pytest.raises(ShapeMismatchError):
        BeatMatrix(np.zeros((4, 2)), ("N",))
    with pytest.raises(ValueError):
        BeatMatrix(np.array([[np.inf], [0.0]]), ("N",))
    with pytest.raises(ShapeMismatchError):
        BeatMatrix(np.zeros((5, 1)), ("N",), channels=2)


def test_segment_dictionary_norm_bounds():
    with pytest.raises(ValueError):
        SegmentDictionary(np.array([[2.0]]), 1)
    with pytest.raises(ValueError):
        SegmentDictionary(np.array([[0.0]]), 1)
    SegmentDictionary(np.array([[1.0 + 5e-7]]), 1)  # within slack


def test_sparse_code_matrix_accepts_dense_codes():
    codes = np.zeros((4, 3))
    codes[0, 0] = 1.0
    m = SparseCodeMatrix(codes, 0.1)
    assert m.k == 4 and m.count == 3
    # every code nonzero is a valid lasso solution at a small regularizer
    dense = SparseCodeMatrix(np.ones((2, 2)), 1e-5)
    assert dense.k == 2 and dense.count == 2
    with pytest.raises(ValueError):
        SparseCodeMatrix(codes, 0.0)


def test_sparse_code_matrix_rejects_a_nan_lambda():
    with pytest.raises(ValueError, match="lam must be positive, got nan"):
        SparseCodeMatrix(np.zeros((2, 2)), float("nan"))
