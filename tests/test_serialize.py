"""Round trips for the text matrix format and the model files."""

import numpy as np
import pytest

from segdict import serialize
from segdict.beat_model import SegmentDictionary, SparseCodeMatrix
from segdict.classifier import (MultiClassSvm, predict_batch, smo_train,
                                train_multiclass)
from segdict.errors import ParseError


def test_matrix_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    items = [("a", rng.normal(size=(3, 5)) * 10 ** rng.integers(-8, 8)),
             ("b", np.array([[1e-300, 1e300, -0.0, 7.0]]))]
    path = tmp_path / "m.txt"
    serialize.save_matrices(path, items)
    loaded = serialize.load_matrices(path)
    for name, arr in items:
        assert np.array_equal(loaded[name], arr)


def test_matrix_header_format(tmp_path):
    path = tmp_path / "m.txt"
    serialize.save_matrices(path, [("codes", np.arange(6.0).reshape(2, 3))])
    first = path.read_text().splitlines()[0]
    assert first == "2 3 codes"


def test_matrix_rejects_bad_header(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 x codes\n")
    with pytest.raises(ParseError):
        serialize.load_matrices(path)


def test_dictionary_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    dicts = []
    for j in (1, 2, 3):
        atoms = rng.normal(size=(4, 3))
        atoms /= np.linalg.norm(atoms, axis=0)
        dicts.append(SegmentDictionary(atoms, j))
    path = tmp_path / "d.txt"
    serialize.save_dictionaries(path, dicts)
    loaded = serialize.load_dictionaries(path)
    assert [d.segment_index for d in loaded] == [1, 2, 3]
    for a, b in zip(dicts, loaded):
        assert np.array_equal(a.atoms, b.atoms)


def test_codes_round_trip(tmp_path):
    codes = np.zeros((5, 4))
    codes[2, 1] = -3.25
    m = SparseCodeMatrix(codes, 0.15)
    path = tmp_path / "c.txt"
    serialize.save_codes(path, m)
    loaded = serialize.load_codes(path)
    assert np.array_equal(loaded.codes, m.codes)
    assert loaded.lam == 0.15


def test_labels_round_trip(tmp_path):
    labels = ["N", "V", "/", "f"]
    path = tmp_path / "l.txt"
    serialize.save_labels(path, labels)
    assert serialize.load_labels(path) == labels


def test_svm_round_trip_preserves_predictions(tmp_path):
    rng = np.random.default_rng(2)
    X = np.hstack([rng.normal(size=(3, 10)) - 2.0,
                   rng.normal(size=(3, 10)) + 2.0,
                   rng.normal(size=(3, 10)) + np.array([[4.0], [-4.0], [0.0]])])
    labels = ["a"] * 10 + ["b"] * 10 + ["c"] * 10
    model = train_multiclass(X, labels, 5.0, 0.5)
    path = tmp_path / "svm.txt"
    serialize.save_svm(path, model)
    loaded = serialize.load_svm(path)
    assert loaded.classes == model.classes
    probe = rng.normal(size=(3, 25))
    assert predict_batch(loaded, probe) == predict_batch(model, probe)


@pytest.mark.parametrize("column,field", [(4, "gamma"), (5, "c_penalty")])
def test_load_svm_rejects_a_nan_gamma_or_c(tmp_path, column, field):
    rng = np.random.default_rng(3)
    X = np.hstack([rng.normal(size=(2, 6)) - 1.5, rng.normal(size=(2, 6)) + 1.5])
    y = np.array([1.0] * 6 + [-1.0] * 6)
    path = tmp_path / "svm.txt"
    serialize.save_svm(path, MultiClassSvm(
        (smo_train(X, y, 3.0, 0.7, class_pair=("p", "q")),), ("p", "q")))
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split()
    assert fields[0] == "machine"
    fields[column] = "nan"
    lines[1] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{field} must be positive, got nan$"):
        serialize.load_svm(path)


def test_binary_machine_survives_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    X = np.hstack([rng.normal(size=(2, 6)) - 1.5, rng.normal(size=(2, 6)) + 1.5])
    y = np.array([1.0] * 6 + [-1.0] * 6)
    m = smo_train(X, y, 3.0, 0.7, class_pair=("p", "q"))
    from segdict.classifier import MultiClassSvm
    path = tmp_path / "svm.txt"
    serialize.save_svm(path, MultiClassSvm((m,), ("p", "q")))
    loaded = serialize.load_svm(path).machines[0]
    assert np.array_equal(loaded.support_vectors, m.support_vectors)
    assert np.array_equal(loaded.alphas, m.alphas)
    assert loaded.bias == m.bias
    assert loaded.class_pair == ("p", "q")
    assert np.array_equal(loaded.sv_indices, m.sv_indices)
