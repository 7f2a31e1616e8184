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


def test_matrix_values_are_written_with_17_significant_digits(tmp_path):
    path = tmp_path / "m.txt"
    values = [0.0, -0.0, 5e-324, np.finfo(float).max, 1 / 3, np.nan,
              np.inf, -np.inf]
    serialize.save_matrices(path, [("v", np.array([values])),
                                   ("empty", np.zeros((3, 0)))])
    assert path.read_text() == (
        "1 8 v\n"
        "0 -0 4.9406564584124654e-324 1.7976931348623157e+308 "
        "0.33333333333333331 nan inf -inf\n"
        "3 0 empty\n\n\n\n")


def test_matrix_rejects_bad_header(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 x codes\n")
    with pytest.raises(ParseError):
        serialize.load_matrices(path)


def test_matrix_rejects_a_negative_shape(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("-2 3 codes\n")
    with pytest.raises(ParseError, match="^row 1: negative shape -2 x 3$"):
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


def binary_svm_lines(path):
    """Lines of a saved one-machine model: classes, machine, three blocks."""
    rng = np.random.default_rng(3)
    X = np.hstack([rng.normal(size=(2, 6)) - 1.5, rng.normal(size=(2, 6)) + 1.5])
    y = np.array([1.0] * 6 + [-1.0] * 6)
    serialize.save_svm(path, MultiClassSvm(
        (smo_train(X, y, 3.0, 0.7, class_pair=("p", "q")),), ("p", "q")))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1].split()[0] == "machine"
    return lines


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("column,field", [(4, "gamma"), (5, "c_penalty")])
def test_load_svm_rejects_a_nan_gamma_or_c(tmp_path, column, field):
    path = tmp_path / "svm.txt"
    lines = binary_svm_lines(path)
    fields = lines[1].split()
    fields[column] = "nan"
    lines[1] = " ".join(fields)
    write_lines(path, lines)
    with pytest.raises(ParseError,
                       match=f"^row 2: {field} must be positive, got nan$"):
        serialize.load_svm(path)


@pytest.mark.parametrize("column,value,message", [
    (3, "abc", "could not convert string to float: 'abc'"),
    (6, "x", "invalid literal for int"),
], ids=["bias", "converged"])
def test_load_svm_names_the_row_of_a_bad_machine_value(tmp_path, column,
                                                       value, message):
    path = tmp_path / "svm.txt"
    lines = binary_svm_lines(path)
    fields = lines[1].split()
    fields[column] = value
    lines[1] = " ".join(fields)
    write_lines(path, lines)
    with pytest.raises(ParseError, match=f"^row 2: {message}"):
        serialize.load_svm(path)


def test_load_svm_names_the_row_where_a_cut_file_ends(tmp_path):
    path = tmp_path / "svm.txt"
    write_lines(path, binary_svm_lines(path)[:2])
    with pytest.raises(ParseError,
                       match="^row 3: file ends before a matrix header$"):
        serialize.load_svm(path)


@pytest.mark.parametrize("first,second", [
    ("nan", "2.7"), ("-1", "2"), ("3", "3"), ("5", "2"), ("inf", "9"),
    ("1e300", "1e301"),
], ids=["nan", "negative", "repeated", "decreasing", "inf", "past_2**53"])
def test_load_svm_rejects_bad_support_vector_indices(tmp_path, first, second):
    path = tmp_path / "svm.txt"
    lines = binary_svm_lines(path)
    row = next(i for i, line in enumerate(lines)
               if line.endswith(" sv_indices_0")) + 1
    values = lines[row].split()
    values[:2] = first, second
    lines[row] = " ".join(values)
    write_lines(path, lines)
    with pytest.raises(ParseError, match=(
            f"^row {row + 1}: support-vector indices must be distinct "
            f"non-negative integers in increasing order$")):
        serialize.load_svm(path)


def test_load_svm_names_the_classes_row_when_machines_are_missing(tmp_path):
    path = tmp_path / "svm.txt"
    lines = binary_svm_lines(path)
    lines[0] = "classes a b c"
    write_lines(path, lines)
    with pytest.raises(ParseError,
                       match="^row 1: 1 machines for 3 classes, expected 3$"):
        serialize.load_svm(path)


def test_load_svm_names_the_classes_row_when_pairs_disagree(tmp_path):
    path = tmp_path / "svm.txt"
    lines = binary_svm_lines(path)
    lines[0] = "classes a b"
    write_lines(path, lines)
    with pytest.raises(ParseError, match="^row 1: the machines' class pairs "
                                         "are not the pairs of classes a b$"):
        serialize.load_svm(path)


def two_dictionary_lines(path):
    """Lines of saved dictionaries for segments 1 and 2 (3 x 2 atoms)."""
    atoms = np.random.default_rng(4).normal(size=(3, 2))
    atoms /= np.linalg.norm(atoms, axis=0)
    serialize.save_dictionaries(path, [SegmentDictionary(atoms, 1),
                                       SegmentDictionary(atoms, 2)])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[4] == "3 2 segment_2"
    return lines


def test_load_dictionaries_names_the_row_of_a_bad_segment_index(tmp_path):
    path = tmp_path / "d.txt"
    lines = two_dictionary_lines(path)
    lines[4] = "3 2 segment_x"
    write_lines(path, lines)
    with pytest.raises(ParseError, match="^row 5: block 'segment_x': "):
        serialize.load_dictionaries(path)


def test_load_dictionaries_names_the_row_of_a_repeated_block(tmp_path):
    path = tmp_path / "d.txt"
    lines = two_dictionary_lines(path)
    lines[4] = "3 2 segment_1"
    write_lines(path, lines)
    with pytest.raises(ParseError,
                       match="^row 5: a second block named 'segment_1'$"):
        serialize.load_dictionaries(path)


def test_load_dictionaries_names_the_row_of_an_over_long_atom(tmp_path):
    path = tmp_path / "d.txt"
    lines = two_dictionary_lines(path)
    lines[5:8] = [" ".join(repr(5.0 * float(v)) for v in line.split())
                  for line in lines[5:8]]
    write_lines(path, lines)
    with pytest.raises(ParseError, match=r"^row 5: block 'segment_2': atom "
                                         r"norm exceeds 1 \(max 5\.0+\)$"):
        serialize.load_dictionaries(path)


@pytest.mark.parametrize("block,message", [
    (["1 1 lambda", "nan"], "lam must be positive, got nan"),
    (["1 2 lambda", "0.1 0.2"], "can only convert an array of size 1"),
], ids=["nan", "two_values"])
def test_load_codes_names_the_row_of_a_bad_lambda(tmp_path, block, message):
    path = tmp_path / "c.txt"
    serialize.save_codes(path, SparseCodeMatrix(np.zeros((2, 2)), 0.1))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[3:] == ["1 1 lambda", "0.10000000000000001"]
    write_lines(path, lines[:3] + block)
    with pytest.raises(ParseError, match=f"^row 4: block 'lambda': {message}"):
        serialize.load_codes(path)


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
