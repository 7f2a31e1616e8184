"""End-to-end CLI tests on miniature synthetic datasets."""

import csv

import numpy as np
import pytest

from segdict.cli import load_config, main
from segdict.errors import ConfigError
from segdict.evaluation import FftFeatures, run_single
from segdict.ingest import build_beat_matrix, load_dataset


def run(args):
    return main([str(a) for a in args])


def make_dataset(tmp_path, name="data.csv", classes=2, beats=30, gamma=40,
                 segments=2, atoms=4, seed=0):
    path = tmp_path / name
    code = run(["gen-synthetic", "--out", path, "--seed", seed,
                "--classes", classes, "--beats-per-class", beats,
                "--gamma", gamma, "--segments", segments, "--atoms", atoms])
    assert code == 0
    return path


def make_config(tmp_path, dataset, out_dir, extra=""):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"dataset_path = {dataset}\n"
        "target_len = 40\n"
        "j_count = 2\n"
        "k = 4\n"
        "lambda = 0.1\n"
        "outer_iters = 5\n"
        "subset_size = 40\n"
        "folds = 2\n"
        "c_grid = 1.0,16.0\n"
        "gamma_grid = 0.5,8.0\n"
        "n_coeffs = 10\n"
        "train_counts = c1:10,c2:10\n"
        "seed = 0\n"
        f"output_dir = {out_dir}\n"
        + extra,
        encoding="utf-8")
    return cfg


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_gen_synthetic_emits_loadable_csv(tmp_path):
    path = make_dataset(tmp_path)
    records = load_dataset(path)
    assert len(records) == 60
    assert {r.label for r in records} == {"c1", "c2"}
    beats = build_beat_matrix(records, 40)
    assert beats.samples.shape == (40, 60)


def test_gen_synthetic_deterministic(tmp_path):
    a = make_dataset(tmp_path, "a.csv", seed=4)
    b = make_dataset(tmp_path, "b.csv", seed=4)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("flags, cause", [
    (["--segments", "0"], "j_count must be at least 1, got 0"),
    (["--atoms", "0"], "k must be at least 1, got 0"),
    (["--gamma", "0"], "gamma must be at least 1, got 0"),
    (["--classes", "5", "--gamma", "4"], "n_classes=5 exceeds gamma=4"),
    (["--classes", "0"], "n_classes must be at least 1, got 0"),
    (["--beats-per-class", "0"], "beats_per_class must be at least 1, got 0"),
    (["--noise", "nan"], "noise must be finite and non-negative, got nan"),
    (["--spread", "inf"], "spread must be finite, got inf"),
])
def test_gen_synthetic_rejects_bad_sizes(tmp_path, capsys, flags, cause):
    path = tmp_path / "data.csv"
    assert run(["gen-synthetic", "--out", path] + flags) == 1
    assert capsys.readouterr().err == (
        f"error: stage 'gen-synthetic': {cause}\n")
    assert not path.exists()


def test_train_dict_round_trip_and_determinism(tmp_path):
    dataset = make_dataset(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cfg = make_config(tmp_path, dataset, out1)
    assert run(["train-dict", "--config", cfg]) == 0
    assert run(["train-dict", "--config", cfg, "--out", out2]) == 0

    from segdict.serialize import load_dictionaries
    dicts = load_dictionaries(out1 / "dictionaries.txt")
    assert [d.segment_index for d in dicts] == [1, 2]
    assert dicts[0].atoms.shape == (20, 4)
    # same seed, byte-identical artifact
    assert ((out1 / "dictionaries.txt").read_bytes()
            == (out2 / "dictionaries.txt").read_bytes())


def test_train_dict_log_objective_non_increasing(tmp_path):
    dataset = make_dataset(tmp_path)
    out = tmp_path / "o"
    cfg = make_config(tmp_path, dataset, out)
    assert run(["train-dict", "--config", cfg]) == 0
    rows = read_csv(out / "train_log.csv")
    by_segment = {}
    for r in rows:
        by_segment.setdefault(r["segment"], []).append(float(r["objective"]))
    assert by_segment
    for objs in by_segment.values():
        assert np.all(np.diff(np.array(objs)) <= 1e-9)


def test_encode_train_svm_predict_chain(tmp_path):
    dataset = make_dataset(tmp_path)
    out = tmp_path / "o"
    cfg = make_config(tmp_path, dataset, out)
    assert run(["train-dict", "--config", cfg]) == 0
    assert run(["encode", "--config", cfg]) == 0
    assert run(["train-svm", "--config", cfg]) == 0
    assert run(["predict", "--config", cfg]) == 0

    preds = read_csv(out / "predictions.csv")
    assert len(preds) == 60
    labels = [r.label for r in load_dataset(dataset)]
    agree = sum(p["label"] == l for p, l in zip(preds, labels))
    assert agree / len(labels) >= 0.9  # planted classes are easy


def test_run_experiment_fft_smoke_with_reps(tmp_path):
    dataset = make_dataset(tmp_path)
    out = tmp_path / "o"
    cfg = make_config(tmp_path, dataset, out)
    assert run(["run-experiment", "--config", cfg, "--method", "fft",
                "--reps", 2]) == 0
    rows = read_csv(out / "runs_fft.csv")
    assert len(rows) == 2
    assert {"rep", "seed", "accuracy", "construction_s", "encoding_s",
            "acc_c1", "acc_c2"} <= set(rows[0])
    assert 0.0 <= float(rows[0]["accuracy"]) <= 1.0
    report = (out / "report_fft.txt").read_text()
    assert "+/-" in report and "overall" in report
    assert (out / "confusion_fft_rep0.csv").exists()
    assert (out / "confusion_fft_rep1.csv").exists()


def test_experiments_share_split_across_methods(tmp_path):
    dataset = make_dataset(tmp_path)
    beats = build_beat_matrix(load_dataset(dataset), 40)
    counts = {"c1": 10, "c2": 10}

    class NullMethod:
        name = "null"

        def fit(self, train_beats):
            pass

        def transform(self, b):
            return b.samples[:4, :]

    _, _, split_a = run_single(beats, NullMethod(), counts, seed=7,
                               folds=2, c_grid=[1.0], gamma_grid=[1.0])
    _, _, split_b = run_single(beats, FftFeatures(8), counts, seed=7,
                               folds=2, c_grid=[1.0], gamma_grid=[1.0])
    assert np.array_equal(split_a[0], split_b[0])
    assert np.array_equal(split_a[1], split_b[1])


def test_wilcoxon_and_accuracy_tables_appear(tmp_path):
    dataset = make_dataset(tmp_path)
    out = tmp_path / "o"
    cfg = make_config(tmp_path, dataset, out)
    for method in ("sparse", "fft"):
        assert run(["run-experiment", "--config", cfg, "--method", method,
                    "--reps", 2]) == 0
    acc = read_csv(out / "accuracy_table.csv")
    assert {r["method"] for r in acc} == {"sparse", "fft"}
    wil = read_csv(out / "wilcoxon.csv")
    assert wil[0]["against"] == "sparse"
    assert 0.0 < float(wil[0]["p_value"]) <= 1.0
    timing = read_csv(out / "timing.csv")
    totals = [float(r["total_s"]) for r in timing]
    assert totals == sorted(totals, reverse=True)


def test_run_experiment_two_channel_dataset(tmp_path):
    from segdict.synthetic import generate_planted_dataset, write_beats_csv

    labels, ch1 = generate_planted_dataset(n_classes=2, beats_per_class=25,
                                           gamma=30, j_count=2, k=4, seed=5)
    _, ch2 = generate_planted_dataset(n_classes=2, beats_per_class=25,
                                      gamma=30, j_count=2, k=4, seed=6)
    data = tmp_path / "two.csv"
    write_beats_csv(data, labels, np.vstack([ch1, ch2]), channels=2)
    out = tmp_path / "o"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"dataset_path = {data}\n"
        "target_len = 30\n"       # beats span 60 rows after concatenation
        "j_count = 4\n"
        "k = 4\n"
        "lambda = 0.1\n"
        "outer_iters = 5\n"
        "folds = 2\n"
        "c_grid = 1.0,16.0\n"
        "gamma_grid = 0.5,8.0\n"
        "n_coeffs = 12\n"
        "train_counts = c1:8,c2:8\n"
        "seed = 0\n"
        f"output_dir = {out}\n", encoding="utf-8")
    assert run(["run-experiment", "--config", cfg, "--method", "sparse"]) == 0
    assert run(["run-experiment", "--config", cfg, "--method", "fft"]) == 0
    for method in ("sparse", "fft"):
        rows = read_csv(out / f"runs_{method}.csv")
        assert 0.0 <= float(rows[0]["accuracy"]) <= 1.0


def test_config_rejects_unknown_key(tmp_path):
    # the Newton and Lloyd controls are fixed in the library, not config keys
    cfg = tmp_path / "bad.cfg"
    for key in ("not_a_key", "newton_tol", "newton_max", "kmeans_max_iter"):
        cfg.write_text(f"dataset_path = x.csv\n{key} = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f":2: unknown key '{key}'$"):
            load_config(cfg)


def test_config_rejects_out_of_range(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lambda = -0.5\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_config_rejects_a_nan_lambda(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lambda = nan\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="lambda=nan"):
        load_config(cfg)


def test_config_rejects_non_positive_grid_values(tmp_path):
    cfg = tmp_path / "bad.cfg"
    for line, bad in (("c_grid = -1", "c_grid values must be positive, got -1"),
                      ("gamma_grid = 0,-2",
                       "gamma_grid values must be positive, got 0")):
        cfg.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=bad):
            load_config(cfg)


def test_config_rejects_repeated_train_counts_label(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("train_counts = c1:5,c2:3, c1 :7\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="train_counts repeats label 'c1'"):
        load_config(cfg)


def test_cli_surfaces_stage_errors_with_nonzero_exit(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dataset_path = missing.csv\ntrain_counts = a:1\n",
                   encoding="utf-8")
    code = run(["run-experiment", "--config", cfg, "--method", "fft"])
    assert code == 1
    err = capsys.readouterr().err
    assert "stage 'ingest'" in err


def test_train_svm_names_a_label_with_whitespace(tmp_path, capsys,
                                                 monkeypatch):
    from segdict import cli
    from segdict.beat_model import SparseCodeMatrix
    from segdict.serialize import save_codes, save_labels

    def no_search(*args):
        raise AssertionError("the grid search ran before the label check")

    monkeypatch.setattr(cli, "grid_search_cv", no_search)
    rng = np.random.default_rng(0)
    codes = np.hstack([rng.normal(size=(4, 6)) - 2.0,
                       rng.normal(size=(4, 6)) + 2.0])
    save_codes(tmp_path / "codes.txt", SparseCodeMatrix(codes, 0.1))
    save_labels(tmp_path / "labels.txt", ["N"] * 6 + ["N b"] * 6)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"c_grid = 1.0\ngamma_grid = 0.5\nfolds = 2\n"
                   f"output_dir = {tmp_path}\n", encoding="utf-8")
    assert run(["train-svm", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: stage 'train-svm': label 'N b' contains whitespace\n")


def test_predict_names_both_feature_sizes(tmp_path, capsys):
    from segdict.beat_model import SparseCodeMatrix
    from segdict.classifier import train_multiclass
    from segdict.serialize import save_codes, save_svm

    rng = np.random.default_rng(1)
    features = np.hstack([rng.normal(size=(4, 6)) - 2.0,
                          rng.normal(size=(4, 6)) + 2.0])
    save_svm(tmp_path / "svm_model.txt",
             train_multiclass(features, ["a"] * 6 + ["b"] * 6, 1.0, 0.5))
    save_codes(tmp_path / "codes.txt",
               SparseCodeMatrix(rng.normal(size=(5, 3)), 0.1))
    assert run(["predict", "--out", tmp_path]) == 1
    assert capsys.readouterr().err == (
        "error: stage 'predict': features have 5 rows, the model was "
        "trained on 4\n")
