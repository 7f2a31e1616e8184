"""Command-line entry point wiring ingestion, training, and evaluation.

Commands: train-dict, encode, train-svm, predict, run-experiment,
gen-synthetic.  Configuration comes from a flat ``key = value`` file; the
--seed/--method/--reps/--out flags override file values.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .classifier import (DEFAULT_C_GRID, DEFAULT_GAMMA_GRID, _require_positive,
                         grid_search_cv, predict_batch, train_multiclass)
from .beat_model import BeatMatrix, SegmentSpec
from .dict_learner import TrainConfig, encode_beats, train_segment_dictionaries
from .errors import ConfigError, SegdictError
from .evaluation import (EvalReport, FftFeatures, SparseDictFeatures, SplitPlan,
                         VqFeatures, run_single, sample_subset,
                         split_by_labels, wilcoxon_rank_sum)
from .ingest import build_beat_matrix, load_dataset
from . import serialize
from .synthetic import generate_planted_dataset, write_beats_csv

METHODS = ("sparse", "kmeans", "kmeanspp", "fft")


@dataclass
class RunConfig:
    """Validated run settings; unknown file keys are rejected."""

    dataset_path: str = ""
    target_len: int = 300
    j_count: int = 6
    k: int = 32
    lam: float = 0.15
    outer_iters: int = 30
    subset_size: int = 1000
    n_coeffs: int = 100
    c_grid: tuple[float, ...] = tuple(DEFAULT_C_GRID)
    gamma_grid: tuple[float, ...] = tuple(DEFAULT_GAMMA_GRID)
    folds: int = 3
    train_counts: dict[str, int] = field(default_factory=dict)
    seed: int = 0
    reps: int = 1
    output_dir: str = "out"

    def __post_init__(self):
        if self.target_len < 2:
            raise ConfigError("target_len must be >= 2")
        if self.j_count < 1 or self.k < 2 or not self.lam > 0:
            raise ConfigError(f"j_count >= 1, k >= 2 and lambda > 0 required, got "
                              f"j_count={self.j_count}, k={self.k}, lambda={self.lam:g}")
        if self.outer_iters < 1 or self.subset_size < 1 or self.n_coeffs < 1:
            raise ConfigError(f"outer_iters, subset_size and n_coeffs must be >= 1, "
                              f"got {self.outer_iters}, {self.subset_size}, {self.n_coeffs}")
        if self.folds < 2 or self.reps < 1:
            raise ConfigError("folds must be >= 2 and reps >= 1")
        if not self.c_grid or not self.gamma_grid:
            raise ConfigError("svm grids must be nonempty")
        for name in ("c_grid", "gamma_grid"):
            try:        # the rule grid_search_cv applies: finite and > 0
                _require_positive(f"{name} values", getattr(self, name))
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

    def train_config(self, seed: int | None = None) -> TrainConfig:
        return TrainConfig(k=self.k, lam=self.lam, outer_iters=self.outer_iters,
                           seed=self.seed if seed is None else seed,
                           subset_size=self.subset_size)


def _parse_counts(text: str) -> dict[str, int]:
    counts = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ConfigError(f"bad train_counts entry {item!r} (want label:count)")
        cls, cnt = (part.strip() for part in item.split(":", 1))
        if cls in counts:
            raise ConfigError(f"train_counts repeats label {cls!r}")
        counts[cls] = int(cnt)
    return counts


_PARSERS = {
    "dataset_path": str,
    "target_len": int,
    "j_count": int,
    "k": int,
    "lambda": float,
    "outer_iters": int,
    "subset_size": int,
    "n_coeffs": int,
    "c_grid": lambda s: tuple(float(v) for v in s.split(",") if v.strip()),
    "gamma_grid": lambda s: tuple(float(v) for v in s.split(",") if v.strip()),
    "folds": int,
    "train_counts": _parse_counts,
    "seed": int,
    "reps": int,
    "output_dir": str,
}
_KEY_TO_FIELD = {k: ("lam" if k == "lambda" else k) for k in _PARSERS}


def load_config(path) -> RunConfig:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _PARSERS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[_KEY_TO_FIELD[key]] = _PARSERS[key](val)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return RunConfig(**values)


class StageError(SegdictError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except (SegdictError, ValueError, OSError, IndexError) as exc:
        raise StageError(name, exc) from exc


def _load_beats(cfg: RunConfig) -> BeatMatrix:
    if not cfg.dataset_path:
        raise ConfigError("dataset_path is required")
    records = _stage("ingest", load_dataset, cfg.dataset_path)
    return _stage("ingest", build_beat_matrix, records, cfg.target_len)


def _config_from_args(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "reps", None) is not None:
        updates["reps"] = args.reps
    if getattr(args, "out", None) is not None:
        updates["output_dir"] = args.out
    return replace(cfg, **updates) if updates else cfg


def _train_indices(cfg: RunConfig, labels) -> np.ndarray:
    """The training beats: a seeded split by cfg.train_counts, else all."""
    if not cfg.train_counts:
        return np.arange(len(labels))
    return _stage("split", split_by_labels, labels,
                  SplitPlan(cfg.train_counts, cfg.seed))[0]


def _make_method(name: str, cfg: RunConfig, seed: int, gamma: int):
    spec = SegmentSpec.equal(gamma, cfg.j_count)
    if name == "sparse":
        return SparseDictFeatures(spec, cfg.train_config(seed))
    if name == "kmeans":
        return VqFeatures(spec, cfg.k, "random", seed,
                          subset_size=cfg.subset_size)
    if name == "kmeanspp":
        return VqFeatures(spec, cfg.k, "kmeanspp", seed,
                          subset_size=cfg.subset_size)
    if name == "fft":
        return FftFeatures(cfg.n_coeffs)
    raise ConfigError(f"unknown method {name!r}")


def _write_text_table(path, header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in [header] + rows:
            fh.write("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip()
                     + "\n")


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# commands

def cmd_gen_synthetic(args) -> int:
    labels, samples = _stage(
        "gen-synthetic", generate_planted_dataset,
        n_classes=args.classes, beats_per_class=args.beats_per_class,
        gamma=args.gamma, j_count=args.segments, k=args.atoms,
        noise=args.noise, spread=args.spread,
        seed=args.seed)
    out = args.out or "synthetic.csv"
    _stage("gen-synthetic", write_beats_csv, out, labels, samples)
    print(f"wrote {len(labels)} beats to {out}")
    return 0


def cmd_train_dict(args) -> int:
    cfg = _config_from_args(args)
    beats = _load_beats(cfg)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    train_idx = _train_indices(cfg, beats.labels)
    subset = train_idx[sample_subset(train_idx.size, cfg.subset_size, cfg.seed)]

    log_rows: list[list] = []

    def log_fn(segment, alternation, objective):
        log_rows.append([segment, alternation, f"{objective:.17g}"])

    spec = SegmentSpec.equal(beats.gamma, cfg.j_count)
    dicts = _stage("train-dict", train_segment_dictionaries, beats, spec,
                   cfg.train_config(), subset, log_fn)
    dict_path = out_dir / "dictionaries.txt"
    serialize.save_dictionaries(dict_path, dicts)
    log_path = out_dir / "train_log.csv"
    new_file = not log_path.exists()
    with open(log_path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(["segment", "alternation", "objective"])
        writer.writerows(log_rows)
    print(f"wrote {dict_path} and {log_path}")
    return 0


def cmd_encode(args) -> int:
    cfg = _config_from_args(args)
    beats = _load_beats(cfg)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dict_path = args.dictionaries or out_dir / "dictionaries.txt"
    dicts = _stage("encode", serialize.load_dictionaries, dict_path)
    codes = _stage("encode", encode_beats, beats, dicts, cfg.lam)
    serialize.save_codes(out_dir / "codes.txt", codes)
    serialize.save_labels(out_dir / "labels.txt", beats.labels)
    print(f"wrote {out_dir / 'codes.txt'}")
    return 0


def cmd_train_svm(args) -> int:
    cfg = _config_from_args(args)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    codes = _stage("train-svm", serialize.load_codes,
                   args.codes or out_dir / "codes.txt")
    labels = np.array(_stage("train-svm", serialize.load_labels,
                             args.labels or out_dir / "labels.txt"))
    if labels.size != codes.count:
        raise StageError("train-svm",
                         ValueError("codes and labels files disagree on count"))
    train_idx = _train_indices(cfg, labels)
    # the model file could not hold such a class: fail before the search
    _stage("train-svm", serialize._check_labels, np.unique(labels[train_idx]))
    c_penalty, gamma = _stage("train-svm", grid_search_cv,
                              codes.codes[:, train_idx], labels[train_idx],
                              cfg.c_grid, cfg.gamma_grid, cfg.folds, cfg.seed)
    model = _stage("train-svm", train_multiclass, codes.codes[:, train_idx],
                   labels[train_idx], c_penalty, gamma)
    _stage("train-svm", serialize.save_svm, out_dir / "svm_model.txt", model)
    print(f"chose C={c_penalty:g} gamma={gamma:g}; wrote {out_dir / 'svm_model.txt'}")
    return 0


def cmd_predict(args) -> int:
    cfg = _config_from_args(args)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = _stage("predict", serialize.load_svm,
                   args.model or out_dir / "svm_model.txt")
    codes = _stage("predict", serialize.load_codes,
                   args.codes or out_dir / "codes.txt")
    pred = _stage("predict", predict_batch, model, codes.codes)
    _write_csv(out_dir / "predictions.csv", ["index", "label"],
               [[i, p] for i, p in enumerate(pred)])
    print(f"wrote {out_dir / 'predictions.csv'}")
    return 0


def _aggregate_runs(out_dir: Path) -> None:
    """Rebuild the cross-method tables from every runs_*.csv present."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(out_dir.glob("runs_*.csv")):
        method = path.stem[len("runs_"):]
        with open(path, "r", encoding="utf-8", newline="") as fh:
            runs[method] = list(csv.DictReader(fh))
    if not runs:
        return

    class_cols = sorted({key[4:] for rows in runs.values() for key in rows[0]
                         if key.startswith("acc_")})

    # per-class accuracy table (mean +/- std over reps, percent)
    header = ["method"] + class_cols + ["overall"]
    acc_rows, acc_txt = [], []
    for method, rows in runs.items():
        row_csv, row_txt = [method], [method]
        for col in class_cols + ["accuracy"]:
            key = "accuracy" if col == "accuracy" else f"acc_{col}"
            vals = [float(r[key]) for r in rows if r.get(key) not in (None, "")]
            mean = float(np.mean(vals)) if vals else float("nan")
            std = float(np.std(vals)) if vals else float("nan")
            row_csv.append(f"{100 * mean:.2f}")
            row_txt.append(f"{100 * mean:.2f} +/- {100 * std:.2f}")
        acc_rows.append(row_csv)
        acc_txt.append(row_txt)
    _write_csv(out_dir / "accuracy_table.csv", header, acc_rows)
    _write_text_table(out_dir / "accuracy_table.txt", header, acc_txt)

    # rank-sum table of every method against the sparse runs
    if "sparse" in runs and len(runs) > 1:
        sparse_acc = [float(r["accuracy"]) for r in runs["sparse"]]
        rows = []
        for method in runs:
            if method == "sparse":
                continue
            other = [float(r["accuracy"]) for r in runs[method]]
            _, p = wilcoxon_rank_sum(other, sparse_acc)
            rows.append([method, "sparse", f"{p:.6g}"])
        header = ["method", "against", "p_value"]
        _write_csv(out_dir / "wilcoxon.csv", header, rows)
        _write_text_table(out_dir / "wilcoxon.txt", header, rows)

    # timing table (median over reps), sorted by total descending
    timing = []
    for method, rows in runs.items():
        cons = float(np.median([float(r["construction_s"]) for r in rows]))
        enc = float(np.median([float(r["encoding_s"]) for r in rows]))
        timing.append([method, cons, enc, cons + enc])
    timing.sort(key=lambda r: -r[3])
    header = ["method", "construction_s", "encoding_s", "total_s"]
    rows = [[m, f"{c:.6f}", f"{e:.6f}", f"{t:.6f}"] for m, c, e, t in timing]
    _write_csv(out_dir / "timing.csv", header, rows)
    _write_text_table(out_dir / "timing.txt", header, rows)


def cmd_run_experiment(args) -> int:
    cfg = _config_from_args(args)
    if not cfg.train_counts:
        raise StageError("split", ConfigError("train_counts is required"))
    method_name = args.method
    beats = _load_beats(cfg)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    class_names = sorted(set(beats.labels))
    rows = []
    reports: list[EvalReport] = []
    for rep in range(cfg.reps):
        seed = cfg.seed + rep
        method = _make_method(method_name, cfg, seed, beats.gamma)
        report, (c_penalty, gamma), (train_idx, test_idx) = _stage(
            "experiment", run_single, beats, method, cfg.train_counts, seed,
            cfg.folds, cfg.c_grid, cfg.gamma_grid)
        reports.append(report)
        row = [rep, seed, f"{c_penalty:g}", f"{gamma:g}",
               f"{report.overall_accuracy:.6f}",
               f"{report.timing['construction_s']:.6f}",
               f"{report.timing['encoding_s']:.6f}"]
        row += [f"{report.per_class_accuracy.get(c, float('nan')):.6f}"
                for c in class_names]
        rows.append(row)
        _write_csv(out_dir / f"confusion_{method_name}_rep{rep}.csv",
                   ["true\\pred"] + list(report.classes),
                   [[cls] + list(map(int, report.confusion[i]))
                    for i, cls in enumerate(report.classes)])

    header = (["rep", "seed", "c_penalty", "gamma", "accuracy",
               "construction_s", "encoding_s"]
              + [f"acc_{c}" for c in class_names])
    _write_csv(out_dir / f"runs_{method_name}.csv", header, rows)

    accs = [r.overall_accuracy for r in reports]
    summary = [["overall", f"{100 * np.mean(accs):.2f} +/- {100 * np.std(accs):.2f}"]]
    for c in class_names:
        vals = [r.per_class_accuracy[c] for r in reports
                if c in r.per_class_accuracy]
        if vals:
            summary.append([c, f"{100 * np.mean(vals):.2f} +/- "
                               f"{100 * np.std(vals):.2f}"])
    _write_text_table(out_dir / f"report_{method_name}.txt",
                      ["class", "accuracy_pct"], summary)
    _aggregate_runs(out_dir)
    print(f"{method_name}: accuracy {np.mean(accs):.4f} over {cfg.reps} rep(s); "
          f"reports in {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segdict",
        description="Segment-wise sparse dictionary features for heartbeat "
                    "classification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")

    p = sub.add_parser("gen-synthetic", help="emit a planted-dictionary CSV")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--beats-per-class", type=int, default=125)
    p.add_argument("--gamma", type=int, default=200)
    p.add_argument("--segments", type=int, default=4)
    p.add_argument("--atoms", type=int, default=16)
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--spread", type=float, default=0.5)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("train-dict", help="learn segment dictionaries")
    common(p)
    p.set_defaults(func=cmd_train_dict)

    p = sub.add_parser("encode", help="encode all beats with saved dictionaries")
    common(p)
    p.add_argument("--dictionaries", help="dictionary file (default out dir)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("train-svm", help="grid-search and train the classifier")
    common(p)
    p.add_argument("--codes", help="codes file (default out dir)")
    p.add_argument("--labels", help="labels file (default out dir)")
    p.set_defaults(func=cmd_train_svm)

    p = sub.add_parser("predict", help="label codes with a saved model")
    common(p)
    p.add_argument("--model", help="model file (default out dir)")
    p.add_argument("--codes", help="codes file (default out dir)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("run-experiment", help="full pipeline for one method")
    common(p)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--reps", type=int, help="repetitions with distinct seeds")
    p.set_defaults(func=cmd_run_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SegdictError, OSError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
