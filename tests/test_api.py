"""Package surface: ``segdict.__all__`` lists the public names, no public
solver callable takes a tolerance or cap, the functions the benchmark
traces exist, and the package needs nothing beyond numpy."""

import importlib.util
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import segdict

REPO = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = {
    "BeatMatrix", "SegmentDictionary", "SegmentSpec", "SparseCodeMatrix",
    "segment_view", "stack_dictionaries",
    "VqCodebook", "VqCodeMatrix", "assign_codes", "fft_features",
    "kmeans_train", "one_hot_codes", "vq_encode",
    "MultiClassSvm", "TrainedSvm", "grid_search_cv", "predict_batch",
    "rbf_gram", "smo_train", "train_multiclass",
    "DualState", "TrainConfig", "encode_beats", "lagrange_dual_update",
    "train_segment_dictionaries",
    "EvalReport", "FftFeatures", "SparseDictFeatures", "SplitPlan",
    "VqFeatures", "evaluate", "run_single", "stratified_split",
    "wilcoxon_rank_sum",
    "RawBeatRecord", "build_beat_matrix", "load_dataset", "normalize_beat",
    "resample_beat",
    "batch_encode", "coding_objective",
    "generate_planted_dataset", "write_beats_csv",
}

PIPELINE_WITHOUT_SCIPY = """
import sys
import numpy as np
import segdict

labels, raw = segdict.generate_planted_dataset(2, 12, gamma=24, j_count=2,
                                               k=4, seed=0)
beats = segdict.BeatMatrix(np.column_stack(
    [segdict.normalize_beat(c) for c in raw.T]), tuple(labels))
spec = segdict.SegmentSpec.equal(24, 2)
cfg = segdict.TrainConfig(k=4, lam=0.1, outer_iters=3)
dicts = segdict.train_segment_dictionaries(beats, spec, cfg, np.arange(24))
codes = segdict.encode_beats(beats, dicts, 0.1)
segdict.grid_search_cv(codes.codes, np.array(labels), (1.0, 4.0),
                       (0.5,), 2, 0)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(loaded)
"""


def test_all_names_exactly_the_imported_public_attributes():
    assert len(segdict.__all__) == len(set(segdict.__all__))
    public = {name for name, value in vars(segdict).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(segdict.__all__) == public


def test_public_names_are_the_pinned_list():
    # a name leaves or joins the package surface only with this list
    assert len(PUBLIC_NAMES) == 43
    assert set(segdict.__all__) == PUBLIC_NAMES


def test_every_traced_benchmark_function_exists():
    # perfbench/tracing.py imports only the standard library; its TRACED
    # pairs are looked up with getattr, so a missing name breaks traced runs
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{home}.{fname}" for home, fname in tracing.TRACED
               if not callable(getattr(importlib.import_module(
                   f"segdict.{home}"), fname, None))]
    assert missing == []


def test_dual_update_returns_its_newton_history():
    # the benchmark counts Newton steps as len(state.r_history) - 1
    rng = np.random.default_rng(0)
    _, state = segdict.lagrange_dual_update(
        rng.normal(size=(3, 8)), rng.normal(size=(4, 8)))
    assert isinstance(state.r_history, tuple) and len(state.r_history) >= 1


def test_no_solver_callable_takes_a_solver_knob():
    # feature-sign search, the dual Newton method, SMO and Lloyd's k-means
    # run at fixed tolerances and caps
    knobs = {"opts", "tol", "max_sweeps", "max_iter", "opt_tol",
             "newton_tol", "newton_max", "on_step"}
    solvers = {"segdict.sparse_coder", "segdict.dict_learner",
               "segdict.classifier", "segdict.baselines",
               "segdict.evaluation"}
    taken = []
    for name in segdict.__all__:
        value = getattr(segdict, name)
        if callable(value) and value.__module__ in solvers:
            params = set(inspect.signature(value).parameters)
            taken += [f"{name}({p})" for p in sorted(params & knobs)]
    assert taken == []


def test_fit_encode_and_grid_search_import_no_scipy():
    src = str(Path(segdict.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PIPELINE_WITHOUT_SCIPY],
                         env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[]"
