"""Segment-wise sparse dictionary features for heartbeat classification.

Beats are split into segments, one dictionary per segment is learned by
alternating feature-sign sparse coding with Lagrange-dual Newton updates,
and the stacked dictionary encodes whole beats into sparse codes used as
classifier features.  VQ and DFT baselines, an SMO-trained RBF-SVM, and an
evaluation harness round out the pipeline.
"""

from .beat_model import (BeatMatrix, SegmentDictionary, SegmentSpec,
                         SparseCodeMatrix, segment_view, stack_dictionaries)
from .baselines import (VqCodebook, VqCodeMatrix, assign_codes, fft_features,
                        kmeans_train, one_hot_codes, vq_encode)
from .classifier import (MultiClassSvm, TrainedSvm, grid_search_cv,
                         predict_batch, rbf_gram, smo_train, train_multiclass)
from .dict_learner import (DualState, TrainConfig, encode_beats,
                           lagrange_dual_update, train_segment_dictionaries)
from .evaluation import (EvalReport, FftFeatures, SparseDictFeatures,
                         SplitPlan, VqFeatures, evaluate, run_single,
                         stratified_split, wilcoxon_rank_sum)
from .ingest import (RawBeatRecord, build_beat_matrix, load_dataset,
                     normalize_beat, resample_beat)
from .sparse_coder import batch_encode, coding_objective
from .synthetic import generate_planted_dataset, write_beats_csv

__version__ = "0.1.0"

__all__ = [
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
]
