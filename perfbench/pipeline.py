"""One benchmark pass: the library calls of `segdict run-experiment`, for
both feature methods, plus the artifact round-trips of the step-by-step
commands.  Timing stops before the independent checks run.
"""

from __future__ import annotations

import os
import resource
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

import segdict
from segdict import (baselines, beat_model, classifier, dict_learner,
                     evaluation, ingest, serialize)

import checks
from tracing import Tracer, installed
from workloads import FOLDS, J_COUNT, LAM


@dataclass
class PassResult:
    times: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    accuracy: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    kkt: float = 0.0
    # peak resident set size of this process when the timed part ended,
    # before any check had run
    rss_mib: float = 0.0
    failure: str | None = None


@dataclass
class _Method:
    """What one feature method produced in a pass, kept for the checks."""
    features: np.ndarray = None
    model: object = None
    model_back: object = None
    predicted: list = None
    artifacts: list = field(default_factory=list)   # (what, written, read)


def run_pass(wl, seed: int, csv_path: str, workdir: str, reference,
             tracer: Tracer | None = None) -> PassResult:
    """Run one pass; `reference` is (normalized beats, labels) from the
    generator.  With a tracer, the pass also yields per-layer figures."""
    res = PassResult()
    hooks = _hooks() if tracer is not None else {}
    try:
        with (installed(tracer, segdict, hooks) if tracer is not None
              else nullcontext()):
            state = _timed_pass(wl, seed, csv_path, workdir, res, tracer)
        res.rss_mib = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception as exc:  # the pass is one operation; record its failure
        res.failure = f"{type(exc).__name__}: {exc}"
        return res
    try:
        _check(wl, state, reference, res)
    except Exception as exc:  # any error in a check fails the check
        res.failure = (f"check: {exc}" if isinstance(exc, checks.CheckError)
                       else f"check: {type(exc).__name__}: {exc}")
    if tracer is not None and res.failure is None:
        res.layers = _layers(tracer, res)
    return res


class _Stages:
    """Adds each stage's wall time to `times[key]` and, in a traced pass,
    records the stage as a span."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.times = dict.fromkeys(("pass_s", "fit_s", "encode_s",
                                    "classify_s"), 0.0)

    @contextmanager
    def __call__(self, name: str, key: str | None = None):
        start = time.perf_counter()
        with (self.tracer.span(name) if self.tracer is not None
              else nullcontext()):
            yield
        if key is not None:
            self.times[key] += time.perf_counter() - start


def _sparse_features(wl, seed, beats, train_beats, spec, m, state, stage,
                     path):
    """Fit dictionaries as SparseDictFeatures.fit does (with a log_fn),
    round-trip them, encode every beat, round-trip the codes."""
    with stage("fit.sparse", "fit_s"):
        cfg = dict_learner.TrainConfig(k=wl.k, lam=LAM,
                                       outer_iters=wl.outer_iters, seed=seed)
        subset = evaluation.sample_subset(train_beats.count, cfg.subset_size,
                                          cfg.seed)
        dicts = dict_learner.train_segment_dictionaries(
            train_beats, spec, cfg, subset,
            lambda j, it, obj: state["log"].append((j, it, obj)))
    with stage("roundtrip.sparse"):
        serialize.save_dictionaries(path("dictionaries"), dicts)
        back = serialize.load_dictionaries(path("dictionaries"))
    with stage("encode.sparse", "encode_s"):
        codes = dict_learner.encode_beats(beats, back, LAM)
    with stage("roundtrip.sparse"):
        serialize.save_codes(path("codes"), codes)
        codes_back = serialize.load_codes(path("codes"))
    m.artifacts += [(f"dictionary {d.segment_index}", d.atoms, e.atoms)
                    for d, e in zip(dicts, back)]
    m.artifacts += [("codes", codes.codes, codes_back.codes),
                    ("lambda", codes.lam, codes_back.lam)]
    m.features = codes_back.codes
    state.update(sparse_fitted=dicts, codes=codes_back)


def _kmeans_features(wl, seed, beats, train_beats, spec, m, state, stage,
                     path):
    """Fit codebooks with run-experiment's VqFeatures, round-trip them,
    encode every beat as one-hot code words, round-trip the code words."""
    with stage("fit.kmeans", "fit_s"):
        vq = evaluation.VqFeatures(spec, wl.k, "random", seed)
        vq.fit(train_beats)
        books = vq.codebooks
    with stage("roundtrip.kmeans"):
        serialize.save_matrices(path("codebooks"),
                                [(f"segment_{cb.segment_index}", cb.centers)
                                 for cb in books])
        blocks = serialize.load_matrices(path("codebooks"))
        back = [baselines.VqCodebook(blocks[f"segment_{j}"], j)
                for j in range(1, spec.j_count + 1)]
    with stage("encode.kmeans", "encode_s"):
        words = baselines.vq_encode(beats, spec, back)
        m.features = baselines.one_hot_codes(words)
    with stage("roundtrip.kmeans"):
        serialize.save_matrices(path("codes"), [("codes", words.codes)])
        words_back = serialize.load_matrices(path("codes"))["codes"]
    m.artifacts += [(f"codebook {cb.segment_index}", cb.centers, e.centers)
                    for cb, e in zip(books, back)]
    m.artifacts.append(("vq codes", words.codes,
                        words_back.astype(words.codes.dtype)))
    state["kmeans_fitted"] = books


FEATURES = {"sparse": _sparse_features, "kmeans": _kmeans_features}


def _timed_pass(wl, seed, csv_path, workdir, res, tracer):
    stage = _Stages(tracer)
    state = {"methods": {}, "log": []}
    with stage("pass", "pass_s"):
        records = ingest.load_dataset(csv_path)
        beats = ingest.build_beat_matrix(records, wl.gamma)
        train_idx, test_idx = evaluation.stratified_split(
            beats, evaluation.SplitPlan(wl.train_counts, seed))
        train_beats = beats.take(train_idx)
        spec = beat_model.SegmentSpec.equal(beats.gamma, J_COUNT)
        labels = np.array(beats.labels)
        state.update(beats=beats, train_idx=train_idx, test_idx=test_idx,
                     spec=spec, labels=labels)
        for name, features in FEATURES.items():
            m = state["methods"][name] = _Method()
            features(wl, seed, beats, train_beats, spec, m, state, stage,
                     lambda stem: os.path.join(workdir, f"{name}_{stem}.txt"))
            F_train, y_train = m.features[:, train_idx], labels[train_idx]
            with stage(f"classify.{name}", "classify_s"):
                c_pen, gam = classifier.grid_search_cv(
                    F_train, y_train, wl.c_grid, wl.gamma_grid, FOLDS,
                    seed)
                m.model = classifier.train_multiclass(F_train, y_train,
                                                      c_pen, gam)
            with stage(f"roundtrip.{name}"):
                serialize.save_svm(os.path.join(workdir, f"{name}_svm.txt"),
                                   m.model)
                m.model_back = serialize.load_svm(
                    os.path.join(workdir, f"{name}_svm.txt"))
            with stage(f"predict.{name}"):
                m.predicted = classifier.predict_batch(
                    m.model_back, m.features[:, test_idx])
                report = evaluation.evaluate(m.predicted, labels[test_idx])
            res.accuracy[name] = report.overall_accuracy
    res.times = dict(stage.times, encoded_beats=float(beats.count
                                                      * len(FEATURES)))
    return state


def _check(wl, state, reference, res) -> None:
    """Every independent output check of one pass; also fills res.counts."""
    ref_beats, ref_labels = reference
    beats, labels, spec = state["beats"], state["labels"], state["spec"]
    tr, te = state["train_idx"], state["test_idx"]
    checks.ingest(beats.samples, beats.labels, ref_beats, ref_labels)
    checks.require(np.intersect1d(tr, te).size == 0
                   and tr.size + te.size == beats.count
                   and all(int(np.sum(labels[tr] == c)) == n
                           for c, n in wl.train_counts.items()),
                   "the split does not follow the per-class counts")

    dicts = state["sparse_fitted"]
    checks.atoms([d.atoms for d in dicts])
    log = state["log"]
    for j in range(1, J_COUNT + 1):
        checks.never_rises([obj for s, _, obj in log if s == j],
                           f"segment {j} objective")
    codes = state["codes"]
    D = np.vstack([d.atoms for d in dicts])
    checks.lasso(D, beats.samples, codes.codes, LAM)

    cbs = state["kmeans_fitted"]
    for cb in cbs:
        checks.never_rises(cb.distortions, f"segment {cb.segment_index} "
                           "Lloyd distortion")
    segments = [beats.samples[s:e] for s, e in spec.boundaries]
    checks.vq(segments, [cb.centers for cb in cbs],
              state["methods"]["kmeans"].features, wl.k)

    support, kkt = {}, {}
    for name, m in state["methods"].items():
        for what, written, read in m.artifacts:
            checks.identical(f"{name} {what}", written, read)
        kkt[name] = _check_model(m, state, labels[tr])
        checks.votes([{"sv": mc.support_vectors, "alphas": mc.alphas,
                       "bias": mc.bias, "gamma": mc.gamma,
                       "pair": mc.class_pair} for mc in m.model_back.machines],
                     m.model_back.classes, m.features[:, te], m.predicted)
        support[name] = sum(mc.alphas.size for mc in m.model.machines)

    res.kkt = max(kkt.values())
    if wl.separable_bar is not None:
        nn = checks.one_nn_accuracy(ref_beats[:, tr], labels[tr],
                                    ref_beats[:, te], labels[te])
        checks.require(nn >= wl.separable_bar,
                       f"1-NN reaches only {nn:.3f}")

    res.counts = {
        "alternations": len(log),
        "nonzeros": int(np.count_nonzero(codes.codes)),
        "lloyd_iters": sum(len(cb.distortions) for cb in cbs),
        "support_vectors_sparse": support["sparse"],
        "support_vectors_kmeans": support["kmeans"],
        "correct_sparse": int(round(res.accuracy["sparse"] * te.size)),
        "correct_kmeans": int(round(res.accuracy["kmeans"] * te.size)),
    }


def _check_model(m, state, train_labels) -> float:
    """Round-trip, box and equality conditions of every final machine; the
    largest training-set KKT violation among them."""
    tr = state["train_idx"]
    F = m.features[:, tr]
    worst = 0.0
    checks.require(m.model.classes == m.model_back.classes,
                   "model classes did not load back")
    for mc, back in zip(m.model.machines, m.model_back.machines):
        for what in ("support_vectors", "alphas", "sv_indices"):
            checks.identical(f"machine {mc.class_pair} {what}",
                             getattr(mc, what), getattr(back, what))
        checks.require((mc.bias, mc.gamma, mc.c_penalty, mc.class_pair,
                        mc.converged)
                       == (back.bias, back.gamma, back.c_penalty,
                           back.class_pair, back.converged),
                       f"machine {mc.class_pair} header did not load back")
        a, b = mc.class_pair
        mask = (train_labels == a) | (train_labels == b)
        y = np.where(train_labels[mask] == a, 1.0, -1.0)
        worst = max(worst, checks.machine(
            F[:, mask], y, mc.support_vectors, mc.alphas, mc.bias, mc.gamma,
            mc.c_penalty, mc.sv_indices))
    return worst


# --------------------------------------------------------------- tracing


def _size(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _hooks() -> dict:
    return {
        "dict_learner.lagrange_dual_update":
            lambda a, kw, r: {"newton": len(r[1].r_history) - 1},
        "dict_learner.encode_beats":
            lambda a, kw, r: {"beats": r.count,
                              "nnz": int(np.count_nonzero(r.codes))},
        "sparse_coder.batch_encode":
            lambda a, kw, r: {"columns": int(np.shape(a[1])[1])},
        "classifier.smo_train":
            lambda a, kw, r: {"converged": bool(r.converged)},
        "classifier.predict_batch":
            lambda a, kw, r: {"beats": len(r)},
        "baselines.kmeans_train":
            lambda a, kw, r: {"lloyd": len(r.distortions)},
        "serialize.save_matrices": _size,
        "serialize.save_dictionaries": _size,
        "serialize.save_codes": _size,
        "serialize.save_svm": _size,
    }


def _layers(tr: Tracer, res: PassResult) -> dict:
    """Per-layer figures of one traced pass, read from its spans."""
    def note(sids, key):
        return sum(tr.notes[s][key] for s in sids)

    def outermost(prefix):
        return [sid for sid, s in enumerate(tr.spans)
                if s[0].startswith(prefix)
                and not (s[1] >= 0
                         and tr.spans[s[1]][0].startswith("serialize."))]

    fit = "dict_learner.train_segment_dictionaries"
    grid = "classifier.grid_search_cv"
    dual = tr.select("dict_learner.lagrange_dual_update")
    train_coding = tr.select("sparse_coder.batch_encode", inside=fit)
    encode_coding = tr.select("sparse_coder.batch_encode",
                              inside="dict_learner.encode_beats")
    encodes = tr.select("dict_learner.encode_beats")
    smo = tr.select("classifier.smo_train")
    predict = tr.select("classifier.predict_batch", outside=grid)
    kmeans = tr.select("baselines.kmeans_train")
    saves = outermost("serialize.save_")
    return {
        "ingest.load_s": tr.total(tr.select("ingest.load_dataset")),
        "ingest.build_s": tr.total(tr.select("ingest.build_beat_matrix")),
        "dict_learner.fit_s": tr.total(tr.select(fit)),
        "dict_learner.alternations": res.counts["alternations"],
        "dict_learner.dual_update_s": tr.total(dual),
        "dict_learner.newton_steps": note(dual, "newton"),
        "dict_learner.encode_s": tr.total(encodes),
        "sparse_coder.train_coding_s": tr.total(train_coding),
        "sparse_coder.train_columns": note(train_coding, "columns"),
        "sparse_coder.encode_us_per_beat":
            1e6 * tr.total(encode_coding) / note(encode_coding, "columns"),
        "sparse_coder.nnz_per_beat":
            note(encodes, "nnz") / note(encodes, "beats"),
        "classifier.grid_search_s": tr.total(tr.select(grid)),
        "classifier.smo_s": tr.total(smo),
        "classifier.smo_calls": len(smo),
        "classifier.unconverged_machines":
            sum(not tr.notes[s]["converged"] for s in smo),
        "classifier.train_s": tr.total(
            tr.select("classifier.train_multiclass", outside=grid)),
        "classifier.support_vectors": (res.counts["support_vectors_sparse"]
                                       + res.counts["support_vectors_kmeans"]),
        "classifier.kkt_violation_max": res.kkt,
        "classifier.predict_beats_per_s":
            note(predict, "beats") / tr.total(predict),
        "baselines.kmeans_fit_s": tr.total(kmeans),
        "baselines.lloyd_iters": note(kmeans, "lloyd"),
        "baselines.vq_encode_s": (
            tr.total(tr.select("baselines.vq_encode"))
            + tr.total(tr.select("baselines.one_hot_codes"))),
        "serialize.save_s": tr.total(saves),
        "serialize.load_s": tr.total(outermost("serialize.load_")),
        "serialize.bytes": note(saves, "bytes"),
        "evaluation.accuracy_sparse": res.accuracy["sparse"],
        "evaluation.accuracy_kmeans": res.accuracy["kmeans"],
    }
