"""In-memory spans around the program's public functions.

A traced pass swaps each listed function, in every segdict module that
holds a reference to it, for a wrapper that records a span (name, parent,
start, end) and lets a hook read the call's arguments and result.  Nothing
in the program changes; the originals are put back when the pass ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

NAME, PARENT, START, END = range(4)

# (module, function): the public calls whose time each layer metric sums
TRACED = (
    ("ingest", "load_dataset"), ("ingest", "build_beat_matrix"),
    ("dict_learner", "train_segment_dictionaries"),
    ("dict_learner", "lagrange_dual_update"),
    ("dict_learner", "encode_beats"),
    ("sparse_coder", "batch_encode"),
    ("classifier", "grid_search_cv"), ("classifier", "train_multiclass"),
    ("classifier", "smo_train"), ("classifier", "predict_batch"),
    ("baselines", "kmeans_train"), ("baselines", "vq_encode"),
    ("baselines", "one_hot_codes"),
    ("serialize", "save_matrices"), ("serialize", "load_matrices"),
    ("serialize", "save_dictionaries"), ("serialize", "load_dictionaries"),
    ("serialize", "save_codes"), ("serialize", "load_codes"),
    ("serialize", "save_svm"), ("serialize", "load_svm"),
    ("evaluation", "stratified_split"), ("evaluation", "evaluate"),
)


class Tracer:
    """Spans as [name, parent, start, end] lists plus per-span notes."""

    def __init__(self):
        self.spans: list[list] = []
        self.notes: dict[int, dict] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                self.notes[sid] = hook(args, kwargs, result)
            return result
        return traced

    # ----------------------------------------------------------------- queries

    def under(self, sid: int, ancestor: str) -> bool:
        parent = self.spans[sid][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == ancestor:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def select(self, name: str, inside: str | None = None,
               outside: str | None = None) -> list[int]:
        return [sid for sid, s in enumerate(self.spans) if s[NAME] == name
                and (inside is None or self.under(sid, inside))
                and (outside is None or not self.under(sid, outside))]

    def total(self, sids) -> float:
        return sum(self.spans[s][END] - self.spans[s][START] for s in sids)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover
        (children are nested in their parent and never overlap)."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        out: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s[NAME]] = out.get(s[NAME], 0.0) + t
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end"],
                       "spans": self.spans,
                       "notes": {str(k): v for k, v in self.notes.items()},
                       "self_s": self.self_times()}, fh)


@contextmanager
def installed(tracer: Tracer, package, hooks: dict):
    """Wrap every TRACED function wherever a segdict module references it."""
    modules = [package] + [getattr(package, m) for m in
                           ("ingest", "sparse_coder", "dict_learner",
                            "baselines", "classifier", "serialize",
                            "evaluation")]
    swapped = []
    try:
        for home, fname in TRACED:
            orig = getattr(getattr(package, home), fname)
            wrapper = tracer.wrap(f"{home}.{fname}", orig,
                                  hooks.get(f"{home}.{fname}"))
            for mod in modules:
                if mod.__dict__.get(fname) is orig:
                    setattr(mod, fname, wrapper)
                    swapped.append((mod, fname, orig))
        yield tracer
    finally:
        for mod, fname, orig in reversed(swapped):
            setattr(mod, fname, orig)
