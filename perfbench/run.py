"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload planted4 --seed 0 --seconds 38 --trace 0

Run from the root of a segdict checkout; the program is imported from its
`src/`.  The run generates its inputs from the seed, then repeats identical
passes (the library calls of `segdict run-experiment`, for both feature
methods) for about --seconds, checking every pass's outputs with numpy.
With --trace 0 it reports the end-to-end metrics, with set-up probes (fresh
interpreters that import segdict and ingest the CSV) between passes; with
--trace 1 it runs a warm-up pass, then pairs untraced and traced passes in
the order U T T U U T ..., and reports per-layer metrics from the spans.
See README.md.
"""

from __future__ import annotations

import os

# one process and one thread at a time, for this process and its children;
# set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PROBES_PER_PASS = 2
PROBE_TIMEOUT_S = 60

# counts read from the spans that, like the counts every pass returns, must
# repeat exactly in every pass and run of one seed
TRACED_COUNTS = {"newton_steps": "dict_learner.newton_steps",
                 "train_columns": "sparse_coder.train_columns",
                 "smo_calls": "classifier.smo_calls",
                 "unconverged_machines": "classifier.unconverged_machines"}

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {"count": ("alternations", "newton_steps", "train_columns",
                             "smo_calls", "unconverged_machines",
                             "support_vectors", "lloyd_iters"),
                   "us": ("encode_us_per_beat",), "1/beat": ("nnz_per_beat",),
                   "beats/s": ("predict_beats_per_s", "encode_beats_per_s"),
                   "bytes": ("bytes",),
                   "fraction": ("accuracy_sparse", "accuracy_kmeans"),
                   "1": ("kkt_violation_max",)}


def _unit(layer_metric: str) -> str:
    short = layer_metric.split(".", 1)[1]
    for unit, names in PER_LAYER_UNITS.items():
        if short in names:
            return unit
    return "s"


def _program_digest() -> str:
    """Identifies the program and benchmark code a stored count belongs to."""
    h = hashlib.sha256()
    for path in sorted(SRC.glob("segdict/*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _probe(csv_path: Path, target_len: int, expected: int) -> float:
    start = time.perf_counter()
    out = subprocess.run([sys.executable, str(BENCH / "probe.py"),
                          str(csv_path), str(target_len)],
                         capture_output=True, text=True, check=True,
                         timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if out.stdout.strip() != str(expected):
        raise RuntimeError(f"set-up probe ingested {out.stdout.strip()!r} "
                           f"beats, expected {expected}")
    return elapsed


class CountLedger:
    """The per-seed counts every pass must repeat, shared by the runs of one
    program version through a file under perfbench/out/counts."""

    def __init__(self, workload: str, seed: int):
        self.path = OUT / "counts" / f"{workload}-{seed}-{_program_digest()}.json"
        self.known = (json.loads(self.path.read_text())
                      if self.path.exists() else {})

    def mismatch(self, counts: dict) -> str | None:
        for key, value in counts.items():
            if self.known.setdefault(key, value) != value:
                return (f"count {key} is {value}, an earlier pass or run of "
                        f"this seed had {self.known[key]}")
        return None

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True))
        os.replace(tmp, self.path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "segdict" / "__init__.py").is_file():
        print(f"error: no segdict sources under {SRC}; run from the root of "
              "a segdict checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import gen
    from workloads import J_COUNT, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    import pipeline
    from tracing import Tracer
    if not Path(pipeline.segdict.__file__).resolve().is_relative_to(SRC):
        print(f"error: segdict was imported from {pipeline.segdict.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    labels, stored = gen.planted_beats(args.seed, wl.tag, wl.class_counts,
                                       wl.gamma, J_COUNT, wl.k)
    reference = (gen.normalized(stored), labels)
    workdir = OUT / f"run-{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        csv_path = workdir / "beats.csv"
        gen.write_csv(csv_path, labels, stored)
        return _measure(args, wl, csv_path, workdir, reference, pipeline,
                        Tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, wl, csv_path, workdir, reference, pipeline, Tracer) -> int:
    ledger = CountLedger(wl.name, args.seed)
    _probe(csv_path, wl.gamma, wl.beats)        # warm bytecode and file cache
    # a traced run starts with an untraced warm-up pass, checked but not
    # timed, then pairs its passes in the order untraced, traced, traced,
    # untraced, ... so that drift of the host's speed cancels between pairs
    warmup = 1 if args.trace else 0
    passes_per_round = 2 if args.trace else 1
    results, traced, probes, failures = [], [], [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        index = len(results) - warmup             # -1 for the warm-up pass
        trace_this = bool(args.trace) and index % 4 in (1, 2)
        if not args.trace:
            probes += [_probe(csv_path, wl.gamma, wl.beats)
                       for _ in range(PROBES_PER_PASS)]
        tracer = Tracer() if trace_this else None
        gc.collect()                    # every pass starts from a clean heap
        res = pipeline.run_pass(wl, args.seed, str(csv_path), str(workdir),
                                reference, tracer)
        counts = dict(res.counts)
        if trace_this and res.failure is None:
            counts.update({k: res.layers[v] for k, v in TRACED_COUNTS.items()})
        if res.failure is None:
            res.failure = ledger.mismatch(counts)
        if trace_this and res.failure is None:
            traced.append((res, tracer))
        results.append((index, trace_this, res))
        role = ("warm-up" if index < 0 else "traced" if trace_this
                else "untraced")
        print(f"pass {len(results)} {role}: "
              + " ".join(f"{k}={v:.4f}" for k, v in res.times.items()),
              file=sys.stderr)
        if res.failure is not None:
            failures.append(res.failure)
            print(f"pass {len(results)} failed: {res.failure}",
                  file=sys.stderr)
        now = time.perf_counter()
        measured = len(results) - warmup
        if measured < passes_per_round or measured % passes_per_round:
            continue                    # only whole rounds are measured
        if args.trace and not traced:
            break                       # every traced pass failed
        per_round = (now - start) * passes_per_round / len(results)
        # start another round only if it should end within half a round of
        # the deadline, so a run measures about --seconds on average
        if now + per_round / 2 > deadline:
            break
    ledger.save()

    timed = [r for i, t, r in results if i >= 0 and not t and r.times]
    if not timed:
        print("error: no pass finished its timed part", file=sys.stderr)
        return 1
    if args.trace:
        pairs = _pairs(results)
        if not pairs:
            print("error: no pair of an untraced and a traced pass passed "
                  "its checks", file=sys.stderr)
            return 1
        metrics = _per_layer(timed, traced, pairs, args, wl)
    else:
        metrics = _end_to_end(timed, probes)
    print(json.dumps({"correct": not any(f.startswith("check")
                                         or f.startswith("count")
                                         for f in failures),
                      "attempted": len(results), "failed": len(failures),
                      "metrics": metrics}))
    return 0


def _pairs(results) -> list[tuple[float, float]]:
    """(traced, untraced) pass time of every pair, measured passes 2p and
    2p+1, whose two passes both passed their checks."""
    by_pair: dict[int, dict] = {}
    for index, trace_this, res in results:
        if index >= 0 and res.failure is None:
            by_pair.setdefault(index // 2, {})[trace_this] = res
    return [(p[True].times["pass_s"], p[False].times["pass_s"])
            for p in by_pair.values() if len(p) == 2]


def _end_to_end(timed, probes) -> dict:
    values = {
        "setup_s": statistics.median(probes),
        "pass_s": statistics.median(r.times["pass_s"] for r in timed),
        # read before the first pass's checks ran, so the checks' own
        # arrays cannot set it
        "peak_rss_mib": timed[0].rss_mib,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _per_layer(timed, traced, pairs, args, wl) -> dict:
    names = list(traced[0][0].layers)
    values = {n: statistics.median(r.layers[n] for r, _ in traced)
              for n in names}
    # the stages of the untraced passes: too short on some workloads to
    # agree between runs, so they are reported here and not bounded
    values["stage.fit_s"] = statistics.median(r.times["fit_s"] for r in timed)
    values["stage.encode_beats_per_s"] = (
        sum(r.times["encoded_beats"] for r in timed)
        / sum(r.times["encode_s"] for r in timed))
    values["stage.classify_s"] = statistics.median(r.times["classify_s"]
                                                   for r in timed)
    values["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)
    trace_dir = OUT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    traced[-1][1].dump(trace_dir / f"{wl.name}-{args.seed}.json")
    return {n: {"value": v, "unit": _unit(n)} for n, v in values.items()}


if __name__ == "__main__":
    sys.exit(main())
