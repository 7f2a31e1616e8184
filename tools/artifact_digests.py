"""Print what a checkout's benchmark passes produce, as one JSON object.

    python3 tools/artifact_digests.py [ROOT]

ROOT is a segdict checkout (default: the one holding this script).  Its
`perfbench/pipeline.py` runs one pass of each benchmark workload (planted4,
table8, bulk) at seeds 0-2, on the checkout's own `src/`, in a temporary
directory.  For every pass the output holds the SHA-256 of each artifact
file the pass wrote, the pass counts and the accuracies.  Two checkouts
compute the same results when their outputs are equal:

    diff <(python3 tools/artifact_digests.py PARENT) \\
         <(python3 tools/artifact_digests.py)

Nothing is written under the checkout: the modules are imported without
writing bytecode.  BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import os

# one thread, as perfbench/run.py sets it; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("planted4", "table8", "bulk")
SEEDS = (0, 1, 2)


def digests(root: Path) -> dict:
    """{"<workload>-<seed>": {"artifacts", "counts", "accuracy"}}."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import gen
    import pipeline
    from workloads import J_COUNT, WORKLOADS as ALL
    if not Path(pipeline.segdict.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"segdict was imported from "
                         f"{pipeline.segdict.__file__}, not from {root}")
    out = {}
    for name in WORKLOADS:
        wl = ALL[name]
        for seed in SEEDS:
            labels, stored = gen.planted_beats(seed, wl.tag, wl.class_counts,
                                               wl.gamma, J_COUNT, wl.k)
            with tempfile.TemporaryDirectory() as tmp:
                work = Path(tmp)
                csv_path = work / "beats.csv"
                gen.write_csv(csv_path, labels, stored)
                res = pipeline.run_pass(wl, seed, str(csv_path), str(work),
                                        (gen.normalized(stored), labels))
                if res.failure is not None:
                    raise SystemExit(f"{name} seed {seed}: {res.failure}")
                artifacts = {
                    p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(work.iterdir()) if p != csv_path}
            out[f"{name}-{seed}"] = {"artifacts": artifacts,
                                     "counts": res.counts,
                                     "accuracy": res.accuracy}
    return out


if __name__ == "__main__":
    if len(sys.argv) > 2:
        raise SystemExit(__doc__)
    here = Path(__file__).resolve().parent.parent
    root = Path(sys.argv[1]).resolve() if len(sys.argv) == 2 else here
    print(json.dumps(digests(root), indent=1, sort_keys=True))
