"""Package surface: ``segdict.__all__`` matches what ``__init__`` imports,
and the package needs nothing beyond numpy."""

import os
import subprocess
import sys
import types
from pathlib import Path

import segdict

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


def test_fit_encode_and_grid_search_import_no_scipy():
    src = str(Path(segdict.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PIPELINE_WITHOUT_SCIPY],
                         env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[]"
