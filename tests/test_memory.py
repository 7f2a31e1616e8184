"""Working-set guards: the whole-dataset passes of the labelling path hold
memory bounded by their output, not by a multiple of it.  numpy reports
its array buffers to tracemalloc, so a traced peak counts them."""

import gc
import tracemalloc

import numpy as np

from segdict.baselines import VqCodebook, assign_codes
from segdict.ingest import load_dataset

MIB = 1 << 20


def traced_peak(fn, *args):
    """fn(*args), and the peak of the bytes allocated while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_assign_codes_does_not_hold_every_difference():
    # the whole n x k x d difference array would be 25.6 MB; the n x k
    # distances are 0.5 MiB
    rng = np.random.default_rng(0)
    d, k, n = 50, 16, 4000
    codebook = VqCodebook(rng.normal(size=(d, k)))
    beats = rng.normal(size=(4 * d, n))
    codes, peak = traced_peak(assign_codes, codebook, beats[d:2 * d])
    assert codes.shape == (n,)
    assert peak < 2 * MIB


def test_load_dataset_holds_little_beyond_its_samples(tmp_path):
    # the whole text, its lines and the stripped rows would each be about
    # as large as the samples
    rng = np.random.default_rng(1)
    samples = rng.normal(size=(4000, 200)) * 3.0 + 1.0
    path = tmp_path / "beats.csv"
    np.savetxt(path, samples, fmt="N," + ",".join(["%.10g"] * 200),
               encoding="utf-8")
    records, peak = traced_peak(load_dataset, path)
    assert len(records) == 4000
    assert peak < 1.5 * samples.nbytes
