"""VQ codebook and FFT feature tests."""

import numpy as np
import pytest

from segdict import baselines
from segdict.baselines import (VqCodebook, VqCodeMatrix, _sq_dists,
                               assign_codes, fft_features, kmeans_train,
                               one_hot_codes, vq_encode)
from segdict.beat_model import BeatMatrix, SegmentSpec
from segdict.errors import InsufficientDataError

from oracles import kmeans_exhaustive, naive_dft_magnitudes, nearest_center_scan


def test_kmeans_forced_when_n_equals_k():
    rng = np.random.default_rng(0)
    segments = rng.normal(size=(3, 4))
    cb = kmeans_train(segments, 4, seeding="random", seed=1)
    assert cb.distortions[-1] == pytest.approx(0.0, abs=1e-24)
    for i in range(4):
        assert any(np.allclose(cb.centers[:, i], segments[:, j]) for j in range(4))


def test_kmeans_symmetric_1d_optimum():
    segments = np.array([[0.0, 0.0, 10.0, 10.0]])
    cb = kmeans_train(segments, 2, seeding="kmeanspp", seed=0)
    assert sorted(cb.centers.ravel()) == [0.0, 10.0]


def clustered_points(instance_seed, spread=0.8):
    rng = np.random.default_rng(instance_seed)
    centers = np.array([[0.0, 0.0], [6.0, 1.0], [3.0, 7.0]])
    return np.vstack([c + spread * rng.normal(size=(4, 2)) for c in centers])


def test_kmeans_matches_exhaustive_partition_minimum():
    points = clustered_points(1)
    best = kmeans_exhaustive(points, 3)
    hits = 0
    for seed in range(10):
        cb = kmeans_train(points.T, 3, seeding="kmeanspp", seed=seed)
        if cb.distortions[-1] <= best + 1e-9:
            hits += 1
    assert hits >= 8


def test_kmeans_distortion_monotone():
    rng = np.random.default_rng(7)
    for seed in range(5):
        segments = rng.normal(size=(4, 60))
        cb = kmeans_train(segments, 5, seeding="random", seed=seed)
        d = np.array(cb.distortions)
        assert np.all(np.diff(d) <= 1e-9 * np.maximum(d[:-1], 1.0))


def test_kmeans_deterministic():
    rng = np.random.default_rng(8)
    segments = rng.normal(size=(3, 30))
    a = kmeans_train(segments, 4, seeding="kmeanspp", seed=5)
    b = kmeans_train(segments, 4, seeding="kmeanspp", seed=5)
    assert np.array_equal(a.centers, b.centers)


def test_kmeans_insufficient_points():
    with pytest.raises(InsufficientDataError):
        kmeans_train(np.ones((2, 3)), 4)


def test_assign_codes_exact_center_and_ties():
    centers = np.array([[10.0, 1.0, 20.0, 30.0, 3.0]])
    cb = VqCodebook(centers)
    # a segment equal to a center maps to that center (1-based)
    assert assign_codes(cb, np.array([[20.0]]))[0] == 3
    # 2.0 is equidistant to codebook entries 2 and 5 -> lower index wins
    assert assign_codes(cb, np.array([[2.0]]))[0] == 2


def test_assign_codes_matches_linear_scan():
    rng = np.random.default_rng(9)
    centers = rng.normal(size=(3, 6))
    cb = VqCodebook(centers)
    segments = rng.normal(size=(3, 40))
    got = assign_codes(cb, segments)
    want = nearest_center_scan(centers.T, segments.T)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [8, 256])
@pytest.mark.parametrize("extra", [3, 1])
@pytest.mark.parametrize("layout", ["rows", "columns"])
def test_blocked_sq_dists_equal_the_unblocked_formula(k, extra, layout):
    # two whole blocks and a part; a part of one row joins the block before
    # it. "columns" is the layout assign_codes and kmeans_train pass, the
    # transpose of a d x n slice of a beat matrix, on which numpy sums
    # each distance in another order than on C-ordered rows
    d = 50
    block = max(2, baselines._DIFF_BLOCK // (k * d))
    n = 2 * block + extra
    rng = np.random.default_rng(k + extra)
    if layout == "rows":
        points = rng.normal(size=(n, d))
    else:
        points = rng.normal(size=(3 * d, n))[d:2 * d].T
    centers = rng.normal(size=(d, k)).T.copy()
    diff = points[:, None, :] - centers[None, :, :]     # all n rows at once
    want = np.einsum("nkd,nkd->nk", diff, diff)
    assert _sq_dists(points, centers).tobytes() == want.tobytes()


def test_vq_encode_centers_round_trip():
    rng = np.random.default_rng(10)
    spec = SegmentSpec.equal(6, 2)
    codebooks = [VqCodebook(rng.normal(size=(3, 4)), j) for j in (1, 2)]
    # beat k assembled from center k of each segment codebook
    beats = BeatMatrix(np.vstack([cb.centers for cb in codebooks]),
                       tuple("NVAF"))
    vq = vq_encode(beats, spec, codebooks)
    for kappa in range(4):
        assert vq.codes[0, kappa] == kappa + 1
        assert vq.codes[1, kappa] == kappa + 1


def test_one_hot_codes_layout():
    vq = VqCodeMatrix(np.array([[1, 3], [2, 2]]), k=3)
    hot = one_hot_codes(vq)
    assert hot.shape == (6, 2)
    assert np.array_equal(hot[:, 0], [1, 0, 0, 0, 1, 0])
    assert np.array_equal(hot[:, 1], [0, 0, 1, 0, 1, 0])


def test_vq_code_matrix_range_check():
    with pytest.raises(ValueError):
        VqCodeMatrix(np.array([[0, 1]]), k=2)
    with pytest.raises(ValueError):
        VqCodeMatrix(np.array([[3]]), k=2)


def test_codebook_duplicate_centers_name_the_first_pair():
    def first_pair(centers):   # the pairwise scan the check must agree with
        k = centers.shape[1]
        for a in range(k):
            for b in range(a + 1, k):
                if np.array_equal(centers[:, a], centers[:, b]):
                    return a, b
        return None

    u, v, w = np.eye(3)
    cases = [np.column_stack([u, v, w, v, u]),      # 0 and 4, not 1 and 3
             np.column_stack([u, v, w, w]),
             np.array([[0.0, 1.0, -0.0], [2.0, 3.0, 2.0]])]  # -0.0 equals 0.0
    rng = np.random.default_rng(11)
    for _ in range(30):
        centers = rng.integers(0, 3, size=(2, int(rng.integers(2, 12))))
        cases.append(centers.astype(float))
    for centers in cases:
        pair = first_pair(centers)
        if pair is None:
            assert VqCodebook(centers).k == centers.shape[1]
            continue
        message = f"^duplicate centers {pair[0]} and {pair[1]}$"
        with pytest.raises(ValueError, match=message):
            VqCodebook(centers)
    assert VqCodebook(rng.normal(size=(50, 256))).k == 256


def test_fft_dc_of_unnormalized_constant():
    beats = BeatMatrix(np.full((16, 1), 2.5), ("N",))
    feats = fft_features(beats, 4)
    assert feats[0, 0] == pytest.approx(16 * 2.5)


def test_fft_dc_vanishes_on_zero_mean_beats():
    rng = np.random.default_rng(11)
    col = rng.normal(size=32)
    col -= col.mean()
    beats = BeatMatrix(col.reshape(-1, 1), ("N",))
    assert fft_features(beats, 8)[0, 0] < 1e-9


def test_fft_pure_cosine_peaks_at_its_bin():
    n = 64
    t = np.arange(n)
    col = np.cos(2 * np.pi * 3 * t / n)
    beats = BeatMatrix(col.reshape(-1, 1), ("N",))
    feats = fft_features(beats, 10)
    assert int(np.argmax(feats[:, 0])) == 3


def test_fft_matches_naive_dft():
    rng = np.random.default_rng(12)
    col = rng.normal(size=24)
    beats = BeatMatrix(col.reshape(-1, 1), ("N",))
    feats = fft_features(beats, 24)
    oracle = naive_dft_magnitudes(col, 24)
    assert np.abs(feats[:, 0] - oracle).max() < 1e-9


def test_fft_two_channels_concatenate():
    rng = np.random.default_rng(13)
    beats = BeatMatrix(rng.normal(size=(40, 3)), ("N", "V", "A"), channels=2)
    feats = fft_features(beats, 5)
    assert feats.shape == (10, 3)
    top = np.abs(np.fft.fft(beats.samples[:20, 0])[:5])
    assert np.allclose(feats[:5, 0], top)


def test_fft_rejects_oversized_coefficient_count():
    beats = BeatMatrix(np.ones((16, 1)), ("N",), channels=2)
    with pytest.raises(ValueError):
        fft_features(beats, 9)
