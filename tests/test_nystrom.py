import tracemalloc

import numpy as np
import pytest

from nyscode.coding import CodeMatrix, full_code, gram_kernel
from nyscode.data import DataMatrix, normalize_columns
from nyscode.dictionary import sample_indices
from nyscode.nystrom import (
    BLOCK_ROWS,
    NystromFactors,
    approximation_errors,
    decompose,
    reconstruct_code,
    reconstruct_kernel,
)


def _random_psd(n, rank, seed, decay=None):
    rng = np.random.default_rng(seed)
    if decay is None:
        A = rng.standard_normal((n, rank))
        C = A @ A.T
    else:
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        C = (Q * decay) @ Q.T
    return (C + C.T) / 2.0


class TestDecompose:
    def test_all_ones_single_column(self):
        C = np.ones((3, 3))
        f = decompose(C, [0])
        assert np.array_equal(f.E, np.ones((3, 1)))
        assert np.array_equal(f.W, [[1.0]])
        assert np.allclose(f.W_pinv, [[1.0]])

    def test_full_sampling_reproduces_matrix(self):
        C = _random_psd(5, 5, seed=0)
        f = decompose(C, np.arange(5))
        assert np.array_equal(f.E, C)
        assert np.array_equal(f.W, C)

    def test_w_is_exact_subblock(self):
        C = _random_psd(6, 6, seed=1)
        f = decompose(C, [1, 4])
        assert np.array_equal(f.W, C[np.ix_([1, 4], [1, 4])])
        assert np.array_equal(f.W, f.E[[1, 4], :])

    def test_w_pinv_symmetric_for_symmetric_input(self):
        C = _random_psd(8, 3, seed=2)
        f = decompose(C, [0, 2, 5])
        scale = np.abs(f.W_pinv).max()
        assert np.abs(f.W_pinv - f.W_pinv.T).max() <= 1e-10 * scale

    def test_accepts_code_matrix(self):
        C = CodeMatrix(np.ones((3, 3)), alpha=0.0)
        f = decompose(C, [1])
        assert f.E.shape == (3, 1)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            decompose(np.ones((3, 2)), [0])

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            decompose(np.eye(3), [1, 1])

    def test_empty_indices_rejected(self):
        with pytest.raises(ValueError):
            decompose(np.eye(3), [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            decompose(np.eye(3), [0, 3])

    def test_factor_consistency_enforced(self):
        with pytest.raises(ValueError):
            NystromFactors(
                indices=np.array([0]),
                E=np.ones((3, 1)),
                W=np.array([[2.0]]),
                W_pinv=np.array([[0.5]]),
                pinv_tol=1e-10,
            )


class TestReconstructCode:
    def test_rank_one_exact(self):
        C = np.ones((3, 3))
        f = decompose(C, [0])
        assert np.linalg.norm(C - reconstruct_code(f)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_rank_two_psd_exact_with_spanning_columns(self, seed):
        C = _random_psd(5, 2, seed=seed)
        idx = _spanning_columns(C, 2, seed)
        f = decompose(C, idx)
        assert np.linalg.norm(C - reconstruct_code(f)) <= 1e-9 * np.linalg.norm(C)

    def test_full_sampling_invertible(self):
        C = _random_psd(6, 6, seed=4) + 0.5 * np.eye(6)
        f = decompose(C, np.arange(6))
        assert np.linalg.norm(C - reconstruct_code(f)) <= 1e-10 * np.linalg.norm(C)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_slice_consistency_full_rank_w(self, seed):
        C = _random_psd(10, 10, seed=seed, decay=1.0 / np.arange(1, 11))
        idx = np.array([0, 3, 7])
        f = decompose(C, idx)
        rec = reconstruct_code(f)
        assert np.linalg.norm(rec[idx, :] - C[idx, :]) <= 1e-9 * np.linalg.norm(C[idx, :])


class TestReconstructKernel:
    def test_full_sampling_invertible_equals_square(self):
        C = _random_psd(5, 5, seed=5) + 0.5 * np.eye(5)
        f = decompose(C, np.arange(5))
        K = C @ C.T
        assert np.linalg.norm(K - reconstruct_kernel(f)) <= 1e-8 * np.linalg.norm(K)

    def test_rank_one_hand_algebra(self):
        # C = v v^T, sample column 0: K_hat = (v^T v) v v^T = K exactly
        v = np.array([2.0, -1.0, 3.0])
        C = np.outer(v, v)
        f = decompose(C, [0])
        expected = float(v @ v) * np.outer(v, v)
        assert np.allclose(reconstruct_kernel(f), expected, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernel_reconstruction_is_psd(self, seed):
        C = _random_psd(8, 4, seed=seed)
        f = decompose(C, sample_indices(8, 3, seed))
        K = reconstruct_kernel(f)
        w = np.linalg.eigvalsh((K + K.T) / 2.0)
        assert w.min() >= -1e-8 * max(w.max(), 1.0)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_matches_gram_of_reconstructed_code(self, seed):
        C = _random_psd(7, 3, seed=seed)
        f = decompose(C, sample_indices(7, 4, seed))
        direct = reconstruct_kernel(f)
        rec = reconstruct_code(f)
        via_code = rec @ rec.T
        assert np.linalg.norm(direct - via_code) <= 1e-8 * max(np.linalg.norm(via_code), 1.0)


class TestApproximationErrors:
    def test_identity_single_column_hand_computed(self):
        C = np.eye(2)
        f = decompose(C, [0])
        errs = approximation_errors(C, f)
        assert errs.code_err == pytest.approx(1.0, abs=1e-12)
        assert errs.kernel_err == pytest.approx(1.0, abs=1e-12)

    def test_exact_recovery_instances(self):
        C = np.ones((4, 4))
        errs = approximation_errors(C, decompose(C, [2]))
        assert errs.code_err <= 1e-9
        assert errs.kernel_err <= 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_errors_non_negative(self, seed):
        C = _random_psd(6, 3, seed=seed)
        errs = approximation_errors(C, decompose(C, [0, 4]))
        assert errs.code_err >= 0.0
        assert errs.kernel_err >= 0.0


def _spanning_columns(C, rank, seed):
    # draw column subsets until the sampled block has full numerical rank
    n = C.shape[0]
    for attempt in range(100):
        idx = sample_indices(n, rank, seed * 100 + attempt)
        s = np.linalg.svd(C[np.ix_(idx, idx)], compute_uv=False)
        if s[-1] > 1e-6 * s[0]:
            return idx
    raise AssertionError("no spanning column subset found")


class TestErrorDecay:
    def test_mean_code_error_non_increasing_in_c(self):
        # fixed PSD 64x64 with smoothly decaying spectrum, 20 sampling seeds per c
        C = _random_psd(64, 64, seed=7, decay=1.0 / np.arange(1, 65) ** 2)
        means = []
        for c in (2, 4, 8, 16):
            errs = [
                approximation_errors(C, decompose(C, sample_indices(64, c, s))).code_err
                for s in range(20)
            ]
            means.append(float(np.mean(errs)))
        inversions = [
            i for i in range(len(means) - 1) if means[i + 1] > means[i]
        ]
        assert len(inversions) <= 1
        for i in inversions:
            assert means[i + 1] <= 1.02 * means[i]


def _code(n, seed):
    # thresholded code matrix of unit columns: symmetric and indefinite
    X = DataMatrix(np.random.default_rng(seed).standard_normal((16, n)))
    return full_code(normalize_columns(X, "unit_l2"), alpha=0.25)


class TestBlockedResiduals:
    @pytest.mark.parametrize("n", [2 * BLOCK_ROWS + 37, BLOCK_ROWS // 3])
    def test_matches_direct_norms(self, n):
        C = _code(n, seed=n)
        K = gram_kernel(C)
        f = decompose(C, sample_indices(n, 12, 0))
        given = approximation_errors(C, f, K)
        assert approximation_errors(C, f) == given
        direct_code = np.linalg.norm(C.values - reconstruct_code(f))
        direct_kernel = np.linalg.norm(K - reconstruct_kernel(f))
        assert given.code_err == pytest.approx(direct_code, rel=1e-12)
        assert given.kernel_err == pytest.approx(direct_kernel, rel=1e-12)

    def test_full_sample_error_is_zero(self):
        n = BLOCK_ROWS + 5
        C = _random_psd(n, n, seed=9)
        K = C @ C
        errs = approximation_errors(C, decompose(C, np.arange(n)), K)
        assert errs.code_err <= 1e-9 * np.linalg.norm(C)
        assert errs.kernel_err <= 1e-9 * np.linalg.norm(K)

    def test_no_n_by_n_temporary(self):
        n = 512
        C = _code(n, seed=1)
        K = gram_kernel(C)
        f = decompose(C, sample_indices(n, 64, 0))
        tracemalloc.start()
        try:
            approximation_errors(C, f, K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8
