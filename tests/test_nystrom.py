import tracemalloc

import numpy as np
import pytest

from nyscode import nystrom
from nyscode.coding import CodeMatrix, full_code
from nyscode.data import DataMatrix, normalize_columns
from nyscode.dictionary import sample_indices
from nyscode.spectra import spectral_report
from nyscode.nystrom import PINV_TOL, TRACE_FLOOR, approximation_errors, code_kernel, decompose
from oracles import (
    reconstruct_code,
    reconstruct_kernel,
    sampled_block,
    sampled_columns,
    w_pinv,
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
        f = decompose(code_kernel(C), [0])
        assert np.array_equal(sampled_columns(f), np.ones((3, 1)))
        assert np.array_equal(sampled_block(f), [[1.0]])
        assert np.allclose(w_pinv(f), [[1.0]])

    def test_full_sampling_reproduces_matrix(self):
        C = _random_psd(5, 5, seed=0)
        f = decompose(code_kernel(C), np.arange(5))
        assert np.array_equal(sampled_columns(f), C)
        assert np.array_equal(sampled_block(f), C)

    def test_w_is_exact_subblock(self):
        C = _random_psd(6, 6, seed=1)
        f = decompose(code_kernel(C), [1, 4])
        assert np.array_equal(f.indices, [1, 4])
        assert np.array_equal(sampled_block(f), C[np.ix_([1, 4], [1, 4])])

    def test_w_pinv_symmetric_for_symmetric_input(self):
        C = _random_psd(8, 3, seed=2)
        f = decompose(code_kernel(C), [0, 2, 5])
        pinv = w_pinv(f)
        assert np.abs(pinv - pinv.T).max() <= 1e-10 * np.abs(pinv).max()

    def test_accepts_code_matrix(self):
        C = CodeMatrix(np.ones((3, 3)))
        f = decompose(code_kernel(C), [1])
        assert sampled_columns(f).shape == (3, 1)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            decompose(code_kernel(np.ones((3, 2))), [0])

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            decompose(code_kernel(np.eye(3)), [1, 1])

    def test_empty_indices_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            decompose(code_kernel(np.eye(3)), [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"out of range 0\.\.2"):
            decompose(code_kernel(np.eye(3)), [0, 3])

    def test_non_symmetric_rejected(self):
        # code_kernel checks all of C, so no sample of a non-symmetric C is decomposed
        C = _random_psd(5, 5, seed=3)
        C[1, 3] += 1e-12
        with pytest.raises(ValueError, match="equal to its transpose"):
            decompose(code_kernel(C), [1, 3])

    @pytest.mark.parametrize(
        "indices, dtype",
        [([0.5, 1.7, 3.2], "float64"), ([True, True, False, False, False], "bool")],
        ids=["float", "boolean-mask"],
    )
    def test_non_integer_indices_rejected(self, indices, dtype):
        # neither is truncated nor read as the indices 0 and 1
        with pytest.raises(ValueError, match=f"indices must be integers, got dtype {dtype}"):
            decompose(code_kernel(np.eye(5)), indices)

    def test_factors_hold_c_and_copy_only_w(self):
        C = _code(768, seed=5).values
        kernel = code_kernel(C)
        idx = sample_indices(768, 64, 0)
        tracemalloc.start()
        try:
            f = decompose(kernel, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 768 * 64 * 8
        assert f.kernel is kernel and kernel.C is C
        assert "K" not in vars(kernel)
        assert np.array_equal(sampled_columns(f), C[:, idx])

    @pytest.mark.parametrize(
        "make, c, kept",
        [
            (lambda: _random_psd(12, 6, seed=6), 4, 4),  # full-rank W
            (lambda: _random_psd(12, 3, seed=3), 6, 3),  # eigenvalues dropped by the cutoff
            (lambda: _random_psd(12, 1, seed=1), 5, 1),
            (lambda: _code(80, seed=0).values, 24, 24),  # thresholded, indefinite
        ],
        ids=["full-rank", "rank-3", "rank-1", "code-matrix"],
    )
    def test_pinv_matches_numpy(self, make, c, kept):
        C = make()
        f = decompose(code_kernel(C), sample_indices(C.shape[0], c, 0))
        ref = np.linalg.pinv(sampled_block(f), rcond=1e-10)
        assert len(f.eigvals) == kept
        assert np.linalg.norm(w_pinv(f) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_eigenpairs_ordered_and_kept_above_tolerance(self):
        C = _code(40, seed=3)
        f = decompose(code_kernel(C), sample_indices(40, 10, 0))
        mag = np.abs(f.eigvals)
        assert np.all(np.diff(mag) <= 0.0)
        assert mag[-1] > PINV_TOL * mag[0]
        assert np.allclose(f.eigvecs.T @ f.eigvecs, np.eye(len(mag)), atol=1e-12)
        W = (f.eigvecs * f.eigvals) @ f.eigvecs.T
        block = sampled_block(f)
        assert np.linalg.norm(W - block) <= 1e-12 * np.linalg.norm(block)

    def test_zero_block_has_zero_pinv(self):
        f = decompose(code_kernel(np.zeros((4, 4))), [0, 2])
        assert f.eigvals.size == 0
        assert np.array_equal(w_pinv(f), np.zeros((2, 2)))


class TestReconstructCode:
    def test_rank_one_exact(self):
        C = np.ones((3, 3))
        f = decompose(code_kernel(C), [0])
        assert np.linalg.norm(C - reconstruct_code(f)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_rank_two_psd_exact_with_spanning_columns(self, seed):
        C = _random_psd(5, 2, seed=seed)
        idx = _spanning_columns(C, 2, seed)
        f = decompose(code_kernel(C), idx)
        assert np.linalg.norm(C - reconstruct_code(f)) <= 1e-9 * np.linalg.norm(C)

    def test_full_sampling_invertible(self):
        C = _random_psd(6, 6, seed=4) + 0.5 * np.eye(6)
        f = decompose(code_kernel(C), np.arange(6))
        assert np.linalg.norm(C - reconstruct_code(f)) <= 1e-10 * np.linalg.norm(C)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_slice_consistency_full_rank_w(self, seed):
        C = _random_psd(10, 10, seed=seed, decay=1.0 / np.arange(1, 11))
        idx = np.array([0, 3, 7])
        f = decompose(code_kernel(C), idx)
        rec = reconstruct_code(f)
        assert np.linalg.norm(rec[idx, :] - C[idx, :]) <= 1e-9 * np.linalg.norm(C[idx, :])


class TestReconstructKernel:
    def test_full_sampling_invertible_equals_square(self):
        C = _random_psd(5, 5, seed=5) + 0.5 * np.eye(5)
        f = decompose(code_kernel(C), np.arange(5))
        K = C @ C.T
        assert np.linalg.norm(K - reconstruct_kernel(f)) <= 1e-8 * np.linalg.norm(K)

    def test_rank_one_hand_algebra(self):
        # C = v v^T, sample column 0: K_hat = (v^T v) v v^T = K exactly
        v = np.array([2.0, -1.0, 3.0])
        C = np.outer(v, v)
        f = decompose(code_kernel(C), [0])
        expected = float(v @ v) * np.outer(v, v)
        assert np.allclose(reconstruct_kernel(f), expected, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernel_reconstruction_is_psd(self, seed):
        C = _random_psd(8, 4, seed=seed)
        f = decompose(code_kernel(C), sample_indices(8, 3, seed))
        K = reconstruct_kernel(f)
        w = np.linalg.eigvalsh((K + K.T) / 2.0)
        assert w.min() >= -1e-8 * max(w.max(), 1.0)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_matches_gram_of_reconstructed_code(self, seed):
        C = _random_psd(7, 3, seed=seed)
        f = decompose(code_kernel(C), sample_indices(7, 4, seed))
        direct = reconstruct_kernel(f)
        rec = reconstruct_code(f)
        via_code = rec @ rec.T
        assert np.linalg.norm(direct - via_code) <= 1e-8 * max(np.linalg.norm(via_code), 1.0)


class TestApproximationErrors:
    def test_identity_single_column_hand_computed(self):
        C = np.eye(2)
        errs = approximation_errors(decompose(code_kernel(C), [0]))
        assert errs.code_err == pytest.approx(1.0, abs=1e-12)
        assert errs.kernel_err == pytest.approx(1.0, abs=1e-12)

    def test_exact_recovery_instances(self):
        C = np.ones((4, 4))
        errs = approximation_errors(decompose(code_kernel(C), [2]))
        assert errs.code_err <= 1e-9
        assert errs.kernel_err <= 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_errors_non_negative(self, seed):
        C = _random_psd(6, 3, seed=seed)
        errs = approximation_errors(decompose(code_kernel(C), [0, 4]))
        assert errs.code_err >= 0.0
        assert errs.kernel_err >= 0.0

    def test_non_symmetric_matrix_with_a_symmetric_sampled_block_rejected(self):
        # C = S + B/2 with B antisymmetric and zero on the sampled block: W is symmetric,
        # but the trace forms and the row gather would score another C
        rng = np.random.default_rng(0)
        n, idx = 40, np.arange(0, 40, 5)
        S, B = rng.standard_normal((2, n, n))
        B -= B.T
        B[np.ix_(idx, idx)] = 0.0
        C = (S + S.T) + 0.5 * B
        W = C[np.ix_(idx, idx)]
        assert np.array_equal(W, W.T)
        with pytest.raises(ValueError, match="C must be square and equal to its transpose"):
            approximation_errors(decompose(code_kernel(C), idx))


_DEGENERATE = [
    pytest.param([[np.inf]], r"\|\|C\|\|_F\^2 is not finite", id="inf"),
    pytest.param(np.full((2, 2), 1e200), r"\|\|C\|\|_F\^2 is not finite", id="overflow"),
    pytest.param([[np.nan]], "C contains NaN", id="nan"),
    pytest.param([[1.0, np.nan], [np.nan, 1.0]], "C contains NaN", id="nan-pair"),
    pytest.param(np.zeros((0, 0)), "C must be non-empty", id="empty"),
]


class TestDegenerateCodeMatrix:
    """A code matrix that is empty, holds a NaN or has no finite ||C||_F^2 is rejected
    with a message that names the cause by ``code_kernel``, the one entry that checks C,
    before any sample of it is decomposed or scored and before its spectrum is taken."""

    @pytest.mark.parametrize("C, message", _DEGENERATE)
    def test_code_kernel(self, C, message):
        with pytest.raises(ValueError, match=message):
            code_kernel(C)

    @pytest.mark.parametrize("C, message", _DEGENERATE)
    def test_approximation_errors(self, C, message):
        with pytest.raises(ValueError, match=message):
            approximation_errors(decompose(code_kernel(C), [0]))

    @pytest.mark.parametrize("C, message", _DEGENERATE)
    def test_spectral_report(self, C, message):
        with pytest.raises(ValueError, match=message):
            spectral_report(code_kernel(C))

    def test_kernel_scale_overflow(self):
        # ||C||_F^2 = 4e200 is finite, but K's entries are 2e200 and their squares are not:
        # the kernel is made, and the first read of ||K||_F^2, by a score, raises
        kernel = code_kernel(np.full((2, 2), 1e100))
        assert "K" not in vars(kernel)
        f = decompose(kernel, [0])
        with pytest.raises(ValueError, match=r"\|\|K\|\|_F\^2 is not finite"):
            approximation_errors(f)
        with pytest.raises(ValueError, match=r"\|\|K\|\|_F\^2 is not finite"):
            kernel.kernel_scale


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
        kernel = code_kernel(_random_psd(64, 64, seed=7, decay=1.0 / np.arange(1, 65) ** 2))
        means = []
        for c in (2, 4, 8, 16):
            errs = [
                approximation_errors(decompose(kernel, sample_indices(64, c, s))).code_err
                for s in range(20)
            ]
            means.append(float(np.mean(errs)))
        inversions = [
            i for i in range(len(means) - 1) if means[i + 1] > means[i]
        ]
        assert len(inversions) <= 1
        for i in inversions:
            assert means[i + 1] <= 1.02 * means[i]


def _code(n, seed, gap=None):
    # thresholded code matrix of unit columns: symmetric and indefinite; with
    # ``gap``, data columns 0 and 1 differ by gap times column 2, so a sample
    # holding both has a near-singular W
    X = np.random.default_rng(seed).standard_normal((16, n))
    if gap is not None:
        X[:, 1] = X[:, 0] + gap * X[:, 2]
    return full_code(normalize_columns(DataMatrix(X), "unit_l2"), alpha=0.25)


def _exact(f, monkeypatch):
    """approximation_errors on its exact path, ``_residual_norms``, whatever the residual:
    with an infinite TRACE_FLOOR every sample falls back."""
    with monkeypatch.context() as m:
        m.setattr(nystrom, "TRACE_FLOOR", np.inf)
        return approximation_errors(f)


class TestExactResiduals:
    @pytest.mark.parametrize("n", [293, 42])
    def test_matches_direct_norms(self, n, monkeypatch):
        C = _code(n, seed=n)
        kernel = code_kernel(C)
        K = kernel.K
        f = decompose(kernel, sample_indices(n, 12, 0))
        exact = _exact(f, monkeypatch)
        direct_code = np.linalg.norm(C.values - reconstruct_code(f))
        direct_kernel = np.linalg.norm(K - reconstruct_kernel(f))
        assert exact.code_err == pytest.approx(direct_code, rel=1e-12)
        assert exact.kernel_err == pytest.approx(direct_kernel, rel=1e-12)

    def test_full_sample_error_is_zero(self):
        n = 133
        C = _random_psd(n, n, seed=9)
        K = C @ C
        errs = approximation_errors(decompose(code_kernel(C), np.arange(n)))
        assert errs.code_err <= 1e-9 * np.linalg.norm(C)
        assert errs.kernel_err <= 1e-9 * np.linalg.norm(K)

    def test_no_n_by_n_temporary(self):
        # once the kernel holds K and ||K||_F^2, scoring a sample builds no N x N matrix
        n = 512
        kernel = code_kernel(_code(n, seed=1))
        kernel.kernel_scale
        f = decompose(kernel, sample_indices(n, 64, 0))
        tracemalloc.start()
        try:
            approximation_errors(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


class TestWorkspaceReuse:
    """Each CodeKernel scores every sample in one workspace that it owns; reusing
    it gives the bits of a fresh kernel per call, and allocates nothing of size N."""

    def test_any_order_of_sizes_matches_fresh_kernels(self):
        n = 192
        C = _code(n, seed=11)
        kernel = code_kernel(C)
        for c, seed in [(128, 0), (16, 1), (128, 2), (n, 0)]:  # the last falls back
            f = decompose(kernel, sample_indices(n, c, seed))
            fresh = decompose(code_kernel(C), f.indices)
            assert approximation_errors(f) == approximation_errors(fresh)

    def test_alternating_kernels_match_fresh_kernels(self):
        codes = [_code(96, seed=1), _code(160, seed=2)]
        kernels = [code_kernel(C) for C in codes]
        for step in range(6):
            which = step % 2
            C = codes[which]
            f = decompose(kernels[which], sample_indices(C.N, (16, 64, 32)[step // 2], step))
            fresh = decompose(code_kernel(C), f.indices)
            assert approximation_errors(f) == approximation_errors(fresh)

    def test_second_sample_allocates_nothing_of_size_n_by_c(self):
        n, c = 768, 64
        C = _code(n, seed=5)
        kernel = code_kernel(C)
        approximation_errors(decompose(kernel, sample_indices(n, c, 0)))
        f = decompose(kernel, sample_indices(n, c, 1))
        tracemalloc.start()
        try:
            approximation_errors(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * c * 8


def _count_exact(monkeypatch) -> list:
    """Record the K of every exact residual pass of approximation_errors
    (``_residual_norms``, which the trace path never takes)."""
    calls = []
    real = nystrom._residual_norms

    def spy(values, K, *factors):
        calls.append(K)
        return real(values, K, *factors)

    monkeypatch.setattr(nystrom, "_residual_norms", spy)
    return calls


class TestTraceResiduals:
    @pytest.mark.parametrize("n, c", [(96, 8), (96, 48), (160, 80), (293, 64)])
    def test_matches_exact_path(self, n, c, monkeypatch):
        C = _code(n, seed=n)
        kernel = code_kernel(C)
        calls = _count_exact(monkeypatch)
        for seed in range(3):
            f = decompose(kernel, sample_indices(n, c, seed))
            trace = approximation_errors(f)
            assert not calls
            exact = _exact(f, monkeypatch)
            calls.clear()
            assert trace.code_err == pytest.approx(exact.code_err, rel=1e-10)
            assert trace.kernel_err == pytest.approx(exact.kernel_err, rel=1e-10)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_near_singular_w_with_error_above_norm(self, seed, monkeypatch):
        n = 160
        C = _code(n, seed, gap=1e-4)
        kernel = code_kernel(C)
        f = decompose(kernel, np.concatenate([[0, 1], 2 + sample_indices(n - 2, 62, seed)]))
        calls = _count_exact(monkeypatch)
        trace = approximation_errors(f)
        assert not calls
        exact = _exact(f, monkeypatch)
        assert abs(f.eigvals[0] / f.eigvals[-1]) > 1e7
        assert exact.code_err > np.linalg.norm(C.values)
        assert trace.code_err == pytest.approx(exact.code_err, rel=1e-10)
        assert trace.kernel_err == pytest.approx(exact.kernel_err, rel=1e-10)

    def test_full_sample_uses_exact_path(self, monkeypatch):
        n = 40
        C = _code(n, seed=2)
        kernel = code_kernel(C)
        calls = _count_exact(monkeypatch)
        errs = approximation_errors(decompose(kernel, np.arange(n)))
        assert len(calls) == 1 and calls[0] is kernel.K
        assert errs.code_err <= 1e-9 * np.linalg.norm(C.values)
        assert errs.kernel_err <= 1e-9 * np.linalg.norm(kernel.K)

    def test_low_rank_recovery_uses_exact_path(self, monkeypatch):
        # exact recovery of rank-r PSD matrices from r spanning columns, as in criterion 1
        rng = np.random.default_rng(2024)
        samples = []
        for r in (1, 2, 3, 4):
            A = rng.standard_normal((32, r))
            C = A @ A.T
            C = (C + C.T) / 2.0
            samples.append((C, _spanning_columns(C, r, r), code_kernel(C)))
        calls = _count_exact(monkeypatch)
        for C, idx, kernel in samples:
            errs = approximation_errors(decompose(kernel, idx))
            assert errs.code_err <= 1e-8 * np.linalg.norm(C)
            assert errs.kernel_err <= 1e-7 * np.linalg.norm(kernel.K)
        assert len(calls) == 4

    def test_floor_applies_to_each_residual(self, monkeypatch):
        # in the first sample the kernel residual is the relatively smaller one, in
        # the second the code residual; a floor between the two falls back in both
        n = 96
        C = _code(n, seed=n)
        kernel = code_kernel(C)
        calls = _count_exact(monkeypatch)
        smaller = []
        for seed in (0, 1):
            f = decompose(kernel, sample_indices(n, 48, seed))
            exact = _exact(f, monkeypatch)
            ratios = {
                "code": exact.code_err**2 / kernel.code_scale,
                "kernel": exact.kernel_err**2 / kernel.kernel_scale,
            }
            lo, hi = sorted(ratios.values())
            smaller.append(min(ratios, key=ratios.get))
            for floor, fallback in [(0.99 * lo, False), (np.sqrt(lo * hi), True)]:
                monkeypatch.setattr(nystrom, "TRACE_FLOOR", floor)
                calls.clear()
                approximation_errors(f)
                assert bool(calls) == fallback
        assert smaller == ["kernel", "code"]

    def test_workload_shaped_cells_stay_above_floor(self, monkeypatch):
        C = _code(128, seed=7)
        s = np.abs(np.linalg.eigvalsh(C.values))  # the singular values of a symmetric C
        for c in (16, 32, 64):
            exact = _exact(decompose(code_kernel(C), sample_indices(128, c, 0)), monkeypatch)
            assert exact.code_err**2 > 100 * TRACE_FLOOR * np.sum(s**2)

    def test_scales_are_spectral_sums(self):
        # ||C||_F^2 = sum sigma^2 and ||K||_F^2 = sum sigma^4 over the singular values of C
        C = _code(96, seed=4)
        s = np.abs(np.linalg.eigvalsh(C.values))  # the singular values of a symmetric C
        kernel = code_kernel(C)
        assert kernel.code_scale == pytest.approx(np.sum(s**2), rel=1e-12)
        assert kernel.kernel_scale == pytest.approx(np.sum(s**4), rel=1e-12)


class TestLazyKernel:
    """A CodeKernel holds C and ||C||_F^2 once made, and builds K and ||K||_F^2 the
    first time each is read."""

    def test_scoring_every_draw_builds_k_once(self, k_builds):
        n = 96
        C = _code(n, seed=3)
        kernel = code_kernel(C)
        for c, seed in [(32, 0), (8, 1), (32, 2), (n, 0)]:  # the last falls back
            approximation_errors(decompose(kernel, sample_indices(n, c, seed)))
        assert len(k_builds) == 1 and k_builds[0]() is kernel.K
        assert np.array_equal(kernel.K, C.values @ C.values.T)
