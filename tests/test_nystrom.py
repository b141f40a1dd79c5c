import tracemalloc

import numpy as np
import pytest

from nyscode import nystrom
from nyscode.coding import CodeMatrix, full_code
from nyscode.data import DataMatrix, normalize_columns
from nyscode.dictionary import sample_indices
from nyscode.spectra import spectral_report
from nyscode.nystrom import (
    PINV_TOL,
    TRACE_FLOOR,
    NystromFactors,
    approximation_errors,
    code_kernel,
    decompose,
)
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
        f = decompose(C, [0])
        assert np.array_equal(sampled_columns(f), np.ones((3, 1)))
        assert np.array_equal(sampled_block(f), [[1.0]])
        assert np.allclose(w_pinv(f), [[1.0]])

    def test_full_sampling_reproduces_matrix(self):
        C = _random_psd(5, 5, seed=0)
        f = decompose(C, np.arange(5))
        assert np.array_equal(sampled_columns(f), C)
        assert np.array_equal(sampled_block(f), C)

    def test_w_is_exact_subblock(self):
        C = _random_psd(6, 6, seed=1)
        f = decompose(C, [1, 4])
        assert np.array_equal(f.indices, [1, 4])
        assert np.array_equal(sampled_block(f), C[np.ix_([1, 4], [1, 4])])

    def test_w_pinv_symmetric_for_symmetric_input(self):
        C = _random_psd(8, 3, seed=2)
        f = decompose(C, [0, 2, 5])
        pinv = w_pinv(f)
        assert np.abs(pinv - pinv.T).max() <= 1e-10 * np.abs(pinv).max()

    def test_accepts_code_matrix(self):
        C = CodeMatrix(np.ones((3, 3)))
        f = decompose(C, [1])
        assert sampled_columns(f).shape == (3, 1)

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

    def test_non_symmetric_rejected(self):
        C = _random_psd(5, 5, seed=3)
        C[1, 3] += 1e-12
        with pytest.raises(ValueError, match="symmetric"):
            decompose(C, [1, 3])

    @pytest.mark.parametrize(
        "indices, dtype",
        [([0.5, 1.7, 3.2], "float64"), ([True, True, False, False, False], "bool")],
        ids=["float", "boolean-mask"],
    )
    def test_non_integer_indices_rejected(self, indices, dtype):
        # neither is truncated nor read as the indices 0 and 1
        with pytest.raises(ValueError, match=f"indices must be integers, got dtype {dtype}"):
            decompose(np.eye(5), indices)

    def test_factors_hold_c_and_copy_only_w(self):
        C = _code(768, seed=5).values
        idx = sample_indices(768, 64, 0)
        tracemalloc.start()
        try:
            f = decompose(C, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 768 * 64 * 8
        assert f.C is C
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
        f = decompose(C, sample_indices(C.shape[0], c, 0))
        ref = np.linalg.pinv(sampled_block(f), rcond=1e-10)
        assert len(f.eigvals) == kept
        assert np.linalg.norm(w_pinv(f) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_eigenpairs_ordered_and_kept_above_tolerance(self):
        C = _code(40, seed=3)
        f = decompose(C, sample_indices(40, 10, 0))
        mag = np.abs(f.eigvals)
        assert np.all(np.diff(mag) <= 0.0)
        assert mag[-1] > PINV_TOL * mag[0]
        assert np.allclose(f.eigvecs.T @ f.eigvecs, np.eye(len(mag)), atol=1e-12)
        W = (f.eigvecs * f.eigvals) @ f.eigvecs.T
        block = sampled_block(f)
        assert np.linalg.norm(W - block) <= 1e-12 * np.linalg.norm(block)

    def test_zero_block_has_zero_pinv(self):
        f = decompose(np.zeros((4, 4)), [0, 2])
        assert f.eigvals.size == 0
        assert np.array_equal(w_pinv(f), np.zeros((2, 2)))


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

    @pytest.mark.parametrize("n_factors", [48, 24], ids=["larger", "smaller"])
    def test_factors_of_another_size_rejected(self, n_factors):
        kernel = code_kernel(_code(32, seed=0))
        f = decompose(_code(n_factors, seed=1), np.arange(0, 24, 3))
        for C in (kernel, kernel.C):
            with pytest.raises(ValueError, match=f"N={n_factors} matrix, but C has N=32"):
                approximation_errors(C, f)
        assert kernel.workspace(0).base.size == 0  # rejected before the workspace grew

    def test_sample_of_another_matrix_of_the_same_size_rejected(self, monkeypatch):
        # a sample is scored only against the matrix it was drawn from, whatever the
        # form of the other matrix, and before any kernel is built or workspace grown
        other = _code(64, seed=1)
        kernel = code_kernel(other)
        f = decompose(_code(64, seed=0), sample_indices(64, 16, 0))

        def no_kernel(C):
            raise AssertionError("a kernel was built for a sample of another matrix")

        monkeypatch.setattr(nystrom, "code_kernel", no_kernel)
        for C in (kernel, other, other.values, other.values.tolist()):
            with pytest.raises(ValueError, match="N=64 matrix, but C is another matrix"):
                approximation_errors(C, f)
        assert kernel.workspace(0).base.size == 0

    def test_non_symmetric_matrix_with_a_symmetric_sampled_block_rejected(self):
        # C = S + B/2 with B antisymmetric and zero on the sampled block: decompose sees
        # a symmetric W, but the trace forms and the row gather would score another C
        rng = np.random.default_rng(0)
        n, idx = 40, np.arange(0, 40, 5)
        S, B = rng.standard_normal((2, n, n))
        B -= B.T
        B[np.ix_(idx, idx)] = 0.0
        C = (S + S.T) + 0.5 * B
        f = decompose(C, idx)
        with pytest.raises(ValueError, match="C must be square and equal to its transpose"):
            code_kernel(C)
        with pytest.raises(ValueError, match="C must be square and equal to its transpose"):
            approximation_errors(C, f)


_DEGENERATE = [
    pytest.param([[np.inf]], r"\|\|C\|\|_F\^2 is not finite", id="inf"),
    pytest.param(np.full((2, 2), 1e200), r"\|\|C\|\|_F\^2 is not finite", id="overflow"),
    pytest.param([[np.nan]], "C contains NaN", id="nan"),
    pytest.param([[1.0, np.nan], [np.nan, 1.0]], "C contains NaN", id="nan-pair"),
    pytest.param(np.zeros((0, 0)), "C must be non-empty", id="empty"),
]


class TestDegenerateCodeMatrix:
    """A code matrix that is empty, holds a NaN or has no finite ||C||_F^2 is rejected
    with a message that names the cause, by each entry point that checks all of C."""

    @pytest.mark.parametrize("C, message", _DEGENERATE)
    def test_code_kernel(self, C, message):
        with pytest.raises(ValueError, match=message):
            code_kernel(C)

    @pytest.mark.parametrize("C, message", _DEGENERATE)
    def test_approximation_errors(self, C, message):
        # factors that hold C itself, so the kernel built for the call checks it
        C = np.asarray(C, dtype=float)
        f = NystromFactors(indices=np.array([0]), C=C, eigvals=np.ones(1), eigvecs=np.ones((1, 1)))
        with pytest.raises(ValueError, match=message):
            approximation_errors(C, f)

    @pytest.mark.parametrize("C, message", _DEGENERATE)
    def test_spectral_report(self, C, message):
        with pytest.raises(ValueError, match=message):
            spectral_report(C)

    def test_kernel_scale_overflow(self):
        # ||C||_F^2 = 4e200 is finite, but K's entries are 2e200 and their squares are not
        with pytest.raises(ValueError, match=r"\|\|K\|\|_F\^2 is not finite"):
            code_kernel(np.full((2, 2), 1e100))


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


def _code(n, seed, gap=None):
    # thresholded code matrix of unit columns: symmetric and indefinite; with
    # ``gap``, data columns 0 and 1 differ by gap times column 2, so a sample
    # holding both has a near-singular W
    X = np.random.default_rng(seed).standard_normal((16, n))
    if gap is not None:
        X[:, 1] = X[:, 0] + gap * X[:, 2]
    return full_code(normalize_columns(DataMatrix(X), "unit_l2"), alpha=0.25)


def _exact(C, f, monkeypatch):
    """approximation_errors on its exact path, ``_residual_norms``, whatever the residual:
    with an infinite TRACE_FLOOR every sample falls back."""
    with monkeypatch.context() as m:
        m.setattr(nystrom, "TRACE_FLOOR", np.inf)
        return approximation_errors(C, f)


class TestExactResiduals:
    @pytest.mark.parametrize("n", [293, 42])
    def test_matches_direct_norms(self, n, monkeypatch):
        C = _code(n, seed=n)
        K = code_kernel(C).K
        f = decompose(C, sample_indices(n, 12, 0))
        exact = _exact(C, f, monkeypatch)
        direct_code = np.linalg.norm(C.values - reconstruct_code(f))
        direct_kernel = np.linalg.norm(K - reconstruct_kernel(f))
        assert exact.code_err == pytest.approx(direct_code, rel=1e-12)
        assert exact.kernel_err == pytest.approx(direct_kernel, rel=1e-12)

    def test_full_sample_error_is_zero(self):
        n = 133
        C = _random_psd(n, n, seed=9)
        K = C @ C
        errs = approximation_errors(C, decompose(C, np.arange(n)))
        assert errs.code_err <= 1e-9 * np.linalg.norm(C)
        assert errs.kernel_err <= 1e-9 * np.linalg.norm(K)

    def test_no_n_by_n_temporary(self):
        # given the CodeKernel, scoring a sample builds no N x N matrix
        n = 512
        C = _code(n, seed=1)
        kernel = code_kernel(C)
        f = decompose(C, sample_indices(n, 64, 0))
        tracemalloc.start()
        try:
            approximation_errors(kernel, f)
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
            f = decompose(C, sample_indices(n, c, seed))
            assert approximation_errors(kernel, f) == approximation_errors(code_kernel(C), f)

    def test_alternating_kernels_match_fresh_kernels(self):
        codes = [_code(96, seed=1), _code(160, seed=2)]
        kernels = [code_kernel(C) for C in codes]
        for step in range(6):
            which = step % 2
            C = codes[which]
            f = decompose(C, sample_indices(C.values.shape[0], (16, 64, 32)[step // 2], step))
            assert approximation_errors(kernels[which], f) == approximation_errors(code_kernel(C), f)

    def test_second_sample_allocates_nothing_of_size_n_by_c(self):
        n, c = 768, 64
        C = _code(n, seed=5)
        kernel = code_kernel(C)
        approximation_errors(kernel, decompose(C, sample_indices(n, c, 0)))
        f = decompose(C, sample_indices(n, c, 1))
        tracemalloc.start()
        try:
            approximation_errors(kernel, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * c * 8


def _count_exact(monkeypatch) -> list:
    """Record the kernel of every exact residual pass of approximation_errors
    (``_residual_norms``, which the trace path never takes), and fail any call
    that builds C C^T: install it after the ``CodeKernel`` is built, as every
    caller here passes one, and a call given one builds none, on the trace path
    and the fallback alike."""
    calls = []
    real = nystrom._residual_norms

    def spy(values, K, *factors):
        calls.append(K)
        return real(values, K, *factors)

    def no_kernel(C):
        raise AssertionError("approximation_errors built C C^T although it was given K")

    monkeypatch.setattr(nystrom, "_residual_norms", spy)
    monkeypatch.setattr(nystrom, "code_kernel", no_kernel)
    return calls


class TestTraceResiduals:
    @pytest.mark.parametrize("n, c", [(96, 8), (96, 48), (160, 80), (293, 64)])
    def test_matches_exact_path(self, n, c, monkeypatch):
        C = _code(n, seed=n)
        kernel = code_kernel(C)
        calls = _count_exact(monkeypatch)
        for seed in range(3):
            f = decompose(C, sample_indices(n, c, seed))
            trace = approximation_errors(kernel, f)
            assert not calls
            exact = _exact(kernel, f, monkeypatch)
            calls.clear()
            assert trace.code_err == pytest.approx(exact.code_err, rel=1e-10)
            assert trace.kernel_err == pytest.approx(exact.kernel_err, rel=1e-10)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_near_singular_w_with_error_above_norm(self, seed, monkeypatch):
        n = 160
        C = _code(n, seed, gap=1e-4)
        kernel = code_kernel(C)
        f = decompose(C, np.concatenate([[0, 1], 2 + sample_indices(n - 2, 62, seed)]))
        calls = _count_exact(monkeypatch)
        trace = approximation_errors(kernel, f)
        assert not calls
        exact = _exact(kernel, f, monkeypatch)
        assert abs(f.eigvals[0] / f.eigvals[-1]) > 1e7
        assert exact.code_err > np.linalg.norm(C.values)
        assert trace.code_err == pytest.approx(exact.code_err, rel=1e-10)
        assert trace.kernel_err == pytest.approx(exact.kernel_err, rel=1e-10)

    def test_full_sample_uses_exact_path(self, monkeypatch):
        n = 40
        C = _code(n, seed=2)
        kernel = code_kernel(C)
        calls = _count_exact(monkeypatch)
        errs = approximation_errors(kernel, decompose(C, np.arange(n)))
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
            errs = approximation_errors(kernel, decompose(C, idx))
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
            f = decompose(C, sample_indices(n, 48, seed))
            exact = _exact(kernel, f, monkeypatch)
            ratios = {
                "code": exact.code_err**2 / kernel.code_scale,
                "kernel": exact.kernel_err**2 / kernel.kernel_scale,
            }
            lo, hi = sorted(ratios.values())
            smaller.append(min(ratios, key=ratios.get))
            for floor, fallback in [(0.99 * lo, False), (np.sqrt(lo * hi), True)]:
                monkeypatch.setattr(nystrom, "TRACE_FLOOR", floor)
                calls.clear()
                approximation_errors(kernel, f)
                assert bool(calls) == fallback
        assert smaller == ["kernel", "code"]

    def test_workload_shaped_cells_stay_above_floor(self, monkeypatch):
        C = _code(128, seed=7)
        s = np.abs(np.linalg.eigvalsh(C.values))  # the singular values of a symmetric C
        for c in (16, 32, 64):
            exact = _exact(C, decompose(C, sample_indices(128, c, 0)), monkeypatch)
            assert exact.code_err**2 > 100 * TRACE_FLOOR * np.sum(s**2)

    def test_scales_are_spectral_sums(self):
        # ||C||_F^2 = sum sigma^2 and ||K||_F^2 = sum sigma^4 over the singular values of C
        C = _code(96, seed=4)
        s = np.abs(np.linalg.eigvalsh(C.values))  # the singular values of a symmetric C
        kernel = code_kernel(C)
        assert kernel.code_scale == pytest.approx(np.sum(s**2), rel=1e-12)
        assert kernel.kernel_scale == pytest.approx(np.sum(s**4), rel=1e-12)

    @pytest.mark.parametrize("n, c, fallback", [(96, 48, False), (40, 40, True)],
                             ids=["trace", "full-sample-fallback"])
    def test_plain_matrix_matches_code_kernel_bit_for_bit(self, n, c, fallback, monkeypatch):
        # a plain C, as its CodeMatrix, its array, an equal copy or a nested list, has
        # its kernel built for the call; the same path runs either way
        C = _code(n, seed=n)
        f = decompose(C, sample_indices(n, c, 0))
        exact = []
        real = nystrom._residual_norms

        def spy(*args):
            exact.append(args)
            return real(*args)

        monkeypatch.setattr(nystrom, "_residual_norms", spy)
        for matrix in (C, C.values, C.values.copy(), C.values.tolist()):
            assert approximation_errors(matrix, f) == approximation_errors(code_kernel(C), f)
        assert len(exact) == (8 if fallback else 0)
