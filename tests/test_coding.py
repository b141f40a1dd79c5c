import numpy as np
import pytest

from nyscode.coding import CodeMatrix, Dictionary, encode, full_code, gram_kernel
from nyscode.data import DataMatrix


def _random_problem(seed, d=4, N=6, c=3):
    rng = np.random.default_rng(seed)
    X = DataMatrix(rng.standard_normal((d, N)))
    D = Dictionary(rng.standard_normal((d, c)), source="kmeans")
    return X, D


class TestDictionary:
    def test_sampled_requires_indices(self):
        with pytest.raises(ValueError):
            Dictionary(np.ones((2, 2)), source="sampled")

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            Dictionary(np.ones((2, 2)), source="sampled", indices=np.array([1, 1]))

    def test_unknown_source(self):
        with pytest.raises(ValueError):
            Dictionary(np.ones((2, 2)), source="random")


class TestCodeMatrix:
    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            CodeMatrix(np.array([[1.0, -0.1]]), alpha=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_named(self, bad):
        with pytest.raises(ValueError, match="NaN or Inf"):
            CodeMatrix(np.array([[1.0, bad], [0.0, 2.0]]), alpha=0.0)

    def test_negative_entry_named(self):
        with pytest.raises(ValueError, match=">= 0"):
            CodeMatrix(np.array([[1.0, 0.0], [-1e-300, 2.0]]), alpha=0.0)

    def test_empty_accepted(self):
        assert CodeMatrix(np.zeros((0, 3)), alpha=0.0).c == 3


class TestEncode:
    def test_identity_dictionary(self):
        X = DataMatrix(np.array([[1.0], [0.0]]))
        D = Dictionary(np.eye(2), source="kmeans")
        out = encode(X, D, alpha=0.5)
        assert np.array_equal(out.values, [[0.5, 0.0]])

    def test_large_alpha_zeroes_everything(self):
        X, D = _random_problem(0)
        alpha = float((X.values.T @ D.atoms).max()) + 1.0
        out = encode(X, D, alpha)
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_scalar_loop_oracle(self, seed):
        X, D = _random_problem(seed)
        out = encode(X, D, alpha=0.1)
        expected = np.zeros((X.N, D.c))
        for i in range(X.N):
            for j in range(D.c):
                expected[i, j] = max(0.0, float(np.dot(X.values[:, i], D.atoms[:, j])) - 0.1)
        assert np.abs(out.values - expected).max() <= 1e-12

    @pytest.mark.parametrize("seed", [4, 5])
    def test_output_non_negative(self, seed):
        X, D = _random_problem(seed, d=6, N=9, c=5)
        assert encode(X, D, alpha=-1.0).values.min() >= 0.0

    def test_monotone_in_alpha(self):
        X, D = _random_problem(6)
        lo = encode(X, D, alpha=0.1).values
        hi = encode(X, D, alpha=0.3).values
        assert np.all(hi <= lo)

    @pytest.mark.parametrize("alpha", [0.0, 0.1, -0.5, 0.7])
    def test_bit_identical_to_out_of_place_expression(self, alpha):
        rng = np.random.default_rng(11)
        X = DataMatrix(rng.standard_normal((8, 40)))
        D = Dictionary(rng.standard_normal((8, 13)), source="kmeans")
        expected = np.maximum(0.0, X.values.T @ D.atoms - alpha)
        got = encode(X, D, alpha).values
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_integer_data_matches_out_of_place_expression(self):
        X = DataMatrix(np.arange(6).reshape(2, 3))
        D = Dictionary(np.array([[1, 0], [0, 1]]), source="kmeans")
        expected = np.maximum(0.0, X.values.T @ D.atoms - 1.5)
        assert np.array_equal(encode(X, D, 1.5).values, expected)

    def test_dimension_mismatch(self):
        X = DataMatrix(np.ones((3, 2)))
        D = Dictionary(np.ones((4, 2)), source="kmeans")
        with pytest.raises(ValueError):
            encode(X, D, 0.0)


class TestFullCode:
    def test_orthonormal_samples(self):
        X = DataMatrix(np.eye(2))
        assert np.array_equal(full_code(X, 0.0).values, np.eye(2))
        assert np.array_equal(full_code(X, 0.5).values, 0.5 * np.eye(2))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_symmetric_and_consistent_with_encode(self, seed):
        X = DataMatrix(np.random.default_rng(seed).standard_normal((3, 5)))
        C = full_code(X, 0.2).values
        assert np.abs(C - C.T).max() <= 1e-14 * max(np.abs(C).max(), 1.0)
        D = Dictionary(X.values, source="kmeans")
        E = encode(X, D, 0.2).values
        assert np.abs(C - E).max() <= 1e-12 * max(np.abs(C).max(), 1.0)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_subsampled_dictionary_reproduces_columns(self, seed):
        # encoding against sampled columns of X gives exactly those columns of C
        rng = np.random.default_rng(seed)
        X = DataMatrix(rng.standard_normal((5, 8)))
        C = full_code(X, 0.15).values
        cols = np.array([1, 4, 6])
        D = Dictionary(X.values[:, cols], source="sampled", indices=cols)
        E = encode(X, D, 0.15).values
        assert np.abs(E - C[:, cols]).max() <= 1e-12 * max(np.abs(C).max(), 1.0)


class TestGramKernel:
    def test_identity(self):
        K = gram_kernel(CodeMatrix(np.eye(3), 0.0))
        assert np.array_equal(K, np.eye(3))

    def test_single_column_rank_one(self):
        v = np.array([[1.0], [2.0], [3.0]])
        K = gram_kernel(CodeMatrix(v, 0.0))
        assert np.array_equal(K, v @ v.T)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_symmetric_psd(self, seed):
        vals = np.abs(np.random.default_rng(seed).standard_normal((5, 4)))
        K = gram_kernel(CodeMatrix(vals, 0.0))
        assert np.array_equal(K, K.T)
        assert np.linalg.eigvalsh(K).min() >= -1e-10
