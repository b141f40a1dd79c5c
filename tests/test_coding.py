import re
import tracemalloc
import warnings

import numpy as np
import pytest

from nyscode import coding
from nyscode.coding import CodeMatrix, Dictionary, check_alpha, encode, full_code
from nyscode.data import DataMatrix
from nyscode.nystrom import code_kernel


def _random_problem(seed, d=4, N=6, c=3):
    rng = np.random.default_rng(seed)
    X = DataMatrix(rng.standard_normal((d, N)))
    D = Dictionary(rng.standard_normal((d, c)))
    return X, D


class TestDictionary:
    @pytest.mark.parametrize(
        "atoms, message",
        [
            (np.array([[1.0, np.nan], [0.0, 1.0]]), "NaN or Inf"),
            (np.array([[1.0, 0.0], [np.inf, 1.0]]), "NaN or Inf"),
            (np.ones((3, 0)), "c >= 1"),
        ],
        ids=["nan", "inf", "no-atoms"],
    )
    def test_bad_atoms_rejected(self, atoms, message):
        with pytest.raises(ValueError, match=message):
            Dictionary(atoms)


class TestCodeMatrix:
    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            CodeMatrix(np.array([[1.0, -0.1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_named(self, bad):
        with pytest.raises(ValueError, match="NaN or Inf"):
            CodeMatrix(np.array([[1.0, bad], [0.0, 2.0]]))

    def test_negative_entry_named(self):
        with pytest.raises(ValueError, match=">= 0"):
            CodeMatrix(np.array([[1.0, 0.0], [-1e-300, 2.0]]))

    def test_empty_accepted(self):
        assert CodeMatrix(np.zeros((0, 3))).c == 3

    @pytest.mark.parametrize("shape", [(3,), (1, 2, 2)])
    def test_not_2d_rejected(self, shape):
        with pytest.raises(ValueError, match="code matrix must be 2-D"):
            CodeMatrix(np.ones(shape))


class TestCheckAlpha:
    # column norms 2 and 1: no <x, x'> exceeds 4, and no <x, a> with |a| <= 1 exceeds 2
    X = DataMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("alpha, atom_norm, bound", [
        (4.0, None, 4), (2.0, 1.0, 2), (1.0, 0.5, 1), (1e300, None, 4),
    ])
    def test_alpha_at_or_above_the_bound_rejected(self, alpha, atom_norm, bound):
        with pytest.raises(ValueError, match=re.escape(
                f"every code is zero: alpha={alpha} is not below the largest similarity "
                f"bound {bound}")):
            check_alpha(self.X, alpha, atom_norm)

    @pytest.mark.parametrize("alpha, atom_norm", [(3.99, None), (1.99, 1.0), (-5.0, 0.0)])
    def test_alpha_below_the_bound_accepted(self, alpha, atom_norm):
        check_alpha(self.X, alpha, atom_norm)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha_named(self, alpha):
        with pytest.raises(ValueError, match=f"alpha must be finite, got {alpha}"):
            check_alpha(self.X, alpha)


class TestEncode:
    def test_identity_dictionary(self):
        X = DataMatrix(np.array([[1.0], [0.0]]))
        D = Dictionary(np.eye(2))
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
        D = Dictionary(rng.standard_normal((8, 13)))
        expected = np.maximum(0.0, X.values.T @ D.atoms - alpha)
        got = encode(X, D, alpha).values
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_integer_data_matches_out_of_place_expression(self):
        X = DataMatrix(np.arange(6).reshape(2, 3))
        D = Dictionary(np.array([[1, 0], [0, 1]]))
        expected = np.maximum(0.0, X.values.T @ D.atoms - 1.5)
        assert np.array_equal(encode(X, D, 1.5).values, expected)

    def test_dimension_mismatch(self):
        X = DataMatrix(np.ones((3, 2)))
        D = Dictionary(np.ones((4, 2)))
        with pytest.raises(ValueError):
            encode(X, D, 0.0)


def _blocked_problem(c):
    """Samples that fill two threshold row blocks plus 7 rows, and c atoms."""
    rows = max(1, coding._BLOCK_BYTES // (8 * c))
    rng = np.random.default_rng(c)
    X = DataMatrix(rng.standard_normal((8, 2 * rows + 7)))
    return X, Dictionary(rng.standard_normal((8, c)))


class TestEncodeInto:
    # c = 40,000 makes one row larger than a threshold block
    @pytest.mark.parametrize("c", [13, 300, 40_000])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, -0.5])
    def test_same_bits_with_and_without_out(self, c, alpha):
        X, D = _blocked_problem(c)
        expected = np.maximum(0.0, X.values.T @ D.atoms - alpha)
        out = np.full((X.N, c), np.nan)
        got = encode(X, D, alpha, out=out)
        assert got.values is out
        for values in (got.values, encode(X, D, alpha).values):
            assert np.array_equal(values, expected)
            assert np.array_equal(np.signbit(values), np.signbit(expected))

    def test_view_of_a_larger_buffer(self):
        X, D = _random_problem(8, d=5, N=11, c=4)
        buffer = np.full(100, -1.0)
        got = encode(X, D, 0.1, out=buffer[: X.N * D.c].reshape(X.N, D.c))
        assert np.array_equal(got.values, encode(X, D, 0.1).values)
        assert np.shares_memory(got.values, buffer)
        assert np.all(buffer[X.N * D.c :] == -1.0)

    @pytest.mark.parametrize(
        "out",
        [np.empty((6, 4)), np.empty((3, 6)), np.empty(18), np.empty((6, 3), dtype=np.float32)],
        ids=["wrong-c", "transposed", "flat", "float32"],
    )
    def test_wrong_out_rejected(self, out):
        X, D = _random_problem(9)
        with pytest.raises(ValueError, match="out must be a 6 x 3 float64 array"):
            encode(X, D, 0.1, out=out)


def _overflow_problem(c, row, kind):
    """_blocked_problem(c) with sample ``row`` and atom 0 scaled to 1e200, so that
    only their product overflows: to +inf ("inf"), or to NaN ("nan", where the
    atom's signs alternate and +inf meets -inf in the sum)."""
    X, D = _blocked_problem(c)
    x = np.abs(X.values[:, row])
    X.values[:, row] = 1e200 * x
    D.atoms[:, 0] = 1e200 * x * (np.resize([1.0, -1.0], x.size) if kind == "nan" else 1.0)
    return X, D


class TestEncodeChecksCodes:
    @pytest.mark.parametrize("kind", ["inf", "nan"])
    @pytest.mark.parametrize("where", ["middle-block", "ragged-last-block"])
    @pytest.mark.parametrize("c", [13, 300])
    def test_non_finite_code_in_a_later_block_named(self, c, where, kind):
        rows = max(1, coding._BLOCK_BYTES // (8 * c))
        row = rows + rows // 2 if where == "middle-block" else 2 * rows + 3
        X, D = _overflow_problem(c, row, kind)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite((X.values.T @ D.atoms)[row, 0])
        # named, with no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for out in (None, np.empty((X.N, c))):
                with pytest.raises(ValueError, match="^the codes overflow the float range$"):
                    encode(X, D, 0.25, out=out)

    def test_threshold_overflow_named(self):
        # finite products that the subtraction of a hugely negative alpha takes to +inf
        X, D = DataMatrix(np.array([[1e308]])), Dictionary(np.array([[1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the codes overflow the float range$"):
                encode(X, D, -1e308)
            # one that goes to -inf thresholds to a zero code
            assert encode(X, Dictionary(np.array([[-1.0]])), 1e308).values.tolist() == [[0.0]]

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha_named_before_the_product(self, alpha):
        X, D = _random_problem(10)
        out = np.full((X.N, D.c), 7.0)
        with pytest.raises(ValueError, match=f"^alpha must be finite, got {alpha}$"):
            encode(X, D, alpha, out=out)
        assert np.all(out == 7.0)

    def test_encode_builds_its_code_matrix_without_a_second_check(self, monkeypatch):
        calls = []
        check = CodeMatrix.__post_init__
        monkeypatch.setattr(
            CodeMatrix, "__post_init__", lambda self: calls.append(1) or check(self)
        )
        X, D = _blocked_problem(13)
        C = encode(X, D, 0.25)
        encode(X, D, 0.25, out=np.empty((X.N, D.c)))
        full_code(_random_problem(0)[0], 0.25)
        assert calls == []
        assert isinstance(C, CodeMatrix) and C.N == X.N and C.c == D.c
        with pytest.raises(ValueError, match=">= 0"):
            CodeMatrix(-C.values - 1.0)
        assert calls == [1]


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
        D = Dictionary(X.values)
        E = encode(X, D, 0.2).values
        assert np.abs(C - E).max() <= 1e-12 * max(np.abs(C).max(), 1.0)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_subsampled_dictionary_reproduces_columns(self, seed):
        # encoding against sampled columns of X gives exactly those columns of C
        rng = np.random.default_rng(seed)
        X = DataMatrix(rng.standard_normal((5, 8)))
        C = full_code(X, 0.15).values
        cols = np.array([1, 4, 6])
        D = Dictionary(X.values[:, cols])
        E = encode(X, D, 0.15).values
        assert np.abs(E - C[:, cols]).max() <= 1e-12 * max(np.abs(C).max(), 1.0)


def _layout(name):
    """(data in the named memory layout, a BLAS-friendly array with the same values)."""
    rng = np.random.default_rng(0)
    if name == "c-order":
        values = rng.standard_normal((8, 60))
    elif name == "f-order":
        values = np.asfortranarray(rng.standard_normal((8, 60)))
    elif name == "row-sliced":
        values = rng.standard_normal((12, 60))[2:10]
    elif name == "column-strided":  # X^T X of this view is not bit-symmetric
        values = rng.standard_normal((40, 3000))[:32, ::2]
    else:  # "large": N >= 1024
        values = rng.standard_normal((16, 1030))
    return values, np.ascontiguousarray(values) if name == "column-strided" else values


class TestFullCodeBits:
    @pytest.mark.parametrize("alpha", [0.0, 0.25, -0.1])
    @pytest.mark.parametrize(
        "layout", ["c-order", "f-order", "row-sliced", "column-strided", "large"]
    )
    def test_symmetric_and_equal_to_symmetrized_formula(self, layout, alpha):
        values, blas = _layout(layout)
        C = full_code(DataMatrix(values), alpha).values
        assert np.array_equal(C, C.T)
        G = blas.T @ blas
        expected = np.maximum(0.0, (G + G.T) / 2.0 - alpha)
        assert np.array_equal(C, expected)
        assert np.array_equal(np.signbit(C), np.signbit(expected))
        assert np.array_equal(C, encode(DataMatrix(blas), Dictionary(blas), alpha).values)

    def test_peak_memory_is_about_the_result(self):
        X = DataMatrix(np.random.default_rng(0).standard_normal((32, 2000)))
        tracemalloc.start()
        try:
            full_code(X, 0.25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 2000 * 2000 * 8


class TestGramKernel:
    """The kernel K = C C^T of a code matrix, as ``nystrom.code_kernel`` builds it."""

    def test_identity(self):
        K = code_kernel(CodeMatrix(np.eye(3))).K
        assert np.array_equal(K, np.eye(3))

    def test_single_column_rank_one(self):
        v = np.array([[1.0], [2.0], [3.0]])
        C = v @ v.T
        K = code_kernel(CodeMatrix(C)).K
        assert np.array_equal(K, 14.0 * C)  # (v v^T)(v v^T) = |v|^2 v v^T

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_symmetric_psd(self, seed):
        vals = np.abs(np.random.default_rng(seed).standard_normal((5, 5)))
        K = code_kernel(CodeMatrix(vals + vals.T)).K
        assert np.array_equal(K, K.T)
        assert np.linalg.eigvalsh(K).min() >= -1e-10


def _symmetric_of_order(n, seed=0):
    A = np.random.default_rng(seed).standard_normal((n, n))
    return A + A.T


class TestIsSymmetric:
    """``coding._is_symmetric`` compares tile pairs; it must agree with
    ``np.array_equal(v, v.T)`` on every square matrix and reject any other."""

    @staticmethod
    def _agrees(v, expected):
        assert coding._is_symmetric(v) is expected
        assert np.array_equal(v, v.T) is expected

    @pytest.mark.parametrize("extra", [1, 88], ids=["one-past-a-tile", "ragged"])
    def test_symmetric_order_not_a_multiple_of_the_tile(self, extra):
        self._agrees(_symmetric_of_order(2 * coding._SYMMETRY_TILE + extra), True)

    def test_one_flipped_entry_in_the_ragged_last_tile(self):
        n = 2 * coding._SYMMETRY_TILE + 88
        v = _symmetric_of_order(n)
        v[n - 1, n - 40] = np.nextafter(v[n - 1, n - 40], np.inf)
        self._agrees(v, False)
        w = _symmetric_of_order(n)
        w[3, n - 2] = np.nextafter(w[3, n - 2], np.inf)  # a tile whose mirror is ragged
        self._agrees(w, False)

    @pytest.mark.parametrize("where", [(2, 2), (1, 300)], ids=["diagonal", "mirrored-pair"])
    def test_nan_is_unequal(self, where):
        v = _symmetric_of_order(coding._SYMMETRY_TILE + 60)
        v[where] = v[where[::-1]] = np.nan
        self._agrees(v, False)

    @pytest.mark.parametrize("v, expected", [
        (np.array([[2.5]]), True),
        (np.array([[np.nan]]), False),
        (np.zeros((0, 0)), True),
        (np.ones((3, 4)), False),
        (np.ones((300, 260)), False),
    ], ids=["1x1", "1x1-nan", "0x0", "3x4", "300x260"])
    def test_small_and_non_square(self, v, expected):
        self._agrees(v, expected)

    def test_temporaries_are_tile_sized(self):
        v = _symmetric_of_order(2048)
        tracemalloc.start()
        try:
            assert coding._is_symmetric(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048 * 2048 / 4  # a quarter of the one N x N boolean of array_equal
