import numpy as np
import pytest

from nyscode import nystrom, spectra
from nyscode.coding import full_code
from nyscode.data import DataMatrix, normalize_columns, synth_manifold
from nyscode.harness import CurveConfig, _curve_dataset, _split
from nyscode.nystrom import code_kernel
from nyscode.spectra import _energy_rank, rank_k_residual, spectral_report


def singular_values(C):
    """The singular values of a symmetric C, descending: its |eigenvalues|."""
    return np.sort(np.abs(np.linalg.eigvalsh(C)))[::-1]


def tail_norm(s, k):
    """sqrt of the sum of squared singular values past the first k."""
    return float(np.sqrt(np.sum(s[k:] ** 2)))


def symmetrized(A):
    return A + A.T


class TestRankKResidual:
    def test_full_rank_zero_residual(self):
        C = np.random.default_rng(0).standard_normal((4, 4))
        assert rank_k_residual(C, 4) <= 1e-10 * np.linalg.norm(C)

    def test_k_zero_is_frobenius_norm(self):
        C = np.random.default_rng(1).standard_normal((3, 5))
        assert rank_k_residual(C, 0) == pytest.approx(np.linalg.norm(C), rel=1e-12)

    def test_diagonal_example(self):
        assert rank_k_residual(np.diag([3.0, 2.0, 1.0]), 1) == pytest.approx(
            np.sqrt(5.0), abs=1e-12
        )

    def test_non_increasing_in_k(self):
        C = np.random.default_rng(2).standard_normal((6, 6))
        res = [rank_k_residual(C, k) for k in range(7)]
        assert all(res[i + 1] <= res[i] + 1e-12 for i in range(6))
        assert res[6] <= 1e-10 * res[0]

    @pytest.mark.parametrize("k", [-1, 7])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            rank_k_residual(np.eye(6), k)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_beats_random_rank_k_competitors(self, seed):
        # light version of the optimality spot check
        rng = np.random.default_rng(seed)
        C = rng.standard_normal((5, 5))
        for k in (1, 2):
            best = rank_k_residual(C, k)
            for _ in range(50):
                R = rng.standard_normal((5, k)) @ rng.standard_normal((k, 5))
                assert best <= np.linalg.norm(C - R) + 1e-12


def scaled_diag_max(C):
    return spectral_report(code_kernel(C)).scaled_diag_max


class TestScaledDiagMax:
    def test_identity(self):
        assert scaled_diag_max(np.eye(4)) == 4.0

    def test_diagonal(self):
        assert scaled_diag_max(np.diag([0.5, 2.0])) == 4.0

    def test_unit_normalized_code_diagonal(self):
        X = normalize_columns(
            DataMatrix(np.random.default_rng(3).standard_normal((6, 9))), "unit_l2"
        )
        C = full_code(X, alpha=0.0)
        # diagonal entries are squared column norms, all 1 after normalization
        assert np.allclose(np.diag(C.values), 1.0)
        assert scaled_diag_max(C) == pytest.approx(9.0, rel=1e-12)

    def test_invariant_under_symmetric_permutation(self):
        C = symmetrized(np.random.default_rng(4).standard_normal((5, 5)))
        perm = np.random.default_rng(5).permutation(5)
        assert scaled_diag_max(C[np.ix_(perm, perm)]) == scaled_diag_max(C)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match=r"square .* got shape \(2, 3\)"):
            scaled_diag_max(np.ones((2, 3)))


def effective_rank(C, energy=0.95):
    """Smallest k whose top-k squared singular values of C retain ``energy`` of the total."""
    return _energy_rank(singular_values(np.asarray(C, dtype=float)), energy)


class TestEffectiveRank:
    def test_identity_full_energy(self):
        assert effective_rank(np.eye(5), 1.0) == 5

    def test_rank_one_diagonal(self):
        assert effective_rank(np.diag([1.0, 0.0, 0.0]), 0.9) == 1

    def test_dominant_singular_value(self):
        # spectrum (10, 1, 1): top energy ratio 100/102 ~ 0.98 >= 0.95
        assert effective_rank(np.diag([10.0, 1.0, 1.0]), 0.95) == 1

    @pytest.mark.parametrize("energy", [0.0, 1.1, -0.5])
    def test_energy_out_of_range(self, energy):
        with pytest.raises(ValueError, match=r"energy must be in \(0, 1\]"):
            spectral_report(code_kernel(np.eye(2)), energy=energy)

    def test_zero_matrix_has_rank_zero(self):
        assert effective_rank(np.zeros((3, 3)), 0.95) == 0


class TestSpectralReport:
    def test_matches_component_functions(self):
        C = symmetrized(np.random.default_rng(6).standard_normal((7, 7)))
        rep = spectral_report(code_kernel(C), energy=0.7)
        assert rep.k == 3
        assert rep.rank_k_residual == pytest.approx(rank_k_residual(C, 3), rel=1e-12)
        assert rep.scaled_diag_max == 7 * np.max(np.diag(C))
        assert np.all(np.diff(rep.singular_values) <= 0)
        assert rep.singular_values.min() >= 0

    def test_default_k_is_effective_rank(self):
        C = np.diag([10.0, 1.0, 1.0])
        rep = spectral_report(code_kernel(C), energy=0.95)
        assert rep.k == effective_rank(C, 0.95) == 1

    def test_residual_invariant_definition(self):
        C = symmetrized(np.random.default_rng(7).standard_normal((5, 5)))
        rep = spectral_report(code_kernel(C), energy=0.6)
        assert rep.k == 2
        tail = np.sqrt(np.sum(rep.singular_values[2:] ** 2))
        assert rep.rank_k_residual == pytest.approx(tail, rel=1e-10)


class TestSingularValues:
    @staticmethod
    def _spy(monkeypatch):
        calls = []
        for name in ("svd", "eigvalsh"):
            real = getattr(np.linalg, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        return calls

    def test_symmetric_indefinite_uses_eigvalsh(self, monkeypatch):
        X = normalize_columns(
            DataMatrix(np.random.default_rng(8).standard_normal((8, 40))), "unit_l2"
        )
        C = full_code(X, alpha=0.25).values
        assert np.linalg.eigvalsh(C).min() < 0
        want = np.linalg.svd(C, compute_uv=False)
        kernel = code_kernel(C)
        calls = self._spy(monkeypatch)
        s = spectral_report(kernel, energy=0.95).singular_values
        assert calls == ["eigvalsh"]
        assert np.all(np.diff(s) <= 0)
        assert np.max(np.abs(s - want)) <= 1e-12 * want[0]

    def test_non_symmetric_square_rejected(self, monkeypatch):
        C = np.random.default_rng(9).standard_normal((6, 6))
        calls = self._spy(monkeypatch)
        with pytest.raises(ValueError, match="C must be square and equal to its transpose"):
            spectral_report(code_kernel(C))
        assert calls == []


def _acceptance_code(which):
    # the full code matrices behind the pinned curve (criteria 3, 5) and NYS3 configs
    if which == "curve":
        cfg = CurveConfig(c_grid=[8, 16, 32], seeds=[0], n_samples=800, alpha=0.25)
        data = _curve_dataset(cfg).data
        train_idx, _, _ = _split(data.N, cfg)
        return full_code(DataMatrix(data.values[:, train_idx]), 0.25)
    k = {"nys3-k2": 2, "nys3-k4": 4}[which]
    return full_code(normalize_columns(synth_manifold(32, k, 256, 0.05, 0), "unit_l2"), 0.25)


@pytest.mark.parametrize("which", ["curve", "nys3-k2", "nys3-k4"])
def test_report_k_matches_svd_on_acceptance_data(which):
    C = _acceptance_code(which)
    svd_k = _energy_rank(np.linalg.svd(C.values, compute_uv=False), 0.95)
    assert spectral_report(code_kernel(C), energy=0.95).k == svd_k


def _curve_diag_code():
    # the full code matrix of the curve-diag benchmark config: N_train = 2000
    cfg = CurveConfig(c_grid=[16, 32, 64], seeds=[0], n_samples=2500, noise=0.15,
                      class_sep=1.6, within=0.9, modes_per_class=4, alpha=0.25)
    data = _curve_dataset(cfg).data
    train_idx, _, _ = _split(data.N, cfg)
    return full_code(DataMatrix(data.values[:, train_idx]), 0.25).values


@pytest.fixture(scope="module")
def curve_diag():
    """(C, all its singular values): the spectrum is the oracle behind
    effective_rank and rank_k_residual, taken once for the module."""
    C = _curve_diag_code()
    return C, singular_values(C)


def _symmetric(eigvals, seed, n=None):
    """An exactly symmetric n x n matrix with the given nonzero eigenvalues
    (n defaults to their count) and random eigenvectors."""
    n = len(eigvals) if n is None else n
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, len(eigvals))))[0]
    A = (Q * eigvals) @ Q.T
    return (A + A.T) / 2.0


def _eigvalsh_calls(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh

    def spy(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


class TestLeadingSpectrum:
    # energy -> whether the leading path runs; at 0.99 (k = 70) too, as the Krylov
    # iteration on K = C C^T, whose eigenvalues are sigma^2, converges within N / 8 columns
    @pytest.mark.parametrize("energy, leading", [(0.5, True), (0.95, True), (0.99, True)])
    def test_matches_full_spectrum_on_curve_diag(self, curve_diag, energy, leading):
        C, s = curve_diag
        rep = spectral_report(code_kernel(C), energy=energy)
        k = _energy_rank(s, energy)
        assert rep.k == k
        assert rep.rank_k_residual == pytest.approx(tail_norm(s, k), rel=1e-10)
        assert len(rep.singular_values) == (k if leading else C.shape[0])
        assert np.all(np.diff(rep.singular_values) <= 0)
        assert np.max(np.abs(rep.singular_values[:k] - s[:k])) <= 1e-10 * s[0]

    def test_largest_eigenvalue_negative(self):
        lam = np.concatenate([[-50.0, 30.0, -20.0, 12.0], 0.5 * np.cos(np.arange(1020))])
        C = _symmetric(lam, seed=0)
        rep = spectral_report(code_kernel(C), energy=0.95)
        assert np.linalg.eigvalsh(C)[0] == pytest.approx(-50.0)
        assert rep.k == effective_rank(C, 0.95) == 4
        assert rep.rank_k_residual == pytest.approx(rank_k_residual(C, 4), rel=1e-10)
        assert len(rep.singular_values) == 4
        assert rep.singular_values[0] == pytest.approx(50.0, rel=1e-12)

    def test_full_energy_takes_exact_path(self, curve_diag, monkeypatch):
        # the tail is at most (1 - energy) ||C||_F^2 = 0, below the floor: the
        # Krylov iteration could only be thrown away, so it never starts
        C, s = curve_diag
        kernel = code_kernel(C)
        calls = _eigvalsh_calls(monkeypatch)
        entered = []
        monkeypatch.setattr(spectra, "_leading_spectrum", lambda *a: entered.append(1))
        rep = spectral_report(kernel, energy=1.0)
        assert entered == [] and "K" not in vars(kernel)
        assert calls == [C.shape]
        assert rep.k == _energy_rank(s, 1.0)
        assert rep.rank_k_residual == tail_norm(s, rep.k)
        assert len(rep.singular_values) == C.shape[0]

    def test_rank_deficient_takes_exact_path(self, monkeypatch):
        # rank 6 with equal eigenvalues: k = 6 and the rank-k tail is zero, below
        # TRACE_FLOOR of ||C||_F^2, where the subtraction would lose its digits
        n = 1024
        C = _symmetric(np.ones(6), seed=1, n=n)
        kernel = code_kernel(C)
        calls = _eigvalsh_calls(monkeypatch)
        rep = spectral_report(kernel, energy=0.95)
        assert calls == [(n, n)]
        assert rep.k == effective_rank(C, 0.95) == 6
        assert rep.rank_k_residual == pytest.approx(rank_k_residual(C, 6), abs=1e-12)
        assert len(rep.singular_values) == n

    @pytest.mark.parametrize("rank, energy", [(6, 0.6), (20, 0.9)])
    def test_low_rank_with_a_tail_takes_leading_path(self, rank, energy):
        # the Krylov space is exhausted after a block or two; the later blocks
        # must still come out orthogonal to the basis
        C = _symmetric(np.linspace(1.0, 3.0, rank), seed=rank, n=1024)
        rep = spectral_report(code_kernel(C), energy=energy)
        k = effective_rank(C, energy)
        assert rep.k == k
        assert rep.rank_k_residual == pytest.approx(rank_k_residual(C, k), rel=1e-10)
        assert len(rep.singular_values) == k

    def test_basis_past_cap_takes_exact_path(self, monkeypatch):
        # a flat spectrum needs k = 625 values at energy 0.95, more than the N / 8 = 128
        # columns the basis may hold: the iteration runs to the cap and gives up
        C = symmetrized(np.random.default_rng(0).standard_normal((1024, 1024)))
        results = []
        real = spectra._leading_spectrum
        monkeypatch.setattr(spectra, "_leading_spectrum",
                            lambda *a: results.append(real(*a)) or results[-1])
        rep = spectral_report(code_kernel(C), energy=0.95)
        s = singular_values(C)
        assert results == [None]
        assert len(rep.singular_values) == 1024
        assert rep.k == _energy_rank(s, 0.95) == 625
        assert rep.rank_k_residual == tail_norm(s, 625)

    def test_reruns_are_bit_identical(self, curve_diag):
        C, _ = curve_diag
        a, b = (spectral_report(code_kernel(M), energy=0.95) for M in (C, C.copy()))
        assert (a.k, a.rank_k_residual) == (b.k, b.rank_k_residual)
        assert a.singular_values.tobytes() == b.singular_values.tobytes()

    def test_leading_path_skips_eigvalsh(self, curve_diag, monkeypatch):
        kernel = code_kernel(curve_diag[0])
        calls = _eigvalsh_calls(monkeypatch)
        rep = spectral_report(kernel, energy=0.95)
        assert calls == []
        assert rep.k == 14

    def test_small_matrix_uses_eigvalsh(self, monkeypatch):
        kernel = code_kernel(_acceptance_code("nys3-k4"))
        calls = _eigvalsh_calls(monkeypatch)
        rep = spectral_report(kernel, energy=0.95)
        assert calls == [(256, 256)]
        assert len(rep.singular_values) == 256

    def test_non_symmetric_rejected(self, monkeypatch):
        # one entry off by one unit in the last place is enough; neither spectrum runs
        C = _symmetric(np.linspace(1.0, 2.0, 1024), seed=2)
        C[0, 1] = np.nextafter(C[0, 1], np.inf)
        calls = TestSingularValues._spy(monkeypatch)
        monkeypatch.setattr(spectra, "_leading_spectrum", lambda *a: calls.append("leading"))
        with pytest.raises(ValueError, match=r"C must be square and equal to its transpose, "
                           r"got shape \(1024, 1024\)"):
            spectral_report(code_kernel(C), energy=0.95)
        assert calls == []


class TestKernelInput:
    """``spectral_report`` reads C, ||C||_F^2 and, for the leading spectrum only, K from
    the ``CodeKernel`` that ``code_kernel`` made of C."""

    def test_kernel_is_not_checked_again(self, curve_diag, monkeypatch):
        # code_kernel checked its C; the report neither compares C with its transpose
        # nor builds another kernel
        kernel = code_kernel(curve_diag[0])

        def fail(*args):
            raise AssertionError("a CodeKernel was checked or rebuilt")

        monkeypatch.setattr(nystrom, "_is_symmetric", fail)
        monkeypatch.setattr(nystrom, "code_kernel", fail)
        assert spectral_report(kernel, energy=0.95).k == 14

    @pytest.mark.parametrize("which, energy, built", [
        ("nys3-k4", 0.95, 0),  # N = 256, below LEADING_MIN_N: eigvalsh of C
        ("curve-diag", 1.0, 0),  # the Krylov iteration never starts
        ("curve-diag", 0.95, 1),  # the leading spectrum reads one K
    ])
    def test_plain_matrix_builds_a_kernel_only_for_the_leading_path(
            self, curve_diag, k_builds, which, energy, built):
        # the kernel of a plain C builds its K = C C^T only where the Krylov iteration runs
        kernel = code_kernel(curve_diag[0] if which == "curve-diag" else _acceptance_code(which))
        spectral_report(kernel, energy=energy)
        assert len(k_builds) == built
        assert ("K" in vars(kernel)) == bool(built)
