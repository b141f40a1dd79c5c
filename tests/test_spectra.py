import numpy as np
import pytest

from nyscode.coding import full_code
from nyscode.data import DataMatrix, normalize_columns, synth_manifold
from nyscode.harness import CurveConfig, _curve_dataset, _split
from nyscode.spectra import (
    _energy_rank,
    effective_rank,
    rank_k_residual,
    scaled_diag_max,
    singular_values,
    spectral_report,
)


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
        C = np.random.default_rng(4).standard_normal((5, 5))
        perm = np.random.default_rng(5).permutation(5)
        assert scaled_diag_max(C[np.ix_(perm, perm)]) == scaled_diag_max(C)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            scaled_diag_max(np.ones((2, 3)))


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
        for fn in (effective_rank, spectral_report):
            with pytest.raises(ValueError, match=r"energy must be in \(0, 1\]"):
                fn(np.eye(2), energy=energy)

    def test_zero_matrix_has_rank_zero(self):
        assert effective_rank(np.zeros((3, 3)), 0.95) == 0


class TestSpectralReport:
    def test_matches_component_functions(self):
        C = np.random.default_rng(6).standard_normal((7, 7))
        rep = spectral_report(C, k=3)
        assert rep.k == 3
        assert rep.rank_k_residual == pytest.approx(rank_k_residual(C, 3), rel=1e-12)
        assert rep.scaled_diag_max == scaled_diag_max(C)
        assert np.all(np.diff(rep.singular_values) <= 0)
        assert rep.singular_values.min() >= 0

    def test_default_k_is_effective_rank(self):
        C = np.diag([10.0, 1.0, 1.0])
        rep = spectral_report(C, energy=0.95)
        assert rep.k == effective_rank(C, 0.95) == 1

    def test_residual_invariant_definition(self):
        C = np.random.default_rng(7).standard_normal((5, 5))
        rep = spectral_report(C, k=2)
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
        calls = self._spy(monkeypatch)
        s = singular_values(C)
        assert calls == ["eigvalsh"]
        assert np.all(np.diff(s) <= 0)
        assert np.max(np.abs(s - want)) <= 1e-12 * want[0]

    def test_non_symmetric_square_uses_svd(self, monkeypatch):
        C = np.random.default_rng(9).standard_normal((6, 6))
        calls = self._spy(monkeypatch)
        singular_values(C)
        assert calls == ["svd"]


def _acceptance_code(which):
    # the full code matrices behind the pinned curve (criteria 3, 5) and NYS3 configs
    if which == "curve":
        cfg = CurveConfig(c_grid=[8, 16, 32], seeds=[0], n_samples=800, alpha=0.25)
        data = _curve_dataset(cfg).data
        train_idx, _ = _split(data.N, cfg.split_fraction, cfg.split_seed)
        return full_code(DataMatrix(data.values[:, train_idx]), 0.25)
    k = {"nys3-k2": 2, "nys3-k4": 4}[which]
    return full_code(normalize_columns(synth_manifold(32, k, 256, 0.05, 0), "unit_l2"), 0.25)


@pytest.mark.parametrize("which", ["curve", "nys3-k2", "nys3-k4"])
def test_report_k_matches_svd_on_acceptance_data(which):
    C = _acceptance_code(which)
    svd_k = _energy_rank(np.linalg.svd(C.values, compute_uv=False), 0.95)
    assert spectral_report(C, energy=0.95).k == svd_k
