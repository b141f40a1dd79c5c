import dataclasses
import json

import numpy as np
import pytest

from nyscode.bounds import (
    ACCURACY_FORM,
    ERROR_FORM,
    SaturationModel,
    epsilon_min,
    eval_eq1_bound,
    fit_two_point,
    predict,
)
from nyscode.coding import full_code
from nyscode.data import DataMatrix, normalize_columns
from nyscode.nystrom import code_kernel
from nyscode.spectra import SpectralReport, spectral_report


class TestEpsilonMin:
    def test_condition_at_equality(self):
        assert epsilon_min(64, 1) == 1.0
        assert epsilon_min(128, 2) == 1.0

    def test_closed_form(self):
        assert epsilon_min(1024, 1) == 0.5

    def test_invalid(self):
        with pytest.raises(ValueError):
            epsilon_min(0, 1)
        with pytest.raises(ValueError):
            epsilon_min(8, 0)


def _report(k, residual, diag_max):
    return SpectralReport(
        k=k, rank_k_residual=residual, scaled_diag_max=diag_max, singular_values=np.array([])
    )


class TestEvalBound:
    def test_rank_k_matrix_at_condition_equality(self):
        # zero residual and c = 64k make the bound exactly the diagonal term
        rep = _report(k=2, residual=0.0, diag_max=7.5)
        assert eval_eq1_bound(rep, 128) == 7.5

    def test_arithmetic_composition(self):
        rep = _report(k=1, residual=2.0, diag_max=10.0)
        assert eval_eq1_bound(rep, 1024) == pytest.approx(7.0, abs=1e-12)

    def test_non_increasing_in_c(self):
        rep = _report(k=3, residual=1.0, diag_max=4.0)
        vals = [eval_eq1_bound(rep, 2**i) for i in range(1, 12)]
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))

    def test_from_real_spectral_report(self):
        C = np.diag([4.0, 2.0, 1.0, 0.5])
        rep = spectral_report(code_kernel(C), energy=0.9)
        assert rep.k == 2
        expected = rep.rank_k_residual + epsilon_min(8, 2) * rep.scaled_diag_max
        assert eval_eq1_bound(rep, 8) == expected


class TestBoundVacuity:
    """Cauchy-Schwarz gives |<x_i, x_j>| <= max_i ||x_i||^2, so every entry of
    C = max(0, X^T X - alpha) is at most max_i C_ii whenever alpha is below the
    largest squared column norm. Hence ||C||_F <= N max_i C_ii, and for
    c <= 64k, where (64k/c)^(1/4) >= 1, the eq. 1 bound is no smaller than
    ||C||_F, the error of the trivial reconstruction C_hat = 0."""

    @pytest.mark.parametrize("unit", [True, False], ids=["unit", "raw"])
    @pytest.mark.parametrize("alpha_frac", [-0.5, 0.0, 0.3, 0.9])
    def test_bound_is_vacuous_up_to_64k(self, unit, alpha_frac):
        rng = np.random.default_rng(0)
        X = DataMatrix(rng.standard_normal((12, 60)) * rng.uniform(0.2, 3.0, size=60))
        if unit:
            X = normalize_columns(X, "unit_l2")
        alpha = alpha_frac * float(np.max(np.sum(X.values**2, axis=0)))
        C = full_code(X, alpha).values
        assert np.max(C) <= np.max(np.diag(C))
        rep = spectral_report(code_kernel(C))
        fro = np.linalg.norm(C)
        assert fro <= rep.scaled_diag_max
        assert rep.k >= 1
        for c in range(1, 64 * rep.k + 1):
            assert eval_eq1_bound(rep, c) >= fro


class TestFitTwoPoint:
    def test_error_form_worked_example(self):
        m = fit_two_point((16, 3.0), (256, 2.0), ERROR_FORM)
        assert m.offset == 1.0
        assert m.slope == 4.0

    def test_flat_points_give_zero_slope(self):
        m = fit_two_point((4, 5.0), (64, 5.0), ERROR_FORM)
        assert m.slope == 0.0
        assert m.offset == 5.0

    def test_accuracy_form_worked_example(self):
        m = fit_two_point((16, 0.5), (256, 0.7), ACCURACY_FORM)
        assert m.offset == pytest.approx(0.9, abs=1e-12)
        assert m.slope == pytest.approx(0.8, abs=1e-12)
        assert not m.flagged

    def test_decreasing_accuracy_is_flagged(self):
        m = fit_two_point((16, 0.7), (256, 0.5), ACCURACY_FORM)
        assert m.flagged
        assert m.slope < 0

    def test_equal_c_rejected(self):
        with pytest.raises(ValueError):
            fit_two_point((16, 1.0), (16, 2.0), ERROR_FORM)

    @pytest.mark.parametrize("p1, p2", [((0, 1.0), (4, 2.0)), ((2, 1.0), (0.5, 2.0))])
    def test_codebook_size_below_1_rejected(self, p1, p2):
        with pytest.raises(ValueError, match="codebook sizes must be >= 1"):
            fit_two_point(p1, p2, ERROR_FORM)

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            fit_two_point((2, 1.0), (4, 2.0), "linear")

    @pytest.mark.parametrize("form", [ERROR_FORM, ACCURACY_FORM])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reproduces_fit_points(self, form, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            c1, c2 = rng.integers(1, 10000, size=2)
            if c1 == c2:
                continue
            v1, v2 = rng.normal(0.0, 10.0, size=2)
            m = fit_two_point((int(c1), float(v1)), (int(c2), float(v2)), form)
            assert predict(m, int(c1)) == pytest.approx(v1, rel=1e-9, abs=1e-9)
            assert predict(m, int(c2)) == pytest.approx(v2, rel=1e-9, abs=1e-9)


class TestPredict:
    def test_reproduces_fit_point(self):
        m = SaturationModel(
            form=ERROR_FORM, offset=1.0, slope=4.0, fit_points=((16.0, 3.0), (256.0, 2.0))
        )
        assert predict(m, 16) == 3.0

    def test_fourth_root_arithmetic(self):
        m = SaturationModel(
            form=ERROR_FORM, offset=1.0, slope=4.0, fit_points=((16.0, 3.0), (256.0, 2.0))
        )
        assert predict(m, 4096) == pytest.approx(1.5, abs=1e-12)

    def test_accuracy_asymptote(self):
        m = fit_two_point((16, 0.5), (256, 0.7), ACCURACY_FORM)
        assert abs(predict(m, 10**12) - 0.9) < 1e-2

    def test_monotone_error_form(self):
        m = SaturationModel(
            form=ERROR_FORM, offset=0.5, slope=2.0, fit_points=((2.0, 0.0), (4.0, 0.0))
        )
        vals = [predict(m, 2**i) for i in range(1, 16)]
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))

    def test_monotone_accuracy_form(self):
        m = SaturationModel(
            form=ACCURACY_FORM, offset=0.9, slope=0.8, fit_points=((2.0, 0.0), (4.0, 0.0))
        )
        vals = [predict(m, 2**i) for i in range(1, 16)]
        assert all(vals[i + 1] > vals[i] for i in range(len(vals) - 1))

    def test_invalid_c(self):
        m = SaturationModel(
            form=ERROR_FORM, offset=1.0, slope=1.0, fit_points=((2.0, 0.0), (4.0, 0.0))
        )
        with pytest.raises(ValueError):
            predict(m, 0)

    def test_unknown_form_rejected(self):
        # this used to predict with the accuracy form's sign
        m = SaturationModel(form="linear", offset=1.0, slope=1.0,
                            fit_points=((2.0, 0.0), (4.0, 0.0)))
        with pytest.raises(ValueError, match=r"form must be one of \('error', 'accuracy'\), "
                                             "got 'linear'"):
            predict(m, 16)


class TestSerialization:
    def test_json_round_trip(self):
        m = fit_two_point((8, 0.55), (16, 0.62), ACCURACY_FORM)
        d = json.loads(json.dumps(dataclasses.asdict(m)))
        assert d == {"form": ACCURACY_FORM, "offset": m.offset, "slope": m.slope,
                     "fit_points": [[8.0, 0.55], [16.0, 0.62]], "flagged": m.flagged}

    def test_dict_fields(self):
        m = fit_two_point((8, 1.0), (16, 0.5), ERROR_FORM)
        d = dataclasses.asdict(m)
        assert set(d) == {"form", "offset", "slope", "fit_points", "flagged"}
