import json

import numpy as np
import pytest

from nyscode.harness import (
    CURVE_CSV_HEADER,
    NYSTROM_CSV_HEADER,
    PDL_CSV_HEADER,
    CurveConfig,
    NystromEvalConfig,
    PdlConfig,
    emit,
    report_csv,
    run_curve,
    run_nystrom_eval,
    run_pdl_compare,
    synth_texture_images,
)

SMALL_CURVE = dict(
    c_grid=[4, 8, 16],
    seeds=[0, 1],
    d=16,
    k=2,
    n_samples=120,
    classes=2,
    noise=0.1,
    data_seed=0,
)

SMALL_PDL = dict(
    final_c_grid=[4],
    overshoots=[1, 2],
    seeds=[0, 1],
    images_per_class=20,
    prototypes_per_class=4,
    kmeans_iters=15,
    data_seed=0,
)

SMALL_NYSTROM = dict(
    c_grid=[4, 8, 16],
    seeds=[0, 1, 2],
    k_list=[2],
    d=12,
    n_samples=48,
    data_seed=0,
)


class TestConfigParsing:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys: gamma"):
            CurveConfig.from_dict({"c_grid": [1, 2, 3], "seeds": [0], "gamma": 1})

    def test_missing_required_rejected(self):
        with pytest.raises(ValueError, match="missing config keys"):
            CurveConfig.from_dict({"c_grid": [1, 2, 3]})

    def test_defaults_filled(self):
        cfg = CurveConfig.from_dict({"c_grid": [4, 8, 16], "seeds": [0]})
        assert cfg.alpha == 0.25
        assert cfg.energy == 0.95

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            PdlConfig.from_dict([1, 2])

    @pytest.mark.parametrize(
        "cls, key, value",
        [
            (CurveConfig, "c_grid", "abc"),
            (CurveConfig, "seeds", [0, 1.5]),
            (CurveConfig, "d", 32.0),
            (CurveConfig, "alpha", "0.25"),
            (CurveConfig, "path", 7),
            (CurveConfig, "split_seed", True),
            (PdlConfig, "regions", [2, 2, 2]),
            (PdlConfig, "pool_op", None),
            (NystromEvalConfig, "k_list", 2),
        ],
    )
    def test_wrong_type_names_key(self, cls, key, value):
        required = {
            CurveConfig: {"c_grid": [4, 8, 16], "seeds": [0]},
            PdlConfig: {"final_c_grid": [4], "overshoots": [1], "seeds": [0]},
            NystromEvalConfig: {"c_grid": [4], "seeds": [0]},
        }[cls]
        with pytest.raises(ValueError, match=f"config key '{key}' must be"):
            cls.from_dict({**required, key: value})


class TestRunCurve:
    def test_structure_and_fit_points(self):
        rep = run_curve(CurveConfig(**SMALL_CURVE))
        assert rep.kind == "curve"
        assert [p.c for p in rep.curve] == [4, 8, 16]
        assert [p.is_fit_point for p in rep.curve] == [True, True, False]
        for p in rep.curve:
            assert 0.0 <= p.train_acc <= 1.0
            assert 0.0 <= p.test_acc <= 1.0
            assert p.code_err >= 0.0
            assert p.kernel_err >= 0.0
            assert p.bound_eq1 is not None
            assert p.pred_test is not None

    def test_models_reproduce_fit_points(self):
        rep = run_curve(CurveConfig(**SMALL_CURVE))
        for p in rep.curve[:2]:
            assert p.pred_train == pytest.approx(p.train_acc, rel=1e-9, abs=1e-9)
            assert p.pred_test == pytest.approx(p.test_acc, rel=1e-9, abs=1e-9)
            assert p.pred_kernel_err == pytest.approx(p.kernel_err, rel=1e-9)

    def test_degenerate_grid_rejected(self):
        cfg = dict(SMALL_CURVE, c_grid=[8, 8, 16])
        with pytest.raises(ValueError, match="3 distinct"):
            run_curve(CurveConfig(**cfg))

    def test_oversized_c_skipped_with_warning(self):
        cfg = dict(SMALL_CURVE, c_grid=[4, 8, 4000])
        rep = run_curve(CurveConfig(**cfg))
        assert [p.c for p in rep.curve] == [4, 8]
        assert any("skipped c=4000" in w for w in rep.warnings)

    def test_rerun_is_deterministic(self):
        a = run_curve(CurveConfig(**SMALL_CURVE))
        b = run_curve(CurveConfig(**SMALL_CURVE))
        assert report_csv(a) == report_csv(b)

    def test_config_echo_rebuilds_same_curve(self):
        rep = run_curve(CurveConfig(**SMALL_CURVE))
        echo = {k: v for k, v in rep.config.items() if k != "lam_effective"}
        rep2 = run_curve(CurveConfig.from_dict(echo))
        assert report_csv(rep) == report_csv(rep2)

    def test_kmeans_source_runs_without_diagnostics(self):
        cfg = dict(SMALL_CURVE, dict_source="kmeans", kmeans_iters=10)
        rep = run_curve(CurveConfig(**cfg))
        assert all(p.code_err is None for p in rep.curve)
        assert all(p.bound_eq1 is not None for p in rep.curve)
        assert "kernel_err" not in rep.models

    def test_diagnostics_disabled_above_limit(self):
        cfg = dict(SMALL_CURVE, nystrom_limit=10)
        rep = run_curve(CurveConfig(**cfg))
        assert all(p.code_err is None for p in rep.curve)
        assert all(p.bound_eq1 is None for p in rep.curve)

    def test_example_grid_golden_run(self):
        # goldens frozen from the first verified run of this config
        cfg = CurveConfig(c_grid=[8, 16, 32, 64], seeds=[0, 1], lam=6.4)
        rep = run_curve(cfg)
        assert [p.c for p in rep.curve] == [8, 16, 32, 64]
        assert [p.is_fit_point for p in rep.curve] == [True, True, False, False]
        assert all(p.pred_test is not None for p in rep.curve)
        golden_test_acc = [0.490625, 0.49375, 0.54375, 0.565625]
        got = [p.test_acc for p in rep.curve]
        # tolerance allows a couple of boundary samples to flip across BLAS builds
        assert np.abs(np.array(got) - golden_test_acc).max() <= 0.02

    def test_csv_dataset_path(self, tmp_path):
        from nyscode.data import save_csv
        from nyscode.data import synth_labeled_manifold

        ds = synth_labeled_manifold(8, 2, 80, 2, 0.1, seed=5)
        p = tmp_path / "ds.csv"
        save_csv(ds, p)
        cfg = CurveConfig(c_grid=[4, 8, 16], seeds=[0], dataset="csv", path=str(p))
        rep = run_curve(cfg)
        assert len(rep.curve) == 3


class TestRunPdlCompare:
    def test_baseline_delta_exactly_zero(self):
        rep = run_pdl_compare(PdlConfig(**SMALL_PDL))
        base_rows = [r for r in rep.pdl_rows if r.overshoot == 1]
        assert all(r.delta_vs_baseline == 0.0 for r in base_rows)

    def test_row_count_is_grid_product(self):
        cfg = dict(SMALL_PDL, final_c_grid=[4, 8], overshoots=[1, 2])
        rep = run_pdl_compare(PdlConfig(**cfg))
        assert len(rep.pdl_rows) == 4

    def test_overshoot_one_only(self):
        cfg = dict(SMALL_PDL, overshoots=[1])
        rep = run_pdl_compare(PdlConfig(**cfg))
        assert all(r.delta_vs_baseline == 0.0 for r in rep.pdl_rows)

    def test_missing_baseline_rejected(self):
        cfg = dict(SMALL_PDL, overshoots=[2, 4])
        with pytest.raises(ValueError, match="must include 1"):
            run_pdl_compare(PdlConfig(**cfg))


class TestRunNystromEval:
    def test_cells_and_coverage(self):
        rep = run_nystrom_eval(NystromEvalConfig(**SMALL_NYSTROM))
        assert len(rep.cells) == 9
        assert 0.0 <= rep.coverage <= 1.0
        for cell in rep.cells:
            assert cell.within_bound == (cell.code_err <= cell.bound_eq1)

    def test_deterministic(self):
        a = run_nystrom_eval(NystromEvalConfig(**SMALL_NYSTROM))
        b = run_nystrom_eval(NystromEvalConfig(**SMALL_NYSTROM))
        assert report_csv(a) == report_csv(b)


class TestSynthTextureImages:
    def test_shapes_and_labels(self):
        images, labels = synth_texture_images(10, 2, 8, 4, 3, 0.5, seed=0)
        assert images.shape == (20, 8, 8)
        assert np.array_equal(np.unique(labels), [0, 1])

    def test_deterministic(self):
        a, _ = synth_texture_images(5, 2, 8, 4, 3, 0.5, seed=1)
        b, _ = synth_texture_images(5, 2, 8, 4, 3, 0.5, seed=1)
        assert np.array_equal(a, b)

    def test_size_must_tile(self):
        with pytest.raises(ValueError):
            synth_texture_images(5, 2, 9, 4, 3, 0.5, seed=0)


class TestEmit:
    def test_json_round_trip_structurally_identical(self, tmp_path):
        rep = run_curve(CurveConfig(**SMALL_CURVE))
        p = tmp_path / "report.json"
        emit(rep, p, "json")
        assert json.loads(p.read_text()) == rep.to_dict()

    def test_curve_csv_header(self, tmp_path):
        rep = run_curve(CurveConfig(**SMALL_CURVE))
        p = tmp_path / "report.csv"
        emit(rep, p, "csv")
        lines = p.read_text().splitlines()
        assert lines[0] == CURVE_CSV_HEADER
        assert len(lines) == 1 + len(rep.curve)

    def test_pdl_csv_header(self, tmp_path):
        rep = run_pdl_compare(PdlConfig(**SMALL_PDL))
        p = tmp_path / "pdl.csv"
        emit(rep, p, "csv")
        assert p.read_text().splitlines()[0] == PDL_CSV_HEADER

    def test_nystrom_csv_header(self, tmp_path):
        rep = run_nystrom_eval(NystromEvalConfig(**SMALL_NYSTROM))
        p = tmp_path / "n.csv"
        emit(rep, p, "csv")
        assert p.read_text().splitlines()[0] == NYSTROM_CSV_HEADER

    def test_csv_floats_round_trip_bit_exact(self, tmp_path):
        rep = run_curve(CurveConfig(**SMALL_CURVE))
        p = tmp_path / "report.csv"
        emit(rep, p, "csv")
        lines = p.read_text().splitlines()[1:]
        for line, point in zip(lines, rep.curve):
            fields = line.split(",")
            assert float(fields[1]) == point.train_acc
            assert float(fields[2]) == point.test_acc
            assert float(fields[5]) == point.code_err
            assert float(fields[7]) == point.bound_eq1

    def test_unknown_format_rejected(self, tmp_path):
        rep = run_nystrom_eval(NystromEvalConfig(**SMALL_NYSTROM))
        with pytest.raises(ValueError):
            emit(rep, tmp_path / "x.yaml", "yaml")
