import dataclasses
import json
import typing
import weakref

import numpy as np
import pytest

from nyscode import harness, nystrom
from nyscode.coding import full_code
from nyscode.data import DataMatrix, normalize_columns, synth_labeled_manifold, synth_manifold
from nyscode.dictionary import sample_indices
from nyscode.harness import (
    CurveConfig,
    ExperimentReport,
    NystromEvalConfig,
    PdlConfig,
    emit,
    report_csv,
    run_curve,
    run_nystrom_eval,
    run_pdl_compare,
    synth_texture_images,
)
from oracles import reconstruct_code, reconstruct_kernel

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

    def test_tuple_field_parsed_as_tuple_and_echoed_as_list(self):
        cfg = PdlConfig.from_dict({**SMALL_PDL, "regions": [1, 2]})
        assert cfg.regions == (1, 2)
        assert isinstance(cfg.regions, tuple)
        rep = run_pdl_compare(cfg)
        assert json.loads(json.dumps(dataclasses.asdict(rep)))["config"]["regions"] == [1, 2]

    def test_report_created_at_defaults_to_utc_now(self):
        assert ExperimentReport(kind="pdl", config={}).created_at.endswith("+00:00")

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
            (PdlConfig, "pool_op", "maximum"),
            (CurveConfig, "dataset", "pickle"),
            (CurveConfig, "dict_source", "kmean"),
            (CurveConfig, "normalize", "l2"),
            (PdlConfig, "normalize", "unit"),
            (NystromEvalConfig, "normalize", None),
            (NystromEvalConfig, "k_list", 2),
            (CurveConfig, "lam", float("nan")),
            (CurveConfig, "alpha", float("nan")),
            (PdlConfig, "lam", float("inf")),
            (NystromEvalConfig, "energy", float("-inf")),
            (CurveConfig, "seeds", [0, -1]),
            (PdlConfig, "split_seed", -3),
            (PdlConfig, "regions", [2, -1]),
            (NystromEvalConfig, "n_samples", 2**64),
            (CurveConfig, "d", 2**63),
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

    def test_int_range_edges_accepted(self):
        cfg = CurveConfig(c_grid=[4, 8, 16], seeds=[0, 2**63 - 1], split_seed=0)
        assert cfg.seeds == [0, 2**63 - 1]

    def test_direct_construction_checked(self):
        # the check runs in __post_init__, so a config built in Python is checked too
        with pytest.raises(ValueError, match="config key 'dict_source' must be"):
            CurveConfig(c_grid=[4, 8, 16], seeds=[0], dict_source="kmean")
        cfg = PdlConfig(final_c_grid=[4], overshoots=[1], seeds=[0], regions=[1, 2])
        assert cfg.regions == (1, 2)


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

    def test_one_draw_per_c_and_seed(self, monkeypatch):
        draws = []
        real = harness.sample_indices

        def spy(n, c, seed):
            draws.append((c, seed))
            return real(n, c, seed)

        monkeypatch.setattr(harness, "sample_indices", spy)
        cfg = NystromEvalConfig(**{**SMALL_NYSTROM, "k_list": [2, 3, 4]})
        rep = run_nystrom_eval(cfg)
        assert sorted(draws) == [(c, seed) for c in cfg.c_grid for seed in cfg.seeds]
        assert len(rep.cells) == 3 * len(draws)

    def test_deterministic(self):
        a = run_nystrom_eval(NystromEvalConfig(**SMALL_NYSTROM))
        b = run_nystrom_eval(NystromEvalConfig(**SMALL_NYSTROM))
        assert report_csv(a) == report_csv(b)


# the required keys of each config, at values that build it
REQUIRED = {
    CurveConfig: {"c_grid": [4, 8, 16], "seeds": [0]},
    PdlConfig: {"final_c_grid": [4], "overshoots": [1], "seeds": [0]},
    NystromEvalConfig: {"c_grid": [4], "seeds": [0]},
}
LIST_KEYS = [
    (cls, key)
    for cls in REQUIRED
    for key, hint in typing.get_type_hints(cls).items()
    if typing.get_origin(hint) is list
]
# the list keys whose entries are sizes or counts; NystromEvalConfig's c_grid is
# checked against n_samples by sample_indices instead
GRID_KEYS = [(CurveConfig, "c_grid"), (PdlConfig, "final_c_grid"), (PdlConfig, "overshoots"),
             (NystromEvalConfig, "k_list")]


def _key_ids(pairs):
    return [f"{cls.__name__}-{key}" for cls, key in pairs]


class TestListRulesOnBuild:
    @pytest.mark.parametrize("cls, key", LIST_KEYS, ids=_key_ids(LIST_KEYS))
    def test_empty_list_rejected(self, cls, key):
        with pytest.raises(ValueError, match=f"config key '{key}' must be non-empty"):
            cls(**{**REQUIRED[cls], key: []})

    @pytest.mark.parametrize("cls, key", GRID_KEYS, ids=_key_ids(GRID_KEYS))
    def test_zero_entry_rejected(self, cls, key):
        with pytest.raises(ValueError, match=f"{key} values must be >= 1, got 0"):
            cls(**{**REQUIRED[cls], key: [2, 0]})

    @pytest.mark.parametrize("extra", [{"k_list": [2, 13]}, {"k_list": [9], "n_samples": 8}],
                             ids=["above-d", "above-n_samples"])
    def test_k_list_above_synth_manifold_range_rejected(self, extra):
        with pytest.raises(ValueError, match=r"k_list values must be <= min\(d, n_samples\)"):
            NystromEvalConfig(**{**REQUIRED[NystromEvalConfig], "d": 12, **extra})


class TestSweepErrorsMatchOracle:
    """The sweeps' reported code_err and kernel_err are the plain residual norms
    ||C - E W^+ E^T||_F and ||C C^T - E M E^T||_F of the sampled factors."""

    @staticmethod
    def _oracle_errors(C, idx):
        f = nystrom.decompose(C, idx)
        return (np.linalg.norm(C - reconstruct_code(f)),
                np.linalg.norm(C @ C.T - reconstruct_kernel(f)))

    def test_curve_seed_means(self):
        cfg = CurveConfig(**SMALL_CURVE)
        ds = synth_labeled_manifold(cfg.d, cfg.k, cfg.n_samples, cfg.classes, cfg.noise,
                                    cfg.data_seed, class_sep=cfg.class_sep, within=cfg.within,
                                    modes_per_class=cfg.modes_per_class)
        X = normalize_columns(ds.data, cfg.normalize).values
        n_train = round(cfg.split_fraction * cfg.n_samples)
        train = np.random.default_rng(cfg.split_seed).permutation(cfg.n_samples)[:n_train]
        C = full_code(DataMatrix(X[:, train]), cfg.alpha).values
        rep = run_curve(cfg)
        assert [p.c for p in rep.curve] == cfg.c_grid
        for point in rep.curve:
            errs = [self._oracle_errors(C, sample_indices(n_train, point.c, s))
                    for s in cfg.seeds]
            code_err, kernel_err = np.mean(errs, axis=0)
            assert point.code_err == pytest.approx(code_err, rel=1e-8)
            assert point.kernel_err == pytest.approx(kernel_err, rel=1e-8)

    def test_nystrom_eval_cells(self):
        cfg = NystromEvalConfig(**{**SMALL_NYSTROM, "k_list": [2, 4]})
        rep = run_nystrom_eval(cfg)
        assert len(rep.cells) == 2 * 3 * 3
        for k in cfg.k_list:
            X = synth_manifold(cfg.d, k, cfg.n_samples, cfg.noise, cfg.data_seed)
            C = full_code(normalize_columns(X, cfg.normalize), cfg.alpha).values
            for cell in (cell for cell in rep.cells if cell.k == k):
                code_err, kernel_err = self._oracle_errors(
                    C, sample_indices(cfg.n_samples, cell.c, cell.seed))
                assert cell.code_err == pytest.approx(code_err, rel=1e-8)
                assert cell.kernel_err == pytest.approx(kernel_err, rel=1e-8)


class TestNoKernelInSweeps:
    """Sweep cells build no kernel C C^T: the sweep builds one ``CodeKernel`` per
    code matrix with sampled cells to score, and every cell reuses it."""

    @pytest.fixture
    def kernels(self, monkeypatch):
        built = []
        real = nystrom.gram_kernel

        def spy(C):
            built.append(real(C))
            return built[-1]

        monkeypatch.setattr(nystrom, "gram_kernel", spy)
        return built

    @pytest.mark.parametrize(
        "run, cfg, built",
        [
            (run_curve, CurveConfig(**SMALL_CURVE), 1),
            (run_curve, CurveConfig(**SMALL_CURVE, dict_source="kmeans", kmeans_iters=10), 0),
            (run_nystrom_eval, NystromEvalConfig(**{**SMALL_NYSTROM, "k_list": [2, 4]}), 2),
        ],
        ids=["curve-sampled", "curve-kmeans", "nystrom-eval"],
    )
    def test_no_kernel_built(self, kernels, run, cfg, built):
        run(cfg)
        assert len(kernels) == built

    def test_full_sample_falls_back_on_the_sweep_kernel(self, kernels, monkeypatch):
        # c = n_train samples every column, so its errors are ~0, below TRACE_FLOOR,
        # and each of its cells takes the exact residuals against the one sweep K
        exact = []
        real = nystrom._residual_norms

        def spy(values, K, *factors):
            exact.append(K)
            return real(values, K, *factors)

        monkeypatch.setattr(nystrom, "_residual_norms", spy)
        n_train = 96  # 0.8 of SMALL_CURVE's 120 samples
        rep = run_curve(CurveConfig(**{**SMALL_CURVE, "c_grid": [4, 8, n_train]}))
        assert len(kernels) == 1
        assert len(exact) == len(SMALL_CURVE["seeds"])
        assert exact[0].shape == (n_train, n_train)
        assert all(K is kernels[0] for K in exact)
        full = rep.curve[-1]
        assert full.c == n_train and full.code_err <= 1e-9 and full.kernel_err <= 1e-9

    def test_draws_scored_largest_first_into_one_workspace(self, monkeypatch):
        # per code matrix, the largest c sizes the kernel's workspace once for every draw
        scored = []
        real = harness.approximation_errors

        def spy(kernel, f):
            out = real(kernel, f)
            scored.append((kernel, f.indices.size, kernel.workspace(0).base))
            return out

        monkeypatch.setattr(harness, "approximation_errors", spy)
        cfg = NystromEvalConfig(**{**SMALL_NYSTROM, "k_list": [2, 4]})
        rep = run_nystrom_eval(cfg)
        cells = len(cfg.c_grid) * len(cfg.seeds)
        assert len(rep.cells) == 2 * cells
        for k in range(2):
            kernels, sizes, buffers = zip(*scored[k * cells:(k + 1) * cells])
            assert all(kernel is kernels[0] for kernel in kernels)
            assert list(sizes) == sorted(sizes, reverse=True)
            assert all(buffer is buffers[0] for buffer in buffers)

    @pytest.mark.parametrize("dict_source", ["sampled", "kmeans"])
    def test_code_matrix_and_kernel_freed_before_classifying(self, monkeypatch, dict_source):
        # the N_train x N_train arrays C and K are dead by the first encode of a cell
        refs = []

        def track(module, name):
            real = getattr(module, name)

            def call(*args, **kwargs):
                out = real(*args, **kwargs)
                refs.append(weakref.ref(getattr(out, "values", out)))  # C's array, or K
                return out

            monkeypatch.setattr(module, name, call)

        track(harness, "full_code")
        track(nystrom, "gram_kernel")
        encodes = []
        real_encode = harness.encode

        def encode(*args, **kwargs):
            if not encodes:
                assert [ref() for ref in refs] == [None] * len(refs)
            encodes.append(1)
            return real_encode(*args, **kwargs)

        monkeypatch.setattr(harness, "encode", encode)
        run_curve(CurveConfig(**SMALL_CURVE, dict_source=dict_source, kmeans_iters=10))
        assert len(refs) == (2 if dict_source == "sampled" else 1) and encodes


class TestOneFeatureMatrixAlive:
    """Each sweep cell holds one code matrix at a time: the train features are
    dropped once scored, before the test features are built, and nothing
    outlives its cell."""

    @pytest.fixture
    def featurized(self, monkeypatch):
        refs = []  # a weak reference to every feature matrix returned so far

        def track(real):
            def call(*args, **kwargs):
                # only a matrix passed in (the codes that pool reduces) may still be alive
                alive = sum(
                    1 for ref in refs if ref() is not None and all(ref() is not a for a in args)
                )
                assert alive == 0, f"{alive} earlier feature matrices alive at call {len(refs)}"
                out = real(*args, **kwargs)
                refs.append(weakref.ref(out))
                return out

            return call

        for name in ("encode", "pool"):
            monkeypatch.setattr(harness, name, track(getattr(harness, name)))
        return refs

    @pytest.mark.parametrize(
        "run, cfg, calls",
        [
            # 3 sizes x 2 seeds x (train, test) encodes
            (run_curve, CurveConfig(**SMALL_CURVE), 12),
            (run_curve, CurveConfig(**SMALL_CURVE, dict_source="kmeans", kmeans_iters=10), 12),
            # 2 overshoots x 2 seeds x (train, test) x (encode, pool)
            (run_pdl_compare, PdlConfig(**SMALL_PDL), 16),
        ],
        ids=["curve-sampled", "curve-kmeans", "pdl"],
    )
    def test_no_earlier_feature_matrix_alive(self, featurized, run, cfg, calls):
        run(cfg)
        assert len(featurized) == calls
        assert all(ref() is None for ref in featurized)


@pytest.mark.parametrize(
    "dict_source, nystrom_limit",
    [("sampled", 50), ("kmeans", 2000), ("sampled", 2000)],
    ids=["sampled", "kmeans", "sampled-with-nystrom-diagnostics"],
)
def test_curve_encodes_every_cell_into_one_buffer(monkeypatch, dict_source, nystrom_limit):
    # SMALL_CURVE: 96 train and 24 test samples, largest c 16. The buffer is
    # shared with the Nystrom diagnostics on too.
    outs, real = [], harness.encode

    def spy(X, D, alpha, out=None):
        outs.append(out)
        codes = real(X, D, alpha, out=out)
        assert out is None or codes.values is out
        return codes

    monkeypatch.setattr(harness, "encode", spy)
    cfg = CurveConfig(
        **SMALL_CURVE, dict_source=dict_source, kmeans_iters=10, nystrom_limit=nystrom_limit
    )
    run_curve(cfg)
    assert len(outs) == 12
    buffer = outs[0].base
    assert buffer is not None and buffer.shape == (96 * 16,)
    for out, n in zip(outs, [96, 24] * 6):
        assert out.base is buffer and out.shape[0] == n
        assert out.ctypes.data == buffer.ctypes.data


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

    @staticmethod
    def _loop_oracle(images_per_class, classes, size, cell, prototypes, noise, seed):
        # one prototype draw per image, then one tile at a time
        rng = np.random.default_rng(seed)
        protos = rng.standard_normal((classes, prototypes, cell, cell))
        slots = size // cell
        n = classes * images_per_class
        labels = np.arange(n) % classes
        images = np.empty((n, size, size))
        for i in range(n):
            pick = rng.integers(prototypes, size=(slots, slots))
            for r in range(slots):
                for c in range(slots):
                    images[i, r * cell : (r + 1) * cell, c * cell : (c + 1) * cell] = protos[
                        labels[i], pick[r, c]
                    ]
        images += noise * rng.standard_normal(images.shape)
        return images, labels

    # slots = size // cell: 5 (odd), 4 (even), 1
    @pytest.mark.parametrize("args", [(3, 3, 15, 3, 4, 0.5, 2), (4, 2, 16, 4, 3, 0.8, 0), (2, 2, 6, 6, 5, 1.0, 1)])
    def test_matches_loop_oracle(self, args):
        images, labels = synth_texture_images(*args)
        expected, expected_labels = self._loop_oracle(*args)
        assert images.tobytes() == expected.tobytes()
        assert images.shape == expected.shape
        assert np.array_equal(labels, expected_labels)


class TestEmit:
    def test_json_round_trip_structurally_identical(self, tmp_path):
        rep = run_curve(CurveConfig(**SMALL_CURVE))
        p = tmp_path / "report.json"
        emit(rep, p, "json")
        expected = json.loads(json.dumps(dataclasses.asdict(rep)))
        assert json.loads(p.read_text()) == expected

    def test_model_keys_in_field_order(self, tmp_path):
        # SaturationModel's field order is the JSON format: a reorder must fail here
        p = tmp_path / "report.json"
        emit(run_curve(CurveConfig(**SMALL_CURVE)), p, "json")
        models = json.loads(p.read_text())["models"]
        assert set(models) == {"train_acc", "test_acc", "kernel_err"}
        for model in models.values():
            assert list(model) == ["form", "offset", "slope", "fit_points", "flagged"]

    def test_curve_csv_header(self, tmp_path):
        rep = run_curve(CurveConfig(**SMALL_CURVE))
        p = tmp_path / "report.csv"
        emit(rep, p, "csv")
        lines = p.read_text().splitlines()
        assert lines[0] == "c,train_acc,test_acc,pred_train,pred_test,code_err,kernel_err,bound_eq1"
        assert len(lines) == 1 + len(rep.curve)

    def test_pdl_csv_header(self, tmp_path):
        rep = run_pdl_compare(PdlConfig(**SMALL_PDL))
        p = tmp_path / "pdl.csv"
        emit(rep, p, "csv")
        header = p.read_text().splitlines()[0]
        assert header == "final_c,overshoot,train_acc,test_acc,delta_vs_baseline"

    def test_nystrom_csv_header(self, tmp_path):
        rep = run_nystrom_eval(NystromEvalConfig(**SMALL_NYSTROM))
        p = tmp_path / "n.csv"
        emit(rep, p, "csv")
        header = p.read_text().splitlines()[0]
        assert header == "k,c,seed,code_err,kernel_err,bound_eq1,within_bound"

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

    def test_spectral_keys_shared_by_curve_and_nystrom_eval(self):
        curve = run_curve(CurveConfig(**SMALL_CURVE)).spectral
        nys = run_nystrom_eval(NystromEvalConfig(**SMALL_NYSTROM)).spectral
        assert set(curve) == {"k_effective", "rank_k_residual", "scaled_diag_max"}
        assert [set(entry) for entry in nys.values()] == [set(curve)]

    def test_unknown_format_rejected(self, tmp_path):
        rep = run_nystrom_eval(NystromEvalConfig(**SMALL_NYSTROM))
        with pytest.raises(ValueError):
            emit(rep, tmp_path / "x.yaml", "yaml")
