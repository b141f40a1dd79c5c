import json
import warnings

import numpy as np
import pytest

from nyscode import cli, harness, pooling
from nyscode.data import load_csv


def _write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


OVERFLOW = "error: the synthetic samples overflow the float range at"
SQUARED_OVERFLOW = "error: the squared codes overflow the float range:"
HUGE = "99999999999999999999"  # above 2**63
INT_FLAG = "must be int (ints in [0, 2**63))"

CURVE_CFG = {
    "c_grid": [4, 8, 16],
    "seeds": [0, 1],
    "d": 16,
    "k": 2,
    "n_samples": 120,
    "classes": 2,
    "noise": 0.1,
    "data_seed": 0,
}


class TestSynthCommand:
    def test_writes_loadable_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        rc = cli.main(
            ["synth", "--d", "8", "--k", "2", "--n", "30", "--classes", "3", "--out", str(out)]
        )
        assert rc == 0
        ds = load_csv(out, has_labels=True)
        assert ds.data.d == 8
        assert ds.data.N == 30
        assert ds.n_classes == 3

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["synth", "--n", "20", "--seed", "5", "--out", str(a)])
        cli.main(["synth", "--n", "20", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_requires_out(self, monkeypatch):
        # the missing --out is reported before any dataset is generated
        def unexpected(*args, **kwargs):
            raise AssertionError("dataset generated without --out")

        monkeypatch.setattr(cli, "synth_labeled_manifold", unexpected)
        assert cli.main(["synth", "--n", "20"]) == cli.EXIT_ARGUMENT

    def test_help_says_out_is_required(self, capsys):
        # synth shares --out with encode, whose --out defaults to stdout
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["synth", "--help"])
        help_text = capsys.readouterr().out
        assert "output CSV path (required)" in help_text
        assert "stdout" not in help_text

    def test_usage_shows_out_as_required(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["synth", "--help"])
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage.startswith("usage: nyscode synth --out OUT ")
        assert "[--out OUT]" not in usage

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--format", "json", "--out", "x.csv"],
            ["synth", "--config", "cfg.json", "--out", "x.csv"],
            ["encode", "--data", "x.csv", "--c", "2", "--format", "csv"],
            ["encode", "--data", "x.csv", "--c", "2", "--config", "cfg.json"],
            ["curve", "--config", "cfg.json", "--seed", "1", "--out", "x.csv"],
        ],
    )
    def test_config_flags_not_accepted(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == cli.EXIT_ARGUMENT
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestCurveCommand:
    def test_json_report(self, tmp_path):
        cfg = _write_config(tmp_path, CURVE_CFG)
        out = tmp_path / "report.json"
        rc = cli.main(["curve", "--config", cfg, "--out", str(out), "--format", "json"])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["kind"] == "curve"
        assert len(report["curve"]) == 3

    def test_csv_reruns_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, CURVE_CFG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["curve", "--config", cfg, "--out", str(a), "--format", "csv"]) == 0
        assert cli.main(["curve", "--config", cfg, "--out", str(b), "--format", "csv"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, dict(CURVE_CFG, turbo=True))
        assert cli.main(["curve", "--config", cfg]) == cli.EXIT_ARGUMENT
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_config_exits_2(self):
        assert cli.main(["curve"]) == cli.EXIT_ARGUMENT

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_config_value_names_key(self, tmp_path, capsys, literal):
        p = tmp_path / "cfg.json"
        p.write_text('{"c_grid": [4, 8, 16], "seeds": [0], "lam": %s}' % literal)
        assert cli.main(["curve", "--config", str(p)]) == cli.EXIT_ARGUMENT
        assert "config key 'lam' must be" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert cli.main(["curve", "--config", str(p)]) == cli.EXIT_ARGUMENT

    def test_non_utf8_config_exits_2_naming_it(self, tmp_path, monkeypatch, capsys):
        # the message names the config file, not only the codec's error
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_bytes(b'{"c_grid": [4], "seeds": [0], "lam": "\xff"}')
        argv = ["curve", "--config", "bad.json", "--out", "out.csv"]
        assert cli.main(argv) == cli.EXIT_ARGUMENT
        assert capsys.readouterr().err.startswith("error: config bad.json is not UTF-8 text: ")
        assert not (tmp_path / "out.csv").exists()

    def test_all_zero_code_matrix_names_alpha(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, dict(CURVE_CFG, alpha=5.0))
        assert cli.main(["curve", "--config", cfg]) == cli.EXIT_ARGUMENT
        err = capsys.readouterr().err
        assert "every code is zero: alpha=5.0 is not below the largest similarity bound 1" in err

    def test_config_errors_caught_with_diagnostics_off(self, tmp_path, capsys):
        # n_train is above nystrom_limit, so no full code matrix or spectrum is built
        payload = {"dataset": "synth", "n_samples": 60, "c_grid": [4, 8, 16], "seeds": [0],
                   "alpha": 5.0, "energy": 1.5, "nystrom_limit": 10}
        cfg = _write_config(tmp_path, payload)
        assert cli.main(["curve", "--config", cfg]) == cli.EXIT_ARGUMENT
        assert "energy must be in (0, 1], got 1.5" in capsys.readouterr().err
        cfg = _write_config(tmp_path, dict(payload, energy=0.95))
        assert cli.main(["curve", "--config", cfg]) == cli.EXIT_ARGUMENT
        assert "every code is zero: alpha=5.0" in capsys.readouterr().err


class TestPdlCommand:
    def test_runs_small_comparison(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "final_c_grid": [4],
                "overshoots": [1, 2],
                "seeds": [0],
                "images_per_class": 15,
                "prototypes_per_class": 4,
                "kmeans_iters": 10,
            },
        )
        out = tmp_path / "pdl.json"
        assert cli.main(["pdl", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["kind"] == "pdl"
        assert len(report["pdl_rows"]) == 2


class TestConfigRejectedBeforeWork:
    @pytest.fixture
    def spies(self, monkeypatch):
        # the first fit or data generator each runner reaches
        calls = []
        for module, name in [(harness, "full_code"), (harness, "pdl"), (harness, "kmeans"),
                             (pooling, "kmeans"), (harness, "synth_labeled_manifold"),
                             (harness, "synth_manifold"), (harness, "synth_texture_images")]:
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, _n=name, _r=real, **k: calls.append(_n) or _r(*a, **k)
            )
        return calls

    # 240 training images of 4 patches each: 960 patches
    PDL = {"final_c_grid": [4], "overshoots": [1, 2], "seeds": [0, 1, 2, 3, 4]}

    @pytest.mark.parametrize(
        "command, payload, named",
        [
            ("curve", dict(CURVE_CFG, c_grid=[0, 16, 32]), "c_grid"),
            ("pdl", dict(PDL, overshoots=[1, 300]), "overshoots"),
            ("pdl", dict(PDL, final_c_grid=[0, 4]), "final_c_grid"),
            ("pdl", dict(PDL, regions=[9, 9]), "regions"),
            ("pdl", dict(PDL, overshoots=[0, 1, 4]), "overshoots values must be >= 1"),
            ("pdl", dict(PDL, pool_op="maximum"), "pool_op"),
            ("curve", dict(CURVE_CFG, dict_source="kmean"), "dict_source"),
            ("curve", dict(CURVE_CFG, dataset="pickle"), "dataset"),
            ("nystrom-eval", {"c_grid": [4], "seeds": [0], "normalize": "l2"}, "normalize"),
            ("nystrom-eval", {"c_grid": [4], "seeds": [0], "energy": 1.5},
             "energy must be in (0, 1], got 1.5"),
            ("curve", dict(CURVE_CFG, split_fraction=1.0),
             "split_fraction must be in (0, 1), got 1.0"),
            ("pdl", dict(PDL, split_fraction=0.0), "split_fraction must be in (0, 1), got 0.0"),
            ("curve", dict(CURVE_CFG, path="/nonexistent/my.csv"),
             "config key 'path' is read only when dataset is 'csv', got dataset 'synth'"),
            ("curve", dict(CURVE_CFG, dataset="csv"),
             "config key 'path' is required when dataset is 'csv'"),
            ("curve", dict(CURVE_CFG, seeds=[0, 1, 0]), "config key 'seeds' repeats seed 0"),
            ("pdl", dict(PDL, seeds=[2, 2]), "config key 'seeds' repeats seed 2"),
            ("nystrom-eval", {"c_grid": [4], "seeds": [0, 0]}, "config key 'seeds' repeats seed 0"),
            # these used to fail in the patch grid or the texture generator, naming neither key
            ("pdl", dict(PDL, image_size=0), "config key 'image_size' must be > 0, got 0"),
            ("pdl", dict(PDL, patch=16),
             "config key 'image_size' must be a multiple of 'patch', got image_size 8 and patch 16"),
            ("pdl", dict(PDL, patch=3, stride=3),
             "config key 'image_size' must be a multiple of 'patch', got image_size 8 and patch 3"),
        ],
        ids=["c_grid-zero", "overshoot-too-large", "final_c-zero", "regions-too-large",
             "overshoot-zero", "pool_op", "dict_source", "dataset", "normalize", "energy",
             "curve-split_fraction", "pdl-split_fraction", "path-without-csv",
             "csv-without-path", "curve-repeated-seed", "pdl-repeated-seed",
             "nystrom-eval-repeated-seed", "image_size-zero", "patch-above-image_size",
             "image_size-not-multiple-of-patch"],
    )
    def test_exits_2_naming_key_before_any_fit(self, tmp_path, capsys, spies, command,
                                                 payload, named):
        cfg = _write_config(tmp_path, payload)
        assert cli.main([command, "--config", cfg]) == cli.EXIT_ARGUMENT
        assert named in capsys.readouterr().err
        assert spies == []

    NYSTROM = {"c_grid": [4], "seeds": [0]}

    @pytest.mark.parametrize(
        "payload, shown",
        [
            # k_list entries outside synth_manifold's 1..min(d, n_samples) used to exit
            # 2 from synth_manifold, naming k, after the earlier k's whole sweep
            (dict(NYSTROM, k_list=[2, 40], d=32), "k_list values must be <= min(d, n_samples)"),
            (dict(NYSTROM, k_list=[2, 40], d=64, n_samples=32),
             "k_list values must be <= min(d, n_samples)"),
            (dict(NYSTROM, k_list=[0]), "k_list values must be >= 1, got 0"),
            # sample_indices checks 1 <= c <= n_samples, before any data is built
            (dict(NYSTROM, c_grid=[0, 4]), "need 1 <= c <= N, got c=0, N=256"),
        ],
        ids=["k_list-above-d", "k_list-above-n_samples", "k_list-zero", "c_grid-zero"],
    )
    def test_nystrom_eval_grid_outside_range_exits_2_before_any_data(
        self, tmp_path, capsys, spies, payload, shown
    ):
        cfg = _write_config(tmp_path, payload)
        assert cli.main(["nystrom-eval", "--config", cfg]) == cli.EXIT_ARGUMENT
        assert shown in capsys.readouterr().err
        assert spies == []

    # (command, payload that runs) of each config command, with its list keys
    LISTS = [("curve", CURVE_CFG, ["c_grid", "seeds"]),
             ("pdl", PDL, ["final_c_grid", "overshoots", "seeds"]),
             ("nystrom-eval", NYSTROM, ["c_grid", "seeds", "k_list"])]

    @pytest.mark.parametrize(
        "command, payload, key",
        [(command, payload, key) for command, payload, keys in LISTS for key in keys],
        ids=[f"{command}-{key}" for command, _, keys in LISTS for key in keys],
    )
    def test_empty_list_exits_2_before_any_data(self, tmp_path, capsys, spies, command,
                                                payload, key):
        cfg = _write_config(tmp_path, dict(payload, **{key: []}))
        assert cli.main([command, "--config", cfg]) == cli.EXIT_ARGUMENT
        assert f"config key '{key}' must be non-empty" in capsys.readouterr().err
        assert spies == []

    @pytest.mark.parametrize(
        "command, payload, shown",
        [
            ("curve", dict(CURVE_CFG, seeds=[-1]),
             "config key 'seeds' must be list[int] (ints in [0, 2**63)), got [-1]"),
            ("pdl", dict(PDL, split_seed=-3),
             "config key 'split_seed' must be int (ints in [0, 2**63)), got -3"),
            ("nystrom-eval", {"c_grid": [4], "seeds": [0], "n_samples": 10**400},
             f"config key 'n_samples' must be int (ints in [0, 2**63)), got {10**400}"),
        ],
        ids=["negative-seed", "negative-split_seed", "400-digit-n_samples"],
    )
    def test_int_out_of_range_exits_2_before_any_data(self, tmp_path, capsys, monkeypatch,
                                                       command, payload, shown):
        # these used to reach numpy, whose message names neither the key nor the value
        made = []
        for name in ("synth_labeled_manifold", "synth_manifold", "synth_texture_images"):
            monkeypatch.setattr(harness, name, lambda *a, _n=name, **k: made.append(_n))
        cfg = _write_config(tmp_path, payload)
        assert cli.main([command, "--config", cfg]) == cli.EXIT_ARGUMENT
        assert shown in capsys.readouterr().err
        assert made == []

    @pytest.mark.parametrize(
        "command, payload, shown",
        [
            ("curve", dict(CURVE_CFG, lam=10**400),
             f"config key 'lam' must be float | None, got {10**400}"),
            ("nystrom-eval", {"c_grid": [4], "seeds": [0], "noise": 10**400},
             f"config key 'noise' must be float, got {10**400}"),
        ],
        ids=["400-digit-lam", "400-digit-noise"],
    )
    def test_int_too_large_for_a_float_exits_2(self, tmp_path, capsys, command, payload, shown):
        # these used to crash in np.isfinite (exit 1) or in float() (exit 4)
        cfg = _write_config(tmp_path, payload)
        assert cli.main([command, "--config", cfg]) == cli.EXIT_ARGUMENT
        assert shown in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, payload, shown",
        [
            ("curve", dict(CURVE_CFG, lam=0), "config key 'lam' must be > 0, got 0"),
            ("curve", dict(CURVE_CFG, lam=-2.5), "config key 'lam' must be > 0, got -2.5"),
            ("curve", dict(CURVE_CFG, kmeans_iters=0),
             "config key 'kmeans_iters' must be > 0, got 0"),
            ("pdl", dict(PDL, image_size=32, lam=0), "config key 'lam' must be > 0, got 0"),
            ("pdl", dict(PDL, kmeans_iters=0), "config key 'kmeans_iters' must be > 0, got 0"),
            # the patch grid is worked out from these before any data; patch 0 used to
            # crash with ZeroDivisionError in synth_texture_images
            ("pdl", dict(PDL, patch=0), "config key 'patch' must be > 0, got 0"),
            ("pdl", dict(PDL, stride=0), "config key 'stride' must be > 0, got 0"),
        ],
        ids=["curve-lam-zero", "curve-lam-negative", "curve-kmeans_iters-zero", "pdl-lam-zero",
             "pdl-kmeans_iters-zero", "pdl-patch-zero", "pdl-stride-zero"],
    )
    def test_lam_and_kmeans_iters_checked_before_any_data(self, tmp_path, capsys, monkeypatch,
                                                          command, payload, shown):
        # these used to fail in train_ridge or kmeans, after the data, the full code
        # matrix and its spectrum (or the K-means fits) were built
        made = []
        for name in ("synth_labeled_manifold", "synth_manifold", "synth_texture_images",
                     "full_code"):
            monkeypatch.setattr(harness, name, lambda *a, _n=name, **k: made.append(_n))
        cfg = _write_config(tmp_path, payload)
        assert cli.main([command, "--config", cfg]) == cli.EXIT_ARGUMENT
        err = capsys.readouterr().err
        assert shown in err
        assert "max_iters" not in err
        assert made == []


class TestNystromEvalCommand:
    def test_reports_coverage(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"c_grid": [4, 8], "seeds": [0, 1], "k_list": [2], "d": 10, "n_samples": 32},
        )
        out = tmp_path / "nys.json"
        assert cli.main(["nystrom-eval", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["kind"] == "nystrom_eval"
        assert 0.0 <= report["coverage"] <= 1.0

    @pytest.mark.parametrize(
        "bad_c, message",
        [
            (0, "need 1 <= c <= N, got c=0, N=64"),
            # above the range of every config int: the config type check names the key
            (10**400, f"config key 'c_grid' must be list[int] (ints in [0, 2**63)), "
                      f"got [8, {10**400}]"),
        ],
        ids=["zero", "400-digit"],
    )
    def test_c_outside_sample_count_exits_2(self, tmp_path, capsys, bad_c, message):
        # rejected by the config check, before the bound or the sampler sees it
        cfg = _write_config(tmp_path, {"c_grid": [8, bad_c], "seeds": [0], "k_list": [2],
                                       "n_samples": 64})
        assert cli.main(["nystrom-eval", "--config", cfg]) == cli.EXIT_ARGUMENT
        assert message in capsys.readouterr().err

    def test_c_at_both_ends_of_range_runs(self, tmp_path):
        cfg = _write_config(tmp_path, {"c_grid": [1, 64], "seeds": [0], "k_list": [2],
                                       "d": 10, "n_samples": 64})
        out = tmp_path / "nys.json"
        assert cli.main(["nystrom-eval", "--config", cfg, "--out", str(out)]) == 0
        assert [cell["c"] for cell in json.loads(out.read_text())["cells"]] == [1, 64]


class TestEncodeCommand:
    def test_encodes_csv_dataset(self, tmp_path):
        data = tmp_path / "data.csv"
        cli.main(["synth", "--d", "6", "--k", "2", "--n", "25", "--out", str(data)])
        out = tmp_path / "codes.csv"
        rc = cli.main(
            ["encode", "--data", str(data), "--labels", "--c", "5", "--out", str(out)]
        )
        assert rc == 0
        codes = np.loadtxt(out, delimiter=",")
        assert codes.shape == (25, 5)
        assert codes.min() >= 0.0

    def test_format_error_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        assert (
            cli.main(["encode", "--data", str(bad), "--c", "1", "--out", "x.csv"])
            == cli.EXIT_FORMAT
        )

    @pytest.mark.parametrize("command", ["encode", "curve"])
    def test_non_utf8_file_exits_3_naming_it(self, tmp_path, monkeypatch, capsys, command):
        # a decode error used to exit 2 naming neither the file nor a format error
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.csv").write_bytes(b"1,2,0\n3,4,\xff\n")
        cfg = _write_config(tmp_path, {"c_grid": [1, 2, 3], "seeds": [0], "dataset": "csv",
                                       "path": "bad.csv"})
        argv = {"encode": ["encode", "--data", "bad.csv", "--labels", "--c", "1"],
                "curve": ["curve", "--config", cfg]}[command]
        assert cli.main(argv + ["--out", "out.csv"]) == cli.EXIT_FORMAT
        assert "error: bad.csv: not UTF-8 text: " in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert (
            cli.main(["encode", "--data", str(tmp_path / "nope.csv"), "--c", "1"])
            == cli.EXIT_ARGUMENT
        )

    @pytest.mark.parametrize("alpha, message", [
        pytest.param("inf", "alpha must be finite, got inf", id="inf"),
        pytest.param("nan", "alpha must be finite, got nan", id="nan"),
        pytest.param("1e300", "alpha=1e+300 is not below", id="1e300"),
    ])
    def test_alpha_not_below_top_similarity_exits_2(self, tmp_path, capsys, alpha, message):
        # 1e300 would write an all-zero code matrix; a non-finite alpha is rejected by name
        data = tmp_path / "data.csv"
        cli.main(["synth", "--d", "4", "--k", "2", "--n", "10", "--out", str(data)])
        out = tmp_path / "codes.csv"
        argv = ["encode", "--data", str(data), "--labels", "--c", "3", "--alpha", alpha,
                "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_ARGUMENT
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_c_larger_than_dataset_exits_2(self, tmp_path):
        data = tmp_path / "data.csv"
        cli.main(["synth", "--d", "4", "--k", "2", "--n", "10", "--out", str(data)])
        assert (
            cli.main(["encode", "--data", str(data), "--labels", "--c", "99"])
            == cli.EXIT_ARGUMENT
        )


class TestDispatch:
    @pytest.mark.parametrize(
        "command, runner, payload",
        [
            ("curve", "run_curve", CURVE_CFG),
            ("pdl", "run_pdl_compare", {"final_c_grid": [4], "overshoots": [1], "seeds": [0]}),
            ("nystrom-eval", "run_nystrom_eval", {"c_grid": [4], "seeds": [0]}),
        ],
    )
    def test_runner_looked_up_at_call_time(self, tmp_path, monkeypatch, command, runner, payload):
        # rebinding the module attribute after import must reach main(), as the tracer does
        calls, emitted = [], []
        sentinel = object()

        def spy(cfg):
            calls.append(cfg)
            return sentinel

        monkeypatch.setattr(cli, runner, spy)
        monkeypatch.setattr(cli, "emit", lambda report, path, fmt: emitted.append(report))
        cfg = _write_config(tmp_path, payload)
        assert cli.main([command, "--config", cfg]) == 0
        assert len(calls) == 1
        assert emitted == [sentinel]


class TestExitCodes:
    def test_numerical_failure_exits_4(self, monkeypatch):
        def boom(args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "_cmd_config", boom)
        assert cli.main(["curve"]) == cli.EXIT_NUMERICAL

    def test_out_of_memory_exits_2_naming_the_size(self, tmp_path, monkeypatch, capsys):
        # a config whose sizes the machine cannot hold; nothing is allocated for real
        message = ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
                   "and data type float64")

        def oom(cfg):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run_curve", oom)
        out = tmp_path / "report.csv"
        argv = ["curve", "--config", _write_config(tmp_path, CURVE_CFG), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_ARGUMENT
        assert capsys.readouterr().err == f"error: out of memory: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("exc", [KeyError, TypeError])
    def test_programming_error_propagates(self, monkeypatch, exc):
        # no config or data path raises these, so they are bugs, not exit-2 config errors
        def boom(args):
            raise exc("x")

        monkeypatch.setattr(cli, "_cmd_config", boom)
        with pytest.raises(exc):
            cli.main(["curve"])

    def test_stdout_output_when_no_out(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {"c_grid": [4, 8], "seeds": [0], "k_list": [2], "d": 10, "n_samples": 32},
        )
        assert cli.main(["nystrom-eval", "--config", cfg, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("k,c,seed,")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["curve", "--config", {"c_grid": [4, 8, 16], "seeds": [0], "n_samples": 100,
                                    "noise": -1.0}], "noise must be >= 0, got -1.0"),
            (["pdl", "--config", {"final_c_grid": [4], "overshoots": [1, 2], "seeds": [0],
                                  "noise": -1.0}], "noise must be >= 0, got -1.0"),
            (["synth", "--noise", "-1"], "noise must be >= 0, got -1.0"),
            # these used to exit 2 naming only NaN or Inf in the matrix, or warn in the matmul
            (["synth", "--noise", "nan"], "noise must be finite, got nan"),
            (["synth", "--noise", "inf"], "noise must be finite, got inf"),
            (["synth", "--within", "nan"], "within must be finite, got nan"),
            (["synth", "--class-sep", "inf"], "class_sep must be finite, got inf"),
            # these used to warn in the multiply, then name only NaN or Inf in the matrix
            (["synth", "--noise", "1e308"], f"{OVERFLOW} noise=1e+308, class_sep=2.0, within=0.6"),
            (["synth", "--within", "1e308"], f"{OVERFLOW} noise=0.1, class_sep=2.0, within=1e+308"),
            (["curve", "--config", dict(CURVE_CFG, noise=1e308)],
             f"{OVERFLOW} noise=1e+308, class_sep=1.6, within=0.9"),
            (["pdl", "--config", {"final_c_grid": [4], "overshoots": [1, 2], "seeds": [0],
                                  "noise": 1e308}], f"{OVERFLOW} noise=1e+308\n"),
            (["nystrom-eval", "--config", {"c_grid": [4], "seeds": [0], "noise": 1e308}],
             f"{OVERFLOW} noise=1e+308\n"),
            # a seed of 2**63 or more used to exit 0 and write the file; the others used to exit 2
            # naming a C long or a numpy limit, or (--k, --c) the flag but not its range
            (["synth", "--classes", HUGE], f"error: --classes {INT_FLAG}, got {HUGE}\n"),
            *[(["synth", f"--{flag}", HUGE], f"error: --{flag} {INT_FLAG}, got {HUGE}\n")
              for flag in ("seed", "d", "k", "n", "modes-per-class")],
            (["synth", "--seed", "-1"], f"error: --seed {INT_FLAG}, got -1\n"),
            (["synth", "--seed", str(2**64)], f"error: --seed {INT_FLAG}, got {2**64}\n"),
            (["encode", "--data", "data.csv", "--labels", "--c", "4", "--seed", HUGE],
             f"error: --seed {INT_FLAG}, got {HUGE}\n"),
            (["encode", "--data", "data.csv", "--labels", "--c", HUGE],
             f"error: --c {INT_FLAG}, got {HUGE}\n"),
            # these used to warn in the matmul, then name only NaN or Inf in the code matrix
            (["encode", "--data", "huge.csv", "--labels", "--c", "1"],
             "error: the codes overflow the float range\n"),
            (["encode", "--data", "huge.csv", "--labels", "--c", "1", "--alpha", "1e300"],
             "error: the codes overflow the float range\n"),
            # this used to exit 0 at chance level: 8.0 is below only the squared norm bound 25.1
            (["curve", "--config", {"c_grid": [4, 8, 16], "seeds": [0, 1],
                                    "normalize": "mean_center", "dict_source": "kmeans",
                                    "alpha": 8.0, "n_samples": 400}],
             "error: every code is zero: alpha=8.0 is not below the largest similarity "
             "bound 5.01438\n"),
            # these used to warn in the ridge Gram (or K-centers) and exit 0 at chance level, to
            # name only ||C||_F^2, or to write codes near 1e300
            (["curve", "--config", {"c_grid": [8, 16, 32], "seeds": [0], "alpha": -1e155,
                                    "n_samples": 100, "nystrom_limit": 10}],
             f"{SQUARED_OVERFLOW} alpha=-1e+155 is not above the lowest alpha"),
            (["curve", "--config", {"c_grid": [8, 16, 32], "seeds": [0], "alpha": -1e155,
                                    "n_samples": 100}],
             f"{SQUARED_OVERFLOW} alpha=-1e+155 is not above the lowest alpha"),
            (["pdl", "--config", {"final_c_grid": [4], "overshoots": [1, 2], "seeds": [0],
                                  "alpha": -1e200, "images_per_class": 10}],
             f"{SQUARED_OVERFLOW} alpha=-1e+200 is not above the lowest alpha"),
            (["encode", "--data", "data.csv", "--labels", "--c", "4", "--alpha=-1e300"],
             f"{SQUARED_OVERFLOW} alpha=-1e+300 is not above the lowest alpha"),
        ],
        ids=["curve", "pdl", "synth", "synth-noise-nan", "synth-noise-inf", "synth-within-nan",
             "synth-class_sep-inf", "synth-noise-overflow", "synth-within-overflow",
             "curve-overflow", "pdl-overflow", "nystrom-eval-overflow", "synth-huge-int",
             "synth-huge-seed", "synth-huge-d", "synth-huge-k", "synth-huge-n",
             "synth-huge-modes-per-class", "synth-negative-seed", "synth-seed-2**64",
             "encode-huge-seed", "encode-huge-c", "encode-overflow", "encode-overflow-huge-alpha",
             "curve-kmeans-alpha", "curve-negative-alpha", "curve-diagnostics-negative-alpha",
             "pdl-negative-alpha", "encode-negative-alpha"],
    )
    def test_negative_noise_exits_2(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "huge.csv").write_text("1e200,2e200,0\n3e200,1e200,1\n")
        (tmp_path / "data.csv").write_text("".join(f"{i},{i % 3},{i % 2}\n" for i in range(8)))
        argv = [_write_config(tmp_path, a) if isinstance(a, dict) else a for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv + ["--out", "x.csv"]) == cli.EXIT_ARGUMENT
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("curve", dict(CURVE_CFG, energy=1.5)),
            ("nystrom-eval", {"c_grid": [4], "seeds": [0], "k_list": [2], "d": 10,
                              "n_samples": 32, "energy": 0.0}),
        ],
    )
    def test_energy_out_of_range_exits_2(self, tmp_path, capsys, command, payload):
        cfg = _write_config(tmp_path, payload)
        assert cli.main([command, "--config", cfg]) == cli.EXIT_ARGUMENT
        assert "energy must be in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"c_grid": [4, 8, 16], "seeds": [0], "n_samples": 1, "k": 1},
            {"c_grid": [4, 8, 16], "seeds": [0], "dataset": "csv", "path": "one.csv"},
        ],
        ids=["synth", "csv"],
    )
    def test_one_sample_split_names_the_count(self, tmp_path, monkeypatch, capsys, payload):
        # both used to exit 2 naming an empty (d, 0) training matrix, not the split
        monkeypatch.chdir(tmp_path)
        (tmp_path / "one.csv").write_text("0.5,0.1,0\n")
        cfg = _write_config(tmp_path, payload)
        assert cli.main(["curve", "--config", cfg]) == cli.EXIT_ARGUMENT
        assert ("need at least 2 samples to split into training and test sets, got 1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            ("curve", {"c_grid": [4, 8, 16], "seeds": [0], "n_samples": 5},
             "fewer than 2 usable codebook sizes after skipping oversized ones"),
            ("pdl", {"final_c_grid": [4], "overshoots": [1, 2], "seeds": [0], "image_size": 2,
                     "patch": 4},
             "config key 'image_size' must be a multiple of 'patch', got image_size 2 and patch 4"),
            ("curve", {"c_grid": [4, 8, 16], "seeds": [0], "classes": 1},
             "classes must be >= 2"),
            ("curve", {"c_grid": [4, 8, 16], "seeds": [0], "modes_per_class": 0},
             "modes_per_class must be >= 1"),
            ("pdl", {"final_c_grid": [4], "overshoots": [1, 2], "seeds": [0],
                     "prototypes_per_class": 0},
             "need classes >= 2, images_per_class >= 1, prototypes_per_class >= 1"),
            # unit-norm atoms: no code exceeds the largest unit_l2 patch norm, 1
            ("pdl", {"final_c_grid": [4], "overshoots": [1, 2], "seeds": [0, 1], "alpha": 1.5},
             "every code is zero: alpha=1.5 is not below the largest similarity bound 1"),
        ],
        ids=["curve-grid-oversized", "pdl-patch-grid", "curve-classes", "curve-modes",
             "pdl-prototypes", "pdl-alpha"],
    )
    def test_runner_guard_exits_2(self, tmp_path, capsys, command, payload, message):
        cfg = _write_config(tmp_path, payload)
        assert cli.main([command, "--config", cfg]) == cli.EXIT_ARGUMENT
        assert message in capsys.readouterr().err

    def test_one_class_csv_curve_exits_2_before_full_code(self, tmp_path, monkeypatch, capsys):
        # this used to run full_code, the spectrum and every Nystrom score, then exit 2
        # from train_ridge naming neither the file nor the label column
        monkeypatch.setattr(harness, "full_code", lambda *a, **k: pytest.fail("full_code ran"))
        data = tmp_path / "one_class.csv"
        rows = np.random.default_rng(0).standard_normal((40, 3))
        data.write_text("".join(f"{a},{b},{c},7\n" for a, b, c in rows))
        cfg = _write_config(tmp_path, {"c_grid": [4, 8, 16], "seeds": [0], "dataset": "csv",
                                       "path": str(data)})
        out = tmp_path / "r.csv"
        assert cli.main(["curve", "--config", cfg, "--out", str(out)]) == cli.EXIT_ARGUMENT
        assert f"{data}: the label column holds 1 class" in capsys.readouterr().err
        assert not out.exists()

    def test_pdl_all_zero_alpha_exits_2_before_kmeans(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pooling, "kmeans", lambda *a, **k: pytest.fail("kmeans ran"))
        cfg = _write_config(tmp_path, {"final_c_grid": [4], "overshoots": [1, 2], "seeds": [0],
                                       "normalize": "mean_center", "alpha": 1e6})
        assert cli.main(["pdl", "--config", cfg]) == cli.EXIT_ARGUMENT
