import json

import numpy as np
import pytest

from nyscode import cli
from nyscode.data import load_csv


def _write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


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

    def test_all_zero_code_matrix_names_alpha(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, dict(CURVE_CFG, alpha=5.0))
        assert cli.main(["curve", "--config", cfg]) == cli.EXIT_ARGUMENT
        err = capsys.readouterr().err
        assert "code matrix is all zero: alpha=5.0" in err
        assert "largest pairwise similarity 1" in err

    def test_config_errors_caught_with_diagnostics_off(self, tmp_path, capsys):
        # n_train is above nystrom_limit, so no full code matrix or spectrum is built
        payload = {"dataset": "synth", "n_samples": 60, "c_grid": [4, 8, 16], "seeds": [0],
                   "alpha": 5.0, "energy": 1.5, "nystrom_limit": 10}
        cfg = _write_config(tmp_path, payload)
        assert cli.main(["curve", "--config", cfg]) == cli.EXIT_ARGUMENT
        assert "energy must be in (0, 1], got 1.5" in capsys.readouterr().err
        cfg = _write_config(tmp_path, dict(payload, energy=0.95))
        assert cli.main(["curve", "--config", cfg]) == cli.EXIT_ARGUMENT
        assert "code matrix is all zero: alpha=5.0" in capsys.readouterr().err


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

    @pytest.mark.parametrize("bad_c", [0, 10**400], ids=["zero", "400-digit"])
    def test_c_outside_sample_count_exits_2(self, tmp_path, capsys, bad_c):
        # rejected by the config check, before the bound or the sampler sees it
        cfg = _write_config(tmp_path, {"c_grid": [8, bad_c], "seeds": [0], "k_list": [2],
                                       "n_samples": 64})
        assert cli.main(["nystrom-eval", "--config", cfg]) == cli.EXIT_ARGUMENT
        assert f"need 1 <= c <= N, got c={bad_c}, N=64" in capsys.readouterr().err

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

    def test_missing_file_exits_2(self, tmp_path):
        assert (
            cli.main(["encode", "--data", str(tmp_path / "nope.csv"), "--c", "1"])
            == cli.EXIT_ARGUMENT
        )

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

        monkeypatch.setitem(cli._COMMANDS, "curve", boom)
        assert cli.main(["curve"]) == cli.EXIT_NUMERICAL

    @pytest.mark.parametrize("exc", [KeyError, TypeError])
    def test_programming_error_propagates(self, monkeypatch, exc):
        # no config or data path raises these, so they are bugs, not exit-2 config errors
        def boom(args):
            raise exc("x")

        monkeypatch.setitem(cli._COMMANDS, "curve", boom)
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
        "argv",
        [
            ["curve", "--config", {"c_grid": [4, 8, 16], "seeds": [0], "n_samples": 100,
                                   "noise": -1.0}],
            ["pdl", "--config", {"final_c_grid": [4], "overshoots": [1, 2], "seeds": [0],
                                 "noise": -1.0}],
            ["synth", "--noise", "-1", "--out", "x.csv"],
        ],
        ids=["curve", "pdl", "synth"],
    )
    def test_negative_noise_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        argv = [_write_config(tmp_path, a) if isinstance(a, dict) else a for a in argv]
        assert cli.main(argv) == cli.EXIT_ARGUMENT
        assert "noise must be >= 0, got -1.0" in capsys.readouterr().err
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
