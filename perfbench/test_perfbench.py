"""Fast self-test of the benchmark on tiny configs.

Run from the repository root:

    python3 -m pytest -q perfbench

It checks that BENCHMARK.json lists exactly the metrics the runner emits,
that a tiny run of every workload emits every metric in both modes with all
checks passing, and that broken outputs fail the checks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    """Every workload runs its own tiny warm-up config, with short set-up sampling."""
    tiny = {name: (command, small, small) for name, (command, _, small) in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", tiny)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    return tiny


def test_benchmark_json_matches_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == (
        run.per_layer_metrics())
    assert max(m["bound"] for m in BENCHMARK["end_to_end"]) == next(
        m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_runs_emit_every_metric(tiny_workloads, capsys, trace):
    section = "per_layer" if trace else "end_to_end"
    want = [m["name"] for m in BENCHMARK[section]]
    for name in tiny_workloads:
        assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.05",
                         "--trace", str(trace)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
        assert list(result["metrics"]) == want
        for metric in want:
            assert any(line.startswith(f"{metric} ") for line in lines), metric
        if not trace:
            assert all(result["metrics"][m]["value"] > 0 for m in want)


def test_missing_program_exits_nonzero(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "curve-diag", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def _tiny_table(name: str, tmp_path: Path) -> tuple[str, dict, str]:
    from nyscode.cli import main

    command, _, config = run.WORKLOADS[name]
    config_path = tmp_path / f"{name}.json"
    out = tmp_path / f"{name}.csv"
    config_path.write_text(json.dumps(config))
    assert main([command, "--config", str(config_path), "--format", "csv",
                 "--out", str(out)]) == 0
    return command, config, out.read_text()


def _replace_field(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    fields = lines[row].split(",")
    fields[header.index(column)] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


BROKEN = [
    ("curve-diag", lambda t: t.replace("test_acc", "test_accuracy", 1)),
    ("curve-diag", lambda t: "\n".join(t.splitlines()[:-1]) + "\n"),
    ("curve-diag", lambda t: _replace_field(t, 1, "test_acc", "1.25")),
    ("curve-diag", lambda t: _replace_field(t, 2, "kernel_err", "nan")),
    ("curve-diag", lambda t: _replace_field(t, 1, "code_err", "1.5")),
    ("curve-diag", lambda t: _replace_field(t, 3, "bound_eq1", "2.5")),
    ("curve-wide", lambda t: _replace_field(t, 1, "test_acc", "0.123")),
    ("curve-wide", lambda t: _replace_field(t, 1, "code_err", "1.0")),
    ("nystrom-cells", lambda t: _replace_field(t, 1, "within_bound",
                                               "0" if t.splitlines()[1].endswith("1") else "1")),
    ("nystrom-cells", lambda t: _replace_field(t, 1, "code_err", "0.5")),
    ("pdl-prune", lambda t: _replace_field(t, 2, "delta_vs_baseline", "0.125")),
    ("pdl-prune", lambda t: t.rstrip("\n")),
]


@pytest.mark.parametrize("name, breaks", BROKEN)
def test_broken_output_fails_checks(tiny_workloads, tmp_path, name, breaks):
    command, config, text = _tiny_table(name, tmp_path)
    rows = checks.parse_table(command, config, text)
    checks.recompute(command, config, rows)
    with pytest.raises(checks.CheckError):
        broken = breaks(text)
        assert broken != text
        checks.recompute(command, config, checks.parse_table(command, config, broken))


def test_changed_bytes_or_exit_code_count_as_failed():
    good = {"tiny_rc": 0, "untraced": [[1.0, 0, "a"], [1.0, 0, "a"]]}
    assert run.count_failed([good]) == 0
    assert run.count_failed([{**good, "tiny_rc": 4}]) == 1
    assert run.count_failed([{"tiny_rc": 0, "untraced": [[1.0, 0, "a"], [1.0, 0, "b"]]}]) == 1
    assert run.count_failed([{"tiny_rc": 0, "untraced": [[1.0, 2, "a"]], "traced": []}]) == 1
