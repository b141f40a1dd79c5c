"""nyscode benchmark: time the CLI end to end, check its outputs, trace its layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload curve-diag --seed 0 --seconds 20 --trace 0

Each run writes the workload's config from ``--seed`` into a work
directory, starts fresh worker processes (``perfbench/worker.py``) that go
through ``nyscode.cli.main`` with that config file and an output file, checks
every output, recomputes one cell with plain numpy, and prints the metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the run metadata and every metric by name. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0
SETUP_SAMPLES = 9

CURVE_BASE = {
    "dataset": "synth", "d": 32, "k": 4, "classes": 4, "noise": 0.15, "class_sep": 1.6,
    "within": 0.9, "modes_per_class": 4, "alpha": 0.25, "energy": 0.95,
    "dict_source": "sampled", "normalize": "unit_l2", "split_fraction": 0.8, "split_seed": 0,
    "nystrom_limit": 2000,
}
NYSTROM_BASE = {"k_list": [2, 4], "d": 32, "n_samples": 256, "noise": 0.05, "alpha": 0.25,
                "energy": 0.95, "normalize": "unit_l2"}
PDL_BASE = {"images_per_class": 150, "classes": 2, "prototypes_per_class": 12, "noise": 0.8,
            "alpha": 0.25, "regions": [2, 2], "pool_op": "average", "normalize": "unit_l2",
            "split_fraction": 0.8, "split_seed": 0}

# name -> (subcommand, config at workload seed 0, tiny warm-up config of the same subcommand)
WORKLOADS = {
    # N_train = 2000 keeps the Nystrom diagnostics on: full_code, one spectrum,
    # and one N x N reconstruction per (c, seed) cell dominate.
    "curve-diag": ("curve", {
        **CURVE_BASE, "n_samples": 2500, "c_grid": [16, 32, 64, 128, 256],
        "seeds": [0, 1, 2, 3, 4], "data_seed": 0,
    }, {**CURVE_BASE, "n_samples": 60, "c_grid": [4, 8, 16], "seeds": [0], "data_seed": 0}),
    # N_train = 16000 is above nystrom_limit, so encode and the ridge
    # classifier do all the work and nystrom/spectra never run.
    "curve-wide": ("curve", {
        **CURVE_BASE, "n_samples": 20000, "d": 64, "k": 8,
        "c_grid": [64, 128, 256, 512, 1024], "seeds": [0, 1, 2], "data_seed": 0,
    }, {**CURVE_BASE, "n_samples": 60, "c_grid": [4, 8, 16], "seeds": [0], "data_seed": 0,
        "nystrom_limit": 10}),
    # the pinned bound-coverage shape with 100 seeds: 800 small Nystrom cells
    "nystrom-cells": ("nystrom-eval", {
        **NYSTROM_BASE, "c_grid": [16, 32, 64, 128], "seeds": list(range(100)), "data_seed": 0,
    }, {**NYSTROM_BASE, "n_samples": 32, "k_list": [2], "c_grid": [4, 8], "seeds": [0],
        "data_seed": 0}),
    # overshoot-and-prune on 32x32 images; K-means dominates. kmeans_iters is
    # capped below the iteration count Lloyd needs here, so every seed does
    # the same amount of K-means work.
    "pdl-prune": ("pdl", {
        **PDL_BASE, "image_size": 32, "patch": 8, "stride": 4, "final_c_grid": [64],
        "overshoots": [1, 4], "seeds": [0, 1], "kmeans_iters": 15, "data_seed": 0,
    }, {**PDL_BASE, "images_per_class": 4, "image_size": 8, "patch": 4, "stride": 4,
        "final_c_grid": [2], "overshoots": [1, 2], "seeds": [0], "kmeans_iters": 5,
        "data_seed": 0}),
}

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cells_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
QUALITY = [
    ("test_acc", "fraction", "higher"),
    ("pred_gap", "fraction", "lower"),
    ("code_rel_err", "ratio", "lower"),
    ("bound_coverage", "fraction", "higher"),
    ("pdl_delta", "fraction", "higher"),
]
LAYER_COUNTS = [
    ("spectra.spectral_report.n", "count", "lower"),
    ("nystrom.approximation_errors.peak_alloc_mb", "MB", "lower"),
    ("dictionary.kmeans.iters", "count", "lower"),
    ("dictionary.kmeans.dist_evals", "count", "lower"),
    ("coding.encode.macs", "count", "lower"),
    ("coding.full_code.macs", "count", "lower"),
    ("classifier.train_ridge.macs", "count", "lower"),
    ("harness.emit.bytes", "bytes", "lower"),
]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    metrics = []
    for name in SPAN_NAMES:
        metrics += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"),
                    (f"{name}.self_s_1t", "s", "lower")]
    metrics += LAYER_COUNTS
    metrics += [("cli.import_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    metrics += [(f"quality.{name}", unit, better) for name, unit, better in QUALITY]
    return metrics


def workload_config(name: str, seed: int) -> tuple[str, dict, dict]:
    """Shift the data seed by ``seed`` and the seed list by whole list lengths."""
    command, base, tiny = WORKLOADS[name]
    config = dict(base)
    config["data_seed"] = base["data_seed"] + seed
    config["seeds"] = [s + seed * len(base["seeds"]) for s in base["seeds"]]
    return command, config, tiny


def _blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def _blas_env(threads: int) -> dict:
    """The environment with every BLAS thread-count variable set to ``threads``."""
    return {**os.environ, **{var: str(threads) for var in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


class RunFailed(Exception):
    """A worker did not finish or did not report; no result can be printed."""


class Runner:
    """Spawns workers for one benchmark invocation inside its work directory."""

    def __init__(self, workdir: Path, command: str, config: dict, tiny: dict, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.out = workdir / "out.csv"
        config_path = workdir / "config.json"
        tiny_path = workdir / "tiny.json"
        config_path.write_text(json.dumps(config))
        tiny_path.write_text(json.dumps(tiny))
        self.argv = [command, "--config", str(config_path), "--format", "csv",
                     "--out", str(self.out)]
        self.tiny_argv = [command, "--config", str(tiny_path), "--format", "csv",
                          "--out", str(workdir / "tiny.csv")]
        self.jobs = 0

    def spawn(self, threads: int, **job) -> dict:
        self.jobs += 1
        job_path = self.workdir / f"job{self.jobs}.json"
        job.update(src=str(SRC), argv=self.argv, tiny_argv=self.tiny_argv, out=str(self.out))
        job_path.write_text(json.dumps(job))
        spawned_at = time.monotonic()
        timeout = self.deadline - spawned_at
        if timeout <= 0:
            raise RunFailed("time budget exhausted before a worker could start")
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            stdout=subprocess.PIPE, env=_blas_env(threads), text=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunFailed(f"worker ({job['mode']}) exceeded the time budget") from None
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RunFailed(f"worker ({job['mode']}) exited with code {proc.returncode}")
        report = json.loads(lines[-1])
        report["setup_s"] = report["ready_at"] - spawned_at
        return report


def _calls(report: dict) -> list:
    return report.get("untraced", []) + report.get("traced", [])


def count_failed(workers: list[dict]) -> int:
    """Calls that exited non-zero or wrote other bytes than the worker's first call.

    Every main() call is one attempt; tiny warm-ups count too. A different
    BLAS thread count may round differently, so each worker is its own
    reference for byte-identical output.
    """
    failed = 0
    for w in workers:
        calls = _calls(w)
        failed += (w["tiny_rc"] != 0) + sum(rc != 0 or digest != calls[0][2]
                                            for _, rc, digest in calls)
    return failed


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the lines printed before it."""
    import checks  # imports numpy, so only after main() has pinned the BLAS threads

    command, config, tiny = workload_config(name, seed)
    threads = _blas_threads()
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workdir, command, config, tiny, deadline)
        if trace:
            spans_path = WORK / f"spans-{name}-seed{seed}.json"
            main = runner.spawn(threads, mode="trace", untraced_seconds=seconds / 3,
                                traced_seconds=seconds / 3, min_calls=2,
                                spans_path=str(spans_path))
            texts = [runner.out.read_text()]
            # the 1-thread pass: one cold untraced call, then traced calls
            single = runner.spawn(1, mode="trace", untraced_seconds=0,
                                  traced_seconds=seconds / 3, min_calls=1,
                                  spans_path=str(workdir / "spans-1t.json"))
            texts.append(runner.out.read_text())
            workers = [main, single]
        else:
            # set-up samples before and after the timed calls, so that their
            # median covers the same stretch of machine time as wall_s
            before = SETUP_SAMPLES // 2
            workers = [runner.spawn(threads, mode="setup") for _ in range(before)]
            main = runner.spawn(threads, mode="measure", untraced_seconds=seconds, min_calls=5)
            texts = [runner.out.read_text()]
            workers.append(main)
            workers += [runner.spawn(threads, mode="setup")
                        for _ in range(SETUP_SAMPLES - 1 - before)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(1 + len(_calls(w)) for w in workers)
    failed = count_failed(workers)
    problems = [f"{failed} of {attempted} calls exited non-zero or changed the output bytes"
                ] if failed else []
    quality: dict = {}
    try:
        rows = checks.parse_table(command, config, texts[0])
        for text in texts[1:]:
            checks.parse_table(command, config, text)
        code_norms = checks.recompute(command, config, rows)
        quality = checks.quality(command, rows, code_norms)
    except checks.CheckError as e:
        problems.append(f"output check failed: {e}")
        failed = attempted

    lines = ["meta " + json.dumps(_metadata(name, seed, seconds, trace, threads))]
    lines += [f"problem {p}" for p in problems]
    # the first full-size call in a fresh process pays page faults the later
    # ones do not; the timings are of the warm calls after it
    walls = [wall for wall, _, _ in main["untraced"][1:]]
    cells = checks.grid_cells(command, config)
    if trace:
        metrics = _layer_metrics(main, single, walls, quality)
        # a traced function the calling modules no longer look up records 0 calls
        lines += [f"unbound {b}" for b in main["missing_bindings"]]
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cells_per_s": statistics.median(cells / w for w in walls),
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "peak_rss_mb": main["peak_rss_mb"],
        }
    units = {name: unit for name, unit, _ in END_TO_END + per_layer_metrics()}
    if not trace:
        lines.append(f"samples setup_s={len(workers)} cells_per_call={cells} "
                     f"wall_s={len(walls)}: " + " ".join(f"{w:.4f}" for w in walls))
        lines += [f"quality.{k} {v!r} {units['quality.' + k]}" for k, v in quality.items()]
        lines.append(f"failed_frac {failed / attempted!r} fraction")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    lines += [f"{k} {v!r} {units[k]}" for k, v in metrics.items()]
    return result, lines


def _layer_metrics(main: dict, single: dict, walls: list, quality: dict) -> dict:
    metrics = {}
    for name, stats in main["layers"].items():
        for key, value in stats.items():
            metrics[f"{name}.{key}"] = value
        metrics[f"{name}.self_s_1t"] = single["layers"][name]["self_s"]
    traced = [wall for wall, _, _ in main["traced"]]
    metrics["cli.import_s"] = main["import_s"]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
    metrics.update((f"quality.{key}", value) for key, value in quality.items())
    # a layer or quality figure the workload does not produce reads 0
    return {name: metrics.get(name, 0) for name, _, _ in per_layer_metrics()}


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _caches() -> dict:
    try:
        done = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {}
    caches = {}
    for line in done.stdout.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    return caches


def _metadata(name: str, seed: int, seconds: float, trace: bool, threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_commit": _git_commit(), "nproc": threads,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads, "blas_threads_1t_pass": 1 if trace else None,
        "caches": _caches(), "client": "closed loop, 1 caller",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nyscode" / "cli.py").is_file():
        print(f"error: no nyscode sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.environ.update(_blas_env(_blas_threads()))
    sys.path.insert(0, str(SRC))
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
