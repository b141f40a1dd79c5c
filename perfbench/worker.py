"""One fresh benchmark process: import the CLI, warm up, then time ``main()``.

Run as ``python3 perfbench/worker.py <job.json>``; ``run.py`` writes the job
and sets the BLAS thread count in the environment before the start. The
worker prints one JSON line with its measurements on standard output.

Modes:

- ``setup``: import ``nyscode.cli`` and finish the tiny warm-up run, then exit.
- ``measure``: after set-up, call ``main()`` untraced in a closed loop.
- ``trace``: after set-up, untraced calls, then the same calls with every
  public function that ``nyscode.cli``, ``nyscode.harness``,
  ``nyscode.pooling``, ``nyscode.classifier`` and ``nyscode.bounds`` call
  rebound to a span-recording wrapper inside those module namespaces. The
  library itself is not modified.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path


def _encode_macs(a, result):
    return {"macs": a["X"].d * a["X"].N * a["D"].c}


def _full_code_macs(a, result):
    return {"macs": a["X"].d * a["X"].N ** 2}


def _ridge_macs(a, result):
    C = a["C"]
    return {"macs": C.N * (C.c + 1) * (C.c + 1 + a["n_classes"])}


def _kmeans_counts(a, result):
    return {"iters": result.iterations, "dist_evals": result.iterations * a["X"].N * a["c"]}


def _spectral_n(a, result):
    return {"n": result.singular_values.shape[0]}


def _emit_bytes(a, result):
    return {"bytes": Path(a["path"]).stat().st_size}


# (span name, [(module, attribute) bindings], counts from the bound arguments and result).
# The bindings are every place the calling modules look the function up; the
# counts are computed from array shapes, not measured.
TRACED = [
    ("data.synth_labeled_manifold", [("harness", "synth_labeled_manifold")], None),
    ("data.synth_manifold", [("harness", "synth_manifold")], None),
    ("data.normalize_columns", [("harness", "normalize_columns")], None),
    ("data.extract_patches_stack", [("harness", "extract_patches_stack")], None),
    ("coding.full_code", [("harness", "full_code")], _full_code_macs),
    ("coding.encode", [("harness", "encode"), ("pooling", "encode")], _encode_macs),
    ("dictionary.sample_indices", [("harness", "sample_indices")], None),
    ("dictionary.kmeans", [("harness", "kmeans"), ("pooling", "kmeans")], _kmeans_counts),
    ("dictionary.kcenters", [("pooling", "kcenters")], None),
    ("nystrom.decompose", [("harness", "decompose")], None),
    ("nystrom.approximation_errors", [("harness", "approximation_errors")], None),
    ("spectra.spectral_report", [("harness", "spectral_report")], _spectral_n),
    ("pooling.pool", [("harness", "pool"), ("pooling", "pool")], None),
    ("pooling.pdl", [("harness", "pdl")], None),
    ("classifier.train_ridge", [("classifier", "train_ridge")], _ridge_macs),
    ("classifier.predict", [("classifier", "predict")], None),
    ("classifier.accuracy", [("classifier", "accuracy")], None),
    ("bounds.eval_eq1_bound", [("bounds", "eval_eq1_bound")], None),
    ("bounds.fit_two_point", [("bounds", "fit_two_point")], None),
    ("bounds.predict", [("bounds", "predict")], None),
    ("harness.synth_texture_images", [("harness", "synth_texture_images")], None),
    ("harness.run_curve", [("cli", "run_curve")], None),
    ("harness.run_pdl_compare", [("cli", "run_pdl_compare")], None),
    ("harness.run_nystrom_eval", [("cli", "run_nystrom_eval")], None),
    ("harness.emit", [("cli", "emit")], _emit_bytes),
]
ROOT_SPAN = "cli.main"
SPAN_NAMES = [name for name, *_ in TRACED] + [ROOT_SPAN]
# peak traced allocation is measured (with tracemalloc) only inside this span
ALLOC_SPAN = "nystrom.approximation_errors"


class Tracer:
    """Spans (name, start, end, parent, call id) and counts, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[dict] = []
        self._stack: list[int] = []
        self.call_id = 0

    def span(self, name: str, fn, args=(), kwargs=None, counts=None):
        """Run ``fn`` inside a span; ``counts(args, kwargs, result)`` returns its counts."""
        kwargs = kwargs or {}
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.call_id])
        self.counts.append({})
        self._stack.append(index)
        alloc = name == ALLOC_SPAN
        if alloc:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if alloc:
                self.counts[index]["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            self.spans[index][1:3] = start, end
            self._stack.pop()
        if counts is not None:
            self.counts[index].update(counts(args, kwargs, result))
        return result

    def wrap(self, name: str, fn, counts):
        bind = inspect.signature(fn).bind
        by_name = None
        if counts is not None:
            def by_name(args, kwargs, result):
                return counts(bind(*args, **kwargs).arguments, result)

        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, by_name)

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> list[str]:
        """Rebind every traced function in the calling modules; return missing bindings."""
        missing = []
        for name, bindings, counts in TRACED:
            wrapped = None
            for module, attr in bindings:
                original = getattr(modules[module], attr, None)
                if original is None:
                    missing.append(f"{module}.{attr}")
                    continue
                if wrapped is None:
                    wrapped = self.wrap(name, original, counts)
                setattr(modules[module], attr, wrapped)
        return missing

    def layer_stats(self, call_id: int) -> dict:
        """Per-span-name calls, self time and summed counts of one ``main()`` call.

        A span's self time is its duration minus the time its child spans
        cover. The calls are single-threaded, so children never overlap.
        """
        stats = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == call_id]
        child_time: dict[int, float] = {}
        for _, (_, start, end, parent, _) in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for i, (name, start, end, _, _) in spans:
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time.get(i, 0.0)
            for key, value in self.counts[i].items():
                if key == "peak_alloc_mb":
                    entry[key] = max(entry.get(key, 0.0), value)
                else:
                    entry[key] = entry.get(key, 0) + value
        return stats


def _call(main, argv: list[str], out: Path) -> tuple[float, int, str]:
    start = time.perf_counter()
    rc = main(argv)
    wall = time.perf_counter() - start
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else ""
    return wall, rc, digest


def _loop(call, seconds: float, min_calls: int) -> list:
    """Closed loop with one caller: start a call while the budget has room for it."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(call())
        elapsed = time.perf_counter() - start
        if len(results) >= min_calls and elapsed + elapsed / len(results) > seconds:
            return results


def main_worker(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    t0 = time.perf_counter()
    import nyscode.cli as cli

    import_s = time.perf_counter() - t0
    tiny_rc = cli.main(job["tiny_argv"])
    report = {
        "import_s": import_s,
        "warmup_s": time.perf_counter() - t0 - import_s,
        "ready_at": time.monotonic(),
        "tiny_rc": tiny_rc,
    }
    if job["mode"] == "setup":
        return report

    out = Path(job["out"])
    argv = job["argv"]
    report["untraced"] = _loop(lambda: _call(cli.main, argv, out), job["untraced_seconds"],
                               job["min_calls"])
    if job["mode"] == "trace":
        import nyscode.bounds
        import nyscode.classifier
        import nyscode.harness
        import nyscode.pooling

        tracer = Tracer()
        report["missing_bindings"] = tracer.install({
            "cli": cli, "harness": nyscode.harness, "pooling": nyscode.pooling,
            "classifier": nyscode.classifier, "bounds": nyscode.bounds,
        })

        def traced_main(args):
            return tracer.span(ROOT_SPAN, cli.main, (args,))

        def traced_call():
            tracer.call_id += 1
            return _call(traced_main, argv, out)

        report["traced"] = _loop(traced_call, job["traced_seconds"], 1)
        per_call = [tracer.layer_stats(i + 1) for i in range(len(report["traced"]))]
        report["layers"] = _median_stats(per_call)
        Path(job["spans_path"]).write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent", "call_id"], "spans": tracer.spans,
             "counts": tracer.counts}))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return report


def _median_stats(per_call: list[dict]) -> dict:
    """Median self time over calls; calls and counts are taken from the first call."""
    merged = {}
    for name, first in per_call[0].items():
        entry = dict(first)
        entry["self_s"] = statistics.median(stats[name]["self_s"] for stats in per_call)
        merged[name] = entry
    return merged


if __name__ == "__main__":
    print(json.dumps(main_worker(json.loads(Path(sys.argv[1]).read_text()))))
