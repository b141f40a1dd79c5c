"""Output checks and plain-numpy recomputation for the benchmark.

Every check reads the CSV table the CLI wrote, never the library's objects,
so it judges the program as a user sees it. ``recompute`` rebuilds one cell
of a workload's numbers with plain numpy (``np.linalg.pinv``,
``np.linalg.svd``, ``np.linalg.solve``) from the same inputs, so a rewrite of
``nystrom``, ``spectra`` or ``classifier`` cannot pass while giving wrong
numbers. Inputs are regenerated with the program's ``nyscode.data``
generators: they are inputs, not the layers under test.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# the documented CSV headers, written out rather than imported from the
# library, so that a changed header fails the check
HEADERS = {
    "curve": "c,train_acc,test_acc,pred_train,pred_test,code_err,kernel_err,bound_eq1",
    "nystrom-eval": "k,c,seed,code_err,kernel_err,bound_eq1,within_bound",
    "pdl": "final_c,overshoot,train_acc,test_acc,delta_vs_baseline",
}
ACCURACY_COLUMNS = ("train_acc", "test_acc")
DIAGNOSTIC_COLUMNS = ("code_err", "kernel_err", "bound_eq1")
RECOMPUTE_RTOL = 1e-8


class CheckError(Exception):
    """An output that breaks the documented contract of the CLI."""


def n_train(config: dict) -> int:
    """Training-set size the curve harness derives from its split fraction."""
    n = config["n_samples"]
    return min(max(int(round(config["split_fraction"] * n)), 1), n - 1)


def grid_cells(command: str, config: dict) -> int:
    """Grid cells one run completes: (c, seed) pairs, or (final_c, overshoot, seed)."""
    if command == "curve":
        return len(set(config["c_grid"])) * len(config["seeds"])
    if command == "nystrom-eval":
        return len(set(config["k_list"])) * len(set(config["c_grid"])) * len(config["seeds"])
    return len(set(config["final_c_grid"])) * len(set(config["overshoots"])) * len(config["seeds"])


def parse_table(command: str, config: dict, text: str) -> list[dict]:
    """Parse and check one CSV report; raise CheckError on any contract breach.

    Checks the header, the row count against the grid, that the grid column
    matches the config, that every number is finite, that accuracies lie in
    [0, 1], and the per-kind identities (diagnostic columns present exactly
    when the run computes them, ``within_bound`` agreeing with its numbers,
    ``delta_vs_baseline`` equal to the difference it names).
    """
    lines = text.splitlines()
    if not lines or lines[0] != HEADERS[command]:
        raise CheckError(f"header {lines[:1]} != {HEADERS[command]!r}")
    if not text.endswith("\n"):
        raise CheckError("table does not end with a newline")
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        if None in raw or None in raw.values():
            raise CheckError(f"ragged row {raw}")
        row = {}
        for key, cell in raw.items():
            if cell == "":
                row[key] = None
                continue
            try:
                value = float(cell)
            except ValueError as e:
                raise CheckError(f"{key}={cell!r} is not a number") from e
            if not math.isfinite(value):
                raise CheckError(f"{key}={cell!r} is not finite")
            row[key] = value
        for key in ACCURACY_COLUMNS:
            if key in row and not (row[key] is not None and 0.0 <= row[key] <= 1.0):
                raise CheckError(f"{key}={row[key]} outside [0, 1]")
        rows.append(row)
    _check_grid(command, config, rows)
    return rows


def _check_grid(command: str, config: dict, rows: list[dict]) -> None:
    if command == "curve":
        want = sorted(set(config["c_grid"]))
        got = [row["c"] for row in rows]
        if got != want:
            raise CheckError(f"curve rows at c={got}, expected {want}")
        diagnostics = n_train(config) <= config["nystrom_limit"]
        for row in rows:
            present = [row[k] is not None for k in DIAGNOSTIC_COLUMNS]
            if present != [diagnostics] * len(present):
                raise CheckError(f"diagnostic columns {present} at c={row['c']}, "
                                 f"expected all {'set' if diagnostics else 'empty'}")
            if None in (row["pred_train"], row["pred_test"]):
                raise CheckError(f"missing prediction at c={row['c']}")
    elif command == "nystrom-eval":
        want = [(k, c, s) for k in sorted(set(config["k_list"]))
                for c in sorted(set(config["c_grid"])) for s in config["seeds"]]
        got = [(row["k"], row["c"], row["seed"]) for row in rows]
        if got != want:
            raise CheckError(f"nystrom cells {len(got)} do not match the {len(want)}-cell grid")
        for row in rows:
            if None in row.values():
                raise CheckError(f"empty field in cell {row}")
            if row["within_bound"] != float(row["code_err"] <= row["bound_eq1"]):
                raise CheckError(f"within_bound disagrees with its numbers in {row}")
    else:
        want = [(f, o) for f in sorted(set(config["final_c_grid"]))
                for o in sorted(set(config["overshoots"]))]
        got = [(row["final_c"], row["overshoot"]) for row in rows]
        if got != want:
            raise CheckError(f"pdl rows {got}, expected {want}")
        base = {row["final_c"]: row["test_acc"] for row in rows if row["overshoot"] == 1}
        for row in rows:
            if row["delta_vs_baseline"] != row["test_acc"] - base[row["final_c"]]:
                raise CheckError(f"delta_vs_baseline is not test_acc - baseline in {row}")


def quality(command: str, rows: list[dict], code_norms: dict) -> dict:
    """Result-quality figures of one run, keyed by metric name.

    ``code_norms`` maps a dataset key (0 for curve, k for nystrom-eval) to the
    Frobenius norm of its full code matrix, which ``recompute`` measured.
    """
    if command == "curve":
        last = rows[-1]
        out = {"test_acc": last["test_acc"], "pred_gap": abs(last["pred_test"] - last["test_acc"])}
        if last["code_err"] is not None:
            out["code_rel_err"] = last["code_err"] / code_norms[0]
        return out
    if command == "nystrom-eval":
        top = max(row["c"] for row in rows)
        rel = [row["code_err"] / code_norms[int(row["k"])] for row in rows if row["c"] == top]
        return {
            "bound_coverage": sum(row["within_bound"] for row in rows) / len(rows),
            "code_rel_err": sum(rel) / len(rel),
        }
    last = rows[-1]
    return {"test_acc": last["test_acc"], "pdl_delta": last["delta_vs_baseline"]}


def _close(name: str, got: float, want: float, rtol: float = RECOMPUTE_RTOL) -> None:
    if not abs(got - want) <= rtol * max(abs(want), 1e-300):
        raise CheckError(f"{name}: program gave {want!r}, numpy recompute gives {got!r}")


def _code_matrix(X, alpha):
    gram = X.T @ X
    return np.maximum(0.0, (gram + gram.T) / 2.0 - alpha)


def _sampled(N: int, c: int, seed: int):
    return np.sort(np.random.default_rng(seed).choice(N, size=c, replace=False))


def _nystrom_code_err(C, idx) -> float:
    E = C[:, idx]
    return float(np.linalg.norm(C - E @ np.linalg.pinv(E[idx], rcond=1e-10) @ E.T))


def _curve_split(config: dict):
    from nyscode.data import normalize_columns, synth_labeled_manifold

    ds = synth_labeled_manifold(
        config["d"], config["k"], config["n_samples"], config["classes"], config["noise"],
        config["data_seed"], class_sep=config["class_sep"], within=config["within"],
        modes_per_class=config["modes_per_class"],
    )
    X = normalize_columns(ds.data, config["normalize"]).values
    perm = np.random.default_rng(config["split_seed"]).permutation(config["n_samples"])
    tr, te = perm[: n_train(config)], perm[n_train(config):]
    return X[:, tr], ds.labels[tr], X[:, te], ds.labels[te]


def recompute(command: str, config: dict, rows: list[dict]) -> dict:
    """Check one cell of the report against plain numpy; return the code-matrix norms.

    curve with diagnostics: ``code_err`` at the smallest c (mean over seeds)
    and ``bound_eq1`` at every c, which pins ``rank_k_residual``, the
    effective rank and the diagonal term. curve without diagnostics:
    ``test_acc`` at the smallest c from a plain ridge solve. nystrom-eval:
    ``code_err`` and ``bound_eq1`` of the first seed at every (k, c). pdl
    has no cheap independent recompute; its rows pass the identities in
    ``parse_table`` only.
    """

    if command == "curve":
        Xtr, ytr, Xte, yte = _curve_split(config)
        c0 = min(config["c_grid"])
        if rows[0]["code_err"] is None:
            _close("test_acc", _ridge_test_acc(config, Xtr, ytr, Xte, yte, c0),
                   rows[0]["test_acc"], rtol=1e-12)
            return {}
        C = _code_matrix(Xtr, config["alpha"])
        errs = [_nystrom_code_err(C, _sampled(C.shape[0], c0, s)) for s in config["seeds"]]
        _close(f"code_err at c={c0}", float(np.mean(errs)), rows[0]["code_err"])
        s2 = np.linalg.svd(C, compute_uv=False) ** 2
        for row in rows:
            _close(f"bound_eq1 at c={row['c']:g}",
                   _bound_eq1(s2, C, config["energy"], int(row["c"])), row["bound_eq1"])
        return {0: float(np.linalg.norm(C))}

    if command == "nystrom-eval":
        from nyscode.data import normalize_columns, synth_manifold

        norms = {}
        first = config["seeds"][0]
        for k in sorted(set(config["k_list"])):
            X = synth_manifold(config["d"], k, config["n_samples"], config["noise"],
                               config["data_seed"])
            C = _code_matrix(normalize_columns(X, config["normalize"]).values,
                             config["alpha"])
            norms[k] = float(np.linalg.norm(C))
            s2 = np.linalg.svd(C, compute_uv=False) ** 2
            for row in rows:
                if row["k"] == k and row["seed"] == first:
                    c = int(row["c"])
                    _close(f"code_err at k={k}, c={c}",
                           _nystrom_code_err(C, _sampled(C.shape[0], c, first)),
                           row["code_err"])
                    _close(f"bound_eq1 at k={k}, c={c}",
                           _bound_eq1(s2, C, config["energy"], c), row["bound_eq1"])
        return norms
    return {}


def _bound_eq1(s2, C, energy: float, c: int) -> float:
    k = min(int(np.searchsorted(np.cumsum(s2), energy * s2.sum(), side="left")) + 1, len(s2))
    residual = math.sqrt(float(s2[k:].sum()))
    return residual + (64.0 * k / c) ** 0.25 * C.shape[0] * float(np.max(np.diag(C)))


def _ridge_test_acc(config, Xtr, ytr, Xte, yte, c: int) -> float:
    classes = config["classes"]
    lam = config.get("lam") or 1e-3 * Xtr.shape[1]
    accs = []
    for seed in config["seeds"]:
        D = Xtr[:, _sampled(Xtr.shape[1], c, seed)]
        F = np.column_stack([np.maximum(0.0, Xtr.T @ D - config["alpha"]), np.ones(Xtr.shape[1])])
        reg = lam * np.eye(c + 1)
        reg[c, c] = 0.0
        targets = np.where(ytr[:, None] == np.arange(classes)[None, :], 1.0, -1.0)
        sol = np.linalg.solve(F.T @ F + reg, F.T @ targets)
        scores = np.maximum(0.0, Xte.T @ D - config["alpha"]) @ sol[:-1] + sol[-1]
        accs.append(float(np.mean(np.argmax(scores, axis=1) == yte)))
    return float(np.mean(accs))
