"""Experiment orchestration: sweeps over codebook size, saturation fits, bound
evaluation, pooled-dictionary comparisons, and machine-readable reports.

Every run is fully determined by its config (all randomness flows through
explicit seeds), and every report echoes the config it ran under. CSV output
carries the plot-ready table only; JSON carries the whole report.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
import typing
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import bounds, classifier
from .coding import DEFAULT_ALPHA, CodeMatrix, Dictionary, encode, full_code
from .data import (
    DataMatrix,
    LabeledDataset,
    PatchGrid,
    extract_patches_stack,
    load_csv,
    normalize_columns,
    synth_labeled_manifold,
    synth_manifold,
)
from .dictionary import kmeans, sample_indices
from .nystrom import approximation_errors, decompose
from .pooling import pool, pdl
from .spectra import spectral_report


def _from_dict(cls, d: dict):
    """Build a config dataclass from a flat dict; unknown or missing keys are errors."""
    if not isinstance(d, dict):
        raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - names)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    required = {
        f.name
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    missing = sorted(required - set(d))
    if missing:
        raise ValueError(f"missing config keys: {', '.join(missing)}")
    hints = typing.get_type_hints(cls)
    for key, value in d.items():
        if not _fits(value, hints[key]):
            expected = hints[key].__name__ if isinstance(hints[key], type) else str(hints[key])
            raise ValueError(f"config key {key!r} must be {expected}, got {value!r}")
    return cls(**d)


def _fits(value, hint) -> bool:
    """Whether a JSON value matches a config field annotation; ints pass as floats."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, a) for a in args)
    if origin is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if origin is tuple:
        return (
            isinstance(value, (list, tuple))
            and len(value) == len(args)
            and all(map(_fits, value, args))
        )
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


@dataclass
class CurveConfig:
    """Parameters of an accuracy-versus-codebook-size sweep."""

    c_grid: list[int]
    seeds: list[int]
    dataset: str = "synth"  # "synth" or "csv"
    path: str | None = None  # dataset file when dataset="csv"
    d: int = 32
    k: int = 4
    n_samples: int = 800
    classes: int = 4
    noise: float = 0.15
    class_sep: float = 1.6
    within: float = 0.9
    modes_per_class: int = 4
    data_seed: int = 0
    alpha: float = DEFAULT_ALPHA
    lam: float | None = None  # ridge coefficient; default 1e-3 * n_train
    energy: float = 0.95
    dict_source: str = "sampled"  # "sampled" or "kmeans"
    kmeans_iters: int = 50
    normalize: str = "unit_l2"
    split_fraction: float = 0.8
    split_seed: int = 0
    nystrom_limit: int = 2000

    @classmethod
    def from_dict(cls, d: dict) -> "CurveConfig":
        return _from_dict(cls, d)


@dataclass
class PdlConfig:
    """Parameters of an overshoot-and-prune dictionary comparison."""

    final_c_grid: list[int]
    overshoots: list[int]
    seeds: list[int]
    images_per_class: int = 150
    classes: int = 2
    image_size: int = 8
    patch: int = 4
    stride: int = 4
    prototypes_per_class: int = 12
    noise: float = 0.8
    data_seed: int = 0
    alpha: float = DEFAULT_ALPHA
    lam: float | None = None
    regions: tuple[int, int] = (2, 2)
    pool_op: str = "average"
    kmeans_iters: int = 30
    normalize: str = "unit_l2"
    split_fraction: float = 0.8
    split_seed: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "PdlConfig":
        cfg = _from_dict(cls, d)
        cfg.regions = tuple(cfg.regions)
        return cfg


@dataclass
class NystromEvalConfig:
    """Parameters of an empirical bound-coverage evaluation."""

    c_grid: list[int]
    seeds: list[int]
    k_list: list[int] = field(default_factory=lambda: [2, 4])
    d: int = 32
    n_samples: int = 256
    noise: float = 0.05
    data_seed: int = 0
    alpha: float = DEFAULT_ALPHA
    energy: float = 0.95
    normalize: str = "unit_l2"

    @classmethod
    def from_dict(cls, d: dict) -> "NystromEvalConfig":
        return _from_dict(cls, d)


@dataclass
class CurvePoint:
    """Per-codebook-size observations (means and stds over seeds)."""

    c: int
    seeds_used: int
    train_acc: float
    train_acc_std: float
    test_acc: float
    test_acc_std: float
    code_err: float | None = None
    code_err_std: float | None = None
    kernel_err: float | None = None
    kernel_err_std: float | None = None
    bound_eq1: float | None = None
    pred_train: float | None = None
    pred_test: float | None = None
    pred_kernel_err: float | None = None
    is_fit_point: bool = False


@dataclass
class PdlRow:
    final_c: int
    overshoot: int
    seeds_used: int
    train_acc: float
    train_acc_std: float
    test_acc: float
    test_acc_std: float
    delta_vs_baseline: float


@dataclass
class NystromCell:
    k: int
    c: int
    seed: int
    code_err: float
    kernel_err: float
    bound_eq1: float
    within_bound: bool


@dataclass
class ExperimentReport:
    kind: str  # "curve", "pdl", or "nystrom_eval"
    config: dict
    curve: list[CurvePoint] = field(default_factory=list)
    models: dict = field(default_factory=dict)  # name -> SaturationModel
    pdl_rows: list[PdlRow] = field(default_factory=list)
    cells: list[NystromCell] = field(default_factory=list)
    coverage: float | None = None
    spectral: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    created_at: str = ""

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["models"] = {name: m.to_dict() for name, m in self.models.items()}
        return d


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _split(N: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"split_fraction must be in (0, 1), got {fraction}")
    perm = np.random.default_rng(seed).permutation(N)
    n_train = min(max(int(round(fraction * N)), 1), N - 1)
    return perm[:n_train], perm[n_train:]


def _curve_dataset(cfg: CurveConfig) -> LabeledDataset:
    if cfg.dataset == "synth":
        ds = synth_labeled_manifold(
            cfg.d,
            cfg.k,
            cfg.n_samples,
            cfg.classes,
            cfg.noise,
            cfg.data_seed,
            class_sep=cfg.class_sep,
            within=cfg.within,
            modes_per_class=cfg.modes_per_class,
        )
    elif cfg.dataset == "csv":
        if cfg.path is None:
            raise ValueError("dataset='csv' requires a path")
        ds = load_csv(cfg.path, has_labels=True)
    else:
        raise ValueError(f"dataset must be 'synth' or 'csv', got {cfg.dataset!r}")
    normalized = normalize_columns(ds.data, cfg.normalize)
    return LabeledDataset(normalized, ds.labels, ds.n_classes, meta=ds.meta)


def _code_and_spectrum(X: DataMatrix, alpha: float, energy: float):
    """The full code matrix of X and its spectral report; an all-zero C is a config error."""
    C = full_code(X, alpha)
    if not C.values.any():
        # by Cauchy-Schwarz the largest entry of X^T X is the largest squared column norm
        top = float(np.max(np.sum(X.values**2, axis=0)))
        raise ValueError(
            f"code matrix is all zero: alpha={alpha} is not below the largest "
            f"pairwise similarity {top:.6g}"
        )
    return C, spectral_report(C, energy=energy)


def run_curve(cfg: CurveConfig) -> ExperimentReport:
    """Sweep codebook sizes: encode, classify, measure reconstruction errors,
    fit saturation models on the two smallest sizes, and predict the rest."""
    dataset = _curve_dataset(cfg)
    grid = sorted(set(int(c) for c in cfg.c_grid))
    if len(grid) < 3:
        raise ValueError(f"c grid needs at least 3 distinct values, got {grid}")
    if not cfg.seeds:
        raise ValueError("seeds must be non-empty")
    if cfg.dict_source not in ("sampled", "kmeans"):
        raise ValueError(f"dict_source must be 'sampled' or 'kmeans', got {cfg.dict_source!r}")

    train_idx, test_idx = _split(dataset.data.N, cfg.split_fraction, cfg.split_seed)
    X = dataset.data.values
    Xtr = DataMatrix(X[:, train_idx])
    Xte = DataMatrix(X[:, test_idx])
    ytr = dataset.labels[train_idx]
    yte = dataset.labels[test_idx]
    n_train = Xtr.N
    lam = cfg.lam if cfg.lam is not None else 1e-3 * n_train

    warnings = []
    kept = []
    for c in grid:
        if c > n_train:
            warnings.append(f"skipped c={c}: exceeds training set size {n_train}")
        else:
            kept.append(c)
    if len(kept) < 2:
        raise ValueError("fewer than 2 usable codebook sizes after skipping oversized ones")

    diagnostics = n_train <= cfg.nystrom_limit
    C_full = None
    spec_rep = None
    if diagnostics:
        C_full, spec_rep = _code_and_spectrum(Xtr, cfg.alpha, cfg.energy)

    points: list[CurvePoint] = []
    for c in kept:
        tr_accs, te_accs, code_errs, kernel_errs = [], [], [], []
        for seed in cfg.seeds:
            if cfg.dict_source == "sampled":
                idx = sample_indices(n_train, c, seed)
                D = Dictionary(Xtr.values[:, idx], source="sampled", indices=idx)
            else:
                idx = None
                D = kmeans(Xtr, c, cfg.kmeans_iters, seed, normalize_atoms=True).dictionary
            ctr = encode(Xtr, D, cfg.alpha)
            cte = encode(Xte, D, cfg.alpha)
            model = classifier.train_ridge(ctr, ytr, dataset.n_classes, lam)
            tr_accs.append(classifier.accuracy(classifier.predict(model, ctr), ytr))
            te_accs.append(classifier.accuracy(classifier.predict(model, cte), yte))
            if diagnostics and idx is not None:
                errs = approximation_errors(C_full, decompose(C_full, idx))
                code_errs.append(errs.code_err)
                kernel_errs.append(errs.kernel_err)
        point = CurvePoint(
            c=c,
            seeds_used=len(cfg.seeds),
            train_acc=float(np.mean(tr_accs)),
            train_acc_std=float(np.std(tr_accs)),
            test_acc=float(np.mean(te_accs)),
            test_acc_std=float(np.std(te_accs)),
        )
        if code_errs:
            point.code_err = float(np.mean(code_errs))
            point.code_err_std = float(np.std(code_errs))
            point.kernel_err = float(np.mean(kernel_errs))
            point.kernel_err_std = float(np.std(kernel_errs))
        if spec_rep is not None:
            point.bound_eq1 = bounds.eval_eq1_bound(spec_rep, c)
        points.append(point)

    fit_cs = kept[:2]
    models: dict[str, bounds.SaturationModel] = {}
    p1, p2 = points[0], points[1]
    models["train_acc"] = bounds.fit_two_point(
        (p1.c, p1.train_acc), (p2.c, p2.train_acc), bounds.ACCURACY_FORM
    )
    models["test_acc"] = bounds.fit_two_point(
        (p1.c, p1.test_acc), (p2.c, p2.test_acc), bounds.ACCURACY_FORM
    )
    if p1.kernel_err is not None and p2.kernel_err is not None:
        models["kernel_err"] = bounds.fit_two_point(
            (p1.c, p1.kernel_err), (p2.c, p2.kernel_err), bounds.ERROR_FORM
        )
    for point in points:
        point.is_fit_point = point.c in fit_cs
        point.pred_train = bounds.predict(models["train_acc"], point.c)
        point.pred_test = bounds.predict(models["test_acc"], point.c)
        if "kernel_err" in models:
            point.pred_kernel_err = bounds.predict(models["kernel_err"], point.c)

    echo = dataclasses.asdict(cfg)
    echo["lam_effective"] = lam
    spectral = {}
    if spec_rep is not None:
        spectral = {
            "k": spec_rep.k,
            "rank_k_residual": spec_rep.rank_k_residual,
            "scaled_diag_max": spec_rep.scaled_diag_max,
        }
    return ExperimentReport(
        kind="curve",
        config=echo,
        curve=points,
        models=models,
        spectral=spectral,
        warnings=warnings,
        created_at=_now(),
    )


def synth_texture_images(
    images_per_class: int,
    classes: int,
    size: int,
    cell: int,
    prototypes_per_class: int,
    noise: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Tile images from class-specific prototype patches plus pixel noise.

    Every class owns ``prototypes_per_class`` random cell x cell patterns;
    an image tiles each cell slot with a randomly chosen prototype of its
    class. Returns (images, labels) with images shaped (n, size, size).
    """
    if size % cell != 0:
        raise ValueError(f"image size {size} must be a multiple of cell size {cell}")
    if classes < 2 or images_per_class < 1 or prototypes_per_class < 1:
        raise ValueError("need classes >= 2, images_per_class >= 1, prototypes_per_class >= 1")
    rng = np.random.default_rng(seed)
    protos = rng.standard_normal((classes, prototypes_per_class, cell, cell))
    slots = size // cell
    n = classes * images_per_class
    labels = np.arange(n) % classes
    images = np.empty((n, size, size))
    for i in range(n):
        pick = rng.integers(prototypes_per_class, size=(slots, slots))
        for r in range(slots):
            for c in range(slots):
                images[i, r * cell : (r + 1) * cell, c * cell : (c + 1) * cell] = protos[
                    labels[i], pick[r, c]
                ]
    images += noise * rng.standard_normal(images.shape)
    return images, labels


def _normalized_grid(grid: PatchGrid, mode: str) -> PatchGrid:
    return PatchGrid(
        normalize_columns(grid.patches, mode), grid.grid_rows, grid.grid_cols, grid.images
    )


def _pooled_features(
    patches: PatchGrid, D: Dictionary, alpha: float, regions: tuple[int, int], op: str
) -> CodeMatrix:
    codes = encode(patches.patches, D, alpha)
    pooled = pool(codes, (patches.grid_rows, patches.grid_cols), regions, op)
    return CodeMatrix(pooled.values, alpha)


def run_pdl_compare(cfg: PdlConfig) -> ExperimentReport:
    """Compare pruned overshoot dictionaries against the overshoot=1 baseline."""
    final_cs = sorted(set(int(c) for c in cfg.final_c_grid))
    overshoots = sorted(set(int(o) for o in cfg.overshoots))
    if not final_cs or not overshoots or not cfg.seeds:
        raise ValueError("final_c_grid, overshoots, and seeds must be non-empty")
    if overshoots[0] != 1:
        raise ValueError("overshoots must include 1 (the baseline)")

    images, labels = synth_texture_images(
        cfg.images_per_class,
        cfg.classes,
        cfg.image_size,
        cfg.patch,
        cfg.prototypes_per_class,
        cfg.noise,
        cfg.data_seed,
    )
    train_idx, test_idx = _split(len(images), cfg.split_fraction, cfg.split_seed)
    grid_tr = _normalized_grid(
        extract_patches_stack(images[train_idx], cfg.patch, cfg.stride), cfg.normalize
    )
    grid_te = _normalized_grid(
        extract_patches_stack(images[test_idx], cfg.patch, cfg.stride), cfg.normalize
    )
    ytr = labels[train_idx]
    yte = labels[test_idx]
    lam = cfg.lam if cfg.lam is not None else 1e-3 * len(train_idx)

    rows: list[PdlRow] = []
    for final_c in final_cs:
        by_overshoot: dict[int, tuple[float, float, float, float]] = {}
        for overshoot in overshoots:
            tr_accs, te_accs = [], []
            for seed in cfg.seeds:
                D = pdl(
                    grid_tr,
                    final_c,
                    overshoot,
                    cfg.alpha,
                    regions=cfg.regions,
                    pool_op=cfg.pool_op,
                    kmeans_iters=cfg.kmeans_iters,
                    seed=seed,
                )
                ftr = _pooled_features(grid_tr, D, cfg.alpha, cfg.regions, cfg.pool_op)
                fte = _pooled_features(grid_te, D, cfg.alpha, cfg.regions, cfg.pool_op)
                model = classifier.train_ridge(ftr, ytr, cfg.classes, lam)
                tr_accs.append(classifier.accuracy(classifier.predict(model, ftr), ytr))
                te_accs.append(classifier.accuracy(classifier.predict(model, fte), yte))
            by_overshoot[overshoot] = (
                float(np.mean(tr_accs)),
                float(np.std(tr_accs)),
                float(np.mean(te_accs)),
                float(np.std(te_accs)),
            )
        base = by_overshoot[1][2]
        for overshoot in overshoots:
            tr_m, tr_s, te_m, te_s = by_overshoot[overshoot]
            rows.append(
                PdlRow(
                    final_c=final_c,
                    overshoot=overshoot,
                    seeds_used=len(cfg.seeds),
                    train_acc=tr_m,
                    train_acc_std=tr_s,
                    test_acc=te_m,
                    test_acc_std=te_s,
                    delta_vs_baseline=te_m - base,
                )
            )

    echo = dataclasses.asdict(cfg)
    echo["regions"] = list(cfg.regions)
    echo["lam_effective"] = lam
    return ExperimentReport(kind="pdl", config=echo, pdl_rows=rows, created_at=_now())


def run_nystrom_eval(cfg: NystromEvalConfig) -> ExperimentReport:
    """Measure how often the evaluated bound covers the observed code error."""
    if not cfg.c_grid or not cfg.seeds or not cfg.k_list:
        raise ValueError("c_grid, seeds, and k_list must be non-empty")
    cells: list[NystromCell] = []
    spectral = {}
    for k in sorted(set(cfg.k_list)):
        X = synth_manifold(cfg.d, k, cfg.n_samples, cfg.noise, cfg.data_seed)
        Xn = normalize_columns(X, cfg.normalize)
        C, rep = _code_and_spectrum(Xn, cfg.alpha, cfg.energy)
        spectral[str(k)] = {
            "k_effective": rep.k,
            "rank_k_residual": rep.rank_k_residual,
            "scaled_diag_max": rep.scaled_diag_max,
        }
        for c in sorted(set(cfg.c_grid)):
            bound = bounds.eval_eq1_bound(rep, c)
            for seed in cfg.seeds:
                idx = sample_indices(cfg.n_samples, c, seed)
                errs = approximation_errors(C, decompose(C, idx))
                cells.append(
                    NystromCell(
                        k=k,
                        c=c,
                        seed=seed,
                        code_err=errs.code_err,
                        kernel_err=errs.kernel_err,
                        bound_eq1=bound,
                        within_bound=errs.code_err <= bound,
                    )
                )
    coverage = float(np.mean([cell.within_bound for cell in cells]))
    return ExperimentReport(
        kind="nystrom_eval",
        config=dataclasses.asdict(cfg),
        cells=cells,
        coverage=coverage,
        spectral=spectral,
        created_at=_now(),
    )


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# report kind -> (row list attribute, CSV columns); each column is a row field
_CSV_TABLES = {
    "curve": (
        "curve",
        ("c", "train_acc", "test_acc", "pred_train", "pred_test", "code_err", "kernel_err",
         "bound_eq1"),
    ),
    "pdl": ("pdl_rows", ("final_c", "overshoot", "train_acc", "test_acc", "delta_vs_baseline")),
    "nystrom_eval": (
        "cells",
        ("k", "c", "seed", "code_err", "kernel_err", "bound_eq1", "within_bound"),
    ),
}
CURVE_CSV_HEADER, PDL_CSV_HEADER, NYSTROM_CSV_HEADER = (
    ",".join(columns) for _, columns in _CSV_TABLES.values()
)


def report_csv(report: ExperimentReport) -> str:
    """Render the plot-ready table of a report (one row per grid cell)."""
    if report.kind not in _CSV_TABLES:
        raise ValueError(f"unknown report kind {report.kind!r}")
    attr, columns = _CSV_TABLES[report.kind]
    lines = [",".join(columns)]
    for row in getattr(report, attr):
        lines.append(",".join(_fmt(getattr(row, name)) for name in columns))
    return "\n".join(lines) + "\n"


def emit(report: ExperimentReport, path, fmt: str = "json") -> None:
    """Write a report as a full JSON document or a plot-ready CSV table.

    ``path=None`` writes to standard output.
    """
    if fmt == "json":
        text = json.dumps(report.to_dict(), indent=2) + "\n"
    elif fmt == "csv":
        text = report_csv(report)
    else:
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    write_text(text, path)


def write_text(text: str, path) -> None:
    """Write ``text`` to the file at ``path``, or to standard output when it is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)
