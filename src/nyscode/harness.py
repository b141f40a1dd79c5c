"""Experiment orchestration: sweeps over codebook size, saturation fits, bound
evaluation, pooled-dictionary comparisons, and machine-readable reports.

Every run is fully determined by its config (all randomness flows through
explicit seeds), and every report echoes the config it ran under. CSV output
carries the plot-ready table only; JSON carries the whole report.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import types
import typing
from dataclasses import MISSING, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import bounds, classifier
from .coding import DEFAULT_ALPHA, CodeMatrix, Dictionary, encode, full_code
from .data import (
    DataMatrix,
    LabeledDataset,
    PatchGrid,
    _check_noise,
    extract_patches_stack,
    load_csv,
    normalize_columns,
    synth_labeled_manifold,
    synth_manifold,
)
from .dictionary import kmeans, sample_indices
from .nystrom import approximation_errors, decompose
from .pooling import pool, pdl
from .spectra import SpectralReport, check_energy, spectral_report


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field annotation; ints pass as floats, NaN and inf fail."""
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
        return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    return isinstance(value, hint)


class _Config:
    """Base of the config dataclasses: construction from a flat JSON object."""

    @classmethod
    def from_dict(cls, d: dict):
        """Build a config from a flat dict; unknown keys, missing keys and mistyped values
        are errors. A list given for a tuple-typed field becomes a tuple."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
        fields = dataclasses.fields(cls)
        unknown = sorted(set(d) - {f.name for f in fields})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        missing = sorted(
            f.name
            for f in fields
            if f.name not in d and f.default is MISSING and f.default_factory is MISSING
        )
        if missing:
            raise ValueError(f"missing config keys: {', '.join(missing)}")
        hints = typing.get_type_hints(cls)
        for key, value in d.items():
            if not _fits(value, hints[key]):
                expected = hints[key].__name__ if isinstance(hints[key], type) else str(hints[key])
                raise ValueError(f"config key {key!r} must be {expected}, got {value!r}")
        return cls(**{
            key: tuple(value) if typing.get_origin(hints[key]) is tuple else value
            for key, value in d.items()
        })


@dataclass
class CurveConfig(_Config):
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


@dataclass
class PdlConfig(_Config):
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


@dataclass
class NystromEvalConfig(_Config):
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


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


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
    created_at: str = field(default_factory=_now)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["models"] = {name: m.to_dict() for name, m in self.models.items()}
        return d


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
    return LabeledDataset(normalize_columns(ds.data, cfg.normalize), ds.labels, ds.n_classes)


def _check_alpha(X: DataMatrix, alpha: float) -> None:
    """Reject an alpha that zeroes the whole code matrix max(0, X^T X - alpha).

    By Cauchy-Schwarz the largest entry of X^T X is the largest squared
    column norm, so the test needs no N x N matrix.
    """
    top = float(np.max(np.sum(X.values**2, axis=0)))
    if alpha >= top:
        raise ValueError(
            f"code matrix is all zero: alpha={alpha} is not below the largest "
            f"pairwise similarity {top:.6g}"
        )


def _spectral_summary(rep: SpectralReport) -> dict:
    """The report's ``spectral`` entry for one code matrix."""
    return {"k_effective": rep.k, "rank_k_residual": rep.rank_k_residual,
            "scaled_diag_max": rep.scaled_diag_max}


def _fit_score(
    ftr: CodeMatrix, ytr: np.ndarray, fte: CodeMatrix, yte: np.ndarray, n_classes: int, lam: float
) -> tuple[float, float]:
    """Train the ridge classifier on (ftr, ytr); return its (train, test) accuracy."""
    model = classifier.train_ridge(ftr, ytr, n_classes, lam)
    return (
        classifier.accuracy(classifier.predict(model, ftr), ytr),
        classifier.accuracy(classifier.predict(model, fte), yte),
    )


_SCORES = ("train_acc", "test_acc")  # the fields of a _fit_score tuple


def _mean_std(names: tuple[str, ...], samples: list[tuple]) -> dict[str, float]:
    """``name`` and ``name_std``: mean and std over per-seed tuples of each named field."""
    stats = {}
    for name, values in zip(names, zip(*samples)):
        stats[name] = float(np.mean(values))
        stats[f"{name}_std"] = float(np.std(values))
    return stats


# (observed field, predicted field, saturation form) of each curve fit, in fitting order
_FITS = (
    ("train_acc", "pred_train", bounds.ACCURACY_FORM),
    ("test_acc", "pred_test", bounds.ACCURACY_FORM),
    ("kernel_err", "pred_kernel_err", bounds.ERROR_FORM),
)


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
    check_energy(cfg.energy)

    train_idx, test_idx = _split(dataset.data.N, cfg.split_fraction, cfg.split_seed)
    X = dataset.data.values
    Xtr = DataMatrix(X[:, train_idx])
    Xte = DataMatrix(X[:, test_idx])
    ytr = dataset.labels[train_idx]
    yte = dataset.labels[test_idx]
    n_train = Xtr.N
    lam = cfg.lam if cfg.lam is not None else 1e-3 * n_train
    _check_alpha(Xtr, cfg.alpha)

    kept = [c for c in grid if c <= n_train]
    warnings = [f"skipped c={c}: exceeds training set size {n_train}" for c in grid if c > n_train]
    if len(kept) < 2:
        raise ValueError("fewer than 2 usable codebook sizes after skipping oversized ones")

    diagnostics = n_train <= cfg.nystrom_limit
    C_full = spec_rep = None
    if diagnostics:
        C_full = full_code(Xtr, cfg.alpha)
        spec_rep = spectral_report(C_full, energy=cfg.energy)

    points: list[CurvePoint] = []
    for c in kept:
        scores, errs = [], []
        for seed in cfg.seeds:
            if cfg.dict_source == "sampled":
                idx = sample_indices(n_train, c, seed)
                D = Dictionary(Xtr.values[:, idx])
            else:
                idx = None
                D = kmeans(Xtr, c, cfg.kmeans_iters, seed).dictionary
            ctr = encode(Xtr, D, cfg.alpha)
            cte = encode(Xte, D, cfg.alpha)
            scores.append(_fit_score(ctr, ytr, cte, yte, dataset.n_classes, lam))
            if diagnostics and idx is not None:
                e = approximation_errors(C_full, decompose(C_full, idx), spec_rep.singular_values)
                errs.append((e.code_err, e.kernel_err))
        points.append(
            CurvePoint(
                c=c,
                seeds_used=len(cfg.seeds),
                **_mean_std(_SCORES, scores),
                **_mean_std(("code_err", "kernel_err"), errs),
                bound_eq1=None if spec_rep is None else bounds.eval_eq1_bound(spec_rep, c),
            )
        )

    # each saturation model is fitted on the two smallest sizes and predicts every size
    models: dict[str, bounds.SaturationModel] = {}
    p1, p2 = points[:2]
    for observed, _, form in _FITS:
        y1, y2 = getattr(p1, observed), getattr(p2, observed)
        if y1 is not None and y2 is not None:
            models[observed] = bounds.fit_two_point((p1.c, y1), (p2.c, y2), form)
    for point in points:
        point.is_fit_point = point.c in kept[:2]
        for observed, predicted, _ in _FITS:
            if observed in models:
                setattr(point, predicted, bounds.predict(models[observed], point.c))

    return ExperimentReport(
        kind="curve",
        config={**dataclasses.asdict(cfg), "lam_effective": lam},
        curve=points,
        models=models,
        spectral={} if spec_rep is None else _spectral_summary(spec_rep),
        warnings=warnings,
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
    _check_noise(noise)
    rng = np.random.default_rng(seed)
    protos = rng.standard_normal((classes, prototypes_per_class, cell, cell))
    slots = size // cell
    n = classes * images_per_class
    labels = np.arange(n) % classes
    # one draw for every image: the same stream as one (slots, slots) draw per image
    picks = rng.integers(prototypes_per_class, size=(n, slots, slots))
    tiles = protos[labels[:, None, None], picks]  # (n, slots, slots, cell, cell)
    images = tiles.transpose(0, 1, 3, 2, 4).reshape(n, size, size)
    images += noise * rng.standard_normal(images.shape)
    return images, labels


def _normalized_patches(images: np.ndarray, cfg: PdlConfig) -> PatchGrid:
    """The patch grid of an image stack, its patches normalized."""
    grid = extract_patches_stack(images, cfg.patch, cfg.stride)
    return dataclasses.replace(grid, patches=normalize_columns(grid.patches, cfg.normalize))


def _pooled_features(
    patches: PatchGrid, D: Dictionary, alpha: float, regions: tuple[int, int], op: str
) -> CodeMatrix:
    codes = encode(patches.patches, D, alpha)
    return pool(codes, (patches.grid_rows, patches.grid_cols), regions, op)


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
    grid_tr = _normalized_patches(images[train_idx], cfg)
    grid_te = _normalized_patches(images[test_idx], cfg)
    ytr = labels[train_idx]
    yte = labels[test_idx]
    lam = cfg.lam if cfg.lam is not None else 1e-3 * len(train_idx)

    rows: list[PdlRow] = []
    for final_c in final_cs:
        for overshoot in overshoots:  # sorted and starting at 1: the baseline comes first
            scores = []
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
                scores.append(_fit_score(ftr, ytr, fte, yte, cfg.classes, lam))
            stats = _mean_std(_SCORES, scores)
            if overshoot == 1:
                base = stats["test_acc"]
            rows.append(
                PdlRow(
                    final_c=final_c,
                    overshoot=overshoot,
                    seeds_used=len(cfg.seeds),
                    **stats,
                    delta_vs_baseline=stats["test_acc"] - base,
                )
            )

    config = {**dataclasses.asdict(cfg), "regions": list(cfg.regions), "lam_effective": lam}
    return ExperimentReport(kind="pdl", config=config, pdl_rows=rows)


def run_nystrom_eval(cfg: NystromEvalConfig) -> ExperimentReport:
    """Measure how often the evaluated bound covers the observed code error."""
    if not cfg.c_grid or not cfg.seeds or not cfg.k_list:
        raise ValueError("c_grid, seeds, and k_list must be non-empty")
    for c in cfg.c_grid:
        if not 1 <= c <= cfg.n_samples:
            raise ValueError(f"need 1 <= c <= N, got c={c}, N={cfg.n_samples}")
    cells: list[NystromCell] = []
    spectral = {}
    for k in sorted(set(cfg.k_list)):
        X = synth_manifold(cfg.d, k, cfg.n_samples, cfg.noise, cfg.data_seed)
        Xn = normalize_columns(X, cfg.normalize)
        _check_alpha(Xn, cfg.alpha)
        C = full_code(Xn, cfg.alpha)
        rep = spectral_report(C, energy=cfg.energy)
        spectral[str(k)] = _spectral_summary(rep)
        for c in sorted(set(cfg.c_grid)):
            bound = bounds.eval_eq1_bound(rep, c)
            for seed in cfg.seeds:
                idx = sample_indices(cfg.n_samples, c, seed)
                errs = approximation_errors(C, decompose(C, idx), rep.singular_values)
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
