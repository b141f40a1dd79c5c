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
import types
import typing
from dataclasses import MISSING, dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import bounds, classifier
from .coding import DEFAULT_ALPHA, CodeMatrix, Dictionary, check_alpha, encode, full_code
from .data import (
    DataMatrix,
    LabeledDataset,
    NormalizeMode,
    PatchGrid,
    csv_text,
    extract_patches_stack,
    load_csv,
    normalize_columns,
    synth_labeled_manifold,
    synth_manifold,
    synth_texture_images,
    write_text,
)
from .dictionary import kmeans, sample_indices
from .nystrom import approximation_errors, code_kernel, decompose
from .pooling import PoolOp, check_regions, pool, pdl
from .spectra import check_energy, spectral_report


INT_RULE = "ints in [0, 2**63)"  # what value_fits takes for an int: a size, a count or a seed


def value_fits(value, hint) -> bool:
    """Whether a JSON value fits a field annotation; ints pass as floats unless too
    large for one, NaN and inf fail, and an int must lie in [0, 2**63)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(value_fits(value, a) for a in args)
    if origin is typing.Literal:
        return value in args
    if origin is list:
        return isinstance(value, list) and all(value_fits(v, args[0]) for v in value)
    if origin is tuple:
        return (
            isinstance(value, (list, tuple))
            and len(value) == len(args)
            and all(map(value_fits, value, args))
        )
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        if isinstance(value, int):
            try:
                value = float(value)
            except OverflowError:
                return False
        return isinstance(value, float) and math.isfinite(value)
    if hint is int:  # a size, a count or a seed: never negative, and numpy takes none >= 2**63
        return isinstance(value, int) and 0 <= value < 2**63
    return isinstance(value, hint)


def _mentions_int(hint) -> bool:
    """Whether a field annotation is int or holds one (list[int], tuple[int, int], ...)."""
    return hint is int or any(map(_mentions_int, typing.get_args(hint)))


class _Config:
    """Base of the config dataclasses: a type check on every build, and JSON parsing."""

    # keys whose value, when set, or whose every list entry must be above zero: checked on build
    _POSITIVE = ()

    def __post_init__(self):
        """Reject a value that does not fit its field's type, an empty list, a
        repeated seed, a ``_POSITIVE`` key or list entry at or below zero, an
        ``energy`` outside (0, 1] or a ``split_fraction`` outside (0, 1); a list
        becomes a tuple."""
        for key, hint in typing.get_type_hints(type(self)).items():
            value = getattr(self, key)
            if not value_fits(value, hint):
                expected = hint.__name__ if isinstance(hint, type) else str(hint)
                if _mentions_int(hint):
                    expected += f" ({INT_RULE})"
                raise ValueError(f"config key {key!r} must be {expected}, got {value!r}")
            if typing.get_origin(hint) is tuple:
                setattr(self, key, tuple(value))
            if typing.get_origin(hint) is list and not value:
                raise ValueError(f"config key {key!r} must be non-empty")
        if repeated := sorted({s for s in self.seeds if self.seeds.count(s) > 1}):
            raise ValueError(f"config key 'seeds' repeats seed {repeated[0]}: {self.seeds}")
        for key in self._POSITIVE:
            value = getattr(self, key)
            if isinstance(value, list):
                if not min(value) > 0:
                    raise ValueError(f"{key} values must be >= 1, got {min(value)}")
            elif value is not None and not value > 0:
                raise ValueError(f"config key {key!r} must be > 0, got {value!r}")
        if hasattr(self, "energy"):
            check_energy(self.energy)
        if hasattr(self, "split_fraction") and not 0.0 < self.split_fraction < 1.0:
            raise ValueError(f"split_fraction must be in (0, 1), got {self.split_fraction}")

    @classmethod
    def from_dict(cls, d: dict):
        """Build a config from a flat dict; unknown and missing keys are errors, and
        ``__post_init__`` checks the values."""
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
        return cls(**d)


@dataclass
class CurveConfig(_Config):
    """Parameters of an accuracy-versus-codebook-size sweep."""

    _POSITIVE = ("lam", "kmeans_iters", "c_grid")

    c_grid: list[int]
    seeds: list[int]
    dataset: typing.Literal["synth", "csv"] = "synth"
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
    dict_source: typing.Literal["sampled", "kmeans"] = "sampled"
    kmeans_iters: int = 50
    normalize: NormalizeMode = "unit_l2"
    split_fraction: float = 0.8
    split_seed: int = 0
    nystrom_limit: int = 2000

    def __post_init__(self):
        super().__post_init__()
        if len(grid := sorted(set(self.c_grid))) < 3:
            raise ValueError(f"c grid needs at least 3 distinct values, got {grid}")
        if self.dataset == "csv" and self.path is None:
            raise ValueError("config key 'path' is required when dataset is 'csv'")
        if self.dataset != "csv" and self.path is not None:
            raise ValueError(f"config key 'path' is read only when dataset is 'csv', "
                             f"got dataset {self.dataset!r}")


@dataclass
class PdlConfig(_Config):
    """Parameters of an overshoot-and-prune dictionary comparison."""

    _POSITIVE = ("lam", "kmeans_iters", "classes", "images_per_class", "image_size", "patch",
                 "stride", "final_c_grid", "overshoots")

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
    pool_op: PoolOp = "average"
    kmeans_iters: int = 30
    normalize: NormalizeMode = "unit_l2"
    split_fraction: float = 0.8
    split_seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if 1 not in self.overshoots:
            raise ValueError("overshoots must include 1 (the baseline)")
        if self.image_size % self.patch:  # the texture images tile patch x patch prototypes
            raise ValueError(f"config key 'image_size' must be a multiple of 'patch', got "
                             f"image_size {self.image_size} and patch {self.patch}")


@dataclass
class NystromEvalConfig(_Config):
    """Parameters of an empirical bound-coverage evaluation."""

    _POSITIVE = ("k_list",)  # c_grid's range 1..n_samples: sample_indices, before any data

    c_grid: list[int]
    seeds: list[int]
    k_list: list[int] = field(default_factory=lambda: [2, 4])
    d: int = 32
    n_samples: int = 256
    noise: float = 0.05
    data_seed: int = 0
    alpha: float = DEFAULT_ALPHA
    energy: float = 0.95
    normalize: NormalizeMode = "unit_l2"

    def __post_init__(self):
        super().__post_init__()
        if max(self.k_list) > min(self.d, self.n_samples):  # synth_manifold's range of k
            raise ValueError(f"k_list values must be <= min(d, n_samples), got {self.k_list}")


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


def _n_train(N: int, fraction: float) -> int:
    if N < 2:
        raise ValueError(f"need at least 2 samples to split into training and test sets, got {N}")
    return min(max(int(round(fraction * N)), 1), N - 1)


def _split(N: int, cfg: CurveConfig | PdlConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """The train and test indices of N samples under the config's split, and the ridge
    coefficient: ``cfg.lam``, or 1e-3 times the number of training samples."""
    perm = np.random.default_rng(cfg.split_seed).permutation(N)
    n_train = _n_train(N, cfg.split_fraction)
    lam = cfg.lam if cfg.lam is not None else 1e-3 * n_train
    return perm[:n_train], perm[n_train:], lam


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
    else:
        ds = load_csv(cfg.path, has_labels=True)
        if ds.n_classes < 2 <= ds.data.N:  # a single sample fails on the split instead
            raise ValueError(f"{cfg.path}: the label column holds 1 class; a curve needs 2 or more")
    return LabeledDataset(normalize_columns(ds.data, cfg.normalize), ds.labels, ds.n_classes)


def _nystrom_diagnostics(X: DataMatrix, alpha: float, energy: float, cs: list[int],
                         draws: dict) -> tuple[dict, dict, dict]:
    """The report's entries for the full code matrix C of X: its ``spectral`` summary,
    {c: eq. 1 bound} at each c in ``cs``, and {(c, seed): Nystrom errors} of each column
    sample (c, seed) -> indices in ``draws``. One ``CodeKernel`` of C serves the spectrum
    and every sample, scored largest c first so that its workspace is allocated once; it
    builds K where the leading spectrum or a score first reads it, and C and K are freed
    on return."""
    kernel = code_kernel(full_code(X, alpha))
    rep = spectral_report(kernel, energy=energy)
    spectral = {"k_effective": rep.k, "rank_k_residual": rep.rank_k_residual,
                "scaled_diag_max": rep.scaled_diag_max}
    largest_first = sorted(draws, key=lambda key: -len(draws[key]))
    errs = {key: approximation_errors(decompose(kernel, draws[key])) for key in largest_first}
    # bounds last: built before the scores, they raised curve-diag's peak RSS by 0.45 MB
    return spectral, {c: bounds.eval_eq1_bound(rep, c) for c in cs}, errs


def _accuracies(
    seeds: list[int],
    seed_features: typing.Callable[[int], typing.Callable[[DataMatrix | PatchGrid], CodeMatrix]],
    train: tuple[DataMatrix | PatchGrid, np.ndarray],
    test: tuple[DataMatrix | PatchGrid, np.ndarray],
    n_classes: int,
    lam: float,
) -> dict[str, float]:
    """The ``train_acc`` and ``test_acc`` means and stds over the seeds of a ridge classifier
    trained on (features(X), y) of ``train`` and scored on ``train`` and ``test``, where
    ``features = seed_features(seed)`` builds the seed's dictionary and returns its feature map.

    One feature matrix is alive at a time: the train features are dropped once
    they are scored, before the test features are built, so both may share one buffer.
    """
    (Xtr, ytr), (Xte, yte) = train, test
    scores = []
    for seed in seeds:
        features = seed_features(seed)
        ftr = features(Xtr)
        model = classifier.train_ridge(ftr, ytr, n_classes, lam)
        train_acc = classifier.accuracy(classifier.predict(model, ftr), ytr)
        del ftr
        test_acc = classifier.accuracy(classifier.predict(model, features(Xte)), yte)
        scores.append((train_acc, test_acc))
    return _mean_std(("train_acc", "test_acc"), scores)


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
    grid = sorted(set(cfg.c_grid))
    dataset = _curve_dataset(cfg)
    train_idx, test_idx, lam = _split(dataset.data.N, cfg)
    X, labels, n_classes = dataset.data.values, dataset.labels, dataset.n_classes
    Xtr = DataMatrix(X[:, train_idx])
    Xte = DataMatrix(X[:, test_idx])
    del dataset, X  # the sweep reads only the train and test columns, copied out above
    train = (Xtr, labels[train_idx])
    test = (Xte, labels[test_idx])
    n_train = Xtr.N
    if cfg.dict_source == "sampled" or n_train <= cfg.nystrom_limit:
        check_alpha(Xtr, cfg.alpha)  # the atoms are X's columns: sampled, or C's in the diagnostics
    if cfg.dict_source == "kmeans":
        check_alpha(Xtr, cfg.alpha, atom_norm=1.0)  # K-means atoms: unit-norm or zero

    kept = [c for c in grid if c <= n_train]
    warnings = [f"skipped c={c}: exceeds training set size {n_train}" for c in grid if c > n_train]
    if len(kept) < 2:
        raise ValueError("fewer than 2 usable codebook sizes after skipping oversized ones")

    # the draws depend only on (c, seed); the diagnostics score them all before
    # the first feature buffer exists, so C and K are freed by then
    draws = {(c, seed): sample_indices(n_train, c, seed)
             for c in kept for seed in cfg.seeds if cfg.dict_source == "sampled"}
    spectral, bound, errs = {}, {}, {}
    if n_train <= cfg.nystrom_limit:
        spectral, bound, errs = _nystrom_diagnostics(Xtr, cfg.alpha, cfg.energy, kept, draws)

    codes = np.empty(max(n_train, Xte.N) * kept[-1])  # every cell's codes, train and test
    points: list[CurvePoint] = []
    for c in kept:
        def seed_features(seed: int) -> typing.Callable[[DataMatrix], CodeMatrix]:
            if cfg.dict_source == "sampled":
                D = Dictionary(Xtr.values[:, draws[c, seed]])
            else:
                D = kmeans(Xtr, c, cfg.kmeans_iters, seed).dictionary
            return lambda X: encode(X, D, cfg.alpha, out=codes[: X.N * c].reshape(X.N, c))

        stats = _accuracies(cfg.seeds, seed_features, train, test, n_classes, lam)
        cell_errs = [dataclasses.astuple(errs[c, seed]) for seed in cfg.seeds if errs]
        points.append(
            CurvePoint(
                c=c,
                seeds_used=len(cfg.seeds),
                **stats,
                **_mean_std(("code_err", "kernel_err"), cell_errs),
                bound_eq1=bound.get(c),
            )
        )

    # each saturation model is fitted on the two smallest sizes and predicts every size
    models: dict[str, bounds.SaturationModel] = {}
    p1, p2 = points[:2]
    p1.is_fit_point = p2.is_fit_point = True
    for observed, predicted, form in _FITS:
        y1, y2 = getattr(p1, observed), getattr(p2, observed)
        if y1 is not None and y2 is not None:
            models[observed] = bounds.fit_two_point((p1.c, y1), (p2.c, y2), form)
            for point in points:
                setattr(point, predicted, bounds.predict(models[observed], point.c))

    return ExperimentReport(
        kind="curve",
        config={**dataclasses.asdict(cfg), "lam_effective": lam},
        curve=points,
        models=models,
        spectral=spectral,
        warnings=warnings,
    )


def _normalized_patches(images: np.ndarray, cfg: PdlConfig) -> PatchGrid:
    """The patch grid of an image stack, its patches normalized."""
    grid = extract_patches_stack(images, cfg.patch, cfg.stride)
    return dataclasses.replace(grid, patches=normalize_columns(grid.patches, cfg.normalize))


def run_pdl_compare(cfg: PdlConfig) -> ExperimentReport:
    """Compare pruned overshoot dictionaries against the overshoot=1 baseline."""
    final_cs = sorted(set(cfg.final_c_grid))
    overshoots = sorted(set(cfg.overshoots))
    side = (cfg.image_size - cfg.patch) // cfg.stride + 1  # the patch grid, from the config alone
    check_regions((side, side), cfg.regions)
    train_patches = _n_train(cfg.classes * cfg.images_per_class, cfg.split_fraction) * side**2
    if final_cs[-1] * overshoots[-1] > train_patches:
        raise ValueError(f"final_c_grid x overshoots exceeds the {train_patches} patches")

    images, labels = synth_texture_images(
        cfg.images_per_class,
        cfg.classes,
        cfg.image_size,
        cfg.patch,
        cfg.prototypes_per_class,
        cfg.noise,
        cfg.data_seed,
    )
    train_idx, test_idx, lam = _split(len(images), cfg)
    grid_tr = _normalized_patches(images[train_idx], cfg)
    check_alpha(grid_tr.patches, cfg.alpha, atom_norm=1.0)  # K-means atoms: unit-norm or zero
    grid_te = _normalized_patches(images[test_idx], cfg)
    del images  # every fit reads the two patch grids
    train = (grid_tr, labels[train_idx])
    test = (grid_te, labels[test_idx])

    rows: list[PdlRow] = []
    for final_c in final_cs:
        for overshoot in overshoots:  # sorted and starting at 1: the baseline comes first
            def seed_features(seed: int) -> typing.Callable[[PatchGrid], CodeMatrix]:
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
                return lambda grid: pool(encode(grid.patches, D, cfg.alpha),
                                         (grid.grid_rows, grid.grid_cols), cfg.regions, cfg.pool_op)

            stats = _accuracies(cfg.seeds, seed_features, train, test, cfg.classes, lam)
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

    config = {**dataclasses.asdict(cfg), "lam_effective": lam}
    return ExperimentReport(kind="pdl", config=config, pdl_rows=rows)


def run_nystrom_eval(cfg: NystromEvalConfig) -> ExperimentReport:
    """Measure how often the evaluated bound covers the observed code error."""
    cs = sorted(set(cfg.c_grid))
    # the draws depend on neither k nor the data: one per (c, seed) serves every k
    draws = {(c, seed): sample_indices(cfg.n_samples, c, seed) for c in cs for seed in cfg.seeds}
    cells: list[NystromCell] = []
    spectral = {}
    for k in sorted(set(cfg.k_list)):
        X = synth_manifold(cfg.d, k, cfg.n_samples, cfg.noise, cfg.data_seed)
        Xn = normalize_columns(X, cfg.normalize)
        check_alpha(Xn, cfg.alpha)
        spectral[str(k)], bound, errs = _nystrom_diagnostics(Xn, cfg.alpha, cfg.energy, cs, draws)
        for c in cs:
            for seed in cfg.seeds:
                e = errs[c, seed]
                cells.append(
                    NystromCell(
                        k=k,
                        c=c,
                        seed=seed,
                        code_err=e.code_err,
                        kernel_err=e.kernel_err,
                        bound_eq1=bound[c],
                        within_bound=e.code_err <= bound[c],
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
    rows = [[getattr(row, name) for name in columns] for row in getattr(report, attr)]
    return ",".join(columns) + "\n" + csv_text(rows)


def emit(report: ExperimentReport, path, fmt: str = "json") -> None:
    """Write a report as a full JSON document or a plot-ready CSV table.

    ``path=None`` writes to standard output.
    """
    if fmt == "json":
        text = json.dumps(dataclasses.asdict(report), indent=2) + "\n"
    elif fmt == "csv":
        text = report_csv(report)
    else:
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    write_text(text, path)
