"""Dataset construction: synthetic generators, patch extraction, normalization, the CSV
loader, the one CSV renderer of the program's tables, and the one text writer.

All data lives in column-per-sample orientation: a matrix has shape (d, N)
with one sample per column. ``load_csv`` transposes its row-per-sample UTF-8 file on
read. Both manifold generators sample through ``_sample_manifold``, which checks the
sizes and the noise, embeds the caller's latent draw, and names every scale when the
samples overflow the float range.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Literal, get_args

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class FormatError(Exception):
    """A data file violates its declared format (bad field, ragged row, empty file)."""


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """A d x N matrix of N samples in d dimensions, one column per sample."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got ndim={v.ndim}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"matrix must be at least 1x1, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("matrix contains NaN or Inf entries")

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def N(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """A DataMatrix plus one integer label in [0, n_classes) per column."""

    data: DataMatrix
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        if self.labels.shape != (self.data.N,):
            raise ValueError(
                f"labels must have shape ({self.data.N},), got {self.labels.shape}"
            )
        if self.n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.n_classes
        ):
            raise ValueError("labels must lie in [0, n_classes)")


@dataclass(frozen=True, eq=False)
class PatchGrid:
    """Flattened patches of one or more images, one patch per column.

    Patch columns are ordered row-major within each image, images consecutive,
    so column index = image * (grid_rows * grid_cols) + row * grid_cols + col.
    """

    patches: DataMatrix
    grid_rows: int
    grid_cols: int

    def __post_init__(self):
        rows, cols = self.grid_rows, self.grid_cols
        # the sides first: a zero side would divide by zero
        if rows < 1 or cols < 1 or self.patches.N % (rows * cols) != 0:
            raise ValueError(f"{self.patches.N} patches do not fill whole {rows}x{cols} grids")


def check_finite(**params: float) -> None:
    """Reject the first named value that is NaN or infinite, naming it."""
    for name, value in params.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _check_noise(noise: float) -> None:
    check_finite(noise=noise)
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")


def _overflow(**scales: float) -> ValueError:
    named = ", ".join(f"{name}={value}" for name, value in scales.items())
    return ValueError(f"the synthetic samples overflow the float range at {named}")


def _sample_manifold(d: int, k: int, N: int, noise_sigma: float, seed: int,
                     draw_latent: Callable[[np.random.Generator], np.ndarray],
                     **latent_scales: float) -> DataMatrix:
    """B @ draw_latent(rng) + noise_sigma * Z, B (d x k) orthonormal and Z (d x N) standard
    normal; B, the k x N latent and Z are drawn in that order from ``seed``'s generator.
    Samples that overflow raise ``_overflow`` of the noise and the ``latent_scales``."""
    if not (1 <= k <= min(d, N)):
        raise ValueError(f"need 1 <= k <= min(d, N), got d={d}, k={k}, N={N}")
    _check_noise(noise_sigma)
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, k)))
    with np.errstate(over="ignore", invalid="ignore"):
        latent = draw_latent(rng)
        noise = rng.standard_normal((d, N))
        values = basis @ latent + noise_sigma * noise
    try:
        return DataMatrix(values)  # its one finiteness pass is the overflow check
    except ValueError:
        raise _overflow(noise=noise_sigma, **latent_scales) from None


def synth_manifold(d: int, k: int, N: int, noise_sigma: float, seed: int) -> DataMatrix:
    """Sample N points near a k-dimensional linear manifold in R^d.

    Returns X = B @ G + noise_sigma * Z where B (d x k) has orthonormal
    columns, and G (k x N), Z (d x N) are standard normal. With zero noise
    the result has numerical rank exactly k.
    """
    return _sample_manifold(d, k, N, noise_sigma, seed, lambda rng: rng.standard_normal((k, N)))


def synth_labeled_manifold(
    d: int,
    k: int,
    N: int,
    classes: int,
    noise_sigma: float,
    seed: int,
    class_sep: float = 2.0,
    within: float = 0.6,
    modes_per_class: int = 2,
) -> LabeledDataset:
    """Labeled variant of ``synth_manifold`` for classification experiments.

    Each class owns ``modes_per_class`` latent centers (unit directions in the
    k-dimensional latent space, scaled by ``class_sep``); every sample sits at
    a randomly chosen center of its class plus ``within``-scaled latent spread,
    then is mapped through a shared orthonormal basis with ambient noise.
    Labels cycle 0..classes-1 over columns. Multi-modal classes keep the task
    non-trivial for a linear classifier on the raw coordinates.
    """
    if classes < 2:
        raise ValueError("classes must be >= 2")
    if modes_per_class < 1:
        raise ValueError("modes_per_class must be >= 1")
    check_finite(class_sep=class_sep, within=within)
    labels = np.arange(N) % classes

    def draw(rng: np.random.Generator) -> np.ndarray:
        centers = rng.standard_normal((classes, modes_per_class, k))
        centers /= np.linalg.norm(centers, axis=2, keepdims=True)
        centers *= class_sep
        modes = rng.integers(modes_per_class, size=N)
        return centers[labels, modes, :].T + within * rng.standard_normal((k, N))

    X = _sample_manifold(d, k, N, noise_sigma, seed, draw, class_sep=class_sep, within=within)
    return LabeledDataset(X, labels, classes)


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
    with np.errstate(over="ignore"):  # the prototypes are finite, so no NaN can arise
        images += noise * rng.standard_normal(images.shape)
    if not np.all(np.isfinite(images)):
        raise _overflow(noise=noise)
    return images, labels


def extract_patches_stack(images: np.ndarray, patch: int, stride: int) -> PatchGrid:
    """Cut a stack of grayscale images shaped (n, h, w) into flattened square patches.

    Patches start at the offsets {0, stride, 2*stride, ...} that fit inside an image and are
    flattened row-major; a single image is the stack ``image[None]``.
    """
    images = np.asarray(images, dtype=float)
    if images.ndim != 3:
        raise ValueError(f"image stack must be 3-D, got ndim={images.ndim}")
    n, h, w = images.shape
    if patch < 1 or patch > min(h, w):
        raise ValueError(f"patch size {patch} does not fit a {h}x{w} image")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    # (n, rows, cols, patch, patch) view of every patch at the kept offsets
    windows = sliding_window_view(images, (patch, patch), axis=(1, 2))[:, ::stride, ::stride]
    _, grid_rows, grid_cols = windows.shape[:3]
    # rows: patch row, patch col; columns: image, grid row, grid col.
    # Copy into a fresh C-ordered matrix: a reshape may return a view of the images.
    cols = np.empty((patch * patch, n * grid_rows * grid_cols))
    cols.reshape(patch, patch, n, grid_rows, grid_cols)[...] = windows.transpose(3, 4, 0, 1, 2)
    return PatchGrid(DataMatrix(cols), grid_rows, grid_cols)


NormalizeMode = Literal["mean_center", "unit_l2", "both"]


def normalize_columns(X: DataMatrix, mode: str) -> DataMatrix:
    """Normalize each column: subtract its mean, scale it to unit norm, or both.

    Zero columns (including columns that become zero after centering) pass
    through unchanged. A column whose sum of squares overflows, or falls below
    the smallest normal float, is first divided by its largest magnitude. So
    is a column whose mean or centered values overflow, in ``both`` mode,
    before it is centered; ``mean_center`` rejects such a column.
    """
    if mode not in get_args(NormalizeMode):
        raise ValueError(f"mode must be one of {get_args(NormalizeMode)}, got {mode!r}")
    values = X.values.astype(float, copy=True)
    if mode in ("mean_center", "both"):
        with np.errstate(over="ignore", invalid="ignore"):
            values -= values.mean(axis=0, keepdims=True)
        # the input is finite, so an inf or a NaN here is an overflow
        for j in np.flatnonzero(~np.isfinite(values).all(axis=0)):
            if mode == "mean_center":
                raise ValueError(f"column {j} overflows the float range when mean-centered")
            column = X.values[:, j] / np.abs(X.values[:, j]).max()
            values[:, j] = column - column.mean()
    if mode in ("unit_l2", "both"):
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(values, axis=0)
        # sqrt(tiny) = 2**-511 exactly, so this flags the sums of squares below tiny
        for j in np.flatnonzero(np.isinf(norms) | (norms < np.sqrt(np.finfo(float).tiny))):
            if peak := np.abs(values[:, j]).max():
                values[:, j] /= peak
                norms[j] = np.linalg.norm(values[:, j])
        norms[norms == 0.0] = 1.0
        values /= norms
    return DataMatrix(values)


def load_csv(path, has_labels: bool, header: bool = False) -> LabeledDataset:
    """Load a comma-separated file with one sample per row.

    When ``has_labels`` the last field of each row is an integer class label;
    labels are remapped to contiguous ids 0..L-1 preserving numeric order.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text: {e}") from None
    lines = text.split("\n")[header:]
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError(f"{path}: empty file")
    n_fields = len(lines[0].split(","))
    if has_labels and n_fields < 2:
        raise FormatError(f"{path}: line {header + 1}: need at least one feature and a label")
    rows = []
    raw_labels = []
    for lineno, line in enumerate(lines, start=header + 1):
        fields = line.split(",")
        if len(fields) != n_fields:
            raise FormatError(
                f"{path}: line {lineno}: expected {n_fields} fields, got {len(fields)}"
            )
        if has_labels:
            label_field = fields.pop()
            try:
                raw_labels.append(int(label_field))
            except ValueError:
                raise FormatError(
                    f"{path}: line {lineno}: label {label_field!r} is not an integer"
                ) from None
        row = []
        for f in fields:
            try:
                row.append(float(f))
            except ValueError:
                raise FormatError(f"{path}: line {lineno}: non-numeric field {f!r}") from None
        if not all(np.isfinite(row)):
            raise FormatError(f"{path}: line {lineno}: non-finite value")
        rows.append(row)

    values = np.array(rows, dtype=float).T
    if has_labels:
        uniq, labels = np.unique(raw_labels, return_inverse=True)
        return LabeledDataset(DataMatrix(values), labels, n_classes=len(uniq))
    return LabeledDataset(DataMatrix(values), np.zeros(values.shape[1], dtype=int), 1)


def save_csv(dataset: LabeledDataset, path) -> None:
    """Write a dataset through ``write_text`` as one sample per row in ``csv_text`` format,
    then the label when the dataset has more than one class."""
    rows = dataset.data.values.T.tolist()
    if dataset.n_classes > 1:
        rows = [row + [label] for row, label in zip(rows, dataset.labels.tolist())]
    write_text(csv_text(rows), path)


def write_text(text: str, path) -> None:
    """Write ``text`` to the file at ``path``, or to standard output when it is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def csv_text(rows) -> str:
    """One comma-separated line per row: None empty, booleans 0/1, integers as integers,
    and other values as floats with 17 significant digits, which read back bit for bit."""
    return "".join(",".join(map(_csv_field, row)) + "\n" for row in rows)


def _csv_field(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer, np.bool_)):  # bool is an int: 0/1
        return str(int(x))
    return format(float(x), ".17g")

