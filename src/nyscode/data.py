"""Dataset construction: synthetic generators, patch extraction, normalization, loaders.

All data lives in column-per-sample orientation: a matrix has shape (d, N)
with one sample per column. Loaders transpose row-per-sample files on read.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class FormatError(Exception):
    """A data file violates its declared format (bad field, ragged row, truncation)."""


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
    images: int

    def __post_init__(self):
        expected = self.images * self.grid_rows * self.grid_cols
        if self.patches.N != expected:
            raise ValueError(
                f"patch count {self.patches.N} != images*grid "
                f"({self.images}x{self.grid_rows}x{self.grid_cols}={expected})"
            )


def _check_noise(noise: float) -> None:
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")


def synth_manifold(d: int, k: int, N: int, noise_sigma: float, seed: int) -> DataMatrix:
    """Sample N points near a k-dimensional linear manifold in R^d.

    Returns X = B @ G + noise_sigma * Z where B (d x k) has orthonormal
    columns, and G (k x N), Z (d x N) are standard normal. With zero noise
    the result has numerical rank exactly k.
    """
    if not (1 <= k <= min(d, N)):
        raise ValueError(f"need 1 <= k <= min(d, N), got d={d}, k={k}, N={N}")
    _check_noise(noise_sigma)
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, k)))
    latent = rng.standard_normal((k, N))
    noise = rng.standard_normal((d, N))
    return DataMatrix(basis @ latent + noise_sigma * noise)


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
    if not (1 <= k <= min(d, N)):
        raise ValueError(f"need 1 <= k <= min(d, N), got d={d}, k={k}, N={N}")
    if modes_per_class < 1:
        raise ValueError("modes_per_class must be >= 1")
    _check_noise(noise_sigma)
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, k)))
    centers = rng.standard_normal((classes, modes_per_class, k))
    centers /= np.linalg.norm(centers, axis=2, keepdims=True)
    centers *= class_sep

    labels = np.arange(N) % classes
    modes = rng.integers(modes_per_class, size=N)
    latent = centers[labels, modes, :].T + within * rng.standard_normal((k, N))
    noise = rng.standard_normal((d, N))
    values = basis @ latent + noise_sigma * noise
    return LabeledDataset(DataMatrix(values), labels, classes)


def extract_patches(image: np.ndarray, patch: int, stride: int) -> PatchGrid:
    """Cut a single image into flattened square patches.

    Accepts (h, w) or (h, w, channels) arrays. Patches start at top-left
    offsets {0, stride, 2*stride, ...} that fit fully inside the image and are
    flattened row-major with the channel index varying fastest.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim not in (2, 3):
        raise ValueError(f"image must be 2-D or 3-D, got ndim={image.ndim}")
    return _patch_grid(image[None], patch, stride)


def extract_patches_stack(images: np.ndarray, patch: int, stride: int) -> PatchGrid:
    """Apply ``extract_patches`` to a stack of images shaped (n, h, w[, channels])."""
    images = np.asarray(images, dtype=float)
    if images.ndim not in (3, 4):
        raise ValueError(f"image stack must be 3-D or 4-D, got ndim={images.ndim}")
    return _patch_grid(images, patch, stride)


def _patch_grid(images: np.ndarray, patch: int, stride: int) -> PatchGrid:
    """Patches of an (n, h, w[, channels]) stack as one C-ordered d x N matrix."""
    if images.ndim == 3:
        images = images[..., None]
    n, h, w, ch = images.shape
    if patch < 1 or patch > min(h, w):
        raise ValueError(f"patch size {patch} does not fit a {h}x{w} image")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    # (n, rows, cols, ch, patch, patch) view of every patch at the kept offsets
    windows = sliding_window_view(images, (patch, patch), axis=(1, 2))[:, ::stride, ::stride]
    _, grid_rows, grid_cols = windows.shape[:3]
    # rows: patch row, patch col, channel; columns: image, grid row, grid col.
    # Copy into a fresh C-ordered matrix: a reshape may return a view of the images.
    cols = np.empty((patch * patch * ch, n * grid_rows * grid_cols))
    cols.reshape(patch, patch, ch, n, grid_rows, grid_cols)[...] = windows.transpose(
        4, 5, 3, 0, 1, 2
    )
    return PatchGrid(DataMatrix(cols), grid_rows, grid_cols, images=n)


_NORMALIZE_MODES = ("mean_center", "unit_l2", "both")


def normalize_columns(X: DataMatrix, mode: str) -> DataMatrix:
    """Normalize each column: subtract its mean, scale it to unit norm, or both.

    Zero columns (including columns that become zero after centering) pass
    through unchanged.
    """
    if mode not in _NORMALIZE_MODES:
        raise ValueError(f"mode must be one of {_NORMALIZE_MODES}, got {mode!r}")
    values = X.values.astype(float, copy=True)
    if mode in ("mean_center", "both"):
        values -= values.mean(axis=0, keepdims=True)
    if mode in ("unit_l2", "both"):
        norms = np.linalg.norm(values, axis=0)
        norms[norms == 0.0] = 1.0
        values /= norms
    return DataMatrix(values)


def load_csv(path, has_labels: bool, header: bool = False) -> LabeledDataset:
    """Load a comma-separated file with one sample per row.

    When ``has_labels`` the last field of each row is an integer class label;
    labels are remapped to contiguous ids 0..L-1 preserving numeric order.
    """
    text = Path(path).read_text()
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    start = 1 if header else 0
    rows = []
    raw_labels = []
    n_fields = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        fields = line.split(",")
        if n_fields is None:
            n_fields = len(fields)
            if has_labels and n_fields < 2:
                raise FormatError(f"{path}: line {lineno}: need at least one feature and a label")
        elif len(fields) != n_fields:
            raise FormatError(
                f"{path}: line {lineno}: expected {n_fields} fields, got {len(fields)}"
            )
        if has_labels:
            feature_fields, label_field = fields[:-1], fields[-1]
            try:
                raw_labels.append(int(label_field))
            except ValueError:
                raise FormatError(
                    f"{path}: line {lineno}: label {label_field!r} is not an integer"
                ) from None
        else:
            feature_fields = fields
        row = []
        for f in feature_fields:
            try:
                row.append(float(f))
            except ValueError:
                raise FormatError(f"{path}: line {lineno}: non-numeric field {f!r}") from None
        if not all(np.isfinite(row)):
            raise FormatError(f"{path}: line {lineno}: non-finite value")
        rows.append(row)
    if not rows:
        raise FormatError(f"{path}: empty file")

    values = np.array(rows, dtype=float).T
    if has_labels:
        uniq, labels = np.unique(raw_labels, return_inverse=True)
        return LabeledDataset(DataMatrix(values), labels, n_classes=len(uniq))
    return LabeledDataset(DataMatrix(values), np.zeros(values.shape[1], dtype=int), 1)


def save_csv(dataset: LabeledDataset, path) -> None:
    """Write a dataset as one sample per row, 17 significant digits per value,
    then the label when the dataset has more than one class."""
    out = []
    values = dataset.data.values
    for i in range(dataset.data.N):
        fields = [format(v, ".17g") for v in values[:, i]]
        if dataset.n_classes > 1:
            fields.append(str(int(dataset.labels[i])))
        out.append(",".join(fields))
    Path(path).write_text("\n".join(out) + "\n")


CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 channel-major 32x32 pixel planes
CIFAR_CLASSES = 10


def load_cifar10_binary(path) -> LabeledDataset:
    """Load a CIFAR-10 binary batch file.

    Each 3073-byte record is one label byte followed by 3072 pixel bytes in
    channel-major order (full R plane, then G, then B; each plane row-major
    32x32). Pixels are scaled to [0, 1]; column layout keeps the byte order,
    so feature index = channel*1024 + row*32 + col.
    """
    raw = Path(path).read_bytes()
    if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
        raise FormatError(
            f"{path}: size {len(raw)} is not a positive multiple of {CIFAR_RECORD_BYTES}"
        )
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(int)
    if labels.max() >= CIFAR_CLASSES:
        raise FormatError(f"{path}: label byte {labels.max()} out of range 0..9")
    values = records[:, 1:].T.astype(float) / 255.0
    return LabeledDataset(DataMatrix(values), labels, CIFAR_CLASSES)
