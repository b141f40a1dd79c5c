"""Threshold feature encoding against a dictionary, and whole-training-set coding.

A sample x is encoded as max(0, x^T D - alpha): a rectified similarity to each
of the c dictionary atoms. Encoding the training set against itself gives the
ideal code matrix C = max(0, X^T X - alpha), whose Gram matrix C C^T is the
kernel every subsampled dictionary approximates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataMatrix

# sensible threshold for unit-norm columns; every config exposes its own alpha
DEFAULT_ALPHA = 0.25


@dataclass(frozen=True, eq=False)
class Dictionary:
    """A d x c codebook, one atom per column."""

    atoms: np.ndarray

    def __post_init__(self):
        if self.atoms.ndim != 2 or self.atoms.shape[1] < 1:
            raise ValueError(f"atoms must be a d x c matrix with c >= 1, got {self.atoms.shape}")
        if not np.all(np.isfinite(self.atoms)):
            raise ValueError("dictionary atoms contain NaN or Inf")

    @property
    def d(self) -> int:
        return self.atoms.shape[0]

    @property
    def c(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True, eq=False)
class CodeMatrix:
    """An N x c matrix of encoded samples, one row per sample; entries >= 0."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError("code matrix must be 2-D")
        if not self.values.size:
            return
        # NaN propagates through min and max, and +-inf is one of them
        lo, hi = self.values.min(), self.values.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("code matrix contains NaN or Inf")
        if lo < 0:
            raise ValueError("code matrix entries must be >= 0")

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def c(self) -> int:
        return self.values.shape[1]


def _matrix(C) -> np.ndarray:
    """The array behind a CodeMatrix, or any array-like as float."""
    return C.values if isinstance(C, CodeMatrix) else np.asarray(C, dtype=float)


def encode(X: DataMatrix, D: Dictionary, alpha: float) -> CodeMatrix:
    """Encode every column of X: entry (i, j) = max(0, <x_i, d_j> - alpha)."""
    if X.d != D.d:
        raise ValueError(f"feature dim mismatch: data has d={X.d}, dictionary d={D.d}")
    G = X.values.T @ D.atoms
    # in place, with the dtype and bits of np.maximum(0.0, G - alpha)
    G = G.astype(np.result_type(G, alpha), copy=False)
    G -= alpha
    np.maximum(0.0, G, out=G)
    return CodeMatrix(G)


def full_code(X: DataMatrix, alpha: float) -> CodeMatrix:
    """Code the training set against itself: C = max(0, X^T X - alpha), N x N.

    The Gram product is symmetrized before thresholding so the result is
    bit-exactly symmetric regardless of BLAS reduction order.
    """
    # keep the Gram matrix named: subtracting alpha from the unnamed temporary
    # lets numpy do it in place, and the changed allocation sequence leaves
    # glibc malloc's dynamic mmap/trim thresholds lower, so the later per-cell
    # buffers of nystrom-eval are page-faulted in afresh on every cell
    gram = _sym_gram(X.values.T)
    return CodeMatrix(np.maximum(0.0, gram - alpha))


def gram_kernel(C: CodeMatrix) -> np.ndarray:
    """Kernel matrix K = C C^T between encoded samples (N x N, PSD)."""
    return _sym_gram(C.values)


def _sym_gram(A: np.ndarray) -> np.ndarray:
    """A A^T averaged with its transpose, so the result is bit-exactly symmetric."""
    G = A @ A.T
    return (G + G.T) / 2.0
