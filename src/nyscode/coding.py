"""Threshold feature encoding against a dictionary, and whole-training-set coding.

A sample x is encoded as max(0, x^T D - alpha): a rectified similarity to each
of the c dictionary atoms. Encoding the training set against itself gives the
ideal code matrix C = max(0, X^T X - alpha), whose Gram matrix C C^T is the
kernel every subsampled dictionary approximates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DataMatrix

DICTIONARY_SOURCES = ("sampled", "kmeans", "kcenters")

# sensible threshold for unit-norm columns; every config exposes its own alpha
DEFAULT_ALPHA = 0.25


@dataclass(frozen=True, eq=False)
class Dictionary:
    """A d x c codebook plus provenance.

    ``indices`` records which training columns (source="sampled") or which
    atoms of the overshoot dictionary (source="kcenters") were selected; it is
    None for learned (kmeans) atoms.
    """

    atoms: np.ndarray
    source: str
    indices: np.ndarray | None = None

    def __post_init__(self):
        if self.atoms.ndim != 2 or self.atoms.shape[1] < 1:
            raise ValueError(f"atoms must be a d x c matrix with c >= 1, got {self.atoms.shape}")
        if not np.all(np.isfinite(self.atoms)):
            raise ValueError("dictionary atoms contain NaN or Inf")
        if self.source not in DICTIONARY_SOURCES:
            raise ValueError(f"source must be one of {DICTIONARY_SOURCES}, got {self.source!r}")
        if self.source in ("sampled", "kcenters"):
            idx = self.indices
            if idx is None:
                raise ValueError(f"source={self.source!r} requires selection indices")
            if len(idx) != self.atoms.shape[1]:
                raise ValueError("one selection index per atom required")
            if len(np.unique(idx)) != len(idx) or (len(idx) and min(idx) < 0):
                raise ValueError("selection indices must be distinct and non-negative")

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
    alpha: float

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError("code matrix must be 2-D")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("code matrix contains NaN or Inf")
        if self.values.size and self.values.min() < 0:
            raise ValueError("code matrix entries must be >= 0")

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def c(self) -> int:
        return self.values.shape[1]


def encode(X: DataMatrix, D: Dictionary, alpha: float) -> CodeMatrix:
    """Encode every column of X: entry (i, j) = max(0, <x_i, d_j> - alpha)."""
    if X.d != D.d:
        raise ValueError(f"feature dim mismatch: data has d={X.d}, dictionary d={D.d}")
    return CodeMatrix(np.maximum(0.0, X.values.T @ D.atoms - alpha), alpha)


def full_code(X: DataMatrix, alpha: float) -> CodeMatrix:
    """Code the training set against itself: C = max(0, X^T X - alpha), N x N.

    The Gram product is symmetrized before thresholding so the result is
    bit-exactly symmetric regardless of BLAS reduction order.
    """
    # keep the Gram matrix named: subtracting alpha from the unnamed temporary
    # lets numpy do it in place, and the changed heap pattern quadrupled the
    # page faults of the later N x N temporaries in nystrom-eval (glibc malloc)
    gram = _sym_gram(X.values.T)
    return CodeMatrix(np.maximum(0.0, gram - alpha), alpha)


def gram_kernel(C: CodeMatrix) -> np.ndarray:
    """Kernel matrix K = C C^T between encoded samples (N x N, PSD)."""
    return _sym_gram(C.values)


def _sym_gram(A: np.ndarray) -> np.ndarray:
    """A A^T averaged with its transpose, so the result is bit-exactly symmetric."""
    G = A @ A.T
    return (G + G.T) / 2.0
