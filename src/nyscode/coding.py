"""Threshold feature encoding against a dictionary, and whole-training-set coding.

A sample x is encoded as max(0, x^T D - alpha): a rectified similarity to each
of the c dictionary atoms. Encoding the training set against itself gives the
ideal code matrix C = max(0, X^T X - alpha), whose Gram matrix C C^T is the
kernel every subsampled dictionary approximates. ``check_alpha`` rejects, from
column norms alone, an alpha that would zero every code or overflow its square.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .data import DataMatrix, check_finite

# sensible threshold for unit-norm columns; every config exposes its own alpha
DEFAULT_ALPHA = 0.25
_BLOCK_BYTES = 1 << 18  # bytes of codes that encode thresholds at a time; fits in a core's L2
_SYMMETRY_TILE = 256  # rows and columns of the tiles that _is_symmetric compares
_tile_buffers = threading.local()  # reused: a buffer per call cost 16 MB peak RSS at N = 2000


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

    @classmethod
    def _prechecked(cls, values: np.ndarray) -> CodeMatrix:
        """Wrap codes whose producer has already checked them, without a second read."""
        C = object.__new__(cls)
        object.__setattr__(C, "values", values)
        return C

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def c(self) -> int:
        return self.values.shape[1]


def _matrix(C) -> np.ndarray:
    """The array behind a CodeMatrix, or any array-like as float."""
    return C.values if isinstance(C, CodeMatrix) else np.asarray(C, dtype=float)


def _is_symmetric(values: np.ndarray) -> bool:
    """Whether ``values`` is square and equal to its transpose as ``np.array_equal`` decides
    (a NaN is unequal), compared tile by mirror tile so that no N x N temporary is made."""
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        return False
    n, t = values.shape[0], _SYMMETRY_TILE
    if not hasattr(_tile_buffers, "unequal"):
        _tile_buffers.unequal = np.empty((t, t), dtype=bool)
    for i in range(0, n, t):
        for j in range(i, n, t):
            tile = values[i : i + t, j : j + t]
            out = _tile_buffers.unequal[: tile.shape[0], : tile.shape[1]]
            if np.not_equal(tile, values[j : j + t, i : i + t].T, out=out).any():
                return False
    return True


def check_alpha(X: DataMatrix, alpha: float, atom_norm: float | None = None) -> None:
    """Reject a non-finite alpha, one that zeroes every code max(0, <x, a> - alpha) of X,
    or one so far below that the largest code squared and summed over X's N samples overflows.

    By Cauchy-Schwarz no <x, a> exceeds the largest column norm of X times the
    largest atom norm. That is ``atom_norm``; None means the atoms are columns of
    X, so the bound is the largest squared column norm. No code is computed. A
    non-finite bound (squared norms that overflow) is left to ``encode``, which names it.
    """
    check_finite(alpha=alpha)
    top = np.max(np.einsum("ij,ij->j", X.values, X.values))
    top = float(top if atom_norm is None else np.sqrt(top) * atom_norm)
    if not alpha < top:
        raise ValueError(f"every code is zero: alpha={alpha} is not below the largest "
                         f"similarity bound {top:.6g}")
    limit = np.sqrt(np.finfo(float).max / (4 * X.N))  # N squares of it sum to max/4, with headroom
    if np.isfinite(top) and not top - alpha < limit:
        raise ValueError(f"the squared codes overflow the float range: alpha={alpha} is not "
                         f"above the lowest alpha {top - limit:.6g}")


def encode(
    X: DataMatrix, D: Dictionary, alpha: float, out: np.ndarray | None = None
) -> CodeMatrix:
    """Encode every column of X: entry (i, j) = max(0, <x_i, d_j> - alpha).

    ``out``, an N x c float64 array, receives the codes and becomes ``values``.
    X, D and alpha are finite, so a NaN or Inf code is an overflow, named ("the codes
    overflow the float range", no numpy warning) by the check of its thresholded row
    block; the CodeMatrix is built with no second read of the codes.
    """
    if X.d != D.d:
        raise ValueError(f"feature dim mismatch: data has d={X.d}, dictionary d={D.d}")
    check_finite(alpha=alpha)
    if out is not None and (out.shape, out.dtype) != ((X.N, D.c), np.float64):
        raise ValueError(f"out must be a {X.N} x {D.c} float64 array, got {out.shape} {out.dtype}")
    with np.errstate(over="ignore", invalid="ignore"):
        G = np.matmul(X.values.T, D.atoms, out=out)
        # np.maximum(0.0, G - alpha) in place, its dtype and bits, one cached row block at a
        # time; entries are then >= 0 or NaN, and max keeps a NaN or +inf, so one max checks it
        G = G.astype(np.result_type(G, alpha), copy=False)
        for start in range(0, len(G), rows := max(1, _BLOCK_BYTES // G[0].nbytes)):
            block = G[start : start + rows]
            block -= alpha
            np.maximum(0.0, block, out=block)
            if not np.isfinite(block.max()):
                raise ValueError("the codes overflow the float range")
    return CodeMatrix._prechecked(G)


def full_code(X: DataMatrix, alpha: float) -> CodeMatrix:
    """Code the training set against itself: C = encode(X, Dictionary(X), alpha), N x N.

    numpy computes X^T X from one buffer by one syrk and copies one triangle
    into the other, so C equals its transpose bit for bit with no symmetrizing
    pass. An array neither C- nor F-contiguous, as a column-strided view, may
    reach gemm instead, so it is copied first.
    """
    if not (X.values.flags.c_contiguous or X.values.flags.f_contiguous):
        X = DataMatrix(np.ascontiguousarray(X.values))
    return encode(X, Dictionary(X.values), alpha)

