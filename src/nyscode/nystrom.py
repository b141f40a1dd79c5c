"""Column-subsampled reconstruction of a symmetric code matrix and its kernel.

Given a symmetric N x N code matrix C and a set of c sampled column indices,
the factors are E = C[:, indices] and W = C[indices, indices]. The
reconstructions are

    C_hat = E W^+ E^T
    K_hat = E (W^+ E^T E W^+) E^T

where W^+ is the Moore-Penrose pseudo-inverse, computed by eigendecomposition
when W is symmetric (it is whenever C is) and by SVD otherwise. K_hat never
materializes C_hat: the inner c x c matrix is all that is needed, which is the
computational point of the factorization. The pseudo-inverse replaces a
literal inverse because sampled blocks of thresholded code matrices are
frequently singular; it reduces to the inverse when W is invertible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import CodeMatrix, _sym_gram

DEFAULT_PINV_TOL = 1e-10


def _matrix(C) -> np.ndarray:
    return C.values if isinstance(C, CodeMatrix) else np.asarray(C, dtype=float)


@dataclass(frozen=True, eq=False)
class NystromFactors:
    """Sampled columns E, the sampled square block W, and its pseudo-inverse."""

    indices: np.ndarray
    E: np.ndarray
    W: np.ndarray
    W_pinv: np.ndarray
    pinv_tol: float

    def __post_init__(self):
        if not np.array_equal(self.W, self.E[self.indices, :]):
            raise ValueError("W must equal E restricted to the sampled rows")

    @property
    def N(self) -> int:
        return self.E.shape[0]

    @property
    def c(self) -> int:
        return self.E.shape[1]


def decompose(C, indices, pinv_tol: float = DEFAULT_PINV_TOL) -> NystromFactors:
    """Slice the sampled factors out of a square symmetric matrix.

    ``indices`` must be distinct and within range. The pseudo-inverse drops
    singular values below ``pinv_tol`` times the largest one.
    """
    values = _matrix(C)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"C must be square, got shape {values.shape}")
    idx = np.asarray(indices, dtype=int)
    if idx.ndim != 1 or idx.size < 1:
        raise ValueError("indices must be a non-empty 1-D sequence")
    if len(np.unique(idx)) != idx.size:
        raise ValueError("indices must be distinct")
    if idx.min() < 0 or idx.max() >= values.shape[0]:
        raise ValueError(f"indices out of range 0..{values.shape[0] - 1}")
    E = values[:, idx]
    W = E[idx, :]
    W_pinv = np.linalg.pinv(W, rcond=pinv_tol, hermitian=_is_symmetric(W))
    return NystromFactors(indices=idx, E=E, W=W, W_pinv=W_pinv, pinv_tol=pinv_tol)


def _is_symmetric(W: np.ndarray) -> bool:
    scale = np.abs(W).max()
    if scale == 0.0:
        return True
    return float(np.abs(W - W.T).max()) <= 1e-12 * scale


def reconstruct_code(f: NystromFactors) -> np.ndarray:
    """Approximate the full code matrix: E W^+ E^T (N x N)."""
    return f.E @ f.W_pinv @ f.E.T


def reconstruct_kernel(f: NystromFactors) -> np.ndarray:
    """Approximate the kernel C C^T from the factors alone (N x N)."""
    inner = f.W_pinv @ (f.E.T @ f.E) @ f.W_pinv
    return f.E @ inner @ f.E.T


@dataclass(frozen=True)
class ApproximationErrors:
    code_err: float
    kernel_err: float


def approximation_errors(C, f: NystromFactors) -> ApproximationErrors:
    """Frobenius errors of the code and kernel reconstructions against C and C C^T."""
    values = _matrix(C)
    code_err = float(np.linalg.norm(values - reconstruct_code(f)))
    kernel_err = float(np.linalg.norm(_sym_gram(values) - reconstruct_kernel(f)))
    return ApproximationErrors(code_err=code_err, kernel_err=kernel_err)
