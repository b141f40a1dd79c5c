"""Spectral quantities feeding the reconstruction-error bound.

The bound needs two numbers about the ideal code matrix: the optimal rank-k
residual ||C - C_k||_F (tail of the singular value spectrum) and the scaled
diagonal maximum N * max_i C_ii. The singular values of a symmetric matrix
are the absolute values of its eigenvalues, so symmetric input (every full
code matrix is bit-exactly symmetric) takes them from ``eigvalsh``, which
is cheaper than an SVD; any other input goes through the SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import _matrix


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Rank choice k, the corresponding residual, and the diagonal term."""

    k: int
    rank_k_residual: float
    scaled_diag_max: float
    singular_values: np.ndarray


def singular_values(C) -> np.ndarray:
    """Singular values of C, descending."""
    values = _matrix(C)
    square = values.ndim == 2 and values.shape[0] == values.shape[1]
    if square and np.array_equal(values, values.T):
        return np.sort(np.abs(np.linalg.eigvalsh(values)))[::-1]
    return np.linalg.svd(values, compute_uv=False)


def check_energy(energy: float) -> None:
    """Reject a retained-energy fraction outside (0, 1]."""
    if not (0.0 < energy <= 1.0):
        raise ValueError(f"energy must be in (0, 1], got {energy}")


def _energy_rank(s: np.ndarray, energy: float) -> int:
    """Smallest k whose top-k squared singular values retain ``energy`` of the total."""
    check_energy(energy)
    s2 = s**2
    total = s2.sum()
    if total == 0.0:
        return 0
    k = int(np.searchsorted(np.cumsum(s2), energy * total, side="left")) + 1
    return min(k, len(s2))


def _tail_norm(s: np.ndarray, k: int) -> float:
    """sqrt of the sum of squared singular values past the first k."""
    if not (0 <= k <= len(s)):
        raise ValueError(f"need 0 <= k <= min(dims) = {len(s)}, got k={k}")
    return float(np.sqrt(np.sum(s[k:] ** 2)))


def rank_k_residual(C, k: int) -> float:
    """Frobenius norm of C minus its best rank-k approximation.

    By Eckart-Young this equals sqrt(sum of squared singular values past k).
    """
    return _tail_norm(singular_values(C), k)


def scaled_diag_max(C) -> float:
    """N times the largest diagonal entry of a square matrix."""
    values = _matrix(C)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"C must be square, got shape {values.shape}")
    return float(values.shape[0] * np.max(np.diag(values)))


def effective_rank(C, energy: float = 0.95) -> int:
    """Smallest k whose top-k squared singular values retain ``energy`` of the total."""
    return _energy_rank(singular_values(C), energy)


def spectral_report(C, k: int | None = None, energy: float = 0.95) -> SpectralReport:
    """Assemble the bound inputs for C; k defaults to the effective rank at ``energy``."""
    values = _matrix(C)
    diag_term = scaled_diag_max(values)
    s = singular_values(values)
    if k is None:
        k = _energy_rank(s, energy)
    return SpectralReport(
        k=k,
        rank_k_residual=_tail_norm(s, k),
        scaled_diag_max=diag_term,
        singular_values=s,
    )
