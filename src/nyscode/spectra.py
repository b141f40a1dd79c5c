"""Spectral quantities feeding the reconstruction-error bound.

The bound needs two numbers about the ideal code matrix: the optimal rank-k
residual ||C - C_k||_F (tail of the singular value spectrum) and the scaled
diagonal maximum N * max_i C_ii. ``spectral_report`` takes the ``CodeKernel``
that ``code_kernel`` made of C, so C is square, non-empty, equal to its
transpose bit for bit and of finite Frobenius norm, as every full code matrix
is, and its singular values are the |eigenvalues| that ``eigvalsh`` gives for
less than an SVD. ``rank_k_residual`` takes any matrix, by its SVD.

Leading spectrum. The effective rank k and the residual depend only on the
top k singular values and on ||C||_F^2 = sum sigma^2: k is the first index
where the cumulative sum of sigma_i^2 reaches ``energy`` of that total, and
||C - C_k||_F^2 = ||C||_F^2 - sum_{i <= k} sigma_i^2. For symmetric C the
sigma_i^2 are the eigenvalues of the kernel K = C C^T, whose spectrum decays
twice as fast as that of C. ``spectral_report`` therefore takes only the
leading eigenvalues of K for a C of order at least ``LEADING_MIN_N``, by
block Krylov with Rayleigh-Ritz (Halko, Martinsson & Tropp 2011; Musco &
Musco 2015): blocks of ``KRYLOV_BLOCK`` columns from a fixed random start,
each product K V orthogonalised twice against the basis, Ritz values theta
from the ``eigh`` of the projected matrix V^T K V, which are sigma^2 directly.
It stops once each of the top k Ritz pairs has a residual ||K x - theta x||
of at most ``RITZ_TOL`` times the largest theta. Only the iteration reads the
kernel's K, so the kernel builds K only where it runs. The one ``eigvalsh``
of C stays the exact path, taken when N is below the cutoff, when the basis
would grow past N / 8 columns, and when the squared tail is below
``TRACE_FLOOR`` of ||C||_F^2, where the subtraction would lose its digits.
That tail is at most (1 - energy) ||C||_F^2, so an energy within the floor of
1 (as 1.0) never starts the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import _matrix
from .nystrom import TRACE_FLOOR, CodeKernel

# below this order one eigvalsh of C is faster than the Krylov iteration
LEADING_MIN_N = 1024
# columns added to the Krylov basis per product with K
KRYLOV_BLOCK = 8
# largest Ritz residual accepted, as a fraction of the largest theta
RITZ_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Rank choice k, the corresponding residual, and the diagonal term.

    ``singular_values`` holds the leading k singular values, descending, when
    the report came from the leading spectrum, and all of them otherwise.
    """

    k: int
    rank_k_residual: float
    scaled_diag_max: float
    singular_values: np.ndarray


def check_energy(energy: float) -> None:
    """Reject a retained-energy fraction outside (0, 1]."""
    if not (0.0 < energy <= 1.0):
        raise ValueError(f"energy must be in (0, 1], got {energy}")


def _energy_rank(s: np.ndarray, energy: float) -> int:
    """Smallest k whose top-k squared singular values retain ``energy`` of the total."""
    s2 = s**2
    total = s2.sum()
    if total == 0.0:
        return 0
    k = int(np.searchsorted(np.cumsum(s2), energy * total, side="left")) + 1
    return min(k, len(s2))


def rank_k_residual(C, k: int) -> float:
    """Frobenius norm of any matrix C minus its best rank-k approximation.

    By Eckart-Young this equals sqrt(sum of squared singular values past k).
    """
    s = np.linalg.svd(_matrix(C), compute_uv=False)
    if not (0 <= k <= len(s)):
        raise ValueError(f"need 0 <= k <= min(dims) = {len(s)}, got k={k}")
    return float(np.sqrt(np.sum(s[k:] ** 2)))


def _leading_spectrum(K: np.ndarray, energy: float, total: float):
    """(k, rank-k residual, top k singular values) of a symmetric C from its kernel
    K = C C^T and ||C||_F^2 = ``total`` by block Krylov on K, or None where the exact
    path must run (see the module docstring)."""
    n, b = K.shape[0], KRYLOV_BLOCK
    cap = n // 8
    V = np.empty((n, cap))
    KV = np.empty((n, cap))
    T = np.empty((cap, cap))  # V^T K V, filled one block column at a time
    block = np.linalg.qr(np.random.default_rng(0).standard_normal((n, b)))[0]
    m = 0
    while m + b <= cap:
        V[:, m : m + b] = block
        KV[:, m : m + b] = K @ block
        T[: m + b, m : m + b] = V[:, : m + b].T @ KV[:, m : m + b]
        T[m : m + b, :m] = T[:m, m : m + b].T
        m += b
        theta, Y = np.linalg.eigh(T[:m, :m])  # reads the lower triangle
        theta, Y = theta[::-1], Y[:, ::-1]  # K is positive semidefinite: largest sigma^2 first
        energies = np.cumsum(theta)
        k = int(np.searchsorted(energies, energy * total, side="left")) + 1
        if k <= m:
            Yk = Y[:, :k]
            R = KV[:, :m] @ Yk - V[:, :m] @ (Yk * theta[:k])
            if np.max(np.linalg.norm(R, axis=0)) <= RITZ_TOL * theta[0]:
                tail_sq = total - energies[k - 1]
                if tail_sq <= TRACE_FLOOR * total:  # a zero C lands here too
                    return None
                # theta[k - 1] = energies[k - 1] - energies[k - 2] > 0: no negative root
                return k, float(np.sqrt(tail_sq)), np.sqrt(theta[:k])
        # twice: once the Krylov space is (nearly) exhausted, the first pass leaves
        # rounding noise or a rank-deficient block, whose QR basis is not yet
        # orthogonal to V
        block = KV[:, m - b : m]
        for _ in range(2):
            block = np.linalg.qr(block - V[:, :m] @ (V[:, :m].T @ block))[0]
    return None


def spectral_report(kernel: CodeKernel, energy: float = 0.95) -> SpectralReport:
    """Assemble the bound inputs for the code matrix C of ``kernel``, k the effective rank
    at ``energy``."""
    check_energy(energy)
    C = kernel.C
    n = C.shape[0]
    leading = 1.0 - energy > TRACE_FLOOR and n >= LEADING_MIN_N
    spectrum = _leading_spectrum(kernel.K, energy, kernel.code_scale) if leading else None
    if spectrum is None:
        s = np.sort(np.abs(np.linalg.eigvalsh(C)))[::-1]
        k = _energy_rank(s, energy)
        spectrum = k, float(np.sqrt(np.sum(s[k:] ** 2))), s
    k, residual, s = spectrum
    return SpectralReport(
        k=k, rank_k_residual=residual, scaled_diag_max=float(n * np.max(np.diag(C))),
        singular_values=s,
    )
