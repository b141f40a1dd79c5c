"""Plain-numpy oracles that the tests compare the library with.

The library scores a Nystrom sample without forming W, W^+, C_hat or K_hat,
and picks K-centers without reporting their covering radius. These helpers
build each of them directly: the Nystrom ones from the factors that
``decompose`` returns, so the tests still check the library's decomposition.
"""

import numpy as np


def sampled_columns(f):
    """E = C[:, indices] (N x c): the sampled columns of the code matrix in the factors' kernel."""
    return np.take(f.kernel.C, f.indices, axis=1)


def sampled_block(f):
    """W = C[indices, indices]: the sampled columns E restricted to the sampled rows."""
    return sampled_columns(f)[f.indices]


def w_pinv(f):
    """The pseudo-inverse of W over the kept eigenpairs, U diag(1/lambda) U^T."""
    return (f.eigvecs / f.eigvals) @ f.eigvecs.T


def reconstruct_code(f):
    """C_hat = E W^+ E^T = F diag(1/lambda) F^T with F = E U (N x N)."""
    F = sampled_columns(f) @ f.eigvecs
    return (F * (1.0 / f.eigvals)) @ F.T


def reconstruct_kernel(f):
    """K_hat = E M E^T = F Nm F^T with Nm = diag(1/lambda) F^T F diag(1/lambda) (N x N)."""
    F = sampled_columns(f) @ f.eigvecs
    inv = 1.0 / f.eigvals
    return F @ ((F.T @ F) * np.outer(inv, inv)) @ F.T


def covering_radius(F, selected):
    """Max over the rows of F of the distance to the nearest selected row."""
    F = np.asarray(F, dtype=float)
    d2 = np.min([((F - F[s]) ** 2).sum(axis=1) for s in selected], axis=0)
    return float(np.sqrt(d2.max()))
