"""Column-subsampled reconstruction of a symmetric code matrix and its kernel.

Given a symmetric N x N code matrix C, as the ``CodeKernel`` that
``code_kernel`` checked and made of it, and a set of c sampled column indices,
the factors are E = C[:, indices] and W = C[indices, indices]. The
reconstructions are

    C_hat = E W^+ E^T
    K_hat = E M E^T,  M = W^+ E^T E W^+

where W^+ is the Moore-Penrose pseudo-inverse. The pseudo-inverse replaces a
literal inverse because sampled blocks of thresholded code matrices are
frequently singular; it reduces to the inverse when W is invertible.

Eigenpairs. ``decompose`` takes one ``eigh`` of W, which equals its
transpose bit for bit because C does. The eigenpairs with |lambda| above
``PINV_TOL`` times the largest are kept in ``NystromFactors``, ordered by
decreasing |lambda|, so W^+ = U diag(1/lambda) U^T over them. Everything
downstream works in that eigenbasis: with F = E U (N x r), H = F^T F and
Nm = diag(1/lambda) H diag(1/lambda) = U^T M U,

    C_hat = F diag(1/lambda) F^T,  K_hat = F Nm F^T.

Dividing by lambda entrywise after the products keeps the large entries of
W^+ out of every sum, so a near-singular W costs far fewer digits than it
does through W^+ itself. K_hat never materializes C_hat: the inner r x r
matrix is all that is needed.

Trace identities. Scoring a sample needs neither C_hat nor any N x N
product of its own. With P = C E and G = E^T E,

    ||C - E W^+ E^T||_F^2 = ||C||_F^2 - 2 <W^+, E^T P> + <W^+ G, G W^+>
    ||K - E M E^T||_F^2   = ||K||_F^2 - 2 <M, P^T P>   + <M G, G M>

where K = C C^T is the exact kernel and the kernel identity uses
E^T K E = P^T P. K and the two scales ||C||_F^2 and ||K||_F^2 (sum sigma^2
and sum sigma^4 over the singular values of C) depend on C alone, so they
live in the ``CodeKernel`` that ``code_kernel`` makes of C, which every
sample of C holds and is scored against: ||C||_F^2 when C is checked, K (one
N x N syrk) and ||K||_F^2 the first time each is read. Both identities need
C to be symmetric, and so does the cost model: for symmetric C,
P = C C[:, indices] = K[indices, :]^T is c rows of K, so each sample is
scored in N c r work: CF = K[indices, :]^T U equals C F. In the eigenbasis
the three terms of each are ||C||_F^2, 2 sum_i (F^T CF)_ii / lambda_i and
<Nm, H>, and ||K||_F^2, 2 <Nm, CF^T CF> and tr(Nm H Nm H).

Memory. ``decompose`` gathers only the c x c block W; the factors hold the
kernel by reference, and E = C[:, indices] is never gathered. Scoring
writes into one workspace that the ``CodeKernel`` owns, N (c + 2r) doubles
that grow to the largest sample scored and are reused by every later one:
a c x N block takes the sampled rows of C (equal to E^T, as C is symmetric;
a row gather reads c contiguous rows where the column gather strides over
all N) for F = (C[indices, :])^T U, and then the rows K[indices, :] for CF,
and F and CF each take N x r. A sample that fits the workspace as it stands
allocates nothing of size N.

Fallback. The trace forms subtract terms of the size of their scale, so a
residual near zero loses its digits to cancellation; the relative error of
the returned norm was measured at about 2e-15 over the ratio of the squared
residual to its scale. When either squared residual lies below
``TRACE_FLOOR`` of its scale, as for a sample that spans C, both norms are
taken directly instead: ||C - F diag(1/lambda) F^T||_F and
||K - F Nm F^T||_F, against the kernel's own C and K.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coding import _is_symmetric, _matrix

# eigenvalues of W at or below this fraction of the largest magnitude are dropped
PINV_TOL = 1e-10

# a trace-form squared residual below this fraction of ||C||_F^2 (code) or
# ||K||_F^2 (kernel) is recomputed exactly; above it the trace form is good
# to about 2e-10 relative
TRACE_FLOOR = 1e-5


@dataclass(eq=False)
class CodeKernel:
    """A code matrix C that ``code_kernel`` checked, with ||C||_F^2, and its kernel
    K = C C^T with ||K||_F^2, each built the first time it is read: everything that
    scoring a sample of C reads besides the sample's own factors.

    It also owns the workspace that ``approximation_errors`` writes each sample's
    N x c and N x r arrays into, reused from sample to sample, so a CodeKernel is
    not safe to share between threads.
    """

    C: np.ndarray
    code_scale: float
    _work: np.ndarray = field(default_factory=lambda: np.empty(0), init=False, repr=False)

    @cached_property
    def K(self) -> np.ndarray:
        """K = C C^T. numpy takes it by one syrk and copies one triangle into the other,
        so K equals its transpose bit for bit with no symmetrizing pass."""
        return self.C @ self.C.T

    @cached_property
    def kernel_scale(self) -> float:
        """||K||_F^2, which must be finite for the trace forms."""
        scale = float(np.vdot(self.K, self.K))
        if not np.isfinite(scale):
            raise ValueError("||K||_F^2 is not finite: K = C C^T overflows when squared")
        return scale

    def workspace(self, size: int) -> np.ndarray:
        """``size`` doubles of the workspace, which only grows: to the largest size asked for."""
        if self._work.size < size:
            self._work = np.empty(0)  # free the old buffer before the new one is allocated
            self._work = np.empty(size)
        return self._work[:size]


def code_kernel(C) -> CodeKernel:
    """The ``CodeKernel`` of a code matrix, once C is known to be square, non-empty, equal
    to its transpose bit for bit and of finite ||C||_F^2, as the trace forms need it. A NaN
    is looked for only once the symmetry check has failed (a NaN is unequal to itself);
    ||C||_F^2 is NaN only where C holds one, so it is found with no N x N temporary."""
    values = _matrix(C)
    if not _is_symmetric(values):
        if np.isnan(np.vdot(values, values)):
            raise ValueError("C contains NaN")
        raise ValueError(f"C must be square and equal to its transpose, got shape {values.shape}")
    if values.size == 0:
        raise ValueError("C must be non-empty")
    scale = float(np.vdot(values, values))
    if not np.isfinite(scale):
        raise ValueError("||C||_F^2 is not finite: C has an Inf entry or overflows when squared")
    return CodeKernel(values, scale)


@dataclass(frozen=True, eq=False)
class NystromFactors:
    """Sampled column indices of the code matrix of ``kernel``, which is held by
    reference, and the eigenpairs of the sampled square block W kept for its
    pseudo-inverse (W ~ eigvecs diag(eigvals) eigvecs^T)."""

    indices: np.ndarray
    kernel: CodeKernel
    eigvals: np.ndarray
    eigvecs: np.ndarray


def decompose(kernel: CodeKernel, indices) -> NystromFactors:
    """Take the eigenpairs of the sampled block of the code matrix of ``kernel``.

    ``indices`` must be integers, distinct and within range. The sampled block
    W = C[indices, indices] is the only part of C that is copied. The pseudo-inverse
    drops eigenvalues whose magnitude is at most ``PINV_TOL`` times the largest one.
    """
    n = kernel.C.shape[0]
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size < 1:
        raise ValueError("indices must be a non-empty 1-D sequence")
    if idx.dtype.kind not in "iu":
        raise ValueError(f"indices must be integers, got dtype {idx.dtype}")
    idx = idx.astype(int, copy=False)
    if len(np.unique(idx)) != idx.size:
        raise ValueError("indices must be distinct")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"indices out of range 0..{n - 1}")
    lam, U = np.linalg.eigh(kernel.C[np.ix_(idx, idx)])
    mag = np.abs(lam)
    order = np.argsort(mag)[::-1]
    kept = order[mag[order] > PINV_TOL * mag[order[0]]]
    return NystromFactors(indices=idx, kernel=kernel, eigvals=lam[kept], eigvecs=U[:, kept])


@dataclass(frozen=True)
class ApproximationErrors:
    code_err: float
    kernel_err: float


def approximation_errors(f: NystromFactors) -> ApproximationErrors:
    """Frobenius errors of the code and kernel reconstructions of a sample against the
    matrix C it was drawn from and its kernel K = C C^T, both read from ``f.kernel``:
    the trace forms of the module docstring, or below ``TRACE_FLOOR`` the residual
    norms taken directly.
    """
    kernel = f.kernel
    K = kernel.K  # built on its first read; read before the workspace grows, as that faults less
    n, c, r = kernel.C.shape[0], f.indices.size, f.eigvals.size
    work = kernel.workspace(n * (c + 2 * r))
    rows = work[: c * n].reshape(c, n)
    F = work[c * n : (c + r) * n].reshape(n, r)
    CF = work[(c + r) * n :].reshape(n, r)
    # C_hat = F diag(1/lambda) F^T and K_hat = F Nm F^T in the eigenbasis U of W. As C
    # is symmetric, F = E U = C[indices, :]^T U and CF = (C E) U = K[indices, :]^T U, so
    # one c x N block takes the rows of C and then those of K. decompose range-checked
    # the indices; mode "clip" keeps take from buffering ``rows`` in a copy of its size
    np.matmul(np.take(kernel.C, f.indices, axis=0, out=rows, mode="clip").T, f.eigvecs, out=F)
    np.matmul(np.take(K, f.indices, axis=0, out=rows, mode="clip").T, f.eigvecs, out=CF)
    inv = 1.0 / f.eigvals
    H = F.T @ F
    Nm = H * np.outer(inv, inv)
    NH = Nm @ H
    code_sq = kernel.code_scale - 2.0 * float(np.einsum("ij,ij->j", F, CF) @ inv) + np.vdot(Nm, H)
    kernel_sq = kernel.kernel_scale - 2.0 * np.vdot(Nm, CF.T @ CF) + np.vdot(NH, NH.T)
    if (code_sq >= TRACE_FLOOR * kernel.code_scale
            and kernel_sq >= TRACE_FLOOR * kernel.kernel_scale):
        return ApproximationErrors(
            code_err=float(np.sqrt(code_sq)), kernel_err=float(np.sqrt(kernel_sq))
        )
    return _residual_norms(kernel.C, K, F, inv, Nm)


def _residual_norms(values, K, F, inv, Nm) -> ApproximationErrors:
    """The exact path: ||C - F diag(1/lambda) F^T||_F and ||K - F Nm F^T||_F."""
    code_err = np.linalg.norm(values - (F * inv) @ F.T)
    kernel_err = np.linalg.norm(K - F @ Nm @ F.T)
    return ApproximationErrors(code_err=float(code_err), kernel_err=float(kernel_err))
