"""Column-subsampled reconstruction of a symmetric code matrix and its kernel.

Given a symmetric N x N code matrix C and a set of c sampled column indices,
the factors are E = C[:, indices] and W = C[indices, indices]. The
reconstructions are

    C_hat = E W^+ E^T
    K_hat = E M E^T,  M = W^+ E^T E W^+

where W^+ is the Moore-Penrose pseudo-inverse. The pseudo-inverse replaces a
literal inverse because sampled blocks of thresholded code matrices are
frequently singular; it reduces to the inverse when W is invertible.

Eigenpairs. ``decompose`` requires W to equal its transpose exactly and takes
one ``eigh`` of it. The eigenpairs with |lambda| above ``PINV_TOL`` times the
largest are kept in ``NystromFactors``, ordered by decreasing |lambda|, so
W^+ = U diag(1/lambda) U^T over them. Everything downstream works in that
eigenbasis: with F = E U (N x r), H = F^T F and
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
and sum sigma^4 over the singular values of C) depend on C alone, so
``code_kernel`` builds them once per code matrix (one N x N syrk) into a
``CodeKernel`` that every sample of C is scored against. Both identities
need C to be symmetric, and so does the cost model: for symmetric C,
P = C C[:, indices] = K[indices, :]^T is c rows of K, so each sample is
scored in N c r work: CF = K[indices, :]^T U equals C F. In the eigenbasis
the three terms of each are ||C||_F^2, 2 sum_i (F^T CF)_ii / lambda_i and
<Nm, H>, and ||K||_F^2, 2 <Nm, CF^T CF> and tr(Nm H Nm H).

Memory. ``decompose`` gathers only the c x c block W; the factors hold C by
reference, and E = C[:, indices] is gathered only when it is read. Scoring
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
||K - F Nm F^T||_F, against the kernel's own C and K. Which path runs
depends only on C and the sample, never on whether the caller passed a
``CodeKernel`` or a plain matrix, so the two give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coding import _matrix, gram_kernel

# eigenvalues of W at or below this fraction of the largest magnitude are dropped
PINV_TOL = 1e-10

# a trace-form squared residual below this fraction of ||C||_F^2 (code) or
# ||K||_F^2 (kernel) is recomputed exactly; above it the trace form is good
# to about 2e-10 relative
TRACE_FLOOR = 1e-5


@dataclass(frozen=True, eq=False)
class NystromFactors:
    """Sampled column indices of a symmetric matrix C, which is held by reference,
    and the eigenpairs of the sampled square block W kept for its pseudo-inverse
    (W ~ eigvecs diag(eigvals) eigvecs^T)."""

    indices: np.ndarray
    C: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray

    @property
    def E(self) -> np.ndarray:
        """The sampled columns C[:, indices] (N x c), gathered on each access."""
        return np.take(self.C, self.indices, axis=1)


def decompose(C, indices) -> NystromFactors:
    """Take the eigenpairs of the sampled block of a square symmetric matrix.

    ``indices`` must be integers, distinct and within range, and the sampled
    block W = C[indices, indices], the only part of C that is copied, must equal
    its transpose. The pseudo-inverse drops eigenvalues whose magnitude is at
    most ``PINV_TOL`` times the largest one.
    """
    values = _matrix(C)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"C must be square, got shape {values.shape}")
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size < 1:
        raise ValueError("indices must be a non-empty 1-D sequence")
    if idx.dtype.kind not in "iu":
        raise ValueError(f"indices must be integers, got dtype {idx.dtype}")
    idx = idx.astype(int, copy=False)
    if len(np.unique(idx)) != idx.size:
        raise ValueError("indices must be distinct")
    if idx.min() < 0 or idx.max() >= values.shape[0]:
        raise ValueError(f"indices out of range 0..{values.shape[0] - 1}")
    W = values[np.ix_(idx, idx)]
    if not np.array_equal(W, W.T):
        raise ValueError("C must be symmetric: the sampled block W differs from its transpose")
    lam, U = np.linalg.eigh(W)
    mag = np.abs(lam)
    order = np.argsort(mag)[::-1]
    kept = order[mag[order] > PINV_TOL * mag[order[0]]]
    return NystromFactors(indices=idx, C=values, eigvals=lam[kept], eigvecs=U[:, kept])


@dataclass(frozen=True)
class ApproximationErrors:
    code_err: float
    kernel_err: float


@dataclass(eq=False)
class CodeKernel:
    """A symmetric code matrix C with its kernel K = C C^T and the scales of the
    trace forms, ||C||_F^2 and ||K||_F^2: everything that scoring a sample of C
    reads besides the sample's own factors.

    It also owns the workspace that ``approximation_errors`` writes each sample's
    N x c and N x r arrays into, reused from sample to sample, so a CodeKernel is
    not safe to share between threads.
    """

    C: np.ndarray
    K: np.ndarray
    code_scale: float
    kernel_scale: float
    _work: np.ndarray = field(default_factory=lambda: np.empty(0), init=False, repr=False)

    def workspace(self, size: int) -> np.ndarray:
        """``size`` doubles of the workspace, which only grows: to the largest size asked for."""
        if self._work.size < size:
            self._work = np.empty(0)  # free the old buffer before the new one is allocated
            self._work = np.empty(size)
        return self._work[:size]


def code_kernel(C) -> CodeKernel:
    """Build the ``CodeKernel`` of a symmetric code matrix: one syrk for K."""
    values = _matrix(C)
    K = gram_kernel(values)
    return CodeKernel(values, K, float(np.vdot(values, values)), float(np.vdot(K, K)))


def approximation_errors(C, f: NystromFactors) -> ApproximationErrors:
    """Frobenius errors of the code and kernel reconstructions against C and K = C C^T.

    ``C`` is a symmetric matrix (``decompose`` checks only the sampled block W)
    or its ``CodeKernel``, of the size of the matrix ``f`` was sampled from. A
    plain matrix has its kernel built for this call, so a caller scoring several
    samples of one C passes ``code_kernel(C)``, whose workspace every sample
    reuses; either way the trace forms of the module docstring run, or below
    ``TRACE_FLOOR`` the residual norms taken directly.
    """
    values = C.C if isinstance(C, CodeKernel) else _matrix(C)
    n = f.C.shape[0]
    if values.shape[0] != n:
        raise ValueError(f"the factors were sampled from an N={n} matrix, "
                         f"but C has N={values.shape[0]}")
    kernel = C if isinstance(C, CodeKernel) else code_kernel(values)
    c, r = f.indices.size, f.eigvals.size
    work = kernel.workspace(n * (c + 2 * r))
    rows = work[: c * n].reshape(c, n)
    F = work[c * n : (c + r) * n].reshape(n, r)
    CF = work[(c + r) * n :].reshape(n, r)
    # C_hat = F diag(1/lambda) F^T and K_hat = F Nm F^T in the eigenbasis U of W. As C
    # is symmetric, F = E U = C[indices, :]^T U and CF = (C E) U = K[indices, :]^T U, so
    # one c x N block takes the rows of C and then those of K. decompose range-checked
    # the indices; mode "clip" keeps take from buffering ``rows`` in a copy of its size
    np.matmul(np.take(f.C, f.indices, axis=0, out=rows, mode="clip").T, f.eigvecs, out=F)
    np.matmul(np.take(kernel.K, f.indices, axis=0, out=rows, mode="clip").T, f.eigvecs, out=CF)
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
    return _residual_norms(kernel.C, kernel.K, F, inv, Nm)


def _residual_norms(values, K, F, inv, Nm) -> ApproximationErrors:
    """The exact path: ||C - F diag(1/lambda) F^T||_F and ||K - F Nm F^T||_F."""
    code_err = np.linalg.norm(values - (F * inv) @ F.T)
    kernel_err = np.linalg.norm(K - F @ Nm @ F.T)
    return ApproximationErrors(code_err=float(code_err), kernel_err=float(kernel_err))
