"""One-vs-rest ridge classifier over code features.

Closed-form and deterministic: each class solves the same regularized normal
equations with a different +/-1 target vector, so all classes share one matrix
factorization. The bias acts as a constant feature excluded from the
regularizer; the normal equations are assembled from C^T C and one product
(targets | 1)^T C that gives C^T y and the column sums of C together, so no
augmented copy of the code matrix is made and each product reads C once.

Scores are taken as (W^T C^T)^T: threaded OpenBLAS computes C W in a resident work
area of about N * c * 8 bytes (capped near 48 MB), (W^T C^T)^T in about 2 MB and
faster. The two may round a score apart in its last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import CodeMatrix


@dataclass(frozen=True, eq=False)
class LinearModel:
    weights: np.ndarray  # (c, L)
    bias: np.ndarray  # (L,)


def train_ridge(C: CodeMatrix, labels: np.ndarray, n_classes: int, lam: float) -> LinearModel:
    """Fit one ridge regressor per class on +/-1 targets.

    Solves (F^T F + lam * D) w = F^T y per class, where F is the code matrix
    with a constant column appended and D is the identity with a zero in the
    bias position. F is never built: the Gram is C^T C bordered by the column
    sums of C and N in the corner, and the right-hand side is C^T y over the
    per-class sums of y. C^T y and the column sums come from one product
    S C, where S stacks the L target rows over a row of ones. Only the C^T C
    block keeps the bits of the augmented products; C^T y and the column sums
    may differ from them in the last bits, since the products add in
    different orders.
    """
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    if not (np.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be finite and > 0, got {lam}")
    labels = np.asarray(labels)
    if labels.shape != (C.N,):
        raise ValueError(f"labels must have shape ({C.N},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("labels must lie in [0, n_classes)")

    V = C.values
    S = np.ones((n_classes + 1, C.N))  # +/-1 target rows, then a row of ones
    S[:n_classes] = np.where(np.arange(n_classes)[:, None] == labels[None, :], 1.0, -1.0)
    P = S @ V  # one read of C: C^T y transposed, then the column sums
    gram = np.empty((C.c + 1, C.c + 1))
    gram[: C.c, : C.c] = V.T @ V
    gram[C.c, : C.c] = gram[: C.c, C.c] = P[n_classes]
    gram[C.c, C.c] = C.N
    gram[np.arange(C.c), np.arange(C.c)] += lam  # the bias is not regularized
    rhs = np.vstack([P[:n_classes].T, S[:n_classes].sum(axis=1)])
    solution = np.linalg.solve(gram, rhs)
    return LinearModel(weights=solution[:-1, :], bias=solution[-1, :])


def predict(model: LinearModel, C: CodeMatrix) -> np.ndarray:
    """Argmax class per row of the scores C W + b, with C W taken as (W^T C^T)^T so that
    OpenBLAS keeps no N x c work area resident; ties resolve to the lowest class index."""
    if C.c != model.weights.shape[0]:
        raise ValueError(
            f"feature dim mismatch: codes have c={C.c}, model expects {model.weights.shape[0]}"
        )
    return np.argmax((model.weights.T @ C.values.T).T + model.bias, axis=1)


def accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of exact label matches."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    return float(np.mean(pred == truth))
