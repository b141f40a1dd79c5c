"""One-vs-rest ridge classifier over code features.

Closed-form and deterministic: each class solves the same regularized normal
equations with a different +/-1 target vector, so all classes share one matrix
factorization. The bias enters as an augmented constant feature excluded from
the regularizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import CodeMatrix


@dataclass(frozen=True, eq=False)
class LinearModel:
    weights: np.ndarray  # (c, L)
    bias: np.ndarray  # (L,)
    lam: float


def train_ridge(C: CodeMatrix, labels: np.ndarray, n_classes: int, lam: float) -> LinearModel:
    """Fit one ridge regressor per class on +/-1 targets.

    Solves (F_hat^T F_hat + lam * D) w = F_hat^T y per class, where F_hat is the
    code matrix with a constant column appended and D is the identity with a
    zero in the bias position.
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

    F = np.column_stack([C.values, np.ones(C.N)])
    reg = lam * np.eye(C.c + 1)
    reg[C.c, C.c] = 0.0  # bias is not regularized
    gram = F.T @ F + reg
    targets = np.where(labels[:, None] == np.arange(n_classes)[None, :], 1.0, -1.0)
    solution = np.linalg.solve(gram, F.T @ targets)
    return LinearModel(weights=solution[:-1, :], bias=solution[-1, :], lam=lam)


def predict(model: LinearModel, C: CodeMatrix) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index."""
    return np.argmax(scores(model, C), axis=1)


def scores(model: LinearModel, C: CodeMatrix) -> np.ndarray:
    """Raw per-class scores (N x L)."""
    if C.c != model.weights.shape[0]:
        raise ValueError(
            f"feature dim mismatch: codes have c={C.c}, model expects {model.weights.shape[0]}"
        )
    return C.values @ model.weights + model.bias


def accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of exact label matches."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    return float(np.mean(pred == truth))
