"""Reconstruction-error bound and the two-point saturation model.

The sampling condition c >= 64 k / eps^4 gives, at equality, the smallest
admissible eps for a codebook of size c: eps = (64 k / c)^(1/4). Plugging it
into the column-sampling bound yields

    ||C - C_hat||_F <= ||C - C_k||_F + (64 k / c)^(1/4) * N max_i C_ii

which as a function of c has the shape O + M * c^(-1/4). The same two-constant
family describes kernel reconstruction error and, with the sign flipped,
accuracy approaching its asymptote from below: A - B * c^(-1/4). Both constants
are always determined from exactly two observed (c, value) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spectra import SpectralReport

ERROR_FORM = "error"
ACCURACY_FORM = "accuracy"
_SIGN = {ERROR_FORM: 1.0, ACCURACY_FORM: -1.0}  # the slope's sign in each form

FitPoint = tuple[float, float]  # (codebook size, observed value)


@dataclass(frozen=True)
class SaturationModel:
    """Two-constant model value(c) = offset +/- slope * c^(-1/4).

    ``form="error"`` uses the plus sign (value decays toward ``offset``);
    ``form="accuracy"`` uses the minus sign (value rises toward ``offset``).
    ``flagged`` marks an accuracy fit whose slope came out negative, i.e. the
    two observations do not show saturation from below. The field order is the
    key order of a model in the JSON report.
    """

    form: str
    offset: float
    slope: float
    fit_points: tuple[FitPoint, FitPoint]
    flagged: bool = False


def epsilon_min(c: int, k: int) -> float:
    """Smallest eps admitted by the sampling condition at equality: (64 k / c)^(1/4)."""
    if c < 1 or k < 1:
        raise ValueError(f"need c >= 1 and k >= 1, got c={c}, k={k}")
    return (64.0 * k / c) ** 0.25


def eval_eq1_bound(report: SpectralReport, c: int) -> float:
    """Evaluate the code-reconstruction bound at codebook size c."""
    return report.rank_k_residual + epsilon_min(c, report.k) * report.scaled_diag_max


def _sign(form: str) -> float:
    if form not in _SIGN:
        raise ValueError(f"form must be one of {tuple(_SIGN)}, got {form!r}")
    return _SIGN[form]


def fit_two_point(p1: FitPoint, p2: FitPoint, form: str) -> SaturationModel:
    """Solve value_i = offset +/- slope * c_i^(-1/4) exactly from two points."""
    sign = _sign(form)
    (c1, v1), (c2, v2) = p1, p2
    if c1 < 1 or c2 < 1:
        raise ValueError("codebook sizes must be >= 1")
    if c1 == c2:
        raise ValueError(f"fit points need distinct codebook sizes, both are {c1}")
    t1 = float(c1) ** -0.25
    t2 = float(c2) ** -0.25
    slope = (v1 - v2) / (sign * (t1 - t2))
    offset = v1 - sign * slope * t1
    flagged = form == ACCURACY_FORM and slope < 0.0
    return SaturationModel(
        offset=offset,
        slope=slope,
        form=form,
        fit_points=((float(c1), float(v1)), (float(c2), float(v2))),
        flagged=flagged,
    )


def predict(model: SaturationModel, c: int) -> float:
    """Evaluate the saturation model at codebook size c."""
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    return model.offset + _sign(model.form) * model.slope * float(c) ** -0.25
