"""Acceptance suite: one test per numbered criterion.

Each test prints an `ACCEPTANCE <n> ...: PASS/FAIL` line (run pytest with -s
to see them live; they also appear in failure output). Criterion 10, the
whole-suite wall clock, is enforced by conftest.pytest_sessionfinish.

Experiment configs and tolerances here are pinned: they were fixed after the
first verified run and must not be retuned to make a failing criterion pass.
"""

import time

import numpy as np
import pytest

from nyscode.bounds import ACCURACY_FORM, ERROR_FORM, fit_two_point, predict
from nyscode.dictionary import kcenters, kmeans
from nyscode.data import DataMatrix
from nyscode.harness import (
    CurveConfig,
    NystromEvalConfig,
    PdlConfig,
    report_csv,
    run_curve,
    run_nystrom_eval,
    run_pdl_compare,
)
from nyscode.nystrom import approximation_errors, code_kernel, decompose
from nyscode.spectra import rank_k_residual
from oracles import covering_radius, reconstruct_code

# pinned experiment configs (criteria 3, 5, 8, 9)
CURVE5_CONFIG = dict(
    c_grid=[8, 16, 32, 64, 128],
    seeds=[0, 1, 2, 3, 4],
    d=32,
    k=4,
    n_samples=800,
    classes=4,
    noise=0.15,
    class_sep=1.6,
    within=0.9,
    modes_per_class=4,
    data_seed=0,
    alpha=0.25,
    lam=6.4,
    split_seed=0,
)
PREDICTION_TOLERANCE = 0.08  # criterion 5(c), absolute

PDL8_CONFIG = dict(
    final_c_grid=[16],
    overshoots=[1, 2],
    seeds=[0, 1, 2, 3, 4],
    images_per_class=150,
    classes=2,
    image_size=8,
    patch=4,
    stride=4,
    prototypes_per_class=12,
    noise=0.8,
    data_seed=0,
    regions=(2, 2),
    pool_op="average",
)

NYS3_CONFIG = dict(
    c_grid=[16, 32, 64, 128],
    seeds=list(range(25)),
    k_list=[2, 4],
    d=32,
    n_samples=256,
    noise=0.05,
    data_seed=0,
    alpha=0.25,
    energy=0.95,
)


def _verdict(num: int, desc: str, ok: bool, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} ({desc}): {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def _symmetrize(M):
    return (M + M.T) / 2.0


def _spanning_columns(C, rank, rng):
    n = C.shape[0]
    for _ in range(200):
        idx = np.sort(rng.choice(n, size=rank, replace=False))
        s = np.linalg.svd(C[np.ix_(idx, idx)], compute_uv=False)
        if s[-1] > 1e-6 * s[0]:
            return idx
    raise AssertionError("no spanning column subset found")


@pytest.fixture(scope="module")
def curve5_report():
    start = time.monotonic()
    report = run_curve(CurveConfig(**CURVE5_CONFIG))
    return report, time.monotonic() - start


def test_criterion_1_nystrom_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_code, worst_kernel = 0.0, 0.0
    for i in range(50):
        r = i % 4 + 1
        A = rng.standard_normal((32, r))
        C = _symmetrize(A @ A.T)
        idx = _spanning_columns(C, r, rng)
        errs = approximation_errors(decompose(code_kernel(C), idx))
        K = _symmetrize(C @ C.T)
        worst_code = max(worst_code, errs.code_err / np.linalg.norm(C))
        worst_kernel = max(worst_kernel, errs.kernel_err / np.linalg.norm(K))
    elapsed = time.monotonic() - start
    ok = worst_code <= 1e-8 and worst_kernel <= 1e-7 and elapsed <= 5.0
    _verdict(
        1,
        "exact recovery of rank-r PSD matrices from r spanning columns",
        ok,
        f"worst code rel {worst_code:.2e}, worst kernel rel {worst_kernel:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_slice_consistency():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    done = 0
    while done < 100:
        n = int(rng.integers(10, 30))
        C = _symmetrize(rng.standard_normal((n, n)))
        c = int(rng.integers(2, 9))
        idx = np.sort(rng.choice(n, size=c, replace=False))
        W = C[np.ix_(idx, idx)]
        s = np.linalg.svd(W, compute_uv=False)
        if s[-1] <= 1e-8 * s[0]:
            continue  # criterion applies only to numerically full-rank W
        rec = reconstruct_code(decompose(code_kernel(C), idx))
        rel = np.linalg.norm(rec[idx, :] - C[idx, :]) / np.linalg.norm(C[idx, :])
        worst = max(worst, rel)
        done += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed <= 5.0
    _verdict(
        2,
        "reconstruction matches sampled rows when W is full-rank",
        ok,
        f"worst rel {worst:.2e} over 100 pairs, {elapsed:.2f} s",
    )


def test_criterion_3_bound_coverage():
    start = time.monotonic()
    report = run_nystrom_eval(NystromEvalConfig(**NYS3_CONFIG))
    elapsed = time.monotonic() - start
    n_cells = len(report.cells)
    ok = n_cells == 200 and report.coverage >= 0.95 and elapsed <= 60.0
    _verdict(
        3,
        "bound covers measured code error in >= 95% of cells",
        ok,
        f"coverage {report.coverage:.3f} over {n_cells} cells, {elapsed:.1f} s",
    )


def test_criterion_4_two_point_fit_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        c1, c2 = rng.integers(1, 100000, size=2)
        if c1 == c2:
            c2 = c1 + 1
        v1, v2 = rng.normal(0.0, 5.0, size=2)
        form = ERROR_FORM if rng.integers(2) else ACCURACY_FORM
        model = fit_two_point((int(c1), float(v1)), (int(c2), float(v2)), form)
        for c, v in ((c1, v1), (c2, v2)):
            rel = abs(predict(model, int(c)) - v) / max(abs(v), 1e-12)
            worst = max(worst, rel)
    worked = fit_two_point((16, 3.0), (256, 2.0), ERROR_FORM)
    exact = worked.offset == 1.0 and worked.slope == 4.0
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and exact and elapsed <= 1.0
    _verdict(
        4,
        "two-point fits reproduce their inputs; worked example exact",
        ok,
        f"worst rel {worst:.2e} over 1000 pairs, O/M exact: {exact}, {elapsed:.2f} s",
    )


def test_criterion_5_saturation_shape(curve5_report):
    report, elapsed = curve5_report
    accs = [p.test_acc for p in report.curve]
    monotone = all(accs[i + 1] >= accs[i] for i in range(len(accs) - 1))
    first_incr = accs[1] - accs[0]
    last_incr = accs[-1] - accs[-2]
    saturating = last_incr < first_incr
    pred = report.curve[-1].pred_test
    pred_err = abs(pred - accs[-1])
    ok = monotone and saturating and pred_err <= PREDICTION_TOLERANCE and elapsed <= 120.0
    _verdict(
        5,
        "accuracy curve rises, saturates, and is predicted from the first two sizes",
        ok,
        f"accs={[round(a, 4) for a in accs]}, pred(128)={pred:.4f}, "
        f"|pred-emp|={pred_err:.4f} (tol {PREDICTION_TOLERANCE}), {elapsed:.1f} s",
    )


def test_criterion_6_rank_k_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(5)
    matrices = [rng.standard_normal((6, 6)) for _ in range(5)]
    matrices.append(np.diag([3.0, 2.0, 1.0, 0.5, 0.25, 0.1]))
    beaten = True
    for C in matrices:
        for k in (1, 2, 3):
            best = rank_k_residual(C, k)
            for _ in range(200):
                R = rng.standard_normal((6, k)) @ rng.standard_normal((k, 6))
                if best > np.linalg.norm(C - R) + 1e-12:
                    beaten = False
    diag_exact = abs(rank_k_residual(np.diag([3.0, 2.0, 1.0]), 1) - np.sqrt(5.0)) <= 1e-12
    elapsed = time.monotonic() - start
    ok = beaten and diag_exact and elapsed <= 10.0
    _verdict(
        6,
        "SVD residual beats 200 random rank-k competitors; diagonal case exact",
        ok,
        f"diag residual exact: {diag_exact}, {elapsed:.1f} s",
    )


def test_criterion_7_clustering_properties():
    start = time.monotonic()
    monotone_kmeans = True
    for seed in range(20):
        X = DataMatrix(np.random.default_rng(seed).standard_normal((5, 80)))
        hist = np.array(kmeans(X, c=7, max_iters=25, seed=seed).history)
        if not np.all(np.diff(hist) <= 1e-12 * max(hist[0], 1.0)):
            monotone_kmeans = False

    F = np.random.default_rng(99).standard_normal((40, 3))
    radii = [covering_radius(F, kcenters(F, c, seed=0, first=0)) for c in range(1, 20)]
    monotone_radius = all(radii[i + 1] <= radii[i] + 1e-12 for i in range(len(radii) - 1))

    line = kcenters(np.array([[0.0], [1.0], [10.0]]), 2, seed=0, first=0)
    line_ok = line == [0, 2]

    elapsed = time.monotonic() - start
    ok = monotone_kmeans and monotone_radius and line_ok and elapsed <= 10.0
    _verdict(
        7,
        "K-means objective and K-centers radius monotone; line instance exact",
        ok,
        f"kmeans mono: {monotone_kmeans}, radius mono: {monotone_radius}, "
        f"line pick: {line}, {elapsed:.1f} s",
    )


def test_criterion_8_pdl_non_inferiority():
    start = time.monotonic()
    report = run_pdl_compare(PdlConfig(**PDL8_CONFIG))
    rows = {r.overshoot: r for r in report.pdl_rows}
    delta_1x = rows[1].delta_vs_baseline
    delta_2x = rows[2].delta_vs_baseline
    elapsed = time.monotonic() - start
    ok = delta_1x == 0.0 and delta_2x >= -0.02 and elapsed <= 180.0
    _verdict(
        8,
        "pruned 2x dictionary is non-inferior to the direct baseline",
        ok,
        f"baseline {rows[1].test_acc:.4f}, 2x {rows[2].test_acc:.4f}, "
        f"delta {delta_2x:+.4f} (>= -0.02), 1x delta {delta_1x}, {elapsed:.1f} s",
    )


def test_criterion_9_determinism(curve5_report):
    report, _ = curve5_report
    start = time.monotonic()
    rerun = run_curve(CurveConfig(**CURVE5_CONFIG))
    identical = report_csv(rerun) == report_csv(report)
    elapsed = time.monotonic() - start
    ok = identical and elapsed <= 60.0
    _verdict(
        9,
        "re-running the saturation config yields byte-identical CSV",
        ok,
        f"identical: {identical}, {elapsed:.1f} s",
    )
