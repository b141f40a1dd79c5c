import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nyscode
from nyscode.classifier import LinearModel, accuracy, predict, train_ridge
from nyscode.coding import CodeMatrix


def _codes(values):
    return CodeMatrix(np.asarray(values, dtype=float))


def _separable_problem(seed, n=20, c=4):
    # two well-separated non-negative clusters in code space
    rng = np.random.default_rng(seed)
    half = n // 2
    a = np.abs(rng.normal(1.0, 0.1, (half, c)))
    b = np.abs(rng.normal(1.0, 0.1, (n - half, c)))
    a[:, 0] += 4.0
    b[:, 1] += 4.0
    values = np.concatenate([a, b], axis=0)
    labels = np.array([0] * half + [1] * (n - half))
    return _codes(values), labels


class TestTrainRidge:
    def test_separable_perfect_training_accuracy(self):
        C = _codes([[1.0, 0.0], [0.0, 1.0]])
        model = train_ridge(C, np.array([0, 1]), 2, lam=1e-6)
        assert accuracy(predict(model, C), [0, 1]) == 1.0

    def test_huge_lambda_scores_collapse_to_class_means(self):
        # balanced targets have per-class mean 0: all scores shrink to ~0
        rng = np.random.default_rng(0)
        C = _codes(np.abs(rng.standard_normal((40, 6))))
        labels = np.arange(40) % 2
        model = train_ridge(C, labels, 2, lam=1e9)
        assert np.abs(C.values @ model.weights + model.bias).max() < 1e-6

    def test_huge_lambda_unbalanced_collapses_to_majority(self):
        rng = np.random.default_rng(1)
        C = _codes(np.abs(rng.standard_normal((40, 6))))
        labels = np.array([0] * 30 + [1] * 10)
        model = train_ridge(C, labels, 2, lam=1e9)
        assert np.all(predict(model, C) == 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_normal_equations_oracle(self, seed):
        C, labels = _separable_problem(seed)
        lam = 1e-4
        model = train_ridge(C, labels, 2, lam)

        # independent solve: stacked least squares on [F, 1; sqrt(lam) D, 0]
        F = np.column_stack([C.values, np.ones(C.N)])
        tail = np.sqrt(lam) * np.eye(C.c + 1)
        tail[C.c, C.c] = 0.0
        targets = np.where(labels[:, None] == np.arange(2)[None, :], 1.0, -1.0)
        stacked_A = np.concatenate([F, tail], axis=0)
        stacked_b = np.concatenate([targets, np.zeros((C.c + 1, 2))], axis=0)
        oracle_w, *_ = np.linalg.lstsq(stacked_A, stacked_b, rcond=None)
        oracle_scores = F @ oracle_w
        oracle_pred = np.argmax(oracle_scores, axis=1)

        assert np.array_equal(predict(model, C), oracle_pred)
        assert accuracy(predict(model, C), labels) == 1.0

    def test_single_class_rejected(self):
        C = _codes([[1.0], [2.0]])
        with pytest.raises(ValueError):
            train_ridge(C, np.array([0, 0]), 1, lam=1.0)

    def test_non_positive_lambda_rejected(self):
        C = _codes([[1.0], [2.0]])
        with pytest.raises(ValueError):
            train_ridge(C, np.array([0, 1]), 2, lam=0.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        C = _codes([[1.0], [2.0]])
        with pytest.raises(ValueError, match="lam must be finite"):
            train_ridge(C, np.array([0, 1]), 2, lam=lam)

    def test_label_shape_mismatch(self):
        C = _codes([[1.0], [2.0]])
        with pytest.raises(ValueError):
            train_ridge(C, np.array([0, 1, 0]), 2, lam=1.0)

    @pytest.mark.parametrize("labels", [[0, 2], [-1, 1]], ids=["too-large", "negative"])
    def test_label_out_of_range(self, labels):
        C = _codes([[1.0], [2.0]])
        with pytest.raises(ValueError, match=r"labels must lie in \[0, n_classes\)"):
            train_ridge(C, np.array(labels), 2, lam=1.0)

    def test_bias_not_regularized(self):
        # constant shift of all targets is absorbed entirely by the bias
        C = _codes(np.abs(np.random.default_rng(3).standard_normal((30, 4))))
        labels = np.arange(30) % 2
        model = train_ridge(C, labels, 2, lam=1e8)
        # with weights ~0, the bias still reproduces the class target means
        means = [np.mean(np.where(labels == 0, 1.0, -1.0)), np.mean(np.where(labels == 1, 1.0, -1.0))]
        assert np.allclose(model.bias, means, atol=1e-6)


def _augmented_ridge(C, labels, n_classes, lam):
    """The normal equations solved on the code matrix with a ones column appended."""
    F = np.column_stack([C.values, np.ones(C.N)])
    reg = lam * np.eye(C.c + 1)
    reg[C.c, C.c] = 0.0
    targets = np.where(labels[:, None] == np.arange(n_classes)[None, :], 1.0, -1.0)
    solution = np.linalg.solve(F.T @ F + reg, F.T @ targets)
    return LinearModel(weights=solution[:-1, :], bias=solution[-1, :])


def _ridge_problem(N, c, seed):
    rng = np.random.default_rng(seed)
    values = np.maximum(0.0, rng.standard_normal((N, c)) + 0.3)
    return CodeMatrix(values), rng.integers(0, 4, N)


def _degenerate_problem():
    # an all-zero column and two duplicate columns
    C, labels = _ridge_problem(300, 7, 3)
    values = C.values.copy()
    values[:, 2] = 0.0
    values[:, 5] = values[:, 4]
    return CodeMatrix(values), labels


class TestRidgeWithoutAugmentedCopy:
    @pytest.mark.parametrize(
        "problem",
        [
            lambda: _ridge_problem(300, 7, 0),
            lambda: _ridge_problem(4000, 256, 1),
            lambda: _ridge_problem(500, 1, 2),
            _degenerate_problem,
        ],
        ids=["300x7", "4000x256", "c1", "zero-and-duplicate-columns"],
    )
    def test_matches_augmented_oracle(self, problem):
        C, labels = problem()
        lam = 1e-3 * C.N
        model = train_ridge(C, labels, 4, lam)
        oracle = _augmented_ridge(C, labels, 4, lam)
        for ours, ref in ((model.weights, oracle.weights), (model.bias, oracle.bias)):
            assert np.linalg.norm(ours - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(predict(model, C), predict(oracle, C))

    @pytest.mark.parametrize(
        "layout, n_classes, labels_below",
        [("c-order", 4, 3), ("f-order", 4, 4), ("column-strided", 4, 4), ("c-order", 2, 2)],
        ids=["absent-class", "f-order", "column-strided", "two-classes"],
    )
    def test_one_product_rhs_matches_augmented_oracle(self, layout, n_classes, labels_below):
        # labels_below < n_classes leaves a class whose target column is all -1
        rng = np.random.default_rng(5)
        values = np.maximum(0.0, rng.standard_normal((700, 38)) + 0.3)
        if layout == "f-order":
            values = np.asfortranarray(values)
        C = CodeMatrix(values[:, ::2] if layout == "column-strided" else values[:, :19])
        labels = rng.integers(0, labels_below, C.N)
        model = train_ridge(C, labels, n_classes, 1e-3 * C.N)
        oracle = _augmented_ridge(C, labels, n_classes, 1e-3 * C.N)
        for ours, ref in ((model.weights, oracle.weights), (model.bias, oracle.bias)):
            assert np.linalg.norm(ours - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(predict(model, C), predict(oracle, C))

    def test_peak_allocation_below_one_code_matrix(self):
        # the augmented copy alone was N x (c + 1) floats
        C, labels = _ridge_problem(20_000, 64, 4)
        tracemalloc.start()
        try:
            train_ridge(C, labels, 4, lam=20.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < C.values.nbytes


class TestPredict:
    def test_identity_weights_on_one_hot(self):
        model = LinearModel(weights=np.eye(3), bias=np.zeros(3))
        C = _codes(np.eye(3)[[2, 0, 1]])
        assert np.array_equal(predict(model, C), [2, 0, 1])

    def test_zero_weights_tie_break_to_class_zero(self):
        model = LinearModel(weights=np.zeros((4, 3)), bias=np.zeros(3))
        C = _codes(np.abs(np.random.default_rng(4).standard_normal((5, 4))))
        assert np.array_equal(predict(model, C), np.zeros(5, dtype=int))

    def test_scores_match_loop_oracle(self):
        rng = np.random.default_rng(5)
        model = LinearModel(weights=rng.standard_normal((3, 4)), bias=rng.standard_normal(4))
        C = _codes(np.abs(rng.standard_normal((6, 3))))
        # predict takes the argmax of the scores C W + b, here summed entry by entry
        expected = [
            [sum(C.values[i, j] * model.weights[j, l] for j in range(3)) + model.bias[l]
             for l in range(4)]
            for i in range(6)
        ]
        assert np.array_equal(predict(model, C), np.argmax(expected, axis=1))

    def test_argmax_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(6)
        model = LinearModel(weights=rng.standard_normal((3, 4)), bias=rng.standard_normal(4))
        scaled = LinearModel(weights=3.5 * model.weights, bias=3.5 * model.bias)
        C = _codes(np.abs(rng.standard_normal((10, 3))))
        assert np.array_equal(predict(model, C), predict(scaled, C))

    def test_dimension_mismatch(self):
        model = LinearModel(weights=np.zeros((4, 2)), bias=np.zeros(2))
        with pytest.raises(ValueError):
            predict(model, _codes(np.ones((2, 3))))

    @pytest.mark.parametrize("N, c, L", [(1, 5, 2), (7, 64, 3), (500, 255, 4), (4097, 64, 10)])
    def test_matches_plain_scores_argmax(self, N, c, L):
        # at 7 x 64 and 500 x 255 OpenBLAS 0.3.31 rounds (W^T C^T)^T and C W apart in the last bit
        rng = np.random.default_rng(N + c + L)
        C = _codes(np.maximum(0.0, rng.standard_normal((N, c))))
        solution = rng.standard_normal((c + 1, L))
        model = LinearModel(weights=solution[:-1], bias=solution[-1])
        expected = np.argmax(C.values @ model.weights + model.bias, axis=1)
        assert np.array_equal(predict(model, C), expected)

    def test_equal_scores_resolve_to_lowest_class(self):
        # classes 1 and 3 share weights and bias and beat classes 0 and 2 on every row
        rng = np.random.default_rng(7)
        weights = rng.standard_normal((6, 4))
        weights[:, 3] = weights[:, 1]
        bias = np.array([-50.0, 50.0, -50.0, 50.0])
        C = _codes(np.abs(rng.standard_normal((300, 6))))
        assert np.array_equal(predict(LinearModel(weights, bias), C), np.ones(300, dtype=int))


def _numpy_uses_openblas() -> bool:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 prints its config only
        return False
    return "openblas" in config.get("Build Dependencies", {}).get("blas", {}).get("name", "")


_PREDICT_RSS_GROWTH = textwrap.dedent(
    """
    import numpy as np
    from nyscode.classifier import LinearModel, predict
    from nyscode.coding import CodeMatrix

    def rss_kb():
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmRSS:"))

    rng = np.random.default_rng(0)
    C = CodeMatrix(np.maximum(0.0, rng.standard_normal((8000, 256))))
    model = LinearModel(weights=rng.standard_normal((256, 4)), bias=rng.standard_normal(4))
    predict(model, CodeMatrix(C.values[:8]))  # start the BLAS threads
    before = rss_kb()
    predict(model, C)
    print(rss_kb() - before)
    """
)


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or not _numpy_uses_openblas(),
    reason="reads VmRSS from /proc and measures an OpenBLAS work area",
)
def test_predict_leaves_no_code_sized_work_area_resident():
    # C W on 2 threads left about 16 MB of work area resident on an 8,000 x 256
    # code matrix; (W^T C^T)^T grows the resident set by about 1 MB
    src = str(Path(nyscode.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-c", _PREDICT_RSS_GROWTH], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 4 * 1024


class TestAccuracy:
    def test_identical(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert accuracy([0, 0], [1, 1]) == 0.0

    def test_partial(self):
        assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(7)
        pred = rng.integers(0, 3, 20)
        truth = rng.integers(0, 3, 20)
        perm = rng.permutation(20)
        assert accuracy(pred, truth) == accuracy(pred[perm], truth[perm])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0])
