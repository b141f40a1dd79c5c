import numpy as np
import pytest

from nyscode.classifier import LinearModel, accuracy, predict, scores, train_ridge
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
        assert np.abs(scores(model, C)).max() < 1e-6

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

    def test_bias_not_regularized(self):
        # constant shift of all targets is absorbed entirely by the bias
        C = _codes(np.abs(np.random.default_rng(3).standard_normal((30, 4))))
        labels = np.arange(30) % 2
        model = train_ridge(C, labels, 2, lam=1e8)
        # with weights ~0, the bias still reproduces the class target means
        means = [np.mean(np.where(labels == 0, 1.0, -1.0)), np.mean(np.where(labels == 1, 1.0, -1.0))]
        assert np.allclose(model.bias, means, atol=1e-6)


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
        got = scores(model, C)
        for i in range(6):
            for l in range(4):
                expected = sum(C.values[i, j] * model.weights[j, l] for j in range(3))
                expected += model.bias[l]
                assert got[i, l] == pytest.approx(expected, rel=1e-12)

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
