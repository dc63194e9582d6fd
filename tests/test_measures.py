import numpy as np
import pytest

from baryflow.measures import (
    BarycentricCoordinates,
    EmpiricalMeasure,
    MiniBatch,
    logits_from_labels,
    one_hot,
    softmax_decode,
    validate_simplex,
)


class TestValidateSimplex:
    def test_symmetric_point(self):
        assert validate_simplex(np.array([0.5, 0.5]), 1e-9)

    def test_vertex(self):
        assert validate_simplex(np.array([1.0, 0.0, 0.0]), 1e-9)

    def test_sum_above_one(self):
        assert not validate_simplex(np.array([0.6, 0.5]), 1e-9)

    def test_negative_entry(self):
        assert not validate_simplex(np.array([1.2, -0.2]), 1e-9)

    def test_non_finite_raises(self):
        with pytest.raises(ValueError):
            validate_simplex(np.array([np.nan, 1.0]), 1e-9)

    def test_matrix_rows(self):
        assert validate_simplex(np.array([[0.5, 0.5], [1.0, 0.0]]), 1e-9)
        assert not validate_simplex(np.array([[0.5, 0.5], [0.6, 0.5]]), 1e-9)


class TestOneHot:
    def test_basic(self):
        assert np.array_equal(one_hot(np.array([0, 2]), 3),
                              [[1, 0, 0], [0, 0, 1]])

    def test_single(self):
        assert np.array_equal(one_hot(np.array([1]), 2), [[0, 1]])

    def test_degenerate_single_class(self):
        assert np.array_equal(one_hot(np.array([0, 0, 0]), 1), [[1], [1], [1]])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            one_hot(np.array([-1]), 3)


class TestSoftmaxDecode:
    def test_tie_breaks_to_lowest_index(self):
        soft, hard = softmax_decode(np.array([[0.0, 0.0]]))
        assert np.allclose(soft, [[0.5, 0.5]])
        assert hard[0] == 0

    def test_log3_logit(self):
        soft, hard = softmax_decode(np.array([[np.log(3.0), 0.0]]))
        assert np.allclose(soft, [[0.75, 0.25]])
        assert hard[0] == 0

    def test_saturated(self):
        soft, hard = softmax_decode(np.array([[-100.0, 100.0]]))
        assert hard[0] == 1
        assert np.allclose(soft, [[0.0, 1.0]], atol=1e-12)

    def test_non_finite_raises(self):
        with pytest.raises(ValueError):
            softmax_decode(np.array([[np.inf, 0.0]]))

    def test_one_hot_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            labels = rng.integers(0, 4, size=30)
            logits = np.log(one_hot(labels, 4) + 1e-8)
            _, hard = softmax_decode(logits)
            assert np.array_equal(hard, labels)

    def test_rows_normalize(self):
        rng = np.random.default_rng(1)
        soft, _ = softmax_decode(rng.standard_normal((50, 6)) * 30)
        assert np.max(np.abs(soft.sum(axis=1) - 1.0)) <= 1e-12


class TestBarycentricCoordinates:
    def test_uniform(self):
        lam = BarycentricCoordinates.uniform(4)
        assert np.allclose(lam.lam, 0.25)
        assert len(lam) == 4

    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError):
            BarycentricCoordinates(np.array([0.7, 0.4]))


class TestEmpiricalMeasure:
    def test_uniform_default_weights(self):
        m = EmpiricalMeasure(np.zeros((4, 2)))
        assert np.allclose(m.weights, 0.25)

    def test_1d_points_promoted(self):
        m = EmpiricalMeasure(np.array([1.0, 2.0]))
        assert m.points.shape == (2, 1)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros((2, 1)), np.array([0.9, 0.3]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.array([[np.nan]]))

    def test_rejects_no_feature(self):
        with pytest.raises(ValueError, match="d >= 1"):
            EmpiricalMeasure(np.zeros((3, 0)))

    def test_immutable(self):
        m = EmpiricalMeasure(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            m.points[0, 0] = 1.0


class TestEmpiricalMeasureLabels:
    def test_from_hard_labels(self):
        m = EmpiricalMeasure.from_hard_labels(
            np.zeros((3, 2)), np.array([0, 1, 1]), 2)
        assert np.array_equal(m.hard_labels(), [0, 1, 1])
        assert np.allclose(m.soft_labels().sum(axis=1), 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros((3, 2)), label_logits=np.zeros((2, 2)))

    def test_logits_encoding_matches_hard_labels(self):
        logits = logits_from_labels(np.array([2, 0]), 3)
        m = EmpiricalMeasure(np.zeros((2, 2)), label_logits=logits)
        assert np.array_equal(m.hard_labels(), [2, 0])


class TestMiniBatch:
    def test_labels_must_be_one_hot(self):
        with pytest.raises(ValueError):
            MiniBatch(np.zeros((2, 2)), labels=np.array([[0.5, 0.5], [1, 0]]))

    def test_rejects_no_feature(self):
        with pytest.raises(ValueError, match="d >= 1"):
            MiniBatch(np.zeros((2, 0)))

    def test_valid(self):
        b = MiniBatch(np.zeros((2, 2)), labels=np.array([[1.0, 0], [0, 1.0]]))
        assert b.points.shape == (2, 2)
