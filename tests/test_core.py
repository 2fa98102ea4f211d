import math

import numpy as np
import pytest

from interpnn import (
    BadMetric,
    Dataset,
    EstimatorConfig,
    KTooLarge,
    Metric,
    NegativeGamma,
    Task,
    validate_config,
)
from interpnn.core import theory_advisory


def make_dataset(n=8, d=2, task=Task.REGRESSION, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, n).astype(float) if task is Task.CLASSIFICATION else rng.normal(size=n)
    return Dataset(points=X, responses=y, task=task)


class TestDataset:
    def test_basic_construction(self):
        ds = make_dataset(5, 3)
        assert ds.n == 5 and ds.d == 3

    def test_rejects_nan_coordinates(self):
        X = np.array([[0.0, np.nan]])
        with pytest.raises(ValueError, match="NaN"):
            Dataset(points=X, responses=[0.0], task=Task.REGRESSION)

    def test_rejects_inf_coordinates(self):
        X = np.array([[0.0, np.inf]])
        with pytest.raises(ValueError):
            Dataset(points=X, responses=[0.0], task=Task.REGRESSION)

    @pytest.mark.parametrize("bad", [[0.5], [2.0], [-1.0]])
    def test_rejects_non_binary_labels(self, bad):
        with pytest.raises(ValueError, match="0 or 1"):
            Dataset(points=[[0.0]], responses=bad, task=Task.CLASSIFICATION)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            Dataset(points=[[0.0], [1.0]], responses=[0.0], task=Task.REGRESSION)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(points=np.empty((0, 2)), responses=[], task=Task.REGRESSION)

    def test_arrays_are_readonly(self):
        ds = make_dataset()
        with pytest.raises(ValueError):
            ds.points[0, 0] = 99.0
        with pytest.raises(ValueError):
            ds.responses[0] = 99.0


class TestMetric:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 7.0, math.inf])
    def test_valid_p(self, p):
        assert Metric(p).p == p

    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, math.nan])
    def test_invalid_p(self, p):
        with pytest.raises(BadMetric):
            Metric(p)


class TestValidateConfig:
    def test_valid_no_advisory(self):
        ds = make_dataset(2048, 2)
        cfg = EstimatorConfig(k=10, gamma=0.0)
        assert validate_config(cfg, ds) is cfg
        assert theory_advisory(0.0, 2) is None

    def test_advisory_outside_theory_range(self):
        # gamma = 0.7 >= 2/3 on d = 2: still a valid config
        ds = make_dataset(100, 2)
        cfg = EstimatorConfig(k=10, gamma=0.7)
        assert validate_config(cfg, ds) is cfg
        msg = theory_advisory(0.7, 2)
        assert msg is not None and "d/3" in msg

    def test_k_too_large(self):
        ds = make_dataset(2048, 2)
        with pytest.raises(KTooLarge):
            validate_config(EstimatorConfig(k=2048, gamma=0.0), ds)

    def test_negative_gamma(self):
        ds = make_dataset(10, 2)
        with pytest.raises(NegativeGamma):
            validate_config(EstimatorConfig(k=2, gamma=-0.1), ds)

    def test_bad_metric_via_construction(self):
        with pytest.raises(BadMetric):
            EstimatorConfig(k=2, metric=Metric(0.5))

    def test_idempotent(self):
        ds = make_dataset(100, 2)
        for gamma in (0.0, 0.7):
            once = validate_config(EstimatorConfig(k=10, gamma=gamma), ds)
            twice = validate_config(once, ds)
            assert once == twice
