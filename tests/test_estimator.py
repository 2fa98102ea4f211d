import math

import numpy as np
import pytest

from interpnn import (
    Dataset,
    DimensionMismatch,
    EstimatorConfig,
    Metric,
    Task,
    TaskMismatch,
    brute_force_query,
    fit,
    predict_class,
    predict_class_batch,
    predict_regression,
    predict_regression_batch,
    uniform_scheme,
)
from interpnn.weighting import power_scores


def line_dataset():
    # training {(0,1), (1,3), (3,0)} in 1-D
    return Dataset(points=[[0.0], [1.0], [3.0]], responses=[1.0, 3.0, 0.0], task=Task.REGRESSION)


class TestRegression:
    def test_hand_example_gamma_one(self):
        est = fit(line_dataset(), EstimatorConfig(k=2, gamma=1.0))
        # x = 0.25: R = (0.25, 0.75), R_3 = 2.75, weights (0.75, 0.25) on (1, 3)
        assert predict_regression(est, [0.25]) == pytest.approx(1.5, abs=1e-12)

    def test_hand_example_gamma_zero(self):
        est = fit(line_dataset(), EstimatorConfig(k=2, gamma=0.0))
        assert predict_regression(est, [0.25]) == pytest.approx(2.0, abs=1e-15)

    def test_exact_interpolation_at_training_point(self):
        est = fit(line_dataset(), EstimatorConfig(k=2, gamma=1.0))
        assert predict_regression(est, [0.0]) == 1.0

    def test_interpolation_all_training_points_several_gammas(self, rng):
        X = rng.uniform(-1, 1, (40, 3))
        y = rng.normal(size=40)
        ds = Dataset(points=X, responses=y, task=Task.REGRESSION)
        for gamma in (0.1, 1.0, 10.0):
            est = fit(ds, EstimatorConfig(k=5, gamma=gamma))
            for i in range(40):
                assert predict_regression(est, X[i]) == y[i]

    def test_task_mismatch(self):
        ds = Dataset(points=[[0.0], [1.0]], responses=[0.0, 1.0], task=Task.CLASSIFICATION)
        est = fit(ds, EstimatorConfig(k=1, gamma=1.0))
        with pytest.raises(TaskMismatch):
            predict_regression(est, [0.5])

    def test_dimension_mismatch(self):
        est = fit(line_dataset(), EstimatorConfig(k=1, gamma=1.0))
        with pytest.raises(DimensionMismatch):
            predict_regression(est, [0.0, 1.0])


class TestClassification:
    def cls_dataset(self, rng, n=60, d=2):
        X = rng.uniform(-1, 1, (n, d))
        y = (X[:, 0] > 0).astype(float)
        return Dataset(points=X, responses=y, task=Task.CLASSIFICATION)

    def test_score_and_label(self, rng):
        ds = self.cls_dataset(rng)
        est = fit(ds, EstimatorConfig(k=7, gamma=1.0))
        label, s = predict_class(est, [0.8, 0.0])
        assert label == 1 and s > 0.5

    def test_score_tie_goes_to_zero(self):
        # two equidistant neighbors with labels 0 and 1: score exactly 0.5
        ds = Dataset(points=[[-1.0], [1.0], [5.0]], responses=[0.0, 1.0, 1.0], task=Task.CLASSIFICATION)
        est = fit(ds, EstimatorConfig(k=2, gamma=0.0))
        label, s = predict_class(est, [0.0])
        assert s == 0.5
        assert label == 0

    def test_interpolation_at_training_label(self, rng):
        ds = self.cls_dataset(rng)
        est = fit(ds, EstimatorConfig(k=5, gamma=2.0))
        for i in range(ds.n):
            label, _ = predict_class(est, ds.points[i])
            assert label == int(ds.responses[i])

    def test_duplicate_training_points_conflicting_labels_average(self):
        ds = Dataset(points=[[0.0], [0.0], [9.0]], responses=[0.0, 1.0, 1.0], task=Task.CLASSIFICATION)
        est = fit(ds, EstimatorConfig(k=2, gamma=1.0))
        label, s = predict_class(est, [0.0])
        assert s == 0.5 and label == 0


class TestConsistency:
    def test_gamma_continuity_away_from_ties(self, rng):
        X = rng.uniform(-1, 1, (50, 2))
        y = rng.normal(size=50)
        ds = Dataset(points=X, responses=y, task=Task.REGRESSION)
        x = rng.uniform(-1, 1, 2)
        gammas = np.linspace(0.0, 3.0, 31)
        preds = [predict_regression(fit(ds, EstimatorConfig(k=8, gamma=g)), x) for g in gammas]
        eps_preds = [predict_regression(fit(ds, EstimatorConfig(k=8, gamma=g + 1e-7)), x) for g in gammas]
        assert np.allclose(preds, eps_preds, atol=1e-5)

    def test_one_nn_agreement_at_gamma_50(self, rng):
        X = rng.uniform(-1, 1, (400, 2))
        y = (X.sum(axis=1) > 0).astype(float)
        ds = Dataset(points=X, responses=y, task=Task.CLASSIFICATION)
        est = fit(ds, EstimatorConfig(k=10, gamma=50.0))
        m = Metric(2.0)
        agree = total = 0
        for _ in range(300):
            x = rng.uniform(-1, 1, 2)
            res = brute_force_query(ds, m, x, k=2)
            if res.distances[1] == 0 or res.distances[0] / res.distances[1] > 0.9:
                continue
            total += 1
            label, _ = predict_class(est, x)
            one_nn = int(ds.responses[res.indices[0]])
            agree += label == one_nn
        assert total > 50
        assert agree / total >= 0.99

    def test_metric_pass_through(self, rng):
        X = rng.uniform(-1, 1, (120, 3))
        y = rng.normal(size=120)
        ds = Dataset(points=X, responses=y, task=Task.REGRESSION)
        x = rng.uniform(-1, 1, 3)
        for p in (1.0, 2.0):
            est = fit(ds, EstimatorConfig(k=6, gamma=1.0, metric=Metric(p)))
            res = brute_force_query(ds, Metric(p), x, k=6)
            t = res.distances / res.r_kplus1
            w = (1.0 / t) / (1.0 / t).sum()
            expected = float(np.dot(w, ds.responses[res.indices]))
            assert predict_regression(est, x) == pytest.approx(expected, abs=1e-12)
        est1 = fit(ds, EstimatorConfig(k=6, gamma=1.0, metric=Metric(1.0)))
        est2 = fit(ds, EstimatorConfig(k=6, gamma=1.0, metric=Metric(2.0)))
        assert predict_regression(est1, x) != predict_regression(est2, x)

    def test_batch_matches_single(self, rng):
        X = rng.uniform(-1, 1, (80, 2))
        y = rng.normal(size=80)
        ds = Dataset(points=X, responses=y, task=Task.REGRESSION)
        est = fit(ds, EstimatorConfig(k=9, gamma=1.5))
        queries = rng.uniform(-1, 1, (30, 2))
        batch = predict_regression_batch(est, queries)
        singles = [predict_regression(est, q) for q in queries]
        assert np.allclose(batch, singles, atol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_lattice_scores_match_brute_force_reference(self, rng, p):
        # duplicated lattice: ties at R_{k+1} and zero-distance neighbours
        base = np.array([[i, j] for i in range(5) for j in range(5)], dtype=float)
        ds = Dataset(points=np.vstack([base, base]), responses=rng.normal(size=50), task=Task.REGRESSION)
        queries = base[rng.integers(0, 25, 60)] + rng.integers(-1, 2, (60, 2)) * 0.5
        for k, gamma in ((1, 0.0), (4, 0.0), (9, 0.7), (30, 3.0), (49, 0.2)):
            est = fit(ds, EstimatorConfig(k=k, gamma=gamma, metric=Metric(p)))
            batch = predict_regression_batch(est, queries)
            for q, b in zip(queries, batch):
                ref = brute_force_query(ds, Metric(p), q, k)
                want = power_scores(ref.distances[None, :], ds.responses[ref.indices][None, :], (k,), gamma)[0, 0]
                assert b == want == predict_regression(est, q)

    def test_gamma_zero_equals_uniform_scheme_bitwise(self, rng):
        X = rng.uniform(-1, 1, (80, 2))
        y = (X[:, 0] > 0).astype(float)
        ds = Dataset(points=X, responses=y, task=Task.CLASSIFICATION)
        queries = rng.uniform(-1, 1, (40, 2))
        labels_pow, scores_pow = predict_class_batch(fit(ds, EstimatorConfig(k=7, gamma=0.0)), queries)
        labels_uni, scores_uni = predict_class_batch(
            fit(ds, EstimatorConfig(k=7, gamma=0.0, scheme=uniform_scheme())), queries
        )
        assert np.array_equal(scores_pow, scores_uni)
        assert np.array_equal(labels_pow, labels_uni)
