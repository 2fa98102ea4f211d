"""Interpolated-NN prediction: weighted regression and thresholded labels."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, EstimatorConfig, Task, TaskMismatch, validate_config
from .neighbors import NeighborIndex, build_index, query_batch
from .weighting import WeightScheme, compute_weights_batch, power_scheme, power_scores


@dataclass(frozen=True)
class FittedEstimator:
    dataset: Dataset
    config: EstimatorConfig
    index: NeighborIndex

    @property
    def scheme(self) -> WeightScheme:
        return self.config.scheme if self.config.scheme is not None else power_scheme(self.config.gamma)


def fit(dataset: Dataset, config: EstimatorConfig) -> FittedEstimator:
    config = validate_config(config, dataset)
    return FittedEstimator(dataset=dataset, config=config, index=build_index(dataset, config.metric))


def _require(est: FittedEstimator, task: Task):
    if est.dataset.task is not task:
        raise TaskMismatch(f"estimator was fitted on a {est.dataset.task.value} dataset")


def score(est: FittedEstimator, x) -> float:
    """Raw weighted response sum(W_i * Y^i) at a single query point: one row
    of score_batch."""
    return float(score_batch(est, np.asarray(x, dtype=np.float64).reshape(1, -1))[0])


def predict_regression(est: FittedEstimator, x) -> float:
    _require(est, Task.REGRESSION)
    return score(est, x)


def predict_class(est: FittedEstimator, x) -> tuple[int, float]:
    """Label in {0, 1} plus the raw score. The score-exactly-1/2 tie goes
    to label 0."""
    _require(est, Task.CLASSIFICATION)
    s = score(est, x)
    return (1 if s > 0.5 else 0), s


def score_batch(est: FittedEstimator, X) -> np.ndarray:
    """Raw weighted scores for an (m, d) query matrix. The power and uniform
    schemes are the single-k case of power_scores."""
    scheme = est.scheme
    idx, dist, rk1 = query_batch(est.index, X, est.config.k)
    if scheme.phi is not None:
        w = compute_weights_batch(dist, rk1, scheme)
        return np.sum(w * est.dataset.responses[idx], axis=1)
    return power_scores(dist, est.dataset.responses[idx], (est.config.k,), scheme.gamma)[0]


def predict_regression_batch(est: FittedEstimator, X) -> np.ndarray:
    _require(est, Task.REGRESSION)
    return score_batch(est, X)


def predict_class_batch(est: FittedEstimator, X) -> tuple[np.ndarray, np.ndarray]:
    _require(est, Task.CLASSIFICATION)
    s = score_batch(est, X)
    return (s > 0.5).astype(np.int64), s
