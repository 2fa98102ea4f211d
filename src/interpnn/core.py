"""Shared domain types, validation, and the exception hierarchy.

Everything here is immutable after construction and safe to share across
threads: arrays are defensively copied and marked read-only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np


class InterpNNError(Exception):
    """Base class for all library errors."""


class KTooLarge(InterpNNError):
    """k exceeds n - 1, so the (k+1)-th neighbor distance does not exist."""


class NegativeGamma(InterpNNError):
    pass


class BadMetric(InterpNNError):
    """Minkowski exponent p < 1 does not define a norm."""


class DimensionMismatch(InterpNNError):
    pass


class TaskMismatch(InterpNNError):
    pass


class UnknownScheme(InterpNNError):
    pass


class DomainError(InterpNNError):
    """Closed-form expression evaluated at or past a pole."""


class QuadratureFailure(InterpNNError):
    pass


class EmptyGrid(InterpNNError):
    pass


class MissingContext(InterpNNError):
    pass


class ParseError(InterpNNError):
    """CSV parse failure; carries 1-based row/column positions."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.row = row
        self.column = column


class NonNumericFeature(ParseError):
    pass


class UnknownLabel(InterpNNError):
    pass


class DegenerateSplit(InterpNNError):
    pass


class Task(Enum):
    REGRESSION = "regression"
    CLASSIFICATION = "classification"


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Training or test data: an (n, d) point matrix plus n responses.

    Responses are real values for regression and exactly {0, 1} for
    classification. Construction rejects NaN/inf coordinates, non-binary
    classification labels, and shape mismatches.
    """

    points: np.ndarray
    responses: np.ndarray
    task: Task

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-D (n, d), got ndim={pts.ndim}")
        n, d = pts.shape
        if n < 1 or d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain NaN or inf")
        resp = np.asarray(self.responses, dtype=np.float64).reshape(-1)
        if resp.shape[0] != n:
            raise ValueError(f"responses length {resp.shape[0]} != n = {n}")
        if not np.all(np.isfinite(resp)):
            raise ValueError("responses contain NaN or inf")
        if self.task is Task.CLASSIFICATION and not np.all((resp == 0.0) | (resp == 1.0)):
            raise ValueError("classification responses must be exactly 0 or 1")
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "responses", _readonly(resp))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Metric:
    """Minkowski L_p metric; p = math.inf selects the max norm."""

    p: float = 2.0

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise BadMetric(f"p must satisfy p >= 1, got {self.p}")


@dataclass(frozen=True)
class EstimatorConfig:
    """Neighbor count k, interpolation level gamma, metric, and weight scheme.

    ``scheme=None`` means the power interpolation scheme at level ``gamma``.
    """

    k: int
    gamma: float = 0.0
    metric: Metric = field(default_factory=Metric)
    scheme: Optional[object] = None


def theory_advisory(gamma: float, d: int) -> Optional[str]:
    """The non-fatal advisory for gamma >= d/3, or None below it."""
    boundary = d / 3.0
    if gamma >= boundary:
        return f"gamma = {gamma:g} >= d/3 = {boundary:g}: outside the range covered by the asymptotic theory"
    return None


def validate_config(config: EstimatorConfig, dataset: Dataset) -> EstimatorConfig:
    """Check config invariants against a dataset.

    Returns the config unchanged when valid, so the call is idempotent.
    gamma >= d/3, which the asymptotic results do not cover, is valid: see
    theory_advisory.
    """
    if not isinstance(config.k, (int, np.integer)) or config.k < 1:
        raise KTooLarge(f"k must be a positive integer, got {config.k!r}")
    if config.k >= dataset.n:
        raise KTooLarge(
            f"k = {config.k} needs k <= n - 1 = {dataset.n - 1} so that the "
            f"(k+1)-th neighbor distance exists"
        )
    if not (config.gamma >= 0.0) or not math.isfinite(config.gamma):
        raise NegativeGamma(f"gamma must be finite and >= 0, got {config.gamma}")
    if not (config.metric.p >= 1.0):
        raise BadMetric(f"p must satisfy p >= 1, got {config.metric.p}")
    return config
