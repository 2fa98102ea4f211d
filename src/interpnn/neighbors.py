"""Exact (k+1)-nearest-neighbor search under any Minkowski metric.

The index wraps scipy's kd-tree for candidate generation, then re-computes
candidate distances with the library's own Minkowski routine and re-ranks by
(distance, training index). That makes query() bit-identical to the
brute-force oracle: both sides share one distance function and one
deterministic tie rule, and differ only in how candidates are found.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import Dataset, DimensionMismatch, KTooLarge, Metric

# Relative inflation applied to the candidate ball radius; generous enough to
# absorb any last-ulp disagreement between cKDTree's internal distances and
# minkowski_distances below.
_BALL_SLACK = 1e-9


def minkowski_distances(points: np.ndarray, x: np.ndarray, p: float) -> np.ndarray:
    """L_p distances from x to each row of points, reduced over the last axis.

    Works for any leading shape: (n, d) vs (d,), or (m, k, d) vs (m, 1, d).
    This single routine is the source of truth for every distance the
    library reports.
    """
    diff = np.abs(np.asarray(points, dtype=np.float64) - np.asarray(x, dtype=np.float64))
    if p == math.inf:
        return diff.max(axis=-1)
    if p == 1.0:
        return diff.sum(axis=-1)
    if p == 2.0:
        return np.sqrt(np.square(diff).sum(axis=-1))
    return (diff ** p).sum(axis=-1) ** (1.0 / p)


@dataclass(frozen=True)
class NeighborQueryResult:
    """k nearest distances/indices in ascending (distance, index) order,
    plus the (k+1)-th distance used as the weight normalizer."""

    indices: np.ndarray
    distances: np.ndarray
    r_kplus1: float


@dataclass(frozen=True)
class NeighborIndex:
    dataset: Dataset
    metric: Metric
    tree: cKDTree

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def d(self) -> int:
        return self.dataset.d


def build_index(dataset: Dataset, metric: Metric) -> NeighborIndex:
    """Build an immutable exact-search index over the dataset."""
    return NeighborIndex(dataset=dataset, metric=metric, tree=cKDTree(dataset.points))


def _check_query(x: np.ndarray, n: int, d: int, k: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != d:
        raise DimensionMismatch(f"query has dimension {x.shape[0]}, index has d = {d}")
    if not (1 <= k <= n - 1):
        raise KTooLarge(f"k = {k} must satisfy 1 <= k <= n - 1 = {n - 1}")
    return x


def _rank(dist: np.ndarray, idx: np.ndarray, k: int) -> NeighborQueryResult:
    order = np.lexsort((idx, dist))
    top = order[: k + 1]
    return NeighborQueryResult(
        indices=idx[top[:k]].astype(np.int64),
        distances=dist[top[:k]],
        r_kplus1=float(dist[top[k]]),
    )


def query(index: NeighborIndex, x: np.ndarray, k: int) -> NeighborQueryResult:
    """Exact k nearest neighbors of x plus R_{k+1}.

    Ties at the k-th distance are broken by lowest training index. The tree
    only proposes candidates: every point inside a slightly inflated ball
    around the provisional (k+1)-th distance is re-measured and re-ranked,
    so the result is identical to brute_force_query.
    """
    x = _check_query(x, index.n, index.d, k)
    p = index.metric.p
    d_tree, _ = index.tree.query(x, k=k + 1, p=p)
    radius = float(np.max(d_tree))
    radius += radius * _BALL_SLACK
    cand = index.tree.query_ball_point(x, r=radius, p=p)
    cand = np.asarray(cand, dtype=np.int64)
    if cand.shape[0] < k + 1:
        # Only reachable if the slack ball somehow excluded a candidate;
        # fall back to the full scan rather than return a wrong answer.
        return brute_force_query(index.dataset, index.metric, x, k)
    dist = minkowski_distances(index.dataset.points[cand], x, p)
    return _rank(dist, cand, k)


def brute_force_query(dataset: Dataset, metric: Metric, x: np.ndarray, k: int) -> NeighborQueryResult:
    """Testing oracle: full scan, same distance routine, same tie rule."""
    x = _check_query(x, dataset.n, dataset.d, k)
    dist = minkowski_distances(dataset.points, x, metric.p)
    return _rank(dist, np.arange(dataset.n, dtype=np.int64), k)


def query_batch(index: NeighborIndex, X: np.ndarray, k: int):
    """Vectorized (k+1)-NN for an (m, d) query matrix.

    Returns (indices (m, k), distances (m, k), r_kplus1 (m,)). Distances are
    re-computed with minkowski_distances and each row re-ranked by
    (distance, index), matching the per-point query(). Used by the Monte
    Carlo harness, where throughput matters.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != index.d:
        raise DimensionMismatch(f"query matrix must be (m, {index.d}), got {X.shape}")
    if not (1 <= k <= index.n - 1):
        raise KTooLarge(f"k = {k} must satisfy 1 <= k <= n - 1 = {index.n - 1}")
    p = index.metric.p
    _, idx = index.tree.query(X, k=k + 1, p=p)
    idx = idx.astype(np.int64)
    dist = minkowski_distances(index.dataset.points[idx], X[:, None, :], p)
    # Where the recomputed distances are strictly increasing the re-ranking
    # permutation is the identity, so only the other rows are sorted.
    rows = np.flatnonzero(~(dist[:, 1:] > dist[:, :-1]).all(axis=1))
    if rows.size:
        order = np.lexsort((idx[rows], dist[rows]), axis=-1)
        dist[rows] = np.take_along_axis(dist[rows], order, axis=-1)
        idx[rows] = np.take_along_axis(idx[rows], order, axis=-1)
    return idx[:, :k], dist[:, :k], dist[:, k]
