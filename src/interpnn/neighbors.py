"""Exact (k+1)-nearest-neighbor search under any Minkowski metric.

The index wraps scipy's kd-tree for candidate generation, then re-computes
candidate distances with the library's own Minkowski routine and re-ranks by
(distance, training index). query_batch widens a row's candidate list until
every point tied at R_{k+1} is in it, so the lowest-index tie rule holds on
the batch path too, and every row is bit-identical to the brute-force
oracle: both sides share one distance function and one deterministic tie
rule, and differ only in how candidates are found. query() is one row of
query_batch.
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
# Rows of the query matrix per chunk of query_batch, and of its first chunk.
_CHUNK_ROWS = 512
_FIRST_CHUNK_ROWS = 64


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
    """Exact k nearest neighbors of x plus R_{k+1}: one row of query_batch."""
    idx, dist, rk = query_batch(index, np.asarray(x, dtype=np.float64).reshape(1, -1), k)
    return NeighborQueryResult(indices=idx[0], distances=dist[0], r_kplus1=float(rk[0]))


def brute_force_query(dataset: Dataset, metric: Metric, x: np.ndarray, k: int) -> NeighborQueryResult:
    """Testing oracle: full scan, same distance routine, same tie rule."""
    x = _check_query(x, dataset.n, dataset.d, k)
    dist = minkowski_distances(dataset.points, x, metric.p)
    return _rank(dist, np.arange(dataset.n, dtype=np.int64), k)


def _rank_rows(dist: np.ndarray, idx: np.ndarray, n: int):
    """Sort each row of (dist, idx) by (distance, index) in place. Rows whose
    distances are already strictly increasing are left as they are."""
    rows = np.flatnonzero(~(dist[:, 1:] > dist[:, :-1]).all(axis=1))
    if not rows.size:
        return
    d, i = dist[rows], idx[rows]
    order = np.argsort(d, axis=1, kind="stable")
    d = np.take_along_axis(d, order, axis=1)
    i = np.take_along_axis(i, order, axis=1)
    # Equal distances form runs; order each run by training index. The keys
    # run * n + index are distinct within a row, and a run's distances are
    # equal, so d needs no second gather.
    run = np.zeros(d.shape, dtype=np.int64)
    np.cumsum(d[:, 1:] != d[:, :-1], axis=1, out=run[:, 1:])
    run *= n
    run += i
    dist[rows] = d
    idx[rows] = np.take_along_axis(i, np.argsort(run, axis=1), axis=1)


def _query_rows(index: NeighborIndex, X: np.ndarray, k: int, width: int):
    """(indices, distances, r_kplus1) of the exact (k+1)-NN of the rows of
    X, and the widest candidate list used, starting from width candidates.

    The tree proposes each row's width nearest points; they are re-measured
    and ranked by (distance, index). Every point left out lies at least as
    far, by the tree's measure, as the last candidate, so a row whose last
    candidate is beyond the slack-inflated R_{k+1} is final. The other rows
    count their slack ball and are queried again with more candidates.
    """
    n, p = index.n, index.metric.p
    d_tree, idx = index.tree.query(X, k=width, p=p)
    idx = idx.astype(np.int64)
    dist = minkowski_distances(index.dataset.points[idx], X[:, None, :], p)
    _rank_rows(dist, idx, n)
    idx, dist, rk = idx[:, :k], dist[:, :k], dist[:, k]
    radius = rk + rk * _BALL_SLACK
    open_rows = np.flatnonzero(d_tree[:, -1] <= radius) if width < n else []
    if len(open_rows):
        counts = index.tree.query_ball_point(X[open_rows], r=radius[open_rows], p=p, return_length=True)
        width = min(n, max(width + 1, int(counts.max()) + 1))
        idx[open_rows], dist[open_rows], rk[open_rows], width = _query_rows(index, X[open_rows], k, width)
    return idx, dist, rk, width


def query_batch(index: NeighborIndex, X: np.ndarray, k: int):
    """Exact (k+1)-NN for an (m, d) query matrix.

    Returns (indices (m, k), distances (m, k), r_kplus1 (m,)), each row
    identical to brute_force_query. Rows go in chunks of _CHUNK_ROWS, so
    the (rows, width, d) temporaries of the distance recomputation stay
    bounded. Each chunk starts from the candidate width the one before it
    needed (k + 2 at first), and the first chunk is short, so on tied data
    the width is learnt before the bulk of the rows is queried.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != index.d:
        raise DimensionMismatch(f"query matrix must be (m, {index.d}), got {X.shape}")
    if not (1 <= k <= index.n - 1):
        raise KTooLarge(f"k = {k} must satisfy 1 <= k <= n - 1 = {index.n - 1}")
    m = X.shape[0]
    out = (np.empty((m, k), dtype=np.int64), np.empty((m, k)), np.empty(m))
    width, start = min(k + 2, index.n), 0
    while start < m:
        stop = min(m, start + (_CHUNK_ROWS if start else _FIRST_CHUNK_ROWS))
        *block, width = _query_rows(index, X[start:stop], k, width)
        for a, b in zip(out, block):
            a[start:stop] = b
        start = stop
    return out
