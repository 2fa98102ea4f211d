"""Full-scan reference computations for the benchmark's output checks.

Everything the checks compare against is computed here, apart from the
program: exact (k+1)-NN by a full distance scan with the lowest-index tie
rule, power weights t^-gamma normalised directly, k chosen by smallest
criterion (ties to the smaller k), the models' exact eta, their samplers
under the documented seed contract, and the closed-form ratios. Nothing is
imported from ``interpnn``.

Scores within ``HALF_TOL`` of 1/2 are ambiguous: their label depends on the
last-ulp summation order, so every label count is returned as an interval
[lo, hi] and a chosen k is accepted when some resolution of the ambiguous
rows makes it the first minimiser. A row that splits its mass equally over
a power-of-two number of neighbours is exempt: every order sums it exactly,
and a score of exactly 1/2 goes to label 0.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

HALF_TOL = 1e-9
_CHUNK_CELLS = 4_000_000  # distance-matrix cells per chunk of queries


# ---------------------------------------------------------------------------
# Neighbours


def distances(points: np.ndarray, X: np.ndarray, p: float) -> np.ndarray:
    """(m, n) L_p distances from each query row to every training row,
    accumulated one coordinate at a time."""
    if p not in (1.0, 2.0, math.inf):
        raise ValueError(f"the oracle covers p in {{1, 2, inf}}, got {p}")
    D = np.zeros((X.shape[0], points.shape[0]))
    for j in range(X.shape[1]):
        diff = np.abs(X[:, j, None] - points[None, :, j])
        if p == math.inf:
            np.maximum(D, diff, out=D)
        elif p == 1.0:
            D += diff
        else:
            D += np.square(diff, out=diff)
    return np.sqrt(D, out=D) if p == 2.0 else D


def _rank_rows(D: np.ndarray, k1: int) -> np.ndarray:
    """Column indices of the k1 smallest entries of each row of D, ordered
    by (distance, index).

    argpartition proposes k1 candidates; where the row holds more entries
    equal to the k1-th value than the candidates do, the row is re-ranked
    by a stable full sort so the lowest indices win the tie.
    """
    cand = np.argpartition(D, k1 - 1, axis=1)[:, :k1]
    cd = np.take_along_axis(D, cand, axis=1)
    order = np.lexsort((cand, cd), axis=1)
    cand = np.take_along_axis(cand, order, axis=1)
    v = np.take_along_axis(D, cand[:, -1:], axis=1)
    short = (D == v).sum(axis=1) > (cd == v).sum(axis=1)
    if short.any():
        cand[short] = np.argsort(D[short], axis=1, kind="stable")[:, :k1]
    return cand


def knn(points: np.ndarray, X: np.ndarray, k: int, p: float = 2.0):
    """Exact k nearest neighbours plus R_{k+1} by a full scan.

    Returns (idx (m, k), dist (m, k), r_kplus1 (m,)), like the program's
    batch query.
    """
    points = np.asarray(points, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    m, n = X.shape[0], points.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k = {k} needs 1 <= k <= n - 1 = {n - 1}")
    idx = np.empty((m, k + 1), dtype=np.int64)
    dist = np.empty((m, k + 1))
    step = max(1, _CHUNK_CELLS // (n * points.shape[1]))
    for s in range(0, m, step):
        D = distances(points, X[s:s + step], p)
        cols = _rank_rows(D, k + 1)
        idx[s:s + step] = cols
        dist[s:s + step] = np.take_along_axis(D, cols, axis=1)
    return idx[:, :k], dist[:, :k], dist[:, k]


# ---------------------------------------------------------------------------
# Weights, scores, criteria


def power_weights(dist: np.ndarray, r_kplus1: np.ndarray, gamma: float) -> np.ndarray:
    """Normalised t^-gamma weights, t = R_i / R_{k+1}; rows with a
    zero-distance neighbour split the mass equally among those neighbours
    when gamma > 0, and R_{k+1} = 0 rows are uniform."""
    m, k = dist.shape
    if gamma == 0.0:
        return np.full((m, k), 1.0 / k)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (dist / r_kplus1[:, None]) ** -gamma
        w /= w.sum(axis=1, keepdims=True)
    zero = dist == 0.0
    interp = zero.any(axis=1)  # R_{k+1} = 0 rows are among these
    if interp.any():
        w[interp] = zero[interp] / zero[interp].sum(axis=1, keepdims=True)
    return w


def _weights(block, k: int, gamma: float):
    """(neighbour indices, weights) at k neighbours, from a kmax block."""
    idx, dist, rk = block
    if k < idx.shape[1]:
        idx, dist, rk = idx[:, :k], dist[:, :k], dist[:, k]
    return idx, power_weights(dist, rk, gamma)


def scores(block, y: np.ndarray, k: int, gamma: float) -> np.ndarray:
    """Weighted responses at k neighbours, from a kmax block."""
    idx, w = _weights(block, k, gamma)
    return (w * y[idx]).sum(axis=1)


def labels(block, y: np.ndarray, k: int, gamma: float):
    """(label, ambiguous): label = score > 1/2. A score within HALF_TOL of
    1/2 is ambiguous unless every summation order computes it exactly,
    which holds for a row that splits its mass equally over a power-of-two
    number of neighbours."""
    idx, w = _weights(block, k, gamma)
    s = (w * y[idx]).sum(axis=1)
    amb = np.abs(s - 0.5) <= HALF_TOL
    if amb.any():
        rows = np.flatnonzero(amb)
        wn = w[rows]
        used = wn > 0.0
        c = used.sum(axis=1)
        dyadic = (~used | (wn == wn.max(axis=1, keepdims=True))).all(axis=1) & ((c & (c - 1)) == 0)
        amb[rows[dyadic]] = False
    return s > 0.5, amb


def regret_interval(block, y, k, gamma, eta: np.ndarray):
    """Bounds on mean 2|eta - 1/2| 1{label != g} over the ambiguous rows."""
    lab, amb = labels(block, y, k, gamma)
    wgt = 2.0 * np.abs(eta - 0.5)
    sure = np.sum(wgt * ((lab != (eta > 0.5)) & ~amb))
    return sure / lab.size, (sure + np.sum(wgt * amb)) / lab.size


def disagreement_interval(block1, y1, block2, y2, k, gamma):
    """Bounds on the share of rows where two machines' labels differ, when
    a row ambiguous for either machine may go either way."""
    lab1, amb1 = labels(block1, y1, k, gamma)
    lab2, amb2 = labels(block2, y2, k, gamma)
    return count_interval(lab1 != lab2, amb1 | amb2)


def count_interval(wrong: np.ndarray, amb: np.ndarray):
    """Bounds on mean(wrong) when the ambiguous rows may go either way."""
    sure = int(np.count_nonzero(wrong & ~amb))
    return sure / wrong.size, (sure + int(np.count_nonzero(amb))) / wrong.size


def admissible(lo, hi, rtol: float = 1e-9):
    """Positions that can be the first minimiser of values lying in
    [lo, hi]; rtol absorbs last-ulp differences between oracle and
    program arithmetic."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    bound = hi.min()
    return np.flatnonzero(lo <= bound + rtol * abs(bound) + 1e-300)


# ---------------------------------------------------------------------------
# Models and the seed contract


def regression_eta(X: np.ndarray) -> np.ndarray:
    d = X.shape[1]
    w = np.arange(1, d + 1, dtype=np.float64) - d / 2.0 - 0.5
    return expit(2.0 * (X @ w))


_MIX = {"sds": (1.0, 2.0), 0: (0.0, 3.0), 1: (1.5, 4.5)}


def _log_mixture(X, means):
    sds = _MIX["sds"]

    def log_norm(m, s):
        return -0.5 * ((X - m) / s) ** 2 - math.log(s) - 0.5 * math.log(2.0 * math.pi)

    half = math.log(0.5)
    return np.logaddexp(half + log_norm(means[0], sds[0]), half + log_norm(means[1], sds[1])).sum(axis=1)


def classification_2_eta(X: np.ndarray) -> np.ndarray:
    """P(Y=1|x) for the equal-prior Gaussian-mixture pair (model 2)."""
    return expit(_log_mixture(X, _MIX[1]) - _log_mixture(X, _MIX[0]))


def _mixture_draw(rng, shape, means):
    comp = rng.random(shape) < 0.5
    z = rng.standard_normal(shape)
    sds = _MIX["sds"]
    return np.where(comp, means[0] + sds[0] * z, means[1] + sds[1] * z)


def sample(model: str, d: int, rng: np.random.Generator, n: int):
    """(points, responses) drawn in the models' documented order."""
    if model == "regression":
        X = rng.uniform(-1.0, 1.0, size=(n, d))
        return X, regression_eta(X) + rng.standard_normal(n)
    if model == "classification_2":
        y = (rng.random(n) < 0.5).astype(np.float64)
        X = np.empty((n, d))
        c0 = y == 0.0
        if c0.any():
            X[c0] = _mixture_draw(rng, (int(c0.sum()), d), _MIX[0])
        if (~c0).any():
            X[~c0] = _mixture_draw(rng, (int((~c0).sum()), d), _MIX[1])
        return X, y
    raise ValueError(f"the oracle has no sampler for model {model!r}")


def eta(model: str, X: np.ndarray) -> np.ndarray:
    return regression_eta(X) if model == "regression" else classification_2_eta(X)


def rep_streams(seed: int, rep: int):
    """The six generators of repetition rep: SeedSequence((seed, rep)).spawn(6),
    in the order train, tune, test, aux, corrupt, reserved."""
    ss = np.random.SeedSequence((seed, rep))
    return [np.random.default_rng(c) for c in ss.spawn(6)]


def default_k_grid(n_train: int) -> tuple[int, ...]:
    """The documented default: odd-only geometric grid 5..min(511, n/2)."""
    hi = max(5, min(512, n_train // 2))
    hi_odd = hi if hi % 2 == 1 else hi - 1
    ks = np.geomspace(4, hi, num=16)
    odd = np.unique(np.minimum((2 * np.round((ks - 1) / 2) + 1).astype(int), hi_odd))
    return tuple(int(k) for k in odd if 1 <= k < n_train)


# ---------------------------------------------------------------------------
# Closed forms


def var_coef(d: int, g):
    return (d - g) ** 2 / (d * (d - 2.0 * g))


def bias_coef(d: int, g):
    return ((d - g) * (d + 2.0) / ((d + 2.0 - g) * d)) ** 2


def pr_optimal_k(d: int, g):
    """PR'(d, gamma): risk ratio when each estimator uses its own optimal k."""
    return var_coef(d, g) ** (4.0 / (d + 4.0)) * bias_coef(d, g) ** (d / (d + 4.0))


def cis_same_k(d: int, g):
    """Classification-instability ratio under a shared k: sqrt(var_coef)."""
    return np.sqrt(var_coef(d, g))
