"""Normalized neighbor weights for interpolating schemes.

A weight scheme maps the distance ratios t_i = R_i / R_{k+1} in (0, 1] to
unnormalized weights phi(t_i), which are then normalized to the simplex.
The power scheme phi(t) = t^{-gamma} diverges as t -> 0, which is what
forces the fit through training points; its weights are computed in
log-space so huge gamma degrades into the 1-NN limit instead of NaN.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import UnknownScheme
from .neighbors import NeighborQueryResult

_PHI_CLAMP = 1e300
# Probe value: a scheme whose phi explodes here is treated as interpolating,
# so exact zero-distance ties receive all the weight.
_ZERO_PROBE = 1e-12
_INTERP_THRESHOLD = 1e8


def _neg_log(x):
    return -np.log(x)


@dataclass(frozen=True)
class WeightScheme:
    """Selector for the interpolation rule.

    kind is one of "uniform", "power", "general". For "power", gamma is the
    interpolation level (gamma = 0 is plain k-NN). For "general", phi is a
    vectorized positive non-increasing function on (0, 1]; phi_prime_at_zero
    optionally carries d/dgamma phi(x, gamma)|_{gamma=0} of the family the
    function belongs to, for the first-order benefit criterion.
    """

    kind: str
    gamma: float = 0.0
    phi: Optional[Callable] = None
    phi_prime_at_zero: Optional[Callable] = None
    interpolates: bool = False


def uniform_scheme() -> WeightScheme:
    return WeightScheme(kind="uniform")


def power_scheme(gamma: float) -> WeightScheme:
    if not (gamma >= 0.0):
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return WeightScheme(
        kind="power",
        gamma=float(gamma),
        phi_prime_at_zero=_neg_log,
        interpolates=gamma > 0.0,
    )


def general_phi_scheme(phi: Callable, phi_prime_at_zero: Optional[Callable] = None) -> WeightScheme:
    """Wrap an arbitrary decreasing phi; positivity and monotonicity are
    spot-checked on a 64-point grid, not proven."""
    grid = np.linspace(1.0 / 64, 1.0, 64)
    vals = np.asarray(phi(grid), dtype=np.float64)
    if vals.shape != grid.shape:
        raise ValueError("phi must be vectorized over a 1-D grid")
    if not np.all(vals > 0.0):
        raise ValueError("phi must be positive on (0, 1]")
    if np.any(np.diff(vals) > 0.0):
        raise ValueError("phi must be non-increasing on (0, 1]")
    probe = float(np.asarray(phi(np.array([_ZERO_PROBE])))[0])
    return WeightScheme(
        kind="general",
        phi=phi,
        phi_prime_at_zero=phi_prime_at_zero,
        interpolates=probe > _INTERP_THRESHOLD,
    )


def phi_catalog(name: str, gamma: float = 1.0) -> WeightScheme:
    """The three schemes of the toy bias-variance study.

    "uniform" is plain k-NN averaging, "one_minus_log" is t -> 1 - ln t,
    and "power" is t -> t^{-gamma}.
    """
    if name == "uniform":
        return uniform_scheme()
    if name == "one_minus_log":
        return general_phi_scheme(lambda t: 1.0 - np.log(t), phi_prime_at_zero=_neg_log)
    if name == "power":
        return power_scheme(gamma)
    raise UnknownScheme(f"unknown scheme {name!r}")


def compute_weights(result: NeighborQueryResult, scheme: WeightScheme) -> np.ndarray:
    """Normalized weight vector W with W_i >= 0 and sum(W) = 1: one row of
    compute_weights_batch."""
    dist = np.asarray(result.distances, dtype=np.float64)[None, :]
    return compute_weights_batch(dist, np.array([result.r_kplus1]), scheme)[0]


def power_scores(distances: np.ndarray, responses: np.ndarray, ks, gamma: float) -> np.ndarray:
    """Power-scheme scores sum_{i<=k} W_i Y_i for every k in ks at once.

    distances (ascending along each row) and responses are (m, K) neighbour
    blocks with K >= max(ks); the result is (len(ks), m), one row per k.
    R_{k+1} cancels in the normalisation, so with the nearest neighbour as
    reference, w_i = exp(-gamma (log R_i - log R_1)) <= 1, and two prefix
    sums over the first max(ks) columns serve every k. gamma = 0 (and the
    uniform scheme) is the prefix mean of Y. A row with z zero distances
    gets the mean response of its first min(k, z) neighbours: that is the
    interpolating tie split, and for z > k the uniform R_{k+1} = 0 rule.
    Agrees with compute_weights_batch to the last ulp, not always bitwise.
    """
    ks = np.asarray(ks, dtype=np.int64)
    kmax = int(ks.max())
    dist = distances[:, :kmax]
    y = responses[:, :kmax]
    cols = ks - 1
    if gamma == 0.0:
        return np.ascontiguousarray((np.cumsum(y, axis=1)[:, cols] / ks).T)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.log(dist)
        w -= w[:, :1].copy()
        w *= -gamma
        np.exp(w, out=w)
    out = np.cumsum(w * y, axis=1)[:, cols]
    out /= np.cumsum(w, axis=1)[:, cols]
    zero = dist[:, 0] == 0.0
    if zero.any():
        n = np.minimum(ks, np.count_nonzero(dist[zero] == 0.0, axis=1)[:, None])
        out[zero] = np.take_along_axis(np.cumsum(y[zero], axis=1), n - 1, axis=1) / n
    return np.ascontiguousarray(out.T)


def compute_weights_batch(distances: np.ndarray, r_kplus1: np.ndarray, scheme: WeightScheme) -> np.ndarray:
    """Normalized weights for (m, k) distances and (m,) normalizers R_{k+1}.

    W_i = phi(R_i / R_{k+1}) / sum_j phi(R_j / R_{k+1}) along each row. When
    a neighbor coincides with the query (R_i = 0) and the scheme
    interpolates, the row's full mass is split equally among its
    zero-distance neighbors: that is the analytic limit of phi(t) -> inf and
    the defining interpolation property. R_{k+1} = 0 (the query duplicated
    k+1 times) degenerates to the same rule, i.e. a uniform split.
    """
    dist = np.asarray(distances, dtype=np.float64)
    m, k = dist.shape
    if scheme.kind == "uniform" or (scheme.kind == "power" and scheme.gamma == 0.0):
        return np.full((m, k), 1.0 / k)

    rk = np.asarray(r_kplus1, dtype=np.float64)
    safe_rk = np.where(rk == 0.0, 1.0, rk)
    t = dist / safe_rk[:, None]
    if scheme.kind == "power":
        logw = -scheme.gamma * np.log(np.where(t == 0.0, 1.0, t))
        logw -= logw.max(axis=1, keepdims=True)
        w = np.exp(logw)
    else:
        w = np.clip(
            np.asarray(scheme.phi(np.maximum(t, _ZERO_PROBE)), dtype=np.float64),
            0.0,
            _PHI_CLAMP,
        )
    w /= w.sum(axis=1, keepdims=True)

    zero_rows = (dist == 0.0).any(axis=1)
    if scheme.interpolates and zero_rows.any():
        zmask = dist[zero_rows] == 0.0
        w[zero_rows] = zmask / zmask.sum(axis=1, keepdims=True)
    degenerate = rk == 0.0
    if degenerate.any():
        w[degenerate] = 1.0 / k
    return w
