"""Normalized neighbor weights for interpolating schemes.

A weight scheme maps the distance ratios t_i = R_i / R_{k+1} in (0, 1] to
unnormalized weights phi(t_i), which are then normalized to the simplex.
The power scheme phi(t) = t^{-gamma} diverges as t -> 0, which is what
forces the fit through training points; gamma = 0 is plain k-NN, the
uniform scheme. Its weights have one formula, _power_weights.
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


@dataclass(frozen=True)
class WeightScheme:
    """Selector for the interpolation rule.

    phi = None is the power scheme at interpolation level gamma (gamma = 0
    is plain k-NN). Otherwise phi is a vectorized positive non-increasing
    function on (0, 1] and gamma is unused.
    """

    gamma: float = 0.0
    phi: Optional[Callable] = None
    interpolates: bool = False


def uniform_scheme() -> WeightScheme:
    return power_scheme(0.0)


def power_scheme(gamma: float) -> WeightScheme:
    if not (gamma >= 0.0):
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return WeightScheme(gamma=float(gamma), interpolates=gamma > 0.0)


def general_phi_scheme(phi: Callable) -> WeightScheme:
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
    return WeightScheme(phi=phi, interpolates=probe > _INTERP_THRESHOLD)


def phi_catalog(name: str, gamma: float = 1.0) -> WeightScheme:
    """The three schemes of the toy bias-variance study.

    "uniform" is plain k-NN averaging, "one_minus_log" is t -> 1 - ln t,
    and "power" is t -> t^{-gamma}.
    """
    if name == "uniform":
        return uniform_scheme()
    if name == "one_minus_log":
        return general_phi_scheme(lambda t: 1.0 - np.log(t))
    if name == "power":
        return power_scheme(gamma)
    raise UnknownScheme(f"unknown scheme {name!r}")


def _zero_split(w: np.ndarray, dist: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Set the weights of the selected rows to the indicator of their zero
    distances, in place: normalized, the row's mass is split equally among
    the neighbours at the query, the limit of phi(t) -> inf at t = 0. A row
    with R_{k+1} = 0 has only zero distances, so it gets the uniform split."""
    if rows.any():
        w[rows] = dist[rows] == 0.0
    return w


def _power_weights(dist: np.ndarray, gamma: float) -> np.ndarray:
    """Unnormalized power weights (R_i / R_1)^{-gamma} of an (m, K) block,
    ascending along each row. R_{k+1} cancels in the normalisation, and with
    R_1 as reference every weight is at most 1, so huge gamma degrades into
    the 1-NN limit instead of NaN. gamma = 0 gives all ones; rows holding a
    zero distance get _zero_split. The ratio is formed before the log, so
    scaling every distance by a power of two changes no bit.
    """
    if gamma == 0.0:
        return np.ones(dist.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = dist / dist[:, :1]
        np.log(w, out=w)
        w *= -gamma
        np.exp(w, out=w)
    return _zero_split(w, dist, dist[:, 0] == 0.0)


def compute_weights(result: NeighborQueryResult, scheme: WeightScheme) -> np.ndarray:
    """Normalized weight vector W with W_i >= 0 and sum(W) = 1: one row of
    compute_weights_batch."""
    dist = np.asarray(result.distances, dtype=np.float64)[None, :]
    return compute_weights_batch(dist, np.array([result.r_kplus1]), scheme)[0]


def power_scores(distances: np.ndarray, responses: np.ndarray, ks, gamma: float) -> np.ndarray:
    """Power-scheme scores sum_{i<=k} W_i Y_i for every k in ks at once.

    distances (ascending along each row) and responses are (m, K) neighbour
    blocks with K >= max(ks); the result is (len(ks), m), one row per k.
    The weights of _power_weights serve every k, so the score at k is the
    ratio of two prefix sums at column k. gamma = 0 (the uniform scheme) is
    the prefix mean of Y. A row with z zero distances gets the mean response
    of its first min(k, z) neighbours: the interpolating tie split, and for
    z > k the uniform R_{k+1} = 0 rule.
    """
    ks = np.asarray(ks, dtype=np.int64)
    kmax = int(ks.max())
    w = _power_weights(distances[:, :kmax], gamma)
    cols = ks - 1
    out = np.cumsum(w * responses[:, :kmax], axis=1)[:, cols]
    out /= np.cumsum(w, axis=1)[:, cols]
    return np.ascontiguousarray(out.T)


def compute_weights_batch(distances: np.ndarray, r_kplus1: np.ndarray, scheme: WeightScheme) -> np.ndarray:
    """Normalized weights for (m, k) ascending distances and (m,)
    normalizers R_{k+1}: W_i = phi(R_i / R_{k+1}) / sum_j phi(R_j / R_{k+1})
    along each row. A row holding a zero distance under an interpolating
    scheme, or with R_{k+1} = 0, gets the split of _zero_split.
    """
    dist = np.asarray(distances, dtype=np.float64)
    if scheme.phi is None:
        w = _power_weights(dist, scheme.gamma)
    else:
        rk = np.asarray(r_kplus1, dtype=np.float64)
        t = dist / np.where(rk == 0.0, 1.0, rk)[:, None]
        w = np.clip(
            np.asarray(scheme.phi(np.maximum(t, _ZERO_PROBE)), dtype=np.float64),
            0.0,
            _PHI_CLAMP,
        )
        rows = rk == 0.0
        if scheme.interpolates:
            rows |= dist[:, 0] == 0.0
        _zero_split(w, dist, rows)
    return w / w.sum(axis=1, keepdims=True)
