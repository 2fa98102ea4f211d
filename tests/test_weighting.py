import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interpnn import (
    UnknownScheme,
    compute_weights,
    compute_weights_batch,
    general_phi_scheme,
    phi_catalog,
    power_scheme,
    uniform_scheme,
)
from interpnn.neighbors import NeighborQueryResult
from interpnn.weighting import power_scores


def nq(distances, r_kplus1):
    d = np.asarray(distances, dtype=float)
    return NeighborQueryResult(indices=np.arange(len(d)), distances=d, r_kplus1=float(r_kplus1))


class TestHandValues:
    def test_gamma_zero_is_uniform(self):
        w = compute_weights(nq([1.0, 2.0, 4.0], 8.0), power_scheme(0.0))
        assert np.array_equal(w, np.full(3, 1.0 / 3.0))

    def test_gamma_one(self):
        w = compute_weights(nq([1.0, 2.0, 4.0], 8.0), power_scheme(1.0))
        assert np.allclose(w, [4 / 7, 2 / 7, 1 / 7], atol=1e-14)

    def test_gamma_two(self):
        w = compute_weights(nq([1.0, 2.0, 4.0], 8.0), power_scheme(2.0))
        assert np.allclose(w, [16 / 21, 4 / 21, 1 / 21], atol=1e-14)

    def test_zero_distance_takes_all_weight(self):
        for gamma in (0.5, 1.0, 10.0):
            w = compute_weights(nq([0.0, 2.0, 4.0], 8.0), power_scheme(gamma))
            assert np.array_equal(w, [1.0, 0.0, 0.0])

    def test_zero_distance_ties_split_equally(self):
        w = compute_weights(nq([0.0, 0.0, 4.0], 8.0), power_scheme(1.0))
        assert np.array_equal(w, [0.5, 0.5, 0.0])

    def test_fully_degenerate_neighborhood(self):
        w = compute_weights(nq([0.0, 0.0, 0.0], 0.0), power_scheme(3.0))
        assert np.array_equal(w, np.full(3, 1.0 / 3.0))

    def test_zero_distance_with_gamma_zero_stays_uniform(self):
        w = compute_weights(nq([0.0, 2.0, 4.0], 8.0), power_scheme(0.0))
        assert np.array_equal(w, np.full(3, 1.0 / 3.0))


class TestCatalog:
    def test_one_minus_log_values(self):
        scheme = phi_catalog("one_minus_log")
        assert scheme.phi(np.array([1.0]))[0] == 1.0
        assert np.isclose(scheme.phi(np.array([math.exp(-1.0)]))[0], 2.0, atol=1e-15)

    def test_power_value(self):
        w = compute_weights(nq([0.5], 1.0), phi_catalog("power", gamma=1.0))
        assert w[0] == 1.0  # trivially, but phi(0.5) = 2 drives the 1-NN check below

    def test_power_phi_at_half(self):
        # phi(t) = t^{-1} at t = 0.5 gives 2: ratio of two-neighbor weights is 2:1
        w = compute_weights(nq([0.5, 1.0], 1.0), phi_catalog("power", gamma=1.0))
        assert np.allclose(w, [2 / 3, 1 / 3], atol=1e-15)

    def test_uniform(self):
        w = compute_weights(nq([0.3, 0.9], 1.0), phi_catalog("uniform"))
        assert np.array_equal(w, [0.5, 0.5])

    def test_unknown_scheme(self):
        with pytest.raises(UnknownScheme):
            phi_catalog("nope")

    def test_general_phi_rejects_increasing(self):
        with pytest.raises(ValueError, match="non-increasing"):
            general_phi_scheme(lambda t: t)

    def test_general_phi_rejects_negative(self):
        with pytest.raises(ValueError, match="positive"):
            general_phi_scheme(lambda t: t - 0.5)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 40),
        gamma=st.floats(0.0, 30.0),
        seed=st.integers(0, 2**31 - 1),
        with_zero=st.booleans(),
    )
    def test_simplex(self, k, gamma, seed, with_zero):
        rng = np.random.default_rng(seed)
        d = np.sort(rng.uniform(0.0 if with_zero else 1e-6, 1.0, k))
        if with_zero:
            d[0] = 0.0
        rk1 = d[-1] + rng.uniform(1e-6, 1.0)
        w = compute_weights(nq(d, rk1), power_scheme(gamma))
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_monotone_concentration(self, rng):
        for scheme in (power_scheme(1.3), phi_catalog("one_minus_log")):
            d = np.sort(rng.uniform(0.01, 1.0, 10))
            w = compute_weights(nq(d, 1.5), scheme)
            assert np.all(np.diff(w) <= 1e-15)

    def test_one_nn_limit(self, rng):
        # gamma = 50 with R_1/R_2 <= 0.8 concentrates everything on W_1
        for _ in range(50):
            d = np.sort(rng.uniform(0.1, 1.0, 8))
            d[0] = d[1] * rng.uniform(0.1, 0.8)
            w = compute_weights(nq(d, 1.0 + d[-1]), power_scheme(50.0))
            assert w[0] > 0.999

    def test_scale_invariance_exact_for_power_of_two(self, rng):
        d = np.sort(rng.uniform(0.1, 1.0, 6))
        rk1 = 1.5
        base = compute_weights(nq(d, rk1), power_scheme(1.7))
        for c in (0.5, 2.0, 8.0):
            scaled = compute_weights(nq(c * d, c * rk1), power_scheme(1.7))
            assert np.array_equal(base, scaled)

    def test_scale_invariance_generic(self, rng):
        d = np.sort(rng.uniform(0.1, 1.0, 6))
        base = compute_weights(nq(d, 1.5), power_scheme(1.7))
        scaled = compute_weights(nq(3.0 * d, 4.5), power_scheme(1.7))
        assert np.allclose(base, scaled, atol=1e-12)

    def test_huge_gamma_no_nan(self):
        w = compute_weights(nq([1e-8, 0.5, 0.9], 1.0), power_scheme(500.0))
        assert np.all(np.isfinite(w))
        assert w[0] > 0.999999

    def test_batch_matches_single(self, rng):
        dist = np.sort(rng.uniform(0.0, 1.0, (50, 7)), axis=1)
        dist[::5, 0] = 0.0
        rk1 = dist[:, -1] + rng.uniform(0.01, 1.0, 50)
        for scheme in (power_scheme(0.0), power_scheme(2.2), phi_catalog("one_minus_log")):
            batch = compute_weights_batch(dist, rk1, scheme)
            for i in range(50):
                single = compute_weights(nq(dist[i], rk1[i]), scheme)
                assert np.allclose(batch[i], single, atol=1e-13)

    def test_uniform_equals_power_zero_bitwise(self, rng):
        dist = np.sort(rng.uniform(0.0, 1.0, (10, 5)), axis=1)
        rk1 = dist[:, -1] + 0.1
        assert np.array_equal(
            compute_weights_batch(dist, rk1, uniform_scheme()),
            compute_weights_batch(dist, rk1, power_scheme(0.0)),
        )


class TestPowerScores:
    @pytest.mark.parametrize("gamma", [0.3, 1.0, 50.0])
    def test_scale_invariance_exact_for_power_of_two(self, rng, gamma):
        # continuous rows, rows with one zero distance and rows with two
        dist = np.sort(rng.uniform(0.1, 1.0, (300, 12)), axis=1)
        dist[1::3, 0] = 0.0
        dist[2::3, :2] = 0.0
        y = rng.normal(size=dist.shape)
        ks = np.arange(1, 13)
        base = power_scores(dist, y, ks, gamma)
        for c in (0.5, 2.0, 8.0):
            assert np.array_equal(power_scores(c * dist, y, ks, gamma), base)
