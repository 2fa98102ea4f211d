import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interpnn import neighbors
from interpnn import (
    Dataset,
    DimensionMismatch,
    KTooLarge,
    Metric,
    Task,
    brute_force_query,
    build_index,
    minkowski_distances,
    query,
    query_batch,
)


def dataset_1d(points):
    X = np.asarray(points, dtype=float).reshape(-1, 1)
    return Dataset(points=X, responses=np.zeros(len(points)), task=Task.REGRESSION)


def random_dataset(rng, n, d):
    return Dataset(points=rng.uniform(-1, 1, size=(n, d)), responses=np.zeros(n), task=Task.REGRESSION)


class TestHandExamples:
    def test_three_point_line(self):
        # points {0, 1, 3}, x = 0.25, k = 2: distances 0.25, 0.75 and R_3 = 2.75
        ds = dataset_1d([0.0, 1.0, 3.0])
        res = query(build_index(ds, Metric(2.0)), [0.25], k=2)
        assert np.allclose(res.distances, [0.25, 0.75])
        assert list(res.indices) == [0, 1]
        assert res.r_kplus1 == 2.75

    def test_coincident_query(self):
        ds = dataset_1d([0.0, 1.0, 3.0])
        res = query(build_index(ds, Metric(2.0)), [0.0], k=1)
        assert res.distances[0] == 0.0
        assert res.r_kplus1 == 1.0

    def test_k_equals_n_minus_1(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 12, 3)
        res = brute_force_query(ds, Metric(2.0), rng.uniform(-1, 1, 3), k=11)
        assert sorted(res.indices) == list(range(12))[:11] or len(set(res.indices)) == 11

    def test_k_too_large(self):
        ds = dataset_1d([0.0, 1.0, 3.0])
        idx = build_index(ds, Metric(2.0))
        with pytest.raises(KTooLarge):
            query(idx, [0.0], k=3)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 10, 3)
        with pytest.raises(DimensionMismatch):
            query(build_index(ds, Metric(2.0)), [0.0, 0.0], k=2)


class TestTieRule:
    def test_duplicates_tie_to_lowest_index(self):
        # four copies of the same point: the tie at every distance resolves
        # by training index on both routes.
        ds = dataset_1d([5.0, 5.0, 5.0, 5.0])
        m = Metric(2.0)
        res_q = query(build_index(ds, m), [5.0], k=2)
        res_b = brute_force_query(ds, m, [5.0], k=2)
        assert list(res_q.indices) == [0, 1] == list(res_b.indices)
        assert res_q.r_kplus1 == 0.0 == res_b.r_kplus1

    def test_symmetric_distances_tie(self):
        ds = dataset_1d([-1.0, 1.0, -2.0, 2.0])
        m = Metric(1.0)
        res = query(build_index(ds, m), [0.0], k=3)
        assert list(res.indices) == [0, 1, 2]
        assert res.r_kplus1 == 2.0


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf, 3.5])
def test_norm_recomputation(p, rng):
    ds = random_dataset(rng, 60, 3)
    x = rng.uniform(-1, 1, 3)
    res = brute_force_query(ds, Metric(p), x, k=5)
    for i, dist in zip(res.indices, res.distances):
        assert dist == np.linalg.norm(ds.points[i] - x, ord=p)


def test_metric_axioms_spot_check(rng):
    pts = rng.normal(size=(30, 4))
    for p in (1.0, 2.0, math.inf):
        for _ in range(50):
            a, b, c = pts[rng.integers(0, 30, 3)]
            dab = minkowski_distances(a, b, p)
            dba = minkowski_distances(b, a, p)
            dac = minkowski_distances(a, c, p)
            dcb = minkowski_distances(c, b, p)
            assert dab == dba
            assert dab <= dac + dcb + 1e-12


class TestOracleEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 60),
        d=st.integers(1, 8),
        p=st.sampled_from([1.0, 2.0, math.inf]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_query_matches_brute_force(self, n, d, p, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n, d)
        k = int(rng.integers(1, n))
        x = rng.uniform(-1.2, 1.2, d)
        m = Metric(p)
        res_q = query(build_index(ds, m), x, k)
        res_b = brute_force_query(ds, m, x, k)
        assert list(res_q.indices) == list(res_b.indices)
        assert np.array_equal(res_q.distances, res_b.distances)
        assert res_q.r_kplus1 == res_b.r_kplus1

    def test_batch_matches_single(self, rng):
        # continuous points, then a duplicated lattice full of exact ties
        lattice = duplicated_lattice()
        X_lattice = lattice.points[rng.integers(0, 50, 25)] + rng.integers(-1, 2, (25, 2)) * 0.5
        for ds, X in ((random_dataset(rng, 100, 4), rng.uniform(-1, 1, (25, 4))), (lattice, X_lattice)):
            idx = build_index(ds, Metric(2.0))
            bi, bd, br = query_batch(idx, X, k=7)
            for row in range(25):
                res = query(idx, X[row], k=7)
                ref = brute_force_query(ds, Metric(2.0), X[row], k=7)
                assert np.array_equal(bi[row], res.indices) and np.array_equal(bi[row], ref.indices)
                assert np.array_equal(bd[row], res.distances) and np.array_equal(bd[row], ref.distances)
                assert br[row] == res.r_kplus1 == ref.r_kplus1

    def test_duplicated_grid_with_ties(self, rng):
        # lattice data guarantees plenty of exact distance ties
        base = np.array([[i, j] for i in range(5) for j in range(5)], dtype=float)
        ds = Dataset(points=np.vstack([base, base]), responses=np.zeros(50), task=Task.REGRESSION)
        m = Metric(1.0)
        index = build_index(ds, m)
        for _ in range(40):
            x = base[rng.integers(0, 25)] + rng.integers(-1, 2, 2) * 0.5
            k = int(rng.integers(1, 49))
            res_q = query(index, x, k)
            res_b = brute_force_query(ds, m, x, k)
            assert list(res_q.indices) == list(res_b.indices)
            assert np.array_equal(res_q.distances, res_b.distances)
            assert res_q.r_kplus1 == res_b.r_kplus1


def duplicated_lattice():
    """Two copies of the 5 x 5 integer lattice: ties at almost every distance."""
    base = np.array([[i, j] for i in range(5) for j in range(5)], dtype=float)
    return Dataset(points=np.vstack([base, base]), responses=np.zeros(50), task=Task.REGRESSION)


def always_reranked(index, X, k):
    """query_batch with every row's k+1 tree candidates sorted by
    (distance, index), ordered or not."""
    p = index.metric.p
    _, idx = index.tree.query(X, k=k + 1, p=p)
    idx = idx.astype(np.int64)
    dist = minkowski_distances(index.dataset.points[idx], X[:, None, :], p)
    order = np.lexsort((idx, dist), axis=-1)
    dist = np.take_along_axis(dist, order, axis=-1)
    idx = np.take_along_axis(idx, order, axis=-1)
    return idx[:, :k], dist[:, :k], dist[:, k]


def brute_force_batch(dataset, metric, X, k):
    """brute_force_query row by row, stacked like query_batch's result."""
    rows = [brute_force_query(dataset, metric, x, k) for x in X]
    return (np.array([r.indices for r in rows]).reshape(len(X), k),
            np.array([r.distances for r in rows]).reshape(len(X), k),
            np.array([r.r_kplus1 for r in rows]))


def assert_blocks_equal(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


class TestRerankSkip:
    """query_batch sorts only the rows whose recomputed distances are not
    strictly increasing. On tie-free data its blocks equal a full re-rank of
    the tree's first k+1 candidates bit for bit; on tied data they equal the
    brute-force oracle."""

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_random_data(self, rng, p):
        ds = random_dataset(rng, 300, 3)
        index = build_index(ds, Metric(p))
        X = rng.uniform(-1, 1, (200, 3))
        for k in (1, 7, 60, 299):
            assert_blocks_equal(query_batch(index, X, k), always_reranked(index, X, k))

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_duplicated_lattice(self, rng, p):
        ds = duplicated_lattice()
        index = build_index(ds, Metric(p))
        base = ds.points[:25]
        X = base[rng.integers(0, 25, 200)] + rng.integers(-1, 2, (200, 2)) * 0.5
        for k in (1, 4, 9, 30, 49):
            _, dist, rk = always_reranked(index, X, k)
            full = np.column_stack([dist, rk])
            assert (full[:, 1:] == full[:, :-1]).any(axis=1).any()  # tied rows take the sort
            assert_blocks_equal(query_batch(index, X, k), brute_force_batch(ds, Metric(p), X, k))


class TestExactBatch:
    """query_batch keeps the lowest-index tie rule: it equals the
    brute-force oracle bit for bit on tied data."""

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_duplicated_lattice_every_k(self, rng, p):
        ds = duplicated_lattice()
        index = build_index(ds, Metric(p))
        X = ds.points[rng.integers(0, 50, 40)] + rng.integers(-1, 2, (40, 2)) * 0.5
        for k in range(1, ds.n):
            assert_blocks_equal(query_batch(index, X, k), brute_force_batch(ds, Metric(p), X, k))

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_ties_only_after_the_first_chunk(self, rng, p):
        # Training points come in pairs P, -P, so a query at the origin ties
        # every pair while a random query ties none. The first chunk is all
        # random queries; later chunks mix in origin rows.
        half = rng.uniform(-1, 1, (30, 2))
        ds = Dataset(points=np.vstack([half, -half]), responses=np.zeros(60), task=Task.REGRESSION)
        m = neighbors._FIRST_CHUNK_ROWS + neighbors._CHUNK_ROWS + 100
        X = rng.uniform(-1, 1, (m, 2))
        later = np.arange(neighbors._FIRST_CHUNK_ROWS, m)
        origin = later[rng.random(later.size) < 0.3]
        X[origin] = 0.0
        index = build_index(ds, Metric(p))
        for k in (3, 12):
            _, dist, r = brute_force_batch(ds, Metric(p), X, k + 1)
            full = np.column_stack([dist, r])
            tied = (full[:, 1:] == full[:, :-1]).any(axis=1)
            assert not tied[: neighbors._FIRST_CHUNK_ROWS].any() and tied[origin].all()
            assert_blocks_equal(query_batch(index, X, k), brute_force_batch(ds, Metric(p), X, k))

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 40),
        d=st.integers(1, 3),
        p=st.sampled_from([1.0, 2.0, math.inf]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_integer_points_match_brute_force(self, n, d, p, seed):
        rng = np.random.default_rng(seed)
        ds = Dataset(points=rng.integers(0, 4, (n, d)).astype(float), responses=np.zeros(n), task=Task.REGRESSION)
        X = rng.integers(-1, 9, (12, d)) * 0.5
        k = int(rng.integers(1, n))
        assert_blocks_equal(query_batch(build_index(ds, Metric(p)), X, k), brute_force_batch(ds, Metric(p), X, k))


def test_r_kplus1_dominates_distances(rng):
    for _ in range(30):
        n, d = int(rng.integers(2, 80)), int(rng.integers(1, 6))
        ds = random_dataset(rng, n, d)
        k = int(rng.integers(1, n))
        res = brute_force_query(ds, Metric(2.0), rng.uniform(-1, 1, d), k)
        assert res.r_kplus1 >= res.distances.max()


@pytest.mark.slow
def test_index_query_beats_full_scan_on_large_n():
    rng = np.random.default_rng(7)
    ds = random_dataset(rng, 30000, 3)
    m = Metric(2.0)
    index = build_index(ds, m)
    queries = rng.uniform(-1, 1, (150, 3))

    t0 = time.perf_counter()
    for x in queries:
        query(index, x, k=10)
    t_index = time.perf_counter() - t0

    t0 = time.perf_counter()
    for x in queries:
        brute_force_query(ds, m, x, k=10)
    t_brute = time.perf_counter() - t0

    assert t_index < t_brute
