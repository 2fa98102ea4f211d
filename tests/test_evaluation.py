import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interpnn import (
    CorruptionContext,
    CorruptionKind,
    CorruptionSpec,
    Dataset,
    EmptyGrid,
    EstimatorConfig,
    ExperimentSpec,
    KPolicy,
    KTooLarge,
    Metric,
    MissingContext,
    NeighborBlock,
    Task,
    TaskMismatch,
    cis_ratio_same_k,
    classification_model_2,
    corrupt,
    disagreement_rate,
    estimate_cis,
    estimate_corrupted_regret,
    estimate_mse,
    estimate_regret,
    fit,
    phi_catalog,
    predict_class,
    regression_model,
    run_attack_experiment,
    run_ratio_experiment,
    score_batch,
    toy_models,
    tune_k,
)
from interpnn.evaluation import _corrupt_batch
from interpnn.neighbors import build_index, query_batch
from interpnn.weighting import compute_weights_batch, power_scheme


class TestEstimateMse:
    def test_oracle_estimator_scores_zero(self):
        m = regression_model(2)
        assert estimate_mse(m.eta, m, 500, np.random.default_rng(0)) == 0.0

    def test_task_mismatch(self):
        m = classification_model_2(2)
        ds = m.sample(np.random.default_rng(0), 64)
        est = fit(ds, EstimatorConfig(k=4))
        with pytest.raises(TaskMismatch):
            estimate_mse(est, m, 100, np.random.default_rng(1))

    def test_noiseless_square_prefers_interpolation(self, rng):
        # noiseless x^2: all-bias regime, so the interpolating scheme wins
        _, square, _ = toy_models()
        train = square.sample(rng, None)
        mse = {}
        for name in ("uniform", "power"):
            est = fit(train, EstimatorConfig(k=10, gamma=1.0, scheme=phi_catalog(name)))
            mse[name] = estimate_mse(est, square, 31, np.random.default_rng(5))
        assert mse["power"] < mse["uniform"]

    def test_pure_noise_prefers_uniform(self, rng):
        flat, _, _ = toy_models()
        train = flat.sample(rng, None)
        mse = {}
        for name in ("uniform", "power"):
            est = fit(train, EstimatorConfig(k=10, gamma=1.0, scheme=phi_catalog(name)))
            mse[name] = estimate_mse(est, flat, 31, np.random.default_rng(5))
        assert mse["uniform"] < mse["power"]


class TestEstimateRegret:
    def test_bayes_classifier_scores_zero(self):
        m = classification_model_2(2)
        bayes = lambda X: m.bayes_label(X)
        assert estimate_regret(bayes, m, 2000, np.random.default_rng(0)) == 0.0

    def test_nonnegative(self, rng):
        m = classification_model_2(2)
        est = fit(m.sample(rng, 128), EstimatorConfig(k=8, gamma=0.5))
        assert estimate_regret(est, m, 500, rng) >= 0.0

    def test_constant_one_matches_direct_expectation(self):
        # constant label 1 misclassifies exactly on {g = 0}, so its Regret is
        # E[2|eta - 1/2| 1{g = 0}]; compare against a brute-force average of
        # that expectation over 10^6 fresh draws.
        m = classification_model_2(2)
        got = estimate_regret(lambda X: np.ones(len(X), dtype=int), m, 200_000, np.random.default_rng(3))
        X = m.sample(np.random.default_rng(99), 1_000_000).points
        eta = m.eta(X)
        want = float(np.mean(2.0 * np.abs(eta - 0.5) * (eta <= 0.5)))
        assert got == pytest.approx(want, abs=0.004)

    def test_weighted_form_matches_direct_form(self):
        # direct form: misclassification rate minus Monte Carlo Bayes error
        m = classification_model_2(2)
        rng = np.random.default_rng(11)
        est = fit(m.sample(rng, 256), EstimatorConfig(k=16, gamma=0.5))
        n = 200_000
        weighted = estimate_regret(est, m, n, np.random.default_rng(21))

        test = m.sample(np.random.default_rng(22), n)
        from interpnn import predict_class_batch

        labels, _ = predict_class_batch(est, test.points)
        err = labels != test.responses
        bayes_err = m.bayes_label(test.points) != test.responses
        direct = float(np.mean(err)) - float(np.mean(bayes_err))
        se = np.sqrt((np.var(err.astype(float) - bayes_err.astype(float)) + 0.25) / n)
        assert abs(weighted - direct) <= 3.0 * se + 3.0 / np.sqrt(n)


class TestEstimateCis:
    def test_identical_training_sets_give_zero(self):
        m = classification_model_2(2)
        cfg = EstimatorConfig(k=8, gamma=0.3)
        val = estimate_cis(cfg, m, 128, 500, np.random.default_rng(5), rng2=np.random.default_rng(5))
        assert val == 0.0

    def test_random_guess_disagrees_half_the_time(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, 5000)
        b = rng.integers(0, 2, 5000)
        assert disagreement_rate(a, b) == pytest.approx(0.5, abs=0.02)

    def test_cis_decreases_in_k(self):
        # variance shrinks with k, and CIS tracks the variance: the mean over
        # 50 repetitions is strictly decreasing across k = 5, 25, 125
        m = classification_model_2(2)
        sums = np.zeros(3)
        for rep in range(50):
            rng = np.random.default_rng(1000 + rep)
            sums += [estimate_cis(EstimatorConfig(k=k, gamma=0.0), m, 256, 400, rng) for k in (5, 25, 125)]
        means = sums / 50
        assert means[0] > means[1] > means[2]

    def test_task_mismatch(self):
        m = regression_model(2)
        with pytest.raises(TaskMismatch):
            estimate_cis(EstimatorConfig(k=4), m, 64, 64, np.random.default_rng(0))


class TestTuneK:
    def test_singleton_grid(self):
        m = regression_model(2)
        assert tune_k(m, 0.0, [1], 64, 64, np.random.default_rng(0)) == 1

    def test_empty_grid(self):
        m = regression_model(2)
        with pytest.raises(EmptyGrid):
            tune_k(m, 0.0, [], 64, 64, np.random.default_rng(0))

    @pytest.mark.slow
    def test_tuned_k_interior_on_default_grid(self):
        from interpnn import default_k_grid

        m = regression_model(2)
        grid = default_k_grid(2048)
        k = tune_k(m, 0.0, grid, 2048, 8192, np.random.default_rng(7))
        assert grid[0] < k < grid[-1]

    @pytest.mark.slow
    def test_interpolation_wants_more_neighbors(self):
        # k tuned at gamma = 0.3 d should not be smaller than at gamma = 0,
        # as a majority trend over repetitions
        m = regression_model(2)
        grid = (4, 8, 16, 32, 64, 128, 255)
        wins = ties = 0
        for rep in range(20):
            rng = np.random.default_rng(500 + rep)
            train = m.sample(rng, 512)
            X_tune = m.sample(rng, 4096).points
            eta = m.eta(X_tune)
            from interpnn.core import Metric
            from interpnn.evaluation import NeighborBlock
            from interpnn.neighbors import build_index

            block = NeighborBlock.query(build_index(train, Metric(2.0)), X_tune, grid[-1])
            mse = lambda scores: float(np.mean((scores - eta) ** 2))
            k0, _ = block.tune(grid, 0.0, mse)
            kg, _ = block.tune(grid, 0.6, mse)
            wins += kg > k0
            ties += kg == k0
        assert wins + ties >= 14
        assert wins >= 1


GAMMAS = (0.0, 0.3, 1.0, 50.0, 1e4)


def weights_reference(index, X, kmax, ks, gamma):
    """Scores at each k of ks from compute_weights_batch on the kmax block."""
    idx, dist, rk = query_batch(index, X, kmax)
    resp = index.dataset.responses[idx]
    rows = []
    for k in ks:
        w = compute_weights_batch(dist[:, :k], dist[:, k] if k < kmax else rk, power_scheme(gamma))
        rows.append(np.sum(w * resp[:, :k], axis=1))
    return np.array(rows)


def assert_matches_weights(index, X, ks, gamma):
    got = NeighborBlock.query(index, X, max(ks)).scores(ks, gamma)
    assert got.shape == (len(ks), X.shape[0])
    assert not np.isnan(got).any()
    np.testing.assert_allclose(got, weights_reference(index, X, max(ks), ks, gamma), rtol=0, atol=1e-12)


class TestNeighborBlock:
    GRID = (1, 2, 3, 5, 8, 13, 21)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_continuous_matches_weights(self, rng, gamma):
        ds = Dataset(points=rng.uniform(-1, 1, (300, 2)), responses=rng.normal(size=300), task=Task.REGRESSION)
        assert_matches_weights(build_index(ds, Metric(2.0)), rng.uniform(-1, 1, (120, 2)), self.GRID, gamma)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_duplicated_lattice_matches_weights(self, rng, gamma):
        # Every lattice point three times: a query on the lattice has three
        # zero distances, so k = 1, 2 see R_{k+1} = 0 and larger k the
        # interpolating tie split.
        base = np.array([[i, j] for i in range(5) for j in range(5)], dtype=float)
        ds = Dataset(points=np.vstack([base] * 3), responses=rng.integers(0, 2, 75).astype(float),
                     task=Task.CLASSIFICATION)
        X = np.vstack([base, base[rng.integers(0, 25, 50)] + rng.integers(-1, 2, (50, 2)) * 0.5])
        index = build_index(ds, Metric(2.0))
        block = NeighborBlock.query(index, X, max(self.GRID))
        assert np.count_nonzero(block.distances[:, 2] == 0.0) >= 25
        assert np.count_nonzero(block.distances[:, 0] > 0.0) > 0
        assert_matches_weights(index, X, self.GRID, gamma)

    def test_grid_row_equals_single_k_and_score_batch(self, rng):
        ds = Dataset(points=rng.uniform(-1, 1, (300, 2)), responses=rng.normal(size=300), task=Task.REGRESSION)
        X = rng.uniform(-1, 1, (120, 2))
        block = NeighborBlock.query(build_index(ds, Metric(2.0)), X, max(self.GRID))
        for gamma in (0.0, 0.7):
            rows = block.scores(self.GRID, gamma)
            for k, row in zip(self.GRID, rows):
                assert np.array_equal(row, block.scores((k,), gamma)[0])
                assert np.array_equal(row, score_batch(fit(ds, EstimatorConfig(k=k, gamma=gamma)), X))

    def test_tune_takes_first_k_on_ties(self, rng):
        ds = Dataset(points=rng.uniform(-1, 1, (300, 2)), responses=rng.normal(size=300), task=Task.REGRESSION)
        block = NeighborBlock.query(build_index(ds, Metric(2.0)), rng.uniform(-1, 1, (50, 2)), max(self.GRID))
        losses = iter([3.0, 1.0, 2.0, 1.0, 5.0, 1.0, 4.0])
        assert block.tune(self.GRID, 0.4, lambda scores: next(losses)) == (2, 1.0)
        # equal scores at every k: every loss ties, so the first k wins
        flat = NeighborBlock(distances=block.distances, responses=np.ones_like(block.responses))
        assert flat.tune(self.GRID, 0.4, lambda scores: float(np.mean(scores)))[0] == self.GRID[0]

    @pytest.mark.parametrize("gamma", [0.0, 0.9])
    def test_tune_value_is_loss_at_k(self, rng, gamma):
        ds = Dataset(points=rng.uniform(-1, 1, (300, 2)), responses=rng.normal(size=300), task=Task.REGRESSION)
        X = rng.uniform(-1, 1, (80, 2))
        block = NeighborBlock.query(build_index(ds, Metric(2.0)), X, max(self.GRID))
        mse = lambda scores: float(np.mean((scores - X[:, 0]) ** 2))
        k, val = block.tune(self.GRID, gamma, mse)
        assert val == mse(block.scores((k,), gamma)[0])
        assert val == min(mse(row) for row in block.scores(self.GRID, gamma))

    @pytest.mark.parametrize("ks", [(3, 6), (0, 3)])
    def test_k_outside_block_rejected(self, rng, ks):
        ds = Dataset(points=rng.uniform(-1, 1, (30, 2)), responses=np.zeros(30), task=Task.REGRESSION)
        block = NeighborBlock.query(build_index(ds, Metric(2.0)), rng.uniform(-1, 1, (4, 2)), 5)
        with pytest.raises(KTooLarge):
            block.scores(ks, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        d=st.integers(1, 3),
        levels=st.integers(1, 4),
        gamma=st.sampled_from(GAMMAS),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_integer_points_match_weights(self, n, d, levels, gamma, seed):
        rng = np.random.default_rng(seed)
        ds = Dataset(points=rng.integers(0, levels, (n, d)).astype(float),
                     responses=rng.integers(0, 2, n).astype(float), task=Task.CLASSIFICATION)
        X = rng.integers(0, levels, (8, d)) + rng.integers(0, 2, (8, d)) * 0.5
        ks = tuple(sorted({int(k) for k in rng.integers(1, n, 3)}))
        p = float(rng.choice([1.0, 2.0, np.inf]))
        assert_matches_weights(build_index(ds, Metric(p)), X, ks, gamma)


def tiny_spec(**kw):
    defaults = dict(
        model=classification_model_2(2),
        n_train=128,
        n_test=256,
        n_tune=256,
        repetitions=4,
        gamma_over_d=(0.0, 0.2),
        k_grid=(4, 8, 16),
        master_seed=7,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestRunRatioExperiment:
    def test_gamma_zero_only_gives_ratio_one(self):
        spec = tiny_spec(gamma_over_d=(0.0,), repetitions=1)
        res = run_ratio_experiment(spec)
        assert res.ratio_mean[0] == 1.0
        assert res.ratio_sd[0] == 0.0

    def test_zero_always_present_and_first(self):
        spec = tiny_spec(gamma_over_d=(0.3, 0.1))
        assert spec.gamma_over_d[0] == 0.0

    def test_thread_count_does_not_change_results(self):
        spec = tiny_spec(repetitions=6)
        res1 = run_ratio_experiment(spec, threads=1)
        res3 = run_ratio_experiment(spec, threads=3)
        assert np.array_equal(res1.ratio_mean, res3.ratio_mean)
        assert np.array_equal(res1.criterion_mean, res3.criterion_mean)
        assert np.array_equal(res1.per_rep_ratio, res3.per_rep_ratio)

    def test_cis_criterion_overlay(self):
        spec = tiny_spec(criterion="cis")
        res = run_ratio_experiment(spec)
        d = 2
        want = cis_ratio_same_k(d, np.asarray(spec.gamma_over_d) * d)
        assert np.allclose(res.theory_ratio, want, atol=1e-12)
        assert res.ratio_mean[0] == 1.0

    def test_regression_spec_rejects_cis(self):
        with pytest.raises(TaskMismatch):
            run_ratio_experiment(tiny_spec(model=regression_model(2), criterion="cis"))

    def test_invalid_gamma_fraction(self):
        with pytest.raises(ValueError):
            tiny_spec(gamma_over_d=(0.0, 0.5))


class TestCorrupt:
    def setup_method(self):
        rng = np.random.default_rng(3)
        m = classification_model_2(2)
        self.model = m
        self.est = fit(m.sample(rng, 128), EstimatorConfig(k=8, gamma=1.0))
        self.rng = rng

    @pytest.mark.parametrize("kind", list(CorruptionKind))
    def test_omega_zero_is_identity(self, kind):
        spec = CorruptionSpec(kind=kind, omega=0.0)
        x = np.array([0.3, -0.2])
        out = corrupt(x, spec, CorruptionContext())
        assert np.array_equal(out, x)

    def test_random_needs_rng(self):
        spec = CorruptionSpec(kind=CorruptionKind.RANDOM, omega=0.1)
        with pytest.raises(MissingContext):
            corrupt(np.zeros(2), spec, CorruptionContext())

    def test_black_box_needs_surrogate(self):
        spec = CorruptionSpec(kind=CorruptionKind.BLACK_BOX, omega=0.1)
        with pytest.raises(MissingContext):
            corrupt(np.zeros(2), spec, CorruptionContext(rng=self.rng, eta_x=0.3))

    def test_white_box_needs_target(self):
        spec = CorruptionSpec(kind=CorruptionKind.WHITE_BOX, omega=0.1)
        with pytest.raises(MissingContext):
            corrupt(np.zeros(2), spec, CorruptionContext(rng=self.rng, eta_x=0.3))

    def test_random_stays_in_ball(self):
        spec = CorruptionSpec(kind=CorruptionKind.RANDOM, omega=0.25)
        for _ in range(200):
            x = self.rng.normal(size=3)
            out = corrupt(x, spec, CorruptionContext(rng=self.rng))
            assert np.linalg.norm(out - x) <= 0.25 + 1e-12

    def test_random_1d_is_uniform_on_interval(self):
        from scipy import stats

        omega = 0.7
        X = np.full((100_000, 1), 2.0)
        spec = CorruptionSpec(kind=CorruptionKind.RANDOM, omega=omega)
        out = _corrupt_batch(X, np.zeros(len(X)), spec, np.random.default_rng(0), None)
        res = stats.kstest(out[:, 0], stats.uniform(loc=2.0 - omega, scale=2 * omega).cdf)
        assert res.pvalue > 1e-3

    def test_white_box_lands_on_opposite_label_training_point(self):
        # label-1 point at 0.0 inside the ball around x = 0.3; local
        # label-0 points dominate the clean prediction
        ds = Dataset(
            points=[[0.0], [0.35], [0.45], [0.55], [2.0]],
            responses=[1.0, 0.0, 0.0, 0.0, 0.0],
            task=Task.CLASSIFICATION,
        )
        est = fit(ds, EstimatorConfig(k=3, gamma=1.0))
        x = np.array([0.3])
        assert predict_class(est, x)[0] == 0
        spec = CorruptionSpec(kind=CorruptionKind.WHITE_BOX, omega=0.5, candidate_budget=16)
        ctx = CorruptionContext(rng=np.random.default_rng(0), eta_x=0.2, target=est)
        out = corrupt(x, spec, ctx)
        assert np.array_equal(out, np.array([0.0]))
        assert predict_class(est, out)[0] == 1

    @pytest.mark.parametrize("kind", list(CorruptionKind))
    def test_single_is_one_row_of_batch(self, kind):
        # duplicated lattice training points, so the attacks score tied rows
        base = np.array([[i, j] for i in range(6) for j in range(6)], dtype=float) / 5.0
        ds = Dataset(points=np.vstack([base, base]), responses=np.tile(base.sum(axis=1) > 1.0, 2),
                     task=Task.CLASSIFICATION)
        est = fit(ds, EstimatorConfig(k=5, gamma=1.0))
        spec = CorruptionSpec(kind=kind, omega=0.3, candidate_budget=8)
        for i, x in enumerate(base[::5]):
            eta_x = 0.3 if i % 2 else 0.7
            ctx = CorruptionContext(rng=np.random.default_rng(i), eta_x=eta_x, surrogate=est, target=est)
            want = _corrupt_batch(x[None, :], np.array([eta_x]), spec, np.random.default_rng(i),
                                  surrogate=est, target=est)[0]
            assert np.array_equal(corrupt(x, spec, ctx), want)

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_black_box_all_candidates_tied_keeps_x(self, label):
        # one-label training data: the k-NN surrogate scores every
        # candidate exactly the same, and the tie goes to x itself
        ds = Dataset(points=self.rng.normal(size=(64, 2)), responses=np.full(64, label),
                     task=Task.CLASSIFICATION)
        surr = fit(ds, EstimatorConfig(k=7, gamma=0.0))
        X = self.rng.normal(size=(40, 2))
        eta = np.linspace(0.05, 0.95, 40)
        spec = CorruptionSpec(kind=CorruptionKind.BLACK_BOX, omega=0.3, candidate_budget=16)
        out = _corrupt_batch(X, eta, spec, np.random.default_rng(5), surrogate=surr)
        assert np.array_equal(out, X)

    def test_black_box_moves_score_adversarially(self):
        surr = fit(self.model.sample(np.random.default_rng(8), 128), EstimatorConfig(k=8, gamma=0.0))
        spec = CorruptionSpec(kind=CorruptionKind.BLACK_BOX, omega=0.4, candidate_budget=32)
        from interpnn import score

        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=2)
            eta_x = float(self.model.eta(x[None, :])[0])
            out = corrupt(x, spec, CorruptionContext(rng=rng, eta_x=eta_x, surrogate=surr))
            if eta_x < 0.5:
                assert score(surr, out) >= score(surr, x)
            else:
                assert score(surr, out) <= score(surr, x)


class TestCorruptedRegret:
    def test_omega_zero_reproduces_clean_regret_exactly(self):
        m = classification_model_2(2)
        est = fit(m.sample(np.random.default_rng(1), 256), EstimatorConfig(k=8, gamma=0.5))
        spec = CorruptionSpec(kind=CorruptionKind.WHITE_BOX, omega=0.0)
        clean = estimate_regret(est, m, 400, np.random.default_rng(77))
        corrupted = estimate_corrupted_regret(est, m, spec, 400, np.random.default_rng(77))
        assert corrupted == clean

    def test_black_box_requires_surrogate(self):
        m = classification_model_2(2)
        est = fit(m.sample(np.random.default_rng(1), 128), EstimatorConfig(k=8, gamma=0.5))
        spec = CorruptionSpec(kind=CorruptionKind.BLACK_BOX, omega=0.1)
        with pytest.raises(MissingContext):
            estimate_corrupted_regret(est, m, spec, 100, np.random.default_rng(0))

    def test_attack_experiment_omega_zero_matches_clean(self):
        spec = tiny_spec(repetitions=3)
        clean = run_ratio_experiment(spec)
        attacked = run_attack_experiment(
            spec, kinds=(CorruptionKind.RANDOM, CorruptionKind.WHITE_BOX), omegas=(0.0,)
        )
        for key, res in attacked.items():
            assert np.array_equal(res.criterion_mean, clean.criterion_mean)
            assert np.array_equal(res.per_rep_ratio, clean.per_rep_ratio)

    @pytest.mark.slow
    def test_large_omega_white_box_pins_interpolated_regret(self):
        # omega far above the interpoint scale n^{-1/d}: the ball reaches
        # opposite-label training points, so white-box regret on an
        # interpolating machine stays bounded away from 0, while random
        # perturbation of the same size stays mild and plain k-NN suffers
        # far less from the same attack
        m = classification_model_2(2)
        n_train = 512
        omega = 8.0 * n_train ** -0.5
        white = CorruptionSpec(kind=CorruptionKind.WHITE_BOX, omega=omega, candidate_budget=32)
        rand = CorruptionSpec(kind=CorruptionKind.RANDOM, omega=omega)
        vals = {"white_interp": [], "rand_interp": [], "white_knn": []}
        for rep in range(5):
            train = m.sample(np.random.default_rng(300 + rep), n_train)
            interp = fit(train, EstimatorConfig(k=15, gamma=0.6))
            knn = fit(train, EstimatorConfig(k=15, gamma=0.0))
            seed = np.random.default_rng(400 + rep).integers(2**32)
            vals["white_interp"].append(
                estimate_corrupted_regret(interp, m, white, 1500, np.random.default_rng(seed)))
            vals["rand_interp"].append(
                estimate_corrupted_regret(interp, m, rand, 1500, np.random.default_rng(seed)))
            vals["white_knn"].append(
                estimate_corrupted_regret(knn, m, white, 1500, np.random.default_rng(seed)))
        white_interp = np.mean(vals["white_interp"])
        assert white_interp > 0.1
        assert np.mean(vals["rand_interp"]) < white_interp / 2
        assert np.mean(vals["white_knn"]) < white_interp

    @pytest.mark.slow
    def test_metric_universality_of_the_ratio_curve(self):
        # L1 and Linf neighborhoods produce the same ratio curve shape as L2
        from interpnn.core import Metric
        from interpnn.theory import pr_same_k

        for p in (1.0, np.inf):
            spec = ExperimentSpec(
                model=regression_model(2), n_train=1024, n_test=2000, n_tune=4096,
                repetitions=50, gamma_over_d=(0.0, 0.1, 0.2, 0.3),
                metric=Metric(p), master_seed=17,
            )
            res = run_ratio_experiment(spec, threads=2)
            theory = pr_same_k(2, np.asarray(spec.gamma_over_d) * 2)
            assert np.max(np.abs(res.ratio_mean - theory)) <= 0.06, f"p={p}"
