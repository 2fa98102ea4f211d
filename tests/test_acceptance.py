"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the Monte Carlo criteria (6, 7, 9) take minutes and use two worker
threads.
"""
import math

import numpy as np
import pytest
from mpmath import mp, mpf

import interpnn as nn
from interpnn.evaluation import _corrupt_batch
from interpnn.weighting import compute_weights, compute_weights_batch

mp.dps = 50

THREADS = 2


def ok(num, msg):
    print(f"ACCEPTANCE {num:>2} PASS: {msg}")


# -- high-precision re-derivations (independent of the float implementation)


def mp_var(d, g):
    d, g = mpf(d), mpf(g)
    return (d - g) ** 2 / (d * (d - 2 * g))


def mp_bias(d, g):
    d, g = mpf(d), mpf(g)
    return (d - g) ** 2 * (d + 2) ** 2 / ((d + 2 - g) ** 2 * d ** 2)


def mp_pr_same(d, g):
    return (mp_var(d, g) + mpf(d) / 4 * mp_bias(d, g)) / (1 + mpf(d) / 4)


def mp_pr_opt(d, g):
    return mp_var(d, g) ** (mpf(4) / (d + 4)) * mp_bias(d, g) ** (mpf(d) / (d + 4))


def mp_ownn(d, g):
    const = mpf(2) ** (mpf(4) / (d + 4)) * (mpf(d + 2) / (d + 4)) ** (mpf(2 * d + 4) / (d + 4))
    return const / mp_pr_opt(d, g)


def test_criterion_01_closed_form_golden_values():
    cases = [
        ("pr_same_k(2, 0.5)", nn.pr_same_k(2, 0.5), mp_pr_same(2, mpf("0.5"))),
        ("pr_optimal_k(2, 0.5)", nn.pr_optimal_k(2, 0.5), mp_pr_opt(2, mpf("0.5"))),
        ("ownn_ratio(2, 0)", nn.ownn_ratio(2, 0.0), mp_ownn(2, 0)),
        ("cis_ratio_same_k(4, 1)", nn.cis_ratio_same_k(4, 1.0), mp_var(4, 1) ** mpf("0.5")),
    ]
    for name, got, oracle in cases:
        assert abs(got - float(oracle)) <= 1e-5, f"{name}: {got} vs {float(oracle)}"
    # frozen values of the re-derivation, for the record
    assert nn.pr_same_k(2, 0.5) == pytest.approx(0.9948979591836735, abs=1e-12)
    assert nn.pr_optimal_k(2, 0.5) == pytest.approx(0.9760464552457487, abs=1e-12)
    assert nn.ownn_ratio(2, 0.0) == pytest.approx(0.9244816991341796, abs=1e-12)
    assert nn.cis_ratio_same_k(4, 1.0) == pytest.approx(1.0606601717798212, abs=1e-12)
    for d in range(1, 21):
        assert abs(nn.pr_same_k(d, 0.0) - 1.0) <= 1e-12
        assert abs(nn.pr_optimal_k(d, 0.0) - 1.0) <= 1e-12
    ok(1, "closed-form golden values match the high-precision re-derivation to 1e-5 "
          "(both ratios exactly 1 at gamma = 0 for d = 1..20)")


def test_criterion_02_u_shape_and_thresholds():
    for d in range(1, 21):
        g = np.arange(0.0, d / 2.0 - 1e-3 + 1e-12, 1e-3)
        for fn in (nn.pr_same_k, nn.pr_optimal_k):
            vals = fn(d, g)
            diffs = np.diff(vals)
            assert np.all(diffs != 0.0), f"flat segment, d={d}"
            signs = np.sign(diffs)
            assert np.count_nonzero(np.diff(signs) != 0) == 1, f"not U-shaped, d={d}"
    for d in range(4, 21):
        assert abs(nn.gamma_threshold(d, "optimal_k") - d / 3.0) <= 1e-9
    for d in (1, 2, 3):
        assert nn.gamma_threshold(d, "optimal_k") < d / 3.0
    ok(2, "PR and PR' are U-shaped on a 1e-3 grid for d = 1..20; optimal-k threshold "
          "= d/3 for d >= 4 and < d/3 for d <= 3")


def test_criterion_03_delta_criterion():
    for d in range(1, 11):
        got = nn.delta_criterion(lambda x: -np.log(x), d)
        want = -2.0 / (d * d * (d + 2.0) ** 2)
        assert abs(got - want) <= 1e-8, f"d={d}: {got} vs {want}"
    ok(3, "delta criterion for phi'(x,0) = -ln x equals -2/(d^2 (d+2)^2) within 1e-8 "
          "for d = 1..10")


def test_criterion_04_neighbor_oracle_equivalence():
    rng = np.random.default_rng(20240401)
    ps = (1.0, 2.0, math.inf)
    mismatches = 0
    for case in range(1000):
        n = int(rng.integers(2, 501))
        d = int(rng.integers(1, 9))
        p = ps[case % 3]
        ds = nn.Dataset(points=rng.uniform(-1, 1, (n, d)), responses=np.zeros(n), task=nn.Task.REGRESSION)
        k = int(rng.integers(1, n))
        x = rng.uniform(-1.2, 1.2, d)
        m = nn.Metric(p)
        rq = nn.query(nn.build_index(ds, m), x, k)
        rb = nn.brute_force_query(ds, m, x, k)
        same = (
            np.array_equal(rq.indices, rb.indices)
            and np.array_equal(rq.distances, rb.distances)
            and rq.r_kplus1 == rb.r_kplus1
        )
        mismatches += not same
    assert mismatches == 0
    ok(4, "kd-index query identical to brute force on 1000 random cases "
          "(p in {1, 2, inf}, n <= 500, d <= 8): zero mismatches")


def test_criterion_05_estimator_invariants():
    rng = np.random.default_rng(99)
    # simplex on 10^4 random neighborhoods, zero-distance ties included
    k = 12
    dist = np.sort(rng.uniform(0.0, 1.0, (10_000, k)), axis=1)
    dist[::7, 0] = 0.0
    dist[::31, :3] = 0.0
    rk1 = dist[:, -1] + rng.uniform(1e-9, 1.0, 10_000)
    for gamma in (0.0, 0.5, 2.0, 25.0):
        w = compute_weights_batch(dist, rk1, nn.power_scheme(gamma))
        assert np.all(w >= 0.0)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
    for i in range(0, 10_000, 997):  # spot-check batch == single
        w1 = compute_weights(
            nn.NeighborQueryResult(indices=np.arange(k), distances=dist[i], r_kplus1=float(rk1[i])),
            nn.power_scheme(2.0),
        )
        assert np.allclose(w1, compute_weights_batch(dist[i : i + 1], rk1[i : i + 1], nn.power_scheme(2.0))[0],
                           atol=1e-13)

    # exact interpolation at every training point for gamma in {0.1, 1, 10}
    X = rng.uniform(-1, 1, (200, 3))
    y = rng.normal(size=200)
    ds = nn.Dataset(points=X, responses=y, task=nn.Task.REGRESSION)
    for gamma in (0.1, 1.0, 10.0):
        est = nn.fit(ds, nn.EstimatorConfig(k=8, gamma=gamma))
        for i in range(200):
            assert nn.predict_regression(est, X[i]) == y[i]

    # gamma = 0 equals uniform k-NN bit-for-bit (against an independent
    # brute-force + uniform-dot reference)
    est0 = nn.fit(ds, nn.EstimatorConfig(k=8, gamma=0.0))
    m = nn.Metric(2.0)
    for _ in range(500):
        x = rng.uniform(-1, 1, 3)
        ref = nn.brute_force_query(ds, m, x, 8)
        expected = float(np.dot(np.full(8, 1.0 / 8.0), y[ref.indices]))
        assert nn.predict_regression(est0, x) == expected
    ok(5, "weight simplex holds on 10^4 neighborhoods (ties included); exact "
          "interpolation at all training points; gamma = 0 equals uniform k-NN bit-for-bit")


GAMMA_GRID = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


@pytest.mark.slow
def test_criterion_06_figure3_regression_ratio():
    model = nn.regression_model(2)
    for policy, overlay, label in (
        (nn.KPolicy.SHARED_OPTIMAL_AT_GAMMA_ZERO, nn.pr_same_k, "PR"),
        (nn.KPolicy.OPTIMAL_PER_GAMMA, nn.pr_optimal_k, "PR'"),
    ):
        spec = nn.ExperimentSpec(
            model=model, n_train=2048, n_test=5000, repetitions=100,
            gamma_over_d=GAMMA_GRID, k_policy=policy, master_seed=0, n_tune=8192,
        )
        res = nn.run_ratio_experiment(spec, threads=THREADS)
        gammas = np.asarray(spec.gamma_over_d) * 2
        theory = overlay(2, gammas)
        worst = float(np.max(np.abs(res.ratio_mean - theory)))
        assert worst <= 0.05, f"{label}: worst deviation {worst:.4f}"
        print(f"  criterion 6 [{label}]: worst |empirical - theory| = {worst:.4f}")
    ok(6, "d=2 regression, n=2048, 100 reps: empirical ratio within 0.05 of PR "
          "under shared k and of PR' under per-gamma k, at every grid point")


@pytest.mark.slow
def test_criterion_07_classification_ratio_trends():
    model = nn.classification_model_2(5)
    spec = nn.ExperimentSpec(
        model=model, n_train=2048, n_test=5000, repetitions=100,
        gamma_over_d=GAMMA_GRID, master_seed=0, n_tune=4096,
    )
    res = nn.run_ratio_experiment(spec, threads=THREADS)
    gammas = np.asarray(spec.gamma_over_d) * 5
    worst_regret = float(np.max(np.abs(res.ratio_mean - nn.pr_same_k(5, gammas))))
    assert worst_regret <= 0.08, f"regret deviation {worst_regret:.4f}"
    print(f"  criterion 7 [regret]: worst |empirical - theory| = {worst_regret:.4f}")

    cis_spec = nn.ExperimentSpec(
        model=model, n_train=2048, n_test=5000, repetitions=100,
        gamma_over_d=GAMMA_GRID, master_seed=0, n_tune=4096, criterion="cis",
    )
    cres = nn.run_ratio_experiment(cis_spec, threads=THREADS)
    theory_cis = np.sqrt((5.0 - gammas) ** 2 / (5.0 * (5.0 - 2.0 * gammas)))
    worst_cis = float(np.max(np.abs(cres.ratio_mean - theory_cis)))
    assert worst_cis <= 0.1, f"CIS deviation {worst_cis:.4f}"
    # same-k CIS ratio should not drop materially below 1 anywhere
    assert np.all(cres.ratio_mean >= 1.0 - 0.03)
    print(f"  criterion 7 [CIS]: worst |empirical - theory| = {worst_cis:.4f}")
    ok(7, "model 2, d=5, shared k: Regret ratio within 0.08 of PR(5, gamma) and CIS "
          "ratio within 0.1 of sqrt((5-g)^2/(5(5-2g))) for gamma/d <= 0.3")


def test_criterion_08_toy_study_orderings():
    flat, square, _ = nn.toy_models()
    x_eval = np.arange(0.0, 20.0 + 1e-9, 0.25).reshape(-1, 1)
    schemes = {name: nn.phi_catalog(name, gamma=1.0) for name in ("uniform", "one_minus_log", "power")}

    def fit_errors(model, rng):
        train = model.sample(rng, None)
        eta = model.eta(x_eval)
        out = {}
        for name, scheme in schemes.items():
            est = nn.fit(train, nn.EstimatorConfig(k=10, gamma=1.0, scheme=scheme))
            pred = nn.predict_regression_batch(est, x_eval)
            out[name] = float(np.mean((pred - eta) ** 2))
        return out

    rng = np.random.default_rng(314)
    uniform_wins = 0
    for _ in range(100):
        errs = fit_errors(flat, rng)
        uniform_wins += errs["uniform"] < min(errs["one_minus_log"], errs["power"])
    assert uniform_wins >= 95, f"uniform won only {uniform_wins}/100 on the pure-noise model"

    power_wins = 0
    for _ in range(100):
        errs = fit_errors(square, rng)  # noiseless: squared bias only
        power_wins += errs["power"] < min(errs["one_minus_log"], errs["uniform"])
    assert power_wins >= 95, f"power won only {power_wins}/100 on the noiseless model"
    ok(8, f"toy orderings: uniform smallest MSE on eta = 0 in {uniform_wins}/100 reps; "
          f"power(1) smallest squared bias on noiseless x^2 in {power_wins}/100 reps")


@pytest.mark.slow
def test_criterion_09_corruption_properties():
    model = nn.classification_model_2(2)

    # (a) omega = 0 reproduces clean regret byte-identically per seed
    est = nn.fit(model.sample(np.random.default_rng(5), 512), nn.EstimatorConfig(k=16, gamma=0.6))
    for kind in nn.CorruptionKind:
        spec0 = nn.CorruptionSpec(kind=kind, omega=0.0)
        clean = nn.estimate_regret(est, model, 1500, np.random.default_rng(123))
        corr = nn.estimate_corrupted_regret(est, model, spec0, 1500, np.random.default_rng(123))
        assert corr == clean

    # (b) attack-strength ordering in mean over 50 repetitions at omega near
    # n^{-1/d} (n = 1024, d = 2 -> 1/32)
    n_train = 1024
    omega = n_train ** (-1.0 / 2.0)
    spec = nn.ExperimentSpec(
        model=model, n_train=n_train, n_test=1000, repetitions=50,
        gamma_over_d=(0.0, 0.1, 0.2, 0.3), master_seed=3, n_tune=2048,
    )
    results = nn.run_attack_experiment(
        spec,
        kinds=(nn.CorruptionKind.RANDOM, nn.CorruptionKind.BLACK_BOX, nn.CorruptionKind.WHITE_BOX),
        omegas=(omega,),
        candidate_budget=32,
        threads=THREADS,
    )
    mean_regret = {
        kind: float(np.mean(results[(kind, omega)].criterion_mean))
        for kind in nn.CorruptionKind
    }
    assert mean_regret[nn.CorruptionKind.WHITE_BOX] >= mean_regret[nn.CorruptionKind.BLACK_BOX] \
        >= mean_regret[nn.CorruptionKind.RANDOM]
    print(f"  criterion 9: mean corrupted regret random={mean_regret[nn.CorruptionKind.RANDOM]:.05f} "
          f"black={mean_regret[nn.CorruptionKind.BLACK_BOX]:.5f} "
          f"white={mean_regret[nn.CorruptionKind.WHITE_BOX]:.5f}")

    # (c) small-omega random perturbation keeps the clean ratio curve
    clean = nn.run_ratio_experiment(spec, threads=THREADS)
    small = nn.run_attack_experiment(
        spec, kinds=(nn.CorruptionKind.RANDOM,), omegas=(0.02,), threads=THREADS
    )[(nn.CorruptionKind.RANDOM, 0.02)]
    worst = float(np.max(np.abs(small.ratio_mean - clean.ratio_mean)))
    assert worst <= 0.08, f"small-omega ratio curve deviates by {worst:.4f}"
    ok(9, f"omega=0 byte-identical to clean; white >= black >= random in mean regret "
          f"over 50 reps; small-omega random ratio within {worst:.3f} <= 0.08 of clean")


def test_criterion_10_determinism_across_thread_counts(tmp_path):
    from interpnn.cli import main

    sim_cfg = tmp_path / "sim.txt"
    sim_cfg.write_text(
        "model = classification_1\nd = 3\nn_train = 256\nn_test = 400\nn_tune = 400\n"
        "repetitions = 8\ngamma_over_d = 0,0.15,0.3\nk_grid = 4,8,16,32\nseed = 42\n"
    )
    attack_cfg = tmp_path / "attack.txt"
    attack_cfg.write_text(
        "model = classification_2\nd = 2\nn_train = 256\nn_test = 300\nn_tune = 300\n"
        "repetitions = 5\ngamma_over_d = 0,0.2\nk_grid = 4,8,16\n"
        "kinds = random,black_box,white_box\nomegas = 0,0.05\ncandidate_budget = 16\nseed = 9\n"
    )
    for name, cfg in (("simulate", sim_cfg), ("attack", attack_cfg)):
        blobs = []
        for threads, sub in ((1, "a"), (4, "b")):
            out = tmp_path / f"{name}_{sub}"
            rc = main([name, "--config", str(cfg), "--out", str(out), "--threads", str(threads)])
            assert rc == 0
            blobs.append((out / f"{name}.csv").read_bytes())
        assert blobs[0] == blobs[1], f"{name} output differs across thread counts"
    ok(10, "simulate and attack runs are byte-identical for 1 vs 4 worker threads "
           "under a fixed master seed")
