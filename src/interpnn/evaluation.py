"""Monte Carlo estimation of MSE / Regret / CIS, k-tuning, the two ratio
experiment scenarios, and corrupted-test-point evaluation.

Risk estimators lean on the models' exact eta oracle: regression error is
measured against eta(X) rather than noisy Y, and classification Regret uses
the weighted identity 2|eta(X) - 1/2| 1{ghat != g}, which has far lower
variance than differencing empirical error rates against a Monte Carlo
Bayes error.

Reproducibility contract: every repetition r of an experiment derives its
own generator family from SeedSequence((master_seed, r)).spawn(...), and
aggregation is an ordered reduction over r. Results are therefore
bit-identical for a given master seed no matter how many worker threads run
the repetitions.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .core import (
    EmptyGrid,
    EstimatorConfig,
    KTooLarge,
    Metric,
    MissingContext,
    Task,
    TaskMismatch,
)
from .estimator import (
    FittedEstimator,
    fit,
    predict_class_batch,
    predict_regression_batch,
    score_batch,
)
from .neighbors import NeighborIndex, build_index, query_batch
from .synthetic import SyntheticModel
from .theory import cis_ratio_optimal_k, cis_ratio_same_k, pr_optimal_k, pr_same_k
# compute_weights_batch is unused here but stays importable: perfbench/spans.py
# wraps it at this import site for its traced runs.
from .weighting import compute_weights_batch, power_scores  # noqa: F401


# ---------------------------------------------------------------------------
# Point estimators


def _test_points(model: SyntheticModel, rng: np.random.Generator, n: int) -> np.ndarray:
    # Sampling a full dataset and keeping the points draws X from the
    # correct marginal for every model, including the label-mixture ones.
    return model.sample(rng, n).points


def estimate_mse(est, model: SyntheticModel, n_test: int, rng: np.random.Generator) -> float:
    """Mean squared error of the regression estimate against exact eta."""
    if isinstance(est, FittedEstimator) and est.dataset.task is not Task.REGRESSION:
        raise TaskMismatch("estimate_mse needs a regression estimator")
    X = _test_points(model, rng, n_test)
    eta = model.eta(X)
    preds = est(X) if callable(est) else predict_regression_batch(est, X)
    return float(np.mean((np.asarray(preds) - eta) ** 2))


def estimate_regret(est, model: SyntheticModel, n_test: int, rng: np.random.Generator) -> float:
    """Excess classification risk via the weighted identity
    E[2 |eta(X) - 1/2| 1{ghat(X) != g(X)}], using exact eta."""
    if isinstance(est, FittedEstimator) and est.dataset.task is not Task.CLASSIFICATION:
        raise TaskMismatch("estimate_regret needs a classification estimator")
    X = _test_points(model, rng, n_test)
    eta = model.eta(X)
    g = eta > 0.5
    labels = np.asarray(est(X)) if callable(est) else predict_class_batch(est, X)[0]
    return float(np.mean(2.0 * np.abs(eta - 0.5) * (labels != g)))


def disagreement_rate(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Fraction of positions where two label vectors differ (the empirical
    classification-instability statistic)."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise ValueError("label vectors must have the same shape")
    return float(np.mean(a != b))


def estimate_cis(
    config: EstimatorConfig,
    model: SyntheticModel,
    n_train: int,
    n_test: int,
    rng: np.random.Generator,
    rng2: Optional[np.random.Generator] = None,
) -> float:
    """Classification instability: train two machines on independent draws
    and report their disagreement rate on fresh test points.

    The second training set comes from ``rng2`` when given (pass a
    same-seeded generator to force D1 = D2), otherwise from continued draws
    of ``rng``.
    """
    if model.task is not Task.CLASSIFICATION:
        raise TaskMismatch("estimate_cis needs a classification model")
    train1 = model.sample(rng, n_train)
    train2 = model.sample(rng2 if rng2 is not None else rng, n_train)
    X = _test_points(model, rng, n_test)
    labels1, _ = predict_class_batch(fit(train1, config), X)
    labels2, _ = predict_class_batch(fit(train2, config), X)
    return disagreement_rate(labels1, labels2)


# ---------------------------------------------------------------------------
# k tuning


def _normalize_grid(k_grid, n_train: int) -> tuple[int, ...]:
    grid = tuple(sorted(set(int(k) for k in k_grid)))
    if not grid:
        raise EmptyGrid("k_grid is empty")
    if grid[0] < 1:
        raise KTooLarge(f"k values must be >= 1, got {grid[0]}")
    if grid[-1] >= n_train:
        raise KTooLarge(f"k = {grid[-1]} needs k <= n_train - 1 = {n_train - 1}")
    return grid


@dataclass(frozen=True)
class NeighborBlock:
    """The kmax nearest neighbours of every row of one query matrix: their
    ascending distances and their training responses, both (m, kmax). One
    spatial query then serves every (k, gamma) scored on that matrix."""

    distances: np.ndarray
    responses: np.ndarray

    @classmethod
    def query(cls, index: NeighborIndex, X: np.ndarray, kmax: int) -> "NeighborBlock":
        """The block of the (m, d) query matrix X against index's training set."""
        idx, dist, _ = query_batch(index, X, kmax)
        return cls(distances=dist, responses=index.dataset.responses[idx])

    @property
    def kmax(self) -> int:
        return self.distances.shape[1]

    def scores(self, ks, gamma: float) -> np.ndarray:
        """(len(ks), m) power-scheme scores, row j at k = ks[j]."""
        if min(ks) < 1 or max(ks) > self.kmax:
            raise KTooLarge(f"every k must lie in 1..{self.kmax} (the block size), got {tuple(ks)}")
        return power_scores(self.distances, self.responses, ks, gamma)


def _criterion_value_from_labels(labels: np.ndarray, eta: np.ndarray, g: np.ndarray) -> float:
    return float(np.mean(2.0 * np.abs(eta - 0.5) * (labels != g)))


def _criterion_value(scores: np.ndarray, eta: np.ndarray, task: Task) -> float:
    if task is Task.REGRESSION:
        return float(np.mean((scores - eta) ** 2))
    return _criterion_value_from_labels(scores > 0.5, eta, eta > 0.5)


def _tune(block: NeighborBlock, eta: np.ndarray, gamma: float, grid: tuple[int, ...], task: Task) -> int:
    vals = [_criterion_value(scores, eta, task) for scores in block.scores(grid, gamma)]
    return grid[int(np.argmin(vals))]  # argmin takes the first = smallest k on ties


def tune_k(
    model: SyntheticModel,
    gamma: float,
    k_grid,
    n_train: int,
    n_tune: int,
    rng: np.random.Generator,
    metric: Metric = Metric(),
) -> int:
    """Pick the k in k_grid minimizing MSE (regression) or Regret
    (classification) on an independently simulated tuning set; ties go to
    the smaller k."""
    grid = _normalize_grid(k_grid, n_train)
    train = model.sample(rng, n_train)
    X_tune = _test_points(model, rng, n_tune)
    eta = model.eta(X_tune)
    block = NeighborBlock.query(build_index(train, metric), X_tune, grid[-1])
    return _tune(block, eta, gamma, grid, model.task)


# ---------------------------------------------------------------------------
# Corruption of test inputs


class CorruptionKind(Enum):
    RANDOM = "random"
    BLACK_BOX = "black_box"
    WHITE_BOX = "white_box"


@dataclass(frozen=True)
class CorruptionSpec:
    """Corruption inside an L2 ball of radius omega; attacks search over
    candidate_budget uniform ball samples (plus x itself, plus exactly
    projected opposite-label training points for the white box)."""

    kind: CorruptionKind
    omega: float
    candidate_budget: int = 64

    def __post_init__(self):
        if not (self.omega >= 0.0):
            raise ValueError(f"omega must be >= 0, got {self.omega}")
        if self.candidate_budget < 1:
            raise ValueError("candidate_budget must be >= 1")


@dataclass
class CorruptionContext:
    """What each corruption kind needs: an RNG always; the true eta(x) and a
    surrogate machine for the black box; the true eta(x) and the target
    machine for the white box."""

    rng: Optional[np.random.Generator] = None
    eta_x: Optional[float] = None
    surrogate: Optional[FittedEstimator] = None
    target: Optional[FittedEstimator] = None


def _ball_samples(rng: np.random.Generator, m: int, budget: int, d: int, omega: float) -> np.ndarray:
    """(m, budget, d) uniform draws from the L2 ball of radius omega."""
    direction = rng.standard_normal((m, budget, d))
    norms = np.sqrt(np.square(direction).sum(axis=-1, keepdims=True))
    norms[norms == 0.0] = 1.0
    radii = omega * rng.random((m, budget, 1)) ** (1.0 / d)
    return direction / norms * radii


def _signed_pick(scores: np.ndarray, sgn: np.ndarray) -> np.ndarray:
    """Row index of the adversarially best candidate: argmax of score when
    pushing toward label 1 (sgn=+1), argmin when pushing toward 0."""
    return np.argmax(sgn[:, None] * scores, axis=1)


def _opposite_training_hits(est: FittedEstimator, X: np.ndarray, g: np.ndarray, omega: float):
    """For each test row, the training indices inside the L2 ball whose
    label opposes the Bayes label g; attack balls are L2 regardless of the
    estimator's query metric."""
    hits = est.index.tree.query_ball_point(X, r=omega, p=2.0)
    out = []
    resp = est.dataset.responses
    for i, lst in enumerate(hits):
        if lst:
            opp = [j for j in sorted(lst) if resp[j] != g[i]]
            out.append(opp)
        else:
            out.append([])
    return out


def corrupt(x: np.ndarray, spec: CorruptionSpec, context: CorruptionContext) -> np.ndarray:
    """Corrupted version of a single test point per the spec's kind.

    omega = 0 returns x unchanged (no randomness consumed). Both attacks
    are budgeted inner-maximization approximations; the white-box candidate
    set additionally contains every opposite-label training point inside
    the ball, which is the construction that provably flips an
    interpolating estimator.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if spec.omega == 0.0:
        return x.copy()
    if context.rng is None:
        raise MissingContext("corruption needs an rng in the context")
    X = x[None, :]
    if spec.kind is CorruptionKind.RANDOM:
        return (X + _ball_samples(context.rng, 1, 1, x.size, spec.omega)[:, 0, :])[0]

    if context.eta_x is None:
        raise MissingContext(f"{spec.kind.value} attack needs eta_x in the context")
    machine = context.surrogate if spec.kind is CorruptionKind.BLACK_BOX else context.target
    if machine is None:
        which = "surrogate" if spec.kind is CorruptionKind.BLACK_BOX else "target"
        raise MissingContext(f"{spec.kind.value} attack needs a {which} estimator in the context")

    cands = np.concatenate([X[:, None, :], X[:, None, :] + _ball_samples(context.rng, 1, spec.candidate_budget, x.size, spec.omega)], axis=1)[0]
    scores = score_batch(machine, cands)
    sgn = 1.0 if context.eta_x < 0.5 else -1.0
    best = int(np.argmax(sgn * scores))
    best_point = cands[best]
    best_signed = sgn * scores[best]

    if spec.kind is CorruptionKind.WHITE_BOX:
        g = np.array([context.eta_x > 0.5])
        opp = _opposite_training_hits(machine, X, g, spec.omega)[0]
        if opp:
            tp = machine.dataset.points[opp]
            tp_scores = score_batch(machine, tp)
            j = int(np.argmax(sgn * tp_scores))
            # Ties prefer the training point: it is the exact flipping
            # construction, a ball sample only matches it by accident.
            if sgn * tp_scores[j] >= best_signed:
                best_point = tp[j]
    return best_point.copy()


def _corrupt_batch(
    X: np.ndarray,
    eta: np.ndarray,
    spec: CorruptionSpec,
    rng: np.random.Generator,
    machine: Optional[FittedEstimator],
) -> np.ndarray:
    """Vectorized corruption of an (m, d) test matrix; semantics identical
    to corrupt() applied row-wise."""
    if spec.omega == 0.0:
        return X
    m, d = X.shape
    if spec.kind is CorruptionKind.RANDOM:
        return X + _ball_samples(rng, m, 1, d, spec.omega)[:, 0, :]

    if machine is None:
        raise MissingContext(f"{spec.kind.value} attack needs an estimator")
    b = spec.candidate_budget
    cands = np.concatenate([X[:, None, :], X[:, None, :] + _ball_samples(rng, m, b, d, spec.omega)], axis=1)
    scores = score_batch(machine, cands.reshape(m * (b + 1), d)).reshape(m, b + 1)
    sgn = np.where(eta < 0.5, 1.0, -1.0)
    pick = _signed_pick(scores, sgn)
    out = cands[np.arange(m), pick]
    best_signed = sgn * scores[np.arange(m), pick]

    if spec.kind is CorruptionKind.WHITE_BOX:
        g = eta > 0.5
        per_point = _opposite_training_hits(machine, X, g, spec.omega)
        involved = sorted({j for lst in per_point for j in lst})
        if involved:
            tp_scores = dict(zip(involved, score_batch(machine, machine.dataset.points[involved])))
            for i, lst in enumerate(per_point):
                if not lst:
                    continue
                signed = [sgn[i] * tp_scores[j] for j in lst]
                j_best = int(np.argmax(signed))
                if signed[j_best] >= best_signed[i]:
                    out[i] = machine.dataset.points[lst[j_best]]
    return out


def estimate_corrupted_regret(
    est: FittedEstimator,
    model: SyntheticModel,
    spec: CorruptionSpec,
    n_test: int,
    rng: np.random.Generator,
    surrogate: Optional[FittedEstimator] = None,
) -> float:
    """Regret with predictions taken at corrupted points but truth (eta, g,
    and the 2|eta - 1/2| weight) evaluated at the clean points.

    With omega = 0 this reproduces estimate_regret bit-for-bit for the same
    rng, because the test draw happens first and the corruption consumes
    nothing.
    """
    if est.dataset.task is not Task.CLASSIFICATION:
        raise TaskMismatch("estimate_corrupted_regret needs a classification estimator")
    X = _test_points(model, rng, n_test)
    eta = model.eta(X)
    g = eta > 0.5
    if spec.omega == 0.0:
        X_eval = X
    else:
        machine = None
        if spec.kind is CorruptionKind.BLACK_BOX:
            if surrogate is None:
                raise MissingContext("black-box attack needs a surrogate estimator")
            machine = surrogate
        elif spec.kind is CorruptionKind.WHITE_BOX:
            machine = est
        X_eval = _corrupt_batch(X, eta, spec, rng, machine)
    labels, _ = predict_class_batch(est, X_eval)
    return float(np.mean(2.0 * np.abs(eta - 0.5) * (labels != g)))


# ---------------------------------------------------------------------------
# Ratio experiments


class KPolicy(Enum):
    SHARED_OPTIMAL_AT_GAMMA_ZERO = "shared"
    OPTIMAL_PER_GAMMA = "per_gamma"


def default_k_grid(n_train: int) -> tuple[int, ...]:
    """Odd-only geometric grid 5..min(511, n/2).

    Odd k avoids binary-vote ties at gamma = 0: with even k the uniform
    score has an atom exactly at 1/2 (resolved to label 0) that any
    positive gamma dissolves, which contaminates every ratio against the
    gamma = 0 denominator with a discreteness artifact the asymptotics do
    not model.
    """
    hi = max(5, min(512, n_train // 2))
    hi_odd = hi if hi % 2 == 1 else hi - 1
    ks = np.geomspace(4, hi, num=16)
    odd = np.unique(np.minimum((2 * np.round((ks - 1) / 2) + 1).astype(int), hi_odd))
    odd = odd[(odd >= 1) & (odd < n_train)]
    return tuple(int(k) for k in odd)


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one Monte Carlo ratio experiment.

    gamma_over_d holds gamma/d fractions in [0, 0.5); 0 is inserted when
    missing since every ratio is taken against the gamma = 0 run on shared
    data. criterion "auto" resolves to MSE or Regret by task; "cis" runs
    the two-training-set instability experiment.
    """

    model: SyntheticModel
    n_train: int = 2048
    n_test: int = 5000
    repetitions: int = 100
    gamma_over_d: tuple = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
    k_grid: tuple = ()
    k_policy: KPolicy = KPolicy.SHARED_OPTIMAL_AT_GAMMA_ZERO
    criterion: str = "auto"
    metric: Metric = field(default_factory=Metric)
    master_seed: int = 0
    n_tune: int = 4096
    corruption: Optional[CorruptionSpec] = None

    def __post_init__(self):
        fracs = tuple(float(f) for f in self.gamma_over_d)
        if any(not (0.0 <= f < 0.5) for f in fracs):
            raise ValueError(f"gamma/d fractions must lie in [0, 0.5), got {fracs}")
        if 0.0 not in fracs:
            fracs = (0.0,) + fracs
        object.__setattr__(self, "gamma_over_d", tuple(sorted(set(fracs))))
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        grid = self.k_grid if self.k_grid else default_k_grid(self.n_train)
        object.__setattr__(self, "k_grid", _normalize_grid(grid, self.n_train))

    def resolved_criterion(self) -> str:
        if self.criterion != "auto":
            return self.criterion
        return "mse" if self.model.task is Task.REGRESSION else "regret"


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    gammas: np.ndarray
    k_mean: np.ndarray
    criterion_mean: np.ndarray
    criterion_sd: np.ndarray
    ratio_mean: np.ndarray
    ratio_sd: np.ndarray
    theory_ratio: np.ndarray
    per_rep_ratio: np.ndarray

    @property
    def gamma_over_d(self) -> np.ndarray:
        return np.asarray(self.spec.gamma_over_d)


_THEORY_OVERLAY = {
    ("mse", KPolicy.SHARED_OPTIMAL_AT_GAMMA_ZERO): pr_same_k,
    ("mse", KPolicy.OPTIMAL_PER_GAMMA): pr_optimal_k,
    ("regret", KPolicy.SHARED_OPTIMAL_AT_GAMMA_ZERO): pr_same_k,
    ("regret", KPolicy.OPTIMAL_PER_GAMMA): pr_optimal_k,
    ("cis", KPolicy.SHARED_OPTIMAL_AT_GAMMA_ZERO): cis_ratio_same_k,
    ("cis", KPolicy.OPTIMAL_PER_GAMMA): cis_ratio_optimal_k,
}


def _rep_streams(master_seed: int, rep: int):
    ss = np.random.SeedSequence((master_seed, rep))
    return [np.random.default_rng(child) for child in ss.spawn(6)]


def _one_rep(spec: ExperimentSpec, rep: int, criterion: str) -> dict:
    model = spec.model
    d = model.d
    gammas = np.asarray(spec.gamma_over_d) * d
    rng_train, rng_tune, rng_test, rng_aux, rng_corrupt, _rng_reserved = _rep_streams(
        spec.master_seed, rep
    )

    train = model.sample(rng_train, spec.n_train)
    X_tune = _test_points(model, rng_tune, spec.n_tune)
    eta_tune = model.eta(X_tune)
    X_test = _test_points(model, rng_test, spec.n_test)
    eta_test = model.eta(X_test)
    g_test = eta_test > 0.5

    kmax = spec.k_grid[-1]
    index = build_index(train, spec.metric)
    tune_block = NeighborBlock.query(index, X_tune, kmax)
    tune_task = Task.REGRESSION if criterion == "mse" else Task.CLASSIFICATION

    if spec.k_policy is KPolicy.SHARED_OPTIMAL_AT_GAMMA_ZERO:
        k0 = _tune(tune_block, eta_tune, 0.0, spec.k_grid, tune_task)
        ks = [k0] * len(gammas)
    else:
        ks = [_tune(tune_block, eta_tune, float(g), spec.k_grid, tune_task) for g in gammas]
    del tune_block  # free it before the next kmax block is queried

    test_block = NeighborBlock.query(index, X_test, kmax)

    test_block2 = None
    if criterion == "cis":
        train2 = model.sample(rng_aux, spec.n_train)
        test_block2 = NeighborBlock.query(build_index(train2, spec.metric), X_test, kmax)

    corr = spec.corruption
    eval_block_shared = None
    if corr is not None and corr.omega > 0.0:
        if criterion != "regret":
            raise TaskMismatch("corruption experiments are defined for the regret criterion")
        if corr.kind is CorruptionKind.RANDOM:
            X_eval = _corrupt_batch(X_test, eta_test, corr, rng_corrupt, None)
            eval_block_shared = NeighborBlock.query(index, X_eval, kmax)
        elif corr.kind is CorruptionKind.BLACK_BOX:
            # Independent draw, gamma = 0, k as tuned for the clean machine:
            # the adversary trains its own plain k-NN.
            surr_train = model.sample(rng_aux, spec.n_train)
            surrogate = fit(surr_train, EstimatorConfig(k=ks[0], gamma=0.0, metric=spec.metric))
            X_eval = _corrupt_batch(X_test, eta_test, corr, rng_corrupt, surrogate)
            eval_block_shared = NeighborBlock.query(index, X_eval, kmax)

    crit = np.empty(len(gammas))
    for i, (g, k) in enumerate(zip(gammas, ks)):
        g = float(g)
        if criterion == "cis":
            labels1 = test_block.scores((k,), g)[0] > 0.5
            labels2 = test_block2.scores((k,), g)[0] > 0.5
            crit[i] = float(np.mean(labels1 != labels2))
            continue
        if corr is not None and corr.omega > 0.0:
            if corr.kind is CorruptionKind.WHITE_BOX:
                # The target changes with (k, gamma); share the clean
                # machine's tree, and give each gamma its own fixed stream.
                cfg = EstimatorConfig(k=k, gamma=g, metric=spec.metric)
                target = FittedEstimator(dataset=train, config=cfg, index=index)
                rng_wb = np.random.default_rng(
                    np.random.SeedSequence((spec.master_seed, rep, 7, i))
                )
                X_eval = _corrupt_batch(X_test, eta_test, corr, rng_wb, target)
                eval_block = NeighborBlock.query(index, X_eval, kmax)
            else:
                eval_block = eval_block_shared
            scores = eval_block.scores((k,), g)[0]
            crit[i] = _criterion_value_from_labels(scores > 0.5, eta_test, g_test)
        else:
            scores = test_block.scores((k,), g)[0]
            if criterion == "mse":
                crit[i] = float(np.mean((scores - eta_test) ** 2))
            else:
                crit[i] = _criterion_value_from_labels(scores > 0.5, eta_test, g_test)

    ratio = crit / crit[0]
    return {"k": np.asarray(ks, dtype=np.float64), "crit": crit, "ratio": ratio}


def run_ratio_experiment(spec: ExperimentSpec, threads: int = 1) -> ExperimentResult:
    """Run the full repetition loop and aggregate per-gamma ratio statistics.

    Each repetition draws fresh training/tuning/test data, tunes k per the
    policy, estimates the criterion for every gamma on the shared test
    draw, and forms the ratio against its own gamma = 0 value (pairing by
    shared data cancels repetition-level variance). Ratios are then
    averaged across repetitions and overlaid with the matching closed-form
    curve.
    """
    criterion = spec.resolved_criterion()
    if criterion not in ("mse", "regret", "cis"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if criterion == "mse" and spec.model.task is not Task.REGRESSION:
        raise TaskMismatch("mse criterion needs a regression model")
    if criterion in ("regret", "cis") and spec.model.task is not Task.CLASSIFICATION:
        raise TaskMismatch(f"{criterion} criterion needs a classification model")

    reps = spec.repetitions
    rows: list = [None] * reps
    if threads <= 1:
        for r in range(reps):
            rows[r] = _one_rep(spec, r, criterion)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for r, row in enumerate(pool.map(lambda r: _one_rep(spec, r, criterion), range(reps))):
                rows[r] = row

    ks = np.stack([row["k"] for row in rows])
    crit = np.stack([row["crit"] for row in rows])
    ratio = np.stack([row["ratio"] for row in rows])

    def sd(a):
        return np.std(a, axis=0, ddof=1) if reps > 1 else np.zeros(a.shape[1])

    d = spec.model.d
    gammas = np.asarray(spec.gamma_over_d) * d
    overlay = _THEORY_OVERLAY[(criterion, spec.k_policy)]
    return ExperimentResult(
        spec=spec,
        gammas=gammas,
        k_mean=ks.mean(axis=0),
        criterion_mean=crit.mean(axis=0),
        criterion_sd=sd(crit),
        ratio_mean=ratio.mean(axis=0),
        ratio_sd=sd(ratio),
        theory_ratio=np.asarray(overlay(d, gammas), dtype=np.float64),
        per_rep_ratio=ratio,
    )


def run_attack_experiment(
    spec: ExperimentSpec,
    kinds: tuple[CorruptionKind, ...],
    omegas: tuple[float, ...],
    candidate_budget: int = 64,
    threads: int = 1,
) -> dict:
    """Corrupted-regret experiment over a (kind, omega) grid; each cell is a
    full ratio experiment sharing the master seed, so omega = 0 cells are
    byte-identical to the clean run."""
    out = {}
    for kind in kinds:
        for omega in omegas:
            cspec = CorruptionSpec(kind=kind, omega=float(omega), candidate_budget=candidate_budget)
            sub = replace(spec, corruption=cspec, criterion="regret")
            out[(kind, float(omega))] = run_ratio_experiment(sub, threads=threads)
    return out
