"""The four benchmark workloads: their inputs, their output checks, and the
work each one must do by its configuration.

An operation is one ``interpnn`` invocation plus the checks on its CSV. A
check marked ``oracle`` compares the output with a full-scan recomputation
(``oracle.py``); when it fails, the operation counts as failed. Any other
check is a property the output must have whatever the neighbour search
does; when one fails, the run is reported incorrect.

The three synthetic workloads run two repetitions, so the mean and sample
sd of each column identify both per-repetition values (mean +- sd/sqrt 2).
That lets the oracle's recomputation of both repetitions be compared with
the program's aggregated CSV without any extra output from the program.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

GAMMA_GRID = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
RTOL = 1e-9
# The attack's cost grows with the tuned k, which over the default grid ranges
# from 27 to 141 across seeds. This grid keeps kmax = 511 for the clean blocks
# but only one competitive k, so the work per repetition does not depend on
# the seed.
ATTACK_K_GRID = (73, 511)
LATTICE_SEED = 20220224  # fixed: the real_lattice inputs do not depend on --seed


@dataclass
class Check:
    name: str
    oracle: bool
    ok: bool
    detail: str = ""


def write_config(path: Path, cfg: dict):
    def fmt(v):
        return ",".join(str(x) for x in v) if isinstance(v, (tuple, list)) else str(v)

    path.write_text("".join(f"{k} = {fmt(v)}\n" for k, v in cfg.items()), encoding="utf-8")


def read_table(path: Path):
    """(header, data rows as strings, trailer lines) of a program CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    trailer = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.reader(body))
    return rows[0], rows[1:], trailer


def _close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def _in_interval(v: float, lo: float, hi: float, scale: float) -> bool:
    tol = RTOL * max(scale, 1e-300)
    return lo - tol <= v <= hi + tol


def _pair_matches(mean: float, sd: float, ivs, scale: float) -> bool:
    """With two repetitions the per-repetition values are mean -+ sd/sqrt 2;
    they must lie in the oracle's intervals for repetitions 0 and 1, in one
    order or the other."""
    half = sd / math.sqrt(2.0)
    a, b = mean - half, mean + half
    (l0, h0), (l1, h1) = ivs
    return (_in_interval(a, l0, h0, scale) and _in_interval(b, l1, h1, scale)) \
        or (_in_interval(a, l1, h1, scale) and _in_interval(b, l0, h0, scale))


# ---------------------------------------------------------------------------
# The Monte Carlo repetitions, recomputed


def oracle_reps(cfg: dict, criterion: str, shared_k: bool):
    """(k grid, per repetition: per gamma the admissible tuned ks and the
    criterion interval), under the documented seed contract."""
    grid = tuple(sorted(cfg["k_grid"])) if cfg.get("k_grid") else oracle.default_k_grid(cfg["n_train"])
    return grid, [_oracle_rep(cfg, r, criterion, shared_k, grid) for r in range(cfg["repetitions"])]


def _oracle_rep(cfg: dict, rep: int, criterion: str, shared_k: bool, grid):
    model, d = cfg["model"], cfg["d"]
    rng_train, rng_tune, rng_test, rng_aux = oracle.rep_streams(cfg["seed"], rep)[:4]
    Xtr, ytr = oracle.sample(model, d, rng_train, cfg["n_train"])
    Xtu = oracle.sample(model, d, rng_tune, cfg["n_tune"])[0]
    Xte = oracle.sample(model, d, rng_test, cfg["n_test"])[0]
    eta_tu, eta_te = oracle.eta(model, Xtu), oracle.eta(model, Xte)
    kmax = grid[-1]
    tune = oracle.knn(Xtr, Xtu, kmax)
    test = oracle.knn(Xtr, Xte, kmax)
    gammas = [f * d for f in cfg["gamma_over_d"]]

    def tune_crit(k, g):
        # The cis criterion tunes k by regret, like the regret criterion.
        if criterion == "mse":
            v = float(np.mean((oracle.scores(tune, ytr, k, g) - eta_tu) ** 2))
            return v, v
        return oracle.regret_interval(tune, ytr, k, g, eta_tu)

    if criterion == "mse":
        def test_crit(k, g):
            v = float(np.mean((oracle.scores(test, ytr, k, g) - eta_te) ** 2))
            return v, v
    elif criterion == "regret":
        def test_crit(k, g):
            return oracle.regret_interval(test, ytr, k, g, eta_te)
    else:
        Xtr2, ytr2 = oracle.sample(model, d, rng_aux, cfg["n_train"])
        test2 = oracle.knn(Xtr2, Xte, kmax)

        def test_crit(k, g):
            return oracle.disagreement_interval(test, ytr, test2, ytr2, k, g)

    def tuned(g):
        lo, hi = zip(*(tune_crit(k, g) for k in grid))
        return [grid[i] for i in oracle.admissible(lo, hi)]

    ks = [tuned(0.0)] * len(gammas) if shared_k else [tuned(g) for g in gammas]
    out = []
    for g, kset in zip(gammas, ks):
        cells = [test_crit(k, g) for k in kset]
        out.append((kset, min(c[0] for c in cells), max(c[1] for c in cells)))
    return out


def check_reps(grid, reps, crit_mean, crit_sd, k_used=None, ratio_mean=None, ratio_sd=None):
    """Compare the oracle's two repetitions with the two-repetition
    aggregates; k_used and the ratios are compared when the CSV has them."""
    bad = []
    rep0, rep1 = reps
    for i, (c0, c1) in enumerate(zip(rep0, rep1)):
        if k_used is not None:
            sums = {a + b for a in c0[0] for b in c1[0]}
            if not (abs(2 * k_used[i] - round(2 * k_used[i])) <= 1e-9 and round(2 * k_used[i]) in sums):
                bad.append(f"row {i}: k_used {k_used[i]} is no mean of oracle ks {c0[0]}, {c1[0]}")
        if not _pair_matches(crit_mean[i], crit_sd[i], (c0[1:], c1[1:]), abs(crit_mean[i]) + crit_sd[i]):
            bad.append(f"row {i}: criterion {crit_mean[i]}+-{crit_sd[i]} vs oracle {c0[1:]}, {c1[1:]}")
        if ratio_mean is not None and rep0[0][1] > 0.0 and rep1[0][1] > 0.0:
            ivs = [(1.0, 1.0) if i == 0 else (c[1] / r[0][2], c[2] / r[0][1]) for c, r in ((c0, rep0), (c1, rep1))]
            if not _pair_matches(ratio_mean[i], ratio_sd[i], ivs, abs(ratio_mean[i]) + ratio_sd[i]):
                bad.append(f"row {i}: ratio {ratio_mean[i]}+-{ratio_sd[i]} vs oracle {ivs}")
    return Check("oracle_reps", True, not bad, "; ".join(bad[:3]))


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    command = ""

    def config(self, seed: int, work: Path) -> dict:
        raise NotImplementedError

    def prepare(self, seed: int, work: Path) -> dict:
        cfg = self.config(seed, work)
        cfg["out"] = str(work / "out")
        write_config(work / "config.txt", cfg)
        return cfg

    def reps(self, cfg: dict) -> int:
        return cfg["repetitions"]

    def output(self, cfg: dict) -> Path:
        return Path(cfg["out"]) / f"{self.command}.csv"

    def reference(self, cfg: dict):
        """Oracle results that depend only on the inputs; computed once per run."""
        raise NotImplementedError

    def check(self, cfg: dict, ref, path: Path) -> list[Check]:
        raise NotImplementedError

    def expected_rows(self, cfg: dict, ref) -> dict:
        raise NotImplementedError


def _columns(rows, header, names):
    pos = [header.index(n) for n in names]
    return [np.array([float(r[p]) for r in rows]) for p in pos]


class Simulate(Workload):
    """A ``simulate`` workload. Its CSV's theory_ratio is compared with the
    benchmark's own closed form, and both repetitions are recomputed."""
    command = "simulate"
    criterion = ""
    shared_k = False
    theory = None  # the closed-form ratio, (d, gamma) -> ratio

    def reference(self, cfg):
        return oracle_reps(cfg, self.criterion, self.shared_k)

    def check(self, cfg, ref, path):
        header, rows, _ = read_table(path)
        want = ["gamma_over_d", "k_used", "criterion_mean", "criterion_sd", "ratio_mean", "ratio_sd", "theory_ratio"]
        fracs = [float(r[0]) for r in rows]
        shape_ok = header == want and fracs == list(cfg["gamma_over_d"])
        checks = [Check("structure", False, shape_ok, f"header {header}, gamma_over_d {fracs}")]
        if not shape_ok:
            return checks
        k, cm, cs, rm, rs, th = _columns(rows, header, want[1:])
        theory = self.theory(cfg["d"], np.asarray(fracs) * cfg["d"])
        checks.append(Check("theory_ratio", False, bool(np.all(np.abs(th - theory) <= 1e-12)),
                            f"max |diff| {np.max(np.abs(th - theory)):.3g}"))
        checks.append(check_reps(*ref, cm, cs, k, rm, rs))
        return checks


class SimRegressionPerGamma(Simulate):
    name = "sim_regression_per_gamma"
    criterion = "mse"
    theory = staticmethod(oracle.pr_optimal_k)

    def config(self, seed, work):
        return {
            "model": "regression", "d": 2, "n_train": 2048, "n_tune": 4096, "n_test": 2500,
            "repetitions": 2, "gamma_over_d": GAMMA_GRID, "k_policy": "per_gamma",
            "seed": seed, "threads": 1,
        }

    def expected_rows(self, cfg, ref):
        return {"neighbors.query_batch_rows": cfg["repetitions"] * (cfg["n_tune"] + cfg["n_test"]),
                "estimator.score_batch_rows": 0}


class SimCisD5(Simulate):
    name = "sim_cis_d5"
    criterion = "cis"
    shared_k = True
    theory = staticmethod(oracle.cis_same_k)

    def config(self, seed, work):
        return {
            "model": "classification_2", "d": 5, "n_train": 2048, "n_tune": 2048, "n_test": 2500,
            "repetitions": 2, "gamma_over_d": GAMMA_GRID, "criterion": "cis", "k_policy": "shared",
            "seed": seed, "threads": 1,
        }

    def expected_rows(self, cfg, ref):
        # Two training sets: the test points are queried against both.
        return {"neighbors.query_batch_rows": cfg["repetitions"] * (cfg["n_tune"] + 2 * cfg["n_test"]),
                "estimator.score_batch_rows": 0}


class AttackD2(Workload):
    name = "attack_d2"
    command = "attack"

    def config(self, seed, work):
        return {
            "model": "classification_2", "d": 2, "n_train": 1024, "n_tune": 1024, "n_test": 500,
            "repetitions": 2, "gamma_over_d": (0.0, 0.1, 0.2, 0.3), "k_policy": "shared", "k_grid": ATTACK_K_GRID,
            "kinds": ("random", "black_box", "white_box"), "omegas": (0.0, 0.03125),
            "candidate_budget": 32, "seed": seed, "threads": 1,
        }

    def reference(self, cfg):
        reps = oracle_reps(cfg, "regret", shared_k=True)
        hits = [self._white_box_training_rows(cfg, r) for r in range(cfg["repetitions"])]
        return reps, hits

    @staticmethod
    def _white_box_training_rows(cfg, rep):
        """Distinct opposite-label training points inside some test point's
        L2 ball of radius omega: the extra rows the white-box attack scores."""
        rng_train, _, rng_test, _, _, _ = oracle.rep_streams(cfg["seed"], rep)
        Xtr, ytr = oracle.sample(cfg["model"], cfg["d"], rng_train, cfg["n_train"])
        Xte = oracle.sample(cfg["model"], cfg["d"], rng_test, cfg["n_test"])[0]
        g = oracle.eta(cfg["model"], Xte) > 0.5
        out = {}
        for omega in cfg["omegas"]:
            if omega > 0.0:
                near = oracle.distances(Xtr, Xte, 2.0) <= omega
                out[omega] = int(np.count_nonzero((near & (ytr[None, :] != g[:, None])).any(axis=0)))
        return out

    def check(self, cfg, ref, path):
        header, rows, _ = read_table(path)
        kinds, omegas, fracs = cfg["kinds"], cfg["omegas"], cfg["gamma_over_d"]
        want_keys = [(k, float(o), float(f)) for k in kinds for o in omegas for f in fracs]
        got_keys = [(r[0], float(r[1]), float(r[2])) for r in rows]
        shape_ok = header == ["kind", "omega", "gamma_over_d", "regret_mean", "regret_sd"] and got_keys == want_keys
        checks = [Check("structure", False, shape_ok, f"{len(rows)} rows")]
        if not shape_ok:
            return checks
        by = {key: rows[i] for i, key in enumerate(got_keys)}
        clean = [by[(kinds[0], 0.0, float(f))][3:] for f in fracs]
        same = all(by[(k, 0.0, float(f))][3:] == clean[i] for k in kinds for i, f in enumerate(fracs))
        checks.append(Check("omega0_identical", False, same, "omega=0 rows differ across kinds"))
        worse = []
        for o in omegas:
            if o > 0.0 and "white_box" in kinds:
                for f in fracs:
                    wb, c0 = float(by[("white_box", float(o), float(f))][3]), float(by[("white_box", 0.0, float(f))][3])
                    if not wb >= c0:
                        worse.append(f"gamma/d {f}: white-box {wb} < clean {c0}")
        checks.append(Check("white_box_ge_clean", False, not worse, "; ".join(worse)))
        # The omega=0 cell is a clean shared-k regret run; the attack CSV
        # carries no k column.
        rm = np.array([float(by[(kinds[0], 0.0, float(f))][3]) for f in fracs])
        rs = np.array([float(by[(kinds[0], 0.0, float(f))][4]) for f in fracs])
        checks.append(check_reps(*ref[0], rm, rs))
        return checks

    def expected_rows(self, cfg, ref):
        _, hits = ref
        m, b1, G = cfg["n_test"], cfg["candidate_budget"] + 1, len(cfg["gamma_over_d"])
        q = s = 0
        for r in range(cfg["repetitions"]):
            for kind in cfg["kinds"]:
                for o in cfg["omegas"]:
                    q += cfg["n_tune"] + m
                    if o == 0.0:
                        continue
                    if kind == "random":
                        q += m
                    elif kind == "black_box":
                        q += m + m * b1
                        s += m * b1
                    else:
                        q += G * (m + m * b1 + hits[r][o])
                        s += G * (m * b1 + hits[r][o])
        return {"neighbors.query_batch_rows": q, "estimator.score_batch_rows": s}


# ---------------------------------------------------------------------------
# real on a lattice CSV


LATTICE_ROWS, LATTICE_LEVELS, LATTICE_D = 3000, 8, 3


def lattice_csv(path: Path, rng: np.random.Generator, jitter: float = 0.0):
    """LATTICE_ROWS rows of LATTICE_D integer features in
    0..LATTICE_LEVELS-1 (many duplicated points) and a raw score
    sum(x) + rounded N(0, 1.5^2) noise; jitter > 0 adds
    uniform(-jitter, jitter) to every feature, which removes the ties."""
    n, d = LATTICE_ROWS, LATTICE_D
    X = rng.integers(0, LATTICE_LEVELS, size=(n, d)).astype(np.float64)
    score = X.sum(axis=1) + np.round(rng.normal(0.0, 1.5, n))
    if jitter > 0.0:
        X = X + rng.uniform(-jitter, jitter, X.shape)
    cell = (lambda v: str(int(v))) if jitter == 0.0 else (lambda v: repr(float(v)))
    names = [f"x{j}" for j in range(d)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names + ["score"]) + "\n")
        for i in range(n):
            fh.write(",".join([cell(v) for v in X[i]] + [str(int(score[i]))]) + "\n")
    return names, (LATTICE_LEVELS - 1) * d / 2.0


class RealLattice(Workload):
    name = "real_lattice"
    command = "real"
    jitter = 0.0

    def config(self, seed, work):
        names, thr = lattice_csv(work / "lattice.csv", np.random.default_rng(LATTICE_SEED), jitter=self.jitter)
        return {
            "csv": str(work / "lattice.csv"), "feature_columns": tuple(names), "label_column": "score",
            "binarize": f"gt:{math.floor(thr)}", "train_fraction": 0.25, "standardize": "true",
            "repeats": 20, "gamma_over_d": GAMMA_GRID, "k_grid": (1, 3, 5, 9, 17, 33, 63),
            "seed": LATTICE_SEED % 1000, "threads": 2,
        }

    def reps(self, cfg):
        return cfg["repeats"]

    def reference(self, cfg):
        return real_reference(cfg)

    def check(self, cfg, ref, path):
        header, rows, trailer = read_table(path)
        fracs = sorted(set((0.0,) + tuple(cfg["gamma_over_d"])))
        shape_ok = header == ["gamma_over_d", "k_best", "test_error_mean", "test_error_sd"] \
            and [float(r[0]) for r in rows] == fracs
        checks = [Check("structure", False, shape_ok, f"header {header}")]
        if not shape_ok:
            return checks
        kb, em, es = _columns(rows, header, header[1:])
        grid = cfg["k_grid"]
        sane = bool(np.all((kb >= min(grid)) & (kb <= max(grid)) & (em >= 0) & (em <= 1) & (es >= 0)))
        pos = [i for i, f in enumerate(fracs) if f > 0.0]
        i_best = min(pos, key=lambda i: em[i])
        want = (f"# best gamma_over_d = {fracs[i_best]!r}: mean error {float(em[i_best])!r} "
                f"vs gamma=0: {float(em[0])!r}")
        checks.append(Check("ranges_and_trailer", False, sane and trailer == [want], f"trailer {trailer}"))
        bad = []
        for i, cell in enumerate(ref):
            if cell["exact"]:
                ok = _close(kb[i], cell["k_mean"]) and _close(em[i], cell["err_mean"]) \
                    and abs(es[i] - cell["err_sd"]) <= RTOL * max(cell["err_sd"], 1e-12)
            else:
                ok = _in_interval(kb[i], *cell["k_range"], scale=max(grid)) \
                    and _in_interval(em[i], *cell["err_range"], scale=1.0)
            if not ok:
                bad.append(f"row {i}: ({kb[i]}, {em[i]}, {es[i]}) vs oracle {cell}")
        checks.append(Check("oracle_rows", True, not bad, f"{len(bad)} of {len(ref)} rows differ; " + "; ".join(bad[:2])))
        return checks

    def expected_rows(self, cfg, ref):
        n = sum(1 for _ in open(cfg["csv"], encoding="utf-8")) - 1
        return {"neighbors.query_batch_rows": cfg["repeats"] * (n - int(round(n * cfg["train_fraction"]))),
                "estimator.score_batch_rows": 0}


def real_reference(cfg: dict):
    """Every output row of ``interpnn real`` recomputed on the same split
    permutations. A row is exact when no score in any split is ambiguous;
    otherwise it carries the ranges the ambiguous rows allow."""
    with open(cfg["csv"], encoding="utf-8", newline="") as fh:
        table = [r for r in csv.reader(fh) if r]
    header = [c.strip() for c in table[0]]
    cols = [header.index(c) for c in cfg["feature_columns"]]
    lab = header.index(cfg["label_column"])
    X = np.array([[float(r[c]) for c in cols] for r in table[1:]])
    thr = float(cfg["binarize"][3:])
    y = np.array([float(r[lab]) > thr for r in table[1:]], dtype=np.float64)
    n, d = X.shape
    fracs = sorted(set((0.0,) + tuple(cfg["gamma_over_d"])))
    grid_all = sorted(set(cfg["k_grid"]))
    reps = cfg["repeats"]
    per = [[None] * reps for _ in fracs]
    for r in range(reps):
        perm = np.random.default_rng(cfg["seed"] + r).permutation(n)
        ntr = int(round(n * cfg["train_fraction"]))
        Xtr, ytr, Xte, yte = X[perm[:ntr]], y[perm[:ntr]], X[perm[ntr:]], y[perm[ntr:]]
        if str(cfg["standardize"]).lower() == "true":
            mean, sd = Xtr.mean(axis=0), Xtr.std(axis=0)
            sd = np.where(sd == 0.0, 1.0, sd)
            Xtr, Xte = (Xtr - mean) / sd, (Xte - mean) / sd
        grid = [k for k in grid_all if k < ntr]
        block = oracle.knn(Xtr, Xte, grid[-1])
        for gi, f in enumerate(fracs):
            lo, hi = [], []
            for k in grid:
                lab, amb = oracle.labels(block, ytr, k, f * d)
                a, b = oracle.count_interval(lab != (yte == 1.0), amb)
                lo.append(a)
                hi.append(b)
            exact = lo == hi
            first = int(np.argmin(lo))
            adm = [first] if exact else list(oracle.admissible(lo, hi))
            per[gi][r] = (exact, [grid[i] for i in adm], min(lo), min(hi))
    out = []
    for cells in per:
        exact = all(c[0] for c in cells)
        errs = np.array([c[2] for c in cells])
        ks = np.array([c[1][0] for c in cells], dtype=np.float64)
        out.append({
            "exact": exact,
            "k_mean": float(ks.mean()),
            "err_mean": float(errs.mean()),
            "err_sd": float(errs.std(ddof=1)) if reps > 1 else 0.0,
            "k_range": (float(np.mean([min(c[1]) for c in cells])), float(np.mean([max(c[1]) for c in cells]))),
            "err_range": (float(errs.mean()), float(np.mean([c[3] for c in cells]))),
        })
    return out


WORKLOADS = {w.name: w for w in (SimRegressionPerGamma(), SimCisD5(), AttackD2(), RealLattice())}
