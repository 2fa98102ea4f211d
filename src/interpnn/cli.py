"""Command-line front end.

Subcommands: theory | simulate | toy | attack | real. Each run resolves its
configuration (file keys, flag overrides, defaults), writes the resolved
config next to its outputs so the run can be reproduced bit-for-bit from
that file, and emits CSV (plus optional self-contained SVG plots).

Config files are strict-schema ``key = value`` text: unknown keys are
rejected, '#' starts a comment, lists are comma-separated. Exit codes:
0 success, 2 config error, 3 data error, 4 numeric/domain error.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .core import (
    BadMetric,
    DegenerateSplit,
    DomainError,
    EmptyGrid,
    EstimatorConfig,
    KTooLarge,
    Metric,
    NegativeGamma,
    ParseError,
    QuadratureFailure,
    UnknownLabel,
    theory_advisory,
)
from .estimator import fit, predict_regression_batch
from .evaluation import (
    CorruptionKind,
    ExperimentSpec,
    KPolicy,
    NeighborBlock,
    disagreement_rate,
    run_attack_experiment,
    run_ratio_experiment,
)
from .ingest import ClassSetMapsTo1, IngestSpec, ThresholdGreaterThan, load_csv, split, standardize_train_test
from .plotting import Series, line_plot_svg
from .synthetic import classification_model_1, classification_model_2, regression_model, toy_models
from .theory import ratio_curve
from .weighting import phi_catalog

MODELS = {
    "regression": regression_model,
    "classification_1": classification_model_1,
    "classification_2": classification_model_2,
}

POLICIES = {"shared": KPolicy.SHARED_OPTIMAL_AT_GAMMA_ZERO, "per_gamma": KPolicy.OPTIMAL_PER_GAMMA}
KINDS = {k.value: k for k in CorruptionKind}


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config machinery


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_float(s: str) -> float:
    if s.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"expected a number, got {s!r}") from None


def _parse_floats(s: str):
    return tuple(_parse_float(t) for t in s.split(",") if t.strip())


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"expected an integer, got {s!r}") from None


def _parse_ints(s: str):
    return tuple(_parse_int(t) for t in s.split(",") if t.strip())


def _parse_strs(s: str):
    return tuple(t.strip() for t in s.split(",") if t.strip())


_PARSERS = {
    "bool": _parse_bool,
    "int": _parse_int,
    "float": _parse_float,
    "floats": _parse_floats,
    "ints": _parse_ints,
    "str": str,
    "strs": _parse_strs,
}

REQUIRED = object()

# key -> (type, default); REQUIRED means the key must be supplied.
SCHEMAS = {
    "theory": {
        "d": ("int", 2),
        "which": ("str", "pr"),
        "gamma_max": ("float", None),  # resolved to 0.35 * d when absent
        "step": ("float", 0.01),
        "out": ("str", "out"),
        "plot": ("bool", False),
    },
    "simulate": {
        "model": ("str", "regression"),
        "d": ("int", 2),
        "n_train": ("int", 2048),
        "n_test": ("int", 5000),
        "n_tune": ("int", 4096),
        "repetitions": ("int", 100),
        "gamma_over_d": ("floats", (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)),
        "k_grid": ("ints", ()),
        "k_policy": ("str", "shared"),
        "criterion": ("str", "auto"),
        "metric_p": ("float", 2.0),
        "seed": ("int", 0),
        "threads": ("int", 1),
        "out": ("str", "out"),
        "plot": ("bool", False),
    },
    "toy": {
        "k": ("int", 10),
        "seed": ("int", 0),
        "out": ("str", "out"),
        "plot": ("bool", False),
    },
    "attack": {
        "model": ("str", "classification_2"),
        "d": ("int", 2),
        "n_train": ("int", 1024),
        "n_test": ("int", 2000),
        "n_tune": ("int", 2048),
        "repetitions": ("int", 50),
        "gamma_over_d": ("floats", (0.0, 0.1, 0.2, 0.3)),
        "k_grid": ("ints", ()),
        "k_policy": ("str", "shared"),
        "kinds": ("strs", ("random", "black_box", "white_box")),
        "omegas": ("floats", (0.0, 0.05)),
        "candidate_budget": ("int", 64),
        "metric_p": ("float", 2.0),
        "seed": ("int", 0),
        "threads": ("int", 1),
        "out": ("str", "out"),
        "plot": ("bool", False),
    },
    "real": {
        "csv": ("str", REQUIRED),
        "has_header": ("bool", True),
        "feature_columns": ("strs", REQUIRED),
        "label_column": ("str", REQUIRED),
        "binarize": ("str", "none"),
        "train_fraction": ("float", 0.25),
        "standardize": ("bool", False),
        "repeats": ("int", 50),
        "gamma_over_d": ("floats", (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)),
        "k_grid": ("ints", (1, 2, 4, 8, 16, 32, 64)),
        "metric_p": ("float", 2.0),
        "seed": ("int", 0),
        "threads": ("int", 1),
        "out": ("str", "out"),
        "plot": ("bool", False),
    },
}


def read_config_file(path: str) -> dict[str, str]:
    raw = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, val = line.split("=", 1)
        raw[key.strip()] = val.strip()
    return raw


def resolve_config(command: str, file_cfg: dict[str, str], overrides: dict) -> dict:
    schema = SCHEMAS[command]
    unknown = set(file_cfg) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    cfg = {}
    for key, (typ, default) in schema.items():
        if key in overrides and overrides[key] is not None:
            cfg[key] = overrides[key]
        elif key in file_cfg:
            cfg[key] = _PARSERS[typ](file_cfg[key])
        elif default is not REQUIRED:
            cfg[key] = default
        else:
            raise ConfigError(f"missing required config key {key!r} for {command}")
    return cfg


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(_fmt_value(x) for x in v)
    if isinstance(v, float):
        return "inf" if math.isinf(v) else repr(v)
    return str(v)


def write_resolved_config(cfg: dict, path: Path, extra: dict | None = None):
    lines = [f"{k} = {_fmt_value(v)}" for k, v in cfg.items()]
    for k, v in (extra or {}).items():
        lines.append(f"# {k} = {_fmt_value(v)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_table(path: Path, header: list[str], rows, trailer: list[str] | None = None):
    def cell(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    lines = [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    lines += trailer or []
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommands


def _outdir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_theory(cfg: dict) -> int:
    d = cfg["d"]
    if cfg["gamma_max"] is None:
        cfg["gamma_max"] = 0.35 * d
    which = cfg["which"]
    step = cfg["step"]
    if step <= 0:
        raise ConfigError(f"step must be positive, got {step}")
    out = _outdir(cfg)
    gammas = np.arange(0.0, cfg["gamma_max"] + step / 2, step)
    curve = ratio_curve(d, gammas, which)
    rows = [
        (g, g / d, v, str(bool(flag)).lower())
        for g, v, flag in zip(curve.gammas, curve.values, curve.in_theory_range)
    ]
    csv_path = out / f"theory_{which}_d{d}.csv"
    _write_table(csv_path, ["gamma", "gamma_over_d", "value", "in_theory_range"], rows)
    write_resolved_config(cfg, out / f"theory_{which}_d{d}_config.txt")
    if cfg["plot"]:
        line_plot_svg(
            out / f"theory_{which}_d{d}.svg",
            [Series(curve.gammas / d, curve.values, label=which, markers=False)],
            title=f"{which} ratio, d={d}",
            xlabel="gamma / d",
            ylabel="ratio",
        )
    print(f"wrote {csv_path}")
    return 0


def _build_spec(cfg: dict) -> ExperimentSpec:
    try:
        model_fn = MODELS[cfg["model"]]
    except KeyError:
        raise ConfigError(f"model must be one of {sorted(MODELS)}, got {cfg['model']!r}") from None
    if cfg["k_policy"] not in POLICIES:
        raise ConfigError(f"k_policy must be one of {sorted(POLICIES)}, got {cfg['k_policy']!r}")
    try:
        return ExperimentSpec(
            model=model_fn(cfg["d"]),
            n_train=cfg["n_train"],
            n_test=cfg["n_test"],
            n_tune=cfg["n_tune"],
            repetitions=cfg["repetitions"],
            gamma_over_d=cfg["gamma_over_d"],
            k_grid=cfg["k_grid"],
            k_policy=POLICIES[cfg["k_policy"]],
            criterion=cfg.get("criterion", "auto"),
            metric=Metric(cfg["metric_p"]),
            master_seed=cfg["seed"],
        )
    except (ValueError, KTooLarge, EmptyGrid, BadMetric) as e:
        raise ConfigError(str(e)) from None


def _print_advisories(fracs, d: int):
    """One line on stderr for each gamma at or past the theory's range."""
    for f in fracs:
        msg = theory_advisory(f * d, d)
        if msg is not None:
            print(f"advisory: {msg}", file=sys.stderr)


def cmd_simulate(cfg: dict) -> int:
    out = _outdir(cfg)
    spec = _build_spec(cfg)
    _print_advisories(spec.gamma_over_d, spec.model.d)
    result = run_ratio_experiment(spec, threads=cfg["threads"])
    rows = [
        (
            fod,
            result.k_mean[i],
            result.criterion_mean[i],
            result.criterion_sd[i],
            result.ratio_mean[i],
            result.ratio_sd[i],
            result.theory_ratio[i],
        )
        for i, fod in enumerate(spec.gamma_over_d)
    ]
    csv_path = out / "simulate.csv"
    _write_table(
        csv_path,
        ["gamma_over_d", "k_used", "criterion_mean", "criterion_sd", "ratio_mean", "ratio_sd", "theory_ratio"],
        rows,
    )
    write_resolved_config(cfg, out / "simulate_config.txt")
    if cfg["plot"]:
        x = np.asarray(spec.gamma_over_d)
        line_plot_svg(
            out / "simulate.svg",
            [
                Series(x, result.ratio_mean, label="empirical", yerr=result.ratio_sd),
                Series(x, result.theory_ratio, label="theory", dashed=True, markers=False),
            ],
            title=f"{spec.resolved_criterion()} ratio, {cfg['model']} d={cfg['d']}",
            xlabel="gamma / d",
            ylabel="ratio to gamma=0",
        )
    print(f"wrote {csv_path}")
    return 0


_TOY_SCHEMES = ("uniform", "one_minus_log", "power")


def cmd_toy(cfg: dict) -> int:
    """Fit the three weight schemes on the three fixed-design toy models and
    tabulate the fitted curves over the boundary-free interior."""
    out = _outdir(cfg)
    k = cfg["k"]
    x_eval = np.arange(0.0, 20.0 + 1e-9, 0.25)
    X_eval = x_eval.reshape(-1, 1)
    rows = []
    plots = {}
    for mi, model in enumerate(toy_models(), start=1):
        train = model.sample(np.random.default_rng((cfg["seed"], mi)), None)
        eta_true = model.eta(X_eval)
        plots[mi] = [Series(x_eval, eta_true, label="true", markers=False)]
        for name in _TOY_SCHEMES:
            scheme = phi_catalog(name, gamma=1.0)
            est = fit(train, EstimatorConfig(k=k, scheme=scheme))
            eta_hat = predict_regression_batch(est, X_eval)
            rows += [
                (mi, name, x_eval[j], eta_true[j], eta_hat[j])
                for j in range(x_eval.shape[0])
            ]
            plots[mi].append(Series(x_eval, eta_hat, label=name, markers=False))
    csv_path = out / "toy.csv"
    _write_table(csv_path, ["model_id", "scheme", "x", "eta_true", "eta_hat"], rows)
    write_resolved_config(cfg, out / "toy_config.txt")
    if cfg["plot"]:
        for mi, series in plots.items():
            line_plot_svg(out / f"toy_model{mi}.svg", series, title=f"toy model {mi}", xlabel="x", ylabel="eta")
    print(f"wrote {csv_path}")
    return 0


def cmd_attack(cfg: dict) -> int:
    out = _outdir(cfg)
    spec = _build_spec({**cfg, "criterion": "regret"})
    _print_advisories(spec.gamma_over_d, spec.model.d)
    try:
        kinds = tuple(KINDS[k] for k in cfg["kinds"])
    except KeyError as e:
        raise ConfigError(f"unknown corruption kind {e.args[0]!r}; use {sorted(KINDS)}") from None
    results = run_attack_experiment(
        spec, kinds, cfg["omegas"], candidate_budget=cfg["candidate_budget"], threads=cfg["threads"]
    )
    rows = []
    for kind in kinds:
        for omega in cfg["omegas"]:
            res = results[(kind, float(omega))]
            for i, fod in enumerate(spec.gamma_over_d):
                rows.append((kind.value, float(omega), fod, res.criterion_mean[i], res.criterion_sd[i]))
    csv_path = out / "attack.csv"
    _write_table(csv_path, ["kind", "omega", "gamma_over_d", "regret_mean", "regret_sd"], rows)
    write_resolved_config(cfg, out / "attack_config.txt")
    if cfg["plot"]:
        x = np.asarray(spec.gamma_over_d)
        for kind in kinds:
            series = [
                Series(x, results[(kind, float(om))].criterion_mean, label=f"omega={om:g}")
                for om in cfg["omegas"]
            ]
            line_plot_svg(
                out / f"attack_{kind.value}.svg",
                series,
                title=f"corrupted regret, {kind.value}",
                xlabel="gamma / d",
                ylabel="regret",
            )
    print(f"wrote {csv_path}")
    return 0


def _parse_binarize(s: str):
    if s == "none":
        return None
    if s.startswith("gt:"):
        return ThresholdGreaterThan(_parse_float(s[3:]))
    if s.startswith("set:"):
        return ClassSetMapsTo1(frozenset(t.strip() for t in s[4:].split(";") if t.strip()))
    raise ConfigError(f"binarize must be 'none', 'gt:VALUE' or 'set:a;b;c', got {s!r}")


def _maybe_int(s: str):
    try:
        return int(s)
    except ValueError:
        return s


def cmd_real(cfg: dict) -> int:
    out = _outdir(cfg)
    ingest_spec = IngestSpec(
        path=cfg["csv"],
        feature_columns=[_maybe_int(c) for c in cfg["feature_columns"]],
        label_column=_maybe_int(cfg["label_column"]),
        has_header=cfg["has_header"],
        binarization=_parse_binarize(cfg["binarize"]),
        train_fraction=cfg["train_fraction"],
    )
    data = load_csv(ingest_spec)
    fracs = tuple(sorted(set((0.0,) + tuple(cfg["gamma_over_d"]))))
    d = data.d
    gammas = [f * d for f in fracs]
    _print_advisories(fracs, d)
    split_seeds = [cfg["seed"] + r for r in range(cfg["repeats"])]
    metric = Metric(cfg["metric_p"])

    k_grid = tuple(sorted(set(cfg["k_grid"])))
    errors = np.empty((cfg["repeats"], len(gammas)))
    best_ks = np.empty((cfg["repeats"], len(gammas)))
    for r, sseed in enumerate(split_seeds):
        train, test = split(data, cfg["train_fraction"], sseed)
        if cfg["standardize"]:
            train, test = standardize_train_test(train, test)
        grid = tuple(k for k in k_grid if k < train.n)
        if not grid:
            raise EmptyGrid(f"no k in k_grid is < n_train = {train.n}")
        est = fit(train, EstimatorConfig(k=grid[-1], metric=metric))
        block = NeighborBlock.query(est.index, test.points, grid[-1])
        y_test = test.responses == 1.0
        test_error = lambda scores: disagreement_rate(scores > 0.5, y_test)
        for gi, g in enumerate(gammas):
            best_ks[r, gi], errors[r, gi] = block.tune(grid, g, test_error)

    err_mean = errors.mean(axis=0)
    err_sd = errors.std(axis=0, ddof=1) if cfg["repeats"] > 1 else np.zeros(len(gammas))
    rows = [
        (fracs[i], best_ks[:, i].mean(), err_mean[i], err_sd[i])
        for i in range(len(fracs))
    ]
    pos = [i for i in range(len(fracs)) if fracs[i] > 0.0]
    trailer = []
    if pos:
        i_best = min(pos, key=lambda i: err_mean[i])
        trailer.append(
            f"# best gamma_over_d = {fracs[i_best]!r}: mean error {float(err_mean[i_best])!r} "
            f"vs gamma=0: {float(err_mean[0])!r}"
        )
    csv_path = out / "real.csv"
    _write_table(csv_path, ["gamma_over_d", "k_best", "test_error_mean", "test_error_sd"], rows, trailer=trailer)
    write_resolved_config(cfg, out / "real_config.txt", extra={"derived_split_seeds": tuple(split_seeds)})
    for line in trailer:
        print(line.lstrip("# "))
    print(f"wrote {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# Entry point

COMMANDS = {
    "theory": cmd_theory,
    "simulate": cmd_simulate,
    "toy": cmd_toy,
    "attack": cmd_attack,
    "real": cmd_real,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="interpnn", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--out", default=None)
        p.add_argument("--plot", action="store_true", default=None)
        if "seed" in SCHEMAS[name]:
            p.add_argument("--seed", type=int, default=None)
        if "threads" in SCHEMAS[name]:
            p.add_argument("--threads", type=int, default=None)
        if {"repetitions", "repeats"} & set(SCHEMAS[name]):
            p.add_argument("--paper-scale", action="store_true", default=False,
                           help="use 500 repetitions regardless of the config")
        if name == "theory":
            p.add_argument("--d", type=int, default=None)
            p.add_argument("--which", default=None, choices=sorted({"pr", "pr_opt", "cis", "cis_opt", "ownn"}))
            p.add_argument("--gamma-max", dest="gamma_max", type=float, default=None)
            p.add_argument("--step", type=float, default=None)
    return ap


def _main(argv) -> int:
    args = _build_parser().parse_args(argv)
    file_cfg = read_config_file(args.config) if args.config else {}
    overrides = {
        k: getattr(args, k)
        for k in SCHEMAS[args.command]
        if hasattr(args, k) and getattr(args, k) is not None
    }
    cfg = resolve_config(args.command, file_cfg, overrides)
    if getattr(args, "paper_scale", False):
        for key in ("repetitions", "repeats"):
            if key in cfg:
                cfg[key] = 500
    return COMMANDS[args.command](cfg)


def main(argv=None) -> int:
    try:
        return _main(argv)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, KTooLarge, EmptyGrid, NegativeGamma, BadMetric) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ParseError, UnknownLabel, DegenerateSplit, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except (DomainError, QuadratureFailure, FloatingPointError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
