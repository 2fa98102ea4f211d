"""Self-test of the benchmark's output checks.

usage: python3 perfbench/selftest.py

Runs each workload's subcommand once, then shows that every check passes
on the program's output (the real_lattice oracle check aside, which fails
while ``neighbors.query_batch`` breaks the tie rule) and fails on a
deliberately perturbed copy: one CSV cell changed, a row dropped, both
repetitions given one repetition's values, or the white-box and clean rows
swapped. It also runs ``real`` on a tie-free variant of the lattice CSV,
with continuous jitter on the features, where the oracle check must pass:
the failures counted on real_lattice then come from the program, not from
the oracle. Exits 1 if any expectation fails.
"""
from __future__ import annotations

import math
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1


class TieFreeLattice(workloads.RealLattice):
    name = "real_lattice_jittered"
    jitter = 0.3


def _edit(src: Path, dst: Path, fn) -> Path:
    """Copy a program CSV with fn(header, rows, trailer) applied in place."""
    header, rows, trailer = workloads.read_table(src)
    fn(header, rows, trailer)
    dst.write_text("\n".join([",".join(header)] + [",".join(r) for r in rows] + trailer) + "\n", encoding="utf-8")
    return dst


def _scale(row, col, factor):
    row[col] = repr(float(row[col]) * factor)


def _add(row, col, delta):
    row[col] = repr(float(row[col]) + delta)


def _swap_white_box(header, rows, trailer):
    wb = [r for r in rows if r[0] == "white_box"]
    clean = [r for r in wb if float(r[1]) == 0.0]
    hit = [r for r in wb if float(r[1]) > 0.0]
    for a, b in zip(clean, hit):
        a[3:], b[3:] = b[3:], a[3:]


def _omega0_all_kinds(factor):
    def fn(header, rows, trailer):
        for r in rows:
            if float(r[1]) == 0.0 and float(r[2]) == 0.2:
                _scale(r, 3, factor)
    return fn


def _one_rep_twice(pairs, keep=None):
    """Rewrite each (mean, sd) column pair as if both repetitions had the
    lower repetition's value: mean - sd/sqrt 2, sd 0. keep(row) picks the
    rows to rewrite."""
    def fn(header, rows, trailer):
        for r in rows:
            if keep is None or keep(r):
                for m, sd in pairs:
                    r[m], r[sd] = repr(float(r[m]) - float(r[sd]) / math.sqrt(2.0)), "0.0"
    return fn


# (check that must fail, description, edit). The simulate CSV's columns are
# gamma_over_d, k_used, criterion_mean, criterion_sd, ratio_mean, ratio_sd,
# theory_ratio.
SIMULATE_PERTURBATIONS = [
    ("structure", "last row dropped", lambda h, r, t: r.pop()),
    ("theory_ratio", "theory_ratio of gamma/d=0.15 + 1e-9", lambda h, r, t: _add(r[3], 6, 1e-9)),
    ("oracle_reps", "criterion_mean of gamma/d=0.1 x (1 + 1e-7)", lambda h, r, t: _scale(r[2], 2, 1 + 1e-7)),
    ("oracle_reps", "both repetitions given the lower one's values", _one_rep_twice([(2, 3), (4, 5)])),
]
PERTURBATIONS = {
    "sim_regression_per_gamma": SIMULATE_PERTURBATIONS,
    "sim_cis_d5": SIMULATE_PERTURBATIONS,
    "attack_d2": [
        ("structure", "omega of the last row changed", lambda h, r, t: r[-1].__setitem__(1, "0.05")),
        ("omega0_identical", "black-box omega=0 regret at gamma/d=0.1 x (1 + 1e-12)",
         lambda h, r, t: _scale(next(x for x in r if x[0] == "black_box" and float(x[1]) == 0.0 and float(x[2]) == 0.1), 3, 1 + 1e-12)),
        ("white_box_ge_clean", "white-box omega=1/32 rows swapped with the clean rows", _swap_white_box),
        ("oracle_reps", "omega=0 regret at gamma/d=0.2 x (1 + 1e-6), every kind", _omega0_all_kinds(1 + 1e-6)),
        ("oracle_reps", "both repetitions given the lower one's values, omega=0, every kind",
         _one_rep_twice([(3, 4)], keep=lambda r: float(r[1]) == 0.0)),
    ],
    "real_lattice_jittered": [
        ("structure", "header renamed", lambda h, r, t: h.__setitem__(1, "k")),
        ("ranges_and_trailer", "trailer error changed", lambda h, r, t: t.__setitem__(0, t[0].replace("error 0.", "error 1."))),
        ("oracle_rows", "k_best of gamma/d=0 + 1", lambda h, r, t: _add(r[0], 1, 1.0)),
    ],
}


def main() -> int:
    problems = []

    def expect(cond: bool, what: str):
        print(f"  {'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            problems.append(what)

    for wl in list(workloads.WORKLOADS.values()) + [TieFreeLattice()]:
        work = HERE / "out" / f"selftest-{wl.name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cfg = wl.prepare(SEED, work)
        ref = wl.reference(cfg)
        op = run.run_op(wl, cfg, work, 0, False, time.monotonic() + 600)
        print(f"{wl.name}: exit code {op['rc']}")
        if op["rc"] != 0 or not op["csv"].exists():
            expect(False, f"{wl.name}: the program ran and wrote its CSV")
            continue
        for c in wl.check(cfg, ref, op["csv"]):
            known = wl.name == "real_lattice" and c.name == "oracle_rows"
            expect(c.ok != known, f"{wl.name}: {c.name} {'fails (tie rule broken)' if known else 'passes'} on the program's output"
                   + (f" [{c.detail}]" if not c.ok else ""))
        for i, (name, what, fn) in enumerate(PERTURBATIONS.get(wl.name, [])):
            bad = _edit(op["csv"], work / f"perturbed{i}.csv", fn)
            got = {c.name: c.ok for c in wl.check(cfg, ref, bad)}
            expect(got.get(name) is False, f"{wl.name}: {name} fails when {what}")
    print(f"{len(problems)} expectation(s) failed" if problems else "every expectation held")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
