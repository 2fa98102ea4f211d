"""Benchmark of the interpnn command line on four seeded workloads.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each operation starts ``interpnn`` in a fresh
process on the workload's generated config (see workloads.py), times it from
outside, and checks its CSV. Operations repeat on the same inputs while
another round still fits in S seconds (at least one round). With --trace 0
the run reports the end-to-end metrics of BENCHMARK.json; with --trace 1
each round is an untraced and a traced invocation, and the run reports the
per-layer metrics of the traced one plus the tracing overhead. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # a run must end within 180 s


def run_op(wl, cfg, work: Path, i: int, traced: bool, deadline: float) -> dict:
    """Start one invocation, wait for it, and time it from outside."""
    out_csv = wl.output(cfg)
    out_csv.unlink(missing_ok=True)
    marker = work / f"op{i}.marker.json"
    spans_file = work / f"op{i}.spans.json"
    argv = [sys.executable, str(HERE / "child.py"), wl.command, str(work / "config.txt"), str(marker)]
    if traced:
        argv.append(str(spans_file))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with open(work / f"op{i}.log", "w", encoding="utf-8") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=work, env=env)
        killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    op = {"rc": proc.returncode, "wall": t1 - t0, "cpu": usage.ru_utime + usage.ru_stime,
          "rss_mb": usage.ru_maxrss / 1024.0, "csv": out_csv}
    if marker.exists():
        ready = json.loads(marker.read_text(encoding="utf-8"))["ready"]
        op["setup_s"] = ready - t0
        op["reps_per_s"] = wl.reps(cfg) / (t1 - ready)
    if traced and spans_file.exists():
        op["trace"] = json.loads(spans_file.read_text(encoding="utf-8"))
    return op


def judge(wl, cfg, ref, op: dict, log) -> tuple[bool, bool]:
    """(operation failed, a property check failed) for one invocation."""
    if op["rc"] != 0 or "setup_s" not in op or not op["csv"].exists():
        print(f"  exit code {op['rc']}, no output", file=log)
        return True, False
    checks = wl.check(cfg, ref, op["csv"])
    if "trace" in op:
        want = wl.expected_rows(cfg, ref)
        got = {k: op["layers"][k] for k in want}
        checks.append(workloads.Check("trace_row_counts", False, got == want, f"traced {got}, derived {want}"))
    for c in checks:
        print(f"  {'ok  ' if c.ok else 'FAIL'} {c.name}{'' if c.ok else ': ' + c.detail}", file=log)
    return any(not c.ok for c in checks if c.oracle), any(not c.ok for c in checks if not c.oracle)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    # Turn SIGTERM into SystemExit, so run_op kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "interpnn" / "cli.py").is_file():
        print(f"error: no interpnn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; use one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = HERE / "out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = wl.prepare(args.seed, work)
    ref = wl.reference(cfg)

    log = sys.stderr
    ops, rounds = [], []
    attempted = failed = 0
    correct = True
    loop_start = time.monotonic()
    while True:
        round_start = time.monotonic()
        kinds = (False, True) if args.trace else (False,)
        pair = []
        for traced in kinds:
            op = run_op(wl, cfg, work, len(ops), traced, start + DEADLINE_S)
            if "trace" in op:
                op["layers"] = spans.layer_metrics(op["trace"]["spans"], op["trace"]["ties"], wl.reps(cfg))
            print(f"{wl.name} op {len(ops)}{' traced' if traced else ''}: rc {op['rc']}, "
                  f"wall {op['wall']:.2f} s, cpu {op['cpu']:.2f} s, "
                  f"set-up {op.get('setup_s', float('nan')):.3f} s, {op.get('reps_per_s', float('nan')):.4f} reps/s, "
                  f"peak {op['rss_mb']:.0f} MB", file=log)
            f, bad = judge(wl, cfg, ref, op, log)
            attempted += 1
            failed += f
            correct &= not bad
            ops.append(op)
            pair.append(op)
        rounds.append(pair)
        # Start another round only if one as long as the last still ends
        # within --seconds, so a run measures for at most that long.
        now = time.monotonic()
        if 2 * now - round_start - loop_start > args.seconds or now - start > DEADLINE_S / 2:
            break

    timed = [op for op in ops if "setup_s" in op]
    if not timed:
        print("error: no invocation reached the end of set-up", file=sys.stderr)
        return 1
    if args.trace:
        traced = [p[1] for p in rounds if "layers" in p[1]]
        if not traced:
            print("error: no traced invocation wrote its spans", file=sys.stderr)
            return 1
        values = {k: statistics.median(op["layers"][k] for op in traced) for k in traced[0]["layers"]}
        values["trace.overhead_s"] = statistics.median(p[1]["wall"] - p[0]["wall"] for p in rounds)
        wanted = spec["per_layer"]
    else:
        values = {
            # Every invocation is a fresh process, so each set-up is a cold
            # one. Contention from other work only slows an invocation down,
            # so the fastest one is the steadiest estimate of the program's
            # own speed.
            "setup_s": min(op["setup_s"] for op in timed),
            "reps_per_s": max(op["reps_per_s"] for op in timed),
            "peak_rss_mb": max(op["rss_mb"] for op in timed),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
