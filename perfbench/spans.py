"""In-memory span recording around the calls each interpnn module makes
into the next, and the per-layer metrics derived from the spans.

``install`` replaces attributes at their import sites (the names a module
looked up when it was imported), so every call from that module goes
through a timing wrapper; the functions' own modules are untouched. Spans
opened on a worker thread with nothing open on that thread are parented to
the innermost span open on the main thread, which is the experiment call
that started the workers.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import threading
import time

import numpy as np

import oracle

TIE_SAMPLE_ROWS = 64  # rows per query_batch call compared with the full scan


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self.ties: list[tuple[int, int]] = []  # (rows compared, rows differing) per query_batch call

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, fn, count=None, after=None):
        """Wrap fn in a span. count(args, kwargs) gives the span's counters;
        after(args, kwargs, result) runs outside the span, in its own."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec = {"id": sid, "name": name, "t0": t0, "t1": t1, "parent": parent,
                       "thread": threading.get_ident()}
                if count is not None:
                    rec.update(count(args, kwargs))
                self.spans.append(rec)
            if after is not None:
                self.span("trace.tie_check", lambda: after(args, kwargs, result))()
            return result

        return wrapper


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _query_count(args, kwargs):
    X = np.asarray(_arg(args, kwargs, 1, "X"))
    k = int(_arg(args, kwargs, 2, "k"))
    return {"rows": X.shape[0], "k": k, "d": X.shape[1]}


def _tie_check(args, kwargs, result):
    """Compare evenly spaced rows of a query_batch result with the full scan.
    Returns (rows compared, rows whose k indices differ)."""
    index = _arg(args, kwargs, 0, "index")
    X = np.asarray(_arg(args, kwargs, 1, "X"), dtype=np.float64)
    k = int(_arg(args, kwargs, 2, "k"))
    rows = np.unique(np.linspace(0, X.shape[0] - 1, min(TIE_SAMPLE_ROWS, X.shape[0])).astype(int))
    want = oracle.knn(index.dataset.points, X[rows], k, index.metric.p)[0]
    return rows.size, int(np.count_nonzero((result[0][rows] != want).any(axis=1)))


def install(cli_module) -> Tracer:
    """Wrap the cross-module calls of evaluation, estimator and cli."""
    import interpnn.estimator as estimator
    import interpnn.evaluation as evaluation

    tracer = Tracer()

    def tie_check(args, kwargs, result):
        tracer.ties.append(_tie_check(args, kwargs, result))

    weights = lambda a, kw: {"entries": int(np.asarray(_arg(a, kw, 0, "distances")).size)}
    scored = lambda a, kw: {"rows": int(np.asarray(_arg(a, kw, 1, "X")).shape[0])}
    for mod, site in ((evaluation, "evaluation"), (estimator, "estimator")):
        mod.query_batch = tracer.span("neighbors.query_batch", mod.query_batch,
                                      lambda a, kw, s=site: {**_query_count(a, kw), "site": s}, tie_check)
        mod.compute_weights_batch = tracer.span("weighting.compute_weights_batch", mod.compute_weights_batch, weights)
        mod.build_index = tracer.span("neighbors.build_index", mod.build_index)
    evaluation.score_batch = tracer.span("estimator.score_batch", evaluation.score_batch, scored)
    evaluation.fit = tracer.span("estimator.fit", evaluation.fit)
    for name in ("load_csv", "split", "standardize_train_test"):
        setattr(cli_module, name, tracer.span(f"ingest.{name}", getattr(cli_module, name)))
    for name in ("run_ratio_experiment", "run_attack_experiment"):
        setattr(cli_module, name, tracer.span(f"evaluation.{name}", getattr(cli_module, name)))

    def traced_model(factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            model = factory(*args, **kwargs)
            return dataclasses.replace(model, sample=tracer.span("synthetic.sample", model.sample),
                                       eta=tracer.span("synthetic.eta", model.eta))
        return make

    for name, factory in list(cli_module.MODELS.items()):
        cli_module.MODELS[name] = traced_model(factory)
    cli_module.main = tracer.span("cli.main", cli_module.main)
    return tracer


# ---------------------------------------------------------------------------
# Aggregation


def _covered(t0: float, t1: float, intervals) -> float:
    """Length of [t0, t1] covered by the union of the intervals."""
    total, end = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def self_time(spans: list[dict], names) -> float:
    """Summed self time of the spans with these names: duration minus the
    part covered by their child spans, on any thread."""
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    return sum(s["t1"] - s["t0"] - _covered(s["t0"], s["t1"], children.get(s["id"], []))
               for s in spans if s["name"] in names)


def layer_metrics(spans: list[dict], ties: list, reps: int) -> dict:
    """Per-layer metrics from one traced invocation."""
    def of(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum(s["t1"] - s["t0"] for s in of(name))

    q = of("neighbors.query_batch")
    scoring = {s["id"] for s in of("estimator.score_batch")}
    # score_batch is reported inclusive of its neighbour and weight calls,
    # but not of the tie checks the tracer itself runs inside it.
    checks_inside = sum(s["t1"] - s["t0"] for s in of("trace.tie_check") if s["parent"] in scoring)
    return {
        "neighbors.query_batch_s": busy("neighbors.query_batch"),
        "neighbors.query_batch_calls": len(q),
        "neighbors.query_batch_rows": sum(s["rows"] for s in q),
        "neighbors.candidates_recomputed": sum(s["rows"] * (s["k"] + 1) for s in q),
        "neighbors.recompute_bytes": sum(s["rows"] * (s["k"] + 1) * s["d"] * 8 for s in q),
        "neighbors.build_index_s": busy("neighbors.build_index"),
        "neighbors.build_index_calls": len(of("neighbors.build_index")),
        "neighbors.tie_mismatch_rows": sum(bad for _, bad in ties),
        "weighting.compute_weights_batch_s": busy("weighting.compute_weights_batch"),
        "weighting.compute_weights_batch_calls": len(of("weighting.compute_weights_batch")),
        "weighting.weights_computed": sum(s["entries"] for s in of("weighting.compute_weights_batch")),
        "estimator.score_batch_s": busy("estimator.score_batch") - checks_inside,
        "estimator.score_batch_rows": sum(s["rows"] for s in of("estimator.score_batch")),
        "estimator.self_s": self_time(spans, {"estimator.score_batch", "estimator.fit"}),
        "evaluation.self_s": self_time(spans, {"evaluation.run_ratio_experiment", "evaluation.run_attack_experiment"}),
        "evaluation.block_queries_per_rep": sum(1 for s in q if s["site"] == "evaluation") / reps,
        "synthetic.sample_s": busy("synthetic.sample"),
        "synthetic.sample_calls": len(of("synthetic.sample")),
        "synthetic.eta_s": busy("synthetic.eta"),
        "ingest.load_csv_s": busy("ingest.load_csv"),
        "ingest.split_s": busy("ingest.split"),
        "ingest.standardize_s": busy("ingest.standardize_train_test"),
        "cli.self_s": self_time(spans, {"cli.main"}),
    }
