"""Spans recorded from the benchmark's own files.

The tracer wraps each public function at the place its caller looks it
up (a module global or a class attribute) and records one span per call:
name, start, end, parent span and request id. Spans stay in memory and
are written out when the run ends. A layer's self time is its span's
duration minus the durations of its direct child spans.

A wrap target that a later version of the package no longer has is
skipped with a note; the metrics that depend on it read 0.
"""

from __future__ import annotations

import json
import os
import statistics
import time

# span name -> places the callers look the function up: (module, attr)
# for functions, (module, Class.attr) for methods.
WRAPS = {
    "core.validate": [("core", "CfRequest.validate_against")],
    "core.map": [("core", "ClusterModel.to_internal"), ("core", "ClusterModel.to_original")],
    "core.assign": [("explain", "assign_cluster")],
    "gaussian_cf.pair_build": [("explain", "build_pair_problem")],
    "gaussian_cf.solve": [("explain", "solve_gaussian_cf")],
    "kmeans_cf.build": [("explain", "build_constraint")],
    "kmeans_cf.solve": [("explain", "solve_kmeans_cf")],
    "explain.explain": [("explain", "explain"), ("evaluate", "explain"), ("cli", "explain")],
    "explain.verdict": [("explain", "membership_verdict")],
    "explain.best": [("explain", "explain_best"), ("cli", "explain_best")],
    "evaluate.run_eval": [("evaluate", "run_eval"), ("cli", "run_eval")],
    "evaluate.sweep": [("evaluate", "sweep_epsilon"), ("cli", "sweep_epsilon")],
    "evaluate.write": [
        ("evaluate", "write_report_json"), ("evaluate", "write_records_csv"),
        ("cli", "write_report_json"), ("cli", "write_records_csv"),
    ],
    "fit.fit": [("fit", "fit"), ("cli", "fit")],
    "model_io.load_model": [("model_io", "load_model"), ("cli", "load_model")],
    "model_io.save_model": [("model_io", "save_model"), ("cli", "save_model")],
    "model_io.load_dataset": [("model_io", "load_dataset"), ("cli", "load_dataset")],
    "cli.main": [("cli", "main")],
}
# Counted, not spanned: rows scored by the assignment rule.
COUNTED = [("core", "score_matrix"), ("explain", "score_matrix"), ("evaluate", "score_matrix"),
           ("fit", "score_matrix")]

SOLVE_CELLS = [(k, d) for k in ("full", "diagonal", "spherical") for d in (2, 16, 64)]
FIT_CELLS = [("gmm", "full"), ("gmm", "diagonal"), ("gmm", "spherical"), ("kmeans", "centroid")]

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [("core.validate_us", "us"), ("core.assign_us", "us"), ("core.map_us", "us"),
     ("core.score_rows_per_cf", "rows"), ("gaussian_cf.pair_build_us", "us")]
    + [(f"gaussian_cf.solve_us.{k}.d{d}", "us") for k, d in SOLVE_CELLS]
    + [("gaussian_cf.roots_per_ok", "roots"), ("gaussian_cf.no_root_found", "count"),
       ("kmeans_cf.build_us", "us"), ("kmeans_cf.solve_us", "us"),
       ("explain.self_us", "us"), ("explain.verdict_us", "us"),
       ("explain.targets_per_best", "targets"),
       ("evaluate.run_eval_self_ms", "ms"), ("evaluate.sweep_self_ms", "ms"),
       ("evaluate.write_ms", "ms")]
    + [(f"fit.fit_s.{a}.{k}", "s") for a, k in FIT_CELLS]
    + [("fit.iterations", "count"), ("model_io.load_model_ms", "ms"),
       ("model_io.save_model_ms", "ms"), ("model_io.load_dataset_ms", "ms"),
       ("model_io.model_bytes", "bytes"), ("cli.self_ms.explain", "ms"),
       ("cli.self_ms.eval", "ms"), ("trace.overhead_s", "s"), ("trace.overhead_pct", "%")]
)


def _resolve(program, module: str, attr: str):
    """(owner, name, original) or None when the target is gone."""
    owner = getattr(program, module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name, None)
        if owner is None or attr not in vars(owner):
            return None
        return owner, attr, vars(owner)[attr]
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self, program):
        self.spans = []  # (name, start_ns, end_ns, parent index, request id)
        self.extra = {}  # span index -> annotation
        self.stack = []
        self.request = -1
        self.rows_scored = 0
        self.notes = []
        self._patches = []  # (owner, attr, original, wrapper)
        wrappers = {}
        for name, places in WRAPS.items():
            for module, attr in places:
                found = _resolve(program, module, attr)
                if found is None:
                    self.notes.append(f"{module}.{attr} not found; {name} spans absent")
                    continue
                owner, short, fn = found
                key = id(fn)
                if key not in wrappers:
                    wrappers[key] = self._span_wrapper(name, fn)
                self._patches.append((owner, short, fn, wrappers[key]))
        for module, attr in COUNTED:
            found = _resolve(program, module, attr)
            if found is None:
                self.notes.append(f"{module}.{attr} not found; rows scored not counted")
                continue
            owner, short, fn = found
            key = id(fn)
            if key not in wrappers:
                wrappers[key] = self._count_wrapper(fn)
            self._patches.append((owner, short, fn, wrappers[key]))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _span_wrapper(self, name, fn):
        spans, stack, extra, clock = self.spans, self.stack, self.extra, time.perf_counter_ns
        annotate = _ANNOTATE.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.request)
            if annotate is not None:
                extra[idx] = annotate(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn):
        def wrapper(model, rows, *args, **kwargs):
            shape = getattr(rows, "shape", None)
            self.rows_scored += 1 if not shape or len(shape) == 1 else shape[0]
            return fn(model, rows, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"notes": self.notes}) + "\n")
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, t0, t1, parent, req = span
                rec = [name, t0, t1, parent, req]
                if i in self.extra:
                    rec.append(self.extra[i])
                fh.write(json.dumps(rec) + "\n")


def _solve_info(args, kwargs, result):
    problem = args[0]
    return [problem.source.covariance.kind, int(problem.y.size), result.status,
            int(result.roots_found)]


def _fit_info(args, kwargs, result):
    config = args[1]
    model, info = result
    kind = config.covariance if config.algorithm == "gmm" else "centroid"
    return [config.algorithm, kind, int(info.iterations)]


def _main_info(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return [argv[0] if argv else None]


def _save_info(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return [os.path.getsize(path)]


_ANNOTATE = {
    "gaussian_cf.solve": _solve_info,
    "fit.fit": _fit_info,
    "cli.main": _main_info,
    "model_io.save_model": _save_info,
}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def layer_metrics(tracer: Tracer, first_measured: int, rounds: int, n_cf: int,
                  traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics from the recorded spans. Spans before index
    `first_measured` belong to set-up (fit and model_io). `traced_s` and
    `untraced_s` are the timed call time of the same rounds with and
    without tracing."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span is not None and span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
            children[span[3]].append(i)

    def durations(name, start=first_measured, self_time=False):
        out = []
        for i in range(start, len(spans)):
            span = spans[i]
            if span is not None and span[0] == name:
                dur = span[2] - span[1]
                out.append(dur - child_ns[i] if self_time else dur)
        return out

    us, ms = 1e-3, 1e-6
    m = {}
    m["core.validate_us"] = _median(durations("core.validate")) * us
    m["core.assign_us"] = _median(durations("core.assign")) * us
    m["core.map_us"] = _median(durations("core.map")) * us
    m["core.score_rows_per_cf"] = tracer.rows_scored / n_cf if n_cf else 0.0
    m["gaussian_cf.pair_build_us"] = _median(durations("gaussian_cf.pair_build")) * us
    solves = [(i, tracer.extra[i]) for i in range(first_measured, len(spans))
              if spans[i] is not None and spans[i][0] == "gaussian_cf.solve" and i in tracer.extra]
    for kind, d in SOLVE_CELLS:
        cell = [spans[i][2] - spans[i][1] for i, e in solves if e[0] == kind and e[1] == d]
        m[f"gaussian_cf.solve_us.{kind}.d{d}"] = _median(cell) * us
    m["gaussian_cf.roots_per_ok"] = _mean([e[3] for _, e in solves if e[2] == "ok"])
    m["gaussian_cf.no_root_found"] = (
        sum(1 for _, e in solves if e[2] == "no_root_found") / rounds if rounds else 0.0
    )
    m["kmeans_cf.build_us"] = _median(durations("kmeans_cf.build")) * us
    m["kmeans_cf.solve_us"] = _median(durations("kmeans_cf.solve")) * us
    m["explain.self_us"] = _median(durations("explain.explain", self_time=True)) * us
    m["explain.verdict_us"] = _median(durations("explain.verdict")) * us
    bests = [i for i in range(first_measured, len(spans))
             if spans[i] is not None and spans[i][0] == "explain.best"]
    m["explain.targets_per_best"] = _mean(
        [sum(1 for c in children[i] if spans[c][0] == "explain.explain") for i in bests]
    )
    m["evaluate.run_eval_self_ms"] = _median(durations("evaluate.run_eval", self_time=True)) * ms
    m["evaluate.sweep_self_ms"] = _median(durations("evaluate.sweep", self_time=True)) * ms
    writes = {}
    for i in range(first_measured, len(spans)):
        span = spans[i]
        if span is not None and span[0] == "evaluate.write":
            writes[span[4]] = writes.get(span[4], 0) + span[2] - span[1]
    m["evaluate.write_ms"] = _median(list(writes.values())) * ms
    fits = [(spans[i][2] - spans[i][1], tracer.extra[i]) for i in range(first_measured)
            if spans[i] is not None and spans[i][0] == "fit.fit" and i in tracer.extra]
    for algo, kind in FIT_CELLS:
        m[f"fit.fit_s.{algo}.{kind}"] = sum(
            dur for dur, e in fits if e[0] == algo and e[1] == kind
        ) * 1e-9
    m["fit.iterations"] = _mean([e[2] for _, e in fits])
    m["model_io.load_model_ms"] = _median(durations("model_io.load_model", start=0)) * ms
    m["model_io.save_model_ms"] = _median(durations("model_io.save_model", start=0)) * ms
    m["model_io.load_dataset_ms"] = _median(durations("model_io.load_dataset", start=0)) * ms
    m["model_io.model_bytes"] = _mean(
        [tracer.extra[i][0] for i in range(first_measured)
         if spans[i] is not None and spans[i][0] == "model_io.save_model" and i in tracer.extra]
    )
    for command in ("explain", "eval"):
        m[f"cli.self_ms.{command}"] = _median(
            [spans[i][2] - spans[i][1] - child_ns[i] for i in range(first_measured, len(spans))
             if spans[i] is not None and spans[i][0] == "cli.main"
             and tracer.extra.get(i, [None])[0] == command]
        ) * ms
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return m
