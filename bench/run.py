"""Benchmark for clustercf.

    python3 bench/run.py --workload explain-stream --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from `src/`.
One run sets the workload up several times (set-up time is their
median), then runs whole rounds of closed-loop calls for `--seconds`,
timing each call alone and checking every output outside the timed
sections. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. `--workload all`
runs every workload, each in its own process, and prints a table.
"""

import os
import sys

# Single-threaded BLAS and OpenMP, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("explain-stream", "campaign", "centroid-cli")
END_TO_END = [("cf_per_s", "1/s"), ("call_p50_ms", "ms"), ("call_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]
MODULES = ("core", "explain", "evaluate", "fit", "model_io", "cli")


def load_program():
    """The package modules, imported from this checkout's `src/` only."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        program = SimpleNamespace(
            **{m: importlib.import_module(f"clustercf.{m}") for m in MODULES}
        )
    except ImportError as exc:
        sys.exit(f"cannot import clustercf from {src}: {exc}")
    origin = os.path.abspath(program.core.__file__)
    if not origin.startswith(src + os.sep):
        sys.exit(f"clustercf was imported from {origin}, not from {src}")
    return program


def _model_digest(workdir) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(workdir)):
        if name.endswith(".model.json"):
            with open(os.path.join(workdir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _execute(calls, tracer, first_request):
    """Run every call, timing each alone; returns (outputs, durations in ns)."""
    outputs, durations = [], []
    clock = time.perf_counter_ns
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.request = first_request + i
        t0 = clock()
        try:
            out = call.run()
        except Exception as exc:  # judged by the call's check
            out = exc
        durations.append(clock() - t0)
        outputs.append(out)
    return outputs, durations


class Tally:
    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.fault_failed = 0
        self.cfs = 0
        self.unexpected = []

    def add(self, call, verdict) -> None:
        """A named-fault request's failure is expected only when its
        reason is the fault's own; any other failure is unexpected."""
        self.ops += verdict.ops
        self.failed += verdict.failed
        self.cfs += verdict.cfs
        if not verdict.failed:
            return
        if call.expect is not None and verdict.reasons == [call.expect]:
            self.fault_failed += verdict.failed
        else:
            self.unexpected.extend(f"{call.api}: {r}" for r in verdict.reasons)


def run_workload(name, seed, seconds, trace):
    import numpy as np

    from tracing import PER_LAYER, Tracer, layer_metrics
    from workloads import WORKLOADS

    program = load_program()
    workload = WORKLOADS[name](program)
    workdir = os.path.join(OUT_DIR, f"{name}-{os.getpid()}")
    tracer = Tracer(program) if trace else None
    problems = []
    try:
        setup_s, digests = [], []
        for i in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            traced = tracer is not None and i == SETUP_REPEATS - 1
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            found = workload.setup(workdir)
            setup_s.append(time.perf_counter() - t0)
            if traced:
                tracer.uninstall()
            problems.extend(p for p in found if p not in problems)
            digests.append(_model_digest(workdir))
        if len(set(digests)) != 1:
            problems.append("repeated set-ups with one seed fitted different models")
        first_measured = len(tracer.spans) if tracer is not None else 0

        tally = Tally()
        samples = []
        timed_ns = 0
        traced_ns = 0
        rounds = 0
        start = time.perf_counter()
        while True:
            rng = np.random.default_rng([seed, 7919, rounds])
            calls = workload.round(rng, rounds, workdir)
            if not calls:
                sys.exit(f"{name}: set-up left nothing to run: {problems}")
            # A traced run times each round twice on the same calls; which
            # pass goes first alternates from round to round, and the run
            # ends on an even round count, so the order effect cancels out
            # of the tracing overhead.
            if tracer is None:
                passes = [None]
            else:
                passes = [None, tracer] if rounds % 2 == 0 else [tracer, None]
            for pass_tracer in passes:
                if pass_tracer is not None:
                    pass_tracer.install()
                outputs, durations = _execute(calls, pass_tracer, rounds * len(calls))
                if pass_tracer is None:
                    samples.extend(durations)
                    timed_ns += sum(durations)
                else:
                    pass_tracer.uninstall()
                    traced_ns += sum(durations)
                for call, out in zip(calls, outputs):
                    tally.add(call, call.check(out))
            rounds += 1
            if time.perf_counter() - start >= seconds and (tracer is None or rounds % 2 == 0):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tail_q = 99 if len(samples) >= 1000 else 90
    if tracer is not None:
        n_explains = sum(1 for s in tracer.spans[first_measured:]
                         if s is not None and s[0] == "explain.explain")
        values = layer_metrics(tracer, first_measured, rounds, n_explains,
                               traced_ns * 1e-9, timed_ns * 1e-9)
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}
        tracer.write(os.path.join(OUT_DIR, f"trace-{name}.jsonl"))
        for note in tracer.notes:
            print(f"note: {note}", file=sys.stderr)
        absent = [n for n, _ in PER_LAYER if values[n] == 0]
        if absent:
            print(f"note: not exercised on {name} (reported as 0): {', '.join(absent)}",
                  file=sys.stderr)
    else:
        values = {
            "cf_per_s": tally.cfs / (timed_ns * 1e-9),
            "call_p50_ms": float(np.percentile(samples, 50)) * 1e-6,
            "call_tail_ms": float(np.percentile(samples, tail_q)) * 1e-6,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}

    counter = workload.counter
    print(
        f"{name}: seed {seed}, {rounds} rounds, {len(samples)} calls, "
        f"tail = p{tail_q}, {tally.ops} operations, {tally.failed} failed "
        f"({tally.fault_failed} on named-fault requests), set-up runs "
        f"{', '.join(f'{s:.3f}' for s in setup_s)} s, "
        f"{counter.replaced} of {counter.drawn} drawn requests replaced as certified infeasible",
        file=sys.stderr,
    )
    for fitted in workload.fitted:
        left_out = [k for k in range(fitted.ref.n_clusters) if k not in fitted.usable]
        if left_out:
            print(f"note: {fitted.name}: components {left_out} collapsed; "
                  "requests on them are left out", file=sys.stderr)
        for note in fitted.notes:
            print(f"note: {note}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for reason in tally.unexpected[:10]:
        print(f"check failed: {reason}", file=sys.stderr)
    correct = not problems and not tally.unexpected
    print(json.dumps({"correct": correct, "attempted": tally.ops, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def run_all(seed, seconds, trace) -> int:
    """Every workload in its own process; prints one table and a JSON
    object keyed by workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, check=False, text=True,
        )
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
