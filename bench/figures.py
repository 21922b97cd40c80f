"""Reference figures: run every workload over seeds 1 to 10 twice, then
traced over seeds 1 to 3, and print the medians and quartiles of each
metric as markdown tables.

    python3 bench/figures.py

The workloads, run length and bounds come from BENCHMARK.json. Each run
is its own process (`bench/run.py`), one after another: the first set of
every workload, then the second set of every workload, then the traced
runs. Spread is the distance between the first and third quartile as a
share of the median, with quartiles from `statistics.quantiles(n=4)`.
"Worse by" is how far the second set's median is worse than the first
set's, as a share of the first (negative when it is better).
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUN_SECONDS = SPEC["run_seconds"]
BOUNDS = {m["name"]: (m["bound"], m["better"]) for m in SPEC["end_to_end"]}
SEEDS = range(1, 11)
SETS = 2
TRACED_SEEDS = range(1, 4)


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    summary = [line for line in proc.stderr.splitlines() if line.startswith(f"{workload}:")]
    print(f"  {summary[0] if summary else workload}", file=sys.stderr, flush=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stats(runs, name):
    values = [r["metrics"][name]["value"] for r in runs]
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def _untraced_table(sets):
    lines = ["| metric | unit | bound | median 1 | q1 | q3 | spread 1 | median 2 | spread 2 "
             "| worse by |", "|---|---|---|---|---|---|---|---|---|---|"]
    for name, (bound, better) in BOUNDS.items():
        unit = sets[0][0]["metrics"][name]["unit"]
        med1, q1, q3, spread1 = _stats(sets[0], name)
        med2, _, _, spread2 = _stats(sets[1], name)
        worse = (med2 - med1) / med1 if better == "lower" else (med1 - med2) / med1
        lines.append(f"| {name} | {unit} | {bound} | {med1:.6g} | {q1:.6g} | {q3:.6g} "
                     f"| {spread1:.3f} | {med2:.6g} | {spread2:.3f} | {worse:+.3f} |")
    return "\n".join(lines)


def _traced_table(runs):
    lines = ["| metric | unit | median | q1 | q3 | spread |", "|---|---|---|---|---|---|"]
    for name, m in runs[0]["metrics"].items():
        med, q1, q3, spread = _stats(runs, name)
        lines.append(f"| {name} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                     f"| {spread:.3f} |")
    return "\n".join(lines)


def main():
    sets = {w: [] for w in WORKLOADS}
    for k in range(SETS):
        for workload in WORKLOADS:
            print(f"{workload}: untraced, set {k + 1}", file=sys.stderr)
            sets[workload].append([_run(workload, s, 0) for s in SEEDS])
    traced = {}
    for workload in WORKLOADS:
        print(f"{workload}: traced", file=sys.stderr)
        traced[workload] = [_run(workload, s, 1) for s in TRACED_SEEDS]
    for workload in WORKLOADS:
        runs = [r for runs in sets[workload] for r in runs]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n#### {workload}\n\n{SETS} sets of {len(SEEDS)} untraced runs, seeds "
              f"{SEEDS[0]}-{SEEDS[-1]}; correct in {sum(r['correct'] for r in runs)} of "
              f"{len(runs)}; failed share {', '.join(f'{s:.6f}' for s in shares)}.\n")
        print(_untraced_table(sets[workload]))
        print(f"\n{len(TRACED_SEEDS)} traced runs, seeds "
              f"{TRACED_SEEDS[0]}-{TRACED_SEEDS[-1]}:\n")
        print(_traced_table(traced[workload]))


if __name__ == "__main__":
    main()
