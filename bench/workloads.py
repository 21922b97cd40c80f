"""The three workloads: input generation, set-up and the calls of a round.

A workload's set-up generates seeded blob data, writes it as CSV, reads
it back with `model_io.load_dataset`, fits each model with `fit`, and
saves and reloads every model through `model_io`. A round is a list of
calls, each a closed-loop request from one caller; the runner times each
call alone and checks every output after the round, outside the timed
sections.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os

import numpy as np

import checks
from checks import GaussianPair, ModelRef, Outcome, Request

KINDS = ("full", "diagonal", "spherical")
FIT_ITERATIONS = 20
# Components whose covariance condition number exceeds 1 / this are
# treated as collapsed.
MAX_CONDITION_INV = 1e-4
# Models come from one fixed seed, so every run fits the same models and
# set-up work does not vary with --seed, which drives the requests.
SETUP_SEED = 0
# The components EM collapses at SETUP_SEED (no more rows than features,
# or a covariance condition number above 1 / MAX_CONDITION_INV). Requests
# never use them, and a fit that collapses any other set fails set-up.
COLLAPSED = {
    "gmm-full-d64": [7], "gmm-diagonal-d64": [1], "gmm-spherical-d64": [3],
    "gmm8-full-d2": [4], "gmm8-diagonal-d16": [7],
}


class Verdict:
    """Checked outcome of one call: operations attempted and failed,
    counterfactuals that passed, and the reasons for failures."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.cfs = 0
        self.reasons = []

    def add(self, reason, has_cf: bool) -> None:
        self.ops += 1
        if reason is None:
            self.cfs += int(has_cf)
        else:
            self.failed += 1
            self.reasons.append(reason)


class Call:
    """One public call: `api` names it, `run()` makes it, `check(output)`
    returns a Verdict. `expect` is set on a named-fault request: the one
    failure reason its fault produces, which the run counts as expected."""

    def __init__(self, api: str, run, check, expect=None):
        self.api = api
        self.run = run
        self.check = check
        self.expect = expect


class Fitted:
    """One fitted model with its dataset and its reference copy."""

    def __init__(self, name, model, ref, rows=None, data=None, data_path=None,
                 model_path=None, labels=None):
        self.name = name
        self.model = model
        self.ref = ref
        self.rows = rows
        self.data = data
        self.data_path = data_path
        self.model_path = model_path
        self.labels = labels  # naive cluster of each row (None on near-ties)
        self.notes = []
        self.counts = np.bincount([l for l in labels or () if l is not None],
                                  minlength=ref.n_clusters)
        # EM can collapse a component onto fewer rows than features (down
        # to one row, with variances near 1e-30) or onto a near-flat set;
        # requests on such components fail on some seeds only, so they
        # are left out.
        self.collapsed = [k for k in range(ref.n_clusters)
                          if labels is not None and ref.kind != "kmeans"
                          and (self.counts[k] <= ref.d or ref.cov_eigs[k][0]
                               < MAX_CONDITION_INV * ref.cov_eigs[k][-1])]
        self.usable = [k for k in range(ref.n_clusters) if k not in COLLAPSED.get(name, ())]


# ---------------------------------------------------------------------------
# Inputs


def blobs(rng, n_clusters: int, d: int, n_per: int) -> np.ndarray:
    """Anisotropic Gaussian blobs in raw units with per-feature offsets and
    scales, so that standardization matters."""
    centers = rng.normal(scale=3.0, size=(n_clusters, d))
    parts = []
    for k in range(n_clusters):
        shear = rng.normal(size=(d, d)) / np.sqrt(d)
        lin = np.diag(rng.uniform(0.5, 1.5, size=d)) @ (np.eye(d) + 0.5 * shear)
        parts.append(centers[k] + rng.normal(size=(n_per, d)) @ lin.T)
    rows = np.vstack(parts)
    rows = rows[rng.permutation(rows.shape[0])]
    return rows * rng.uniform(0.5, 20.0, size=d) + rng.uniform(-50.0, 50.0, size=d)


def write_csv(path, rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(rows.shape[1])])
        for row in rows.tolist():
            writer.writerow([repr(v) for v in row])


def random_free(rng, d: int):
    """All-free (None) a third of the time, else a mask that freezes at
    least one feature and leaves at least one free."""
    if rng.random() < 1.0 / 3.0:
        return None
    bits = rng.random(d) < 0.6
    if d > 1 and bits.all():
        bits[int(rng.integers(d))] = False
    if not bits.any():
        bits[int(rng.integers(d))] = True
    return bits


def draw_epsilon(rng) -> float:
    return 0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 0.5))


def draw_factual(rng, fitted: Fitted):
    """A dataset row plus a little noise, and its naive cluster."""
    while True:
        i = int(rng.integers(fitted.rows.shape[0]))
        x = fitted.rows[i] + rng.normal(scale=0.05, size=fitted.ref.d) * fitted.ref.sd
        label = fitted.ref.label(fitted.ref.to_internal(x))
        if label in fitted.usable:
            return x, label


def other_cluster(rng, fitted: Fitted, source: int) -> int:
    others = [k for k in fitted.usable if k != source]
    return others[int(rng.integers(len(others)))]


class Counter:
    """Requests drawn and replaced because the independent certificate
    showed them infeasible (their status would hit named fault (a))."""

    def __init__(self):
        self.drawn = 0
        self.replaced = 0


# ---------------------------------------------------------------------------
# Set-up


def _save_and_reload(P, name, model, workdir, problems):
    """Save, load and save again through model_io; returns the loaded
    model, its file and its reference copy."""
    first = os.path.join(workdir, f"{name}.model.json")
    second = os.path.join(workdir, f"{name}.model2.json")
    P.model_io.save_model(model, first)
    loaded = P.model_io.load_model(first)
    P.model_io.save_model(loaded, second)
    with open(first, "rb") as fh:
        first_bytes = fh.read()
    with open(second, "rb") as fh:
        if fh.read() != first_bytes:
            problems.append(f"{name}: model changed across save -> load -> save")
    return loaded, first, ModelRef(json.loads(first_bytes))


def _fit_one(P, spec, index, workdir, problems, min_rows):
    """The fitted model, or None (with a problem) when `fit` raises or
    leaves too few usable components."""
    name, algo, kind, d, m, n_per = spec
    rng = np.random.default_rng([SETUP_SEED, index])
    rows = blobs(rng, m, d, n_per)
    data_path = os.path.join(workdir, f"{name}.csv")
    write_csv(data_path, rows)
    data = P.model_io.load_dataset(data_path)
    if checks._bits(data.rows) != checks._bits(rows):
        problems.append(f"{name}: dataset rows changed on load")
    # A fixed iteration budget (rarely cut short by exact convergence)
    # keeps set-up work from depending on how fast the fit converges.
    config = P.fit.FitConfig(algorithm=algo, covariance=kind, n_clusters=m, seed=SETUP_SEED,
                             restarts=1, max_iter=FIT_ITERATIONS, rel_tol=1e-12)
    try:
        model, info = P.fit.fit(data, config)
    except Exception as exc:  # a set-up failure, reported with the rest
        problems.append(f"{name}: fit raised {exc!r}")
        return None
    loaded, model_path, ref = _save_and_reload(P, name, model, workdir, problems)
    fitted = Fitted(name, loaded, ref, rows, data, data_path, model_path,
                    ref.labels(ref.to_internal(rows)))
    expected = COLLAPSED.get(name, [])
    if fitted.collapsed != expected:
        problems.append(f"{name}: components {fitted.collapsed} collapsed, "
                        f"expected {expected}")
    if len(fitted.usable) < 2 or max(fitted.counts[fitted.usable]) < min_rows:
        # Every request needs two usable components, and campaigns need a
        # source with enough rows.
        problems.append(f"{name}: usable components {fitted.usable} hold "
                        f"{fitted.counts[fitted.usable].tolist()} rows; model left out")
        return None
    reason = checks.check_history(info.objective_history) if algo == "gmm" else None
    if reason and not expected:
        problems.append(f"{name}: {reason}")
    elif reason:
        # The covariance jitter that keeps a collapsed component positive
        # definite voids EM's monotonicity; the collapse is the fault.
        fitted.notes.append(f"{name}: {reason} (after a component collapsed)")
    return fitted


def fit_models(P, specs, workdir, min_rows=0):
    """specs: (name, algo, kind, d, n_clusters, rows per cluster). Each
    model keeps at least two usable components, one of them with
    `min_rows` rows or more; a model that does not is left out, with a
    problem."""
    problems = []
    fitted = [_fit_one(P, spec, i, workdir, problems, min_rows)
              for i, spec in enumerate(specs)]
    return [f for f in fitted if f is not None], problems


# ---------------------------------------------------------------------------
# Shared call builders


def _mask(P, free):
    return None if free is None else P.core.Mask(free)


def _free_bits(d, free):
    return np.ones(d, dtype=bool) if free is None else free


def explain_call(P, fitted: Fitted, x, target, free, eps, source=None, expect=None):
    request = P.core.CfRequest(factual=x, target=target, source=source, mask=_mask(P, free),
                               epsilon=eps)
    req = Request(x, target, _free_bits(fitted.ref.d, free), eps, source=source)

    def check(out):
        v = Verdict()
        if isinstance(out, Exception):
            v.add(f"explain raised {out!r}", False)
        else:
            v.add(checks.check_point(fitted.ref, req, Outcome.of(out)),
                  out.counterfactual is not None)
        return v

    return Call("explain", lambda: P.explain.explain(fitted.model, request), check, expect)


def explain_best_call(P, fitted: Fitted, x, source, free, eps):
    ref = fitted.ref
    mask = _mask(P, free)
    bits = _free_bits(ref.d, free)
    candidates = [k for k in fitted.usable if k != source]
    targets = None if len(fitted.usable) == ref.n_clusters else candidates

    def alternatives(out):
        """Distances of every other target's checked result."""
        dists = []
        for t in candidates:
            if t == out.target:
                continue
            req = Request(x, t, bits, eps, source=out.source)
            if ref.kind == "kmeans":
                y = ref.to_internal(x)
                z = checks.kmeans_projection(ref, y, out.source, t, bits, eps)
                if z is not None:
                    dists.append(float((z - y) @ (z - y)))
                continue
            alt = P.explain.explain(fitted.model, P.core.CfRequest(
                factual=x, target=t, source=out.source, mask=mask, epsilon=eps))
            reason = checks.check_point(ref, req, Outcome.of(alt))
            if reason is None:
                dists.append(alt.distance_sq if alt.status == "ok" else None)
            elif not (alt.status == "no_root_found" and GaussianPair(
                    ref, ref.to_internal(x), out.source, t, bits, eps).certified_infeasible()):
                # A named-fault (a) status on an infeasible target offers no
                # candidate either way; anything else leaves the choice
                # unverifiable.
                return None, f"target {t}: {reason}"
        return dists, None

    def check(out):
        v = Verdict()
        if isinstance(out, Exception):
            v.add(f"explain_best raised {out!r}", False)
            return v
        outcome = Outcome.of(out)
        reason = checks.check_point(ref, Request(x, out.target, bits, eps), outcome)
        if reason is None:
            dists, reason = alternatives(out)
            reason = reason or checks.check_best(outcome, dists)
        v.add(reason, True)
        return v

    return Call(
        "explain_best",
        lambda: P.explain.explain_best(fitted.model, x, mask=mask, epsilon=eps,
                                       candidate_targets=targets),
        check,
    )


# ---------------------------------------------------------------------------
# explain-stream


FAULT_A = [
    # Masked diagonal d=2: the target is tighter than the source on the
    # free feature and far away on the frozen one, so g > 0 everywhere on
    # the slice; the right status is no_feasible_solution.
    {"d": 2, "kind": "diagonal", "means": [[0.0, 0.0], [0.0, 3.0]],
     "var": [[1.0, 1.0], [0.25, 0.25]],
     "x": [0.0, 0.0], "free": [True, False], "eps": 1e-5},
    # Masked spherical d=16, same construction on eight frozen features.
    {"d": 16, "kind": "spherical", "means": [[0.0] * 16, [0.0] * 8 + [3.0] * 8],
     "var": [1.0, 0.25], "x": [0.0] * 16, "free": [True] * 8 + [False] * 8, "eps": 1e-5},
]
# Exact trust-region hard case: feasible along axis 0, no sign change in
# the scan.
FAULT_B_MODEL = {"d": 2, "kind": "diagonal", "means": [[0.0, 0.0], [0.0, 1e-3]],
                 "var": [[1.0, 1.0], [4.0, 0.25]]}
FAULT_B_EPS = (1e-5, 0.5)
# The check's reason for each named fault: the status on a problem the
# certificate shows infeasible (a), and on a feasible one (b).
FAULT_A_REASON = "no_root_found on a certified-infeasible problem"
FAULT_B_REASON = "no_root_found on a feasible problem"


def _fixed_doc(spec) -> dict:
    comps = []
    for k in range(2):
        if spec["kind"] == "spherical":
            cov = {"kind": "spherical", "variance": spec["var"][k]}
        else:
            cov = {"kind": "diagonal", "variances": spec["var"][k]}
        comps.append({"mean": spec["means"][k], "covariance": cov, "prior": 0.5})
    return {"schema_version": 1, "kind": "gaussian", "d": spec["d"], "n_clusters": 2,
            "components": comps, "standardization": None, "provenance": {}}


class ExplainStream:
    """Independent explain requests over fitted Gaussians of every
    covariance kind and d in {2, 16, 64}, plus the named-fault requests."""

    name = "explain-stream"
    PER_CELL = 10  # random requests per (kind, d) cell per round
    SPECS = [(f"gmm-{k}-d{d}", "gmm", k, d, 8, 75 if d < 64 else 150)
             for k in KINDS for d in (2, 16, 64)]

    def __init__(self, P):
        self.P = P
        self.counter = Counter()

    def setup(self, workdir):
        self.fitted, problems = fit_models(self.P, self.SPECS, workdir)
        self.faults = []
        for spec in FAULT_A:
            doc = _fixed_doc(spec)
            model, _ = self.P.model_io.model_from_dict(doc)
            self.faults.append((Fitted("fault-a", model, ModelRef(doc)), spec["x"], 1,
                                np.asarray(spec["free"]), spec["eps"], FAULT_A_REASON))
        doc = _fixed_doc(FAULT_B_MODEL)
        model, _ = self.P.model_io.model_from_dict(doc)
        hard = Fitted("fault-b", model, ModelRef(doc))
        for eps in FAULT_B_EPS:
            # Feasible: g > 0 at y and g < 0 far along axis 0.
            pair = GaussianPair(hard.ref, np.zeros(2), 0, 1, np.ones(2, dtype=bool), eps)
            if not pair.g(pair.y) > 0.0 > pair.g(np.asarray([100.0, 0.0])):
                problems.append(f"named fault (b) with eps {eps} is not feasible")
            self.faults.append((hard, [0.0, 0.0], 1, None, eps, FAULT_B_REASON))
        return problems

    def round(self, rng, r, workdir):
        P = self.P
        calls = []
        for fitted in self.fitted:
            for _ in range(self.PER_CELL):
                calls.append(self._draw(rng, fitted))
        order = rng.permutation(len(calls))
        calls = [calls[i] for i in order]
        for fitted, x, target, free, eps, reason in self.faults:
            calls.append(explain_call(P, fitted, np.asarray(x, dtype=np.float64), target, free,
                                      eps, expect=reason))
        return calls

    def _draw(self, rng, fitted):
        ref = fitted.ref
        while True:
            self.counter.drawn += 1
            x, source = draw_factual(rng, fitted)
            target = other_cluster(rng, fitted, source)
            free = random_free(rng, ref.d)
            eps = draw_epsilon(rng)
            pair = GaussianPair(ref, ref.to_internal(x), source, target,
                                _free_bits(ref.d, free), eps)
            if not pair.certified_infeasible():
                return explain_call(self.P, fitted, x, target, free, eps)
            self.counter.replaced += 1


# ---------------------------------------------------------------------------
# campaign


EVAL_FACTUALS = 50
SWEEP_POINTS = 50
SWEEP_EPSILONS = [0.5 * i / (SWEEP_POINTS - 1) for i in range(SWEEP_POINTS)]


class Campaign:
    """run_eval campaigns, epsilon sweeps and explain_best over M = 8
    Gaussian clusters; each call reuses one (source, target, mask) triple."""

    name = "campaign"
    SPECS = [(f"gmm8-{k}-d{d}", "gmm", k, d, 8, 100) for k in KINDS for d in (2, 16)]

    def __init__(self, P):
        self.P = P
        self.counter = Counter()

    def setup(self, workdir):
        self.fitted, problems = fit_models(self.P, self.SPECS, workdir,
                                           min_rows=EVAL_FACTUALS + 5)
        for f in self.fitted:
            f.big = [k for k in f.usable if f.counts[k] >= EVAL_FACTUALS + 5]
        return problems

    def round(self, rng, r, workdir):
        calls = []
        for fitted in self.fitted:
            calls.append(self._eval(rng, fitted))
            calls.append(self._sweep(rng, fitted))
            x, source = draw_factual(rng, fitted)
            calls.append(explain_best_call(self.P, fitted, x, source, None, draw_epsilon(rng)))
        order = rng.permutation(len(calls))
        return [calls[i] for i in order]

    def _eval(self, rng, fitted):
        P, ref = self.P, fitted.ref
        all_free = np.ones(ref.d, dtype=bool)
        while True:
            self.counter.drawn += 1
            source = fitted.big[int(rng.integers(len(fitted.big)))]
            target = other_cluster(rng, fitted, source)
            eps = draw_epsilon(rng)
            # With every feature free the certificate does not depend on
            # the factual, so one test covers the whole campaign.
            if not GaussianPair(ref, ref.means[source], source, target, all_free,
                                eps).certified_infeasible():
                break
            self.counter.replaced += 1
        config = P.evaluate.EvalConfig(source=source, target=target, n_factuals=EVAL_FACTUALS,
                                       seed=int(rng.integers(2**31)), epsilon=eps)

        def check(report):
            v = Verdict()
            if isinstance(report, Exception):
                v.add(f"run_eval raised {report!r}", False)
                return v
            records = report.records
            reasons = []
            for rec in records:
                req = Request(rec.factual, target, all_free, eps, source=source)
                out = Outcome(rec.status, source, target, None, rec.counterfactual,
                              rec.distance_sq, rec.tolerant_member)
                reasons.append(checks.check_point(ref, req, out))
            agg = None
            if len(records) != EVAL_FACTUALS:
                agg = f"run_eval evaluated {len(records)} of {EVAL_FACTUALS} factuals"
            agg = agg or checks.check_aggregates([vars(rec) for rec in records],
                                                  report.aggregates)
            for rec, reason in zip(records, reasons):
                v.add(reason or agg, rec.counterfactual is not None)
            return v

        return Call("run_eval", lambda: P.evaluate.run_eval(fitted.model, fitted.data, config),
                    check)

    def _sweep(self, rng, fitted):
        P, ref = self.P, fitted.ref
        while True:
            self.counter.drawn += 1
            x, source = draw_factual(rng, fitted)
            target = other_cluster(rng, fitted, source)
            free = random_free(rng, ref.d)
            bits = _free_bits(ref.d, free)
            y = ref.to_internal(x)
            if not any(GaussianPair(ref, y, source, target, bits, e).certified_infeasible()
                       for e in (SWEEP_EPSILONS[0], SWEEP_EPSILONS[-1])):
                break
            self.counter.replaced += 1
        mask = _mask(P, free)

        def check(points):
            v = Verdict()
            if isinstance(points, Exception):
                v.add(f"sweep_epsilon raised {points!r}", False)
                return v
            reasons = []
            for p in points:
                req = Request(x, target, bits, p.epsilon)
                reasons.append(checks.check_point(ref, req, Outcome.of(p.result)))
            mono = checks.check_sweep(
                [p.result.distance_sq if p.result.status == "ok" else None for p in points]
            )
            if len(points) != SWEEP_POINTS:
                mono = f"sweep returned {len(points)} of {SWEEP_POINTS} points"
            for p, reason in zip(points, reasons):
                v.add(reason or mono, p.result.counterfactual is not None)
            return v

        return Call(
            "sweep_epsilon",
            lambda: P.evaluate.sweep_epsilon(fitted.model, x, target, mask, SWEEP_EPSILONS),
            check,
        )


# ---------------------------------------------------------------------------
# centroid-cli


CLI_EVAL_FACTUALS = 20


def run_cli(P, argv):
    """In-process `clustercf` command: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = P.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _one_json_line(stdout: str, command: str):
    lines = stdout.splitlines()
    if len(lines) != 1:
        return None, f"cli {command} printed {len(lines)} lines"
    try:
        summary = json.loads(lines[0])
    except ValueError:
        return None, f"cli {command} printed a line that is not JSON"
    if not isinstance(summary, dict) or summary.get("command") != command:
        return None, f"cli {command} summary names another command"
    return summary, None


def _bits_text(free) -> str:
    return ",".join("1" if b else "0" for b in free)


class CentroidCli:
    """k-means models with d in {2, 16, 64} and M = 8: explain and
    explain_best with and without masks, plus in-process CLI explain and
    eval calls that read model JSON and dataset CSV files and write
    result and report files."""

    name = "centroid-cli"
    EXPLAINS = 10  # per model per round
    BESTS = 3  # per model per round
    SPECS = [(f"kmeans-d{d}", "kmeans", "full", d, 8, 100) for d in (2, 16, 64)]

    def __init__(self, P):
        self.P = P
        self.counter = Counter()

    def setup(self, workdir):
        self.fitted, problems = fit_models(self.P, self.SPECS, workdir,
                                           min_rows=CLI_EVAL_FACTUALS + 5)
        return problems

    def round(self, rng, r, workdir):
        P = self.P
        calls = []
        for fitted in self.fitted:
            for _ in range(self.EXPLAINS):
                x, source = draw_factual(rng, fitted)
                target = other_cluster(rng, fitted, source)
                calls.append(explain_call(P, fitted, x, target, random_free(rng, fitted.ref.d),
                                          draw_epsilon(rng)))
            for _ in range(self.BESTS):
                x, source = draw_factual(rng, fitted)
                calls.append(explain_best_call(P, fitted, x, source, random_free(rng, fitted.ref.d),
                                               draw_epsilon(rng)))
        fitted = self.fitted[r % len(self.fitted)]
        calls.append(self._cli_explain(rng, fitted, workdir, r))
        calls.append(self._cli_eval(rng, fitted, workdir, r))
        order = rng.permutation(len(calls))
        return [calls[i] for i in order]

    def _cli_explain(self, rng, fitted, workdir, r):
        ref = fitted.ref
        while True:
            row = int(rng.integers(fitted.rows.shape[0]))
            if fitted.labels[row] is not None:
                break
        x = fitted.rows[row]
        target = other_cluster(rng, fitted, fitted.labels[row])
        free = random_free(rng, ref.d)
        eps = draw_epsilon(rng)
        out_path = os.path.join(workdir, f"explain-{r}.json")
        argv = ["explain", "--model", fitted.model_path, "--factual-row", str(row),
                fitted.data_path, "--target", str(target), "--epsilon", repr(eps),
                "-o", out_path]
        if free is not None:
            argv += ["--mask", _bits_text(free)]
        req = Request(x, target, _free_bits(ref.d, free), eps)

        def check(result):
            v = Verdict()
            if isinstance(result, Exception):
                v.add(f"cli explain raised {result!r}", False)
                return v
            code, stdout, _ = result
            summary, reason = _one_json_line(stdout, "explain")
            if reason is None and code != 0:
                reason = f"cli explain exited {code}"
            has_cf = False
            if reason is None:
                with open(out_path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
                has_cf = doc["counterfactual"] is not None
                if (summary["status"], summary["distance_sq"]) != (doc["status"],
                                                                   doc["distance_sq"]):
                    reason = "cli explain summary disagrees with its result file"
                elif checks._bits(doc["factual"]) != checks._bits(x):
                    reason = "cli explain read another factual row"
                else:
                    reason = checks.check_point(ref, req, Outcome(
                        doc["status"], doc["source"], doc["target"],
                        doc["counterfactual_internal"], doc["counterfactual"],
                        doc["distance_sq"], doc["tolerant_member"]))
            v.add(reason, has_cf)
            return v

        return Call("cli.main", lambda: run_cli(self.P, argv), check)

    def _cli_eval(self, rng, fitted, workdir, r):
        ref = fitted.ref
        sources = [k for k in fitted.usable if fitted.counts[k] >= CLI_EVAL_FACTUALS + 5]
        source = sources[int(rng.integers(len(sources)))]
        target = other_cluster(rng, fitted, source)
        free = random_free(rng, ref.d)
        bits = _free_bits(ref.d, free)
        eps = draw_epsilon(rng)
        prefix = os.path.join(workdir, f"eval-{r}")
        argv = ["eval", "--model", fitted.model_path, "--n", str(CLI_EVAL_FACTUALS),
                "--seed", str(int(rng.integers(2**31))), "--source", str(source),
                "--target", str(target), "--epsilon", repr(eps), fitted.data_path,
                "-o", prefix]
        if free is not None:
            argv += ["--mask", _bits_text(free)]

        def check(result):
            v = Verdict()
            if isinstance(result, Exception):
                v.add(f"cli eval raised {result!r}", False)
                return v
            code, stdout, _ = result
            summary, reason = _one_json_line(stdout, "eval")
            if reason is None and code != 0:
                reason = f"cli eval exited {code}"
            n_cf = 0
            if reason is None:
                reason, n_cf = self._check_eval_files(ref, summary, source, target, bits, eps)
            v.add(reason, n_cf > 0)
            v.cfs += max(n_cf - 1, 0) if reason is None else 0
            return v

        return Call("cli.main", lambda: run_cli(self.P, argv), check)

    @staticmethod
    def _check_eval_files(ref, summary, source, target, bits, eps):
        with open(summary["report"], "r", encoding="utf-8") as fh:
            report = json.load(fh)
        records = report["records"]
        if summary["n"] != len(records) or len(records) != CLI_EVAL_FACTUALS:
            return "cli eval report has the wrong number of records", 0
        if summary["success_tolerant"] != report["aggregates"]["success_tolerant"]:
            return "cli eval summary disagrees with its report", 0
        reason = checks.check_aggregates(records, report["aggregates"])
        if reason:
            return reason, 0
        for rec in records:
            reason = checks.check_point(ref, Request(rec["factual"], target, bits, eps,
                                                     source=source),
                                        Outcome(rec["status"], source, target, None,
                                                rec["counterfactual"], rec["distance_sq"],
                                                rec["tolerant_member"]))
            if reason:
                return f"cli eval record {rec['factual_id']}: {reason}", 0
        with open(summary["records"], "r", encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
        if len(table) != len(records) + 1:
            return "cli eval records CSV has the wrong number of rows", 0
        width = len(table[0])
        for rec, row in zip(records, table[1:]):
            cf = [float(c) for c in row[width - ref.d:]]
            if int(row[0]) != rec["factual_id"] or checks._bits(cf) != checks._bits(
                    rec["counterfactual"]):
                return "cli eval records CSV disagrees with the report", 0
        return None, sum(1 for rec in records if rec["counterfactual"] is not None)


WORKLOADS = {w.name: w for w in (ExplainStream, Campaign, CentroidCli)}
