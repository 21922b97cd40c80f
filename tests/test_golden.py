"""Golden parity: seeded `explain` and `explain_best` requests against a
recorded fixture.

`golden_cases` draws k-means and Gaussian models (full, diagonal,
spherical and mixed covariances; d 1-16; M 2-5; with and without
standardization) and requests on them (random masks, several epsilons,
claimed and detected sources, and some invalid requests). The fixture
`data/golden_explain.json` holds the outcome of each. Statuses, cluster
ids, exception types and membership verdicts must match exactly; floats
within 1e-9 relative. The strict verdict is skipped at eps = 0, where the
counterfactual sits on the pair boundary and rounding decides it.

Regenerate the fixture, only for an intended change of results, with

    PYTHONPATH=src python tests/test_golden.py

which first prints, per field and model kind, how many entries differ
from the fixture it replaces, so that the change can be reviewed: first
those that this test would fail, then the floats that moved within
1e-9, such as last-bit changes on other hardware.
"""

import collections
import json
import os
import warnings

import numpy as np

import clustercf as cf

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_explain.json")
SEED = 20251018
N_MODELS = 50
REQUESTS_PER_MODEL = 10
EPSILONS = (0.0, 1e-5, 0.3, 1.0, 4.0)
DIMENSIONS = (1, 2, 2, 3, 3, 4, 5, 6, 8, 16)
REL_TOL = 1e-9
# A result is stored as a list in this order, an exception as {"error": type}.
FIELDS = ("status", "source", "target", "strict", "tolerant", "distance_sq", "lam", "cf")


def _covariance(rng, d, kind):
    if kind == cf.FULL:
        a = rng.normal(size=(d, d))
        return cf.CovarianceSpec.full(a @ a.T / d + 0.3 * np.eye(d))
    if kind == cf.DIAGONAL:
        return cf.CovarianceSpec.diagonal(rng.uniform(0.3, 2.5, size=d))
    return cf.CovarianceSpec.spherical(float(rng.uniform(0.3, 2.5)))


def _model(rng):
    d = int(rng.choice(DIMENSIONS))
    m = int(rng.integers(2, 6))
    means = rng.normal(scale=2.0, size=(m, d))
    std = None
    if rng.random() < 0.5:
        std = cf.Standardization(mean=rng.normal(size=d), std=rng.uniform(0.5, 3.0, size=d))
    family = rng.choice(["kmeans", cf.FULL, cf.DIAGONAL, cf.SPHERICAL, "mixed"])
    if family == "kmeans":
        return cf.ClusterModel(kind=cf.KMEANS, centers=means, standardization=std)
    priors = 0.5 * rng.dirichlet(np.ones(m)) + 0.5 / m
    priors = priors / priors.sum()
    kinds = [family] * m if family != "mixed" else rng.choice(cf.core.COVARIANCE_KINDS, size=m)
    components = tuple(
        cf.GaussianComponent(mean=means[k], covariance=_covariance(rng, d, kinds[k]), prior=priors[k])
        for k in range(m)
    )
    return cf.ClusterModel(kind=cf.GAUSSIAN, components=components, standardization=std)


def _mask(rng, d):
    u = rng.random()
    if u < 0.3:
        return None
    if u < 0.33:
        return cf.Mask(np.zeros(d, dtype=bool))
    if u < 0.36:
        return cf.Mask(np.ones(d + 1, dtype=bool))  # wrong length: rejected
    return cf.Mask(rng.random(d) < 0.6)


def _factual(rng, model):
    home = int(rng.integers(model.n_clusters))
    internal = model.means()[home] + rng.normal(scale=0.8, size=model.d)
    return np.asarray(model.to_original(internal), dtype=np.float64), home


def golden_cases():
    """Yield (api, model kind, eps, call) for every seeded request; `call()`
    runs it."""
    rng = np.random.default_rng(SEED)
    for _ in range(N_MODELS):
        model = _model(rng)
        n = model.n_clusters
        for _ in range(REQUESTS_PER_MODEL):
            y, home = _factual(rng, model)
            target = int(rng.choice([k for k in range(n) if k != home]))
            u = rng.random()
            if u < 0.04:
                target = int(rng.choice([-1, n]))  # out of range: rejected
            source = home if rng.random() < 0.5 else None
            if u > 0.96:
                source = target  # same source and target: rejected
            request = cf.CfRequest(
                factual=y, target=target, source=source, mask=_mask(rng, model.d),
                epsilon=float(rng.choice(EPSILONS)),
            )
            yield "explain", model.kind, request.epsilon, (
                lambda m=model, r=request: cf.explain(m, r)
            )
        for _ in range(int(rng.integers(1, 3))):
            y, home = _factual(rng, model)
            mask = _mask(rng, model.d)
            eps = float(rng.choice(EPSILONS))
            source = home if rng.random() < 0.5 else None
            yield "explain_best", model.kind, eps, (
                lambda m=model, y=y, k=mask, e=eps, s=source: cf.explain_best(
                    m, y, mask=k, epsilon=e, source=s
                )
            )


def _float(x):
    return None if x is None else float(x)


def record(call) -> dict:
    """The outcome of one call: result fields or the exception's type."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cf.SourceMismatchWarning)
        try:
            res = call()
        except cf.ClusterCfError as exc:
            return {"error": type(exc).__name__}
    cf_orig = res.counterfactual_original
    values = (
        res.status, res.source, res.target, res.strict_member, res.tolerant_member,
        _float(res.distance_sq), _float(res.lam), None if cf_orig is None else cf_orig.tolist(),
    )
    return dict(zip(FIELDS, values))


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    return float(np.linalg.norm(a - b)) <= REL_TOL * max(np.linalg.norm(a), np.linalg.norm(b))


def _same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def load_expected():
    with open(FIXTURE, encoding="utf-8") as fh:
        stored = json.load(fh)["cases"]
    return [c if isinstance(c, dict) else dict(zip(FIELDS, c)) for c in stored]


def mismatched_fields(got: dict, want: dict, eps: float) -> list:
    """The fields of one outcome that differ from the recorded one."""
    exact = ["error", "status", "source", "target", "tolerant"]
    if eps != 0.0:
        exact.append("strict")
    bad = [key for key in exact if got.get(key) != want.get(key)]
    close = ("distance_sq", "lam", "cf")
    return bad + [key for key in close if not _close(got.get(key), want.get(key))]


def last_bit_fields(got: dict, want: dict) -> list:
    """The float fields of one outcome within REL_TOL of the recorded ones
    but with other bits."""
    return [key for key in ("distance_sq", "lam", "cf")
            if _close(got.get(key), want.get(key)) and not _same_bits(got.get(key), want.get(key))]


def test_golden_parity():
    expected = load_expected()
    cases = list(golden_cases())
    assert len(cases) == len(expected)
    kinds = {"explain": 0, "explain_best": 0}
    mismatches = []
    for i, ((api, _, eps, call), want) in enumerate(zip(cases, expected)):
        kinds[api] += 1
        got = record(call)
        bad = mismatched_fields(got, want, eps)
        if bad:
            mismatches.append((i, api, bad, got, want))
    assert not mismatches, mismatches[:5]
    assert kinds["explain"] >= 500 and kinds["explain_best"] >= 50
    statuses = {w.get("status", w.get("error")) for w in expected}
    assert {cf.STATUS_OK, cf.STATUS_NO_FEASIBLE_SOLUTION, "ValidationError"} <= statuses


if __name__ == "__main__":
    expected = load_expected() if os.path.exists(FIXTURE) else []
    cases = list(golden_cases())
    out = []
    changed, last_bits = collections.Counter(), collections.Counter()
    for i, (_, model_kind, eps, call) in enumerate(cases):
        got = record(call)
        out.append(got if "error" in got else [got[key] for key in FIELDS])
        if len(expected) == len(cases):
            changed.update((key, model_kind) for key in mismatched_fields(got, expected[i], eps))
            last_bits.update((key, model_kind) for key in last_bit_fields(got, expected[i]))
    if len(expected) != len(cases):
        print(f"the old fixture has {len(expected)} cases, not {len(cases)}: no field-wise diff")
    for counts, what in ((changed, f"changed entries (an exact field, or floats beyond {REL_TOL:g})"),
                         (last_bits, f"entries with other bits within {REL_TOL:g}")):
        print(f"{sum(counts.values())} {what} against the old fixture")
        for (key, model_kind), count in sorted(counts.items()):
            print(f"  {key:12s} {model_kind:9s} {count}")
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "cases": out}, fh, separators=(",", ":"), allow_nan=False)
        fh.write("\n")
    print(f"wrote {len(out)} cases to {FIXTURE} ({os.path.getsize(FIXTURE)} bytes)")
