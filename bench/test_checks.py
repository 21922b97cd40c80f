"""Self-tests for the benchmark's independent checks: each must catch a
perturbed counterfactual, a moved frozen feature and a wrong status."""

import numpy as np
import pytest

import checks
from checks import ModelRef, Outcome, Request
from workloads import FAULT_A, FAULT_B_MODEL, _fixed_doc

clustercf = pytest.importorskip("clustercf")
from clustercf import model_io  # noqa: E402

GAUSS_DOC = {
    "schema_version": 1, "kind": "gaussian", "d": 3, "n_clusters": 2, "provenance": {},
    "standardization": {"mean": [1.0, -2.0, 0.5], "std": [2.0, 0.5, 3.0]},
    "components": [
        {"mean": [0.0, 0.0, 0.0], "prior": 0.55,
         "covariance": {"kind": "full", "matrix": [[1.0, 0.3, 0.0], [0.3, 0.8, 0.1],
                                                   [0.0, 0.1, 1.2]]}},
        {"mean": [2.5, 1.0, -1.0], "prior": 0.45,
         "covariance": {"kind": "full", "matrix": [[0.6, -0.1, 0.0], [-0.1, 1.4, 0.2],
                                                   [0.0, 0.2, 0.9]]}},
    ],
}
KMEANS_DOC = {
    "schema_version": 1, "kind": "kmeans", "d": 3, "n_clusters": 3, "provenance": {},
    "standardization": {"mean": [1.0, -2.0, 0.5], "std": [2.0, 0.5, 3.0]},
    "centers": [[0.0, 0.0, 0.0], [2.0, 1.0, -1.0], [-2.0, 2.0, 1.0]],
}
X = np.asarray([1.2, -1.9, 0.8])  # original units, near the first cluster
FREE = np.asarray([True, False, True])


def _solve(doc, target, free, eps):
    model, _ = model_io.model_from_dict(doc)
    mask = None if free is None else clustercf.Mask(free)
    result = clustercf.explain(model, clustercf.CfRequest(factual=X, target=target, mask=mask,
                                                          epsilon=eps))
    bits = np.ones(doc["d"], dtype=bool) if free is None else free
    return ModelRef(doc), Request(X, target, bits, eps), result


def _replace(result, **changes):
    fields = dict(status=result.status, source=result.source, target=result.target,
                  z_internal=result.counterfactual, z_original=result.counterfactual_original,
                  distance_sq=result.distance_sq, tolerant_member=result.tolerant_member)
    fields.update(changes)
    return Outcome(**fields)


@pytest.mark.parametrize("doc,target", [(GAUSS_DOC, 1), (KMEANS_DOC, 1), (KMEANS_DOC, 2)])
@pytest.mark.parametrize("free", [None, FREE])
def test_correct_result_passes_and_faults_are_caught(doc, target, free):
    ref, req, result = _solve(doc, target, free, 0.1)
    assert result.status == "ok"
    assert checks.check_point(ref, req, Outcome.of(result)) is None

    moved = result.counterfactual.copy()
    moved[0] += 1e-4
    assert checks.check_point(ref, req, _replace(
        result, z_internal=moved, z_original=ref.to_original(moved))) is not None

    if free is not None:
        frozen = result.counterfactual_original.copy()
        frozen[1] = np.nextafter(frozen[1], np.inf)
        assert "frozen" in checks.check_point(ref, req, _replace(result, z_original=frozen))

    for status in ("no_feasible_solution", "no_root_found"):
        assert checks.check_point(ref, req, _replace(
            result, status=status, z_internal=None, z_original=None, distance_sq=None)) is not None
    assert checks.check_point(ref, req, _replace(result, distance_sq=result.distance_sq * 1.01))
    assert checks.check_point(ref, req, _replace(result, source=1 - result.source + 1))


def test_gaussian_stationary_point_that_is_not_global_is_caught():
    ref, req, result = _solve(GAUSS_DOC, 1, None, 0.1)
    # Mirror the step through the factual: a point of the level set on the
    # far side is farther, and the certificate (or stationarity) rejects it.
    y = ref.to_internal(X)
    far = y - 3.0 * (result.counterfactual - y)
    assert checks.check_point(ref, req, _replace(
        result, z_internal=far, z_original=ref.to_original(far),
        distance_sq=float((far - y) @ (far - y)))) is not None


def test_named_faults_are_judged_by_the_certificate():
    for spec in FAULT_A:
        ref = ModelRef(_fixed_doc(spec))
        req = Request(spec["x"], 1, spec["free"], spec["eps"])
        none = dict(z_internal=None, z_original=None, distance_sq=None, tolerant_member=None)
        assert checks.check_point(ref, req, Outcome("no_feasible_solution", 0, 1, **none)) is None
        assert checks.check_point(ref, req, Outcome("no_root_found", 0, 1, **none)) is not None
    ref = ModelRef(_fixed_doc(FAULT_B_MODEL))
    req = Request([0.0, 0.0], 1, [True, True], 0.5)
    out = Outcome("no_root_found", 0, 1, None, None, None, None)
    assert "feasible" in checks.check_point(ref, req, out)


def test_composite_checks():
    assert checks.check_sweep([1.0, None, 1.0, 2.0]) is None
    assert checks.check_sweep([1.0, 2.0, 1.5]) is not None
    assert checks.check_history([-10.0, -5.0, -5.0]) is None
    assert checks.check_history([-10.0, -5.0, -6.0]) is not None
    best = Outcome("ok", 0, 1, None, [0.0], 2.0, True)
    assert checks.check_best(best, [2.0, 3.0, None]) is None
    assert checks.check_best(best, [1.0]) is not None
    records = [{"strict_member": True, "tolerant_member": True, "distance_sq": d, "elapsed": 1e-3}
               for d in (1.0, 2.0, 4.0)]
    agg = {"n": 3, "success_strict": 1.0, "success_tolerant": 1.0,
           "distance": {"min": 1.0, "q1": 1.5, "median": 2.0, "q3": 3.0, "max": 4.0,
                        "mean": 7.0 / 3.0},
           "elapsed": {"mean": 1e-3, "median": 1e-3}}
    assert checks.check_aggregates(records, agg) is None
    agg["distance"]["q3"] = 3.5
    assert checks.check_aggregates(records, agg) is not None
