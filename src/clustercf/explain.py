"""End-to-end counterfactual service: source detection, solver dispatch,
membership verdicts and best-of-targets selection."""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import replace

import numpy as np

from .core import (
    KMEANS,
    LOG_2PI,
    STATUS_OK,
    CfRequest,
    CfResult,
    ClusterCfError,
    ClusterModel,
    DimensionMismatchError,
    Mask,
    ValidationError,
    assign_cluster,
    log_density,
    score_matrix,
)
from .gaussian_cf import build_pair_problem, solve_gaussian_cf
from .kmeans_cf import build_constraint, solve_kmeans_cf

DEFAULT_EPSILON = 1e-5
# Assignment-score gap under which a point counts as a boundary tie. At
# eps = 0 the counterfactual sits exactly on the pair boundary, so strict
# argmax membership is decided by float noise; the tolerant verdict is the
# meaningful one there.
MEMBERSHIP_TIE_TOL = 1e-7


class SourceMismatchWarning(UserWarning):
    """The claimed source cluster is not where the factual actually sits."""


class AllTargetsFailedError(ClusterCfError):
    """No candidate target produced a solved counterfactual."""

    def __init__(self, statuses: dict):
        super().__init__(f"no target yielded a counterfactual: {statuses}")
        self.statuses = dict(statuses)


def membership_verdict(model: ClusterModel, z: np.ndarray, target: int):
    """(strict, tolerant) target-membership of z in internal space."""
    scores = score_matrix(model, z[None, :])[0]
    strict = int(np.argmax(scores)) == target
    tolerant = strict or (float(np.max(scores)) - float(scores[target])) <= MEMBERSHIP_TIE_TOL
    return strict, tolerant


def explain(model: ClusterModel, request: CfRequest) -> CfResult:
    """Counterfactual for one (source, target) pair.

    The factual arrives in original units; solving happens in the model's
    internal space and the result carries both representations. Frozen
    features keep the factual's bits in both spaces. `elapsed` covers
    constraint construction and the solve, not I/O or verdicts. This is
    the one entry point to the solvers: the request is validated here,
    once, and the pair builders and solvers behind it trust their inputs.
    """
    mask = request.validate_against(model)
    y_orig = request.factual
    y = np.asarray(model.to_internal(y_orig), dtype=np.float64)

    detected = assign_cluster(model, y)
    source = request.source if request.source is not None else detected
    if source == request.target:
        raise ValidationError("target", "source and target clusters must differ")
    if request.source is not None and detected != request.source:
        warnings.warn(
            f"factual is assigned to cluster {detected}, not claimed source {request.source}",
            SourceMismatchWarning,
            stacklevel=2,
        )

    t0 = time.perf_counter_ns()
    if model.kind == KMEANS:
        constraint = build_constraint(
            model.centers[source], model.centers[request.target], request.epsilon, mask
        )
        result = solve_kmeans_cf(y, constraint, mask)
    else:
        problem = build_pair_problem(
            model.components[source],
            model.components[request.target],
            y,
            mask,
            request.epsilon,
        )
        result = solve_gaussian_cf(problem)
    elapsed = (time.perf_counter_ns() - t0) * 1e-9

    strict = tolerant = None
    z_orig = None
    if result.counterfactual is not None:
        strict, tolerant = membership_verdict(model, result.counterfactual, request.target)
        z_orig = np.asarray(model.to_original(result.counterfactual), dtype=np.float64)
        z_orig[mask.fixed] = y_orig[mask.fixed]
    return replace(
        result,
        elapsed=elapsed,
        source=source,
        target=request.target,
        strict_member=strict,
        tolerant_member=tolerant,
        counterfactual_original=z_orig,
    )


def explain_best(
    model: ClusterModel,
    y,
    mask: "Mask | None" = None,
    epsilon: float = DEFAULT_EPSILON,
    candidate_targets=None,
    source: "int | None" = None,
) -> CfResult:
    """Try every candidate target and keep the closest counterfactual.

    Candidates default to all clusters except the source. Only `ok`
    results compete; distance ties go to the lower target id. Every
    candidate target is checked before the first solve; the fields the
    candidates share are validated by the first `explain` call, which
    rejects them before it solves. Raises AllTargetsFailedError with the
    per-target statuses when nothing solves.
    """
    y_arr = np.asarray(y, dtype=np.float64)
    resolved_source = (
        source if source is not None else assign_cluster(model, model.to_internal(y_arr))
    )
    if candidate_targets is None:
        candidate_targets = [t for t in range(model.n_clusters) if t != resolved_source]
    else:
        candidate_targets = [int(t) for t in candidate_targets]
        if resolved_source in candidate_targets:
            raise ValidationError("candidate_targets", "must exclude the source cluster")
    if not candidate_targets:
        raise ValidationError("candidate_targets", "no candidate target clusters")

    for target in candidate_targets:
        model.check_cluster(target, "target")
    if mask is None:
        mask = Mask.all_free(model.d)

    best = None
    statuses = {}
    for target in sorted(candidate_targets):
        request = CfRequest(
            factual=y_arr, target=target, source=resolved_source, mask=mask, epsilon=epsilon
        )
        result = explain(model, request)
        statuses[target] = result.status
        if result.status == STATUS_OK and (best is None or result.distance_sq < best.distance_sq):
            best = result
    if best is None:
        raise AllTargetsFailedError(statuses)
    return best


def plausibility_check(model: ClusterModel, z, target: int, delta: float) -> bool:
    """True when the target-cluster density at z exceeds delta.

    This is a post-hoc filter only; it never modifies the counterfactual.
    Centroid models are scored with the unit-variance Gaussian their
    assignment rule corresponds to. The comparison runs in log space, so
    a density too small for a float (high dimensions, far points) still
    exceeds delta = 0.
    """
    delta = float(delta)
    if not math.isfinite(delta) or delta < 0.0:
        raise ValidationError("delta", "must be finite and >= 0")
    model.check_cluster(target, "target")
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (model.d,):
        raise DimensionMismatchError(f"z has shape {z.shape}, model expects ({model.d},)")
    if model.kind == KMEANS:
        diff = z - model.centers[target]
        log_p = -0.5 * (float(diff @ diff) + model.d * LOG_2PI)
    else:
        log_p = log_density(model.components[target], z)
    return delta == 0.0 or log_p > math.log(delta)
