"""End-to-end counterfactual service: source detection, solver dispatch,
membership verdicts and best-of-targets selection."""

from __future__ import annotations

import math
import time
import warnings

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
from .gaussian_cf import GaussianPairPlan, solve_gaussian_rows
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


def membership_verdict(model: ClusterModel, rows: np.ndarray, targets):
    """(strict, tolerant): lists of target-membership verdicts for the rows
    of `rows` (N x d, internal space), row i judged against `targets[i]`,
    from one `score_matrix` call that scores each row on its own, so a
    row's verdicts do not depend on the batch. Strict membership is the
    argmax (ties to the lowest id); tolerant membership also admits a
    target within MEMBERSHIP_TIE_TOL of the best score."""
    strict, tolerant = [], []
    for scores, target in zip(score_matrix(model, rows, per_row=True).tolist(), targets):
        best = max(scores)
        member = scores.index(best) == target
        strict.append(member)
        tolerant.append(member or best - scores[target] <= MEMBERSHIP_TIE_TOL)
    return strict, tolerant


def explain(model: ClusterModel, request: CfRequest) -> CfResult:
    """Counterfactual for one (source, target) pair: `explain_many` of the
    one request."""
    return explain_many(model, [request])[0]


def explain_many(model: ClusterModel, requests) -> "list[CfResult]":
    """Counterfactuals for a batch of requests, in request order.

    Each factual arrives in original units; solving happens in the model's
    internal space and each result carries both representations. Frozen
    features keep the factual's bits in both spaces. This is the one entry
    point to the solvers and the one place that times them: every request
    is validated before the first solve, the factuals are mapped and their
    sources detected together, and the requests that share a (source,
    target, mask) share one constraint build. A Gaussian group builds one
    `GaussianPairPlan` and solves all its rows against it; a k-means group
    projects each row in closed form. `elapsed` is the group's build and
    solve time divided by its size, without I/O or verdicts. The verdicts
    and the map back to original units run once over all results.
    """
    requests = list(requests)
    masks = [request.validate_against(model) for request in requests]
    if not requests:
        return []
    y_orig = np.array([request.factual for request in requests])
    y = np.asarray(model.to_internal(y_orig), dtype=np.float64)
    detected = score_matrix(model, y, per_row=True).argmax(axis=1).tolist()

    groups = {}
    for i, (request, mask, found) in enumerate(zip(requests, masks, detected)):
        source = found if request.source is None else request.source
        if source == request.target:
            raise ValidationError("target", "source and target clusters must differ")
        if source != found:
            warnings.warn(
                f"factual is assigned to cluster {found}, not claimed source {source}",
                SourceMismatchWarning,
                stacklevel=2,
            )
        groups.setdefault((source, request.target, mask.bits.tobytes()), []).append(i)

    solved = [None] * len(requests)  # (result, source, elapsed)
    for (source, target, _), idx in groups.items():
        mask = masks[idx[0]]
        epsilons = [requests[i].epsilon for i in idx]
        t0 = time.perf_counter_ns()
        if model.kind == KMEANS:
            m_s, m_t = model.centers[source], model.centers[target]
            group = [
                solve_kmeans_cf(y[i], build_constraint(m_s, m_t, eps, mask), mask)
                for i, eps in zip(idx, epsilons)
            ]
        else:
            plan = GaussianPairPlan(model.components[source], model.components[target], mask)
            group = solve_gaussian_rows(plan, y if len(idx) == len(y) else y[idx], epsilons)
        share = (time.perf_counter_ns() - t0) * 1e-9 / len(idx)
        for i, result in zip(idx, group):
            solved[i] = (result, source, share)

    # Verdicts and the map back to original units, once for every result
    # with a point.
    placed = [i for i, (result, _, _) in enumerate(solved) if result.counterfactual is not None]
    verdicts = {}
    if placed:
        z = np.array([solved[i][0].counterfactual for i in placed])
        strict, tolerant = membership_verdict(model, z, [requests[i].target for i in placed])
        z_orig = np.asarray(model.to_original(z), dtype=np.float64)
        for j, i in enumerate(placed):
            fixed = masks[i].fixed
            if fixed.size:
                z_orig[j, fixed] = y_orig[i, fixed]
            verdicts[i] = (strict[j], tolerant[j], z_orig[j])
    out = []
    for i, (result, source, share) in enumerate(solved):
        strict_i, tolerant_i, z_orig_i = verdicts.get(i, (None, None, None))
        out.append(CfResult(
            status=result.status,
            counterfactual=result.counterfactual,
            distance_sq=result.distance_sq,
            lam=result.lam,
            residual=result.residual,
            elapsed=share,
            source=source,
            target=requests[i].target,
            strict_member=strict_i,
            tolerant_member=tolerant_i,
            counterfactual_original=z_orig_i,
            diagnostics=result.diagnostics,
        ))
    return out


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
    candidate target is checked before the first solve, and all
    candidates are solved by one `explain_many` call, which validates
    every request before it solves. Raises AllTargetsFailedError with the
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

    targets = sorted(candidate_targets)
    requests = [
        CfRequest(factual=y_arr, target=target, source=resolved_source, mask=mask, epsilon=epsilon)
        for target in targets
    ]
    best = None
    statuses = {}
    for target, result in zip(targets, explain_many(model, requests)):
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
