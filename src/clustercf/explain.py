"""End-to-end counterfactual service: source detection, pair plans,
membership verdicts and best-of-targets selection."""

from __future__ import annotations

import math
import time
import warnings

import numpy as np

from .core import (
    DEFAULT_EPSILON,
    KMEANS,
    LOG_2PI,
    STATUS_OK,
    CfRequest,
    CfResult,
    ClusterCfError,
    ClusterModel,
    Mask,
    ValidationError,
    as_int,
    as_vector,
    score_matrix,
)
from .gaussian_cf import GaussianPairPlan, solve_gaussian_rows

# Assignment-score gap under which a point counts as a boundary tie. At
# eps = 0 the counterfactual sits exactly on the pair boundary, so strict
# argmax membership is decided by float noise; the tolerant verdict is the
# meaningful one there.
MEMBERSHIP_TIE_TOL = 1e-7


class SourceMismatchWarning(UserWarning):
    """The claimed source cluster is not where the factual actually sits."""


class AllTargetsFailedError(ClusterCfError):
    """No candidate target produced a solved counterfactual: `statuses`
    maps each candidate target to its status, and `source` is the cluster
    the candidates were solved from."""

    def __init__(self, statuses: dict, source: int):
        super().__init__(f"no target yielded a counterfactual: {statuses}")
        self.statuses = dict(statuses)
        self.source = source


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
    """Counterfactual for one (source, target) pair: the batch solve of
    `explain_many` on one row."""
    mask = request.validate_against(model)
    return _explain_rows(model, request.factual[None, :], [request.source], [request.target],
                         [mask], [request.epsilon])[0]


def _pair_plan(model: ClusterModel, source: int, target: int, mask: Mask) -> GaussianPairPlan:
    """The pair plan of clusters (source, target): two k-means centers are
    the identity-precision case of a Gaussian pair."""
    if model.kind == KMEANS:
        return GaussianPairPlan.for_centers(model.centers[source], model.centers[target], mask)
    return GaussianPairPlan(model.components[source], model.components[target], mask)


def explain_many(model: ClusterModel, requests) -> "list[CfResult]":
    """Counterfactuals for a batch of requests, in request order.

    Each factual arrives in original units; solving happens in the model's
    internal space and each result carries both representations. Frozen
    features keep the factual's bits in both spaces. Every request is
    validated (`CfRequest.validate_against`) before the first solve, and
    the requests' factuals and columns go to the one solver core that
    `explain`, `run_eval`, `sweep_epsilon` and `explain_best` share: each
    request's factual is mapped and its source detected, and the requests
    that share a (source, target, mask) share one `GaussianPairPlan` (a
    k-means pair is its identity-precision case) and one
    `solve_gaussian_rows` call. `elapsed` is the group's build and solve
    time divided by its size, without I/O or verdicts. The verdicts and
    the map back to original units run once over all results.
    """
    requests = list(requests)
    masks = [request.validate_against(model) for request in requests]
    if not requests:
        return []
    return _explain_rows(
        model, np.array([request.factual for request in requests]),
        [request.source for request in requests], [request.target for request in requests],
        masks, [request.epsilon for request in requests],
    )


def _explain_rows(model: ClusterModel, factuals: np.ndarray, sources, targets, masks,
                  epsilons) -> "list[CfResult]":
    """The solver core behind every public call, on checked columns.

    Row i asks for a counterfactual of its factual toward targets[i] from
    sources[i] (None: the detected cluster) under masks[i] at epsilons[i].
    `factuals` (original units) is 1 x d, one factual that every row
    shares and that is mapped and scored once, or n x d, one per row.
    Everything but a detected source equal to its target was checked by
    the caller; that raises ValidationError before any solve. A factual
    or eps far enough out overflows the map, the scores or the solve, and
    that row ends as `no_root_found`, without warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        n = len(targets)
        y = np.asarray(model.to_internal(factuals), dtype=np.float64)
        detected = score_matrix(model, y, per_row=True).argmax(axis=1).tolist()
        if len(y) < n:
            y, detected = y[[0] * n], detected * n

        groups, resolved = {}, []
        for i, (source, target, mask, found) in enumerate(zip(sources, targets, masks, detected)):
            if source is None:
                source = found
            if source == target:
                raise ValidationError("target", "source and target clusters must differ")
            if source != found:
                warnings.warn(
                    f"factual is assigned to cluster {found}, not claimed source {source}",
                    SourceMismatchWarning,
                    stacklevel=3,
                )
            resolved.append(source)
            groups.setdefault((source, target, mask.bits.tobytes()), []).append(i)

        outcomes, shares = [None] * n, [0.0] * n
        for (source, target, _), idx in groups.items():
            t0 = time.perf_counter_ns()
            plan = _pair_plan(model, source, target, masks[idx[0]])
            if len(idx) == n:
                group = solve_gaussian_rows(plan, y, epsilons)
            else:
                group = solve_gaussian_rows(plan, y[idx], [epsilons[i] for i in idx])
            share = (time.perf_counter_ns() - t0) * 1e-9 / len(idx)
            for i, outcome in zip(idx, group):
                outcomes[i], shares[i] = outcome, share

        # Verdicts and the map back to original units, once over the stacked
        # points; each result's internal point is its row of that stack, and
        # its frozen features take the factual's bits in original units.
        placed = [i for i, outcome in enumerate(outcomes) if outcome.counterfactual is not None]
        points = {}
        if placed:
            z = np.array([outcomes[i].counterfactual for i in placed])
            strict, tolerant = membership_verdict(model, z, [targets[i] for i in placed])
            z_orig = np.asarray(model.to_original(z), dtype=np.float64)
            if any(masks[i].fixed.size for i in placed):
                free = np.array([masks[i].bits for i in placed])
                z_orig = np.where(free, z_orig, factuals if len(factuals) < n else factuals[placed])
            points = dict(zip(placed, zip(z, strict, tolerant, z_orig)))

        # A result carries no NaN or infinity: an overflowed residual is None,
        # and an overflowed multiplier or g limit is left out of diagnostics.
        out = []
        for i, outcome in enumerate(outcomes):
            z_i, strict_i, tolerant_i, z_orig_i = points.get(i, (None, None, None, None))
            residual = outcome.residual if math.isfinite(outcome.residual) else None
            diagnostics = outcome.diagnostics
            if "lam" in diagnostics or "g_limit" in diagnostics:
                diagnostics = {key: value for key, value in diagnostics.items()
                               if key not in ("lam", "g_limit") or math.isfinite(value)}
            out.append(CfResult(
                status=outcome.status, counterfactual=z_i, distance_sq=outcome.distance_sq,
                lam=outcome.lam, residual=residual, elapsed=shares[i], source=resolved[i],
                target=targets[i], strict_member=strict_i, tolerant_member=tolerant_i,
                counterfactual_original=z_orig_i, diagnostics=diagnostics,
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
    results compete; distance ties go to the lower target id. The
    factual, source, mask and epsilon are checked once, as the first
    candidate's request, and every other candidate target once, all
    before the first solve; the candidates then go to the solver core of
    `explain_many` as one factual row each. Raises AllTargetsFailedError
    with the per-target statuses and the source when nothing solves.
    """
    # The factual is checked as its requests will be, before it is mapped.
    y_arr = as_vector(y, name="factual")
    model.check_point(y_arr, "factual")
    if source is None:
        # Detected as the solver core detects it, so a factual whose scores
        # overflow gets the core's source and ends as its no_root_found rows.
        with np.errstate(over="ignore", invalid="ignore"):
            scores = score_matrix(model, model.to_internal(y_arr), per_row=True)
        source = int(scores.argmax(axis=1)[0])
    if candidate_targets is None:
        candidate_targets = [t for t in range(model.n_clusters) if t != source]
    else:
        candidate_targets = [as_int(t, name="candidate_targets") for t in candidate_targets]
        if source in candidate_targets:
            raise ValidationError("candidate_targets", "must exclude the source cluster")
    if not candidate_targets:
        raise ValidationError("candidate_targets", "no candidate target clusters")
    targets = sorted(candidate_targets)
    first = CfRequest(factual=y_arr, target=targets[0], source=source, mask=mask,
                      epsilon=epsilon)
    mask = first.validate_against(model)
    for target in targets[1:]:
        model.check_cluster(target, "target")
    n = len(targets)
    results = _explain_rows(model, first.factual[None, :], [first.source] * n, targets,
                            [mask] * n, [first.epsilon] * n)
    best = None
    statuses = {}
    for target, result in zip(targets, results):
        statuses[target] = result.status
        if result.status == STATUS_OK and (best is None or result.distance_sq < best.distance_sq):
            best = result
    if best is None:
        raise AllTargetsFailedError(statuses, first.source)
    return best


def plausibility_check(model: ClusterModel, z, target: int, delta: float) -> bool:
    """True when the target-cluster density at z exceeds delta.

    This is a post-hoc filter only; it never modifies the counterfactual.
    The log density is read from z's `score_matrix` row: the target's
    score minus its log prior for a Gaussian model, and (score - d log 2pi)/2
    for a centroid model, scored with the unit-variance Gaussian its
    assignment rule corresponds to. The comparison runs in log space, so
    a density too small for a float (high dimensions, far points) still
    exceeds delta = 0.
    """
    delta = float(delta)
    if not math.isfinite(delta) or delta < 0.0:
        raise ValidationError("delta", "must be finite and >= 0")
    target = as_int(target, name="target")
    model.check_cluster(target, "target")
    z = as_vector(z, name="z")
    model.check_point(z, "z")
    score = float(score_matrix(model, z)[0, target])
    if model.kind == KMEANS:
        log_p = 0.5 * (score - model.d * LOG_2PI)
    else:
        log_p = score - math.log(model.components[target].prior)
    return delta == 0.0 or log_p > math.log(delta)
