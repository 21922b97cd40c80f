"""Independent output checks for the benchmark.

Everything here is written with numpy and the standard library only. The
reference for a model is parsed from its saved JSON document with `json`,
and every quantity (densities, the pair constraint, the plane, the
optimality certificate) is recomputed from explicit inverses, `slogdet`,
`eigvalsh` and `lstsq`, never from the package's own math.

Each check returns a short reason string when the output is wrong and
None when it passes.
"""

from __future__ import annotations

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)
# The package's documented contracts: Gaussian roots are accepted below
# 1e-8 * (1 + |c_alpha|); k-means points satisfy the plane to
# 1e-9 * (1 + |c|); tolerant membership allows a score gap of 1e-7.
G_TOL_FACTOR = 1e-8
PLANE_TOL_FACTOR = 1e-9
MEMBERSHIP_TIE_TOL = 1e-7
# Verdicts whose score gap lies this close to the tie tolerance are not
# judged: two correct evaluations may round to different sides.
VERDICT_GUARD = 1e-9
# Recomputed distances, mapped points and projections agree to this
# relative accuracy.
REL_TOL = 1e-9
# Stationarity z_F - y_F = (lam / 2) grad g holds to this relative accuracy.
STATIONARITY_TOL = 1e-6
# I - lam * D_FF is positive semidefinite up to this relative slack.
PSD_TOL = 1e-7


def _bits(a) -> bytes:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64)).tobytes()


def _close(a, b, rel=REL_TOL) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = 1.0 + max(float(np.max(np.abs(a), initial=0.0)), float(np.max(np.abs(b), initial=0.0)))
    return float(np.max(np.abs(a - b), initial=0.0)) <= rel * scale


class ModelRef:
    """Reference copy of a model, built from its JSON document."""

    def __init__(self, doc: dict):
        self.kind = doc["kind"]
        self.d = int(doc["d"])
        std = doc.get("standardization")
        if std is None:
            self.mu = np.zeros(self.d)
            self.sd = np.ones(self.d)
            self.standardized = False
        else:
            self.mu = np.asarray(std["mean"], dtype=np.float64)
            self.sd = np.asarray(std["std"], dtype=np.float64)
            self.standardized = True
        if self.kind == "kmeans":
            self.means = np.asarray(doc["centers"], dtype=np.float64)
            self.priors = None
            return
        comps = doc["components"]
        self.means = np.asarray([c["mean"] for c in comps], dtype=np.float64)
        self.priors = np.asarray([c["prior"] for c in comps], dtype=np.float64)
        self.cov_kind = comps[0]["covariance"]["kind"]
        covs = []
        for c in comps:
            cov = c["covariance"]
            if cov["kind"] == "full":
                covs.append(np.asarray(cov["matrix"], dtype=np.float64))
            elif cov["kind"] == "diagonal":
                covs.append(np.diag(np.asarray(cov["variances"], dtype=np.float64)))
            else:
                covs.append(float(cov["variance"]) * np.eye(self.d))
        self.inv = [np.linalg.inv(s) for s in covs]
        self.logdet = [float(np.linalg.slogdet(s)[1]) for s in covs]
        self.cov_eigs = [np.linalg.eigvalsh(s) for s in covs]

    @property
    def n_clusters(self) -> int:
        return self.means.shape[0]

    def to_internal(self, x) -> np.ndarray:
        if not self.standardized:
            return np.asarray(x, dtype=np.float64).copy()
        return (np.asarray(x, dtype=np.float64) - self.mu) / self.sd

    def to_original(self, z) -> np.ndarray:
        if not self.standardized:
            return np.asarray(z, dtype=np.float64).copy()
        return np.asarray(z, dtype=np.float64) * self.sd + self.mu

    def scores(self, z) -> np.ndarray:
        """Assignment scores in internal space, higher is better."""
        z = np.asarray(z, dtype=np.float64)
        if self.kind == "kmeans":
            return -np.asarray([float((z - m) @ (z - m)) for m in self.means])
        out = np.empty(self.n_clusters)
        for k in range(self.n_clusters):
            diff = z - self.means[k]
            quad = float(diff @ self.inv[k] @ diff)
            out[k] = math.log(self.priors[k]) - 0.5 * (quad + self.logdet[k] + self.d * LOG_2PI)
        return out

    def label(self, z):
        """Naive argmax cluster, or None when the top two scores nearly tie."""
        return self.labels(np.asarray(z, dtype=np.float64)[None, :])[0]

    def labels(self, rows) -> list:
        """`label` for every row of an N x d matrix in internal space."""
        rows = np.asarray(rows, dtype=np.float64)
        s = np.empty((rows.shape[0], self.n_clusters))
        for k in range(self.n_clusters):
            diff = rows - self.means[k]
            if self.kind == "kmeans":
                s[:, k] = -np.sum(diff * diff, axis=1)
            else:
                quad = np.sum((diff @ self.inv[k]) * diff, axis=1)
                s[:, k] = math.log(self.priors[k]) - 0.5 * (
                    quad + self.logdet[k] + self.d * LOG_2PI)
        top2 = -np.sort(-s, axis=1)[:, :2]
        best = np.argmax(s, axis=1)
        out = []
        for i in range(rows.shape[0]):
            tie = s.shape[1] > 1 and top2[i, 0] - top2[i, 1] <= 1e-9 * (1.0 + abs(top2[i, 0]))
            out.append(None if tie else int(best[i]))
        return out

    def tolerant_member(self, z, target: int):
        """(verdict, decidable): the verdict is undecidable when the score
        gap sits within VERDICT_GUARD of the tie tolerance."""
        s = self.scores(z)
        gap = float(np.max(s)) - float(s[target])
        if int(np.argmax(s)) == target:
            return True, True
        return gap <= MEMBERSHIP_TIE_TOL, abs(gap - MEMBERSHIP_TIE_TOL) > VERDICT_GUARD


# ---------------------------------------------------------------------------
# One request


class Request:
    """What the caller asked for, in original units."""

    def __init__(self, x, target: int, free, epsilon: float, source=None):
        self.x = np.asarray(x, dtype=np.float64)
        self.target = int(target)
        self.free = np.asarray(free, dtype=bool)
        self.epsilon = float(epsilon)
        self.source = source


class Outcome:
    """What the program returned, read off a result object or file."""

    def __init__(self, status, source, target, z_internal, z_original, distance_sq,
                 tolerant_member):
        self.status = status
        self.source = source
        self.target = target
        self.z_internal = None if z_internal is None else np.asarray(z_internal, dtype=np.float64)
        self.z_original = None if z_original is None else np.asarray(z_original, dtype=np.float64)
        self.distance_sq = distance_sq
        self.tolerant_member = tolerant_member

    @staticmethod
    def of(result) -> "Outcome":
        return Outcome(result.status, result.source, result.target, result.counterfactual,
                       result.counterfactual_original, result.distance_sq,
                       result.tolerant_member)


class GaussianPair:
    """The pair constraint g(z) = 0 over the free block, built from a
    ModelRef with explicit inverses."""

    def __init__(self, ref: ModelRef, y, source: int, target: int, free, epsilon: float):
        self.y = y
        self.F = np.flatnonzero(free)
        self.G = np.flatnonzero(~np.asarray(free, dtype=bool))
        self.ms, self.mt = ref.means[source], ref.means[target]
        self.ps, self.pt = ref.inv[source], ref.inv[target]
        self.c_alpha = (
            ref.logdet[target] - ref.logdet[source]
            - 2.0 * (math.log(ref.priors[target]) - math.log(ref.priors[source]))
            + 2.0 * math.log1p(epsilon)
        )
        self.tol = G_TOL_FACTOR * (1.0 + abs(self.c_alpha))
        F, G = self.F, self.G
        dmat = self.pt[np.ix_(F, F)] - self.ps[np.ix_(F, F)]
        self.D = (dmat + dmat.T) / 2.0
        b = self.pt[np.ix_(F, F)] @ self.mt[F] - self.ps[np.ix_(F, F)] @ self.ms[F]
        if G.size:
            b = b - (self.pt[np.ix_(F, G)] @ (y[G] - self.mt[G])
                     - self.ps[np.ix_(F, G)] @ (y[G] - self.ms[G]))
        self.b = b
        self.eigs = np.linalg.eigvalsh(self.D) if F.size else np.empty(0)

    def g(self, z) -> float:
        dt = z - self.mt
        ds = z - self.ms
        return float(dt @ self.pt @ dt - ds @ self.ps @ ds) + self.c_alpha

    def grad_free(self, z) -> np.ndarray:
        return 2.0 * (self.D @ z[self.F] - self.b)

    def certified_infeasible(self) -> bool:
        """True when D_FF is definite and g at its free-block extremum stays
        on the far side of zero, so no point with g = 0 exists."""
        if self.F.size == 0:
            return abs(self.g(self.y)) > self.tol
        scale = float(np.max(np.abs(self.eigs)))
        if scale == 0.0:
            return False
        definite_pos = float(self.eigs[0]) > 1e-10 * scale
        definite_neg = float(self.eigs[-1]) < -1e-10 * scale
        if not (definite_pos or definite_neg):
            return False
        z = self.y.copy()
        z[self.F] = np.linalg.solve(self.D, self.b)
        g_ext = self.g(z)
        return g_ext > self.tol if definite_pos else g_ext < -self.tol


def _check_frozen(req: Request, y, out: Outcome):
    fixed = ~req.free
    if _bits(out.z_original[fixed]) != _bits(req.x[fixed]):
        return "frozen feature moved (original units)"
    if out.z_internal is not None and _bits(out.z_internal[fixed]) != _bits(y[fixed]):
        return "frozen feature moved (internal units)"
    return None


def _internal_point(ref, out: Outcome):
    if out.z_internal is not None:
        return out.z_internal
    return ref.to_internal(out.z_original)


def check_source(ref: ModelRef, req: Request, out: Outcome):
    """The detected (or given) source matches the naive assignment."""
    if req.source is not None:
        return None if out.source == req.source else "source differs from the requested one"
    naive = ref.label(ref.to_internal(req.x))
    if naive is not None and naive != out.source:
        return f"source detection gave {out.source}, naive argmax {naive}"
    return None


def _check_common_ok(ref: ModelRef, req: Request, y, out: Outcome):
    if out.z_original is None:
        return "ok result without a counterfactual"
    reason = _check_frozen(req, y, out)
    if reason:
        return reason
    z = _internal_point(ref, out)
    if out.z_internal is not None and not _close(ref.to_original(z)[req.free],
                                                 out.z_original[req.free]):
        return "original-unit point does not map to the internal point"
    dz = z[req.free] - y[req.free]
    if out.distance_sq is None or not _close(out.distance_sq, float(dz @ dz)):
        return "reported distance does not match the point"
    member, decidable = ref.tolerant_member(z, req.target)
    if decidable and out.tolerant_member is not None and bool(out.tolerant_member) != member:
        return f"tolerant membership reported {out.tolerant_member}, naive {member}"
    return None


def check_gaussian(ref: ModelRef, req: Request, out: Outcome):
    """Check one Gaussian counterfactual against the pair constraint, the
    mask and the global-optimality certificate (More 1993)."""
    reason = check_source(ref, req, out)
    if reason:
        return reason
    y = ref.to_internal(req.x)
    pair = GaussianPair(ref, y, out.source, req.target, req.free, req.epsilon)
    infeasible = pair.certified_infeasible()
    if out.status == "no_feasible_solution":
        return None if infeasible else "no_feasible_solution on a problem not certified infeasible"
    if infeasible:
        return f"{out.status} on a certified-infeasible problem"
    if out.status == "degenerate_identity":
        return None if abs(pair.g(y)) <= pair.tol else "degenerate_identity with g(y) != 0"
    if out.status != "ok":
        return f"{out.status} on a feasible problem"
    reason = _check_common_ok(ref, req, y, out)
    if reason:
        return reason
    z = _internal_point(ref, out)
    residual = pair.g(z)
    if abs(residual) > pair.tol:
        return f"residual {residual:.3e} exceeds {pair.tol:.3e}"
    dz = z[pair.F] - y[pair.F]
    grad = pair.grad_free(z)
    gg = float(grad @ grad)
    if gg == 0.0:
        return "constraint gradient vanishes at the counterfactual"
    lam = 2.0 * float(dz @ grad) / gg
    if float(np.linalg.norm(dz - 0.5 * lam * grad)) > STATIONARITY_TOL * (
        float(np.linalg.norm(dz)) + 1e-12
    ):
        return "counterfactual is not a stationary point"
    hess_min = float(np.min(1.0 - lam * pair.eigs))
    if hess_min < -PSD_TOL * (1.0 + abs(lam) * float(np.max(np.abs(pair.eigs)))):
        return f"not the global minimiser: min eig(I - lam D_FF) = {hess_min:.3e}"
    return None


def kmeans_plane(ref: ModelRef, source: int, target: int, epsilon: float):
    ms, mt = ref.means[source], ref.means[target]
    v = ms - mt
    c = (float(ms @ ms) - float(mt @ mt) - epsilon * float(v @ v)) / 2.0
    return v, c


def kmeans_projection(ref: ModelRef, y, source: int, target: int, free, epsilon: float):
    """Least-squares projection of y onto the pair plane within the free
    block; None when the plane cannot be reached."""
    v, c = kmeans_plane(ref, source, target, epsilon)
    free = np.asarray(free, dtype=bool)
    vf = v[free]
    rhs = c - float(y[~free] @ v[~free]) - float(vf @ y[free])
    if not np.any(vf):
        return None
    delta, *_ = np.linalg.lstsq(vf[None, :], np.asarray([rhs]), rcond=None)
    z = y.copy()
    z[free] = y[free] + delta
    return z


def check_kmeans(ref: ModelRef, req: Request, out: Outcome):
    """Check one centroid counterfactual: on the pair plane, equal to the
    least-squares projection, frozen features bit-exact."""
    reason = check_source(ref, req, out)
    if reason:
        return reason
    y = ref.to_internal(req.x)
    proj = kmeans_projection(ref, y, out.source, req.target, req.free, req.epsilon)
    if proj is None:
        return None if out.status in ("no_feasible_solution", "degenerate_identity") else (
            f"{out.status} where the plane is unreachable"
        )
    if out.status != "ok":
        return f"{out.status} where a projection exists"
    reason = _check_common_ok(ref, req, y, out)
    if reason:
        return reason
    z = _internal_point(ref, out)
    v, c = kmeans_plane(ref, out.source, req.target, req.epsilon)
    if abs(float(z @ v) - c) > PLANE_TOL_FACTOR * (1.0 + abs(c)):
        return "counterfactual is off the pair plane"
    if not _close(z, proj):
        return "counterfactual differs from the least-squares projection"
    return None


def check_point(ref: ModelRef, req: Request, out: Outcome):
    if ref.kind == "kmeans":
        return check_kmeans(ref, req, out)
    return check_gaussian(ref, req, out)


# ---------------------------------------------------------------------------
# Composite calls


def check_best(best: Outcome, alternatives) -> "str | None":
    """explain_best: the chosen result is no farther than any other
    target's checked result. `alternatives` holds (distance_sq or None)
    for every candidate target that passed its own check."""
    for dist in alternatives:
        if dist is not None and best.distance_sq > dist * (1.0 + REL_TOL) + 1e-12:
            return f"explain_best kept {best.distance_sq!r}, another target reached {dist!r}"
    return None


def check_sweep(distances) -> "str | None":
    """Distances of successive sweep points do not decrease as eps grows."""
    prev = None
    for dist in distances:
        if dist is None:
            continue
        if prev is not None and dist < prev * (1.0 - REL_TOL) - 1e-12:
            return f"sweep distance fell from {prev!r} to {dist!r}"
        prev = dist
    return None


def _percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default definition)."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def check_aggregates(records, aggregates: dict) -> "str | None":
    """run_eval: recompute the aggregates from the records (dicts with
    strict_member, tolerant_member, distance_sq, elapsed)."""
    n = len(records)
    if aggregates.get("n") != n:
        return "aggregate n does not match the records"
    strict = sum(1 for r in records if r["strict_member"]) / n
    tolerant = sum(1 for r in records if r["tolerant_member"]) / n
    if not (_close(aggregates["success_strict"], strict)
            and _close(aggregates["success_tolerant"], tolerant)):
        return "success rates do not match the records"
    dists = [r["distance_sq"] for r in records if r["tolerant_member"]]
    dist = aggregates.get("distance")
    if not dists:
        if dist is not None:
            return "distance aggregate present without tolerant members"
    else:
        want = {
            "min": min(dists), "q1": _percentile(dists, 25), "median": _percentile(dists, 50),
            "q3": _percentile(dists, 75), "max": max(dists), "mean": math.fsum(dists) / len(dists),
        }
        if dist is None or any(not _close(dist[k], want[k]) for k in want):
            return "distance aggregates do not match the records"
    elapsed = [r["elapsed"] for r in records]
    agg_el = aggregates["elapsed"]
    if not (_close(agg_el["mean"], math.fsum(elapsed) / n)
            and _close(agg_el["median"], _percentile(elapsed, 50))):
        return "elapsed aggregates do not match the records"
    return None


def check_history(history) -> "str | None":
    """EM log-likelihood history is non-decreasing (to rounding)."""
    for a, b in zip(history, history[1:]):
        if b < a - 1e-9 * (1.0 + abs(a)):
            return f"log-likelihood fell from {a!r} to {b!r}"
    return None
