"""Model fitting: Lloyd's k-means and EM for Gaussian mixtures.

`fit` runs both algorithms: each restart seeds with k-means++, and the
best objective wins. EM's E-step scores with `score_matrix`, through the
whitening factors the M-step's components cache. Fits are
bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    COVARIANCE_KINDS,
    DIAGONAL,
    FULL,
    GAUSSIAN,
    KMEANS,
    ClusterCfError,
    ClusterModel,
    CovarianceSpec,
    GaussianComponent,
    Standardization,
    ValidationError,
    as_int,
    score_matrix,
    sq_distances,
)


class FitError(ClusterCfError):
    pass


@dataclass(frozen=True, eq=False)
class Dataset:
    """Numeric rows plus optional header names and a label column kept as
    metadata only (never used for fitting)."""

    rows: np.ndarray
    feature_names: "tuple[str, ...] | None" = None
    labels: "tuple[str, ...] | None" = None

    def __post_init__(self):
        arr = np.array(self.rows, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError("rows", "expected a non-empty N x d matrix")
        if not np.isfinite(arr).all():
            raise ValidationError("rows", "contains NaN or infinite entries")
        arr.flags.writeable = False
        object.__setattr__(self, "rows", arr)
        if self.feature_names is not None:
            names = tuple(self.feature_names)
            if len(names) != arr.shape[1]:
                raise ValidationError("feature_names", "length does not match row width")
            object.__setattr__(self, "feature_names", names)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != arr.shape[0]:
                raise ValidationError("labels", "length does not match row count")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class FitConfig:
    algorithm: str = KMEANS
    covariance: str = FULL
    n_clusters: int = 2
    max_iter: int = 200
    rel_tol: float = 1e-8
    seed: int = 0
    restarts: int = 4
    standardize: bool = True

    def __post_init__(self):
        for name in ("n_clusters", "max_iter", "restarts", "seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name=name))
        if self.algorithm not in (KMEANS, "gmm"):
            raise ValidationError("algorithm", f"unknown algorithm {self.algorithm!r}")
        if self.covariance not in COVARIANCE_KINDS:
            raise ValidationError("covariance", f"unknown covariance kind {self.covariance!r}")
        if self.n_clusters < 1:
            raise ValidationError("n_clusters", "must be >= 1")
        if self.max_iter < 1:
            raise ValidationError("max_iter", "must be >= 1")
        if not self.rel_tol > 0.0:
            raise ValidationError("rel_tol", "must be > 0")
        if self.restarts < 1:
            raise ValidationError("restarts", "must be >= 1")


@dataclass(frozen=True)
class FitInfo:
    algorithm: str
    iterations: int
    objective: float
    objective_history: "tuple[float, ...]"
    restarts: int
    seed: int


def _check_data(data: Dataset, k: int) -> None:
    if data.n < k:
        raise FitError(f"need at least {k} rows to fit {k} clusters, got {data.n}")
    if float(np.max(np.ptp(data.rows, axis=0))) == 0.0:
        raise FitError("degenerate data: all rows are identical")


def _standardization(rows: np.ndarray) -> Standardization:
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return Standardization(mean=mean, std=std)


def _kmeans_pp(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each new center drawn with probability
    proportional to the squared distance to the nearest chosen center."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    d2 = sq_distances(x, centers[:1])[:, 0]
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[i] = x[idx]
        d2 = np.minimum(d2, sq_distances(x, centers[i : i + 1])[:, 0])
    return centers


def _lloyd(x, centers, max_iter, rel_tol):
    """Lloyd iterations from the given centers; returns (centers,
    iterations, inertia history), the last entry the final inertia."""
    prev_inertia = math.inf
    history = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        d2 = sq_distances(x, centers)
        labels = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(x.shape[0]), labels]
        # Re-seed empty clusters at the point currently worst served.
        for ki in range(centers.shape[0]):
            if not np.any(labels == ki):
                far = int(np.argmax(point_d2))
                centers[ki] = x[far]
                labels[far] = ki
                point_d2[far] = 0.0
        inertia = float(point_d2.sum())
        history.append(inertia)
        new_centers = centers.copy()
        for ki in range(centers.shape[0]):
            members = labels == ki
            new_centers[ki] = x[members].mean(axis=0)
        centers = new_centers
        if prev_inertia - inertia <= rel_tol * max(prev_inertia, 1e-300) and math.isfinite(
            prev_inertia
        ):
            break
        prev_inertia = inertia
    d2 = sq_distances(x, centers)
    history.append(float(np.min(d2, axis=1).sum()))
    return centers, iterations, tuple(history)


# ---------------------------------------------------------------------------
# Gaussian mixtures

_JITTER_SCALE = 1e-6
_RESP_FLOOR = 10.0 * np.finfo(np.float64).eps


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    mx = a.max(axis=1, keepdims=True)
    return (mx + np.log(np.sum(np.exp(a - mx), axis=1, keepdims=True)))[:, 0]


def _chol_with_jitter(s: np.ndarray) -> np.ndarray:
    """Cholesky with escalating diagonal jitter: 1e-6 * trace/d, then x10
    up to three retries."""
    d = s.shape[0]
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        pass
    jitter = _JITTER_SCALE * max(float(np.trace(s)) / d, np.finfo(np.float64).tiny)
    for _ in range(3):
        s = s + jitter * np.eye(d)
        try:
            return np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise FitError("covariance update failed to become positive definite")


def _positive_variances(var: np.ndarray) -> np.ndarray:
    """Diagonal analogue of the jitter policy: lift non-positive entries."""
    if np.all(var > 0.0):
        return var
    jitter = _JITTER_SCALE * max(float(var.sum()) / var.size, np.finfo(np.float64).tiny)
    for _ in range(3):
        var = var + jitter
        if np.all(var > 0.0):
            return var
        jitter *= 10.0
    raise FitError("per-feature variances failed to become positive")


def _m_step(x, resp, covariance_kind) -> ClusterModel:
    """The Gaussian model the responsibilities estimate. Its components
    cache the whitening factors the next E-step scores with."""
    nk = resp.sum(axis=0) + _RESP_FLOOR
    means = (resp.T @ x) / nk[:, None]
    priors = nk / nk.sum()
    covs = []
    for ki in range(resp.shape[1]):
        diff = x - means[ki]
        if covariance_kind == FULL:
            s = (resp[:, ki][:, None] * diff).T @ diff / nk[ki]
            s = (s + s.T) / 2.0
            chol = _chol_with_jitter(s)
            covs.append(CovarianceSpec.full(chol @ chol.T))
        elif covariance_kind == DIAGONAL:
            var = (resp[:, ki][:, None] * diff * diff).sum(axis=0) / nk[ki]
            covs.append(CovarianceSpec.diagonal(_positive_variances(var)))
        else:
            var = (resp[:, ki][:, None] * diff * diff).sum(axis=0) / nk[ki]
            sigma2 = float(_positive_variances(np.asarray([var.mean()]))[0])
            covs.append(CovarianceSpec.spherical(sigma2))
    try:
        components = tuple(
            GaussianComponent(mean=m, covariance=c, prior=float(p))
            for m, c, p in zip(means, covs, priors)
        )
        return ClusterModel(kind=GAUSSIAN, components=components)
    except ValidationError as exc:
        raise FitError(f"EM produced an invalid model: {exc}") from exc


def _em(x, centers, covariance_kind, max_iter, rel_tol):
    """EM from a hard assignment to the given centers; returns (model,
    iterations, log-likelihood history)."""
    labels = np.argmin(sq_distances(x, centers), axis=1)
    resp = np.zeros((x.shape[0], centers.shape[0]))
    resp[np.arange(x.shape[0]), labels] = 1.0

    history = []
    prev_ll = -math.inf
    iterations = 0
    model = _m_step(x, resp, covariance_kind)
    for _ in range(max_iter):
        iterations += 1
        log_prob = score_matrix(model, x)
        lse = _logsumexp_rows(log_prob)
        ll = float(lse.sum())
        history.append(ll)
        resp = np.exp(log_prob - lse[:, None])
        model = _m_step(x, resp, covariance_kind)
        if math.isfinite(prev_ll) and ll - prev_ll <= rel_tol * (1.0 + abs(prev_ll)):
            break
        prev_ll = ll
    return model, iterations, tuple(history)


def fit(data: Dataset, config: FitConfig):
    """Fit `config.algorithm` on the data; returns (model, info).

    Each of `config.restarts` seeded restarts starts from k-means++
    centers. The best restart (lowest inertia, or highest log-likelihood;
    ties keep the earlier) gives the model, which carries the
    standardization the fit ran under.
    """
    _check_data(data, config.n_clusters)
    std = _standardization(data.rows) if config.standardize else None
    x = std.to_internal(data.rows) if std is not None else data.rows
    kmeans = config.algorithm == KMEANS

    best = best_objective = None
    for ss in np.random.SeedSequence(config.seed).spawn(config.restarts):
        centers = _kmeans_pp(x, config.n_clusters, np.random.default_rng(ss))
        if kmeans:
            run = _lloyd(x, centers, config.max_iter, config.rel_tol)
        else:
            run = _em(x, centers, config.covariance, config.max_iter, config.rel_tol)
        objective = run[2][-1]
        if best is None or (objective < best_objective if kmeans else objective > best_objective):
            best, best_objective = run, objective

    fitted, iterations, history = best
    if kmeans:
        try:
            model = ClusterModel(kind=KMEANS, centers=fitted, standardization=std)
        except ValidationError as exc:
            raise FitError(f"k-means produced an invalid model: {exc}") from exc
    else:
        model = ClusterModel(kind=GAUSSIAN, components=fitted.components, standardization=std)
    info = FitInfo(
        algorithm=config.algorithm,
        iterations=iterations,
        objective=history[-1],
        objective_history=history,
        restarts=config.restarts,
        seed=config.seed,
    )
    return model, info


def priors_policy(model: ClusterModel, policy: str, data: "Dataset | None" = None) -> ClusterModel:
    """Replace component priors: `uniform` sets 1/M, `frequency` uses hard
    assignment counts over the given dataset's rows that have a finite
    score. Centroid models have no priors and are returned unchanged."""
    if policy not in ("uniform", "frequency"):
        raise ValidationError("policy", f"unknown priors policy {policy!r}")
    if model.kind == KMEANS:
        return model
    m = model.n_clusters
    if policy == "uniform":
        priors = np.full(m, 1.0 / m)
    else:
        if data is None:
            raise ValidationError("data", "frequency policy requires a dataset")
        model.check_rows(data.rows)
        # As in `run_eval`: a row whose map or scores overflow is in no
        # cluster and is not counted.
        with np.errstate(over="ignore", invalid="ignore"):
            scores = score_matrix(model, model.to_internal(data.rows))
        finite = np.isfinite(scores)
        labels = np.argmax(np.where(finite, scores, -np.inf), axis=1)[finite.any(axis=1)]
        counts = np.bincount(labels, minlength=m).astype(np.float64)
        if np.any(counts == 0.0):
            raise FitError("frequency policy found an empty cluster")
        priors = counts / counts.sum()
    components = tuple(
        GaussianComponent(mean=c.mean, covariance=c.covariance, prior=float(p))
        for c, p in zip(model.components, priors)
    )
    return ClusterModel(
        kind=GAUSSIAN, components=components, standardization=model.standardization
    )
