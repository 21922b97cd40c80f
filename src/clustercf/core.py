"""Shared types and numeric primitives for cluster counterfactual search.

Vectors are 1-D float64 numpy arrays. All solver math runs in the model's
internal feature space: the standardized space when the model carries
standardization parameters, the raw feature space otherwise. Densities are
evaluated in log space throughout so that high-dimensional models (64
features and beyond) do not underflow.

Every Gaussian quadratic form goes through a whitening factor W with
W S W' = I, computed once per component: the inverse Cholesky factor
L^-1 of a full covariance S = L L', or the vector 1/sqrt(var) of a
diagonal or spherical one. A Mahalanobis distance is then |W (x - m)|^2,
a matrix-vector product instead of a solve. A Gaussian `ClusterModel`
stacks its components' means, factors and score constants, so
`score_matrix` scores all clusters with one batched product per block of
rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

# Result statuses shared by every solver.
STATUS_OK = "ok"
STATUS_DEGENERATE_IDENTITY = "degenerate_identity"
STATUS_NO_FEASIBLE_SOLUTION = "no_feasible_solution"
STATUS_NO_ROOT_FOUND = "no_root_found"

FULL = "full"
DIAGONAL = "diagonal"
SPHERICAL = "spherical"
COVARIANCE_KINDS = (FULL, DIAGONAL, SPHERICAL)

KMEANS = "kmeans"
GAUSSIAN = "gaussian"
MODEL_KINDS = (KMEANS, GAUSSIAN)

# Rows per batched product in `score_matrix`. It bounds the transient
# (M, SCORE_BLOCK_ROWS, d) arrays a call allocates: 2 MB each at M = 8,
# d = 128.
SCORE_BLOCK_ROWS = 256

# Two cluster centers closer than this (squared) are considered identical.
MIN_CENTER_SEPARATION_SQ = 1e-20
PRIOR_SUM_TOL = 1e-9


class ClusterCfError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(ClusterCfError):
    pass


class ValidationError(ClusterCfError):
    """Invalid model, request or file content; `path` names the field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def as_vector(values, *, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array (read-only)."""
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(name, "must be a non-empty 1-D array of reals")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(name, "contains NaN or infinite entries")
    return _readonly(arr)


def check_epsilon(value) -> float:
    """The plausibility factor as a float; it must be finite and >= 0."""
    eps = float(value)
    if not math.isfinite(eps) or eps < 0.0:
        raise ValidationError("epsilon", f"must be finite and >= 0, got {value!r}")
    return eps


def check_same_dim(a: np.ndarray, b: np.ndarray, what: str = "vectors") -> None:
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError(
            f"{what} have mismatched dimensions {a.shape[-1]} and {b.shape[-1]}"
        )


# ---------------------------------------------------------------------------
# Covariances and Gaussian components


@dataclass(frozen=True, eq=False)
class CovarianceSpec:
    """Covariance of one cluster: full matrix, per-feature variances, or a
    single shared variance."""

    kind: str
    data: np.ndarray

    def __post_init__(self):
        if self.kind not in COVARIANCE_KINDS:
            raise ValidationError("covariance.kind", f"unknown kind {self.kind!r}")
        arr = np.array(self.data, dtype=np.float64, copy=True)
        object.__setattr__(self, "data", _readonly(arr))

    @staticmethod
    def full(matrix) -> "CovarianceSpec":
        return CovarianceSpec(FULL, np.asarray(matrix, dtype=np.float64))

    @staticmethod
    def diagonal(variances) -> "CovarianceSpec":
        return CovarianceSpec(DIAGONAL, np.asarray(variances, dtype=np.float64))

    @staticmethod
    def spherical(variance: float) -> "CovarianceSpec":
        return CovarianceSpec(SPHERICAL, np.asarray(float(variance), dtype=np.float64))

    def validate(self, d: int, path: str = "covariance") -> None:
        """Finiteness, shape, symmetry and positive variances. A full
        matrix's positive definiteness is checked by the one Cholesky
        factorization `GaussianComponent` takes."""
        a = self.data
        if not np.all(np.isfinite(a)):
            raise ValidationError(path, "contains NaN or infinite entries")
        if self.kind == FULL:
            if a.shape != (d, d):
                raise ValidationError(path, f"expected a {d}x{d} matrix, got shape {a.shape}")
            scale = 1.0 + float(np.max(np.abs(a)))
            if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
                raise ValidationError(path, "matrix is not symmetric")
        elif self.kind == DIAGONAL:
            if a.shape != (d,):
                raise ValidationError(path, f"expected {d} variances, got shape {a.shape}")
            if not np.all(a > 0.0):
                raise ValidationError(path, "variances must all be positive")
        else:
            if a.shape != ():
                raise ValidationError(path, "spherical variance must be a scalar")
            if not float(a) > 0.0:
                raise ValidationError(path, "variance must be positive")

    def variances(self, d: int) -> np.ndarray:
        """Per-feature variance vector; full matrices have no such view."""
        if self.kind == DIAGONAL:
            return self.data
        if self.kind == SPHERICAL:
            return np.full(d, float(self.data))
        raise ValueError("full covariance has no per-feature variance vector")


@dataclass(frozen=True, eq=False)
class GaussianComponent:
    """One Gaussian cluster with cached log-determinant and whitening
    factor, and a precision formed on first use.

    `whitening` is W with W S W' = I: the d x d inverse Cholesky factor of
    a full covariance, the vector 1/sqrt(var) of a diagonal or spherical
    one.
    """

    mean: np.ndarray
    covariance: CovarianceSpec
    prior: float
    log_det: float = field(init=False)
    whitening: np.ndarray = field(init=False, repr=False)
    _precision: "np.ndarray | None" = field(init=False, repr=False)

    def __post_init__(self):
        mean = as_vector(self.mean, name="mean")
        object.__setattr__(self, "mean", mean)
        prior = float(self.prior)
        if not math.isfinite(prior) or not (0.0 < prior <= 1.0):
            raise ValidationError("prior", f"must lie in (0, 1], got {self.prior!r}")
        object.__setattr__(self, "prior", prior)
        d = mean.size
        self.covariance.validate(d)
        if self.covariance.kind == FULL:
            sym = (self.covariance.data + self.covariance.data.T) / 2.0
            try:
                chol = np.linalg.cholesky(sym)
            except np.linalg.LinAlgError:
                raise ValidationError("covariance", "matrix is not positive definite") from None
            log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
            inv_chol = np.linalg.solve(chol, np.eye(d))
            object.__setattr__(self, "whitening", _readonly(inv_chol))
        else:
            variances = self.covariance.variances(d)
            log_det = float(np.sum(np.log(variances)))
            object.__setattr__(self, "whitening", _readonly(1.0 / np.sqrt(variances)))
        object.__setattr__(self, "_precision", None)
        object.__setattr__(self, "log_det", log_det)

    @property
    def d(self) -> int:
        return self.mean.size

    def precision_matrix(self) -> np.ndarray:
        """Inverse covariance as a dense d x d matrix (read-only), formed on
        the first call and kept: W'W symmetrized for a full covariance,
        diag(1/var) otherwise. Fitting never asks for it."""
        if self._precision is None:
            w = self.whitening
            if w.ndim == 2:
                precision = w.T @ w
                precision = (precision + precision.T) / 2.0
            else:
                precision = np.diag(1.0 / self.covariance.variances(self.d))
            object.__setattr__(self, "_precision", _readonly(precision))
        return self._precision


def mahalanobis_sq(component: GaussianComponent, x: np.ndarray) -> float:
    """(x - m)' S^-1 (x - m) for one vector, as |W (x - m)|^2 with the
    component's whitening factor W (a matrix product for full covariances,
    an element-wise scaling otherwise)."""
    diff = np.asarray(x, dtype=np.float64) - component.mean
    w = component.whitening
    white = w @ diff if w.ndim == 2 else w * diff
    return float(white @ white)


def log_density(component: GaussianComponent, x: np.ndarray) -> float:
    """Gaussian log density at x, from the whitened squared distance
    `mahalanobis_sq` and the cached log-determinant."""
    x = np.asarray(x, dtype=np.float64)
    check_same_dim(component.mean, x)
    quad = mahalanobis_sq(component, x)
    return -0.5 * (quad + component.log_det + component.d * LOG_2PI)


# ---------------------------------------------------------------------------
# Models


@dataclass(frozen=True, eq=False)
class Standardization:
    """Per-feature z-score parameters applied once at ingestion."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = as_vector(self.mean, name="standardization.mean")
        std = as_vector(self.std, name="standardization.std")
        check_same_dim(mean, std, "standardization vectors")
        if not np.all(std > 0.0):
            raise ValidationError("standardization.std", "must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    def to_internal(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std

    def to_original(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) * self.std + self.mean


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """A fitted clustering: centroid list (kmeans) or Gaussian components.

    A Gaussian model stacks its components for `score_matrix`: means
    (M, d), whitening factors (M, d, d) when any covariance is full and
    (M, d) otherwise, and score constants log(prior) - (log|S| + d log 2pi)/2.
    """

    kind: str
    centers: "np.ndarray | None" = None
    components: "tuple[GaussianComponent, ...]" = ()
    standardization: "Standardization | None" = None
    _means: np.ndarray = field(init=False, repr=False)
    _whitening: "np.ndarray | None" = field(init=False, repr=False, default=None)
    _score_const: "np.ndarray | None" = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValidationError("kind", f"unknown model kind {self.kind!r}")
        if self.kind == KMEANS:
            if self.centers is None:
                raise ValidationError("centers", "kmeans model requires centers")
            arr = np.array(self.centers, dtype=np.float64, copy=True)
            if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
                raise ValidationError("centers", "expected an M x d matrix with M >= 1")
            if not np.all(np.isfinite(arr)):
                raise ValidationError("centers", "contains NaN or infinite entries")
            object.__setattr__(self, "centers", _readonly(arr))
            object.__setattr__(self, "components", ())
            object.__setattr__(self, "_means", self.centers)
        else:
            comps = tuple(self.components)
            if not comps:
                raise ValidationError("components", "gaussian model requires components")
            d = comps[0].d
            for i, c in enumerate(comps):
                if c.d != d:
                    raise ValidationError(f"components[{i}].mean", "dimension mismatch")
            total = sum(c.prior for c in comps)
            if abs(total - 1.0) > PRIOR_SUM_TOL:
                raise ValidationError("components[*].prior", f"priors sum to {total!r}, expected 1")
            object.__setattr__(self, "components", comps)
            object.__setattr__(self, "centers", None)
            if any(c.covariance.kind == FULL for c in comps):
                whitening = [c.whitening if c.whitening.ndim == 2 else np.diag(c.whitening)
                             for c in comps]
            else:
                whitening = [c.whitening for c in comps]
            const = [math.log(c.prior) - 0.5 * (c.log_det + d * LOG_2PI) for c in comps]
            object.__setattr__(self, "_means", _readonly(np.stack([c.mean for c in comps])))
            object.__setattr__(self, "_whitening", _readonly(np.stack(whitening)))
            object.__setattr__(self, "_score_const", _readonly(np.array(const)))
        means = self.means()
        diff = means[:, None, :] - means[None, :, :]
        close = np.triu(np.sum(diff * diff, axis=2) <= MIN_CENTER_SEPARATION_SQ, k=1)
        if close.any():
            i, j = np.argwhere(close)[0]
            raise ValidationError(
                "centers" if self.kind == KMEANS else "components",
                f"clusters {i} and {j} have identical centers",
            )
        if self.standardization is not None:
            check_same_dim(self.standardization.mean, means[0], "standardization")

    @property
    def d(self) -> int:
        return self._means.shape[1]

    @property
    def n_clusters(self) -> int:
        if self.kind == KMEANS:
            return self.centers.shape[0]
        return len(self.components)

    def means(self) -> np.ndarray:
        return self._means

    def check_cluster(self, k: int, path: str) -> None:
        """Raise ValidationError at `path` unless k is a cluster id."""
        if not (0 <= k < self.n_clusters):
            raise ValidationError(path, f"cluster id {k} out of range [0, {self.n_clusters})")

    def to_internal(self, x: np.ndarray) -> np.ndarray:
        if self.standardization is None:
            return np.asarray(x, dtype=np.float64)
        return self.standardization.to_internal(x)

    def to_original(self, x: np.ndarray) -> np.ndarray:
        if self.standardization is None:
            return np.asarray(x, dtype=np.float64)
        return self.standardization.to_original(x)


def score_matrix(model: ClusterModel, rows: np.ndarray, *, per_row: bool = False) -> np.ndarray:
    """Assignment scores for each row and cluster, higher is better.

    Gaussian models score log(prior * density); kmeans models score the
    negated squared distance to each center. Both reduce cluster
    assignment to an argmax. Gaussian rows are whitened against every
    cluster at once, SCORE_BLOCK_ROWS rows at a time. A full-covariance
    block takes one matrix product per cluster, which can round a row
    differently with other rows beside it; with `per_row`, each row takes
    its own product per cluster, so its scores are the bits a one-row call
    gives, whatever else is in the batch.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.shape[1] != model.d:
        raise DimensionMismatchError(
            f"rows have dimension {rows.shape[1]}, model expects {model.d}"
        )
    if model.kind == KMEANS:
        diff = rows[:, None, :] - model.centers[None, :, :]
        return -np.sum(diff * diff, axis=2)
    means, whitening, const = model._means, model._whitening, model._score_const
    out = np.empty((rows.shape[0], model.n_clusters))
    for start in range(0, rows.shape[0], SCORE_BLOCK_ROWS):
        block = rows[start : start + SCORE_BLOCK_ROWS]
        diff = block[None, :, :] - means[:, None, :]
        if whitening.ndim == 3 and per_row:
            white = np.matmul(diff[:, :, None, :], whitening.transpose(0, 2, 1)[:, None])[:, :, 0]
        elif whitening.ndim == 3:
            white = np.matmul(diff, whitening.transpose(0, 2, 1))
        else:
            white = diff * whitening[:, None, :]
        quad = np.einsum("mnd,mnd->mn", white, white)
        out[start : start + block.shape[0]] = (const[:, None] - 0.5 * quad).T
    return out


def assign_cluster(model: ClusterModel, x: np.ndarray) -> int:
    """Cluster of x under the assignment rule; exact ties go to the lowest id."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError("x", "expected a single vector")
    if not np.all(np.isfinite(x)):
        raise ValidationError("x", "contains NaN or infinite entries")
    scores = score_matrix(model, x[None, :])[0]
    return int(np.argmax(scores))


def distance_sq(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean distance."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    check_same_dim(a, b)
    diff = a - b
    return float(diff @ diff)


# ---------------------------------------------------------------------------
# Requests and results


@dataclass(frozen=True, eq=False)
class Mask:
    """Actionability mask: True entries may change, False entries are frozen."""

    bits: np.ndarray
    free: np.ndarray = field(init=False, repr=False)
    fixed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        bits = np.array(self.bits, dtype=bool, copy=True)
        if bits.ndim != 1 or bits.size == 0:
            raise ValidationError("mask", "must be a non-empty 1-D boolean array")
        object.__setattr__(self, "bits", _readonly(bits))
        object.__setattr__(self, "free", _readonly(bits.nonzero()[0]))
        object.__setattr__(self, "fixed", _readonly((~bits).nonzero()[0]))

    @staticmethod
    @functools.lru_cache(maxsize=64)
    def all_free(d: int) -> "Mask":
        """The mask with every feature free. A Mask is immutable, so the
        requests that carry no mask share one instance per d instead of
        building one each."""
        return Mask(np.ones(d, dtype=bool))

    @staticmethod
    def from_bits(bits: Iterable[int]) -> "Mask":
        return Mask(np.asarray(list(bits), dtype=bool))

    @staticmethod
    def from_string(text: str) -> "Mask":
        parts = [p.strip() for p in text.split(",") if p.strip() != ""]
        if not parts or any(p not in ("0", "1") for p in parts):
            raise ValidationError("mask", f"expected comma-separated 0/1 bits, got {text!r}")
        return Mask(np.asarray([p == "1" for p in parts], dtype=bool))

    @property
    def d(self) -> int:
        return self.bits.size

    @property
    def n_free(self) -> int:
        return self.free.size


@dataclass(frozen=True, eq=False)
class CfRequest:
    """One counterfactual query: factual in original units, target cluster,
    actionability mask and plausibility factor."""

    factual: np.ndarray
    target: int
    source: "int | None" = None
    mask: "Mask | None" = None
    epsilon: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "factual", as_vector(self.factual, name="factual"))
        object.__setattr__(self, "epsilon", check_epsilon(self.epsilon))
        object.__setattr__(self, "target", int(self.target))
        if self.source is not None:
            object.__setattr__(self, "source", int(self.source))

    def validate_against(self, model: ClusterModel) -> Mask:
        """Check the request against the model and return its mask (all
        free when the request has none). This is the one validation of a
        request; the solvers behind `explain_many` trust what it passed."""
        if self.factual.size != model.d:
            raise DimensionMismatchError(
                f"factual has dimension {self.factual.size}, model expects {model.d}"
            )
        model.check_cluster(self.target, "target")
        if self.source is not None:
            model.check_cluster(self.source, "source")
            if self.source == self.target:
                raise ValidationError("target", "source and target clusters must differ")
        if self.mask is None:
            return Mask.all_free(model.d)
        if self.mask.d != model.d:
            raise ValidationError("mask", f"length {self.mask.d} does not match dimension {model.d}")
        return self.mask


@dataclass(frozen=True, eq=False)
class CfResult:
    """Outcome of one counterfactual solve.

    `counterfactual` lives in the space the solver ran in (the model's
    internal space); `counterfactual_original` is the same point mapped
    back to original units, with frozen features copied bit-exact from the
    factual. `lam` is the pair's scalar multiplier, for centroid and
    Gaussian pairs alike (None without a point or when degenerate), and
    `diagnostics` says how the solve ran. `elapsed` is set by `explain_many`
    alone, in seconds: the time its group of requests (one source, target
    and mask) spent in the pair plan's build and the solve, divided by
    the group's size. A solver called directly leaves it at 0.0.
    """

    status: str
    counterfactual: "np.ndarray | None"
    distance_sq: "float | None"
    lam: "float | None" = None
    residual: "float | None" = None
    elapsed: float = 0.0
    source: "int | None" = None
    target: "int | None" = None
    strict_member: "bool | None" = None
    tolerant_member: "bool | None" = None
    counterfactual_original: "np.ndarray | None" = None
    diagnostics: "dict | None" = None

    @property
    def solved(self) -> bool:
        return self.status in (STATUS_OK, STATUS_DEGENERATE_IDENTITY)
