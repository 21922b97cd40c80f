"""Counterfactual generation for Gaussian cluster pairs.

For a source component (m_s, S_s, pi_s) and target component (m_t, S_t,
pi_t), a counterfactual z with plausibility factor eps must satisfy

    g(z) = (z - m_t)' St^-1 (z - m_t) - (z - m_s)' Ss^-1 (z - m_s) + c_a = 0
    c_a  = log|S_t| - log|S_s| - 2 log(pi_t / pi_s) + 2 log(1 + eps)

which states that the target's weighted density exceeds the source's by
the factor (1 + eps); eps = 0 is the assignment boundary of the pair.
Minimizing the squared distance to the factual y over the free
coordinates F subject to g(z) = 0 yields a one-parameter family of
stationary candidates

    z_F(lam) = (I - lam * D)^-1 (y_F - lam * b),     z_G = y_G,

where D is the difference of the free-block precisions and b collects
mean and fixed-block terms. In the eigenbasis of D (eigenvalues e_i) the
step from the factual and the constraint become component-wise,

    s_i(lam) = lam * a_i / (1 - lam * e_i),      a = half the gradient of g at y,
    g(lam)   = g(y) + lam * sum_i a_i^2 (2 - lam * e_i) / (1 - lam * e_i)^2,

so one g evaluation costs O(|F|). The global minimizer's multiplier lies
in the one interval around 0 where every 1 - lam * e_i > 0 (More &
Sorensen 1983; More 1993). There g'(lam) = 2 sum_i a_i^2 / (1 - lam e_i)^3
> 0, so g is monotone and the solver runs a safeguarded Newton iteration
from lam = 0 toward the side where g changes sign. When g keeps its sign
up to a pole whose coefficients a_i vanish (or are too small to resolve),
the minimizer sits on that pole (the trust-region "hard case"); when it
keeps its sign to an open end with no linear term left, no
counterfactual exists.

Diagonal and spherical covariances use the same coordinates with e and a
taken directly per coordinate (no eigendecomposition).
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    FULL,
    STATUS_DEGENERATE_IDENTITY,
    STATUS_NO_FEASIBLE_SOLUTION,
    STATUS_NO_ROOT_FOUND,
    STATUS_OK,
    CfResult,
    GaussianComponent,
    Mask,
    mahalanobis_sq,
)

# Acceptance tolerance for a root, in the constraint's natural scale.
RESIDUAL_TOL_FACTOR = 1e-8
# Newton refinement target (stricter than acceptance).
REFINE_TOL_FACTOR = 1e-10
REFINE_MAX_ITER = 200
# A root within this relative gap of a pole is taken as the hard case, and
# eigenvalues this close (relative) to the bounding one share its pole.
POLE_EXCLUSION = 1e-12
# Below this magnitude an eigenvalue of D is zero: it contributes no pole,
# and if all eigenvalues are below it the constraint is affine. A gradient
# on the null space of D below it counts as no linear term.
EIG_ZERO = 1e-12

PATH_FACTUAL = "factual"
PATH_INTERVAL = "interval"
PATH_HARD_CASE = "hard_case"
PATH_OPEN_END = "open_end"


class GaussianPairProblem:
    """Precomputed source/target pair data for one factual, mask and eps.

    The inputs are trusted: `explain` builds the problem only after
    `CfRequest.validate_against` has checked the factual's dimension, the
    mask's length and epsilon. Instances are immutable after construction
    and safe to share across threads. The public surface is `source`,
    `target`, `y`, `mask`, `epsilon`, `c_alpha` and `affine`.
    """

    def __init__(
        self,
        source: GaussianComponent,
        target: GaussianComponent,
        y,
        mask: Mask,
        epsilon: float,
    ):
        y = np.asarray(y, dtype=np.float64)
        self.source = source
        self.target = target
        self.y = y
        self.mask = mask
        self.epsilon = epsilon
        self.c_alpha = (
            target.log_det
            - source.log_det
            - 2.0 * (math.log(target.prior) - math.log(source.prior))
            + 2.0 * math.log1p(epsilon)
        )

        free = mask.free
        d = y.size
        componentwise = source.covariance.kind != FULL and target.covariance.kind != FULL

        # Half the gradient of g at y over the free block: the linear term
        # of the step problem, taken directly so that no cancellation
        # between D y_F and b enters it.
        if componentwise:
            inv_s = 1.0 / source.covariance.variances(d)[free]
            inv_t = 1.0 / target.covariance.variances(d)[free]
            evals = inv_t - inv_s
            a = (y[free] - target.mean[free]) * inv_t - (y[free] - source.mean[free]) * inv_s
            self._basis = None
        else:
            p_s = source.precision_matrix()
            p_t = target.precision_matrix()
            dmat = p_t[np.ix_(free, free)] - p_s[np.ix_(free, free)]
            half_grad = (p_t @ (y - target.mean) - p_s @ (y - source.mean))[free]
            if free.size:
                evals, evecs = np.linalg.eigh((dmat + dmat.T) / 2.0)
            else:
                evals, evecs = np.empty(0), np.empty((0, 0))
            self._basis = evecs
            a = evecs.T @ half_grad

        self._e = np.where(np.abs(evals) > EIG_ZERO, evals, 0.0)
        self._a = a
        self._g_y = mahalanobis_sq(target, y) - mahalanobis_sq(source, y) + self.c_alpha
        self.affine = not np.any(self._e)

    def _point(self, step: np.ndarray) -> np.ndarray:
        """The factual moved by `step` (eigen-coordinates) on the free block."""
        if self._basis is not None:
            step = self._basis @ step
        z = self.y.copy()
        z[self.mask.free] = self.y[self.mask.free] + step
        return z


def build_pair_problem(
    source: GaussianComponent,
    target: GaussianComponent,
    y,
    mask: Mask,
    epsilon: float,
) -> GaussianPairProblem:
    return GaussianPairProblem(source, target, y, mask, epsilon)


def constraint_residual(problem: GaussianPairProblem, z) -> float:
    """g(z): zero exactly on the eps-shifted pair boundary. z is trusted
    to have the problem's dimension."""
    z = np.asarray(z, dtype=np.float64)
    return (
        mahalanobis_sq(problem.target, z)
        - mahalanobis_sq(problem.source, z)
        + problem.c_alpha
    )


# ---------------------------------------------------------------------------
# Solve on the certified interval
#
# The solve runs in a variable x >= 0 with lam = lam0 + kappa * x and
# 1 - lam * e_i = alpha_i + beta_i * x. Toward a pole 1/e_k, x is the
# relative gap to it (lam = (1 - x) / e_k), so the coordinates on the pole
# keep their gap exactly however close the root lies; toward an open end,
# x = |lam|.


class _Secular:
    """g and dg/dx along one side of the interval, and its root."""

    def __init__(self, a, g_y, lam0, kappa, alpha, beta):
        self.a = a
        self.a2 = a * a
        self.g_y = g_y
        self.lam0 = lam0
        self.kappa = kappa
        self.alpha = alpha
        self.beta = beta

    def lam(self, x: float) -> float:
        return self.lam0 + self.kappa * x

    def __call__(self, x: float):
        gap = self.alpha + self.beta * x
        q = self.a2 / (gap * gap)
        g = self.g_y + self.lam(x) * float(q @ (1.0 + gap))
        return g, 2.0 * self.kappa * float(q @ (1.0 / gap))

    def step(self, x: float) -> np.ndarray:
        return self.lam(x) * self.a / (self.alpha + self.beta * x)

    def root(self, lo: float, hi: float, x: float, lo_positive: bool, tol: float):
        """Root on [lo, hi] (0 <= lo < hi; g(lo) > 0 iff lo_positive, g(hi)
        of the other sign or zero), iterated from x and kept inside the
        bracket by bisection, geometric while the bracket spans more than
        a factor of 4. Toward an open end the iteration is Newton's; toward
        a pole (at x = 0) it takes the step that is exact for
        c1 + c2 / x^2, the shape of g near the pole, where Newton's step
        only grows by half per iteration. Stops at |g| <= tol or when the
        bracket reaches floating-point resolution; returns (x, iterations).
        """
        at_pole = self.lam0 != 0.0
        gx, dgx = self(x)
        for it in range(1, REFINE_MAX_ITER + 1):
            if abs(gx) <= tol:
                return x, it - 1
            if at_pole:
                # g = c1 + c2 / x^2 through (x, g, g') has its root at
                # x^2 * x g' / (2 g + x g').
                den = 2.0 * gx + dgx * x
                xn = x * math.sqrt(dgx * x / den) if dgx * x * den > 0.0 else math.nan
            else:
                xn = x - gx / dgx if dgx != 0.0 else math.nan
            if not lo <= xn <= hi or xn == x:
                xn = math.sqrt(lo * hi) if lo > 0.0 and hi > 4.0 * lo else 0.5 * (lo + hi)
                if not lo < xn < hi:
                    return x, it - 1
            x = xn
            gx, dgx = self(x)
            if (gx > 0.0) == lo_positive:
                lo = x
            else:
                hi = x
        return x, REFINE_MAX_ITER


def _hard_case(sec: _Secular, block: np.ndarray, e_k: float) -> np.ndarray:
    """Step at lam = 1/e_k: every other coordinate at its limit, the pole
    block moved along its own gradient (or its first coordinate when that
    vanishes) by the tau that solves g = 0."""
    lam = sec.lam0
    rest = ~block
    step = np.zeros_like(sec.a)
    step[rest] = lam * sec.a[rest] / sec.alpha[rest]
    alpha = sec.alpha[rest]
    g_lim = sec.g_y + lam * float((sec.a2[rest] / (alpha * alpha)) @ (1.0 + alpha))
    a_block = sec.a[block]
    n_a = float(np.linalg.norm(a_block))
    # e_k tau^2 + 2 n_a tau + g_lim = 0, where e_k and g_lim differ in
    # sign: take the root of smaller magnitude.
    root = math.sqrt(max(n_a * n_a - e_k * g_lim, 0.0))
    tau = -g_lim / (n_a + root) if n_a + root > 0.0 else 0.0
    if n_a > 0.0:
        step[block] = tau * (a_block / n_a)
    else:
        step[np.flatnonzero(block)[0]] = abs(tau)
    return step


def _interval(e: np.ndarray) -> list:
    """The multiplier interval where I - lam * D_FF is positive definite;
    an open end is None."""
    lo = 1.0 / float(e.min()) if e.size and e.min() < 0.0 else None
    hi = 1.0 / float(e.max()) if e.size and e.max() > 0.0 else None
    return [lo, hi]


def _result(problem, status, *, diagnostics, z=None, lam=None, residual=None):
    distance = None
    if z is not None:
        dz = z[problem.mask.free] - problem.y[problem.mask.free]
        distance = float(dz @ dz)
    return CfResult(
        status=status,
        counterfactual=z,
        distance_sq=distance,
        lam=lam,
        residual=residual,
        roots_found=1 if status == STATUS_OK else 0,
        diagnostics=diagnostics,
    )


def solve_gaussian_cf(problem: GaussianPairProblem) -> CfResult:
    """Nearest point to the factual on g(z) = 0 over the free features.

    The multiplier is solved on the interval where I - lam * D_FF is
    positive definite, which holds the global minimizer (see the module
    docstring). Outcomes:

    - `ok`: the minimizer with its multiplier `lam`, confirmed against
      `constraint_residual` within 1e-8 * (1 + |c_alpha|). The factual
      itself is returned, at lam = 0, when it already meets that tolerance.
    - `degenerate_identity`: the free features cannot change g (none are
      free, or D_FF and the gradient vanish) and the factual satisfies it.
    - `no_feasible_solution`: g keeps the factual's sign, beyond the
      tolerance, up to an open end of the interval with no linear term on
      the null space of D_FF. D_FF is then semidefinite and the limit,
      `diagnostics["g_limit"]`, is the extremum of g over the free block.
    - `no_root_found`: the candidate failed the confirmation.

    Every result carries `diagnostics`: the solver `path` (`factual`,
    `interval` or `hard_case` for `ok`), the multiplier `interval` (None
    for an open end) and the Newton `iterations`.
    """
    g_ok_tol = RESIDUAL_TOL_FACTOR * (1.0 + abs(problem.c_alpha))
    e, a, g_y = problem._e, problem._a, problem._g_y
    null = e == 0.0
    # g's slope in lam on the null space of D_FF is 2 |a_null|^2; a
    # gradient there (2 |a_null|) below EIG_ZERO counts as none.
    null_sq = float(a[null] @ a[null])
    has_linear = 2.0 * math.sqrt(null_sq) > EIG_ZERO
    diagnostics = {"path": PATH_FACTUAL, "interval": _interval(e), "iterations": 0}

    if abs(g_y) <= g_ok_tol:
        status = STATUS_OK if has_linear or not problem.affine else STATUS_DEGENERATE_IDENTITY
        return _result(
            problem, status, z=problem.y.copy(), lam=0.0 if status == STATUS_OK else None,
            residual=g_y, diagnostics=diagnostics,
        )

    # g rises with lam on the interval: move to the side of its zero.
    side = 1.0 if g_y < 0.0 else -1.0
    y_positive = g_y > 0.0
    step = None
    if np.any(e * side > 0.0):
        e_k = side * float(np.max(e * side))
        r = e / e_k
        block = r >= 1.0 - POLE_EXCLUSION
        sec = _Secular(
            a, g_y, 1.0 / e_k, -1.0 / e_k, np.where(block, 0.0, 1.0 - r), np.where(block, 1.0, r)
        )
        lo, hi, x0, lo_positive = POLE_EXCLUSION, 1.0, 1.0, not y_positive
        g_edge, _ = sec(lo)
        if (g_edge > 0.0) == y_positive:
            diagnostics["path"] = PATH_HARD_CASE
            lam, step = sec.lam0, _hard_case(sec, block, e_k)
    else:
        sec = _Secular(a, g_y, 0.0, side, np.ones_like(e), -side * e)
        if has_linear:
            # Every other term moves g the same way, so the null-space
            # slope alone brings g to zero within |g(y)| / slope.
            hi = abs(g_y) / (2.0 * null_sq)
        else:
            # g tends to g(y) + side * sum(a^2 / |e|), the extremum of g
            # over the free block, with terms that decay at least as fast
            # as 1 / (1 + x * min|e|)^2.
            weight = a[~null] ** 2 / np.abs(e[~null])
            g_limit = g_y + side * float(np.sum(weight))
            diagnostics["g_limit"] = g_limit
            if g_limit == 0.0 or (g_limit > 0.0) == y_positive:
                diagnostics["path"] = PATH_OPEN_END
                status = (
                    STATUS_NO_FEASIBLE_SOLUTION if abs(g_limit) > g_ok_tol else STATUS_NO_ROOT_FOUND
                )
                return _result(problem, status, residual=g_y, diagnostics=diagnostics)
            hi = (math.sqrt(float(np.sum(weight)) / abs(g_limit)) - 1.0) / float(
                np.min(np.abs(e[~null]))
            )
        lo, x0, lo_positive = 0.0, 0.0, y_positive
    if step is None:
        diagnostics["path"] = PATH_INTERVAL
        refine_tol = REFINE_TOL_FACTOR * (1.0 + abs(problem.c_alpha))
        x, diagnostics["iterations"] = sec.root(lo, hi, x0, lo_positive, refine_tol)
        lam, step = sec.lam(x), sec.step(x)

    z = problem._point(step)
    residual = constraint_residual(problem, z)
    if abs(residual) > g_ok_tol:
        diagnostics["lam"] = lam
        return _result(problem, STATUS_NO_ROOT_FOUND, residual=residual, diagnostics=diagnostics)
    return _result(problem, STATUS_OK, z=z, lam=lam, residual=residual, diagnostics=diagnostics)
