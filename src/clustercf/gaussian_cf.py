"""Counterfactual generation for cluster pairs: Gaussian pairs and, as
their identity-precision case, k-means center pairs.

For a source component (m_s, S_s, pi_s) and target component (m_t, S_t,
pi_t), a counterfactual z with plausibility factor eps must satisfy

    g(z) = (z - m_t)' St^-1 (z - m_t) - (z - m_s)' Ss^-1 (z - m_s) + c_a = 0
    c_a  = log|S_t| - log|S_s| - 2 log(pi_t / pi_s) + 2 log(1 + eps)

which states that the target's weighted density exceeds the source's by
the factor (1 + eps); eps = 0 is the assignment boundary of the pair. A
pair of k-means centers is the case S_s = S_t = I, c_a = eps |m_s - m_t|^2:
the centers' bisecting plane, shifted into the target by that margin.
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
counterfactual exists. When D_FF vanishes (every center pair, and
Gaussian pairs whose free-block precisions agree) g is affine in the
step, g(y + s) = g(y) + 2 a.s, and the minimizer is the closed form
lam = -g(y) / (2 |a|^2), s = lam * a.

Only a and g(y) depend on the factual, and only c_a on eps. A
`GaussianPairPlan` holds the rest for one (source, target, mask): the
eigenbasis of D (the identity when neither covariance is full), e, the
multiplier interval and the pole data of each side. `solve_gaussian_rows`
then solves many factuals and eps values against one plan. An affine
plan takes the closed form row by row, with one-row products. Otherwise
a and g(y) come for all rows from row-wise products, the side, factual
and hard-case tests run over all rows at once, one scalar root per row,
and the confirmation over all rows. a comes from the half gradient
taken around the source mean, h = D (y - m_s) + P_t (m_s - m_t), and
g(y) from the whitened differences |W_t (y - m_t)|^2 - |W_s (y - m_s)|^2
+ c_a; when the two precisions are equal the squares cancel exactly and
g(y) is the affine 2 h.(y - m_s) + (m_s - m_t)' P_t (m_s - m_t) + c_a,
so a far factual, or a pair far from the origin, keeps its precision.
The confirmation evaluates the exact expansion g(y) + 2 a.s +
s' diag(e) s in the solve's own coordinates instead of subtracting two
large Mahalanobis terms at the candidate.
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


class _Side:
    """The solve variable x >= 0 on one side of lam = 0 (see below):
    lam = lam0 + kappa * x and 1 - lam * e_i = alpha_i + beta_i * x.

    Toward a pole (`e_k`, the eigenvalue that bounds the interval on this
    side), `block` marks the coordinates on the pole and `edge_weight`
    holds (1 + gap) / gap^2 at x = POLE_EXCLUSION, where the hard-case
    test evaluates g. Toward an open end (`e_k` None), `inv_abs_e` holds
    1 / |e| off the null space (0 on it) and `min_abs_e` the least |e| off
    it."""

    def __init__(self, e: np.ndarray, null: np.ndarray, sign: float, e_k: "float | None"):
        self.e_k = e_k
        if e_k is not None:
            r = e / e_k
            self.block = r >= 1.0 - POLE_EXCLUSION
            self.alpha = 1.0 - r
            self.alpha[self.block] = 0.0
            self.beta = r
            self.beta[self.block] = 1.0
            self.lam0, self.kappa = 1.0 / e_k, -1.0 / e_k
            gap = self.alpha + self.beta * POLE_EXCLUSION
            self.edge_weight = (1.0 + gap) / (gap * gap)
        else:
            self.alpha, self.beta = np.ones_like(e), -sign * e
            self.lam0, self.kappa = 0.0, sign
            abs_e = np.abs(e[~null])
            self.min_abs_e = float(abs_e.min())
            self.inv_abs_e = np.zeros_like(e)
            self.inv_abs_e[~null] = 1.0 / abs_e


class GaussianPairPlan:
    """The factual- and eps-independent part of the pair's multiplier
    equation, for one (source, target, mask). Equal precisions give D = 0:
    the plan is affine and nothing is decomposed. Otherwise the only
    choice is the eigenbasis of D_FF (`eigh` when either covariance is
    full, the identity otherwise).

    `GaussianPairPlan(source, target, mask)` is the plan of two Gaussian
    components, `GaussianPairPlan.for_centers(m_s, m_t, mask)` that of two
    k-means centers, the identity-precision case (see the module
    docstring). Nothing after construction depends on which built it.

    The inputs are trusted: `explain_many` builds a plan only after
    `CfRequest.validate_against` has checked each request. A plan lives
    for one call; it is not shared across calls. Its public surface is
    `mask`, `affine`, `interval`, `c_alpha(eps)`, `terms(rows, epsilons)`
    and `row_terms(y, epsilon)`.
    """

    def __init__(self, source: GaussianComponent, target: GaussianComponent, mask: Mask):
        log_prior_ratio = math.log(target.prior) - math.log(source.prior)
        self._c_base = target.log_det - source.log_det - 2.0 * log_prior_ratio
        self._margin_weight, self._margin = 2.0, math.log1p
        p_s, p_t = _precisions(source, target)
        p_diff = p_t - p_s
        delta = source.mean - target.mean
        self._set_shared(source.mean, delta, _apply(p_t, delta), mask, not np.count_nonzero(p_diff))
        if self._equal:
            return
        self._m_t = target.mean
        self._w_s, self._w_t = source.whitening, target.whitening
        self._d = p_diff
        free = mask.free
        if p_diff.ndim == 2:
            dmat = p_diff[free][:, free]
            evals, basis = np.linalg.eigh((dmat + dmat.T) / 2.0)
        else:
            evals, basis = p_diff[free], None
        # None stands for the identity basis of a component-wise pair.
        self._basis = basis
        self._evals = evals
        self._e = evals * (np.abs(evals) > EIG_ZERO)
        self._null = self._e == 0.0
        self._null_weight = self._null.astype(np.float64)
        # The multiplier interval where I - lam * D_FF is positive
        # definite; an open end is None.
        values = self._e.tolist()
        self._e_min, self._e_max = min(values, default=0.0), max(values, default=0.0)
        self.affine = self._e_min == self._e_max == 0.0
        self.interval = [
            1.0 / self._e_min if self._e_min < 0.0 else None,
            1.0 / self._e_max if self._e_max > 0.0 else None,
        ]
        self._sides = {}

    @classmethod
    def for_centers(cls, m_s: np.ndarray, m_t: np.ndarray, mask: Mask) -> "GaussianPairPlan":
        """The plan of the center pair (m_s, m_t): identity precisions, so
        h = m_s - m_t, and c_alpha(eps) = eps |m_s - m_t|^2."""
        plan = cls.__new__(cls)
        delta = m_s - m_t
        plan._set_shared(m_s, delta, delta, mask, True)
        plan._c_base = 0.0
        plan._margin_weight, plan._margin = plan._g_equal, float
        return plan

    def _set_shared(self, m_s, delta, h_base, mask, equal: bool):
        """The state both constructors set. The half gradient is
        h = D u + P_t delta (`_h_base`) with u = y - m_s, delta = m_s - m_t.
        For equal precisions (D = 0) h is every row's a and
        g(y) = 2 h.u + delta'P_t delta + c_alpha."""
        self.mask = mask
        self._m_s = m_s
        self._h_base = h_base
        self._equal = equal
        if equal:
            self.affine = True
            self.interval = [None, None]
            self._basis = None
            self._a_equal = h_base[mask.free]
            self._h_twice = 2.0 * h_base
            self._h_norm = math.sqrt(self._h_twice.dot(self._h_twice))
            self._g_equal = float(delta @ h_base)

    def c_alpha(self, epsilon: float) -> float:
        """c_base + w * f(eps): w = 2 and f = log1p for a Gaussian pair,
        w = |m_s - m_t|^2 and f the identity for a center pair."""
        return self._c_base + self._margin_weight * self._margin(epsilon)

    def terms(self, rows: np.ndarray, epsilons) -> "tuple[np.ndarray, np.ndarray, list]":
        """(a, g(y), scale) for each row of `rows` (N x d, internal space),
        row i at `epsilons[i]`, on a plan with unequal precisions (equal ones
        go through `row_terms`): the half gradient over the free block in
        the eigenbasis (N x |F|), g(y) from the whitened squared distances
        as `mahalanobis_sq` takes them, and the tolerance scale 1 + |c_alpha|."""
        u = rows - self._m_s
        h = _apply(self._d, u) + self._h_base
        a = self._to_eigen(h.take(self.mask.free, axis=1))
        g = _whitened_sq(self._w_t, rows - self._m_t) - _whitened_sq(self._w_s, u)
        c_alpha = [self.c_alpha(eps) for eps in epsilons]
        return a, g + np.array(c_alpha), [1.0 + abs(c) for c in c_alpha]

    def row_terms(self, y: np.ndarray, epsilon: float) -> "tuple[np.ndarray, float, float]":
        """(a, g(y), scale) of one factual y, as `terms` gives them. For equal
        precisions, with one-row products: a is constant, g(y) the affine
        2 h.u + delta'P_t delta + c_alpha (u = y - m_s) and scale the size of
        its terms, 1 + |c_alpha| + delta'P_t delta + |2h| |u|, in the data's
        squared units for a center pair, as g(y)'s rounding is."""
        if not self._equal:
            a, g, scale = self.terms(y[None, :], [epsilon])
            return a[0], float(g[0]), scale[0]
        c_alpha, u = self.c_alpha(epsilon), y - self._m_s
        g = float(u.dot(self._h_twice)) + self._g_equal + c_alpha
        scale = 1.0 + abs(c_alpha) + self._g_equal + self._h_norm * math.sqrt(u.dot(u))
        return self._a_equal, g, scale

    def _to_eigen(self, x: np.ndarray) -> np.ndarray:
        """Rows of free-block vectors in eigen-coordinates: x_i @ B."""
        return x if self._basis is None else _row_products(x, self._basis)

    def _to_features(self, s: np.ndarray) -> np.ndarray:
        """Rows of eigen-coordinate steps on the free features: s_i @ B'."""
        return s if self._basis is None else _row_products(s, self._basis.T)

    def side(self, sign: float) -> _Side:
        """The side of lam = 0 toward which g rises for sign = +1 (g(y) < 0)
        or falls for sign = -1, built on first use."""
        if sign not in self._sides:
            bound = self._e_max if sign > 0.0 else self._e_min
            e_k = bound if bound * sign > 0.0 else None
            self._sides[sign] = _Side(self._e, self._null, sign, e_k)
        return self._sides[sign]


def _precisions(source: GaussianComponent, target: GaussianComponent):
    """(P_s, P_t): vectors 1 / var when both covariances are component-wise,
    d x d matrices otherwise."""
    if source.covariance.kind != FULL and target.covariance.kind != FULL:
        return (
            1.0 / source.covariance.variances(source.d),
            1.0 / target.covariance.variances(target.d),
        )
    return source.precision_matrix(), target.precision_matrix()


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The symmetric map m (a matrix, or a vector for a diagonal map) on a
    vector or on each row of x."""
    if m.ndim == 1:
        return x * m
    return x @ m if x.ndim == 1 else _row_products(x, m)


def _row_products(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x_i @ m for each row x_i, one product per row, so that a row's result
    does not depend on the other rows of the batch (a blocked matrix
    product may round a row differently with other rows beside it)."""
    return np.matmul(x[:, None, :], m)[:, 0, :]


def _whitened_sq(w: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """|W (x - m)|^2 for each row x - m of `diff`, with the products
    `mahalanobis_sq` takes for one vector (a matrix-vector product and a
    dot product per row), so each row gets the same bits."""
    white = np.matmul(w, diff[:, :, None])[:, :, 0] if w.ndim == 2 else diff * w
    return np.vecdot(white, white)


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

    def __init__(self, a, a2, g_y, side: _Side):
        self.a = a
        self.a2 = a2
        self.g_y = g_y
        self.lam0 = side.lam0
        self.kappa = side.kappa
        self.alpha = side.alpha
        self.beta = side.beta

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


def solve_gaussian_rows(plan: GaussianPairPlan, rows, epsilons) -> "list[CfResult]":
    """Nearest point to each factual row on its g(z) = 0 over the free
    features; row i is solved at `epsilons[i]`.

    An affine plan (every center pair, and Gaussian pairs whose free-block
    precisions agree) takes the closed form lam = -g(y) / (2 |a|^2),
    s = lam * a, row by row. Otherwise the multiplier is solved on the
    interval where I - lam * D_FF is positive definite, which holds the
    global minimizer (see the module docstring). Outcomes, per row:

    - `ok`: the minimizer with its multiplier `lam`, confirmed by the
      expansion of g in the solve's coordinates within 1e-8 * scale (see
      `terms`). The factual itself is returned, at lam = 0, when it
      already meets that tolerance.
    - `degenerate_identity`: the free features cannot change g (none are
      free, or D_FF and the gradient vanish) and the factual satisfies it.
    - `no_feasible_solution`: g keeps the factual's sign, beyond the
      tolerance, up to an open end of the interval with no linear term on
      the null space of D_FF. D_FF is then semidefinite and the limit,
      `diagnostics["g_limit"]`, is the extremum of g over the free block.
    - `no_root_found`: the candidate failed the confirmation.

    Every result carries `diagnostics`: the solver `path` (`factual`,
    `interval` or `hard_case` for `ok`), the multiplier `interval` (None
    for an open end) and the Newton `iterations` (0 for the closed form).
    """
    rows = np.asarray(rows, dtype=np.float64)
    if plan.affine:
        return [_closed_form(plan, y, eps) for y, eps in zip(rows, epsilons)]
    a, g_y, scale = plan.terms(rows, epsilons)
    g_ok_tol = [RESIDUAL_TOL_FACTOR * s for s in scale]
    a2 = a * a
    g_list = g_y.tolist()
    # g's slope in lam on the null space of D_FF is 2 |a_null|^2; a
    # gradient there (2 |a_null|) below EIG_ZERO counts as none.
    null_sq = np.vecdot(a2, plan._null_weight)
    has_linear = [2.0 * math.sqrt(v) > EIG_ZERO for v in null_sq.tolist()]
    any_linear = any(has_linear)
    at_factual = [abs(g) <= tol for g, tol in zip(g_list, g_ok_tol)]
    # g rises with lam on the interval: each row moves to the side of its
    # zero, sign +1 when g(y) < 0.
    positive = [g > 0.0 for g in g_list]
    signs = {-1.0 if p else 1.0 for p, f in zip(positive, at_factual) if not f}

    # Everything up to the root, for all rows at once on each side that
    # has rows: toward a pole, g at the pole's edge for the hard-case test;
    # toward an open end, the root bound from the null-space slope and,
    # without one, the limit of g.
    edge = {}
    for sign in signs:
        side = plan.side(sign)
        if side.e_k is not None:
            edge[sign] = (
                g_y + (side.lam0 + side.kappa * POLE_EXCLUSION) * np.vecdot(a2, side.edge_weight)
            ).tolist()
            continue
        hi_linear = g_limit = hi_flat = None
        with np.errstate(divide="ignore", invalid="ignore"):
            if any_linear:
                # Every other term moves g the same way, so the null-space
                # slope alone brings g to zero within |g(y)| / slope.
                hi_linear = (np.abs(g_y) / (2.0 * null_sq)).tolist()
            if not all(has_linear):
                # Without it, g tends to g(y) + sign * sum(a^2 / |e|), the
                # extremum of g over the free block, with terms that decay
                # at least as fast as 1 / (1 + x * min|e|)^2.
                weight = np.vecdot(a2, side.inv_abs_e)
                limit = g_y + sign * weight
                g_limit = limit.tolist()
                hi_flat = ((np.sqrt(weight / np.abs(limit)) - 1.0) / side.min_abs_e).tolist()
        edge[sign] = (hi_linear, g_limit, hi_flat)

    n = rows.shape[0]
    results = [None] * n
    all_diagnostics = [
        {"path": PATH_FACTUAL, "interval": list(plan.interval), "iterations": 0} for _ in range(n)
    ]
    lam = [0.0] * n
    steps = np.zeros(a.shape)
    solved = []
    for i, diagnostics in enumerate(all_diagnostics):
        if at_factual[i]:
            results[i] = _at_factual(rows[i], g_list[i], diagnostics, True)
            continue
        sign = -1.0 if positive[i] else 1.0
        side = plan.side(sign)
        sec = _Secular(a[i], a2[i], g_list[i], side)
        if side.e_k is not None:
            if (edge[sign][i] > 0.0) == positive[i]:
                diagnostics["path"] = PATH_HARD_CASE
                lam[i], steps[i] = sec.lam0, _hard_case(sec, side.block, side.e_k)
                solved.append(i)
                continue
            lo, hi, x0, lo_positive = POLE_EXCLUSION, 1.0, 1.0, not positive[i]
        else:
            hi_linear, g_limit, hi_flat = edge[sign]
            if has_linear[i]:
                hi = hi_linear[i]
            else:
                diagnostics["g_limit"] = g_limit[i]
                if g_limit[i] == 0.0 or (g_limit[i] > 0.0) == positive[i]:
                    diagnostics["path"] = PATH_OPEN_END
                    status = (
                        STATUS_NO_FEASIBLE_SOLUTION
                        if abs(g_limit[i]) > g_ok_tol[i]
                        else STATUS_NO_ROOT_FOUND
                    )
                    results[i] = _no_point(status, g_list[i], diagnostics)
                    continue
                hi = hi_flat[i]
            lo, x0, lo_positive = 0.0, 0.0, positive[i]
        diagnostics["path"] = PATH_INTERVAL
        x, diagnostics["iterations"] = sec.root(
            lo, hi, x0, lo_positive, REFINE_TOL_FACTOR * scale[i]
        )
        lam[i], steps[i] = sec.lam(x), sec.step(x)
        solved.append(i)
    if not solved:
        return results

    # Confirm, place and measure every candidate at once. The expansion
    # g(y + B s) = g(y) + 2 a.s + s' diag(e) s is exact for the
    # eigenvalues of D_FF before small ones were zeroed; the distance is
    # taken from the placed point.
    residual = (
        g_y + 2.0 * np.vecdot(a, steps) + np.vecdot(steps * steps, plan._evals)
    ).tolist()
    free = plan.mask.free
    y_free = rows.take(free, axis=1)
    moved = y_free + plan._to_features(steps)
    dz = moved - y_free
    distance = np.vecdot(dz, dz).tolist()
    points = rows.copy()
    points[:, free] = moved
    for i in solved:
        results[i] = _confirmed(
            points[i], distance[i], lam[i], residual[i], g_ok_tol[i], all_diagnostics[i]
        )
    return results


def _closed_form(plan: GaussianPairPlan, y, epsilon: float) -> CfResult:
    """One factual on an affine plan. g(y + s) = g(y) + 2 a.s, so the
    nearest root is s = lam * a with lam = -g(y) / (2 |a|^2); without a
    gradient (2 |a| below EIG_ZERO) g stays at g(y), its own limit. The
    candidate is confirmed, placed and measured as the interval path does
    it for a stack of rows, with one-row products."""
    a, g, scale = plan.row_terms(y, epsilon)
    tol = RESIDUAL_TOL_FACTOR * scale
    diagnostics = {"path": PATH_FACTUAL, "interval": list(plan.interval), "iterations": 0}
    a_sq = float(a.dot(a))
    movable = 2.0 * math.sqrt(a_sq) > EIG_ZERO
    if abs(g) <= tol:
        return _at_factual(y, g, diagnostics, movable)
    if not movable:
        diagnostics["path"] = PATH_OPEN_END
        diagnostics["g_limit"] = g
        return _no_point(STATUS_NO_FEASIBLE_SOLUTION, g, diagnostics)
    diagnostics["path"] = PATH_INTERVAL
    lam = -g / (2.0 * a_sq)
    step = lam * a
    residual = g + 2.0 * float(a.dot(step))
    if not plan._equal:
        residual += float((step * step).dot(plan._evals))
    free = plan.mask.free
    y_free = y[free]
    moved = y_free + plan._to_features(step[None, :])[0]
    point = y.copy()
    point[free] = moved
    dz = moved - y_free
    return _confirmed(point, float(dz.dot(dz)), lam, residual, tol, diagnostics)


def _confirmed(point, distance: float, lam: float, residual: float, tol: float,
               diagnostics: dict) -> CfResult:
    """`ok` within the tolerance, else `no_root_found` with `lam` noted."""
    if abs(residual) > tol:
        diagnostics["lam"] = lam
        return _no_point(STATUS_NO_ROOT_FOUND, residual, diagnostics)
    return CfResult(
        status=STATUS_OK, counterfactual=point, distance_sq=distance, lam=lam,
        residual=residual, diagnostics=diagnostics,
    )


def _at_factual(row, g: float, diagnostics: dict, movable: bool) -> CfResult:
    """The factual itself: `ok` at lam = 0 when the free features can move
    g, `degenerate_identity` otherwise."""
    return CfResult(
        status=STATUS_OK if movable else STATUS_DEGENERATE_IDENTITY,
        counterfactual=row.copy(), distance_sq=0.0, lam=0.0 if movable else None,
        residual=g, diagnostics=diagnostics,
    )


def _no_point(status: str, residual: float, diagnostics: dict) -> CfResult:
    return CfResult(
        status=status, counterfactual=None, distance_sq=None, residual=residual,
        diagnostics=diagnostics,
    )
