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

Only a and g(y) depend on the factual, and only c_a on eps. Both come
from g expanded around the source mean: with u = y - m_s and
delta = m_s - m_t, a is h = D u + P_t delta over the free block and
g(y) = u' (D u + 2 P_t delta) + delta' P_t delta + c_a, affine when
D = 0, so a far factual, or a pair far from the origin, keeps its
precision. A `GaussianPairPlan` holds the rest for one (source, target,
mask): the terms of that expansion, the eigenbasis of D (the identity
when neither covariance is full), e, the multiplier interval and the
pole data of each side. `solve_gaussian_rows` then solves many factuals
and eps values against one plan, one `RowOutcome` per row, which
`explain_many` makes a `CfResult`. An affine plan takes the closed form
row by row, with one-row products. Otherwise a and g(y) come for all
rows from row-wise products, the side, factual and hard-case tests run
over all rows at once, the rows that need a root are solved in lock
step, one stack per side (a lone row on its side keeps the scalar
iteration), and the confirmation runs over all rows, which evaluates
the exact expansion g(y) + 2 a.s + s' diag(e) s in the solve's own
coordinates. Every step is row by row, so a row gets the same bits
alone as in any stack.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (
    FULL,
    STATUS_DEGENERATE_IDENTITY,
    STATUS_NO_FEASIBLE_SOLUTION,
    STATUS_NO_ROOT_FOUND,
    STATUS_OK,
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
    equation, for one (source, target, mask): m_s, h_base = P_t delta,
    g_base = delta'P_t delta and D = P_t - P_s (None for equal
    precisions, every center pair), and the eigenbasis of D_FF (`eigh`
    when either covariance is full, the identity otherwise).

    `GaussianPairPlan(source, target, mask)` is the plan of two Gaussian
    components, `GaussianPairPlan.for_centers(m_s, m_t, mask)` that of two
    k-means centers, the identity-precision case (see the module
    docstring). Nothing after construction depends on which built it.

    The inputs are trusted: the solver core behind `explain_many` builds
    a plan only after `check_query` has checked its clusters and mask. A
    plan lives for one call; it is not shared across calls. Its public
    surface is `mask`, `affine`, `interval`, `c_alpha(eps)` and
    `terms(rows, epsilons)`.
    """

    def __init__(self, source: GaussianComponent, target: GaussianComponent, mask: Mask):
        log_prior_ratio = math.log(target.prior) - math.log(source.prior)
        p_s, p_t = _precisions(source, target)
        p_diff = p_t - p_s
        delta = source.mean - target.mean
        self._build(mask, source.mean, delta, _apply(p_t, delta),
                    p_diff if np.count_nonzero(p_diff) else None)
        self._c_base = target.log_det - source.log_det - 2.0 * log_prior_ratio
        self._margin_weight, self._margin = 2.0, math.log1p

    @classmethod
    def for_centers(cls, m_s: np.ndarray, m_t: np.ndarray, mask: Mask) -> "GaussianPairPlan":
        """The plan of the center pair (m_s, m_t): identity precisions, so
        h_base = m_s - m_t, and c_alpha(eps) = eps |m_s - m_t|^2."""
        plan = cls.__new__(cls)
        delta = m_s - m_t
        plan._build(mask, m_s, delta, delta, None)
        plan._c_base, plan._margin_weight, plan._margin = 0.0, plan._g_base, float
        return plan

    def _build(self, mask: Mask, m_s, delta, h_base, d):
        """The state of both constructors; D = None (equal precisions)
        leaves nothing to decompose."""
        self.mask = mask
        self._m_s, self._h_base, self._d = m_s, h_base, d
        free = mask.free
        self._h_free = h_base[free]
        self._h_twice = 2.0 * h_base
        self._g_base = float(delta.dot(h_base))
        self._h_norm = math.sqrt(self._h_twice.dot(self._h_twice))
        # None stands for the identity basis of a component-wise pair.
        self._basis = None
        if d is None:
            self._evals = np.zeros(free.size)
            self.affine, self.interval = True, [None, None]
            return
        if d.ndim == 2:
            dmat = d[free][:, free]
            self._evals, self._basis = np.linalg.eigh((dmat + dmat.T) / 2.0)
        else:
            self._evals = d[free]
        self._e = self._evals * (np.abs(self._evals) > EIG_ZERO)
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

    def c_alpha(self, epsilon: float) -> float:
        """c_base + w * f(eps): w = 2 and f = log1p for a Gaussian pair,
        w = |m_s - m_t|^2 and f the identity for a center pair."""
        return self._c_base + self._margin_weight * self._margin(epsilon)

    def terms(self, rows: np.ndarray, epsilons):
        """(a, g(y), scale) of one factual (d,) at eps `epsilons`, or of
        each row of a stack (N x d), row i at `epsilons[i]` (then g(y) an
        array and scale a list); internal space. With u = y - m_s, a is
        h = D u + h_base over the free block in the eigenbasis and
        g(y) = u.(D u + 2 h_base) + g_base + c_alpha. The tolerance scale
        is 1 + |c_alpha|; an affine plan's closed form is confirmed within
        the rounding of g's terms, so its scale adds a bound on each other
        term: g_base + |2 h_base| |u|, and sum_i |(D u)_i| |u_i| when D is
        stored."""
        u = rows - self._m_s
        one = u.ndim == 1
        if self._d is None:
            h_free, w = self._h_free, self._h_twice
            if not one:
                h_free = np.broadcast_to(h_free, (len(u), h_free.size))
        else:
            du = _apply(self._d, u)
            h_free, w = du.take(self.mask.free, axis=-1) + self._h_free, du + self._h_twice
        a = h_free if self._basis is None else _row_products(h_free, self._basis)
        if one:
            c_alpha = self.c_alpha(epsilons)
            scale = 1.0 + abs(c_alpha)
            if self.affine:
                scale = scale + self._g_base + self._h_norm * math.sqrt(u.dot(u))
                if self._d is not None:
                    scale += float(np.abs(du).dot(np.abs(u)))
            return a, float(u.dot(w)) + self._g_base + c_alpha, scale
        c_alpha = [self.c_alpha(eps) for eps in epsilons]
        scale = [1.0 + abs(c) for c in c_alpha]
        if self.affine:
            scale = [s + self._g_base + self._h_norm * math.sqrt(uu)
                     for s, uu in zip(scale, np.vecdot(u, u).tolist())]
            if self._d is not None:
                scale = [s + q for s, q in zip(scale, np.vecdot(np.abs(du), np.abs(u)).tolist())]
        return a, np.vecdot(u, w) + self._g_base + np.array(c_alpha), scale

    def _to_features(self, s: np.ndarray) -> np.ndarray:
        """An eigen-coordinate step, or each row of a stack, on the free
        features: s_i @ B'."""
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
    """x_i @ m for each row x_i of x (or for x itself, one row), one product
    per row, so that a row's result does not depend on the other rows of
    the batch (a blocked matrix product may round a row differently with
    other rows beside it)."""
    return np.matmul(x[..., None, :], m)[..., 0, :]


# ---------------------------------------------------------------------------
# Solve on the certified interval
#
# The solve runs in a variable x >= 0 with lam = lam0 + kappa * x and
# 1 - lam * e_i = alpha_i + beta_i * x. Toward a pole 1/e_k, x is the
# relative gap to it (lam = (1 - x) / e_k), so the coordinates on the pole
# keep their gap exactly however close the root lies; toward an open end,
# x = |lam|.


def _scalar_root(side: _Side, a2, g_y, lo, hi, x, lo_positive, tol):
    """Root of g on [lo, hi] along one side for one row (a2 of length |F|,
    the rest scalars; 0 <= lo < hi; g(lo) > 0 iff lo_positive, g(hi) of the
    other sign or zero), iterated from x and kept inside the bracket by
    bisection, geometric while the bracket spans more than a factor of 4.
    Toward an open end the iteration is Newton's; toward a pole (at x = 0)
    it takes the step that is exact for c1 + c2 / x^2, the shape of g near
    the pole, where Newton's step only grows by half per iteration. Stops
    at |g| <= tol or when the bracket reaches floating-point resolution;
    returns (x, iterations)."""
    at_pole = side.lam0 != 0.0
    two_kappa = 2.0 * side.kappa

    def secular(x):
        gap = side.alpha + side.beta * x
        q = a2 / (gap * gap)
        lam = side.lam0 + side.kappa * x
        return g_y + lam * float(q @ (1.0 + gap)), two_kappa * float(q @ (1.0 / gap))

    gx, dgx = secular(x)
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
        gx, dgx = secular(x)
        if (gx > 0.0) == lo_positive:
            lo = x
        else:
            hi = x
    return x, REFINE_MAX_ITER


def _lockstep_root(side: _Side, a2, g_y, lo, hi, x, lo_positive, tol):
    """`_scalar_root` for a stack of rows on one side (a2 N x |F|, the
    rest length N), all rows iterated in lock step: each row takes the
    same steps, with the same roundings, as it would alone, and keeps its
    x once its iteration stops. Returns (x, iterations), both arrays."""
    at_pole = side.lam0 != 0.0
    two_kappa = 2.0 * side.kappa

    def secular(x):
        gap = side.alpha + side.beta * x[:, None]
        q = a2 / (gap * gap)
        lam = side.lam0 + side.kappa * x
        return g_y + lam * np.vecdot(q, 1.0 + gap), two_kappa * np.vecdot(q, 1.0 / gap)

    iterations = np.full(x.shape, REFINE_MAX_ITER)
    active = np.ones(x.shape, dtype=bool)
    # Every row's candidate step is computed, also where it is then
    # discarded, so its divisions and overflows are silent.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gx, dgx = secular(x)
        for it in range(1, REFINE_MAX_ITER + 1):
            stop = np.abs(gx) <= tol
            if at_pole:
                dx = dgx * x
                den = 2.0 * gx + dx
                xn = np.where(dx * den > 0.0, x * np.sqrt(dx / den), np.nan)
            else:
                xn = np.where(dgx != 0.0, x - gx / dgx, np.nan)
            bisect = ~((lo <= xn) & (xn <= hi)) | (xn == x)
            mid = np.where((lo > 0.0) & (hi > 4.0 * lo), np.sqrt(lo * hi), 0.5 * (lo + hi))
            stop |= bisect & ~((lo < mid) & (mid < hi))
            stop &= active
            iterations[stop] = it - 1
            active &= ~stop
            if not active.any():
                break
            x = np.where(active, np.where(bisect, mid, xn), x)
            gx, dgx = secular(x)
            lo_side = (gx > 0.0) == lo_positive
            lo = np.where(lo_side, x, lo)
            hi = np.where(lo_side, hi, x)
    return x, iterations


def _hard_case(side: _Side, a, a2, g_y) -> np.ndarray:
    """Step at lam = 1/e_k: every other coordinate at its limit, the pole
    block moved along its own gradient (or its first coordinate when that
    vanishes) by the tau that solves g = 0."""
    lam, block = side.lam0, side.block
    rest = ~block
    step = np.zeros_like(a)
    alpha = side.alpha[rest]
    step[rest] = lam * a[rest] / alpha
    g_lim = g_y + lam * float((a2[rest] / (alpha * alpha)) @ (1.0 + alpha))
    a_block = a[block]
    n_a = float(np.linalg.norm(a_block))
    # e_k tau^2 + 2 n_a tau + g_lim = 0, where e_k and g_lim differ in
    # sign: take the root of smaller magnitude.
    root = math.sqrt(max(n_a * n_a - side.e_k * g_lim, 0.0))
    tau = -g_lim / (n_a + root) if n_a + root > 0.0 else 0.0
    if n_a > 0.0:
        step[block] = tau * (a_block / n_a)
    else:
        step[np.flatnonzero(block)[0]] = abs(tau)
    return step


class RowOutcome(NamedTuple):
    """One row's solve: the fields of `CfResult` that the solver sets, by
    the same names; `explain_many` adds the rest when it builds the result."""

    status: str
    counterfactual: "np.ndarray | None"
    distance_sq: "float | None"
    lam: "float | None"
    residual: float
    diagnostics: dict


def solve_gaussian_rows(plan: GaussianPairPlan, rows, epsilons) -> "list[RowOutcome]":
    """Nearest point to each factual row on its g(z) = 0 over the free
    features, as one `RowOutcome` per row; row i is solved at
    `epsilons[i]`.

    An affine plan (every center pair, and Gaussian pairs whose free-block
    precisions agree) takes the closed form lam = -g(y) / (2 |a|^2),
    s = lam * a, row by row. Otherwise the multiplier is solved on the
    interval where I - lam * D_FF is positive definite, which holds the
    global minimizer (see the module docstring): the rows that need a
    root on one side of lam = 0 are solved in lock step as one stack
    (`_lockstep_root`), a lone row by the scalar iteration
    (`_scalar_root`); both give a row the same bits. Outcomes, per row:

    - `ok`: the minimizer with its multiplier `lam`, confirmed by the
      expansion of g in the solve's coordinates within 1e-8 * scale (see
      `terms`); both must be finite. The factual itself (the row of
      `rows`, not a copy) is returned, at lam = 0, when it already meets
      that tolerance.
    - `degenerate_identity`: the free features cannot change g (none are
      free, or D_FF and the gradient vanish) and the factual satisfies it.
    - `no_feasible_solution`: g keeps the factual's sign, beyond the
      tolerance, up to an open end of the interval with no linear term on
      the null space of D_FF. D_FF is then semidefinite and the limit,
      `diagnostics["g_limit"]`, is the extremum of g over the free block.
    - `no_root_found`: the candidate failed the confirmation, or the
      tolerance or residual overflowed.

    Every outcome carries `residual` and `diagnostics`: the solver `path`
    (`factual`, `interval` or `hard_case` for `ok`), the multiplier
    `interval` (None for an open end) and the Newton `iterations` (0 for
    the closed form).
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
    at_factual = [abs(g) <= tol < math.inf for g, tol in zip(g_list, g_ok_tol)]
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
    outcomes = [None] * n
    all_diagnostics = [
        {"path": PATH_FACTUAL, "interval": list(plan.interval), "iterations": 0} for _ in range(n)
    ]
    lam = [0.0] * n
    steps = np.zeros(a.shape)
    solved = []
    # Interval rows by side: (row, lo, hi, x0, lo_positive) of each root.
    brackets = {}
    for i, diagnostics in enumerate(all_diagnostics):
        if at_factual[i]:
            outcomes[i] = RowOutcome(STATUS_OK, rows[i], 0.0, 0.0, g_list[i], diagnostics)
            continue
        sign = -1.0 if positive[i] else 1.0
        side = plan.side(sign)
        if side.e_k is not None:
            if (edge[sign][i] > 0.0) == positive[i]:
                diagnostics["path"] = PATH_HARD_CASE
                lam[i], steps[i] = side.lam0, _hard_case(side, a[i], a2[i], g_list[i])
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
                    outcomes[i] = RowOutcome(status, None, None, None, g_list[i], diagnostics)
                    continue
                hi = hi_flat[i]
            lo, x0, lo_positive = 0.0, 0.0, positive[i]
        diagnostics["path"] = PATH_INTERVAL
        brackets.setdefault(side, []).append((i, lo, hi, x0, lo_positive))
        solved.append(i)

    # The roots: a lone row on its side by the scalar iteration, several
    # in lock step, which gives each row the bits it gets alone.
    for side, bracket in brackets.items():
        if len(bracket) == 1:
            i, lo, hi, x0, lo_positive = bracket[0]
            x, all_diagnostics[i]["iterations"] = _scalar_root(
                side, a2[i], g_list[i], lo, hi, x0, lo_positive, REFINE_TOL_FACTOR * scale[i]
            )
            lam[i] = side.lam0 + side.kappa * x
            steps[i] = lam[i] * a[i] / (side.alpha + side.beta * x)
            continue
        idx, lo, hi, x0, lo_positive = (np.array(column) for column in zip(*bracket))
        tol = REFINE_TOL_FACTOR * np.array(scale)[idx]
        x, iterations = _lockstep_root(side, a2[idx], g_y[idx], lo, hi, x0, lo_positive, tol)
        lam_x = side.lam0 + side.kappa * x
        steps[idx] = lam_x[:, None] * a[idx] / (side.alpha + side.beta * x[:, None])
        for i, lam_i, it in zip(idx.tolist(), lam_x.tolist(), iterations.tolist()):
            lam[i], all_diagnostics[i]["iterations"] = lam_i, it

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
        outcomes[i] = _confirmed(
            points[i], distance[i], lam[i], residual[i], g_ok_tol[i], all_diagnostics[i]
        )
    return outcomes


def _closed_form(plan: GaussianPairPlan, y, epsilon: float) -> RowOutcome:
    """One factual on an affine plan. g(y + s) = g(y) + 2 a.s, so the
    nearest root is s = lam * a with lam = -g(y) / (2 |a|^2); without a
    gradient (2 |a| below EIG_ZERO) g stays at g(y), its own limit. The
    candidate is confirmed, placed and measured as the interval path does
    it for a stack of rows, with one-row products."""
    a, g, scale = plan.terms(y, epsilon)
    tol = RESIDUAL_TOL_FACTOR * scale
    diagnostics = {"path": PATH_FACTUAL, "interval": list(plan.interval), "iterations": 0}
    a_sq = float(a.dot(a))
    movable = 2.0 * math.sqrt(a_sq) > EIG_ZERO
    if abs(g) <= tol < math.inf:
        if movable:
            return RowOutcome(STATUS_OK, y, 0.0, 0.0, g, diagnostics)
        return RowOutcome(STATUS_DEGENERATE_IDENTITY, y, 0.0, None, g, diagnostics)
    if not movable:
        diagnostics["path"] = PATH_OPEN_END
        diagnostics["g_limit"] = g
        status = STATUS_NO_FEASIBLE_SOLUTION if abs(g) > tol else STATUS_NO_ROOT_FOUND
        return RowOutcome(status, None, None, None, g, diagnostics)
    diagnostics["path"] = PATH_INTERVAL
    lam = -g / (2.0 * a_sq)
    step = lam * a
    residual = g + 2.0 * float(a.dot(step)) + float((step * step).dot(plan._evals))
    free = plan.mask.free
    y_free = y[free]
    moved = y_free + plan._to_features(step)
    point = y.copy()
    point[free] = moved
    dz = moved - y_free
    return _confirmed(point, float(dz.dot(dz)), lam, residual, tol, diagnostics)


def _confirmed(point, distance: float, lam: float, residual: float, tol: float,
               diagnostics: dict) -> RowOutcome:
    """`ok` for a finite residual within a finite tolerance, else
    `no_root_found` with `lam` noted. A tolerance or residual that
    overflowed (a huge eps or a far factual) confirms nothing."""
    if not abs(residual) <= tol < math.inf:
        diagnostics["lam"] = lam
        return RowOutcome(STATUS_NO_ROOT_FOUND, None, None, None, residual, diagnostics)
    return RowOutcome(STATUS_OK, point, distance, lam, residual, diagnostics)
