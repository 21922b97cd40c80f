"""Independent reference computations for the test suite.

Everything here deliberately avoids the production code paths: densities
use explicit inverses and slogdet, projections use least squares, and
level sets come from grid scans with sign-change interpolation.
"""

import math

import mpmath
import numpy as np


def covariance_matrix(spec, d):
    """The d x d matrix of a covariance spec: the full matrix, or the
    diagonal of its per-feature variances."""
    if spec.kind == "full":
        return spec.data
    return np.diag(spec.variances(d))


def loop_distance_sq(a, b):
    total = 0.0
    for ai, bi in zip(a, b):
        total += (ai - bi) ** 2
    return total


def naive_log_density(mean, cov_matrix, x):
    """Direct formula with an explicit matrix inverse and slogdet."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov_matrix, dtype=float)
    x = np.asarray(x, dtype=float)
    d = mean.size
    diff = x - mean
    inv = np.linalg.inv(cov)
    _, log_det = np.linalg.slogdet(cov)
    return -0.5 * (diff @ inv @ diff + log_det + d * math.log(2 * math.pi))


def weighted_log_density(component, x):
    """log(prior) + the direct-formula log density of a `GaussianComponent`."""
    cov = covariance_matrix(component.covariance, component.mean.size)
    return math.log(component.prior) + naive_log_density(component.mean, cov, x)


def loop_score_matrix(model, rows):
    """Assignment scores one component at a time: a Cholesky factor of each
    covariance matrix and a solve against it for every row."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    d = rows.shape[1]
    out = np.empty((rows.shape[0], len(model.components)))
    for k, comp in enumerate(model.components):
        chol = np.linalg.cholesky(covariance_matrix(comp.covariance, d))
        a = np.linalg.solve(chol, (rows - comp.mean).T)
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        out[:, k] = math.log(comp.prior) - 0.5 * (
            np.sum(a * a, axis=0) + log_det + d * math.log(2 * math.pi)
        )
    return out


def naive_assignment(means, cov_matrices, priors, x):
    scores = [
        math.log(p) + naive_log_density(m, c, x)
        for m, c, p in zip(means, cov_matrices, priors)
    ]
    return int(np.argmax(scores))


# ---------------------------------------------------------------------------
# Hyperplane projection oracles


def project_onto_plane(point, v, c):
    """Exact projection of `point` onto {x : x . v = c}."""
    v = np.asarray(v, dtype=float)
    point = np.asarray(point, dtype=float)
    return point - ((point @ v - c) / (v @ v)) * v


def lstsq_plane_distance_sq(y_free, v_free, c_free):
    """Minimum-norm correction onto {z : z . v = c} via least squares."""
    a = np.asarray(v_free, dtype=float)[None, :]
    b = np.asarray([c_free - float(a[0] @ y_free)])
    delta, *_ = np.linalg.lstsq(a, b, rcond=None)
    return float(delta @ delta), y_free + delta


def sampled_plane_min_distance_sq(y_free, v_free, c_free, rng, n=200, spread=5.0):
    """Upper bound on the optimum: random points projected exactly onto
    the plane."""
    f = y_free.size
    pts = y_free[None, :] + rng.normal(scale=spread, size=(n, f))
    best = math.inf
    for p in pts:
        proj = project_onto_plane(p, v_free, c_free)
        best = min(best, float(np.sum((proj - y_free) ** 2)))
    return best


# ---------------------------------------------------------------------------
# Gaussian pair residual and level-set scans (2-D)


def pair_residual_fn(m_s, cov_s, pi_s, m_t, cov_t, pi_t, epsilon):
    """Vectorized residual over point columns, built from explicit inverses."""
    inv_s = np.linalg.inv(cov_s)
    inv_t = np.linalg.inv(cov_t)
    _, lds = np.linalg.slogdet(cov_s)
    _, ldt = np.linalg.slogdet(cov_t)
    c_alpha = ldt - lds - 2.0 * (math.log(pi_t) - math.log(pi_s)) + 2.0 * math.log1p(epsilon)

    def res(points):
        pts = np.asarray(points, dtype=float)
        dt = pts - np.asarray(m_t)[:, None]
        ds = pts - np.asarray(m_s)[:, None]
        qt = np.einsum("in,in->n", dt, inv_t @ dt)
        qs = np.einsum("in,in->n", ds, inv_s @ ds)
        return qt - qs + c_alpha

    return res, c_alpha


def level_set_min_distance_2d(res, y, xs, ys):
    """Best squared distance from y to the interpolated zero level set of
    `res` on the xs x ys grid; also returns the number of crossing points."""
    nx, ny = xs.size, ys.size
    grid = np.empty((nx, ny))
    chunk = max(1, int(2_000_000 // ny))
    for i0 in range(0, nx, chunk):
        i1 = min(nx, i0 + chunk)
        xx = np.repeat(xs[i0:i1], ny)
        yy = np.tile(ys, i1 - i0)
        grid[i0:i1] = res(np.stack([xx, yy])).reshape(i1 - i0, ny)

    best = math.inf
    count = 0

    # Crossings along y (within a row).
    a = grid[:, :-1]
    b = grid[:, 1:]
    hmask = np.sign(a) * np.sign(b) < 0
    if hmask.any():
        ii, jj = np.nonzero(hmask)
        t = a[ii, jj] / (a[ii, jj] - b[ii, jj])
        px = xs[ii]
        py = ys[jj] + t * (ys[jj + 1] - ys[jj])
        d2 = (px - y[0]) ** 2 + (py - y[1]) ** 2
        best = min(best, float(d2.min()))
        count += ii.size

    # Crossings along x (between rows).
    a = grid[:-1, :]
    b = grid[1:, :]
    vmask = np.sign(a) * np.sign(b) < 0
    if vmask.any():
        ii, jj = np.nonzero(vmask)
        t = a[ii, jj] / (a[ii, jj] - b[ii, jj])
        px = xs[ii] + t * (xs[ii + 1] - xs[ii])
        py = ys[jj]
        d2 = (px - y[0]) ** 2 + (py - y[1]) ** 2
        best = min(best, float(d2.min()))
        count += ii.size

    exact = np.nonzero(grid == 0.0)
    if exact[0].size:
        d2 = (xs[exact[0]] - y[0]) ** 2 + (ys[exact[1]] - y[1]) ** 2
        best = min(best, float(d2.min()))
        count += exact[0].size
    return best, count


def line_level_set_min_distance(res, y, free_axis, pts):
    """1-D variant for a single actionable coordinate: scan the line through
    y along `free_axis`, interpolate sign changes."""
    n = pts.size
    coords = np.repeat(np.asarray(y, dtype=float)[:, None], n, axis=1)
    coords[free_axis] = pts
    vals = res(coords)
    best = math.inf
    count = 0
    sign = np.sign(vals)
    cross = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    for j in cross:
        t = vals[j] / (vals[j] - vals[j + 1])
        p = pts[j] + t * (pts[j + 1] - pts[j])
        best = min(best, (p - y[free_axis]) ** 2)
        count += 1
    for j in np.nonzero(vals == 0.0)[0]:
        best = min(best, (pts[j] - y[free_axis]) ** 2)
        count += 1
    return best, count


# ---------------------------------------------------------------------------
# Stationary points of the pair problem, from explicit inverses
#
# Minimizing |z_F - y_F|^2 subject to g(z) = 0 with z_G = y_G gives the
# stationarity condition z_F - y_F = lam * (D_FF z_F - b), whose right side
# is lam times half the gradient of g at z over the free block.


def constraint_residual(case, z):
    """g(z) of a pair case: the difference of the two squared Mahalanobis
    distances, each from a solve against the dense covariance matrix, plus
    c_alpha. Rounding grows with |z|^2 here; see `mpmath_residual` for far
    points."""
    z = np.asarray(z, dtype=np.float64)

    def quad(comp):
        diff = z - comp.mean
        return float(diff @ np.linalg.solve(covariance_matrix(comp.covariance, z.size), diff))

    return quad(case.target) - quad(case.source) + case.c_alpha


def mpmath_residual(source, target, epsilon, z, dps=50):
    """(g(z), c_alpha) of a Gaussian pair at the float point z, evaluated in
    `dps`-digit arithmetic from the covariance matrices (LU solves and
    determinants), so that no float rounding enters. Given two center
    vectors instead of components, it is the center pair's
    g(z) = |z - m_t|^2 - |z - m_s|^2 + eps |m_s - m_t|^2."""
    with mpmath.workdps(dps):
        d = len(z)
        if isinstance(source, np.ndarray):
            z_mp, s_mp, t_mp = ([mpmath.mpf(float(x)) for x in v] for v in (z, source, target))
            c_alpha = mpmath.mpf(epsilon) * sum((a - b) ** 2 for a, b in zip(s_mp, t_mp))
            g = (sum((a - b) ** 2 for a, b in zip(z_mp, t_mp))
                 - sum((a - b) ** 2 for a, b in zip(z_mp, s_mp)) + c_alpha)
            return float(g), float(c_alpha)

        def quad_and_log_det(comp):
            cov = mpmath.matrix(covariance_matrix(comp.covariance, d).tolist())
            diff = mpmath.matrix([mpmath.mpf(float(a)) - mpmath.mpf(float(b))
                                  for a, b in zip(z, comp.mean)])
            x = mpmath.lu_solve(cov, diff)
            return sum(diff[i] * x[i] for i in range(d)), mpmath.log(mpmath.det(cov))

        q_t, ld_t = quad_and_log_det(target)
        q_s, ld_s = quad_and_log_det(source)
        c_alpha = (ld_t - ld_s - 2 * (mpmath.log(target.prior) - mpmath.log(source.prior))
                   + 2 * mpmath.log1p(mpmath.mpf(epsilon)))
        return float(q_t - q_s + c_alpha), float(c_alpha)


def half_gradient(m_s, cov_s, m_t, cov_t, z, free):
    """Half the gradient of g at z over the free block,
    (S_t^-1 (z - m_t) - S_s^-1 (z - m_s))_F."""
    z = np.asarray(z, dtype=float)
    inv_s = np.linalg.inv(np.asarray(cov_s, dtype=float))
    inv_t = np.linalg.inv(np.asarray(cov_t, dtype=float))
    return (inv_t @ (z - np.asarray(m_t)) - inv_s @ (z - np.asarray(m_s)))[free]


def free_precision_difference(cov_s, cov_t, free):
    """D_FF: the symmetrized free block of S_t^-1 - S_s^-1."""
    inv_s = np.linalg.inv(np.asarray(cov_s, dtype=float))
    inv_t = np.linalg.inv(np.asarray(cov_t, dtype=float))
    dmat = (inv_t - inv_s)[np.ix_(free, free)]
    return (dmat + dmat.T) / 2.0


def linear_term(m_s, cov_s, m_t, cov_t, y, free, fixed):
    """b, built from the precision blocks so that half_gradient(z) is
    D_FF z_F - b whenever z_G = y_G."""
    inv_s = np.linalg.inv(np.asarray(cov_s, dtype=float))
    inv_t = np.linalg.inv(np.asarray(cov_t, dtype=float))
    y = np.asarray(y, dtype=float)
    m_s = np.asarray(m_s, dtype=float)
    m_t = np.asarray(m_t, dtype=float)
    b = inv_t[np.ix_(free, free)] @ m_t[free] - inv_s[np.ix_(free, free)] @ m_s[free]
    if fixed.size:
        b = b - (
            inv_t[np.ix_(free, fixed)] @ (y[fixed] - m_t[fixed])
            - inv_s[np.ix_(free, fixed)] @ (y[fixed] - m_s[fixed])
        )
    return b


def stationary_point(m_s, cov_s, m_t, cov_t, y, free, fixed, lam):
    """z(lam): z_F = (I - lam * D_FF)^-1 (y_F - lam * b), z_G = y_G."""
    dmat = free_precision_difference(cov_s, cov_t, free)
    b = linear_term(m_s, cov_s, m_t, cov_t, y, free, fixed)
    z = np.array(y, dtype=float)
    z[free] = np.linalg.solve(np.eye(free.size) - lam * dmat, z[free] - lam * b)
    return z


def stationary_poles(cov_s, cov_t, free):
    """The multipliers where I - lam * D_FF is singular: 1 / eig(D_FF) over
    the eigenvalues above 1e-12 in magnitude, sorted."""
    evals = np.linalg.eigvalsh(free_precision_difference(cov_s, cov_t, free))
    return np.sort(1.0 / evals[np.abs(evals) > 1e-12])


def global_optimality_certificate(m_s, cov_s, m_t, cov_t, y, z, free):
    """min eig(I - lam * D_FF) at a stationary point z of the pair problem.

    lam is recovered from stationarity, z_F - y_F = lam * (D_FF z_F - b),
    whose right side is half the gradient of g at z over the free block.
    The global minimizer has a non-negative value (More 1993)."""
    half_grad = half_gradient(m_s, cov_s, m_t, cov_t, z, free)
    step = (np.asarray(z, dtype=float) - np.asarray(y, dtype=float))[free]
    lam = float(step @ half_grad) / float(half_grad @ half_grad)
    dmat = free_precision_difference(cov_s, cov_t, free)
    return float(np.min(np.linalg.eigvalsh(np.eye(len(free)) - lam * dmat)))


# ---------------------------------------------------------------------------
# Expanded single-parameter equation for full covariances (test-only path)


def expanded_full_lambda_equation(m_s, cov_s, pi_s, m_t, cov_t, pi_t, y, free, fixed, epsilon, lam):
    """The fully expanded scalar equation with its e, c_f, c_g, c_l constants,
    assembled from explicit inverses and block partitions."""
    inv_s = np.linalg.inv(cov_s)
    inv_t = np.linalg.inv(cov_t)
    _, lds = np.linalg.slogdet(cov_s)
    _, ldt = np.linalg.slogdet(cov_t)
    c_alpha = ldt - lds - 2.0 * (math.log(pi_t) - math.log(pi_s)) + 2.0 * math.log1p(epsilon)

    y = np.asarray(y, dtype=float)
    m_s = np.asarray(m_s, dtype=float)
    m_t = np.asarray(m_t, dtype=float)
    ps_ff = inv_s[np.ix_(free, free)]
    pt_ff = inv_t[np.ix_(free, free)]
    ms_f, mt_f = m_s[free], m_t[free]
    dmat = free_precision_difference(cov_s, cov_t, free)
    d_vec = linear_term(m_s, cov_s, m_t, cov_t, y, free, fixed)
    z_f = stationary_point(m_s, cov_s, m_t, cov_t, y, free, fixed, lam)[free]

    c_g = 0.0
    c_l = 0.0
    if fixed.size:
        ps_fg = inv_s[np.ix_(free, fixed)]
        pt_fg = inv_t[np.ix_(free, fixed)]
        ps_gg = inv_s[np.ix_(fixed, fixed)]
        pt_gg = inv_t[np.ix_(fixed, fixed)]
        zg_mt = y[fixed] - m_t[fixed]
        zg_ms = y[fixed] - m_s[fixed]
        c_g = float(zg_mt @ pt_gg @ zg_mt - zg_ms @ ps_gg @ zg_ms)
        c_l = float(2.0 * (z_f - mt_f) @ pt_fg @ zg_mt - 2.0 * (z_f - ms_f) @ ps_fg @ zg_ms)

    bmat = np.eye(free.size) - lam * dmat
    yld = y[free] - lam * d_vec
    e_vec = pt_ff @ mt_f - ps_ff @ ms_f
    c_f = float(mt_f @ pt_ff @ mt_f - ms_f @ ps_ff @ ms_f)
    term1 = float(yld @ np.linalg.solve(bmat, dmat @ np.linalg.solve(bmat, yld)))
    term2 = -2.0 * float(yld @ np.linalg.solve(bmat, e_vec))
    return term1 + term2 + c_f + c_l + c_g + c_alpha


# ---------------------------------------------------------------------------
# Data generation


def make_blobs(rng, centers, sigma, n_per):
    """Isotropic Gaussian blobs; returns (rows, true_labels)."""
    centers = np.asarray(centers, dtype=float)
    rows = []
    labels = []
    for k, c in enumerate(centers):
        rows.append(c + rng.normal(scale=sigma, size=(n_per, centers.shape[1])))
        labels.extend([k] * n_per)
    return np.vstack(rows), np.asarray(labels)


def random_spd(rng, d, base=0.5):
    a = rng.normal(size=(d, d))
    return a @ a.T / d + base * np.eye(d)
