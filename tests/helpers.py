"""Builders for randomized test problems."""

from types import SimpleNamespace

import numpy as np

import clustercf as cf
from clustercf.gaussian_cf import GaussianPairPlan, solve_gaussian_rows
from oracles import random_spd


def random_covariance(rng, d, kind):
    if kind == cf.FULL:
        return cf.CovarianceSpec.full(random_spd(rng, d))
    if kind == cf.DIAGONAL:
        return cf.CovarianceSpec.diagonal(rng.uniform(0.3, 2.5, size=d))
    return cf.CovarianceSpec.spherical(float(rng.uniform(0.3, 2.5)))


def random_pair_components(rng, d, kind, separation=2.0):
    pi_s = float(rng.uniform(0.3, 0.7))
    source = cf.GaussianComponent(
        mean=rng.normal(size=d), covariance=random_covariance(rng, d, kind), prior=pi_s
    )
    target = cf.GaussianComponent(
        mean=rng.normal(size=d) + separation,
        covariance=random_covariance(rng, d, kind),
        prior=1.0 - pi_s,
    )
    return source, target


def random_mask(rng, d, min_free=1):
    bits = rng.random(d) < 0.6
    while int(bits.sum()) < min_free:
        bits[int(rng.integers(d))] = True
    return cf.Mask(bits)


def random_pair_problem(rng, d, kind, epsilon=0.0, mask=None, separation=2.0):
    source, target = random_pair_components(rng, d, kind, separation)
    y = source.mean + rng.normal(scale=0.4, size=d)
    if mask is None:
        mask = cf.Mask.all_free(d)
    return pair_case(source, target, y, mask, epsilon)


def pair_case(source, target, y, mask, epsilon):
    """One factual and epsilon on the pair plan of (source, target, mask)."""
    plan = GaussianPairPlan(source, target, mask)
    return SimpleNamespace(
        plan=plan, source=source, target=target, y=np.asarray(y, dtype=np.float64), mask=mask,
        epsilon=epsilon, c_alpha=plan.c_alpha(epsilon), affine=plan.affine,
    )


def solve_case(case):
    """The plan's batched solve on the one row of a pair case."""
    return solve_gaussian_rows(case.plan, case.y[None, :], [case.epsilon])[0]


def centroid_plane(m_s, m_t, epsilon, mask):
    """The pair plane z.v = c of two centers, read through their plan: v is
    the half gradient of g (`v_free` and `v_fixed` its blocks under the
    mask), g(0) = -2c and c_alpha(eps) = d_eps = eps |m_s - m_t|^2."""
    m_s, m_t = np.asarray(m_s, dtype=np.float64), np.asarray(m_t, dtype=np.float64)
    d = m_s.size
    plan = GaussianPairPlan.for_centers(m_s, m_t, mask)
    a, g_zero, _ = GaussianPairPlan.for_centers(m_s, m_t, cf.Mask.all_free(d)).row_terms(
        np.zeros(d), epsilon
    )
    v = a.copy()
    return SimpleNamespace(
        plan=plan, epsilon=epsilon, v=v, c=-g_zero / 2.0, d_eps=plan.c_alpha(epsilon),
        v_free=plan.row_terms(np.zeros(d), epsilon)[0].copy(), v_fixed=v[mask.fixed],
    )


def solve_centroid_case(plane, y):
    """The centroid plan's solve on the one factual y at the plane's epsilon."""
    return solve_gaussian_rows(plane.plan, np.asarray(y, dtype=np.float64)[None, :],
                               [plane.epsilon])[0]


def two_cluster_gaussian_model(kind=cf.FULL):
    """Fixed, well-separated 2-D pair used by several boundary tests."""
    if kind == cf.FULL:
        cov_s = cf.CovarianceSpec.full([[1.0, 0.4], [0.4, 0.8]])
        cov_t = cf.CovarianceSpec.full([[0.7, -0.2], [-0.2, 1.3]])
    elif kind == cf.DIAGONAL:
        cov_s = cf.CovarianceSpec.diagonal([1.0, 0.6])
        cov_t = cf.CovarianceSpec.diagonal([0.5, 1.4])
    else:
        cov_s = cf.CovarianceSpec.spherical(1.0)
        cov_t = cf.CovarianceSpec.spherical(0.7)
    return cf.ClusterModel(
        kind=cf.GAUSSIAN,
        components=(
            cf.GaussianComponent(mean=[0.0, 0.0], covariance=cov_s, prior=0.55),
            cf.GaussianComponent(mean=[3.0, 1.0], covariance=cov_t, prior=0.45),
        ),
    )
