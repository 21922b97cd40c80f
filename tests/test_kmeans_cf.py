import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clustercf as cf
from helpers import centroid_plane, random_mask, solve_centroid_case
from oracles import (
    lstsq_plane_distance_sq,
    mpmath_residual,
    project_onto_plane,
    sampled_plane_min_distance_sq,
)

# A center pair is the identity-precision case of a Gaussian pair: its plan
# is affine and the solve takes the closed-form projection onto the plane
# z.v = c. `centroid_plane` reads (v, c, d_eps) back through the plan.

# The center pair of the hand-checked cases.
M_S = np.array([0.0, 0.0])
M_T = np.array([2.0, 0.0])


def test_build_constraint_eps_zero():
    con = centroid_plane(M_S, M_T, 0.0, cf.Mask.all_free(2))
    assert con.v.tolist() == [-2.0, 0.0]
    assert con.c == -2.0
    assert con.d_eps == 0.0


def test_build_constraint_eps_half():
    con = centroid_plane(M_S, M_T, 0.5, cf.Mask.all_free(2))
    assert con.d_eps == 2.0
    assert con.c == -3.0


def test_constraint_recomputes_from_centers():
    rng = np.random.default_rng(2)
    m_s, m_t = rng.normal(size=(2, 6))
    eps = 0.7
    con = centroid_plane(m_s, m_t, eps, cf.Mask.all_free(6))
    d_eps = eps * float(np.sum((m_t - m_s) ** 2))
    c = (float(m_s @ m_s) - float(m_t @ m_t) - d_eps) / 2.0
    assert con.c == pytest.approx(c, rel=1e-12)
    assert con.d_eps == pytest.approx(d_eps, rel=1e-12)


def test_plane_membership_equals_distance_identity():
    # z . v = c holds exactly when |z-m_s|^2 = |z-m_t|^2 + d_eps.
    rng = np.random.default_rng(8)
    m_s, m_t = rng.normal(size=(2, 5))
    con = centroid_plane(m_s, m_t, 0.4, cf.Mask.all_free(5))
    for _ in range(20):
        z = project_onto_plane(rng.normal(scale=3.0, size=5), con.v, con.c)
        lhs = float(np.sum((z - m_s) ** 2))
        rhs = float(np.sum((z - m_t) ** 2)) + con.d_eps
        assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(con.c)))


def test_midpoint_projection():
    mask = cf.Mask.all_free(2)
    con = centroid_plane(M_S, M_T, 0.0, mask)
    res = solve_centroid_case(con, np.array([0.0, 0.0]))
    assert res.status == cf.STATUS_OK
    assert res.counterfactual.tolist() == [1.0, 0.0]
    assert res.distance_sq == 1.0


def test_horizontal_only_mask():
    mask = cf.Mask.from_string("1,0")
    con = centroid_plane(M_S, M_T, 0.5, mask)
    res = solve_centroid_case(con, np.array([0.0, 3.0]))
    assert res.status == cf.STATUS_OK
    assert res.counterfactual.tolist() == [1.5, 3.0]


def test_vertical_only_mask_is_infeasible():
    mask = cf.Mask.from_string("0,1")
    con = centroid_plane(M_S, M_T, 0.0, mask)
    res = solve_centroid_case(con, np.array([0.0, 3.0]))
    assert res.status == cf.STATUS_NO_FEASIBLE_SOLUTION
    assert res.counterfactual is None


def test_degenerate_identity_when_factual_already_satisfies():
    # v = (-2, 0), c = -2; fixing x at 1 makes the fixed part meet c exactly.
    mask = cf.Mask.from_string("0,1")
    con = centroid_plane(M_S, M_T, 0.0, mask)
    res = solve_centroid_case(con, np.array([1.0, 3.0]))
    assert res.status == cf.STATUS_DEGENERATE_IDENTITY
    assert res.counterfactual.tolist() == [1.0, 3.0]
    assert res.distance_sq == 0.0


@pytest.mark.parametrize("epsilon", [0.0, 0.25, 1.0])
def test_random_instances_match_projection_oracle(epsilon):
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = 8
        m_s, m_t = rng.normal(scale=1.5, size=(2, d))
        mask = random_mask(rng, d)
        y = rng.normal(scale=2.0, size=d)
        con = centroid_plane(m_s, m_t, epsilon, mask)
        res = solve_centroid_case(con, y)
        assert res.status == cf.STATUS_OK
        c_free = con.c - float(y[mask.fixed] @ con.v_fixed)
        oracle_d2, _ = lstsq_plane_distance_sq(y[mask.free], con.v_free, c_free)
        assert res.distance_sq == pytest.approx(oracle_d2, abs=1e-6)
        sampled = sampled_plane_min_distance_sq(y[mask.free], con.v_free, c_free, rng)
        assert res.distance_sq <= sampled + 1e-9


def test_full_mask_equals_unmasked_formula():
    rng = np.random.default_rng(23)
    d = 6
    m_s, m_t = rng.normal(size=(2, d))
    y = rng.normal(size=d)
    mask = cf.Mask.all_free(d)
    con = centroid_plane(m_s, m_t, 0.3, mask)
    res = solve_centroid_case(con, y)
    v = m_s - m_t
    c = (float(m_s @ m_s) - float(m_t @ m_t) - 0.3 * float(v @ v)) / 2.0
    z_direct = y - ((float(y @ v) - c) / float(v @ v)) * v
    assert np.allclose(res.counterfactual, z_direct, rtol=0, atol=1e-12)


def test_eps_zero_solution_is_equidistant():
    rng = np.random.default_rng(29)
    for _ in range(10):
        d = 4
        m_s, m_t = rng.normal(size=(2, d))
        y = m_s + rng.normal(scale=0.3, size=d)
        mask = cf.Mask.all_free(d)
        con = centroid_plane(m_s, m_t, 0.0, mask)
        z = solve_centroid_case(con, y).counterfactual
        lhs = float(np.sum((z - m_s) ** 2))
        rhs = float(np.sum((z - m_t) ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_distance_monotone_in_epsilon():
    rng = np.random.default_rng(31)
    d = 5
    m_s, m_t = rng.normal(size=(2, d))
    y = m_s + rng.normal(scale=0.2, size=d)
    mask = cf.Mask.from_bits([1, 1, 0, 1, 1])
    prev = -1.0
    for eps in [0.0, 0.1, 0.25, 0.5, 1.0, 2.0]:
        con = centroid_plane(m_s, m_t, eps, mask)
        res = solve_centroid_case(con, y)
        assert res.status == cf.STATUS_OK
        assert res.distance_sq >= prev - 1e-12
        prev = res.distance_sq


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), d=st.integers(2, 9), eps_ix=st.integers(0, 2))
# Optimum and sampled point on the plane at d^2 = 7.05e6, 3 ulps apart.
@example(seed=2022869, d=5, eps_ix=2)
def test_solution_properties_random(seed, d, eps_ix):
    rng = np.random.default_rng(seed)
    epsilon = [0.0, 0.25, 1.0][eps_ix]
    m_s, m_t = rng.normal(scale=1.5, size=(2, d))
    if float(np.sum((m_s - m_t) ** 2)) <= 1e-12:
        return
    mask = random_mask(rng, d)
    y = rng.normal(scale=2.0, size=d)
    con = centroid_plane(m_s, m_t, epsilon, mask)
    res = solve_centroid_case(con, y)
    assert res.status == cf.STATUS_OK
    z = res.counterfactual
    # Frozen features keep the factual's bits.
    assert np.array_equal(z[mask.fixed], y[mask.fixed])
    # Plane membership at scale-relative tolerance.
    assert abs(float(z @ con.v) - con.c) <= 1e-9 * (1.0 + abs(con.c))
    # The move is collinear with the free part of v.
    dz = z[mask.free] - y[mask.free]
    norm = float(np.linalg.norm(dz))
    if norm > 0:
        vf_hat = con.v_free / np.linalg.norm(con.v_free)
        residual = dz - (dz @ vf_hat) * vf_hat
        assert float(np.linalg.norm(residual)) <= 1e-10 * (1.0 + norm)
    # No feasible point does better (sampled certification).
    c_free = con.c - float(y[mask.fixed] @ con.v_fixed)
    for _ in range(20):
        other = project_onto_plane(
            y[mask.free] + rng.normal(scale=3.0, size=mask.n_free), con.v_free, c_free
        )
        other_d2 = float(np.sum((other - y[mask.free]) ** 2))
        assert other_d2 >= res.distance_sq - 1e-12 * (1.0 + res.distance_sq)


@pytest.mark.filterwarnings("ignore::clustercf.SourceMismatchWarning")
def test_raw_units_far_apart_are_solved_and_judged_at_their_scale():
    # A model in raw units (no standardization) with centers and factuals
    # some 1e4 apart: g's terms are near |m_s - m_t|^2 ~ 1e8, so a
    # tolerance of 1e-8 * (1 + |c_alpha|), a flat 1e-8 at eps = 0, lies
    # below g's own rounding. Every request is solved, the 50-digit
    # residual at the returned point is within 1e-8 times the size of g's
    # terms, and a frozen factual on the boundary is the factual itself
    # while one 1e-3 off it has no counterfactual.
    rng = np.random.default_rng(47)
    for _ in range(60):
        d = int(rng.integers(2, 12))
        centers = rng.normal(scale=1e4, size=(2, d))
        model = cf.ClusterModel(kind=cf.KMEANS, centers=centers)
        m_s, m_t = centers
        y = m_s + rng.normal(scale=3e3, size=d)
        res = cf.explain(model, cf.CfRequest(factual=y, target=1, source=0,
                                             mask=random_mask(rng, d), epsilon=0.0))
        assert res.status == cf.STATUS_OK, res.diagnostics
        v = m_s - m_t
        scale = 1.0 + float(v @ v) + 2.0 * float(np.abs(v) @ np.abs(y - m_s))
        exact, _ = mpmath_residual(m_s, m_t, 0.0, res.counterfactual)
        assert abs(exact) <= 1e-8 * scale, exact

        w = rng.normal(scale=3e3, size=d)
        w -= (w @ v) / (v @ v) * v
        frozen = cf.Mask(np.zeros(d, dtype=bool))
        on_boundary = (m_s + m_t) / 2.0 + w
        res = cf.explain(model, cf.CfRequest(factual=on_boundary, target=1, source=0,
                                             mask=frozen, epsilon=0.0))
        assert res.status == cf.STATUS_DEGENERATE_IDENTITY
        assert np.array_equal(res.counterfactual, on_boundary)
        off = on_boundary + 1e-3 * v / np.linalg.norm(v)
        res = cf.explain(model, cf.CfRequest(factual=off, target=1, source=0,
                                             mask=frozen, epsilon=0.0))
        assert res.status == cf.STATUS_NO_FEASIBLE_SOLUTION


@pytest.mark.parametrize(
    "kind, factual, epsilon, source",
    [
        # c_alpha = eps |m_s - m_t|^2 overflows, and with it the tolerance.
        (cf.KMEANS, [1.0, 0.0], 1e306, None),
        # The step's square overflows in the confirmation: a NaN residual.
        (cf.KMEANS, [1.0, 0.0], 1e300, None),
        # |u|^2 overflows inside the tolerance scale.
        (cf.KMEANS, [-1e160, 0.0], 1e-5, 0),
        # The same on a Gaussian pair with equal precisions.
        (cf.GAUSSIAN, [-1e160, 0.0], 1e-5, 0),
    ],
)
def test_overflowed_tolerance_or_residual_is_no_root_found(kind, factual, epsilon, source):
    # Each of these returned `ok`, at the factual or at (5e301, 0).
    if kind == cf.KMEANS:
        model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [100.0, 0.0]])
    else:
        spec = cf.CovarianceSpec.spherical(1.0)
        model = cf.ClusterModel(kind=cf.GAUSSIAN, components=tuple(
            cf.GaussianComponent(mean=m, covariance=spec, prior=0.5) for m in ([0.0, 0.0], [100.0, 0.0])
        ))
    request = cf.CfRequest(factual=factual, target=1, source=source, epsilon=epsilon)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = cf.explain(model, request)
        if source is not None:
            with pytest.raises(cf.AllTargetsFailedError) as failed:
                cf.explain_best(model, factual, epsilon=epsilon)
            assert failed.value.statuses == {1: cf.STATUS_NO_ROOT_FOUND}
    assert res.status == cf.STATUS_NO_ROOT_FOUND
    assert res.counterfactual is None
    # A result carries no NaN or infinity.
    assert res.residual is None or math.isfinite(res.residual)
    assert all(math.isfinite(res.diagnostics[key]) for key in ("lam", "g_limit")
               if key in res.diagnostics)
