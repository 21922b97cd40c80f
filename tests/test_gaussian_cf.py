import importlib.resources as resources
import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clustercf as cf
from helpers import (
    centroid_plane,
    pair_case,
    random_covariance,
    random_mask,
    random_pair_components,
    random_pair_problem,
    solve_case,
    solve_centroid_case,
)
from oracles import (
    constraint_residual,
    covariance_matrix,
    expanded_full_lambda_equation,
    global_optimality_certificate,
    half_gradient,
    level_set_min_distance_2d,
    line_level_set_min_distance,
    lstsq_plane_distance_sq,
    mpmath_residual,
    pair_residual_fn,
    random_spd,
    stationary_point,
    stationary_poles,
)

KINDS = (cf.FULL, cf.DIAGONAL, cf.SPHERICAL)


def pair_terms(prob):
    """(m_s, S_s, m_t, S_t) of a pair problem, covariances as matrices."""
    d = prob.y.size
    return (
        prob.source.mean, covariance_matrix(prob.source.covariance, d),
        prob.target.mean, covariance_matrix(prob.target.covariance, d),
    )


def certify(prob, z):
    """min eig(I - lam * D_FF) at z, from explicit inverses."""
    return global_optimality_certificate(*pair_terms(prob), prob.y, z, prob.mask.free)


def stationarity_gap(prob, res):
    """(|z_F - y_F - lam * half_gradient(z)|, |z_F - y_F|): zero gap at a
    stationary point of the Lagrangian."""
    z = res.counterfactual
    lhs = z[prob.mask.free] - prob.y[prob.mask.free]
    rhs = res.lam * half_gradient(*pair_terms(prob), z, prob.mask.free)
    return float(np.linalg.norm(lhs - rhs)), float(np.linalg.norm(lhs))


def unit_pair(eps):
    s = cf.GaussianComponent(mean=[0.0, 0.0], covariance=cf.CovarianceSpec.spherical(1.0), prior=0.5)
    t = cf.GaussianComponent(mean=[2.0, 0.0], covariance=cf.CovarianceSpec.spherical(1.0), prior=0.5)
    return pair_case(s, t, np.zeros(2), cf.Mask.all_free(2), eps)


def test_residual_zero_at_symmetric_midpoint():
    residual = constraint_residual(unit_pair(0.0), np.array([1.0, 0.0]))
    assert residual == pytest.approx(0.0, abs=1e-14)


def test_residual_shifts_by_two_log_one_plus_eps():
    prob = unit_pair(math.e - 1.0)
    assert constraint_residual(prob, np.array([1.0, 0.0])) == pytest.approx(2.0, abs=1e-12)


def test_residual_equals_log_density_identity():
    rng = np.random.default_rng(4)
    for kind in KINDS:
        prob = random_pair_problem(rng, 4, kind, epsilon=0.37)
        for _ in range(5):
            z = rng.normal(scale=2.0, size=4)
            via_density = 2.0 * (
                (math.log(prob.source.prior) + cf.log_density(prob.source, z))
                - (math.log(prob.target.prior) + cf.log_density(prob.target, z))
            ) + 2.0 * math.log1p(prob.epsilon)
            assert constraint_residual(prob, z) == pytest.approx(via_density, rel=1e-9, abs=1e-9)


def test_c_alpha_recomputes():
    rng = np.random.default_rng(15)
    prob = random_pair_problem(rng, 3, cf.FULL, epsilon=0.8)
    expected = (
        math.log(np.linalg.det(covariance_matrix(prob.target.covariance, 3)))
        - math.log(np.linalg.det(covariance_matrix(prob.source.covariance, 3)))
        - 2.0 * math.log(prob.target.prior / prob.source.prior)
        + 2.0 * math.log(1.8)
    )
    assert prob.c_alpha == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Solving


def test_solve_unit_spherical_boundary():
    res = solve_case(unit_pair(0.0))
    assert res.status == cf.STATUS_OK
    assert np.allclose(res.counterfactual, [1.0, 0.0], atol=1e-10)
    assert abs(res.residual) <= 1e-8


def test_solve_unit_spherical_with_plausibility():
    res = solve_case(unit_pair(math.e - 1.0))
    assert res.status == cf.STATUS_OK
    assert np.allclose(res.counterfactual, [1.5, 0.0], atol=1e-10)


def fixed_full_pair():
    source = cf.GaussianComponent(
        mean=[0.0, 0.0], covariance=cf.CovarianceSpec.full([[1.1, 0.5], [0.5, 0.9]]), prior=0.5
    )
    target = cf.GaussianComponent(
        mean=[3.0, 1.5], covariance=cf.CovarianceSpec.full([[0.8, -0.3], [-0.3, 1.4]]), prior=0.5
    )
    return source, target


def test_solve_full_2d_matches_level_set_oracle_all_masks():
    source, target = fixed_full_pair()
    y = np.asarray([0.4, -0.2])
    res_fn, _ = pair_residual_fn(
        source.mean, covariance_matrix(source.covariance, 2), source.prior,
        target.mean, covariance_matrix(target.covariance, 2), target.prior, 0.0,
    )
    # Both actionable: 2-D grid scan over a box covering the pair.
    prob = pair_case(source, target, y, cf.Mask.all_free(2), 0.0)
    out = solve_case(prob)
    assert out.status == cf.STATUS_OK
    xs = np.linspace(-5.0, 8.0, 2000)
    ys = np.linspace(-5.0, 8.0, 2000)
    oracle_d2, n_pts = level_set_min_distance_2d(res_fn, y, xs, ys)
    assert n_pts > 0
    assert out.distance_sq == pytest.approx(oracle_d2, abs=1e-4)

    # Single-coordinate masks: the level set restricted to a line.
    for free_axis, bits in ((0, [1, 0]), (1, [0, 1])):
        prob_m = pair_case(source, target, y, cf.Mask.from_bits(bits), 0.0)
        out_m = solve_case(prob_m)
        assert out_m.status == cf.STATUS_OK
        line = np.linspace(-40.0, 40.0, 4_000_000)
        oracle_1d, n1 = line_level_set_min_distance(res_fn, y, free_axis, line)
        assert n1 > 0
        assert out_m.distance_sq == pytest.approx(oracle_1d, abs=1e-4)
        assert out_m.counterfactual[1 - free_axis] == y[1 - free_axis]


def test_no_root_detected_and_verified_analytically():
    # Free dimension: variances 4 (source) and 1 (target), equal means, so
    # the free contribution is 0.75 z^2 >= 0. The fixed dimension pushes the
    # constant to c_h = 100; c_alpha = log(1/4) at eps = 0. The residual is
    # then 0.75 z^2 + 100 + log(1/4) > 0 everywhere: no root exists.
    source = cf.GaussianComponent(
        mean=[0.0, 0.0], covariance=cf.CovarianceSpec.diagonal([4.0, 1.0]), prior=0.5
    )
    target = cf.GaussianComponent(
        mean=[0.0, 10.0], covariance=cf.CovarianceSpec.diagonal([1.0, 1.0]), prior=0.5
    )
    y = np.asarray([1.0, 0.0])
    mask = cf.Mask.from_bits([1, 0])
    c_h = (0.0 - 10.0) ** 2 / 1.0 - 0.0
    assert c_h + math.log(0.25) > 0.0
    prob = pair_case(source, target, y, mask, 0.0)
    res = solve_case(prob)
    assert res.status == cf.STATUS_NO_FEASIBLE_SOLUTION
    assert res.diagnostics["g_limit"] == pytest.approx(c_h + math.log(0.25), rel=1e-12)
    # D = 0.75 > 0: the interval's lower end is open, written as null.
    assert res.diagnostics["interval"] == [None, pytest.approx(1.0 / 0.75)]
    assert json.loads(json.dumps(res.diagnostics, allow_nan=False))["interval"][0] is None


@pytest.mark.parametrize("kind", KINDS)
def test_solutions_preserve_mask_and_satisfy_constraint(kind):
    rng = np.random.default_rng(47)
    solved = 0
    for _ in range(25):
        d = int(rng.integers(2, 7))
        mask = random_mask(rng, d)
        eps = float(rng.choice([0.0, 1e-5, 0.4, 1.5]))
        prob = random_pair_problem(rng, d, kind, epsilon=eps, mask=mask)
        res = solve_case(prob)
        if res.status != cf.STATUS_OK:
            continue
        solved += 1
        z = res.counterfactual
        assert np.array_equal(z[mask.fixed], prob.y[mask.fixed])
        tol = 1e-8 * (1.0 + abs(prob.c_alpha))
        assert abs(res.residual) <= tol
        assert abs(constraint_residual(prob, z)) <= tol
    assert solved >= 15


def test_eps_zero_equalizes_weighted_log_densities():
    rng = np.random.default_rng(53)
    for kind in KINDS:
        prob = random_pair_problem(rng, 3, kind, epsilon=0.0)
        res = solve_case(prob)
        assert res.status == cf.STATUS_OK
        z = res.counterfactual
        gap = (math.log(prob.source.prior) + cf.log_density(prob.source, z)) - (
            math.log(prob.target.prior) + cf.log_density(prob.target, z)
        )
        assert abs(gap) <= 1e-6


def test_specialization_chain_spherical_diagonal_full():
    rng = np.random.default_rng(59)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        s_var = float(rng.uniform(0.4, 2.0))
        t_var = float(rng.uniform(0.4, 2.0))
        m_s, m_t = rng.normal(size=(2, d))
        m_t = m_t + 2.0
        y = m_s + rng.normal(scale=0.3, size=d)
        pi_s = float(rng.uniform(0.3, 0.7))
        mask = random_mask(rng, d)
        eps = float(rng.choice([0.0, 0.2]))

        def build(cov_s, cov_t):
            return pair_case(
                cf.GaussianComponent(mean=m_s, covariance=cov_s, prior=pi_s),
                cf.GaussianComponent(mean=m_t, covariance=cov_t, prior=1.0 - pi_s),
                y,
                mask,
                eps,
            )

        results = [
            solve_case(build(cf.CovarianceSpec.spherical(s_var), cf.CovarianceSpec.spherical(t_var))),
            solve_case(build(
                cf.CovarianceSpec.diagonal(np.full(d, s_var)), cf.CovarianceSpec.diagonal(np.full(d, t_var))
            )),
            solve_case(build(
                cf.CovarianceSpec.full(s_var * np.eye(d)), cf.CovarianceSpec.full(t_var * np.eye(d))
            )),
        ]
        statuses = {r.status for r in results}
        assert len(statuses) == 1
        if results[0].status == cf.STATUS_OK:
            for other in results[1:]:
                assert np.allclose(results[0].counterfactual, other.counterfactual, rtol=0, atol=1e-8)


@pytest.mark.parametrize("kind", KINDS)
def test_kkt_stationarity(kind):
    rng = np.random.default_rng(61)
    for _ in range(8):
        d = int(rng.integers(2, 6))
        mask = random_mask(rng, d)
        prob = random_pair_problem(rng, d, kind, epsilon=0.1, mask=mask)
        res = solve_case(prob)
        if res.status != cf.STATUS_OK:
            continue
        gap, step = stationarity_gap(prob, res)
        scale = step + 1e-12
        assert gap <= 1e-7 * (1.0 + scale)


def test_expanded_equation_matches_residual_formulation():
    rng = np.random.default_rng(67)
    checked = 0
    for _ in range(20):
        d = int(rng.integers(2, 6))
        source, target = random_pair_components(rng, d, cf.FULL)
        y = rng.normal(size=d)
        mask = random_mask(rng, d)
        prob = pair_case(source, target, y, mask, 0.25)
        poles = stationary_poles(
            covariance_matrix(source.covariance, d), covariance_matrix(target.covariance, d),
            mask.free,
        )
        for lam in rng.normal(scale=1.5, size=4):
            if any(abs(float(lam) - p) <= 1e-12 * (1.0 + abs(p)) for p in poles):
                continue
            z = stationary_point(*pair_terms(prob), y, mask.free, mask.fixed, float(lam))
            lhs = expanded_full_lambda_equation(
                source.mean, covariance_matrix(source.covariance, d), source.prior,
                target.mean, covariance_matrix(target.covariance, d), target.prior,
                y, mask.free, mask.fixed, 0.25, float(lam),
            )
            rhs = constraint_residual(prob, z)
            assert lhs == pytest.approx(rhs, abs=1e-8 * (1.0 + abs(rhs)))
            checked += 1
    assert checked >= 40


def test_affine_fallback_for_equal_covariances():
    rng = np.random.default_rng(71)
    d = 4
    cov = random_spd(rng, d)
    m_s = rng.normal(size=d)
    m_t = m_s + rng.normal(scale=2.0, size=d)
    y = m_s + rng.normal(scale=0.3, size=d)
    mask = cf.Mask.from_bits([1, 1, 0, 1])
    prob = pair_case(
        cf.GaussianComponent(mean=m_s, covariance=cf.CovarianceSpec.full(cov), prior=0.5),
        cf.GaussianComponent(mean=m_t, covariance=cf.CovarianceSpec.full(cov), prior=0.5),
        y,
        mask,
        0.3,
    )
    assert prob.affine
    res = solve_case(prob)
    assert res.status == cf.STATUS_OK
    assert abs(constraint_residual(prob, res.counterfactual)) <= 1e-8 * (1 + abs(prob.c_alpha))
    # The constraint is affine; an independent least-squares projection onto
    # the induced hyperplane must find the same distance.
    grad = 2.0 * half_gradient(m_s, cov, m_t, cov, y, mask.free)
    g_y = constraint_residual(prob, prob.y)
    c_free = float(grad @ y[mask.free]) - g_y
    oracle_d2, _ = lstsq_plane_distance_sq(y[mask.free], grad, c_free)
    assert res.distance_sq == pytest.approx(oracle_d2, rel=1e-9, abs=1e-12)


def test_ok_results_carry_json_safe_diagnostics():
    rng = np.random.default_rng(83)
    problems = []
    for kind in KINDS:
        for _ in range(40):
            d = int(rng.integers(1, 7))
            eps = float(rng.choice([0.0, 1e-5, 0.3, 1.0]))
            problems.append(random_pair_problem(rng, d, kind, epsilon=eps, mask=random_mask(rng, d)))
    # The factual path: a factual already on the boundary.
    source, target = fixed_full_pair()
    start = pair_case(source, target, np.array([0.4, -0.2]), cf.Mask.all_free(2), 0.0)
    boundary = solve_case(start).counterfactual
    problems.append(pair_case(source, target, boundary, cf.Mask.all_free(2), 0.0))
    # The hard case: concentric spheres seen from their shared mean.
    problems.append(pair_case(
        cf.GaussianComponent(mean=[0.0, 0.0], covariance=cf.CovarianceSpec.spherical(1.0), prior=0.5),
        cf.GaussianComponent(mean=[0.0, 0.0], covariance=cf.CovarianceSpec.spherical(4.0), prior=0.5),
        np.zeros(2), cf.Mask.all_free(2), 0.0,
    ))
    with resources.files("clustercf.schemas").joinpath("explain_result.schema.json").open() as fh:
        schema = json.load(fh)["properties"]["diagnostics"]
    paths = []
    for prob in problems:
        res = solve_case(prob)
        jsonschema.validate(res.diagnostics, schema)
        if res.status != cf.STATUS_OK:
            continue
        assert res.diagnostics["path"] in ("factual", "interval", "hard_case")
        assert json.loads(json.dumps(res.diagnostics, allow_nan=False)) == res.diagnostics
        paths.append(res.diagnostics["path"])
    assert set(paths) == {"factual", "interval", "hard_case"}
    assert len(paths) >= 100


def test_factual_on_boundary_returns_itself():
    source, target = fixed_full_pair()
    start = pair_case(source, target, np.array([0.4, -0.2]), cf.Mask.all_free(2), 0.0)
    boundary = solve_case(start).counterfactual
    prob = pair_case(source, target, boundary, cf.Mask.all_free(2), 0.0)
    res = solve_case(prob)
    assert res.status == cf.STATUS_OK
    assert res.distance_sq <= 1e-12
    assert np.allclose(res.counterfactual, boundary, atol=1e-6)


def test_mixed_covariance_kinds_promote_to_matrix_path():
    rng = np.random.default_rng(79)
    var = rng.uniform(0.5, 2.0, size=3)
    source_diag = cf.GaussianComponent(
        mean=[0.0, 0.0, 0.0], covariance=cf.CovarianceSpec.diagonal(var), prior=0.5
    )
    source_full = cf.GaussianComponent(
        mean=[0.0, 0.0, 0.0], covariance=cf.CovarianceSpec.full(np.diag(var)), prior=0.5
    )
    target = cf.GaussianComponent(
        mean=[3.0, 1.0, 2.0], covariance=cf.CovarianceSpec.full(random_spd(rng, 3)), prior=0.5
    )
    y = np.asarray([0.3, -0.2, 0.1])
    mask = cf.Mask.from_bits([1, 1, 0])
    mixed = solve_case(pair_case(source_diag, target, y, mask, 0.1))
    full = solve_case(pair_case(source_full, target, y, mask, 0.1))
    assert mixed.status == full.status == cf.STATUS_OK
    assert np.allclose(mixed.counterfactual, full.counterfactual, rtol=0, atol=1e-10)


def test_requires_at_least_one_free_feature():
    # With every feature frozen g is the constant g(y): the factual either
    # already satisfies the constraint or nothing can.
    rng = np.random.default_rng(73)
    frozen = cf.Mask.from_bits([0, 0, 0])
    prob = random_pair_problem(rng, 3, cf.FULL, mask=frozen)
    res = solve_case(prob)
    assert res.status == cf.STATUS_NO_FEASIBLE_SOLUTION
    assert res.counterfactual is None and res.distance_sq is None
    assert res.residual == constraint_residual(prob, prob.y)

    source, target = prob.source, prob.target
    boundary = solve_case(
        pair_case(source, target, prob.y, cf.Mask.all_free(3), 0.0)
    ).counterfactual
    on = pair_case(source, target, boundary, frozen, 0.0)
    res = solve_case(on)
    assert res.status == cf.STATUS_DEGENERATE_IDENTITY
    assert np.array_equal(res.counterfactual, boundary) and res.distance_sq == 0.0
    assert abs(res.residual) <= 1e-8 * (1.0 + abs(on.c_alpha))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), kind_ix=st.integers(0, 2), d=st.integers(2, 6))
def test_solution_properties_random(seed, kind_ix, d):
    rng = np.random.default_rng(seed)
    mask = random_mask(rng, d)
    epsilon = float(rng.choice([0.0, 1e-5, 0.3, 1.0]))
    prob = random_pair_problem(rng, d, KINDS[kind_ix], epsilon=epsilon, mask=mask)
    res = solve_case(prob)
    if res.status != cf.STATUS_OK:
        return
    z = res.counterfactual
    # Frozen features keep the factual's bits.
    assert np.array_equal(z[mask.fixed], prob.y[mask.fixed])
    # Residual within the constraint's natural scale.
    tol = 1e-8 * (1.0 + abs(prob.c_alpha))
    assert abs(constraint_residual(prob, z)) <= tol
    # The counterfactual is a stationary point of the Lagrangian.
    gap, step = stationarity_gap(prob, res)
    assert gap <= 1e-7 * (1.0 + step)
    # And the global minimizer: I - lam * D_FF is positive semidefinite.
    assert certify(prob, z) >= -1e-9


def test_multiple_roots_picks_nearest():
    # Concentric spheres: the constraint set is a circle around the shared
    # mean, with stationary points on the near and far side of the factual.
    source = cf.GaussianComponent(
        mean=[0.0, 0.0], covariance=cf.CovarianceSpec.spherical(1.0), prior=0.5
    )
    target = cf.GaussianComponent(
        mean=[0.0, 0.0], covariance=cf.CovarianceSpec.spherical(4.0), prior=0.5
    )
    y = np.asarray([3.0, 0.0])
    prob = pair_case(source, target, y, cf.Mask.all_free(2), 0.0)
    res = solve_case(prob)
    assert res.status == cf.STATUS_OK
    radius_sq = prob.c_alpha / 0.75
    radius = math.sqrt(radius_sq)
    assert np.allclose(res.counterfactual, [radius, 0.0], atol=1e-6)

    # At the shared mean every point of the circle is nearest: the hard
    # case, with the multiplier on the pole of I - lam * D.
    centre = pair_case(source, target, np.zeros(2), cf.Mask.all_free(2), 0.0)
    res = solve_case(centre)
    assert res.status == cf.STATUS_OK
    assert res.distance_sq == pytest.approx(radius_sq, rel=1e-12)
    assert abs(constraint_residual(centre, res.counterfactual)) <= 1e-8 * (1 + centre.c_alpha)
    assert certify(centre, res.counterfactual) >= -1e-9
    again = solve_case(centre)
    assert np.array_equal(again.counterfactual, res.counterfactual) and again.lam == res.lam


@pytest.mark.parametrize("eps", [1e-5, 0.5])
def test_near_hard_case_matches_level_set_oracle(eps):
    # D = diag(-0.75, 3) with the target mean 1e-3 off the source's along
    # axis 1: at y = 0 the gradient has no part on the pole of axis 0 (the
    # hard case); at y = (1e-9, 0) the root sits about 1e-9 from that pole.
    source = cf.GaussianComponent(
        mean=[0.0, 0.0], covariance=cf.CovarianceSpec.spherical(1.0), prior=0.5
    )
    target = cf.GaussianComponent(
        mean=[0.0, 1e-3], covariance=cf.CovarianceSpec.diagonal([4.0, 0.25]), prior=0.5
    )
    res_fn, _ = pair_residual_fn(
        source.mean, covariance_matrix(source.covariance, 2), source.prior,
        target.mean, covariance_matrix(target.covariance, 2), target.prior, eps,
    )
    results = []
    for y in (np.zeros(2), np.array([1e-9, 0.0])):
        prob = pair_case(source, target, y, cf.Mask.all_free(2), eps)
        res = solve_case(prob)
        assert res.status == cf.STATUS_OK
        assert abs(constraint_residual(prob, res.counterfactual)) <= 1e-8 * (1 + prob.c_alpha)
        assert certify(prob, res.counterfactual) >= -1e-9
        results.append(res)
    grid = np.linspace(-3.0, 3.0, 2000)
    oracle_d2, n_pts = level_set_min_distance_2d(res_fn, np.zeros(2), grid, grid)
    assert n_pts > 0
    assert results[0].distance_sq == pytest.approx(oracle_d2, abs=1e-4)
    assert results[1].distance_sq == pytest.approx(results[0].distance_sq, abs=1e-6)


def test_near_flat_source_returns_global_minimizer():
    # A source variance of 1.8e-8 puts a pole at lam = -1.7e-8; the nearest
    # boundary point has its multiplier just inside it.
    source = cf.GaussianComponent(
        mean=[0.0, 0.0],
        covariance=cf.CovarianceSpec.diagonal([1.7625932885228978e-08, 1.744705977917154]),
        prior=0.5,
    )
    target = cf.GaussianComponent(
        mean=[2.1603268250757703, -0.577533011990755],
        covariance=cf.CovarianceSpec.diagonal([0.31692275337239634, 0.9205784681890601]),
        prior=0.5,
    )
    y = np.array([1.108241314903022e-05, -1.122221726853932])
    prob = pair_case(source, target, y, cf.Mask.all_free(2), 1.0)
    res = solve_case(prob)
    assert res.status == cf.STATUS_OK
    assert abs(constraint_residual(prob, res.counterfactual)) <= 1e-8 * (1 + abs(prob.c_alpha))
    assert certify(prob, res.counterfactual) >= -1e-9
    assert res.distance_sq == pytest.approx(5.435e-7, rel=1e-3)


def test_mpmath_residual_agrees_with_the_float_oracle_near_the_means():
    rng = np.random.default_rng(31)
    for kind in KINDS:
        prob = random_pair_problem(rng, 5, kind, epsilon=0.3)
        z = prob.y + rng.normal(size=5)
        exact, c_alpha = mpmath_residual(prob.source, prob.target, prob.epsilon, z)
        assert c_alpha == pytest.approx(prob.c_alpha, rel=1e-12)
        assert exact == pytest.approx(constraint_residual(prob, z), rel=1e-10, abs=1e-10)


def test_far_factuals_on_equal_covariance_pairs_solve_and_confirm():
    # Equal covariances make g affine, but at |y| ~ 1e4 each Mahalanobis
    # term is near 1e8, and their float difference rounds by about the
    # 1e-8 * (1 + |c_alpha|) acceptance tolerance. g(y) is taken with the
    # covariance terms cancelled before the factual enters and the
    # candidate is confirmed in the solve's own coordinates, so every
    # request solves; a 50-digit residual checks each point.
    rng = np.random.default_rng(29)
    for i in range(300):
        d = int(rng.integers(2, 13))
        cov = random_covariance(rng, d, KINDS[i % 3])
        pi_s = float(rng.uniform(0.3, 0.7))
        m_s = rng.normal(size=d)
        m_t = m_s + rng.normal(scale=2.0, size=d)
        source = cf.GaussianComponent(mean=m_s, covariance=cov, prior=pi_s)
        target = cf.GaussianComponent(mean=m_t, covariance=cov, prior=1.0 - pi_s)
        u = rng.normal(size=d)
        y = m_s + 1e4 * u / np.linalg.norm(u)
        res = solve_case(pair_case(source, target, y, cf.Mask.all_free(d), 0.3))
        assert res.status == cf.STATUS_OK, (i, res.diagnostics)
        exact, c_alpha = mpmath_residual(source, target, 0.3, res.counterfactual)
        assert abs(exact) <= 1e-8 * (1.0 + abs(c_alpha)), (i, exact)


def test_means_far_from_the_origin_keep_their_precision():
    # Moving a pair and its factual by 1e5 leaves y - m and the whitened
    # differences as they were, so each request gives the status and
    # distance of the unmoved one, and the 50-digit residual at the moved
    # point stays within the acceptance tolerance. Every fourth pair shares
    # one covariance; center pairs, the identity-precision case, are the
    # last input.
    rng = np.random.default_rng(43)
    shift = 1e5
    solved = 0
    for i in range(90):
        d = int(rng.integers(2, 9))
        source, target = random_pair_components(rng, d, KINDS[i % 3])
        if i % 4 == 0:
            target = cf.GaussianComponent(mean=target.mean, covariance=source.covariance,
                                          prior=target.prior)
        y = source.mean + rng.normal(scale=0.4, size=d)
        mask = random_mask(rng, d)
        moved = [cf.GaussianComponent(mean=c.mean + shift, covariance=c.covariance, prior=c.prior)
                 for c in (source, target)]
        near = solve_case(pair_case(source, target, y, mask, 0.3))
        far = solve_case(pair_case(*moved, y + shift, mask, 0.3))
        assert far.status == near.status, (i, far.diagnostics)
        if far.status != cf.STATUS_OK:
            continue
        solved += 1
        assert far.distance_sq == pytest.approx(near.distance_sq, rel=1e-6, abs=1e-9)
        exact, c_alpha = mpmath_residual(*moved, 0.3, far.counterfactual)
        assert abs(exact) <= 1e-8 * (1.0 + abs(c_alpha)), (i, exact)
    assert solved >= 60

    solved = 0
    for i in range(200):
        d = int(rng.integers(2, 12))
        m_s, m_t = rng.normal(scale=1.5, size=(2, d))
        y = m_s + rng.normal(scale=0.8, size=d)
        mask = random_mask(rng, d)
        near = solve_centroid_case(centroid_plane(m_s, m_t, 0.3, mask), y)
        far = solve_centroid_case(centroid_plane(m_s + shift, m_t + shift, 0.3, mask), y + shift)
        assert far.status == near.status, (i, far.diagnostics)
        if far.status != cf.STATUS_OK:
            continue
        solved += 1
        assert far.distance_sq == pytest.approx(near.distance_sq, rel=1e-6, abs=1e-9)
        exact, c_alpha = mpmath_residual(m_s + shift, m_t + shift, 0.3, far.counterfactual)
        assert abs(exact) <= 1e-8 * (1.0 + abs(c_alpha)), (i, exact)
    assert solved >= 150
