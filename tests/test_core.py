import math

import numpy as np
import pytest

import clustercf as cf
from clustercf.core import SCORE_BLOCK_ROWS, as_vector, check_same_dim
from clustercf.gaussian_cf import GaussianPairPlan
from oracles import (
    covariance_matrix,
    loop_distance_sq,
    loop_score_matrix,
    make_blobs,
    naive_assignment,
    naive_log_density,
    random_spd,
)


def _log_density(comp, x):
    """The log density of `comp` as the package scores it: a one-component
    model's prior is 1, so its score is the log density."""
    model = cf.ClusterModel(kind=cf.GAUSSIAN, components=(comp,))
    return cf.score_matrix(model, np.asarray(x, dtype=float))[:, 0]


def test_distance_sq_three_four_five():
    assert cf.core.sq_distances(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))[0, 0] == 25.0


def test_distance_sq_identity_is_zero():
    x = np.asarray([[1.5, -2.25, 7.0]])
    assert cf.core.sq_distances(x, x)[0, 0] == 0.0


def test_distance_sq_matches_loop_oracle():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 16))
    b = rng.normal(size=(2, 16))
    got = cf.core.sq_distances(a, b)
    for i, j in np.ndindex(got.shape):
        assert got[i, j] == pytest.approx(loop_distance_sq(a[i], b[j]), rel=1e-14)


def test_log_density_standard_normal_mode():
    comp = cf.GaussianComponent(
        mean=[0.0, 0.0], covariance=cf.CovarianceSpec.full(np.eye(2)), prior=1.0
    )
    assert _log_density(comp, [0.0, 0.0])[0] == pytest.approx(-math.log(2 * math.pi), abs=1e-14)


def test_log_density_spherical_one_sigma_point():
    comp = cf.GaussianComponent(
        mean=[0.0], covariance=cf.CovarianceSpec.spherical(4.0), prior=1.0
    )
    expected = -0.5 * (1.0 + math.log(4.0) + math.log(2 * math.pi))
    assert _log_density(comp, [2.0])[0] == pytest.approx(expected, abs=1e-14)


def test_log_density_full_matches_reference_formula():
    rng = np.random.default_rng(5)
    cov = random_spd(rng, 3)
    mean = rng.normal(size=3)
    comp = cf.GaussianComponent(mean=mean, covariance=cf.CovarianceSpec.full(cov), prior=1.0)
    for _ in range(10):
        x = rng.normal(size=3)
        assert _log_density(comp, x)[0] == pytest.approx(
            naive_log_density(mean, cov, x), rel=1e-12
        )


def test_log_density_diagonal_agrees_with_full_representation():
    rng = np.random.default_rng(6)
    var = rng.uniform(0.5, 3.0, size=4)
    mean = rng.normal(size=4)
    diag_comp = cf.GaussianComponent(
        mean=mean, covariance=cf.CovarianceSpec.diagonal(var), prior=1.0
    )
    full_comp = cf.GaussianComponent(
        mean=mean, covariance=cf.CovarianceSpec.full(np.diag(var)), prior=1.0
    )
    x = rng.normal(size=4)
    assert _log_density(diag_comp, x)[0] == pytest.approx(_log_density(full_comp, x)[0], rel=1e-12)


# ---------------------------------------------------------------------------
# Assignment rule


def test_assign_kmeans_closer_center():
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [2.0, 0.0]])
    assert cf.assign_cluster(model, [0.4, 1.0]) == 0


def test_assign_gaussian_symmetric_reduces_to_nearest_mean():
    comps = tuple(
        cf.GaussianComponent(mean=m, covariance=cf.CovarianceSpec.spherical(1.0), prior=0.5)
        for m in ([0.0, 0.0], [2.0, 0.0])
    )
    model = cf.ClusterModel(kind=cf.GAUSSIAN, components=comps)
    assert cf.assign_cluster(model, [1.5, 0.0]) == 1


def test_assign_ties_break_to_lowest_id():
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [2.0, 0.0]])
    assert cf.assign_cluster(model, [1.0, 5.0]) == 0


def test_assign_full_gmm_matches_direct_density_argmax():
    rng = np.random.default_rng(42)
    rows, _ = make_blobs(rng, [[0.0, 0.0], [4.0, 3.0]], sigma=0.9, n_per=120)
    model, _ = cf.fit(
        cf.Dataset(rows=rows),
        cf.FitConfig(algorithm="gmm", covariance=cf.FULL, n_clusters=2, seed=1, standardize=False),
    )
    means = [c.mean for c in model.components]
    covs = [covariance_matrix(c.covariance, 2) for c in model.components]
    priors = [c.prior for c in model.components]
    for x in rows[rng.choice(rows.shape[0], size=50, replace=False)]:
        assert cf.assign_cluster(model, x) == naive_assignment(means, covs, priors, x)


@pytest.mark.parametrize("d", [2, 5, 16])
def test_kmeans_rule_equals_unit_spherical_equal_prior_gaussian(d):
    rng = np.random.default_rng(100 + d)
    centers = rng.normal(scale=2.0, size=(3, d))
    km = cf.ClusterModel(kind=cf.KMEANS, centers=centers)
    gm = cf.ClusterModel(
        kind=cf.GAUSSIAN,
        components=tuple(
            cf.GaussianComponent(mean=c, covariance=cf.CovarianceSpec.spherical(1.0), prior=1 / 3)
            for c in centers
        ),
    )
    pts = rng.normal(scale=3.0, size=(1000, d))
    km_labels = np.argmax(cf.score_matrix(km, pts), axis=1)
    gm_labels = np.argmax(cf.score_matrix(gm, pts), axis=1)
    assert np.array_equal(km_labels, gm_labels)


def _naive_scores(model, rows):
    return np.array(
        [
            [math.log(c.prior)
             + naive_log_density(c.mean, covariance_matrix(c.covariance, model.d), x)
             for c in model.components]
            for x in rows
        ]
    )


def _mixed_kind_model(rng, d):
    covs = [
        cf.CovarianceSpec.full(random_spd(rng, d)),
        cf.CovarianceSpec.diagonal(rng.uniform(0.3, 2.5, size=d)),
        cf.CovarianceSpec.spherical(float(rng.uniform(0.3, 2.5))),
        cf.CovarianceSpec.full(random_spd(rng, d, base=0.1)),
        cf.CovarianceSpec.diagonal(rng.uniform(0.05, 4.0, size=d)),
    ]
    priors = rng.dirichlet(np.full(len(covs), 2.0))
    return cf.ClusterModel(
        kind=cf.GAUSSIAN,
        components=tuple(
            cf.GaussianComponent(mean=rng.normal(scale=2.0, size=d), covariance=c, prior=float(p))
            for c, p in zip(covs, priors)
        ),
    )


@pytest.mark.parametrize(
    "n_rows",
    [1, SCORE_BLOCK_ROWS - 1, SCORE_BLOCK_ROWS, SCORE_BLOCK_ROWS + 1, 3 * SCORE_BLOCK_ROWS],
)
def test_score_matrix_mixed_kinds_matches_naive_density(n_rows):
    rng = np.random.default_rng(700 + n_rows)
    d = 6
    model = _mixed_kind_model(rng, d)
    rows = rng.normal(scale=3.0, size=(n_rows, d))
    scores = cf.score_matrix(model, rows)
    assert scores.shape == (n_rows, model.n_clusters)
    ref = _naive_scores(model, rows)
    assert np.all(np.abs(scores - ref) <= 1e-10 * (1.0 + np.abs(ref)))
    loop = loop_score_matrix(model, rows)
    assert np.all(np.abs(scores - loop) <= 1e-10 * (1.0 + np.abs(loop)))
    assert np.array_equal(np.argmax(scores, axis=1), np.argmax(loop, axis=1))


def test_score_matrix_diagonal_only_model_matches_naive_density():
    rng = np.random.default_rng(711)
    d = 5
    covs = [cf.CovarianceSpec.diagonal(rng.uniform(0.2, 3.0, size=d)),
            cf.CovarianceSpec.spherical(0.8), cf.CovarianceSpec.diagonal(np.full(d, 1.7))]
    model = cf.ClusterModel(
        kind=cf.GAUSSIAN,
        components=tuple(
            cf.GaussianComponent(mean=rng.normal(size=d), covariance=c, prior=p)
            for c, p in zip(covs, (0.2, 0.3, 0.5))
        ),
    )
    rows = rng.normal(scale=2.0, size=(40, d))
    ref = _naive_scores(model, rows)
    scores = cf.score_matrix(model, rows)
    assert np.all(np.abs(scores - ref) <= 1e-12 * (1.0 + np.abs(ref)))
    assert np.array_equal(np.argmax(scores, axis=1), np.argmax(loop_score_matrix(model, rows), axis=1))


def test_score_matrix_ill_conditioned_full_covariance():
    rng = np.random.default_rng(717)
    d = 8
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    cov = (q * np.logspace(-4.0, 4.0, d)) @ q.T
    cov = (cov + cov.T) / 2.0
    assert np.linalg.cond(cov) == pytest.approx(1e8, rel=1e-3)
    model = cf.ClusterModel(
        kind=cf.GAUSSIAN,
        components=(
            cf.GaussianComponent(mean=rng.normal(size=d), covariance=cf.CovarianceSpec.full(cov),
                                 prior=0.4),
            cf.GaussianComponent(mean=rng.normal(size=d), covariance=cf.CovarianceSpec.spherical(1.0),
                                 prior=0.6),
        ),
    )
    rows = model.components[0].mean + rng.normal(scale=0.05, size=(60, d))
    scores = cf.score_matrix(model, rows)
    ref = _naive_scores(model, rows)
    assert np.all(np.abs(scores - ref) <= 1e-6 * (1.0 + np.abs(ref)))
    loop = loop_score_matrix(model, rows)
    assert np.all(np.abs(scores - loop) <= 1e-6 * (1.0 + np.abs(loop)))
    assert np.array_equal(np.argmax(scores, axis=1), np.argmax(loop, axis=1))


def test_density_integrates_to_one_monte_carlo_2d():
    rng = np.random.default_rng(9)
    cov = random_spd(rng, 2)
    comp = cf.GaussianComponent(
        mean=[0.3, -0.2], covariance=cf.CovarianceSpec.full(cov), prior=1.0
    )
    sigma = math.sqrt(float(np.max(np.diag(cov))))
    half = 6.0 * sigma
    lo = comp.mean - half
    hi = comp.mean + half
    n = 200_000
    pts = rng.uniform(lo, hi, size=(n, 2))
    dens = np.exp(_log_density(comp, pts))
    volume = float(np.prod(hi - lo))
    integral = volume * float(dens.mean())
    assert abs(integral - 1.0) < 0.05


# ---------------------------------------------------------------------------
# Construction validation


def test_rejects_non_positive_definite_full():
    with pytest.raises(cf.ValidationError):
        cf.GaussianComponent(
            mean=[0.0, 0.0],
            covariance=cf.CovarianceSpec.full([[1.0, 2.0], [2.0, 1.0]]),
            prior=1.0,
        )


def test_rejects_asymmetric_full():
    with pytest.raises(cf.ValidationError):
        cf.GaussianComponent(
            mean=[0.0, 0.0],
            covariance=cf.CovarianceSpec.full([[1.0, 0.5], [0.1, 1.0]]),
            prior=1.0,
        )


@pytest.mark.parametrize(
    "cov",
    [cf.CovarianceSpec.diagonal([1.0, 0.0]), cf.CovarianceSpec.diagonal([1.0, -2.0]),
     cf.CovarianceSpec.spherical(0.0), cf.CovarianceSpec.spherical(-1.0)],
)
def test_rejects_non_positive_variances(cov):
    d = 2 if cov.kind == cf.DIAGONAL else 1
    with pytest.raises(cf.ValidationError):
        cf.GaussianComponent(mean=[0.0] * d, covariance=cov, prior=1.0)


@pytest.mark.parametrize("prior", [0.0, -0.5, 1.5, float("nan")])
def test_rejects_bad_priors(prior):
    with pytest.raises(cf.ValidationError):
        cf.GaussianComponent(
            mean=[0.0], covariance=cf.CovarianceSpec.spherical(1.0), prior=prior
        )


def test_model_rejects_prior_sum_off():
    comps = tuple(
        cf.GaussianComponent(mean=[float(i)], covariance=cf.CovarianceSpec.spherical(1.0), prior=0.45)
        for i in range(2)
    )
    with pytest.raises(cf.ValidationError, match="prior"):
        cf.ClusterModel(kind=cf.GAUSSIAN, components=comps)


def test_model_rejects_duplicate_centers():
    with pytest.raises(cf.ValidationError, match="identical"):
        cf.ClusterModel(kind=cf.KMEANS, centers=[[1.0, 2.0], [1.0, 2.0]])


def test_vector_rejects_nan_and_inf():
    with pytest.raises(cf.ValidationError):
        cf.CfRequest(factual=[1.0, float("nan")], target=1)
    with pytest.raises(cf.ValidationError):
        cf.CfRequest(factual=[1.0, float("inf")], target=1)


def test_component_caches_match_recomputation():
    rng = np.random.default_rng(13)
    cov = random_spd(rng, 4)
    comp = cf.GaussianComponent(
        mean=rng.normal(size=4), covariance=cf.CovarianceSpec.full(cov), prior=1.0
    )
    _, log_det = np.linalg.slogdet(cov)
    assert comp.log_det == pytest.approx(log_det, rel=1e-10)
    assert np.allclose(comp.precision_matrix(), np.linalg.inv(cov), rtol=1e-10, atol=1e-12)
    w = comp.whitening
    assert np.allclose(w @ cov @ w.T, np.eye(4), rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Masks and requests


def test_precision_is_formed_on_first_use():
    rng = np.random.default_rng(13)
    cov = random_spd(rng, 4)
    comp = cf.GaussianComponent(
        mean=rng.normal(size=4), covariance=cf.CovarianceSpec.full(cov), prior=1.0
    )
    assert comp._precision is None
    precision = comp.precision_matrix()
    assert comp.precision_matrix() is precision
    assert not precision.flags.writeable
    assert np.array_equal(precision, precision.T)
    assert np.allclose(precision, np.linalg.inv(cov), rtol=1e-10, atol=1e-12)


def test_fit_never_forms_a_precision(monkeypatch):
    def no_precision(self):
        raise AssertionError("fit formed a precision matrix")

    monkeypatch.setattr(cf.GaussianComponent, "precision_matrix", no_precision)
    rng = np.random.default_rng(19)
    rows = np.concatenate([rng.normal(size=(40, 3)), rng.normal(size=(40, 3)) + 4.0])
    for covariance in (cf.FULL, cf.DIAGONAL, cf.SPHERICAL):
        model, _ = cf.fit(cf.Dataset(rows=rows), cf.FitConfig(
            algorithm="gmm", covariance=covariance, n_clusters=2, seed=1, max_iter=5))
        assert all(c._precision is None for c in model.components)


def test_requests_without_a_mask_share_one_all_free_mask():
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0, 0.0], [2.0, 0.0, 1.0]])
    first = cf.CfRequest(factual=[0.0, 0.0, 0.0], target=1).validate_against(model)
    second = cf.CfRequest(factual=[1.0, 0.0, 0.0], target=0).validate_against(model)
    assert first is second is cf.Mask.all_free(3)
    assert first.bits.tolist() == [True, True, True] and first.fixed.size == 0
    assert not first.bits.flags.writeable and not first.free.flags.writeable


def test_result_has_no_roots_found():
    import dataclasses

    assert "roots_found" not in {f.name for f in dataclasses.fields(cf.CfResult)}


def test_mask_from_string_and_index_sets():
    mask = cf.Mask.from_string("1,0,1,0")
    assert mask.d == 4 and mask.n_free == 2
    assert mask.free.tolist() == [0, 2]
    assert mask.fixed.tolist() == [1, 3]


def test_mask_rejects_garbage():
    with pytest.raises(cf.ValidationError):
        cf.Mask.from_string("1,2,0")


def test_request_rejects_negative_epsilon():
    with pytest.raises(cf.ValidationError):
        cf.CfRequest(factual=[0.0, 0.0], target=1, epsilon=-0.1)


def test_request_validate_against_model():
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [2.0, 0.0]])
    with pytest.raises(cf.DimensionMismatchError):
        cf.CfRequest(factual=[0.0, 0.0, 0.0], target=1).validate_against(model)
    with pytest.raises(cf.ValidationError):
        cf.CfRequest(factual=[0.0, 0.0], target=5).validate_against(model)
    with pytest.raises(cf.ValidationError):
        cf.CfRequest(factual=[0.0, 0.0], target=1, source=1).validate_against(model)
    with pytest.raises(cf.ValidationError):
        cf.CfRequest(factual=[0.0, 0.0], target=1, mask=cf.Mask.from_string("1")).validate_against(
            model
        )


@pytest.mark.parametrize("field", ["target", "source"])
@pytest.mark.parametrize("bad", [1.7, 1.0, True, "1"])
def test_request_rejects_non_integral_cluster_ids(field, bad):
    # A non-integral id was truncated (target=1.7 solved for cluster 1).
    ids = {"target": 0, "source": 1, field: bad}
    with pytest.raises(cf.ValidationError, match=field):
        cf.CfRequest(factual=[0.0, 0.0], **ids)
    ids[field] = np.int64(1) if field == "target" else np.int32(0)
    request = cf.CfRequest(factual=[0.0, 0.0], **ids)
    assert type(request.target) is int and type(request.source) is int


def test_validate_against_returns_the_resolved_mask():
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [2.0, 0.0]])
    mask = cf.Mask.from_string("1,0")
    assert cf.CfRequest(factual=[0.0, 0.0], target=1, mask=mask).validate_against(model) is mask
    resolved = cf.CfRequest(factual=[0.0, 0.0], target=1).validate_against(model)
    assert resolved.bits.tolist() == [True, True]


def test_standardization_round_trip():
    std = cf.Standardization(mean=[1.0, -2.0], std=[2.0, 0.5])
    x = np.asarray([3.0, 4.0])
    assert np.allclose(std.to_original(std.to_internal(x)), x)


def test_public_api_names_resolve_once():
    assert len(cf.__all__) == len(set(cf.__all__))
    for name in cf.__all__:
        assert getattr(cf, name) is not None, name


@pytest.mark.parametrize(
    "name",
    [
        "z_of_lambda", "PoleError", "uniqueness_class", "UNIQUE", "INDETERMINATE", "preference",
        # The pair builders and solvers trust their inputs; `explain` is their entry point.
        "GaussianPairProblem", "build_pair_problem", "constraint_residual", "solve_gaussian_cf",
        "GaussianPairPlan", "solve_gaussian_rows",
        "KmeansConstraint", "build_constraint", "solve_kmeans_cf",
        # `fit` runs both algorithms; EM scores through `score_matrix`.
        "fit_gmm", "fit_kmeans", "fit_gmm_info", "fit_kmeans_info", "_log_prob_matrix",
        # `score_matrix` is the one scorer.
        "log_density", "distance_sq",
    ],
)
def test_retired_names_are_not_public(name):
    assert name not in cf.__all__
    assert not hasattr(cf, name)


@pytest.mark.parametrize(
    "owner, name",
    [
        # Only the tests built dense matrices from a spec; `oracles.covariance_matrix` does.
        (cf.CovarianceSpec, "matrix"),
        # Nothing read it; `status == STATUS_OK` says the same.
        (cf.CfResult, "ok"),
        # `terms` takes one row or a stack.
        (GaussianPairPlan, "row_terms"),
        # `score_matrix` is the one scorer; `sq_distances` the one distance kernel.
        (cf.core, "mahalanobis_sq"),
        (cf.core, "log_density"),
        (cf.core, "distance_sq"),
        (cf.core, "whitened_sq"),
    ],
)
def test_retired_members_are_gone(owner, name):
    assert not hasattr(owner, name)


def _component(mean, covariance=None, prior=0.5):
    covariance = covariance or cf.CovarianceSpec.spherical(1.0)
    return cf.GaussianComponent(mean=mean, covariance=covariance, prior=prior)


@pytest.mark.parametrize("build, error, message", [
    (lambda: as_vector([[1.0, 2.0]], name="x"), cf.ValidationError,
     "x: must be a non-empty 1-D array of reals"),
    (lambda: as_vector([], name="x"), cf.ValidationError,
     "x: must be a non-empty 1-D array of reals"),
    (lambda: check_same_dim(np.zeros(2), np.zeros(3), "pair"), cf.DimensionMismatchError,
     "pair have mismatched dimensions 2 and 3"),
    (lambda: cf.CovarianceSpec("banded", [1.0]), cf.ValidationError,
     "covariance.kind: unknown kind 'banded'"),
    (lambda: _component([0.0, 0.0], cf.CovarianceSpec.diagonal([1.0, np.inf])),
     cf.ValidationError, "covariance: contains NaN or infinite entries"),
    (lambda: _component([0.0, 0.0], cf.CovarianceSpec.full(np.eye(3))), cf.ValidationError,
     "covariance: expected a 2x2 matrix, got shape (3, 3)"),
    (lambda: _component([0.0, 0.0], cf.CovarianceSpec.diagonal([1.0, 1.0, 1.0])),
     cf.ValidationError, "covariance: expected 2 variances, got shape (3,)"),
    (lambda: _component([0.0, 0.0], cf.CovarianceSpec(cf.SPHERICAL, [1.0, 1.0])),
     cf.ValidationError, "covariance: spherical variance must be a scalar"),
    (lambda: cf.ClusterModel(kind="dbscan"), cf.ValidationError,
     "kind: unknown model kind 'dbscan'"),
    (lambda: cf.ClusterModel(kind=cf.KMEANS), cf.ValidationError,
     "centers: kmeans model requires centers"),
    (lambda: cf.ClusterModel(kind=cf.KMEANS, centers=[0.0, 1.0]), cf.ValidationError,
     "centers: expected an M x d matrix with M >= 1"),
    (lambda: cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, np.nan], [1.0, 0.0]]),
     cf.ValidationError, "centers: contains NaN or infinite entries"),
    (lambda: cf.ClusterModel(kind=cf.GAUSSIAN), cf.ValidationError,
     "components: gaussian model requires components"),
    (lambda: cf.ClusterModel(kind=cf.GAUSSIAN,
                             components=(_component([0.0, 0.0]), _component([0.0, 0.0, 0.0]))),
     cf.ValidationError, "components[1].mean: dimension mismatch"),
    (lambda: cf.Mask([[True, False]]), cf.ValidationError,
     "mask: must be a non-empty 1-D boolean array"),
], ids=["vector-2d", "vector-empty", "same-dim", "covariance-kind", "covariance-non-finite",
        "full-shape", "diagonal-shape", "spherical-shape", "model-kind", "no-centers",
        "centers-shape", "centers-non-finite", "no-components", "component-width", "mask-2d"])
def test_malformed_core_inputs_are_rejected(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message
