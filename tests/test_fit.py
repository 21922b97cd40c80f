import importlib
import warnings

import numpy as np
import pytest

import clustercf as cf
from oracles import covariance_matrix, make_blobs


def blob_dataset(seed=0, centers=((0.0, 0.0), (5.0, 5.0)), sigma=0.3, n_per=150):
    rng = np.random.default_rng(seed)
    rows, labels = make_blobs(rng, centers, sigma, n_per)
    return cf.Dataset(rows=rows), labels


def test_kmeans_recovers_blob_means():
    data, labels = blob_dataset()
    config = cf.FitConfig(algorithm=cf.KMEANS, n_clusters=2, seed=3)
    model, _ = cf.fit(data, config)
    centers = np.stack([model.to_original(c) for c in model.means()])
    truth = np.asarray([data.rows[labels == k].mean(axis=0) for k in range(2)])
    # Match clusters by proximity, then compare.
    order = np.argsort(centers[:, 0])
    truth_order = np.argsort(truth[:, 0])
    assert np.all(np.abs(centers[order] - truth[truth_order]) < 0.2)


def test_kmeans_exact_on_k_distinct_points():
    rows = np.asarray([[0.0, 0.0], [4.0, 0.0], [0.0, 6.0]])
    config = cf.FitConfig(algorithm=cf.KMEANS, n_clusters=3, seed=0, standardize=False)
    model, info = cf.fit(cf.Dataset(rows=rows), config)
    assert info.objective == 0.0
    got = {tuple(c) for c in model.centers.tolist()}
    assert got == {(0.0, 0.0), (4.0, 0.0), (0.0, 6.0)}


def test_kmeans_inertia_history_non_increasing():
    data, _ = blob_dataset(seed=5, centers=((0, 0), (2, 1), (-1, 3)), sigma=0.8, n_per=100)
    _, info = cf.fit(data, cf.FitConfig(algorithm=cf.KMEANS, n_clusters=3, seed=7))
    hist = info.objective_history
    assert all(b <= a + 1e-9 * (1 + abs(a)) for a, b in zip(hist, hist[1:]))


def test_kmeans_reproducible_with_seed():
    data, _ = blob_dataset(seed=1)
    config = cf.FitConfig(algorithm=cf.KMEANS, n_clusters=2, seed=11)
    a, _ = cf.fit(data, config)
    b, _ = cf.fit(data, config)
    assert np.array_equal(a.centers, b.centers)


def test_fit_errors():
    rows = np.asarray([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(cf.FitError):
        cf.fit(cf.Dataset(rows=rows), cf.FitConfig(algorithm=cf.KMEANS, n_clusters=3))
    same = np.ones((10, 2))
    with pytest.raises(cf.FitError):
        cf.fit(cf.Dataset(rows=same), cf.FitConfig(algorithm=cf.KMEANS, n_clusters=2))


def test_m_step_rejects_singular_covariance_as_fit_error(monkeypatch):
    # The package re-exports the function `fit` under the module's name.
    fit_module = importlib.import_module("clustercf.fit")
    monkeypatch.setattr(fit_module, "_chol_with_jitter", lambda s: np.zeros_like(s))
    x = np.asarray([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0], [4.0, 4.0]])
    resp = np.asarray([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(cf.FitError, match="not positive definite"):
        fit_module._m_step(x, resp, cf.FULL)


def test_fit_config_validation():
    with pytest.raises(cf.ValidationError):
        cf.FitConfig(algorithm="dbscan")
    with pytest.raises(cf.ValidationError):
        cf.FitConfig(max_iter=0)
    with pytest.raises(cf.ValidationError):
        cf.FitConfig(rel_tol=0.0)
    with pytest.raises(cf.ValidationError):
        cf.FitConfig(restarts=0)


@pytest.mark.parametrize("field", ["n_clusters", "max_iter", "restarts", "seed"])
@pytest.mark.parametrize("bad", [2.5, 2.0, True])
def test_fit_config_rejects_non_integral_fields(field, bad):
    # n_clusters=2.5 was accepted and `fit` raised a raw TypeError.
    with pytest.raises(cf.ValidationError, match=field):
        cf.FitConfig(**{field: bad})
    config = cf.FitConfig(**{field: np.int64(2)})
    assert type(getattr(config, field)) is int


# ---------------------------------------------------------------------------
# Gaussian mixtures


def test_gmm_recovers_diagonal_generator():
    rng = np.random.default_rng(19)
    n = 1000
    a = rng.normal(size=(n, 2)) * np.sqrt([0.25, 0.5]) + [0.0, 0.0]
    b = rng.normal(size=(n, 2)) * np.sqrt([0.5, 0.25]) + [4.0, 3.0]
    data = cf.Dataset(rows=np.vstack([a, b]))
    config = cf.FitConfig(
        algorithm="gmm", covariance=cf.DIAGONAL, n_clusters=2, seed=2, standardize=False
    )
    model, _ = cf.fit(data, config)
    means = np.stack([c.mean for c in model.components])
    order = np.argsort(means[:, 0])
    means = means[order]
    assert np.all(np.abs(means[0] - [0.0, 0.0]) < 0.15)
    assert np.all(np.abs(means[1] - [4.0, 3.0]) < 0.15)
    variances = [model.components[k].covariance.variances(2) for k in order]
    assert np.all(np.abs(variances[0] - [0.25, 0.5]) / [0.25, 0.5] < 0.25)
    assert np.all(np.abs(variances[1] - [0.5, 0.25]) / [0.5, 0.25] < 0.25)


def test_gmm_single_component_closed_form():
    rng = np.random.default_rng(23)
    rows = rng.normal(size=(400, 3)) @ np.diag([1.0, 0.5, 2.0]) + [1.0, -1.0, 0.5]
    data = cf.Dataset(rows=rows)
    config = cf.FitConfig(
        algorithm="gmm", covariance=cf.FULL, n_clusters=1, seed=0, standardize=False, restarts=1
    )
    model, _ = cf.fit(data, config)
    comp = model.components[0]
    assert comp.prior == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(comp.mean, rows.mean(axis=0), atol=1e-9)
    centered = rows - rows.mean(axis=0)
    sample_cov = centered.T @ centered / rows.shape[0]
    assert np.allclose(covariance_matrix(comp.covariance, 3), sample_cov, rtol=1e-6, atol=1e-9)


def test_gmm_spherical_recovers_isotropic_variance():
    rng = np.random.default_rng(29)
    rows = np.vstack([
        rng.normal(scale=0.7, size=(800, 3)),
        rng.normal(scale=0.7, size=(800, 3)) + 6.0,
    ])
    config = cf.FitConfig(
        algorithm="gmm", covariance=cf.SPHERICAL, n_clusters=2, seed=4, standardize=False
    )
    model, _ = cf.fit(cf.Dataset(rows=rows), config)
    for comp in model.components:
        sigma2 = float(comp.covariance.data)
        assert abs(sigma2 - 0.49) / 0.49 < 0.2


def test_gmm_log_likelihood_monotone():
    data, _ = blob_dataset(seed=31, centers=((0, 0), (3, 2)), sigma=0.9, n_per=200)
    _, info = cf.fit(
        data, cf.FitConfig(algorithm="gmm", covariance=cf.FULL, n_clusters=2, seed=5)
    )
    hist = info.objective_history
    assert all(b >= a - 1e-9 * (1 + abs(a)) for a, b in zip(hist, hist[1:]))


def test_gmm_reproducible_with_seed():
    data, _ = blob_dataset(seed=37)
    config = cf.FitConfig(algorithm="gmm", covariance=cf.FULL, n_clusters=2, seed=13)
    a, _ = cf.fit(data, config)
    b, _ = cf.fit(data, config)
    for ca, cb in zip(a.components, b.components):
        assert np.array_equal(ca.mean, cb.mean)
        assert np.array_equal(ca.covariance.data, cb.covariance.data)
        assert ca.prior == cb.prior


def test_gmm_standardization_stored():
    data, _ = blob_dataset(seed=41)
    model, _ = cf.fit(data, cf.FitConfig(algorithm="gmm", n_clusters=2, seed=1))
    assert model.standardization is not None
    x = data.rows[0]
    assert np.allclose(model.to_original(model.to_internal(x)), x)


# ---------------------------------------------------------------------------
# Priors policy


def test_priors_policy_uniform():
    data, _ = blob_dataset(seed=43, centers=((0, 0), (4, 0), (0, 4), (4, 4)), n_per=80)
    model, _ = cf.fit(data, cf.FitConfig(algorithm="gmm", n_clusters=4, seed=3))
    uniform = cf.priors_policy(model, "uniform")
    assert all(c.prior == pytest.approx(0.25, abs=1e-12) for c in uniform.components)


def test_priors_policy_frequency_on_balanced_blobs():
    data, _ = blob_dataset(seed=47, centers=((0, 0), (5, 5)), n_per=200)
    model, _ = cf.fit(data, cf.FitConfig(algorithm="gmm", n_clusters=2, seed=3))
    freq = cf.priors_policy(model, "frequency", data)
    for c in freq.components:
        assert abs(c.prior - 0.5) < 0.05


def test_priors_policy_kmeans_is_identity_for_assignment():
    data, _ = blob_dataset(seed=53)
    model, _ = cf.fit(data, cf.FitConfig(algorithm=cf.KMEANS, n_clusters=2, seed=3))
    after = cf.priors_policy(model, "uniform")
    rows = model.to_internal(data.rows)
    before_labels = np.argmax(cf.score_matrix(model, rows), axis=1)
    after_labels = np.argmax(cf.score_matrix(after, rows), axis=1)
    assert np.array_equal(before_labels, after_labels)


def test_priors_policy_frequency_requires_data():
    data, _ = blob_dataset(seed=59)
    model, _ = cf.fit(data, cf.FitConfig(algorithm="gmm", n_clusters=2, seed=3))
    with pytest.raises(cf.ValidationError):
        cf.priors_policy(model, "frequency")


@pytest.mark.parametrize("standardize", [True, False])
def test_priors_policy_checks_the_data_width(standardize):
    # A standardized model raised numpy's broadcasting ValueError.
    data, _ = blob_dataset(seed=61)
    model, _ = cf.fit(
        data, cf.FitConfig(algorithm="gmm", n_clusters=2, seed=3, standardize=standardize)
    )
    wide = cf.Dataset(rows=np.hstack([data.rows, data.rows[:, :1]]))
    with pytest.raises(cf.DimensionMismatchError, match="rows have dimension 3, model expects 2"):
        cf.priors_policy(model, "frequency", wide)


def test_priors_policy_frequency_counts_only_rows_with_a_finite_score():
    # The row at (1e200, 0) overflows every score; it was counted in cluster 0.
    model = _two_sphericals()
    data = cf.Dataset(rows=[[0.1, 0.0], [-0.1, 0.1], [3.1, 0.0], [2.9, 0.1], [3.0, -0.1],
                            [1e200, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        freq = cf.priors_policy(model, "frequency", data)
    assert [c.prior for c in freq.components] == [0.4, 0.6]


def _two_sphericals():
    return cf.ClusterModel(kind=cf.GAUSSIAN, components=tuple(
        cf.GaussianComponent(mean=mean, covariance=cf.CovarianceSpec.spherical(1.0), prior=0.5)
        for mean in ([0.0, 0.0], [3.0, 0.0])))


@pytest.mark.parametrize("build, error, message", [
    (lambda: cf.Dataset(rows=[1.0, 2.0]), cf.ValidationError,
     "rows: expected a non-empty N x d matrix"),
    (lambda: cf.Dataset(rows=[[1.0, 2.0]], feature_names=("a",)), cf.ValidationError,
     "feature_names: length does not match row width"),
    (lambda: cf.Dataset(rows=[[1.0, 2.0]], labels=("a", "b")), cf.ValidationError,
     "labels: length does not match row count"),
    (lambda: cf.FitConfig(algorithm="gmm", covariance="banded"), cf.ValidationError,
     "covariance: unknown covariance kind 'banded'"),
    (lambda: cf.FitConfig(n_clusters=0), cf.ValidationError, "n_clusters: must be >= 1"),
    (lambda: cf.priors_policy(_two_sphericals(), "median"), cf.ValidationError,
     "policy: unknown priors policy 'median'"),
    (lambda: cf.priors_policy(_two_sphericals(), "frequency",
                              cf.Dataset(rows=[[0.1, 0.0], [-0.1, 0.1]])),
     cf.FitError, "frequency policy found an empty cluster"),
], ids=["rows-shape", "feature-names", "labels", "covariance-kind", "n-clusters",
        "unknown-policy", "empty-cluster"])
def test_malformed_fit_inputs_are_rejected(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message
