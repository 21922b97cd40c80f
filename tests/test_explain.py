import importlib
import math

import numpy as np
import pytest

import clustercf as cf
from helpers import (
    centroid_plane,
    pair_case,
    solve_case,
    solve_centroid_case,
    two_cluster_gaussian_model,
)
from oracles import make_blobs, random_spd


def kmeans_model():
    return cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [2.0, 0.0]])


def test_explain_kmeans_lands_strictly_inside_target():
    model = kmeans_model()
    res = cf.explain(model, cf.CfRequest(factual=[0.0, 0.5], target=1, epsilon=0.5))
    assert res.status == cf.STATUS_OK
    assert res.strict_member is True
    assert cf.assign_cluster(model, res.counterfactual) == 1


def test_explain_eps_zero_sits_on_boundary_kmeans():
    model = kmeans_model()
    res = cf.explain(model, cf.CfRequest(factual=[0.0, 0.5], target=1, epsilon=0.0))
    z = res.counterfactual
    gap = abs(float(np.sum((z - [0, 0]) ** 2)) - float(np.sum((z - [2, 0]) ** 2)))
    assert gap <= 1e-8
    assert res.tolerant_member is True


def test_explain_eps_zero_sits_on_boundary_gaussian():
    model = two_cluster_gaussian_model()
    res = cf.explain(model, cf.CfRequest(factual=[0.1, -0.3], target=1, epsilon=0.0))
    assert res.status == cf.STATUS_OK
    z = res.counterfactual
    gap = (math.log(model.components[0].prior) + cf.log_density(model.components[0], z)) - (
        math.log(model.components[1].prior) + cf.log_density(model.components[1], z)
    )
    assert abs(gap) <= 1e-6
    assert res.tolerant_member is True


def test_all_frozen_mask_infeasible_or_identity():
    model = kmeans_model()
    frozen = cf.Mask.from_bits([0, 0])
    res = cf.explain(model, cf.CfRequest(factual=[0.0, 0.5], target=1, mask=frozen, epsilon=0.0))
    assert res.status == cf.STATUS_NO_FEASIBLE_SOLUTION
    on_boundary = cf.explain(
        model, cf.CfRequest(factual=[1.0, 0.5], target=1, mask=frozen, epsilon=0.0, source=0)
    )
    assert on_boundary.status == cf.STATUS_DEGENERATE_IDENTITY
    assert on_boundary.counterfactual_original.tolist() == [1.0, 0.5]

    gmodel = two_cluster_gaussian_model()
    gres = cf.explain(gmodel, cf.CfRequest(factual=[0.1, -0.3], target=1, mask=frozen))
    assert gres.status == cf.STATUS_NO_FEASIBLE_SOLUTION


def test_explain_best_picks_nearest_boundary():
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [2.0, 0.0], [10.0, 0.0]])
    res = cf.explain_best(model, [0.0, 0.0], epsilon=0.0)
    assert res.target == 1
    assert np.allclose(res.counterfactual, [1.0, 0.0])


def test_explain_best_two_clusters_equals_explain():
    model = two_cluster_gaussian_model()
    y = [0.1, -0.3]
    best = cf.explain_best(model, y, epsilon=1e-5)
    single = cf.explain(model, cf.CfRequest(factual=y, target=1, epsilon=1e-5))
    assert best.target == single.target
    assert best.distance_sq == single.distance_sq
    assert np.array_equal(best.counterfactual, single.counterfactual)


def test_explain_best_no_worse_than_every_target():
    rng = np.random.default_rng(71)
    centers = rng.normal(scale=4.0, size=(10, 16))
    model = cf.ClusterModel(kind=cf.KMEANS, centers=centers)
    for _ in range(10):
        y = rng.normal(scale=4.0, size=16)
        source = cf.assign_cluster(model, y)
        best = cf.explain_best(model, y, epsilon=1e-5)
        for target in range(10):
            if target == source:
                continue
            res = cf.explain(model, cf.CfRequest(factual=y, target=target, epsilon=1e-5))
            if res.status == cf.STATUS_OK:
                assert best.distance_sq <= res.distance_sq + 1e-12


def test_explain_best_all_targets_failed():
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    frozen = cf.Mask.from_bits([0, 0])
    with pytest.raises(cf.AllTargetsFailedError) as err:
        cf.explain_best(model, [0.2, 0.5], mask=frozen, epsilon=0.5)
    assert set(err.value.statuses) == {1, 2}
    assert all(s == cf.STATUS_NO_FEASIBLE_SOLUTION for s in err.value.statuses.values())


def test_source_mismatch_warns_but_proceeds():
    model = kmeans_model()
    with pytest.warns(cf.SourceMismatchWarning):
        res = cf.explain(model, cf.CfRequest(factual=[0.0, 0.0], target=0, source=1))
    assert res.status == cf.STATUS_OK


def test_source_equals_target_rejected():
    model = kmeans_model()
    with pytest.raises(cf.ValidationError):
        cf.explain(model, cf.CfRequest(factual=[0.0, 0.0], target=0))


def test_explain_deterministic():
    model = two_cluster_gaussian_model()
    req = cf.CfRequest(factual=[0.1, -0.3], target=1, epsilon=0.01, mask=cf.Mask.from_bits([1, 1]))
    a = cf.explain(model, req)
    b = cf.explain(model, req)
    assert a.status == b.status
    assert a.distance_sq == b.distance_sq
    assert a.lam == b.lam
    assert a.residual == b.residual
    assert np.array_equal(a.counterfactual, b.counterfactual)
    assert np.array_equal(a.counterfactual_original, b.counterfactual_original)


def test_strict_membership_for_positive_epsilon():
    rng = np.random.default_rng(77)
    model = two_cluster_gaussian_model()
    for _ in range(20):
        y = rng.normal(scale=0.5, size=2)
        res = cf.explain(model, cf.CfRequest(factual=y, target=1, source=0, epsilon=1e-3))
        if res.status == cf.STATUS_OK:
            assert res.strict_member is True


def test_standardized_model_keeps_frozen_features_bit_exact():
    rng = np.random.default_rng(79)
    rows, _ = make_blobs(rng, [[0.0, 0.0, 0.0], [6.0, 5.0, 4.0]], sigma=0.5, n_per=100)
    model, _ = cf.fit(
        cf.Dataset(rows=rows),
        cf.FitConfig(algorithm="gmm", covariance=cf.FULL, n_clusters=2, seed=1, standardize=True),
    )
    y = rows[3]
    mask = cf.Mask.from_bits([1, 0, 1])
    source = cf.assign_cluster(model, model.to_internal(y))
    res = cf.explain(model, cf.CfRequest(factual=y, target=1 - source, mask=mask))
    assert res.status == cf.STATUS_OK
    assert res.counterfactual_original[1] == y[1]
    internal_y = np.asarray(model.to_internal(y))
    assert res.counterfactual[1] == internal_y[1]


def test_plausibility_check_basics():
    model = two_cluster_gaussian_model()
    target_mean = model.components[1].mean
    mode_density = math.exp(cf.log_density(model.components[1], target_mean))
    assert cf.plausibility_check(model, target_mean, 1, 0.0) is True
    assert cf.plausibility_check(model, target_mean, 1, mode_density * 0.999) is True
    far = target_mean + 20.0
    assert cf.plausibility_check(model, far, 1, mode_density / 2.0) is False
    with pytest.raises(cf.ValidationError):
        cf.plausibility_check(model, target_mean, 1, -1.0)


def test_plausibility_check_compares_densities_below_float_range():
    rng = np.random.default_rng(64)
    d = 64
    target = cf.GaussianComponent(
        mean=rng.normal(size=d), covariance=cf.CovarianceSpec.full(random_spd(rng, d)), prior=0.5
    )
    source = cf.GaussianComponent(
        mean=target.mean + 10.0, covariance=cf.CovarianceSpec.spherical(1.0), prior=0.5
    )
    model = cf.ClusterModel(kind=cf.GAUSSIAN, components=(source, target))
    z = target.mean + 6.0
    log_p = cf.log_density(target, z)
    # The density is positive but below the smallest subnormal float.
    assert log_p < math.log(5e-324)
    assert cf.plausibility_check(model, z, 1, 0.0) is True
    assert cf.plausibility_check(model, z, 1, 5e-324) is False
    assert cf.plausibility_check(model, target.mean, 1, 5e-324) is True


@pytest.mark.parametrize("kind", [cf.KMEANS, cf.GAUSSIAN])
@pytest.mark.parametrize("target", [-1, 3])
def test_plausibility_check_rejects_bad_target(kind, target):
    means = [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]
    if kind == cf.KMEANS:
        model = cf.ClusterModel(kind=cf.KMEANS, centers=means)
    else:
        spec = cf.CovarianceSpec.spherical(1.0)
        model = cf.ClusterModel(kind=cf.GAUSSIAN, components=tuple(
            cf.GaussianComponent(mean=m, covariance=spec, prior=1.0 / 3.0) for m in means
        ))
    with pytest.raises(cf.ValidationError, match="target"):
        cf.plausibility_check(model, np.zeros(2), target, 0.0)


@pytest.mark.parametrize("length", [1, 3])
def test_plausibility_check_rejects_wrong_dimension_kmeans(length):
    with pytest.raises(cf.DimensionMismatchError):
        cf.plausibility_check(kmeans_model(), np.zeros(length), 1, 0.0)


def test_plausibility_check_kmeans_uses_unit_gaussian():
    model = kmeans_model()
    center = model.centers[1]
    mode = math.exp(-0.5 * 2 * math.log(2 * math.pi))
    assert cf.plausibility_check(model, center, 1, mode * 0.999)
    assert not cf.plausibility_check(model, center, 1, mode * 1.001)


def test_explain_times_every_request():
    kres = cf.explain(kmeans_model(), cf.CfRequest(factual=[0.0, 0.5], target=1))
    gres = cf.explain(two_cluster_gaussian_model(), cf.CfRequest(factual=[0.1, -0.3], target=1))
    assert kres.status == gres.status == cf.STATUS_OK
    assert kres.elapsed > 0.0 and gres.elapsed > 0.0


def test_direct_solver_calls_leave_elapsed_at_zero():
    mask = cf.Mask.all_free(2)
    kres = solve_centroid_case(centroid_plane(np.zeros(2), np.array([2.0, 0.0]), 1e-5, mask),
                               np.array([0.0, 0.5]))
    source, target = two_cluster_gaussian_model().components
    gres = solve_case(pair_case(source, target, np.array([0.1, -0.3]), mask, 1e-5))
    assert kres.status == gres.status == cf.STATUS_OK
    assert kres.elapsed == 0.0 and gres.elapsed == 0.0


def test_explain_best_validates_every_target_before_solving(monkeypatch):
    explain_module = importlib.import_module("clustercf.explain")

    def no_solve(*args, **kwargs):
        raise AssertionError("a factual was solved")

    monkeypatch.setattr(explain_module, "solve_gaussian_rows", no_solve)
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    with pytest.raises(cf.ValidationError, match="target"):
        cf.explain_best(model, [0.0, 0.5], source=0, candidate_targets=[1, 2, 9])


def test_explain_best_validates_each_candidate_once(monkeypatch):
    counts = {"validate_against": 0, "all_free": 0}
    validate_against = cf.CfRequest.validate_against
    all_free = cf.Mask.all_free

    def counting_validate_against(self, model):
        counts["validate_against"] += 1
        return validate_against(self, model)

    def counting_all_free(d):
        counts["all_free"] += 1
        return all_free(d)

    monkeypatch.setattr(cf.CfRequest, "validate_against", counting_validate_against)
    monkeypatch.setattr(cf.Mask, "all_free", staticmethod(counting_all_free))
    centers = [[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 3.0], [-3.0, 0.0]]
    model = cf.ClusterModel(kind=cf.KMEANS, centers=centers)
    result = cf.explain_best(model, [0.2, 0.1])
    assert result.status == cf.STATUS_OK
    assert counts["validate_against"] == 4
    assert counts["all_free"] <= 1
