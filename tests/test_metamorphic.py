"""Metamorphic relations: a result checked against the result of a
transformed problem, with no oracle.

Relabelling the clusters renames them and changes nothing else: each
cluster is scored on its own and each pair plan reads only its two
clusters, so every result must come back bit for bit, under the new ids.
The one exception is a strict verdict on an exact score tie, which each
labelling gives to its own lowest id.
"""

import numpy as np
import pytest

import clustercf as cf
from helpers import random_covariance, random_mask

M = 4
EPSILONS = (0.0, 1e-5, 0.3)


def random_model(rng, kind, d):
    means = rng.normal(scale=3.0, size=(M, d))
    std = cf.Standardization(mean=rng.normal(size=d), std=rng.uniform(0.5, 3.0, size=d))
    if kind == cf.KMEANS:
        return cf.ClusterModel(kind=cf.KMEANS, centers=means, standardization=std)
    priors = rng.dirichlet(np.full(M, 4.0))
    return cf.ClusterModel(kind=cf.GAUSSIAN, standardization=std, components=tuple(
        cf.GaussianComponent(mean=means[k], covariance=random_covariance(rng, d, kind),
                             prior=priors[k])
        for k in range(M)))


def relabelled(model, perm):
    """The model whose cluster j is `model`'s cluster perm[j]."""
    if model.kind == cf.KMEANS:
        return cf.ClusterModel(kind=cf.KMEANS, centers=model.centers[perm],
                               standardization=model.standardization)
    return cf.ClusterModel(kind=cf.GAUSSIAN, standardization=model.standardization,
                           components=tuple(model.components[k] for k in perm))


def bits(value):
    return None if value is None else np.asarray(value, dtype=np.float64).tobytes()


def same_result(a, b, model, new_id):
    """`a` from `model` and `b` from its relabelling are one result."""
    assert a.status == b.status
    assert (new_id[a.source], new_id[a.target]) == (b.source, b.target)
    for field in ("counterfactual", "counterfactual_original", "distance_sq", "lam"):
        assert bits(getattr(a, field)) == bits(getattr(b, field)), field
    assert a.tolerant_member == b.tolerant_member
    if a.strict_member != b.strict_member:
        # At eps = 0 the point can tie the top score exactly, and each
        # labelling gives the tie to its own lowest id.
        scores = cf.score_matrix(model, a.counterfactual, per_row=True)[0]
        tied = np.flatnonzero(scores == scores.max()).tolist()
        assert a.target in tied
        assert a.strict_member == (a.target == min(tied))
        assert b.strict_member == (b.target == min(new_id[k] for k in tied))


KINDS = (cf.KMEANS, cf.FULL, cf.DIAGONAL, cf.SPHERICAL)


@pytest.mark.parametrize("d", [2, 16])
@pytest.mark.parametrize("kind", KINDS)
def test_relabelling_the_clusters_is_bit_identical(kind, d):
    rng = np.random.default_rng([KINDS.index(kind), d])
    model = random_model(rng, kind, d)
    perm = rng.permutation(M)
    while np.any(perm == np.arange(M)):
        perm = rng.permutation(M)
    other = relabelled(model, perm)
    new_id = np.argsort(perm).tolist()

    # Rows around every mean, in original units.
    internal = np.repeat(model.means(), 30, axis=0) + rng.normal(scale=0.8, size=(30 * M, d))
    rows = np.asarray(model.to_original(internal), dtype=np.float64)

    # explain, with the source detected.
    for y in rows[rng.choice(len(rows), size=30, replace=False)]:
        home = cf.assign_cluster(model, model.to_internal(y))
        assert new_id[home] == cf.assign_cluster(other, other.to_internal(y))
        target = int(rng.choice([k for k in range(M) if k != home]))
        mask = None if rng.random() < 0.5 else random_mask(rng, d)
        eps = float(rng.choice(EPSILONS))
        a = cf.explain(model, cf.CfRequest(factual=y, target=target, mask=mask, epsilon=eps))
        b = cf.explain(other, cf.CfRequest(factual=y, target=new_id[target], mask=mask,
                                           epsilon=eps))
        same_result(a, b, model, new_id)

    # run_eval samples the same rows and solves them alike.
    data = cf.Dataset(rows=rows)
    for source, target in ((0, 1), (3, 2)):
        a = cf.run_eval(model, data, cf.EvalConfig(source=source, target=target, n_factuals=8,
                                                   seed=5, epsilon=0.3))
        b = cf.run_eval(other, data, cf.EvalConfig(source=new_id[source], target=new_id[target],
                                                   n_factuals=8, seed=5, epsilon=0.3))
        assert [r.factual_id for r in a.records] == [r.factual_id for r in b.records]
        for ra, rb in zip(a.records, b.records):
            assert (ra.status, ra.strict_member, ra.tolerant_member) == \
                (rb.status, rb.strict_member, rb.tolerant_member)
            assert bits(ra.counterfactual) == bits(rb.counterfactual)
            assert bits(ra.distance_sq) == bits(rb.distance_sq)

    # The frequency priors are the permuted priors.
    if kind != cf.KMEANS:
        a = cf.priors_policy(model, "frequency", data)
        b = cf.priors_policy(other, "frequency", data)
        assert [b.components[j].prior for j in range(M)] == \
            [a.components[k].prior for k in perm]
