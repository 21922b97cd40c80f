"""`explain_many` is the one batched entry point: a batch must give, row for
row, what `explain` gives for each request alone, and the batch callers
(`run_eval`, `sweep_epsilon`, `explain_best`) what the per-request calls
give."""

import importlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clustercf as cf
from helpers import float_bits, random_covariance

explain_module = importlib.import_module("clustercf.explain")
gaussian_module = importlib.import_module("clustercf.gaussian_cf")

FAMILIES = ("kmeans", cf.FULL, cf.DIAGONAL, cf.SPHERICAL, "mixed")
EPSILONS = (0.0, 1e-5, 0.3, 1.0)
REL_TOL = 1e-9


def random_model(rng, family, d, m):
    means = rng.normal(scale=2.0, size=(m, d))
    std = None
    if rng.random() < 0.5:
        std = cf.Standardization(mean=rng.normal(size=d), std=rng.uniform(0.5, 3.0, size=d))
    if family == "kmeans":
        return cf.ClusterModel(kind=cf.KMEANS, centers=means, standardization=std)
    kinds = [family] * m if family != "mixed" else rng.choice(cf.core.COVARIANCE_KINDS, size=m)
    priors = rng.dirichlet(np.ones(m)) * 0.5 + 0.5 / m
    priors = priors / priors.sum()
    components = tuple(
        cf.GaussianComponent(mean=means[k], covariance=random_covariance(rng, d, kinds[k]),
                             prior=priors[k])
        for k in range(m)
    )
    return cf.ClusterModel(kind=cf.GAUSSIAN, components=components, standardization=std)


def random_batch(rng, model, n_groups, per_group):
    """Requests in a few (source, target, mask) groups, shuffled, with
    claimed and detected sources and several epsilons per group."""
    d, m = model.d, model.n_clusters
    requests = []
    for _ in range(n_groups):
        home = int(rng.integers(m))
        target = int(rng.choice([k for k in range(m) if k != home]))
        mask = None if rng.random() < 0.4 else cf.Mask(rng.random(d) < 0.7)
        claimed = rng.random() < 0.5
        for _ in range(per_group):
            internal = model.means()[home] + rng.normal(scale=0.6, size=d)
            y = np.asarray(model.to_original(internal), dtype=np.float64)
            detected = cf.assign_cluster(model, internal)
            if detected == target:
                continue
            requests.append(cf.CfRequest(
                factual=y, target=target, source=home if claimed else None, mask=mask,
                epsilon=float(rng.choice(EPSILONS)),
            ))
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


def close(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    scale = max(float(np.max(np.abs(a), initial=0.0)), float(np.max(np.abs(b), initial=0.0)))
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= REL_TOL * scale


def assert_same(batched, alone):
    """Exact statuses, ids, paths, iterations and verdicts; floats within
    1e-9 relative."""
    assert batched.status == alone.status
    assert (batched.source, batched.target) == (alone.source, alone.target)
    assert batched.tolerant_member == alone.tolerant_member
    assert batched.strict_member == alone.strict_member
    assert (batched.diagnostics is None) == (alone.diagnostics is None)
    if alone.diagnostics is not None:
        for key in ("path", "iterations", "interval"):
            assert batched.diagnostics[key] == alone.diagnostics[key], key
    for field in ("distance_sq", "lam", "residual", "counterfactual", "counterfactual_original"):
        assert close(getattr(batched, field), getattr(alone, field)), field
    assert batched.elapsed > 0.0 and alone.elapsed > 0.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), family=st.sampled_from(FAMILIES), d=st.integers(1, 8),
       m=st.integers(2, 4), n_groups=st.integers(1, 3), per_group=st.integers(1, 5))
def test_batch_matches_one_request_at_a_time(seed, family, d, m, n_groups, per_group):
    rng = np.random.default_rng(seed)
    model = random_model(rng, family, d, m)
    requests = random_batch(rng, model, n_groups, per_group)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cf.SourceMismatchWarning)
        batched = cf.explain_many(model, requests)
        alone = [cf.explain(model, request) for request in requests]
    assert len(batched) == len(requests)
    for b, a in zip(batched, alone):
        assert_same(b, a)


def test_empty_batch():
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [2.0, 0.0]])
    assert cf.explain_many(model, []) == []


def test_one_plan_per_group_and_a_shared_time(monkeypatch):
    built = []
    plan_class = explain_module.GaussianPairPlan

    def counting_plan(source, target, mask):
        built.append((source, target))
        return plan_class(source, target, mask)

    monkeypatch.setattr(explain_module, "GaussianPairPlan", counting_plan)
    rng = np.random.default_rng(5)
    model = random_model(rng, cf.FULL, 3, 3)
    requests = random_batch(rng, model, 1, 6) + random_batch(rng, model, 1, 4)
    groups = {(r.source, r.target, None if r.mask is None else r.mask.bits.tobytes())
              for r in requests}
    results = cf.explain_many(model, requests)
    assert len(built) == len(groups) == 2
    for key in groups:
        shares = {res.elapsed for req, res in zip(requests, results)
                  if (req.source, req.target, None if req.mask is None else req.mask.bits.tobytes())
                  == key}
        assert len(shares) == 1 and shares.pop() > 0.0


@pytest.mark.parametrize("family", ["kmeans", cf.FULL])
def test_each_distinct_factual_is_mapped_and_scored_once(monkeypatch, family):
    scored = []
    score_matrix = cf.core.score_matrix

    def counting(model, rows, **kwargs):
        scored.append(np.array(rows, dtype=np.float64, ndmin=2))
        return score_matrix(model, rows, **kwargs)

    # Every assignment goes through `assign_rows`, which looks the scorer up in core.
    monkeypatch.setattr(cf.core, "score_matrix", counting)
    rng = np.random.default_rng(13)
    model = random_model(rng, family, 3, 8)
    y = np.asarray(model.to_original(model.means()[2] + 0.3), dtype=np.float64)
    internal = np.asarray(model.to_internal(y), dtype=np.float64)

    def factual_rows(factual=internal):
        return sum(int(np.all(rows == factual, axis=1).sum()) for rows in scored)

    # The source is resolved once, and the core solves the seven
    # candidates from that one detection.
    cf.explain_best(model, y, epsilon=0.3)
    assert factual_rows() == 1
    scored.clear()
    cf.sweep_epsilon(model, y, 0, None, [0.0, 0.25, 0.5, 1.0, 2.0])
    assert factual_rows() == 1
    # run_eval labels each dataset row once, and the core solves the
    # chosen rows from those labels without scoring them again.
    scored.clear()
    rows = np.asarray(model.to_original(
        np.repeat(model.means(), 4, axis=0) + rng.normal(scale=0.3, size=(32, 3))))
    report = cf.run_eval(model, cf.Dataset(rows=rows),
                         cf.EvalConfig(source=2, target=0, n_factuals=3, epsilon=0.3))
    internal_rows = np.asarray(model.to_internal(rows), dtype=np.float64)
    for row in internal_rows:
        assert factual_rows(row) == 1
    # The counterfactuals' verdicts are the only other rows scored.
    placed = sum(record.counterfactual is not None for record in report.records)
    assert sum(len(block) for block in scored) == len(rows) + placed


@pytest.mark.parametrize("family", ["kmeans", cf.FULL])
@pytest.mark.parametrize("bad", ["target", "source", "mask", "dimension", "detected"])
def test_invalid_request_anywhere_raises_before_any_solve(monkeypatch, family, bad):
    solves = []

    def counting(solver):
        def wrapper(*args, **kwargs):
            solves.append(solver.__name__)
            return solver(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(explain_module, "solve_gaussian_rows",
                        counting(explain_module.solve_gaussian_rows))
    rng = np.random.default_rng(11)
    model = random_model(rng, family, 3, 3)
    requests = random_batch(rng, model, 2, 3)
    y = np.asarray(model.to_original(model.means()[1]), dtype=np.float64)
    broken = {
        "target": cf.CfRequest(factual=y, target=3),
        "source": cf.CfRequest(factual=y, target=0, source=-1),
        "mask": cf.CfRequest(factual=y, target=0, mask=cf.Mask.from_bits([1, 0])),
        "dimension": cf.CfRequest(factual=np.zeros(4), target=0),
        # Detected source 1 equals the target.
        "detected": cf.CfRequest(factual=y, target=1),
    }[bad]
    requests.insert(len(requests) - 1, broken)
    with pytest.raises((cf.ValidationError, cf.DimensionMismatchError)):
        cf.explain_many(model, requests)
    assert solves == []


def test_source_mismatch_warns_for_the_claimed_row_only():
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    requests = [
        cf.CfRequest(factual=[0.1, 0.0], target=1, source=0),
        cf.CfRequest(factual=[0.1, 0.0], target=2, source=1),
    ]
    with pytest.warns(cf.SourceMismatchWarning, match="claimed source 1") as record:
        results = cf.explain_many(model, requests)
    assert len(record) == 1
    assert [r.source for r in results] == [0, 1]


# ---------------------------------------------------------------------------
# The batch callers give what per-request calls give


def fitted_gaussian(seed, covariance):
    rng = np.random.default_rng(seed)
    centers = [[0.0, 0.0, 0.0], [4.0, 3.0, 0.5], [-3.0, 3.5, 2.0]]
    rows = np.concatenate([c + rng.normal(scale=0.8, size=(60, 3)) for c in centers])
    data = cf.Dataset(rows=rows)
    model, _ = cf.fit(data, cf.FitConfig(algorithm="gmm", covariance=covariance, n_clusters=3,
                                         seed=seed))
    return model, data


@pytest.mark.parametrize("covariance", [cf.FULL, cf.DIAGONAL, cf.SPHERICAL])
def test_run_eval_equals_per_request_explain(covariance):
    model, data = fitted_gaussian(3, covariance)
    source = int(np.argmax(np.bincount(
        np.argmax(cf.score_matrix(model, model.to_internal(data.rows)), axis=1))))
    target = (source + 1) % 3
    mask = cf.Mask.from_bits([1, 0, 1])
    report = cf.run_eval(model, data, cf.EvalConfig(source=source, target=target, n_factuals=20,
                                                    seed=4, epsilon=0.2, mask=mask))
    for rec in report.records:
        alone = cf.explain(model, cf.CfRequest(factual=data.rows[rec.factual_id], target=target,
                                               source=source, mask=mask, epsilon=0.2))
        assert rec.status == alone.status
        assert rec.tolerant_member == bool(alone.tolerant_member)
        assert rec.strict_member == bool(alone.strict_member)
        assert close(rec.distance_sq, alone.distance_sq)
        assert close(rec.lam, alone.lam)
        assert close(rec.counterfactual, alone.counterfactual_original)


@pytest.mark.parametrize("covariance", [cf.FULL, cf.DIAGONAL])
def test_sweep_epsilon_equals_per_request_explain(covariance):
    model, data = fitted_gaussian(5, covariance)
    y = data.rows[7]
    target = (cf.assign_cluster(model, model.to_internal(y)) + 1) % 3
    epsilons = [0.0, 1e-5, 0.1, 0.4, 1.5]
    points = cf.sweep_epsilon(model, y, target, None, epsilons)
    for point in points:
        alone = cf.explain(model, cf.CfRequest(factual=y, target=target, epsilon=point.epsilon))
        assert_same(point.result, alone)


@pytest.mark.parametrize("shape", ["run_eval", "sweep"])
@pytest.mark.parametrize("covariance", [cf.FULL, cf.DIAGONAL, cf.SPHERICAL])
def test_a_50_row_group_gives_each_row_the_bits_it_gets_alone(monkeypatch, covariance, shape):
    # Fifty factuals of one source toward one target at one eps (what
    # run_eval asks), or one factual at fifty eps (what sweep_epsilon
    # asks): one group, whose interval rows are solved as one stack.
    stacked = []
    lockstep = gaussian_module._lockstep_root

    def counting(side, a2, *args):
        stacked.append(len(a2))
        return lockstep(side, a2, *args)

    monkeypatch.setattr(gaussian_module, "_lockstep_root", counting)
    model, data = fitted_gaussian(9, covariance)
    labels = np.argmax(cf.score_matrix(model, model.to_internal(data.rows)), axis=1)
    source = int(np.argmax(np.bincount(labels)))
    target = (source + 1) % 3
    mask = cf.Mask.from_bits([1, 0, 1])
    if shape == "run_eval":
        rows = data.rows[labels == source][:50]
        requests = [cf.CfRequest(factual=y, target=target, source=source, mask=mask, epsilon=0.2)
                    for y in rows]
    else:
        y = data.rows[np.flatnonzero(labels == source)[0]]
        requests = [cf.CfRequest(factual=y, target=target, mask=mask, epsilon=0.5 * i / 49)
                    for i in range(50)]
    assert len(requests) == 50
    batched = cf.explain_many(model, requests)
    assert sum(stacked) >= 40
    stacked.clear()
    for request, got in zip(requests, batched):
        alone = cf.explain(model, request)
        assert_same(got, alone)
        assert got.diagnostics == alone.diagnostics
        for field in ("distance_sq", "lam", "residual", "counterfactual",
                      "counterfactual_original"):
            assert float_bits(getattr(got, field)) == float_bits(getattr(alone, field)), field
    assert stacked == []


@pytest.mark.parametrize("family", ["kmeans", cf.FULL, "mixed"])
def test_explain_best_equals_best_per_request_explain(family):
    rng = np.random.default_rng(17)
    model = random_model(rng, family, 4, 5)
    for _ in range(10):
        internal = model.means()[int(rng.integers(5))] + rng.normal(scale=0.5, size=4)
        y = np.asarray(model.to_original(internal), dtype=np.float64)
        mask = cf.Mask(rng.random(4) < 0.75)
        source = cf.assign_cluster(model, internal)
        alone = [cf.explain(model, cf.CfRequest(factual=y, target=t, source=source, mask=mask,
                                                 epsilon=0.3))
                 for t in range(5) if t != source]
        solved = [r for r in alone if r.status == cf.STATUS_OK]
        if not solved:
            with pytest.raises(cf.AllTargetsFailedError):
                cf.explain_best(model, y, mask=mask, epsilon=0.3)
            continue
        want = min(solved, key=lambda r: (r.distance_sq, r.target))
        best = cf.explain_best(model, y, mask=mask, epsilon=0.3)
        assert best.target == want.target
        assert_same(best, want)


@pytest.mark.parametrize("family", FAMILIES)
def test_explain_best_equals_explain_of_each_candidate_alone(family):
    # Each candidate alone through explain_best is the bits `explain` gives
    # it, and the full search returns the winner's bits.
    rng = np.random.default_rng(23)
    model = random_model(rng, family, 3, 4)
    for _ in range(6):
        internal = model.means()[int(rng.integers(4))] + rng.normal(scale=0.7, size=3)
        y = np.asarray(model.to_original(internal), dtype=np.float64)
        mask = cf.Mask(rng.random(3) < 0.75)
        eps = float(rng.choice(EPSILONS))
        source = cf.assign_cluster(model, internal)
        alone = {t: cf.explain(model, cf.CfRequest(factual=y, target=t, source=source,
                                                    mask=mask, epsilon=eps))
                 for t in range(4) if t != source}
        for target, want in alone.items():
            if want.status != cf.STATUS_OK:
                with pytest.raises(cf.AllTargetsFailedError) as info:
                    cf.explain_best(model, y, mask=mask, epsilon=eps, candidate_targets=[target])
                assert info.value.statuses == {target: want.status}
                continue
            got = cf.explain_best(model, y, mask=mask, epsilon=eps, candidate_targets=[target])
            assert got.status == want.status
            assert got.diagnostics == want.diagnostics
            for field in ("lam", "distance_sq", "residual", "counterfactual",
                          "counterfactual_original"):
                assert float_bits(getattr(got, field)) == float_bits(getattr(want, field)), field
        solved = [r for r in alone.values() if r.status == cf.STATUS_OK]
        if solved:
            best = cf.explain_best(model, y, mask=mask, epsilon=eps)
            want = min(solved, key=lambda r: (r.distance_sq, r.target))
            assert best.target == want.target
            assert best.diagnostics["iterations"] == want.diagnostics["iterations"]
            assert float_bits(best.lam) == float_bits(want.lam)
            assert float_bits(best.counterfactual) == float_bits(want.counterfactual)


@pytest.mark.parametrize("family", FAMILIES)
def test_explain_best_detects_a_finite_factual_in_its_assigned_cluster(family):
    # Without a source, explain_best gives the bits it gives from the
    # cluster `assign_cluster` puts the factual in.
    rng = np.random.default_rng(29)
    model = random_model(rng, family, 3, 4)
    for _ in range(8):
        internal = model.means()[int(rng.integers(4))] + rng.normal(scale=0.7, size=3)
        y = np.asarray(model.to_original(internal), dtype=np.float64)
        mask = cf.Mask(rng.random(3) < 0.75)
        eps = float(rng.choice(EPSILONS))
        source = cf.assign_cluster(model, model.to_internal(y))
        try:
            want = cf.explain_best(model, y, mask=mask, epsilon=eps, source=source)
        except cf.AllTargetsFailedError as failed:
            with pytest.raises(cf.AllTargetsFailedError) as info:
                cf.explain_best(model, y, mask=mask, epsilon=eps)
            assert (info.value.statuses, info.value.source) == (failed.statuses, source)
            continue
        got = cf.explain_best(model, y, mask=mask, epsilon=eps)
        assert (got.status, got.source, got.target) == (want.status, source, want.target)
        assert got.diagnostics == want.diagnostics
        for field in ("lam", "distance_sq", "counterfactual", "counterfactual_original"):
            assert float_bits(getattr(got, field)) == float_bits(getattr(want, field)), field


def test_explain_best_on_a_factual_whose_scores_overflow_fails_as_explain_does():
    # The mapped factual's first coordinate is 1e310: it has no finite
    # score, so it is in no cluster, and explain_best solves it from
    # cluster 0 as the core does.
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]],
                            standardization=cf.Standardization(mean=[0.0, 0.0], std=[1e-10, 1.0]))
    y = [1e300, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = [cf.explain(model, cf.CfRequest(factual=y, target=t)) for t in (1, 2)]
        with pytest.raises(cf.AllTargetsFailedError) as info:
            cf.explain_best(model, y)
    assert [(r.status, r.source) for r in alone] == [(cf.STATUS_NO_ROOT_FOUND, 0)] * 2
    assert info.value.statuses == {1: cf.STATUS_NO_ROOT_FOUND, 2: cf.STATUS_NO_ROOT_FOUND}
    assert info.value.source == 0


# ---------------------------------------------------------------------------
# The campaign calls check their inputs before any solve, in a fixed order


def _kmeans3():
    return cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])


NAN = float("nan")
DIM = cf.DimensionMismatchError
BAD_MASK = cf.Mask.from_bits([1, 0, 1])
# Bits that are not a `Mask`: rejected at the mask's place, not coerced.
RAW_MASK = [1, 0]

# (factual, target, mask, epsilons, source) -> the error and the path.
SWEEP_ERRORS = {
    "nan factual": (([NAN, 0.0], 1, None, [0.1], None), "factual"),
    "wrong-length factual": (([0.1, 0.0, 0.0], 1, None, [0.1], None), DIM),
    "wrong-length mask": (([0.1, 0.0], 1, BAD_MASK, [0.1], None), "mask"),
    "mask not a Mask": (([0.1, 0.0], 1, RAW_MASK, [0.1], None), "mask"),
    "target out of range, mask not a Mask": (([0.1, 0.0], 3, RAW_MASK, [0.1], None), "target"),
    "negative eps": (([0.1, 0.0], 1, None, [0.1, -0.2], None), "epsilon"),
    "empty eps": (([0.1, 0.0], 1, None, [], None), "epsilons"),
    "unsorted eps": (([0.1, 0.0], 1, None, [0.2, 0.1], None), "epsilons"),
    "target out of range": (([0.1, 0.0], 3, None, [0.1], None), "target"),
    "non-integral target": (([0.1, 0.0], 1.5, None, [0.1], None), "target"),
    "source equals target": (([0.1, 0.0], 1, None, [0.1], 1), "target"),
    "detected source equals target": (([0.1, 0.0], 0, None, [0.1], None), "target"),
    "nan factual, empty eps": (([NAN, 0.0], 1, None, [], None), "epsilons"),
    "first eps negative, non-integral target": (([0.1, 0.0], 1.5, None, [-1.0], None), "epsilon"),
    "later eps negative, non-integral target": (([0.1, 0.0], 1.5, None, [0.1, -1.0], None),
                                                "target"),
    "unsorted eps, wrong-length factual": (([0.1, 0.0, 0.0], 1, None, [0.2, 0.1], None),
                                           "epsilons"),
    "wrong-length factual, target out of range": (([0.1, 0.0, 0.0], 3, None, [0.1], None), DIM),
    "target out of range, wrong-length mask": (([0.1, 0.0], 3, BAD_MASK, [0.1], None), "target"),
}

# (factual, mask, epsilon, candidate_targets, source) -> the error and the path.
BEST_ERRORS = {
    "nan factual": (([NAN, 0.0], None, 0.1, None, None), "factual"),
    "wrong-length factual": (([0.1, 0.0, 0.0], None, 0.1, None, None), DIM),
    "wrong-length mask": (([0.1, 0.0], BAD_MASK, 0.1, None, None), "mask"),
    "mask not a Mask": (([0.1, 0.0], np.array([True, False]), 0.1, None, None), "mask"),
    "negative eps": (([0.1, 0.0], None, -0.1, None, None), "epsilon"),
    "no candidates": (([0.1, 0.0], None, 0.1, [], None), "candidate_targets"),
    "target out of range": (([0.1, 0.0], None, 0.1, [1, 9], None), "target"),
    "non-integral target": (([0.1, 0.0], None, 0.1, [1.5], None), "candidate_targets"),
    "source equals target": (([0.1, 0.0], None, 0.1, [1, 2], 1), "candidate_targets"),
    "source out of range": (([0.1, 0.0], None, 0.1, None, 5), "source"),
    "non-integral source": (([0.1, 0.0], None, 0.1, None, 0.5), "source"),
    "nan factual, negative eps": (([NAN, 0.0], None, -0.1, None, None), "factual"),
    "negative eps, non-integral source": (([0.1, 0.0], None, -0.1, None, 0.5), "epsilon"),
    "wrong-length mask, high target": (([0.1, 0.0], BAD_MASK, 0.1, [1, 9], None), "mask"),
    "wrong-length mask, negative target": (([0.1, 0.0], BAD_MASK, 0.1, [-1, 1], None), "target"),
    "wrong-length factual, no candidates": (([0.1, 0.0, 0.0], None, 0.1, [], None), DIM),
}


def _no_solve(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a row was solved")

    monkeypatch.setattr(explain_module, "solve_gaussian_rows", fail)


def _raises(want):
    if want is DIM:
        return pytest.raises(DIM, match="factual")
    return pytest.raises(cf.ValidationError, match=f"^{want}: ")


@pytest.mark.parametrize("case", sorted(SWEEP_ERRORS))
def test_sweep_epsilon_error_precedence(monkeypatch, case):
    _no_solve(monkeypatch)
    (y, target, mask, epsilons, source), want = SWEEP_ERRORS[case]
    with _raises(want):
        cf.sweep_epsilon(_kmeans3(), y, target, mask, epsilons, source=source)


@pytest.mark.parametrize("case", sorted(BEST_ERRORS))
def test_explain_best_error_precedence(monkeypatch, case):
    _no_solve(monkeypatch)
    (y, mask, epsilon, candidates, source), want = BEST_ERRORS[case]
    with _raises(want):
        cf.explain_best(_kmeans3(), y, mask=mask, epsilon=epsilon,
                        candidate_targets=candidates, source=source)


def _eval_case(rows, **config):
    data = cf.Dataset(rows=rows)
    return data, cf.EvalConfig(**{"source": 0, "target": 1, "n_factuals": 2, **config})


GOOD_ROWS = [[0.1, 0.0], [-0.1, 0.2], [3.1, 0.0], [0.0, 2.9]]
WIDE_ROWS = [[0.1, 0.0, 0.0], [3.0, 0.1, 0.0]]

# rows and EvalConfig fields -> the error and the path.
EVAL_ERRORS = {
    "nan factual": (([[NAN, 0.0]] + GOOD_ROWS, {}), "rows"),
    "wrong-length factual": ((WIDE_ROWS, {}), cf.DimensionMismatchError),
    "wrong-length mask": ((GOOD_ROWS, {"mask": BAD_MASK}), "mask"),
    "mask not a Mask": ((GOOD_ROWS, {"mask": RAW_MASK}), "mask"),
    "negative eps": ((GOOD_ROWS, {"epsilon": -0.1}), "epsilon"),
    "target out of range": ((GOOD_ROWS, {"target": 3}), "target"),
    "non-integral target": ((GOOD_ROWS, {"target": 1.5}), "target"),
    "source equals target": ((GOOD_ROWS, {"target": 0}), "target"),
    "source out of range, wrong-length mask": ((GOOD_ROWS, {"source": 4, "mask": BAD_MASK}),
                                               "source"),
    "target out of range, wrong-length data": ((WIDE_ROWS, {"target": 3}), "target"),
    # The mask is a config field: it is checked with the cluster ids,
    # before the data's width.
    "wrong-length mask, wrong-length data": ((WIDE_ROWS, {"mask": BAD_MASK}), "mask"),
    "negative eps, non-integral target": ((GOOD_ROWS, {"epsilon": -0.1, "target": 1.5}),
                                          "target"),
}


@pytest.mark.parametrize("case", sorted(EVAL_ERRORS))
def test_run_eval_error_precedence(monkeypatch, case):
    _no_solve(monkeypatch)
    (rows, config), want = EVAL_ERRORS[case]
    if want is cf.DimensionMismatchError:
        data, config = _eval_case(rows, **config)
        with pytest.raises(cf.DimensionMismatchError, match="dimension"):
            cf.run_eval(_kmeans3(), data, config)
        return
    with pytest.raises(cf.ValidationError, match=f"^{want}: "):
        data, config = _eval_case(rows, **config)
        cf.run_eval(_kmeans3(), data, config)
