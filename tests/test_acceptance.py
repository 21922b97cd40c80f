"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced.
"""

import math
import time

import numpy as np

import clustercf as cf
from helpers import (
    centroid_plane,
    pair_case,
    random_mask,
    random_pair_components,
    solve_case,
    solve_centroid_case,
)
from oracles import (
    constraint_residual,
    covariance_matrix,
    expanded_full_lambda_equation,
    global_optimality_certificate,
    level_set_min_distance_2d,
    lstsq_plane_distance_sq,
    make_blobs,
    pair_residual_fn,
    sampled_plane_min_distance_sq,
    stationary_point,
    stationary_poles,
)

KINDS = (cf.FULL, cf.DIAGONAL, cf.SPHERICAL)


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


# ---------------------------------------------------------------------------
# 1. Closed-form centroid counterfactuals against a projection oracle


def test_criterion_1_kmeans_closed_form_vs_oracle():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    n_checked = 0
    eps_grid = [0.0, 0.25, 1.0]
    for d in (2, 5, 8, 64):
        for i in range(50):
            m_s = rng.normal(scale=1.5, size=d)
            m_t = rng.normal(scale=1.5, size=d) + 1.0
            mask = random_mask(rng, d)
            y = rng.normal(scale=2.0, size=d)
            epsilon = eps_grid[i % 3]
            con = centroid_plane(m_s, m_t, epsilon, mask)
            res = solve_centroid_case(con, y)
            if res.status != cf.STATUS_OK:
                continue
            c_free = con.c - float(y[mask.fixed] @ con.v_fixed)
            oracle_d2, _ = lstsq_plane_distance_sq(y[mask.free], con.v_free, c_free)
            gap = abs(res.distance_sq - oracle_d2)
            worst = max(worst, gap)
            sampled = sampled_plane_min_distance_sq(y[mask.free], con.v_free, c_free, rng, n=40)
            assert res.distance_sq <= sampled + 1e-9
            n_checked += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: kmeans closed form matches projection oracle",
        worst <= 1e-6 and n_checked >= 190 and elapsed < 10.0,
        f"max gap {worst:.2e}, {n_checked} instances, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Gaussian residual tolerance and mask preservation


def test_criterion_2_gaussian_constraint_satisfaction():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    n_ok = 0
    n_total = 0
    worst_rel = 0.0
    for i in range(200):
        kind = KINDS[i % 3]
        d = int(rng.integers(2, 9))
        mask = random_mask(rng, d)
        epsilon = float(rng.choice([0.0, 1e-5, 0.5, 2.0]))
        source, target = random_pair_components(rng, d, kind)
        y = source.mean + rng.normal(scale=0.4, size=d)
        prob = pair_case(source, target, y, mask, epsilon)
        res = solve_case(prob)
        n_total += 1
        if res.status != cf.STATUS_OK:
            continue
        n_ok += 1
        tol = 1e-8 * (1.0 + abs(prob.c_alpha))
        assert np.array_equal(res.counterfactual[mask.fixed], y[mask.fixed])
        worst_rel = max(worst_rel, abs(res.residual) / tol)
        assert abs(res.residual) <= tol
        # The reported residual is the solve's own expansion of g; the
        # oracle evaluates g at the returned point from the densities.
        assert abs(constraint_residual(prob, res.counterfactual)) <= tol
        cert = global_optimality_certificate(
            source.mean, covariance_matrix(source.covariance, d),
            target.mean, covariance_matrix(target.covariance, d),
            y, res.counterfactual, mask.free,
        )
        assert cert >= -1e-9
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2: gaussian residual within 1e-8 scale, masks exact, global minimizers",
        n_ok >= 120 and elapsed < 30.0,
        f"{n_ok}/{n_total} solved, worst residual at {worst_rel:.3f} of tolerance, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. 2-D level-set grid oracle


def test_criterion_3_level_set_oracle_2d():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    n_solved = 0
    for kind in KINDS:
        for _ in range(10):
            source, target = random_pair_components(rng, 2, kind)
            y = source.mean + rng.normal(scale=0.4, size=2)
            prob = pair_case(source, target, y, cf.Mask.all_free(2), 0.0)
            res = solve_case(prob)
            assert res.status == cf.STATUS_OK, res.status
            n_solved += 1

            res_fn, _ = pair_residual_fn(
                source.mean, covariance_matrix(source.covariance, 2), source.prior,
                target.mean, covariance_matrix(target.covariance, 2), target.prior, 0.0,
            )
            sigma = math.sqrt(max(
                float(np.max(np.linalg.eigvalsh(covariance_matrix(source.covariance, 2)))),
                float(np.max(np.linalg.eigvalsh(covariance_matrix(target.covariance, 2)))),
            ))
            anchors = np.stack([source.mean, target.mean, y, res.counterfactual])
            lo = anchors.min(axis=0) - 4.0 * sigma
            hi = anchors.max(axis=0) + 4.0 * sigma
            xs = np.linspace(lo[0], hi[0], 2000)
            ys = np.linspace(lo[1], hi[1], 2000)
            oracle_d2, n_pts = level_set_min_distance_2d(res_fn, y, xs, ys)
            assert n_pts > 0
            cell_diag = math.hypot(xs[1] - xs[0], ys[1] - ys[0])
            assert math.sqrt(res.distance_sq) <= math.sqrt(oracle_d2) + 2.0 * cell_diag
    elapsed = time.perf_counter() - start
    _report(
        "criterion 3: 2-D solutions beat or tie the 2000x2000 level-set scan",
        n_solved == 30 and elapsed < 120.0,
        f"{n_solved} problems, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Boundary behavior of a fixed pair


def test_criterion_4_boundary_reproduction():
    km = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [2.0, 0.0]])
    gm = cf.ClusterModel(
        kind=cf.GAUSSIAN,
        components=(
            cf.GaussianComponent(
                mean=[0.0, 0.0],
                covariance=cf.CovarianceSpec.full([[1.1, 0.5], [0.5, 0.9]]),
                prior=0.55,
            ),
            cf.GaussianComponent(
                mean=[3.0, 1.5],
                covariance=cf.CovarianceSpec.full([[0.8, -0.3], [-0.3, 1.4]]),
                prior=0.45,
            ),
        ),
    )
    y = np.asarray([0.2, 0.6])

    km_zero = cf.explain(km, cf.CfRequest(factual=y, target=1, epsilon=0.0))
    z = km_zero.counterfactual
    km_gap = abs(float(np.sum((z - [0, 0]) ** 2)) - float(np.sum((z - [2, 0]) ** 2)))

    gm_zero = cf.explain(gm, cf.CfRequest(factual=y, target=1, epsilon=0.0))
    zg = gm_zero.counterfactual
    gm_gap = abs(
        (math.log(0.55) + cf.log_density(gm.components[0], zg))
        - (math.log(0.45) + cf.log_density(gm.components[1], zg))
    )

    frozen_ok = True
    for model in (km, gm):
        for bits, frozen_axis in (([1, 0], 1), ([0, 1], 0)):
            res = cf.explain(
                model, cf.CfRequest(factual=y, target=1, mask=cf.Mask.from_bits(bits), epsilon=0.0)
            )
            if res.counterfactual is not None:
                frozen_ok &= res.counterfactual[frozen_axis] == y[frozen_axis]
                frozen_ok &= res.counterfactual_original[frozen_axis] == y[frozen_axis]

    dists = [
        cf.explain(km, cf.CfRequest(factual=y, target=1, epsilon=e)).distance_sq
        for e in (0.0, 0.25, 0.5, 1.0)
    ]
    monotone = all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))

    _report(
        "criterion 4: eps=0 boundary gaps, exact freezes, monotone eps grid",
        km_gap <= 1e-8 and gm_gap <= 1e-6 and frozen_ok and monotone,
        f"kmeans gap {km_gap:.2e}, gaussian gap {gm_gap:.2e}",
    )


# ---------------------------------------------------------------------------
# 5. Specialization consistency across covariance kinds


def test_criterion_5_specialization_consistency():
    rng = np.random.default_rng(1005)
    worst = 0.0
    n_agree = 0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        s_var = float(rng.uniform(0.4, 2.0))
        t_var = float(rng.uniform(0.4, 2.0))
        m_s = rng.normal(size=d)
        m_t = rng.normal(size=d) + 2.0
        y = m_s + rng.normal(scale=0.3, size=d)
        pi_s = float(rng.uniform(0.3, 0.7))
        mask = random_mask(rng, d)
        eps = float(rng.choice([0.0, 0.2, 1.0]))

        def solve(cov_s, cov_t):
            return solve_case(
                pair_case(
                    cf.GaussianComponent(mean=m_s, covariance=cov_s, prior=pi_s),
                    cf.GaussianComponent(mean=m_t, covariance=cov_t, prior=1.0 - pi_s),
                    y, mask, eps,
                )
            )

        r_sph = solve(cf.CovarianceSpec.spherical(s_var), cf.CovarianceSpec.spherical(t_var))
        r_diag = solve(
            cf.CovarianceSpec.diagonal(np.full(d, s_var)), cf.CovarianceSpec.diagonal(np.full(d, t_var))
        )
        r_full = solve(
            cf.CovarianceSpec.full(s_var * np.eye(d)), cf.CovarianceSpec.full(t_var * np.eye(d))
        )
        assert r_sph.status == r_diag.status == r_full.status
        if r_sph.status == cf.STATUS_OK:
            gap = max(
                float(np.max(np.abs(r_sph.counterfactual - r_diag.counterfactual))),
                float(np.max(np.abs(r_sph.counterfactual - r_full.counterfactual))),
            )
            worst = max(worst, gap)
            n_agree += 1

    km_worst = 0.0
    for _ in range(30):
        d = int(rng.integers(2, 6))
        m_s = rng.normal(size=d)
        m_t = rng.normal(size=d) + 2.0
        y = m_s + rng.normal(scale=0.4, size=d)
        mask = random_mask(rng, d)
        # The center pair's plan against the unit-spherical components' plan.
        km_res = solve_centroid_case(centroid_plane(m_s, m_t, 0.0, mask), y)
        g_res = solve_case(
            pair_case(
                cf.GaussianComponent(mean=m_s, covariance=cf.CovarianceSpec.spherical(1.0), prior=0.5),
                cf.GaussianComponent(mean=m_t, covariance=cf.CovarianceSpec.spherical(1.0), prior=0.5),
                y, mask, 0.0,
            )
        )
        assert km_res.status == g_res.status
        if km_res.status == cf.STATUS_OK:
            km_worst = max(km_worst, float(np.max(np.abs(km_res.counterfactual - g_res.counterfactual))))

    _report(
        "criterion 5: spherical/diagonal/full agree; kmeans equals unit-spherical at eps=0",
        worst <= 1e-8 and km_worst <= 1e-6 and n_agree >= 80,
        f"kind gap {worst:.2e} over {n_agree}, kmeans gap {km_worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 6. Eval success rates on synthetic datasets shaped like the benchmarks


def _dataset(rng, n_clusters, d, n_per, spread=6.0, sigma=0.7):
    centers = rng.uniform(-spread, spread, size=(n_clusters, d))
    # Keep blobs apart so a generated cluster never swallows another.
    for _ in range(200):
        moved = False
        for i in range(n_clusters):
            for j in range(i + 1, n_clusters):
                delta = centers[j] - centers[i]
                dist = float(np.linalg.norm(delta))
                if dist < 6.0 * sigma:
                    centers[j] = centers[i] + delta / max(dist, 1e-9) * 6.0 * sigma
                    moved = True
        if not moved:
            break
    rows, _ = make_blobs(rng, centers, sigma, n_per)
    return cf.Dataset(rows=rows)


def test_criterion_6_eval_success_rates():
    rng = np.random.default_rng(1006)
    shapes = [
        ("2d", 2, 2, 200),
        ("3d", 2, 3, 200),
        ("iris-like", 3, 4, 120),
        ("wine-like", 3, 13, 120),
        ("pendigits-like", 10, 16, 120),
    ]
    all_ok = True
    details = []
    for name, m, d, n_per in shapes:
        data = _dataset(rng, m, d, n_per)
        for algo, cov in ((cf.KMEANS, cf.FULL), ("gmm", cf.FULL)):
            config = cf.FitConfig(
                algorithm=algo, covariance=cov, n_clusters=m, seed=11,
                restarts=2, max_iter=80,
            )
            model, _ = cf.fit(data, config)
            labels = np.argmax(cf.score_matrix(model, model.to_internal(data.rows)), axis=1)
            counts = np.bincount(labels, minlength=m)
            source = int(np.argmax(counts))
            # Pairwise generation targets the boundary with the source, so
            # evaluate toward the adjacent cluster: a pair separated by a
            # third cluster would land its boundary in foreign territory.
            means = model.means()
            gaps = np.sum((means - means[source]) ** 2, axis=1)
            gaps[source] = np.inf
            target = int(np.argmin(gaps))
            report = cf.run_eval(
                model, data,
                cf.EvalConfig(source=source, target=target, n_factuals=50, seed=5, epsilon=1e-5),
            )
            rate = report.aggregates["success_tolerant"]
            details.append(f"{name}/{algo}={rate:.0%}")
            all_ok &= rate == 1.0
    _report(
        "criterion 6: 50-factual evals reach 100% tolerant membership",
        all_ok,
        ", ".join(details),
    )


# ---------------------------------------------------------------------------
# 7. Timing


def test_criterion_7_timing_full_covariance_d16():
    rng = np.random.default_rng(1007)
    d = 16
    elapsed = []
    for _ in range(10):
        source, target = random_pair_components(rng, d, cf.FULL)
        model = cf.ClusterModel(kind=cf.GAUSSIAN, components=(source, target))
        for _ in range(50):
            y = source.mean + rng.normal(scale=0.4, size=d)
            res = cf.explain(model, cf.CfRequest(factual=y, target=1, source=0, epsilon=1e-5))
            elapsed.append(res.elapsed)
    median = float(np.median(elapsed))
    _report(
        "criterion 7: median solve time < 1 ms for d=16 full covariance",
        len(elapsed) == 500 and median < 1e-3,
        f"median {median * 1e3:.3f} ms over 500 solves",
    )


# ---------------------------------------------------------------------------
# 8. External-tool distance tables substituted by oracle suites + round trip


def test_criterion_8_baseline_ingest_round_trip(tmp_path):
    rng = np.random.default_rng(1008)
    rows, _ = make_blobs(rng, [[0.0, 0.0, 0.0], [6.0, 5.0, 4.0]], sigma=0.6, n_per=100)
    data = cf.Dataset(rows=rows)
    model, _ = cf.fit(
        data, cf.FitConfig(algorithm=cf.KMEANS, n_clusters=2, seed=3, standardize=False)
    )
    source = cf.assign_cluster(model, rows[0])
    report = cf.run_eval(
        model, data, cf.EvalConfig(source=source, target=1 - source, n_factuals=50, seed=9)
    )
    path = tmp_path / "ours.csv"
    cf.export_baseline_csv(report, path)
    report = cf.attach_baselines(report, model, [("reimported", path)])
    ours = {r.factual_id: r.distance_sq for r in report.records}
    theirs = {r.factual_id: r.distance_sq for r in report.baselines["reimported"]}
    identical = ours == theirs
    full_overlap = len(report.comparison["factual_ids"]) == 50
    _report(
        "criterion 8: external-tool tables out of scope; ingest round-trip is exact",
        identical and full_overlap,
        "distances identical on all 50 factuals, comparison subset complete",
    )


# ---------------------------------------------------------------------------
# 9. Expanded scalar equation agrees with the residual formulation


def test_criterion_9_expanded_equation_cross_check():
    rng = np.random.default_rng(1009)
    worst = 0.0
    n_checked = 0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        source, target = random_pair_components(rng, d, cf.FULL)
        y = rng.normal(size=d)
        mask = random_mask(rng, d)
        epsilon = float(rng.choice([0.0, 0.3, 1.0]))
        prob = pair_case(source, target, y, mask, epsilon)
        cov_s = covariance_matrix(source.covariance, d)
        cov_t = covariance_matrix(target.covariance, d)
        poles = stationary_poles(cov_s, cov_t, mask.free)
        for lam in rng.normal(scale=1.2, size=3):
            # Keep a healthy margin from the poles: this check certifies the
            # algebraic form, and evaluating quadratics on candidates that
            # have blown up to 1e6 leaves no room for a 1e-8 agreement in
            # double precision.
            if any(abs(float(lam) - p) < 0.05 * (1.0 + abs(p)) for p in poles):
                continue
            z = stationary_point(
                source.mean, cov_s, target.mean, cov_t, y, mask.free, mask.fixed, float(lam)
            )
            expanded = expanded_full_lambda_equation(
                source.mean, covariance_matrix(source.covariance, d), source.prior,
                target.mean, covariance_matrix(target.covariance, d), target.prior,
                y, mask.free, mask.fixed, epsilon, float(lam),
            )
            residual = constraint_residual(prob, z)
            worst = max(worst, abs(expanded - residual))
            n_checked += 1
    _report(
        "criterion 9: expanded scalar equation matches the residual form",
        worst <= 1e-8 and n_checked >= 250,
        f"max |difference| {worst:.2e} over {n_checked} evaluations",
    )
