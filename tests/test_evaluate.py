import csv
import importlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clustercf as cf
from clustercf.evaluate import (
    REPORT_SCHEMA_VERSION,
    FactualRecord,
    compute_aggregates,
    report_from_dict,
    report_to_dict,
)
from helpers import two_cluster_gaussian_model
from oracles import make_blobs


@pytest.fixture
def blob_setup():
    rng = np.random.default_rng(101)
    rows, _ = make_blobs(rng, [[0.0, 0.0], [6.0, 5.0]], sigma=0.6, n_per=120)
    data = cf.Dataset(rows=rows)
    model, _ = cf.fit(
        data, cf.FitConfig(algorithm=cf.KMEANS, n_clusters=2, seed=7, standardize=False)
    )
    source = cf.assign_cluster(model, rows[0])
    return model, data, source, 1 - source


def test_run_eval_blobs_full_success(blob_setup):
    model, data, source, target = blob_setup
    config = cf.EvalConfig(source=source, target=target, n_factuals=50, seed=3, epsilon=1e-5)
    report = cf.run_eval(model, data, config)
    assert report.n_evaluated == 50
    assert report.aggregates["success_tolerant"] == 1.0
    assert report.aggregates["distance"]["min"] >= 0.0
    assert report.rng_algorithm == "PCG64"


def test_run_eval_deterministic(blob_setup):
    model, data, source, target = blob_setup
    config = cf.EvalConfig(source=source, target=target, n_factuals=20, seed=5)
    a = cf.run_eval(model, data, config)
    b = cf.run_eval(model, data, config)
    assert [r.factual_id for r in a.records] == [r.factual_id for r in b.records]
    assert [r.distance_sq for r in a.records] == [r.distance_sq for r in b.records]
    assert [r.counterfactual for r in a.records] == [r.counterfactual for r in b.records]


def test_aggregates_recompute_exactly(blob_setup):
    model, data, source, target = blob_setup
    report = cf.run_eval(model, data, cf.EvalConfig(source=source, target=target, n_factuals=30))
    assert report.aggregates == compute_aggregates(report.records)


def _numpy_aggregates(records) -> dict:
    """The aggregates as numpy's reductions give them."""
    dists = np.asarray([r.distance_sq for r in records if r.tolerant_member], dtype=np.float64)
    elapsed = np.asarray([r.elapsed for r in records], dtype=np.float64)
    distance = None
    if dists.size:
        distance = {"min": float(dists.min()), "q1": float(np.percentile(dists, 25)),
                    "median": float(np.percentile(dists, 50)),
                    "q3": float(np.percentile(dists, 75)), "max": float(dists.max()),
                    "mean": float(dists.mean())}
    return {"distance": distance,
            "elapsed": {"mean": float(elapsed.mean()), "median": float(np.percentile(elapsed, 50))}}


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.tuples(st.floats(0.0, 1e300) | st.floats(min_value=0.0),
                                 st.floats(0.0, 10.0), st.booleans()),
                       min_size=1, max_size=60))
def test_aggregates_have_numpys_bits(values):
    records = [FactualRecord(factual_id=i, status=cf.STATUS_OK, strict_member=member,
                             tolerant_member=member, distance_sq=dist, lam=0.0, residual=0.0,
                             elapsed=elapsed, factual=[0.0], counterfactual=[0.0])
               for i, (dist, elapsed, member) in enumerate(values)]
    # Huge distances overflow the means, and inf - inf the interpolation.
    with np.errstate(over="ignore", invalid="ignore"):
        got = compute_aggregates(records)
        want = _numpy_aggregates(records)

    def bits(doc):
        return None if doc is None else {k: float(v).hex() for k, v in doc.items()}

    assert bits(got["distance"]) == bits(want["distance"])
    assert bits(got["elapsed"]) == bits(want["elapsed"])


def test_warns_when_source_cluster_small(blob_setup):
    model, data, source, target = blob_setup
    config = cf.EvalConfig(source=source, target=target, n_factuals=500, seed=1)
    with pytest.warns(UserWarning, match="only"):
        report = cf.run_eval(model, data, config)
    assert report.n_evaluated == 120


def test_run_eval_on_an_empty_source_cluster_raises_before_any_solve(monkeypatch):
    explain_module = importlib.import_module("clustercf.explain")
    monkeypatch.setattr(explain_module, "solve_gaussian_rows",
                        lambda *args: pytest.fail("a factual was solved"))
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [2.0, 0.0]])
    data = cf.Dataset(rows=np.array([[2.0, 0.1], [2.2, -0.1], [1.9, 0.0]]))
    with pytest.raises(cf.ClusterCfError, match="source cluster 0 is empty in this dataset"):
        cf.run_eval(model, data, cf.EvalConfig(source=0, target=1))


def test_a_row_without_a_finite_score_is_never_sampled():
    # (-1e160, 0) overflows every squared distance: it has no cluster.
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [100.0, 0.0]])
    rows = np.array([[-1e160, 0.0], [-1.0, 0.0], [1.0, 0.5], [2.0, -0.5], [99.0, 0.0]])
    data = cf.Dataset(rows=rows)
    for seed in range(8):
        config = cf.EvalConfig(source=0, target=1, n_factuals=3, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = cf.run_eval(model, data, config)
        assert [r.factual_id for r in report.records] == [1, 2, 3]
        assert all(r.status == cf.STATUS_OK for r in report.records)


def test_report_json_round_trip(tmp_path, blob_setup):
    model, data, source, target = blob_setup
    report = cf.run_eval(model, data, cf.EvalConfig(source=source, target=target, n_factuals=15))
    path = tmp_path / "report.json"
    cf.write_report_json(report, path)
    loaded = cf.read_report_json(path)
    assert loaded == report
    assert report_from_dict(report_to_dict(report)) == report


def _drop_records(doc):
    del doc["records"]


def _record_not_object(doc):
    doc["records"][0] = [1, 2]


def _record_extra_field(doc):
    doc["records"][0]["colour"] = "red"


def _record_missing_field(doc):
    del doc["records"][0]["residual"]


@pytest.mark.parametrize("corrupt, match", [
    (_drop_records, r"records: expected an array"),
    (_record_not_object, r"records\[0\]: expected an object"),
    (_record_extra_field, r"records\[0\]: .*unexpected keyword argument 'colour'"),
    (_record_missing_field, r"records\[0\]: .*missing 1 required .*'residual'"),
], ids=["records_missing", "record_not_object", "record_extra_field", "record_missing_field"])
def test_read_report_json_names_the_bad_field(tmp_path, blob_setup, corrupt, match):
    model, data, source, target = blob_setup
    report = cf.run_eval(model, data, cf.EvalConfig(source=source, target=target, n_factuals=3))
    doc = report_to_dict(report)
    corrupt(doc)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cf.DataError, match=match):
        cf.read_report_json(path)


def test_read_report_json_unreadable_files(tmp_path):
    with pytest.raises(cf.DataError, match="cannot read report file"):
        cf.read_report_json(tmp_path / "missing.json")
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(cf.DataError, match="not valid JSON"):
        cf.read_report_json(path)


def test_records_csv_layout(tmp_path, blob_setup):
    model, data, source, target = blob_setup
    report = cf.run_eval(model, data, cf.EvalConfig(source=source, target=target, n_factuals=10))
    path = tmp_path / "records.csv"
    cf.write_records_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["factual_id", "status", "strict_member", "tolerant_member"]
    assert len(rows) == 11
    first = report.records[0]
    assert rows[1][0] == str(first.factual_id)
    assert float(rows[1][4]) == first.distance_sq


def test_baseline_round_trip(tmp_path, blob_setup):
    model, data, source, target = blob_setup
    report = cf.run_eval(model, data, cf.EvalConfig(source=source, target=target, n_factuals=25))
    path = tmp_path / "ours.csv"
    cf.export_baseline_csv(report, path)
    report = cf.attach_baselines(report, model, [("ours_again", path)])
    table = report.baselines["ours_again"]
    assert len(table) == 25
    ours = {r.factual_id: r.distance_sq for r in report.records}
    for rec in table:
        assert rec.distance_sq == ours[rec.factual_id]
        assert rec.member_tolerant
    assert report.comparison["factual_ids"] == sorted(ours)
    assert report.comparison["distances"]["ours"] == report.comparison["distances"]["ours_again"]


def test_baselines_ingested_via_config(tmp_path, blob_setup):
    model, data, source, target = blob_setup
    first = cf.run_eval(model, data, cf.EvalConfig(source=source, target=target, n_factuals=12))
    path = tmp_path / "ours.csv"
    cf.export_baseline_csv(first, path)
    again = cf.run_eval(
        model,
        data,
        cf.EvalConfig(
            source=source, target=target, n_factuals=12, external_baselines=(("prev", path),)
        ),
    )
    assert "prev" in again.baselines
    assert len(again.comparison["factual_ids"]) == 12


def test_baseline_failed_rows_excluded_from_comparison(tmp_path, blob_setup):
    model, data, source, target = blob_setup
    report = cf.run_eval(model, data, cf.EvalConfig(source=source, target=target, n_factuals=10))
    path = tmp_path / "baseline.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["factual_id", "f0", "f1"])
        for i, rec in enumerate(report.records):
            if i == 0:
                # Point deep in the source cluster: membership check fails.
                writer.writerow([rec.factual_id] + [repr(v) for v in rec.factual])
            else:
                writer.writerow([rec.factual_id] + [repr(v) for v in rec.counterfactual])
    report = cf.attach_baselines(report, model, [("ext", path)])
    excluded = report.records[0].factual_id
    assert excluded not in report.comparison["factual_ids"]
    assert len(report.comparison["factual_ids"]) == 9


def test_ingest_baseline_hand_arithmetic(tmp_path):
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [4.0, 0.0]])
    factuals = {0: np.asarray([0.0, 0.0]), 3: np.asarray([1.0, 1.0])}
    path = tmp_path / "b.csv"
    path.write_text("factual_id,f0,f1\n0,3.0,4.0\n3,4.0,1.0\n")
    table = cf.ingest_baseline(path, "b", model, factuals, target=1)
    by_id = {r.factual_id: r for r in table}
    assert by_id[0].distance_sq == 25.0
    assert by_id[3].distance_sq == 9.0
    assert by_id[0].member_strict and by_id[3].member_strict


def test_ingest_baseline_reads_a_file_with_a_byte_order_mark(tmp_path):
    # Left on the header's first cell, the mark would hide `factual_id`
    # from the header check.
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [4.0, 0.0]])
    path = tmp_path / "b.csv"
    path.write_text("\ufefffactual_id,f0,f1\n0,3.0,4.0\n", encoding="utf-8")
    table = cf.ingest_baseline(path, "b", model, {0: np.asarray([0.0, 0.0])}, target=1)
    assert [(r.factual_id, r.distance_sq) for r in table] == [(0, 25.0)]


@pytest.mark.parametrize("target", [-1, 2, 0.5, True])
def test_ingest_baseline_rejects_bad_target(tmp_path, target):
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [4.0, 0.0]])
    path = tmp_path / "b.csv"
    path.write_text("factual_id,f0,f1\n0,3.0,4.0\n")
    with pytest.raises(cf.ValidationError, match="target"):
        cf.ingest_baseline(path, "b", model, {0: np.zeros(2)}, target)


def test_ingest_baseline_errors(tmp_path):
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [4.0, 0.0]])
    factuals = {0: np.asarray([0.0, 0.0])}
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("id,f0,f1\n0,1,2\n")
    with pytest.raises(cf.DataError, match="factual_id"):
        cf.ingest_baseline(bad_header, "x", model, factuals, 1)
    bad_dim = tmp_path / "d.csv"
    bad_dim.write_text("factual_id,f0\n0,1\n")
    with pytest.raises(cf.DataError, match="feature columns"):
        cf.ingest_baseline(bad_dim, "x", model, factuals, 1)
    unknown = tmp_path / "u.csv"
    unknown.write_text("factual_id,f0,f1\n9,1,2\n")
    with pytest.raises(cf.DataError, match="unknown factual_id"):
        cf.ingest_baseline(unknown, "x", model, factuals, 1)
    non_numeric = tmp_path / "n.csv"
    non_numeric.write_text("factual_id,f0,f1\n0,a,2\n")
    with pytest.raises(cf.DataError, match="non-numeric"):
        cf.ingest_baseline(non_numeric, "x", model, factuals, 1)


# ---------------------------------------------------------------------------
# Epsilon sweeps


def test_sweep_distances_non_decreasing_kmeans():
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [2.0, 0.0]])
    points = cf.sweep_epsilon(model, [0.0, 0.5], 1, None, [0.0, 0.33, 0.66, 1.0])
    assert len(points) == 4
    dists = [p.result.distance_sq for p in points]
    assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))
    assert all(p.result.status == cf.STATUS_OK for p in points)


def test_sweep_single_epsilon_zero():
    model = two_cluster_gaussian_model()
    points = cf.sweep_epsilon(model, [0.1, -0.3], 1, None, [0.0])
    assert len(points) == 1
    assert points[0].result.tolerant_member


def test_sweep_masked_features_have_zero_delta():
    rng = np.random.default_rng(83)
    d = 64
    m_s = rng.uniform(0.0, 16.0, size=d)
    m_t = rng.uniform(0.0, 16.0, size=d)
    model = cf.ClusterModel(kind=cf.KMEANS, centers=np.stack([m_s, m_t]))
    bits = np.ones(d, dtype=int)
    border = list(range(0, d, 8)) + list(range(7, d, 8))
    for i in border:
        bits[i] = 0
    y = m_s + rng.normal(scale=0.5, size=d)
    points = cf.sweep_epsilon(model, y, 1, cf.Mask.from_bits(bits), [0.0, 0.33, 0.66, 1.0])
    for p in points:
        assert p.result.status == cf.STATUS_OK
        deltas = np.asarray(p.deltas)
        assert np.all(deltas[border] == 0.0)
        assert np.any(deltas != 0.0)


def test_sweep_validates_epsilons():
    model = two_cluster_gaussian_model()
    with pytest.raises(cf.ValidationError):
        cf.sweep_epsilon(model, [0.0, 0.0], 1, None, [0.5, 0.1])
    with pytest.raises(cf.ValidationError):
        cf.sweep_epsilon(model, [0.0, 0.0], 1, None, [-0.1, 0.5])
    with pytest.raises(cf.ValidationError):
        cf.sweep_epsilon(model, [0.0, 0.0], 1, None, [])


def test_ingest_baseline_judges_all_rows_with_one_score_call(tmp_path, blob_setup, monkeypatch):
    import importlib

    model, data, source, target = blob_setup
    report = cf.run_eval(model, data, cf.EvalConfig(source=source, target=target, n_factuals=12))
    path = tmp_path / "ours.csv"
    cf.export_baseline_csv(report, path)
    explain_module = importlib.import_module("clustercf.explain")
    counts = {"score": 0, "to_internal": 0}
    score_matrix, to_internal = explain_module.score_matrix, cf.ClusterModel.to_internal

    def counting_score(*args, **kwargs):
        counts["score"] += 1
        return score_matrix(*args, **kwargs)

    def counting_to_internal(self, x):
        counts["to_internal"] += 1
        return to_internal(self, x)

    monkeypatch.setattr(explain_module, "score_matrix", counting_score)
    monkeypatch.setattr(cf.ClusterModel, "to_internal", counting_to_internal)
    factuals = {r.factual_id: np.asarray(r.factual) for r in report.records}
    table = cf.ingest_baseline(path, "ours", model, factuals, target)
    assert len(table) == 12
    assert counts == {"score": 1, "to_internal": 2}
    ours = {r.factual_id: r for r in report.records}
    for rec in table:
        assert rec.distance_sq == ours[rec.factual_id].distance_sq
        assert rec.member_tolerant == ours[rec.factual_id].tolerant_member


@pytest.mark.parametrize("standardize", [True, False], ids=["standardized", "raw"])
def test_run_eval_rejects_data_of_another_width(standardize):
    rows, _ = make_blobs(np.random.default_rng(5), [[0.0, 0.0], [6.0, 5.0]], sigma=0.6, n_per=40)
    model, _ = cf.fit(
        cf.Dataset(rows=rows),
        cf.FitConfig(algorithm=cf.KMEANS, n_clusters=2, seed=7, standardize=standardize),
    )
    assert (model.standardization is not None) == standardize
    wide = cf.Dataset(rows=np.hstack([rows, rows[:, :1]]))
    with pytest.raises(cf.DimensionMismatchError, match="rows have dimension 3, model expects 2"):
        cf.run_eval(model, wide, cf.EvalConfig(source=0, target=1, n_factuals=5))


@pytest.mark.parametrize("field", ["source", "target", "n_factuals", "seed"])
@pytest.mark.parametrize("bad", [2.5, 2.0, False])
def test_eval_config_rejects_non_integral_fields(field, bad):
    # n_factuals=2.5 was accepted.
    values = {"source": 0, "target": 1, "n_factuals": 3, "seed": 4, field: bad}
    with pytest.raises(cf.ValidationError, match=field):
        cf.EvalConfig(**values)
    values[field] = np.int64(2) if field in ("target", "n_factuals") else np.int64(0)
    config = cf.EvalConfig(**values)
    assert all(type(getattr(config, name)) is int
               for name in ("source", "target", "n_factuals", "seed"))


def test_report_dict_shares_no_container_with_the_report(tmp_path, blob_setup):
    model, data, source, target = blob_setup
    report = cf.run_eval(model, data, cf.EvalConfig(source=source, target=target, n_factuals=4))
    baseline = tmp_path / "baseline.csv"
    cf.export_baseline_csv(report, baseline)
    report = cf.attach_baselines(report, model, [("copy", baseline)])
    path = tmp_path / "report.json"
    cf.write_report_json(report, path)

    doc = report_to_dict(report)
    doc["records"][0]["status"] = "changed"
    doc["records"][0]["factual"][0] = 1e9
    doc["records"][1]["counterfactual"].append(0.0)
    doc["mask_bits"].append(1)
    doc["aggregates"]["distance"]["min"] = -1.0
    doc["aggregates"]["n"] = 0
    doc["baselines"]["copy"][0]["counterfactual"][0] = 1e9
    doc["comparison"]["factual_ids"].append(-1)
    doc["comparison"]["distances"]["ours"].clear()

    assert cf.read_report_json(path) == report
    cf.write_report_json(report, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# File formats: the CSV writers pass each cell to `csv` as it is, and a
# baseline is read by the dataset reader.


def _repr_cells(values):
    """The formatting the CSV writers spelled out before they left it to
    `csv`: an empty cell for None, `repr` for every float."""
    return ["" if v is None else repr(v) for v in values]


def _report_with_unsolved_record(model, data, source, target):
    report = cf.run_eval(model, data, cf.EvalConfig(source=source, target=target, n_factuals=6))
    report.records.append(FactualRecord(
        factual_id=10**6, status=cf.STATUS_NO_ROOT_FOUND, strict_member=False,
        tolerant_member=False, distance_sq=None, lam=None, residual=None, elapsed=2.5e-05,
        factual=[0.1, -0.2], counterfactual=None,
    ))
    report.records[0].residual = None
    report.records[1].counterfactual = [1.0, -0.0]
    return report


def test_records_csv_bytes_match_repr_formatting(tmp_path, blob_setup):
    model, data, source, target = blob_setup
    report = _report_with_unsolved_record(model, data, source, target)
    path = tmp_path / "records.csv"
    cf.write_records_csv(report, path)
    lines = ["factual_id,status,strict_member,tolerant_member,distance_sq,lambda,residual,elapsed,"
             "cf_0,cf_1"]
    for r in report.records:
        cells = [str(r.factual_id), r.status, str(int(r.strict_member)),
                 str(int(r.tolerant_member))]
        cells += _repr_cells([r.distance_sq, r.lam, r.residual, r.elapsed])
        cells += _repr_cells(r.counterfactual or [None, None])
        lines.append(",".join(cells))
    assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()
    assert lines[-1].endswith(",,,,2.5e-05,,")


def test_baseline_csv_bytes_match_repr_formatting(tmp_path, blob_setup):
    model, data, source, target = blob_setup
    report = _report_with_unsolved_record(model, data, source, target)
    path = tmp_path / "baseline.csv"
    cf.export_baseline_csv(report, path)
    lines = ["factual_id,f0,f1"] + [
        ",".join([str(r.factual_id)] + _repr_cells(r.counterfactual))
        for r in report.records if r.counterfactual is not None
    ]
    assert len(lines) == len(report.records)
    assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()


def test_header_only_baseline_is_an_empty_table(tmp_path):
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [4.0, 0.0]])
    factuals = {0: np.zeros(2)}
    path = tmp_path / "b.csv"
    path.write_text("factual_id,f0,f1\n\n , ,\n")
    assert cf.ingest_baseline(path, "b", model, factuals, 1) == []
    # export_baseline_csv writes one for a report without a counterfactual.
    report = report_from_dict({
        "schema_version": 1, "model_kind": cf.KMEANS, "d": 2, "source": 0, "target": 1,
        "epsilon": 0.0, "mask_bits": [0, 0], "seed": 0, "rng_algorithm": "PCG64",
        "sampling": "without_replacement", "n_requested": 1, "n_evaluated": 1,
        "records": [{"factual_id": 0, "status": cf.STATUS_NO_FEASIBLE_SOLUTION,
                     "strict_member": False, "tolerant_member": False, "distance_sq": None,
                     "lam": None, "residual": None, "elapsed": 0.0, "factual": [0.0, 0.0],
                     "counterfactual": None}],
        "aggregates": {},
    })
    cf.export_baseline_csv(report, path)
    assert cf.ingest_baseline(path, "b", model, factuals, 1) == []
    attached = cf.attach_baselines(report, model, [("b", path)])
    assert attached.comparison == {"factual_ids": [], "distances": {"ours": [], "b": []}}


@pytest.mark.parametrize("text", [
    'factual_id,f0,f1\n0,3.0,4.0\n"3"," 4.0",1\n',
    "\nfactual_id,f0,f1\n , ,\n0,3.0,4.0\n\n3, 4.0,1\n,,\n",
    '"factual_id","f0","f1"\r\n\r\n0,"3.0",4.0\r\n3,4.0,"1"\r\n',
], ids=["quoted", "blank_rows", "quoted_crlf"])
def test_baseline_reads_like_a_dataset(tmp_path, text):
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [4.0, 0.0]])
    factuals = {0: np.asarray([0.0, 0.0]), 3: np.asarray([1.0, 1.0])}
    path = tmp_path / "b.csv"
    path.write_bytes(text.encode())
    table = cf.ingest_baseline(path, "b", model, factuals, target=1)
    as_dataset = cf.load_dataset(path, label_column="factual_id")
    assert [r.counterfactual for r in table] == as_dataset.rows.tolist() == [[3.0, 4.0], [4.0, 1.0]]
    assert [str(r.factual_id) for r in table] == list(as_dataset.labels) == ["0", "3"]
    assert [r.distance_sq for r in table] == [25.0, 9.0]


def test_baseline_cell_errors_name_the_file(tmp_path):
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [4.0, 0.0]])
    factuals = {0: np.zeros(2), 1: np.ones(2)}
    cases = {
        "factual_id,f0,f1\n0,1,nan\n": "non-finite cell 'nan' at row 1, column 3",
        "factual_id,f0,f1\n0,1,2\n1,2\n": "ragged row 2: expected 3 cells, got 2",
        "factual_id,f0,f1\n0,1,2,3\n": "the header has 3 cells, the rows 4",
        "factual_id,f0,f1\n0.0,1,2\n": "bad factual_id '0.0' at row 1",
        "1,2,3\n": "first header column must be 'factual_id'",
    }
    for i, (text, message) in enumerate(cases.items()):
        path = tmp_path / f"b{i}.csv"
        path.write_text(text)
        with pytest.raises(cf.DataError) as failed:
            cf.ingest_baseline(path, "b", model, factuals, 1)
        assert str(failed.value) == f"baseline {path}: {message}"


def test_ingest_baseline_rejects_a_repeated_factual_id(tmp_path):
    # A target member first, then a non-member for the same factual: both
    # rows were kept, and the comparison paired the non-member's distance.
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [4.0, 0.0]])
    factuals = {0: np.zeros(2), 1: np.ones(2)}
    path = tmp_path / "b.csv"
    path.write_text("factual_id,f0,f1\n1,3.5,0\n0,3.0,0\n0,1.0,0\n")
    with pytest.raises(cf.DataError, match="duplicate factual_id 0 at row 3"):
        cf.ingest_baseline(path, "b", model, factuals, 1)


@pytest.mark.parametrize("names, bad", [
    (["ours"], "'ours' names our own results"),
    (["a", "b", "a"], "'a' is repeated"),
])
def test_baseline_names_cannot_overwrite_a_column(tmp_path, blob_setup, names, bad):
    model, data, source, target = blob_setup
    report = cf.run_eval(model, data, cf.EvalConfig(source=source, target=target, n_factuals=4))
    path = tmp_path / "baseline.csv"
    cf.export_baseline_csv(report, path)
    pairs = [(name, path) for name in names]
    with pytest.raises(cf.ValidationError, match=f"external_baselines: baseline name {bad}"):
        cf.EvalConfig(source=source, target=target, external_baselines=pairs)
    with pytest.raises(cf.ValidationError, match=f"external_baselines: baseline name {bad}"):
        cf.attach_baselines(report, model, pairs)
    assert report.comparison is None


@pytest.mark.parametrize("build, error, message", [
    (lambda: cf.EvalConfig(source=0, target=1, n_factuals=0), cf.ValidationError,
     "n_factuals: must be >= 1"),
    (lambda: report_from_dict([]), cf.DataError, "report: expected an object"),
    (lambda: report_from_dict({"schema_version": 99}), cf.DataError,
     "unsupported report schema_version 99"),
    (lambda: report_from_dict({"schema_version": REPORT_SCHEMA_VERSION, "baselines": []}),
     cf.DataError, "baselines: expected an object"),
], ids=["n-factuals", "report-not-object", "report-version", "baselines-not-object"])
def test_malformed_evaluate_inputs_are_rejected(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message
