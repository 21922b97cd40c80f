import csv
import importlib
import json

import jsonschema
import numpy as np
import pytest

import clustercf as cf
from clustercf.cli import main
from oracles import make_blobs


def load_schema(name):
    import importlib.resources as resources

    with resources.files("clustercf.schemas").joinpath(name).open() as fh:
        return json.load(fh)


@pytest.fixture
def blob_csv(tmp_path):
    rng = np.random.default_rng(211)
    rows, _ = make_blobs(rng, [[0.0, 0.0], [6.0, 5.0]], sigma=0.5, n_per=80)
    path = tmp_path / "blobs.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    return path


@pytest.fixture
def boundary_model(tmp_path):
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [2.0, 0.0]])
    path = tmp_path / "pair.json"
    cf.save_model(model, path)
    return path


def test_fit_kmeans_writes_model_and_summary(tmp_path, blob_csv, capsys):
    out = tmp_path / "model.json"
    code = main([
        "fit", "--algo", "kmeans", "--k", "2", "--seed", "3", "--restarts", "2",
        str(blob_csv), "-o", str(out),
    ])
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip())
    assert line["command"] == "fit"
    assert "inertia" in line and line["iterations"] >= 1
    model = cf.load_model(out)
    assert model.n_clusters == 2 and model.kind == cf.KMEANS
    assert model.standardization is not None


def test_fit_gmm_full_on_labeled_csv(tmp_path, capsys):
    rng = np.random.default_rng(223)
    rows, labels = make_blobs(rng, [[0, 0, 0, 0], [5, 4, 3, 2], [-4, 4, -4, 4]], 0.6, 60)
    path = tmp_path / "iris_like.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "c", "d", "species"])
        for row, lab in zip(rows, labels):
            writer.writerow([repr(float(v)) for v in row] + [f"class-{lab}"])
    out = tmp_path / "gmm.json"
    code = main([
        "fit", "--algo", "gmm", "--cov", "full", "--k", "3", "--seed", "1",
        "--label-col", "species", str(path), "-o", str(out),
    ])
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip())
    assert "log_likelihood" in line
    model = cf.load_model(out)
    assert model.n_clusters == 3
    assert sum(c.prior for c in model.components) == pytest.approx(1.0, abs=1e-9)


def test_fit_rejects_k_zero(tmp_path, blob_csv, capsys):
    code = main(["fit", "--algo", "kmeans", "--k", "0", str(blob_csv), "-o", str(tmp_path / "m.json")])
    assert code == 2
    assert "--k" in capsys.readouterr().err


def test_fit_missing_data_file_is_data_error(tmp_path, capsys):
    code = main([
        "fit", "--algo", "kmeans", "--k", "2", str(tmp_path / "nope.csv"),
        "-o", str(tmp_path / "m.json"),
    ])
    assert code == 3


def test_fit_invalid_em_components_exit_4(tmp_path, blob_csv, monkeypatch, capsys):
    # The package re-exports the function `fit` under the module's name.
    fit_module = importlib.import_module("clustercf.fit")

    monkeypatch.setattr(fit_module, "_chol_with_jitter", lambda s: np.zeros_like(s))
    code = main([
        "fit", "--algo", "gmm", "--k", "2", "--restarts", "1",
        str(blob_csv), "-o", str(tmp_path / "model.json"),
    ])
    assert code == 4
    assert "not positive definite" in capsys.readouterr().err


def test_explain_worked_example(tmp_path, boundary_model, capsys):
    out = tmp_path / "result.json"
    code = main([
        "explain", "--model", str(boundary_model), "--factual", "0,0",
        "--target", "1", "--epsilon", "0", "-o", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["counterfactual"] == [1.0, 0.0]
    assert doc["distance_sq"] == 1.0
    jsonschema.validate(doc, load_schema("explain_result.schema.json"))
    line = json.loads(capsys.readouterr().out.strip())
    assert line["status"] == "ok"


def test_explain_result_has_no_roots_found(tmp_path, boundary_model, capsys):
    out = tmp_path / "result.json"
    code = main([
        "explain", "--model", str(boundary_model), "--factual", "0,0.5",
        "--target", "1", "-o", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert "roots_found" not in doc
    assert "roots_found" not in load_schema("explain_result.schema.json")["properties"]
    assert "roots_found" not in json.loads(capsys.readouterr().out.strip())


def test_explain_target_best_includes_chosen_target(tmp_path, capsys):
    model = cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [2.0, 0.0], [10.0, 0.0]])
    mpath = tmp_path / "three.json"
    cf.save_model(model, mpath)
    out = tmp_path / "best.json"
    code = main([
        "explain", "--model", str(mpath), "--factual", "0,0", "--target", "best",
        "--epsilon", "0", "-o", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["chosen_target"] == 1
    jsonschema.validate(doc, load_schema("explain_result.schema.json"))


def test_explain_infeasible_mask_exits_5(tmp_path, boundary_model):
    out = tmp_path / "fail.json"
    code = main([
        "explain", "--model", str(boundary_model), "--factual", "0,3",
        "--target", "1", "--mask", "0,1", "--epsilon", "0", "-o", str(out),
    ])
    assert code == 5
    doc = json.loads(out.read_text())
    assert doc["status"] == "no_feasible_solution"


def test_explain_mask_length_mismatch_exits_2(tmp_path, boundary_model, capsys):
    out = tmp_path / "x.json"
    code = main([
        "explain", "--model", str(boundary_model), "--factual", "0,0",
        "--target", "1", "--mask", "1,0,1", "-o", str(out),
    ])
    assert code == 2


def test_explain_factual_row_source(tmp_path, boundary_model, capsys):
    data = tmp_path / "pts.csv"
    data.write_text("0.0,0.5\n9.0,9.0\n")
    out = tmp_path / "row.json"
    code = main([
        "explain", "--model", str(boundary_model), "--factual-row", "0", str(data),
        "--target", "1", "-o", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["factual"] == [0.0, 0.5]


def test_explain_bad_target_string_exits_2(tmp_path, boundary_model, capsys):
    code = main([
        "explain", "--model", str(boundary_model), "--factual", "0,0",
        "--target", "nearest", "-o", str(tmp_path / "x.json"),
    ])
    assert code == 2


def test_sweep_writes_results_and_deltas(tmp_path, boundary_model, capsys):
    prefix = tmp_path / "sweep"
    code = main([
        "sweep", "--model", str(boundary_model), "--factual", "0,0.5",
        "--target", "1", "--epsilons", "0,0.33,0.66,1.0", "-o", str(prefix),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "sweep.results.json").read_text())
    assert len(doc["points"]) == 4
    schema = load_schema("explain_result.schema.json")
    for point in doc["points"]:
        jsonschema.validate(point, schema)
    dists = [p["distance_sq"] for p in doc["points"]]
    assert dists == sorted(dists)
    with open(tmp_path / "sweep.deltas.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["epsilon", "status", "distance_sq"]
    assert len(rows) == 5


def test_eval_reproducible_and_schema_valid(tmp_path, blob_csv, capsys):
    model_path = tmp_path / "m.json"
    assert main(["fit", "--algo", "kmeans", "--k", "2", "--seed", "1", str(blob_csv), "-o", str(model_path)]) == 0
    capsys.readouterr()
    model = cf.load_model(model_path)
    data = cf.load_dataset(blob_csv)
    src = int(np.argmax(np.bincount(np.argmax(cf.score_matrix(model, model.to_internal(data.rows)), axis=1))))
    tgt = 1 - src

    for prefix in ("e1", "e2"):
        code = main([
            "eval", "--model", str(model_path), "--n", "20", "--seed", "9",
            "--source", str(src), "--target", str(tgt), str(blob_csv),
            "-o", str(tmp_path / prefix),
        ])
        assert code == 0
    csv1 = (tmp_path / "e1.records.csv").read_text()
    csv2 = (tmp_path / "e2.records.csv").read_text()
    # Identical apart from wall-clock timing.
    strip = lambda text: [
        [c for i, c in enumerate(row) if i != 7] for row in csv.reader(text.splitlines())
    ]
    assert strip(csv1) == strip(csv2)
    report_doc = json.loads((tmp_path / "e1.report.json").read_text())
    jsonschema.validate(report_doc, load_schema("eval_report.schema.json"))
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["success_tolerant"] == 1.0


def test_eval_with_baseline_adds_comparison(tmp_path, blob_csv, capsys):
    model_path = tmp_path / "m.json"
    # Identity feature space keeps the export / re-ingest round trip
    # bit-exact; with standardization the distances may drift one ulp.
    assert main([
        "fit", "--algo", "kmeans", "--k", "2", "--seed", "1", "--no-standardize",
        str(blob_csv), "-o", str(model_path),
    ]) == 0
    model = cf.load_model(model_path)
    data = cf.load_dataset(blob_csv)
    src = int(np.argmax(np.bincount(np.argmax(cf.score_matrix(model, model.to_internal(data.rows)), axis=1))))
    tgt = 1 - src
    assert main([
        "eval", "--model", str(model_path), "--n", "15", "--seed", "2",
        "--source", str(src), "--target", str(tgt), str(blob_csv),
        "-o", str(tmp_path / "first"),
    ]) == 0
    report = cf.read_report_json(tmp_path / "first.report.json")
    baseline_path = tmp_path / "ours.csv"
    cf.export_baseline_csv(report, baseline_path)
    code = main([
        "eval", "--model", str(model_path), "--n", "15", "--seed", "2",
        "--source", str(src), "--target", str(tgt),
        "--baseline", f"self={baseline_path}", str(blob_csv),
        "-o", str(tmp_path / "second"),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "second.report.json").read_text())
    assert doc["comparison"] is not None
    assert len(doc["comparison"]["factual_ids"]) == 15
    assert doc["comparison"]["distances"]["ours"] == doc["comparison"]["distances"]["self"]
    jsonschema.validate(doc, load_schema("eval_report.schema.json"))


def test_eval_bad_baseline_spec_exits_2(tmp_path, blob_csv, capsys):
    model_path = tmp_path / "m.json"
    assert main(["fit", "--algo", "kmeans", "--k", "2", str(blob_csv), "-o", str(model_path)]) == 0
    code = main([
        "eval", "--model", str(model_path), "--n", "5", "--source", "0", "--target", "1",
        "--baseline", "nopath", str(blob_csv), "-o", str(tmp_path / "x"),
    ])
    assert code == 2


@pytest.fixture
def three_cluster_files(tmp_path):
    rng = np.random.default_rng(227)
    rows, _ = make_blobs(rng, [[0.0, 0.0], [6.0, 5.0], [-5.0, 6.0]], sigma=0.5, n_per=30)
    data = tmp_path / "three.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    model = tmp_path / "three.json"
    cf.save_model(cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [6.0, 5.0], [-5.0, 6.0]]), model)
    return model, data


@pytest.mark.parametrize(
    "argv, field",
    [
        (["explain", "--factual", "0,0", "--target", "9"], "target"),
        (["explain", "--factual", "0,0", "--target", "best", "--source", "5"], "source"),
        (["explain", "--factual", "0,0", "--target", "best", "--epsilon", "-1"], "epsilon"),
        (["sweep", "--factual", "0,0", "--target", "9", "--epsilons", "0,0.5"], "target"),
        (["eval", "--source", "0", "--target", "9", "DATA"], "target"),
        (["eval", "--source", "0", "--target", "1", "--epsilon", "-1", "DATA"], "epsilon"),
        (["eval", "--source", "7", "--target", "1", "DATA"], "source"),
    ],
    ids=["explain", "explain-best-source", "explain-best-epsilon", "sweep", "eval-target",
         "eval-epsilon", "eval-source"],
)
def test_bad_request_exits_2_before_any_solve(tmp_path, three_cluster_files, monkeypatch, capsys,
                                              argv, field):
    model, data = three_cluster_files
    explain_module = importlib.import_module("clustercf.explain")

    def no_solve(*args, **kwargs):
        raise AssertionError("a factual was solved")

    monkeypatch.setattr(explain_module, "solve_gaussian_rows", no_solve)
    out = tmp_path / "out"
    argv = [str(data) if a == "DATA" else a for a in argv]
    code = main(argv[:1] + ["--model", str(model)] + argv[1:] + ["-o", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}:")
    assert "empty" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["three.csv", "three.json"]


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
