import csv
import importlib
import json
import warnings

import jsonschema
import numpy as np
import pytest

import clustercf as cf
from clustercf import cli
from clustercf.cli import build_parser, main
from clustercf.core import DEFAULT_EPSILON
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


@pytest.mark.parametrize("flag", ["--restarts", "--max-iter", "--rel-tol"])
def test_fit_bad_fit_argument_exits_2(tmp_path, blob_csv, capsys, flag):
    code = main(["fit", "--algo", "kmeans", "--k", "2", flag, "0", str(blob_csv),
                 "-o", str(tmp_path / "m.json")])
    assert code == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


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
    assert capsys.readouterr().err == "error: mask: length 3 does not match dimension 2\n"


@pytest.mark.parametrize(
    "argv, first",
    [
        (["explain", "--factual", "0,0", "--target", "7"], "target"),
        (["explain", "--factual", "0,0", "--target", "best", "--source", "7"], "source"),
        (["explain", "--factual", "0,0,0", "--target", "1"], "factual"),
        (["sweep", "--factual", "0,0", "--target", "7", "--epsilons", "0"], "target"),
        (["eval", "--source", "0", "--target", "7", "DATA"], "target"),
        (["explain", "--factual", "0,0", "--target", "1", "--mask", "1,x"], "mask"),
    ],
    ids=["explain-target", "best-source", "explain-factual", "sweep-target", "eval-target",
         "unparsable"],
)
def test_a_wrong_width_mask_is_reported_after_the_query(tmp_path, boundary_model, blob_csv, capsys,
                                                        argv, first):
    # The library checks the factual, target and source before the mask's
    # width; an unparsable mask is reported before anything is read.
    argv = [str(blob_csv) if a == "DATA" else a for a in argv]
    if "--mask" not in argv:
        argv += ["--mask", "1,0,1"]
    code = main(argv[:1] + ["--model", str(boundary_model)] + argv[1:]
                + ["-o", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {first}")


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


@pytest.mark.parametrize("form", ["separate", "attached"])
def test_explain_reads_a_negative_factual_in_either_form(tmp_path, boundary_model, capsys, form):
    out = tmp_path / "result.json"
    factual = ["--factual", "-0.5,0.1"] if form == "separate" else ["--factual=-0.5,0.1"]
    code = main(["explain", "--model", str(boundary_model), *factual, "--target", "1",
                 "--epsilon", "0", "-o", str(out)])
    assert code == 0, capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["factual"] == [-0.5, 0.1]
    assert doc["counterfactual"] == [1.0, 0.1]


@pytest.mark.parametrize("form", ["separate", "attached"])
def test_sweep_reads_a_negative_factual_in_either_form(tmp_path, boundary_model, capsys, form):
    prefix = tmp_path / "sweep"
    factual = ["--factual", "-.5,-2"] if form == "separate" else ["--factual=-.5,-2"]
    code = main(["sweep", "--model", str(boundary_model), *factual, "--target", "1",
                 "--epsilons", "0,0.5", "-o", str(prefix)])
    assert code == 0, capsys.readouterr().err
    doc = json.loads((tmp_path / "sweep.results.json").read_text())
    assert doc["factual"] == [-0.5, -2.0]
    assert [p["counterfactual"][1] for p in doc["points"]] == [-2.0, -2.0]


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


@pytest.mark.parametrize("standardization", [
    cf.Standardization(mean=[1.0, -1.0], std=[2.0, 0.5]), None,
], ids=["standardized", "raw"])
def test_eval_data_of_another_width_is_data_error(tmp_path, standardization, capsys):
    model_path = tmp_path / "m.json"
    cf.save_model(
        cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [4.0, 0.0]],
                        standardization=standardization),
        model_path,
    )
    data = tmp_path / "wide.csv"
    data.write_text("0.1,0.2,0.3\n3.9,0.1,0.0\n0.2,-0.1,5.0\n")
    code = main([
        "eval", "--model", str(model_path), "--n", "2", "--source", "0", "--target", "1",
        str(data), "-o", str(tmp_path / "e"),
    ])
    assert code == 3
    assert "data error: rows have dimension 3, model expects 2" in capsys.readouterr().err
    assert not (tmp_path / "e.report.json").exists()


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


@pytest.mark.parametrize("argv, message", [
    (["--source", "0", "--target", "1", "--mask", "1,0,1"],
     "error: mask: length 3 does not match dimension 2\n"),
    (["--source", "0", "--target", "7"], "error: target: cluster id 7 out of range [0, 2)\n"),
], ids=["mask", "target"])
def test_eval_checks_its_request_before_it_reads_the_dataset(tmp_path, blob_csv, monkeypatch,
                                                              capsys, argv, message):
    # With a bad row appended, reading the dataset first exited 3 with
    # "non-numeric cell 'x' ...".
    model_path = tmp_path / "m.json"
    cf.save_model(cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [6.0, 5.0]]), model_path)
    with open(blob_csv, "a") as fh:
        fh.write("x,1\n")
    reads = []
    monkeypatch.setattr(cli, "load_dataset", lambda *a, **k: reads.append(a))
    code = main(["eval", "--model", str(model_path)] + argv + [str(blob_csv),
                                                               "-o", str(tmp_path / "c")])
    assert code == 2
    assert reads == []
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


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


def test_help_exits_0_without_a_summary_line(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: clustercf")
    for line in out.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_readme_cli_sequence_runs_as_written(tmp_path, capsys):
    # The README's fit, explain, sweep and eval examples on a labelled CSV
    # like iris.csv.
    rng = np.random.default_rng(229)
    rows, labels = make_blobs(rng, [[0, 0, 0, 0], [5, 4, 3, 2], [-4, 4, -4, 4]], 0.6, 60)
    data = tmp_path / "iris.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "c", "d", "species"])
        for row, lab in zip(rows, labels):
            writer.writerow([repr(float(v)) for v in row] + [f"s{lab}"])
    model_path = str(tmp_path / "model.json")

    def run(*argv):
        code = main(list(argv))
        capsys.readouterr()
        return code

    assert run("fit", "--algo", "gmm", "--cov", "full", "--k", "3", "--seed", "1",
               "--restarts", "4", "--label-col", "species", str(data), "-o", model_path) == 0
    model = cf.load_model(model_path)
    assigned = np.argmax(cf.score_matrix(model, model.to_internal(rows)), axis=1)
    source, target = int(assigned[12]), int(assigned[12] + 1) % 3
    factual = ",".join(repr(float(v)) for v in rows[12])
    assert run("explain", "--model", model_path, f"--factual={factual}", "--target", str(target),
               "--mask", "1,0,1,1", "--epsilon", "1e-5", "-o", str(tmp_path / "result.json")) == 0
    assert run("explain", "--model", model_path, "--factual-row", "12", str(data),
               "--label-col", "species", "--target", "best", "-o", str(tmp_path / "result.json")) == 0
    assert json.loads((tmp_path / "result.json").read_text())["factual"] == rows[12].tolist()
    assert run("sweep", "--model", model_path, f"--factual={factual}", "--target", str(target),
               "--epsilons", "0,0.33,0.66,1.0", "-o", str(tmp_path / "sweep")) == 0
    campaign = ["eval", "--model", model_path, "--n", "50", "--seed", "7", "--source",
                str(source), "--target", str(target), "--label-col", "species"]
    assert run(*campaign, str(data), "-o", str(tmp_path / "first")) == 0
    baseline = tmp_path / "dice_counterfactuals.csv"
    cf.export_baseline_csv(cf.read_report_json(tmp_path / "first.report.json"), baseline)
    assert run(*campaign, "--baseline", f"dice={baseline}", str(data),
               "-o", str(tmp_path / "campaign")) == 0
    report = json.loads((tmp_path / "campaign.report.json").read_text())
    distances = report["comparison"]["distances"]
    # Standardization moves a re-read distance by up to an ulp.
    assert distances["dice"] == pytest.approx(distances["ours"], rel=1e-12)
    assert len(distances["ours"]) > 0


def test_result_files_are_canonical_json(tmp_path, boundary_model, capsys):
    out = tmp_path / "result.json"
    assert main(["explain", "--model", str(boundary_model), "--factual", "0,0.5",
                 "--target", "1", "-o", str(out)]) == 0
    assert main(["sweep", "--model", str(boundary_model), "--factual", "0,0.5",
                 "--target", "1", "--epsilons", "0,1", "-o", str(tmp_path / "sweep")]) == 0
    for path in (out, tmp_path / "sweep.results.json"):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_sweep_deltas_csv_bytes_match_repr_formatting(tmp_path, boundary_model, capsys):
    # An empty cell for None and `repr` for every float, as the table was
    # written before it left the formatting to `csv`.
    for prefix, argv in (("ok", ["--factual", "0,0.5", "--epsilons", "0,0.33,1e6"]),
                         ("none", ["--factual", "0,3", "--mask", "0,1", "--epsilons", "0,0.5"])):
        main(["sweep", "--model", str(boundary_model), "--target", "1", *argv,
              "-o", str(tmp_path / prefix)])
        points = json.loads((tmp_path / f"{prefix}.results.json").read_text())["points"]
        lines = ["epsilon,status,distance_sq,delta_0,delta_1"]
        for p in points:
            cells = [p["epsilon"], p["distance_sq"]] + (p["deltas"] or [None, None])
            cells = ["" if v is None else repr(v) for v in cells]
            lines.append(",".join([cells[0], p["status"]] + cells[1:]))
        expected = ("\r\n".join(lines) + "\r\n").encode()
        assert (tmp_path / f"{prefix}.deltas.csv").read_bytes() == expected
    assert expected.endswith(b"0.5,no_feasible_solution,,,\r\n")


@pytest.fixture
def far_pair(tmp_path):
    model = tmp_path / "two.json"
    cf.save_model(cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [100.0, 0.0]]), model)
    return model


def test_overflowed_explain_exits_5_with_its_one_line(tmp_path, far_pair, capsys):
    # The NaN residual made the result unwritable: exit 1, no summary line
    # and an empty result file.
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["explain", "--model", str(far_pair), "--factual", "1,0", "--target", "1",
                     "--epsilon", "1e300", "-o", str(out)])
    assert code == 5
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["status"] == "no_root_found"
    doc = json.loads(out.read_text())
    assert doc["residual"] is None
    jsonschema.validate(doc, load_schema("explain_result.schema.json"))


def test_overflowed_eval_exits_0_with_null_residuals(tmp_path, far_pair, capsys):
    data = tmp_path / "near.csv"
    data.write_text("1,0\n2,0\n3,0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["eval", "--model", str(far_pair), "--n", "3", "--source", "0",
                     "--target", "1", "--epsilon", "1e300", str(data), "-o", str(tmp_path / "e")])
    assert code == 0
    doc = json.loads((tmp_path / "e.report.json").read_text())
    assert [r["residual"] for r in doc["records"]] == [None] * 3
    assert {r["status"] for r in doc["records"]} == {"no_root_found"}
    jsonschema.validate(doc, load_schema("eval_report.schema.json"))


@pytest.mark.parametrize("specs", [["ours=B"], ["x=B", "x=B"]], ids=["ours", "repeated"])
def test_eval_baseline_name_taken_exits_2_before_any_solve(tmp_path, three_cluster_files,
                                                          monkeypatch, capsys, specs):
    model, data = three_cluster_files
    baseline = tmp_path / "b.csv"
    baseline.write_text("factual_id,f0,f1\n")
    explain_module = importlib.import_module("clustercf.explain")

    def no_solve(*args, **kwargs):
        raise AssertionError("a factual was solved")

    monkeypatch.setattr(explain_module, "solve_gaussian_rows", no_solve)
    argv = ["eval", "--model", str(model), "--source", "0", "--target", "1"]
    for spec in specs:
        argv += ["--baseline", spec.replace("B", str(baseline))]
    assert main(argv + [str(data), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: external_baselines: baseline name")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv", "three.csv", "three.json"]


def test_the_cached_parser_gives_each_call_only_its_own_arguments(tmp_path, blob_csv, capsys):
    assert build_parser() is build_parser()
    model_path = tmp_path / "m.json"
    assert main(["fit", "--algo", "kmeans", "--k", "2", "--seed", "1", "--no-standardize",
                 str(blob_csv), "-o", str(model_path)]) == 0
    campaign = ["eval", "--model", str(model_path), "--n", "5", "--seed", "2", "--source", "0",
                "--target", "1", str(blob_csv)]
    assert main(campaign + ["-o", str(tmp_path / "first")]) == 0
    baseline = tmp_path / "ours.csv"
    cf.export_baseline_csv(cf.read_report_json(tmp_path / "first.report.json"), baseline)
    assert main(campaign + ["--baseline", f"a={baseline}", "-o", str(tmp_path / "with")]) == 0
    assert main(campaign + ["-o", str(tmp_path / "without")]) == 0
    with_doc = json.loads((tmp_path / "with.report.json").read_text())
    without_doc = json.loads((tmp_path / "without.report.json").read_text())
    assert sorted(with_doc["comparison"]["distances"]) == ["a", "ours"]
    assert without_doc["comparison"] is None

    # A --label-col or --mask left over from the call before would make the
    # second call fail or solve another problem.
    labelled = tmp_path / "labelled.csv"
    labelled.write_text("x,name,y\n0.5,first,0.25\n")
    assert main(["explain", "--model", str(model_path), "--factual-row", "0", str(labelled),
                 "--label-col", "name", "--mask", "1,0", "--target", "1",
                 "-o", str(tmp_path / "row.json")]) == 0
    assert main(["explain", "--model", str(model_path), "--factual", "0.5,0.25", "--target", "1",
                 "-o", str(tmp_path / "inline.json")]) == 0
    row_doc = json.loads((tmp_path / "row.json").read_text())
    inline_doc = json.loads((tmp_path / "inline.json").read_text())
    assert row_doc["factual"] == inline_doc["factual"] == [0.5, 0.25]
    assert row_doc["mask"] == [1, 0] and inline_doc["mask"] is None
    assert len(capsys.readouterr().out.splitlines()) == 6


@pytest.mark.parametrize("command", ["explain", "sweep"])
def test_factual_row_reads_and_checks_only_its_row(tmp_path, boundary_model, capsys, command):
    data = tmp_path / "pts.csv"
    data.write_text("x,name,y\n0.0,a,0.5\n\n1.0,b,NaN\n9.0,c,9.0,7.0\n")
    base = [command, "--model", str(boundary_model), "--target", "1", "-o", str(tmp_path / "out")]
    if command == "sweep":
        base += ["--epsilons", "0,0.5"]

    def run(row, *extra):
        code = main(base + ["--factual-row", str(row), str(data), *extra])
        return code, capsys.readouterr().err

    # Rows 1 and 2 are bad, and row 0 is read without them.
    assert run(0, "--label-col", "name") == (0, "")
    code, err = run(1, "--label-col", "name")
    assert code == 3
    assert err == "data error: non-finite cell 'NaN' at row 2, column 3\n"
    code, err = run(2, "--label-col", "name")
    assert code == 3
    assert err == "data error: ragged row 3: expected 3 cells, got 4\n"
    code, err = run(3, "--label-col", "name")
    assert code == 2
    assert err == "error: --factual-row: row 3 out of range for 3 data rows\n"
    # Without --label-col the label cell is a bad cell.
    code, err = run(0)
    assert code == 3 and "non-numeric cell 'a' at row 1, column 2" in err
    code, err = run(0, "--label-col", "missing")
    assert code == 3 and "label column 'missing' not found" in err


def test_label_col_without_factual_row_exits_2(tmp_path, boundary_model, capsys):
    code = main(["explain", "--model", str(boundary_model), "--factual", "0,0.5",
                 "--label-col", "name", "--target", "1", "-o", str(tmp_path / "x.json")])
    assert code == 2
    assert "--label-col applies only to --factual-row" in capsys.readouterr().err


def test_factual_row_of_another_width_exits_2(tmp_path, boundary_model, capsys):
    data = tmp_path / "wide.csv"
    data.write_text("0.0,0.5,1.0\n")
    code = main(["explain", "--model", str(boundary_model), "--factual-row", "0", str(data),
                 "--target", "1", "-o", str(tmp_path / "x.json")])
    assert code == 2
    assert not (tmp_path / "x.json").exists()


def test_explain_best_with_every_target_failed_exits_5_with_its_one_line(tmp_path, capsys):
    # With every feature frozen no target can be reached.
    model = tmp_path / "three.json"
    cf.save_model(cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]),
                  model)
    out = tmp_path / "best.json"
    code = main(["explain", "--model", str(model), "--factual", "0.1,0.2", "--target", "best",
                 "--mask", "0,0", "-o", str(out)])
    assert code == 5
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    line = json.loads(lines[0])
    assert line == {"command": "explain", "status": "all_targets_failed", "target": None,
                    "distance_sq": None, "output": str(out)}
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, load_schema("explain_result.schema.json"))
    assert doc["statuses"] == {"1": "no_feasible_solution", "2": "no_feasible_solution"}
    assert doc["source"] == 0
    assert doc["factual"] == [0.1, 0.2] and doc["counterfactual"] is None


@pytest.mark.parametrize("target", ["best", "1"])
def test_a_factual_whose_scores_overflow_exits_5_for_any_target(tmp_path, capsys, target):
    # Mapped, the factual's first coordinate is 1e310: no target solves,
    # and `--target best` exited 2 with "error: x: contains NaN ...".
    model = tmp_path / "three.json"
    cf.save_model(cf.ClusterModel(kind=cf.KMEANS, centers=[[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]],
                                  standardization=cf.Standardization(mean=[0.0, 0.0],
                                                                     std=[1e-10, 1.0])),
                  model)
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["explain", "--model", str(model), "--factual", "1e300,0", "--target", target,
                     "-o", str(out)])
    assert code == 5
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(captured.out.splitlines()) == 1
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, load_schema("explain_result.schema.json"))
    assert doc["source"] == 0
    if target == "best":
        assert doc["statuses"] == {"1": "no_root_found", "2": "no_root_found"}
    else:
        assert doc["status"] == "no_root_found"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["explain", "--factual-row", "1.5", "DATA", "--target", "1"],
         "--factual-row index '1.5' is not an integer"),
        (["explain", "--factual", "0,abc", "--target", "1"],
         "could not parse --factual '0,abc' as comma-separated numbers"),
        (["sweep", "--factual", "0,0.5", "--target", "1", "--epsilons", "0,x"],
         "could not parse --epsilons '0,x' as comma-separated numbers"),
    ],
    ids=["factual-row", "factual", "epsilons"],
)
def test_unparsable_numbers_exit_2(tmp_path, boundary_model, blob_csv, capsys, argv, message):
    argv = [str(blob_csv) if a == "DATA" else a for a in argv]
    code = main(argv[:1] + ["--model", str(boundary_model)] + argv[1:]
                + ["-o", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs.csv", "pair.json"]


def test_eval_on_an_empty_source_cluster_is_a_data_error(tmp_path, boundary_model, capsys):
    data = tmp_path / "far.csv"
    data.write_text("2.0,0.1\n2.2,-0.1\n1.9,0.0\n")
    code = main(["eval", "--model", str(boundary_model), "--source", "0", "--target", "1",
                 str(data), "-o", str(tmp_path / "campaign")])
    assert code == 3
    assert capsys.readouterr().err == \
        "data error: source cluster 0 is empty in this dataset\n"


def test_parser_defaults_are_the_library_defaults(tmp_path):
    parser = build_parser()
    fit_args = parser.parse_args(["fit", "--algo", "kmeans", "--k", "2", "DATA", "-o", "M"])
    config = cf.FitConfig()
    assert fit_args.cov == config.covariance
    assert (fit_args.seed, fit_args.restarts, fit_args.max_iter, fit_args.rel_tol) == \
        (config.seed, config.restarts, config.max_iter, config.rel_tol)
    assert fit_args.no_standardize is not config.standardize
    eval_args = parser.parse_args(["eval", "--model", "M", "--source", "0", "--target", "1",
                                   "DATA", "-o", "P"])
    eval_config = cf.EvalConfig(source=0, target=1)
    assert (eval_args.n, eval_args.seed, eval_args.epsilon) == \
        (eval_config.n_factuals, eval_config.seed, eval_config.epsilon)
    explain_args = parser.parse_args(["explain", "--model", "M", "--factual", "0", "--target", "1",
                                      "-o", "O"])
    assert explain_args.epsilon == DEFAULT_EPSILON == eval_config.epsilon
    assert cf.CfRequest(factual=[0.0], target=1).epsilon == DEFAULT_EPSILON


def _kmeans_file_with(tmp_path, text_of_center):
    """A two-center k-means model file whose first coordinate is written
    as the JSON text `text_of_center`."""
    path = tmp_path / "model.json"
    cf.save_model(cf.ClusterModel(kind=cf.KMEANS, centers=[[0.125, 0.0], [2.0, 0.0]]), path)
    path.write_text(path.read_text().replace("0.125", text_of_center, 1))
    return path


@pytest.mark.parametrize("text", ["1" + "0" * 400, "1" + "0" * 5000, "1e999", "true"],
                         ids=["int-beyond-float", "int-beyond-str-digits", "1e999", "bool"])
def test_a_bad_model_number_is_a_data_error(tmp_path, capsys, text):
    model = _kmeans_file_with(tmp_path, text)
    code = main(["explain", "--model", str(model), "--factual", "0,0.5", "--target", "1",
                 "-o", str(tmp_path / "x.json")])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert "centers[0][0]" in err[0] or "not valid JSON" in err[0]


def test_a_model_file_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_bytes(b"\xff\xfe{}")
    code = main(["explain", "--model", str(model), "--factual", "0,0.5", "--target", "1",
                 "-o", str(tmp_path / "x.json")])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"data error: model file {model} is not valid JSON")
