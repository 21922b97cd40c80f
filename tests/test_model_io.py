import json
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import clustercf as cf
from clustercf.model_io import load_dataset_row, model_from_dict, model_to_dict, write_json
from helpers import two_cluster_gaussian_model
from oracles import make_blobs, random_spd


def load_schema(name):
    import importlib.resources as resources

    with resources.files("clustercf.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def sample_models():
    rng = np.random.default_rng(111)
    kmeans = cf.ClusterModel(kind=cf.KMEANS, centers=rng.normal(size=(3, 4)))
    gaussian_full = cf.ClusterModel(
        kind=cf.GAUSSIAN,
        components=tuple(
            cf.GaussianComponent(
                mean=rng.normal(size=3) + 3 * k,
                covariance=cf.CovarianceSpec.full(random_spd(rng, 3)),
                prior=0.5,
            )
            for k in range(2)
        ),
        standardization=cf.Standardization(mean=rng.normal(size=3), std=rng.uniform(0.5, 2, 3)),
    )
    gaussian_diag = cf.ClusterModel(
        kind=cf.GAUSSIAN,
        components=tuple(
            cf.GaussianComponent(
                mean=rng.normal(size=2) + 3 * k,
                covariance=cf.CovarianceSpec.diagonal(rng.uniform(0.5, 2, 2)),
                prior=0.5,
            )
            for k in range(2)
        ),
    )
    gaussian_sph = cf.ClusterModel(
        kind=cf.GAUSSIAN,
        components=tuple(
            cf.GaussianComponent(
                mean=rng.normal(size=2) + 3 * k,
                covariance=cf.CovarianceSpec.spherical(float(rng.uniform(0.5, 2))),
                prior=0.5,
            )
            for k in range(2)
        ),
    )
    return [kmeans, gaussian_full, gaussian_diag, gaussian_sph]


@pytest.mark.parametrize("idx", range(4))
def test_save_load_save_is_byte_identical(tmp_path, idx):
    model = sample_models()[idx]
    p1 = tmp_path / "m1.json"
    p2 = tmp_path / "m2.json"
    cf.save_model(model, p1, provenance={"note": "roundtrip", "seed": 3})
    loaded, provenance = cf.load_model_with_provenance(p1)
    cf.save_model(loaded, p2, provenance=provenance)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("algorithm", [cf.KMEANS, "gmm"])
def test_one_cluster_fit_round_trips(tmp_path, algorithm):
    rows = np.random.default_rng(61).normal(size=(60, 3)) * [1.0, 2.0, 0.5]
    model, _ = cf.fit(
        cf.Dataset(rows=rows), cf.FitConfig(algorithm=algorithm, n_clusters=1, restarts=1)
    )
    p1 = tmp_path / "m1.json"
    p2 = tmp_path / "m2.json"
    cf.save_model(model, p1)
    jsonschema.validate(json.loads(p1.read_text()), load_schema("model.schema.json"))
    loaded = cf.load_model(p1)
    assert loaded.n_clusters == 1
    cf.save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_model_densities_match(tmp_path):
    rng = np.random.default_rng(117)
    rows, _ = make_blobs(rng, [[0, 0, 0], [5, 4, 3], [-4, 5, 1]], sigma=0.7, n_per=80)
    model, _ = cf.fit(
        cf.Dataset(rows=rows),
        cf.FitConfig(algorithm="gmm", covariance=cf.FULL, n_clusters=3, seed=2),
    )
    path = tmp_path / "model.json"
    cf.save_model(model, path)
    loaded = cf.load_model(path)
    x = rng.normal(scale=2.0, size=(100, 3))
    np.testing.assert_allclose(cf.score_matrix(loaded, x), cf.score_matrix(model, x),
                               rtol=0.0, atol=1e-12)


def test_prior_sum_error_names_field(tmp_path):
    model = two_cluster_gaussian_model()
    doc = model_to_dict(model)
    doc["components"][0]["prior"] = 0.45
    doc["components"][1]["prior"] = 0.45
    with pytest.raises(cf.ValidationError) as err:
        model_from_dict(doc)
    assert err.value.path == "components[*].prior"


def test_model_file_validates_against_schema(tmp_path):
    schema = load_schema("model.schema.json")
    for model in sample_models():
        doc = model_to_dict(model, provenance={"origin": "test"})
        jsonschema.validate(doc, schema)


def test_rejects_unknown_fields():
    doc = model_to_dict(sample_models()[0])
    doc["extra"] = 1
    with pytest.raises(cf.ValidationError, match="unknown"):
        model_from_dict(doc)


def test_rejects_wrong_schema_version():
    doc = model_to_dict(sample_models()[0])
    doc["schema_version"] = 2
    with pytest.raises(cf.ValidationError, match="schema_version"):
        model_from_dict(doc)


def test_rejects_nan_token_in_file(tmp_path):
    model = sample_models()[0]
    path = tmp_path / "m.json"
    cf.save_model(model, path)
    text = path.read_text()
    broken = tmp_path / "broken.json"
    first_center = json.loads(text)["centers"][0][0]
    broken.write_text(text.replace(repr(first_center), "NaN", 1))
    with pytest.raises((cf.ValidationError, cf.DataError)):
        cf.load_model(broken)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_write_json_refuses_a_non_finite_number_before_it_opens_the_file(tmp_path, value):
    # The file was opened first, so a refused document left it empty.
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json({"residual": value}, path)
    assert not path.exists()
    write_json({"b": [1.0, None], "a": 0.1}, path)
    assert path.read_text() == '{\n  "a": 0.1,\n  "b": [\n    1.0,\n    null\n  ]\n}\n'


def test_fuzzed_mutations_rejected_or_valid(tmp_path):
    rng = np.random.default_rng(131)
    base = model_to_dict(sample_models()[1])

    def mutate(doc, which):
        if which == 0:
            del doc["components"]
        elif which == 1:
            doc["components"][0]["prior"] = -0.2
        elif which == 2:
            doc["components"][0]["covariance"]["matrix"][0][0] = -5.0
        elif which == 3:
            doc["components"][0]["covariance"]["matrix"][0][1] = 99.0
        elif which == 4:
            doc["d"] = 7
        elif which == 5:
            doc["n_clusters"] = 1
        elif which == 6:
            doc["standardization"]["std"][0] = 0.0
        elif which == 7:
            doc["components"][0]["mean"] = [1.0]
        elif which == 8:
            doc["kind"] = "fuzzy"
        elif which == 9:
            doc["components"][1]["mean"] = doc["components"][0]["mean"]
        return doc

    for which in range(10):
        doc = mutate(json.loads(json.dumps(base)), which)
        with pytest.raises((cf.ValidationError, cf.DataError)):
            model_from_dict(doc)
    # The unmutated document stays loadable and satisfies the invariants.
    model, _ = model_from_dict(json.loads(json.dumps(base)))
    assert model.n_clusters == 2
    total = sum(c.prior for c in model.components)
    assert abs(total - 1.0) <= 1e-9


# Every number of a model file: (index into sample_models(), the keys of
# the field in its document, the field's path in error messages).
NUMBER_ARRAYS = [
    (1, ("standardization", "mean"), "standardization.mean"),
    (1, ("standardization", "std"), "standardization.std"),
    (0, ("centers", 1), "centers[1]"),
    (1, ("components", 1, "mean"), "components[1].mean"),
    (1, ("components", 0, "covariance", "matrix", 2), "components[0].covariance.matrix[2]"),
    (2, ("components", 1, "covariance", "variances"), "components[1].covariance.variances"),
]
NUMBER_SCALARS = [
    (3, ("components", 1, "covariance", "variance"), "components[1].covariance.variance"),
    (1, ("components", 0, "prior"), "components[0].prior"),
]
BAD_NUMBERS = [True, "0.5", None, json.loads("1e999"), 10**400]
BAD_NUMBER_IDS = ["bool", "string", "null", "1e999", "int-beyond-float"]


def _document_with(idx, keys, value):
    """The document of sample model `idx` with the field at `keys` set to
    `value`, or, for a callable `value`, to what it makes of the field."""
    doc = json.loads(json.dumps(model_to_dict(sample_models()[idx])))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value(parent[keys[-1]]) if callable(value) else value
    return doc


def _rejected_at(doc):
    with pytest.raises(cf.ValidationError) as err:
        model_from_dict(doc)
    return err.value.path


@pytest.mark.parametrize("bad", BAD_NUMBERS, ids=BAD_NUMBER_IDS)
@pytest.mark.parametrize("idx, keys, path", NUMBER_ARRAYS + NUMBER_SCALARS,
                         ids=[path for _, _, path in NUMBER_ARRAYS + NUMBER_SCALARS])
def test_a_bad_model_number_is_rejected_at_its_path(idx, keys, path, bad):
    if (idx, keys, path) in NUMBER_SCALARS:
        assert _rejected_at(_document_with(idx, keys, bad)) == path
    else:
        doc = _document_with(idx, keys, lambda row: row[:1] + [bad] + row[2:])
        assert _rejected_at(doc) == f"{path}[1]"


@pytest.mark.parametrize("idx, keys, path", NUMBER_ARRAYS,
                         ids=[path for _, _, path in NUMBER_ARRAYS])
def test_a_model_array_of_another_length_or_no_array_is_rejected_at_its_path(idx, keys, path):
    assert _rejected_at(_document_with(idx, keys, lambda row: row + [0.5])) == path
    assert _rejected_at(_document_with(idx, keys, lambda row: row[:-1])) == path
    assert _rejected_at(_document_with(idx, keys, 0.5)) == path
    assert _rejected_at(_document_with(idx, keys, {"0": 0.5})) == path
    # A matrix of centers or covariance entries counts its rows as well.
    if isinstance(keys[-1], int):
        assert _rejected_at(_document_with(idx, keys[:-1], lambda rows: rows[:-1])) == \
            path.rpartition("[")[0]


@pytest.mark.parametrize("idx, keys, path", NUMBER_SCALARS,
                         ids=[path for _, _, path in NUMBER_SCALARS])
def test_a_model_scalar_given_as_an_array_is_rejected_at_its_path(idx, keys, path):
    assert _rejected_at(_document_with(idx, keys, lambda value: [value])) == path


def test_json_ints_load_as_their_floats():
    doc = {"schema_version": 1, "kind": "kmeans", "d": 2, "n_clusters": 2,
           "centers": [[0, 2**53 + 1], [3, -1]], "standardization": None, "provenance": {}}
    model, _ = model_from_dict(doc)
    assert model.centers.tolist() == [[0.0, float(2**53 + 1)], [3.0, -1.0]]


# ---------------------------------------------------------------------------
# Dataset CSV loading


def test_load_dataset_plain(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n5.5,6.5\n")
    data = cf.load_dataset(path)
    assert data.n == 3 and data.d == 2
    assert data.feature_names is None
    assert data.rows[2].tolist() == [5.5, 6.5]


def test_load_dataset_header_and_label_column(tmp_path):
    path = tmp_path / "iris_like.csv"
    lines = ["sepal_l,sepal_w,petal_l,petal_w,species"]
    rng = np.random.default_rng(3)
    for i in range(6):
        vals = rng.uniform(1, 8, size=4)
        lines.append(",".join(f"{v:.3f}" for v in vals) + f",iris-{i % 3}")
    path.write_text("\n".join(lines) + "\n")
    data = cf.load_dataset(path, label_column="species")
    assert data.d == 4
    assert data.feature_names == ("sepal_l", "sepal_w", "petal_l", "petal_w")
    assert data.labels[0] == "iris-0"


BOM = "\ufeff"


def test_load_dataset_drops_a_byte_order_mark_before_the_first_row(tmp_path):
    # Left on the first cell, the mark would make the first row non-numeric,
    # and it would be read as a header.
    path = tmp_path / "bom.csv"
    path.write_text(BOM + "1.5,2.0\n3.0,4.0\n", encoding="utf-8")
    data = cf.load_dataset(path)
    assert data.feature_names is None
    assert data.rows.tolist() == [[1.5, 2.0], [3.0, 4.0]]


def test_load_dataset_finds_the_first_column_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom_labelled.csv"
    path.write_text(BOM + "a,x,y\nfirst,1.0,2.0\nsecond,3.0,4.0\n", encoding="utf-8")
    data = cf.load_dataset(path, label_column="a")
    assert data.feature_names == ("x", "y")
    assert data.labels == ("first", "second")
    assert data.rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_dataset_nan_cell_reports_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,NaN\n")
    with pytest.raises(cf.DataError, match="row 2, column 2"):
        cf.load_dataset(path)
    first_row = tmp_path / "bad_first.csv"
    first_row.write_text("1.0,inf\n3.0,4.0\n")
    with pytest.raises(cf.DataError, match="row 1, column 2"):
        cf.load_dataset(first_row)


def test_load_dataset_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(cf.DataError, match="ragged"):
        cf.load_dataset(path)


def test_load_dataset_non_numeric_cell(tmp_path):
    path = tmp_path / "alpha.csv"
    path.write_text("1.0,2.0\n3.0,x\n")
    with pytest.raises(cf.DataError, match="non-numeric"):
        cf.load_dataset(path)


def test_load_dataset_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(cf.DataError, match="empty"):
        cf.load_dataset(path)


def test_load_dataset_label_column_requires_header(tmp_path):
    path = tmp_path / "nohdr.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(cf.DataError, match="header"):
        cf.load_dataset(path, label_column="y")


def test_load_dataset_header_only_file(tmp_path):
    path = tmp_path / "header_only.csv"
    path.write_text("a,b\n\n , \n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(cf.DataError, match="has a header but no data rows"):
            cf.load_dataset(path)


@pytest.mark.parametrize("text, rows", [
    ("a,b\n1_000,2\n3,4\n", [[1000.0, 2.0], [3.0, 4.0]]),
    ('a,b\n"1.5",2\n3,4\n', [[1.5, 2.0], [3.0, 4.0]]),
    ("1,2\n , \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,١٢\n3,4\n", [[1.0, 12.0], [3.0, 4.0]]),
], ids=["underscore", "quoted", "blank_cells_row", "arabic_digits"])
def test_load_dataset_values_the_c_reader_refuses(tmp_path, text, rows):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    assert cf.load_dataset(path).rows.tolist() == rows


def test_load_dataset_quoted_label_keeps_its_comma(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('x,name,y\n1,"a, b",2\n3,c,4\n')
    data = cf.load_dataset(path, label_column="name")
    assert data.rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert data.labels == ("a, b", "c")


_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
)
_formats = st.sampled_from([repr, lambda v: "%.25g" % v, lambda v: "%.12e" % v])


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.lists(_finite, min_size=3, max_size=3), min_size=1, max_size=8),
    fmt=_formats,
    header=st.booleans(),
    label_at=st.none() | st.integers(0, 3),
    eol=st.sampled_from(["\n", "\r\n", "\r"]),
    blank_after=st.sets(st.integers(0, 7)),
)
def test_load_dataset_matches_float_per_cell(tmp_path_factory, values, fmt, header, label_at,
                                             eol, blank_after):
    if label_at is not None:
        header = True
    names = ["f0", "f1", "f2"]
    lines = []
    cells_per_row = []
    for i, row in enumerate(values):
        cells = [fmt(v) for v in row]
        if label_at is not None:
            cells.insert(label_at, f"label-{i}")
        cells_per_row.append(cells)
        lines.append(",".join(cells))
        if i in blank_after:
            lines.append(" , " if i % 2 else "")
    if header:
        if label_at is not None:
            names.insert(label_at, "kind")
        lines.insert(0, ",".join(names))
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes((eol.join(lines) + eol).encode("utf-8"))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = cf.load_dataset(path, label_column="kind" if label_at is not None else None)
    expected = [
        [float(c) for j, c in enumerate(cells) if j != label_at] for cells in cells_per_row
    ]
    assert data.rows.tobytes() == np.asarray(expected, dtype=np.float64).tobytes()
    if header:
        assert data.feature_names == ("f0", "f1", "f2")
    else:
        assert data.feature_names is None
    if label_at is not None:
        assert data.labels == tuple(f"label-{i}" for i in range(len(values)))
    else:
        assert data.labels is None


def test_load_dataset_ragged_row_with_label_column(tmp_path):
    path = tmp_path / "ragged_label.csv"
    path.write_text("name,x,y\na,1.0,2.0\nb,3.0,4.0,5.0\n")
    with pytest.raises(cf.DataError, match="ragged row 2: expected 3 cells, got 4"):
        cf.load_dataset(path, label_column="name")


# ---------------------------------------------------------------------------
# One dataset row

_BAD_CELLS = {"nan": "nan", "inf": "-inf", "alpha": "x1", "empty": " "}


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(st.lists(_finite, min_size=2, max_size=2), min_size=1, max_size=6),
    fmt=_formats,
    header=st.booleans(),
    label_at=st.none() | st.integers(0, 2),
    quote=st.booleans(),
    bom=st.booleans(),
    eol=st.sampled_from(["\n", "\r\n", "\r"]),
    blank_after=st.sets(st.integers(-1, 5)),
    bad=st.none() | st.tuples(st.integers(0, 5), st.integers(0, 1),
                              st.sampled_from(["short", "long", *_BAD_CELLS])),
)
def test_load_dataset_row_matches_load_dataset(tmp_path_factory, values, fmt, header, label_at,
                                               quote, bom, eol, blank_after, bad):
    if label_at is not None:
        header = True
    if bad is not None:
        bad_row, bad_col, kind = bad
        assume(bad_row < len(values))
        # A ragged first row sets the width of every other; a first row
        # that is not numeric is a header.
        assume(bad_row > 0 or kind != "short" and kind != "long")
        assume(bad_row > 0 or header or kind in ("nan", "inf"))
    names = ["f0", "f1"]
    if label_at is not None:
        names.insert(label_at, "kind")
    parsed, lines = [], []
    if header:
        lines.append(",".join(f'"{n}"' if quote else n for n in names))
    if -1 in blank_after:
        lines.append("")
    for i, row in enumerate(values):
        cells = [fmt(v) for v in row]
        parsed.append([float(c) for c in cells])
        if bad is not None and i == bad_row and kind in _BAD_CELLS:
            cells[bad_col] = _BAD_CELLS[kind]
        if quote:
            cells = [f'"{c}"' if (i + j) % 2 == 0 else c for j, c in enumerate(cells)]
        if label_at is not None:
            cells.insert(label_at, f'"label, {i}"' if quote else f"label-{i}")
        if bad is not None and i == bad_row:
            if kind == "short":
                cells = cells[:-1]
            elif kind == "long":
                cells = cells + ["1.0"]
        lines.append(",".join(cells))
        if i in blank_after:
            lines.append(" , " if i % 2 else "")
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(((BOM if bom else "") + eol.join(lines) + eol).encode("utf-8"))
    label_column = "kind" if label_at is not None else None

    def outcome(read):
        try:
            return read()
        except cf.DataError as exc:
            return str(exc)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = outcome(lambda: cf.load_dataset(path, label_column=label_column))
        for i, row in enumerate(parsed):
            got = outcome(lambda: load_dataset_row(path, i, label_column=label_column))
            if bad is None:
                assert got.tobytes() == whole.rows[i].tobytes()
            elif i == bad_row:
                # The row's own error, as the whole file reports it.
                assert isinstance(got, str) and got == whole
            else:
                # Rows not read are not checked.
                assert got.tobytes() == np.asarray(row, dtype=np.float64).tobytes()
        with pytest.raises(IndexError, match=f"out of range for {len(values)} data rows"):
            load_dataset_row(path, len(values), label_column=label_column)
        with pytest.raises(IndexError, match=f"out of range for {len(values)} data rows"):
            load_dataset_row(path, -1, label_column=label_column)


@pytest.mark.parametrize("document, path, message", [
    (lambda: [], "$", "model document must be a JSON object"),
    (lambda: _document_with(1, ("components", 0, "covariance"), []), "components[0].covariance",
     "expected an object"),
    (lambda: _document_with(1, ("components", 0, "covariance", "kind"), "banded"),
     "components[0].covariance.kind", "unknown covariance kind 'banded'"),
    (lambda: _document_with(1, ("d",), 0), "d", "must be a positive integer"),
    (lambda: _document_with(1, ("n_clusters",), True), "n_clusters", "must be a positive integer"),
    (lambda: _document_with(1, ("standardization",), []), "standardization",
     "expected an object or null"),
    (lambda: _document_with(1, ("provenance",), []), "provenance", "expected an object"),
    (lambda: _document_with(1, ("components", 1), 3), "components[1]", "expected an object"),
], ids=["document-not-object", "covariance-not-object", "covariance-kind", "d", "n-clusters",
        "standardization", "provenance", "component-not-object"])
def test_malformed_model_documents_are_rejected_at_their_path(document, path, message):
    with pytest.raises(cf.ValidationError) as info:
        model_from_dict(document())
    assert (info.value.path, info.value.message) == (path, message)
