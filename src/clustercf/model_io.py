"""The package's file formats: versioned model files, every JSON document
it writes and the CSV tables it reads (datasets and baselines).

`write_json` writes each JSON document in one canonical form: sorted
keys, two-space indent, shortest round-trip floats. Saving a freshly
loaded model therefore reproduces the file byte for byte. Parsing
re-derives all caches and re-validates every model invariant; violations
raise ValidationError with the path of the offending field.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any

import numpy as np

from .core import (
    COVARIANCE_KINDS,
    DIAGONAL,
    FULL,
    GAUSSIAN,
    KMEANS,
    SPHERICAL,
    ClusterCfError,
    ClusterModel,
    CovarianceSpec,
    GaussianComponent,
    Standardization,
    ValidationError,
)
from .fit import Dataset

SCHEMA_VERSION = 1
_JSON_NUMBER_TYPES = frozenset((int, float))


class DataError(ClusterCfError):
    pass


def _reject_constant(token: str):
    raise DataError(f"non-finite JSON number {token!r} is not allowed")


def write_json(obj: Any, path) -> None:
    """Write `obj` to `path` as canonical JSON: sorted keys, two-space
    indent, shortest round-trip floats, no NaN or infinity. The document
    is serialized before the file is opened, so a document that cannot
    be written leaves no file behind."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_csv(path, header, rows) -> None:
    """Write the `header` row and then each row of `rows` to `path` as
    CSV, in the `csv` module's default dialect: a cell as `str()` gives it
    (None empty), quoted only when it needs to be, rows ended by CRLF."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Model serialization


def _cov_to_dict(cov: CovarianceSpec) -> dict:
    if cov.kind == FULL:
        return {"kind": FULL, "matrix": cov.data.tolist()}
    if cov.kind == DIAGONAL:
        return {"kind": DIAGONAL, "variances": cov.data.tolist()}
    return {"kind": SPHERICAL, "variance": float(cov.data)}


def model_to_dict(model: ClusterModel, provenance: "dict | None" = None) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "kind": model.kind,
        "d": model.d,
        "n_clusters": model.n_clusters,
        "provenance": provenance if provenance is not None else {},
    }
    if model.kind == KMEANS:
        out["centers"] = model.centers.tolist()
    else:
        out["components"] = [
            {
                "mean": c.mean.tolist(),
                "covariance": _cov_to_dict(c.covariance),
                "prior": c.prior,
            }
            for c in model.components
        ]
    if model.standardization is None:
        out["standardization"] = None
    else:
        out["standardization"] = {
            "mean": model.standardization.mean.tolist(),
            "std": model.standardization.std.tolist(),
        }
    return out


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ValidationError(f"{path}.{key}" if path else key, "missing required field")
    return obj[key]


def _no_extras(obj: dict, allowed, path: str):
    extras = sorted(set(obj) - set(allowed))
    if extras:
        raise ValidationError(path or "$", f"unknown fields {extras}")


def _finite_floats(numbers) -> "list | None":
    """The floats of `numbers` when each is a JSON int or float, not a
    bool, that converts to a finite float; None otherwise."""
    if not {*map(type, numbers)} <= _JSON_NUMBER_TYPES:
        return None
    try:
        floats = list(map(float, numbers))
    except OverflowError:  # an int beyond float range
        return None
    return floats if all(map(math.isfinite, floats)) else None


def _numbers(value, path: str, shape: tuple):
    """The floats of a model file's number (`shape` ()), array of n
    numbers ((n,)) or array of m such arrays ((m, n)), each checked by
    `_finite_floats`. The first number that fails, or an array of another
    length, raises ValidationError at its path."""
    if shape:
        n, inner = shape[0], shape[1:]
        if not isinstance(value, list) or len(value) != n:
            raise ValidationError(path, f"expected an array of {n} {'arrays' if inner else 'numbers'}")
        if inner:
            return [_numbers(row, f"{path}[{i}]", inner) for i, row in enumerate(value)]
    numbers = value if shape else [value]
    floats = _finite_floats(numbers)
    if floats is None:
        i = next(i for i, v in enumerate(numbers) if _finite_floats([v]) is None)
        raise ValidationError(f"{path}[{i}]" if shape else path,
                              f"expected a finite number, got {numbers[i]!r}")
    return floats if shape else floats[0]


def _parse_covariance(obj, d: int, path: str) -> CovarianceSpec:
    if not isinstance(obj, dict):
        raise ValidationError(path, "expected an object")
    kind = _require(obj, "kind", path)
    if kind not in COVARIANCE_KINDS:
        raise ValidationError(f"{path}.kind", f"unknown covariance kind {kind!r}")
    if kind == FULL:
        _no_extras(obj, ("kind", "matrix"), path)
        return CovarianceSpec.full(_numbers(_require(obj, "matrix", path), f"{path}.matrix", (d, d)))
    if kind == DIAGONAL:
        _no_extras(obj, ("kind", "variances"), path)
        return CovarianceSpec.diagonal(
            _numbers(_require(obj, "variances", path), f"{path}.variances", (d,)))
    _no_extras(obj, ("kind", "variance"), path)
    return CovarianceSpec.spherical(_numbers(_require(obj, "variance", path), f"{path}.variance", ()))


def model_from_dict(obj: Any) -> "tuple[ClusterModel, dict]":
    """Parse and validate a model document; returns (model, provenance)."""
    if not isinstance(obj, dict):
        raise ValidationError("$", "model document must be a JSON object")
    _no_extras(
        obj,
        ("schema_version", "kind", "d", "n_clusters", "centers", "components",
         "standardization", "provenance"),
        "$",
    )
    version = _require(obj, "schema_version", "")
    if version != SCHEMA_VERSION:
        raise ValidationError("schema_version", f"unsupported version {version!r}")
    kind = _require(obj, "kind", "")
    if kind not in (KMEANS, GAUSSIAN):
        raise ValidationError("kind", f"unknown model kind {kind!r}")
    d = _require(obj, "d", "")
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValidationError("d", "must be a positive integer")
    m = _require(obj, "n_clusters", "")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValidationError("n_clusters", "must be a positive integer")

    standardization = None
    std_obj = obj.get("standardization")
    if std_obj is not None:
        if not isinstance(std_obj, dict):
            raise ValidationError("standardization", "expected an object or null")
        _no_extras(std_obj, ("mean", "std"), "standardization")
        standardization = Standardization(
            mean=_numbers(_require(std_obj, "mean", "standardization"), "standardization.mean", (d,)),
            std=_numbers(_require(std_obj, "std", "standardization"), "standardization.std", (d,)),
        )

    provenance = obj.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ValidationError("provenance", "expected an object")

    if kind == KMEANS:
        centers = _numbers(_require(obj, "centers", ""), "centers", (m, d))
        model = ClusterModel(kind=KMEANS, centers=centers, standardization=standardization)
    else:
        comp_objs = _require(obj, "components", "")
        if not isinstance(comp_objs, list) or len(comp_objs) != m:
            raise ValidationError("components", f"expected {m} components")
        comps = []
        for i, co in enumerate(comp_objs):
            path = f"components[{i}]"
            if not isinstance(co, dict):
                raise ValidationError(path, "expected an object")
            _no_extras(co, ("mean", "covariance", "prior"), path)
            mean = _numbers(_require(co, "mean", path), f"{path}.mean", (d,))
            cov = _parse_covariance(_require(co, "covariance", path), d, f"{path}.covariance")
            prior = _numbers(_require(co, "prior", path), f"{path}.prior", ())
            try:
                comps.append(GaussianComponent(mean=mean, covariance=cov, prior=prior))
            except ValidationError as exc:
                raise ValidationError(f"{path}.{exc.path}", exc.message) from exc
        model = ClusterModel(kind=GAUSSIAN, components=tuple(comps), standardization=standardization)
    return model, provenance


def save_model(model: ClusterModel, path, provenance: "dict | None" = None) -> None:
    write_json(model_to_dict(model, provenance), path)


def load_model(path) -> ClusterModel:
    model, _ = load_model_with_provenance(path)
    return model


def load_model_with_provenance(path) -> "tuple[ClusterModel, dict]":
    return model_from_dict(read_json(path, "model"))


def read_json(path, what: str):
    """The JSON document in the file at `path`, without non-finite numbers.
    A file that cannot be read or parsed raises DataError naming `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.loads(fh.read(), parse_constant=_reject_constant)
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON or UTF-8, or an int of too many digits
        raise DataError(f"{what} file {path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV tables: datasets and baselines


def _parse_cell(token: str, row: int, col: int) -> float:
    text = token.strip()
    if text == "":
        raise DataError(f"empty cell at row {row}, column {col}")
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"non-numeric cell {token!r} at row {row}, column {col}") from None
    if not math.isfinite(value):
        raise DataError(f"non-finite cell {token!r} at row {row}, column {col}")
    return value


def _looks_numeric(cells) -> bool:
    # Non-finite tokens still count as numeric here so that a NaN in the
    # first row is reported as a bad cell, not mistaken for a header.
    for cell in cells:
        text = cell.strip()
        if text == "":
            return False
        try:
            float(text)
        except ValueError:
            return False
    return True


def _csv_rows(text: str) -> "list[list[str]]":
    """The rows of `text` as the csv module splits them, blank rows left out."""
    rows = csv.reader(io.StringIO(text, newline=""))
    return [row for row in rows if any(cell.strip() != "" for cell in row)]


def _plain_lines(text: str) -> "list[str]":
    """The rows of the quote-free `text`, blank rows left out. Without
    quotes the csv module ends a row at every CR and LF and splits it at
    every comma, so a line's comma-split cells are its csv row."""

    def non_blank(line: str) -> bool:
        line = line.strip()
        return line != "" and (line[0] != "," or line.replace(",", "").strip() != "")

    return [line for line in text.replace("\r", "\n").split("\n") if non_blank(line)]


def _width(row) -> int:
    """The number of cells in `row`, a quote-free line or a csv row."""
    return row.count(",") + 1 if isinstance(row, str) else len(row)


def _parse_cells(raw, label_idx: "int | None", width: int, first: int):
    """(values, labels) of the csv rows `raw`, numbered from `first`, one
    `float()` per cell; the first bad row or cell raises DataError naming
    it, and so does a row that is not `width` cells wide."""
    labels = [] if label_idx is not None else None
    rows = []
    for r, cells in enumerate(raw, start=first):
        if len(cells) != width:
            raise DataError(f"ragged row {r}: expected {width} cells, got {len(cells)}")
        values = []
        for c, cell in enumerate(cells, start=1):
            if label_idx is not None and c - 1 == label_idx:
                labels.append(cell.strip())
                continue
            values.append(_parse_cell(cell, r, c))
        rows.append(values)
    return rows, labels


def _parse_lines(lines, label_idx: "int | None", width: int):
    """What `_parse_cells` returns for the quote-free rows `lines`, with
    every number parsed by one call of numpy's C text reader, or None when
    the reader refuses a line, a value is not finite or a row is not
    `width` cells wide. The reader converts each token with the routine
    `float()` uses, so every value it returns has the bits `float()` gives."""
    usecols, cells = None, None
    if label_idx is not None:
        cells = [line.split(",") for line in lines]
        if any(len(row) != width for row in cells):
            return None
        usecols = [c for c in range(width) if c != label_idx]
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64,
                            ndmin=2, usecols=usecols)
    except ValueError:
        return None
    if values.shape != (len(lines), width - (label_idx is not None)):
        return None
    if not np.isfinite(values).all():
        return None
    labels = None if cells is None else [row[label_idx].strip() for row in cells]
    return values, labels


def read_csv_table(path, what: str):
    """(header, rows) of the CSV file at `path`: the stripped cells of the
    first non-blank row when any is not numeric (else None), and the
    other non-blank rows for `parse_csv_table`, none for a header-only
    file. A UTF-8 byte-order mark is dropped. A file that cannot be read
    or is blank raises DataError naming `what`."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    rows = _plain_lines(text) if '"' not in text else _csv_rows(text)
    if not rows:
        raise DataError(f"{what} {path} is empty")
    first = rows[0].split(",") if isinstance(rows[0], str) else rows[0]
    if _looks_numeric(first):
        return None, rows
    return [cell.strip() for cell in first], rows[1:]


def parse_csv_table(rows, label_idx: "int | None", width: "int | None" = None, first: int = 1):
    """(values, labels) of the data rows of `read_csv_table`: the numbers
    of every column but `label_idx`, and that column's stripped cells
    (None without `label_idx`). Every row must be `width` cells wide (by
    default, as wide as the first). The first bad row or cell raises
    DataError naming it, rows numbered from `first`.

    Quote-free rows (lines) are parsed by numpy's C text reader in one
    call. The per-cell loop stays for what that reader does not take:
    quoted cells, values `float()` accepts and the reader refuses
    (`1_000`, non-ASCII digits), and every bad file, whose first bad row
    or cell only the loop names."""
    if width is None:
        width = _width(rows[0])
    if isinstance(rows[0], str):
        parsed = _parse_lines(rows, label_idx, width)
        if parsed is not None:
            return parsed
        rows = [line.split(",") for line in rows]
    return _parse_cells(rows, label_idx, width, first)


def _data_rows(path, label_column: "str | None"):
    """(header, raw, label_idx) of the dataset CSV at `path`: its header
    (or None), its non-blank data rows for `parse_csv_table` and the index
    of `label_column` in the header (None without one)."""
    header, raw = read_csv_table(path, "dataset")
    if not raw:
        raise DataError(f"dataset {path} has a header but no data rows")
    label_idx = None
    if label_column is not None:
        if header is None:
            raise DataError("label column requested but the file has no header")
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not found in header {header}")
        label_idx = header.index(label_column)
    return header, raw, label_idx


def _dataset(path, header, label_idx: "int | None", rows, labels) -> Dataset:
    """The Dataset of parsed `rows` and `labels` under `header`; what
    Dataset rejects raises DataError naming `path`."""
    feature_names = None
    if header is not None:
        feature_names = tuple(n for i, n in enumerate(header) if i != label_idx)
    try:
        return Dataset(
            rows=np.asarray(rows, dtype=np.float64),
            feature_names=feature_names,
            labels=tuple(labels) if labels is not None else None,
        )
    except ValidationError as exc:
        raise DataError(f"dataset {path}: {exc}") from exc


def load_dataset(path, label_column: "str | None" = None) -> Dataset:
    """CSV rows of finite doubles with an optional header line.

    A header is assumed whenever the first non-blank row has any
    non-numeric cell. `label_column` names a header column to drop from
    the features and keep as string metadata. Every number is parsed as
    `float()` parses it. Rows of blank cells are skipped; error messages
    number the non-blank data rows, header excluded, from 1.
    """
    header, raw, label_idx = _data_rows(path, label_column)
    rows, labels = parse_csv_table(raw, label_idx)
    return _dataset(path, header, label_idx, rows, labels)


def load_dataset_row(path, row: int, label_column: "str | None" = None) -> np.ndarray:
    """`load_dataset(path, label_column).rows[row]`, reading only the header
    and that data row (counted from 0): the first data row sets the width,
    and no other row is checked. A bad or ragged row `row` raises the
    DataError `load_dataset` raises for it; a row out of range raises
    IndexError naming the number of data rows."""
    header, raw, label_idx = _data_rows(path, label_column)
    if not 0 <= row < len(raw):
        raise IndexError(f"row {row} out of range for {len(raw)} data rows")
    values, labels = parse_csv_table([raw[row]], label_idx, width=_width(raw[0]), first=row + 1)
    return _dataset(path, header, label_idx, values, labels).rows[0]
