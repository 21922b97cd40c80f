"""Evaluation harness: sample factuals from a source cluster, generate
counterfactuals, record distances / membership / timing, ingest external
baseline counterfactuals from CSV and emit comparable reports.

Reports serialize to JSON (schema version 1) plus a flat per-factual CSV.
Distance aggregates cover the records with a tolerant target-membership
verdict; timing aggregates cover every record. Solve times come from the
monotonic clock around each solve and exclude model loading and I/O.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_EPSILON,
    CfRequest,
    CfResult,
    ClusterCfError,
    ClusterModel,
    Mask,
    ValidationError,
    as_int,
    check_epsilon,
    check_query,
    score_matrix,
)
from .explain import _explain_rows, membership_verdict
from .fit import Dataset
from .model_io import DataError, parse_csv_table, read_csv_table, read_json, write_csv, write_json

REPORT_SCHEMA_VERSION = 1
RNG_ALGORITHM = "PCG64"
SAMPLING = "without_replacement"


def _check_baseline_names(baselines) -> None:
    """Each (name, path) pair's name keys its own comparison column beside
    our results' `ours`, so neither `ours` nor a repeated name is taken."""
    names = [name for name, _ in baselines]
    for i, name in enumerate(names):
        if name == "ours" or name in names[:i]:
            why = "names our own results" if name == "ours" else "is repeated"
            raise ValidationError("external_baselines", f"baseline name {name!r} {why}")


@dataclass(frozen=True, eq=False)
class EvalConfig:
    source: int
    target: int
    n_factuals: int = 50
    seed: int = 0
    epsilon: float = DEFAULT_EPSILON
    mask: "Mask | None" = None
    external_baselines: "tuple" = ()  # (name, csv_path) pairs

    def __post_init__(self):
        for name in ("source", "target", "n_factuals", "seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name=name))
        if self.n_factuals < 1:
            raise ValidationError("n_factuals", "must be >= 1")
        if self.source == self.target:
            raise ValidationError("target", "source and target clusters must differ")
        object.__setattr__(self, "epsilon", check_epsilon(self.epsilon))
        object.__setattr__(self, "external_baselines", tuple(self.external_baselines))
        _check_baseline_names(self.external_baselines)

    def validate_against(self, model: ClusterModel) -> Mask:
        """Check the cluster ids, then the mask's width, against the model
        and return the mask (all free when the config has none)."""
        model.check_cluster(self.source, "source")
        return check_query(model, self.target, self.source, self.mask)


@dataclass
class FactualRecord:
    factual_id: int
    status: str
    strict_member: bool
    tolerant_member: bool
    distance_sq: "float | None"
    lam: "float | None"
    residual: "float | None"
    elapsed: float
    factual: "list[float]"
    counterfactual: "list[float] | None"


@dataclass
class BaselineRecord:
    factual_id: int
    counterfactual: "list[float]"
    distance_sq: float
    member_strict: bool
    member_tolerant: bool


@dataclass
class EvalReport:
    schema_version: int
    model_kind: str
    d: int
    source: int
    target: int
    epsilon: float
    mask_bits: "list[int]"
    seed: int
    rng_algorithm: str
    sampling: str
    n_requested: int
    n_evaluated: int
    records: "list[FactualRecord]"
    aggregates: dict
    baselines: "dict[str, list[BaselineRecord]]" = field(default_factory=dict)
    comparison: "dict | None" = None


def _percentile(ordered: "list[float]", q: float) -> float:
    """`np.percentile(values, q)` of `ordered`, the values (no NaN) sorted
    ascending, with numpy's bits: its default linear rule interpolates
    between the two values around (n - 1) q / 100, and at the top takes
    the last value twice."""
    top = len(ordered) - 1
    virtual = top * (q / 100)
    i = math.floor(virtual) if virtual < top else -1
    a = ordered[i]
    b = ordered[i + 1] if i >= 0 else a
    t = virtual - i
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def compute_aggregates(records) -> dict:
    """Summary statistics recomputable exactly from the records. Each
    column is sorted once for its order statistics; the means are numpy's."""
    n = len(records)
    strict = sum(1 for r in records if r.strict_member) / n
    tolerant = sum(1 for r in records if r.tolerant_member) / n
    dists = [float(r.distance_sq) for r in records if r.tolerant_member]
    distance = None
    if dists:
        ordered = sorted(dists)
        distance = {
            "min": ordered[0],
            "q1": _percentile(ordered, 25),
            "median": _percentile(ordered, 50),
            "q3": _percentile(ordered, 75),
            "max": ordered[-1],
            "mean": float(np.asarray(dists).mean()),
        }
    elapsed = [float(r.elapsed) for r in records]
    return {
        "n": n,
        "success_strict": strict,
        "success_tolerant": tolerant,
        "distance": distance,
        "elapsed": {"mean": float(np.asarray(elapsed).mean()),
                    "median": _percentile(sorted(elapsed), 50)},
    }


def run_eval(model: ClusterModel, data: Dataset, config: EvalConfig) -> EvalReport:
    """Sample factuals from the source cluster (without replacement, seeded)
    and explain them toward the target cluster in one pass of the solver
    core behind `explain_many`, which shares one pair plan among them.
    The config's cluster ids and mask width, then the width of `data`,
    are checked against the model before any row is mapped or solved;
    the dataset's rows and the config's fields were checked when they
    were built, so the factuals go to the solver as one block of rows."""
    mask = config.validate_against(model)
    rows = data.rows
    model.check_rows(rows)
    # A row far enough out overflows its map or scores, as in
    # `explain_many`; a row without a finite score is in no cluster and
    # is never sampled.
    with np.errstate(over="ignore", invalid="ignore"):
        scores = score_matrix(model, np.asarray(model.to_internal(rows), dtype=np.float64))
    finite = np.isfinite(scores)
    labels = np.argmax(np.where(finite, scores, -np.inf), axis=1)
    source_rows = np.flatnonzero((labels == config.source) & finite.any(axis=1))
    if source_rows.size == 0:
        raise ClusterCfError(f"source cluster {config.source} is empty in this dataset")
    n = min(config.n_factuals, int(source_rows.size))
    if n < config.n_factuals:
        warnings.warn(
            f"source cluster has only {source_rows.size} rows; using all of them",
            stacklevel=2,
        )
    rng = np.random.default_rng(config.seed)
    chosen = np.sort(rng.choice(source_rows, size=n, replace=False))
    factuals = rows[chosen]
    results = _explain_rows(model, factuals, [config.source] * n, [config.target] * n,
                            [mask] * n, [config.epsilon] * n)
    records = [
        FactualRecord(
            factual_id=row_id,
            status=result.status,
            strict_member=bool(result.strict_member),
            tolerant_member=bool(result.tolerant_member),
            distance_sq=result.distance_sq,
            lam=result.lam,
            residual=result.residual,
            elapsed=result.elapsed,
            factual=factual,
            counterfactual=(
                result.counterfactual_original.tolist()
                if result.counterfactual_original is not None
                else None
            ),
        )
        for row_id, factual, result in zip(chosen.tolist(), factuals.tolist(), results)
    ]

    report = EvalReport(
        schema_version=REPORT_SCHEMA_VERSION,
        model_kind=model.kind,
        d=model.d,
        source=config.source,
        target=config.target,
        epsilon=config.epsilon,
        mask_bits=[int(b) for b in mask.bits],
        seed=config.seed,
        rng_algorithm=RNG_ALGORITHM,
        sampling=SAMPLING,
        n_requested=config.n_factuals,
        n_evaluated=n,
        records=records,
        aggregates=compute_aggregates(records),
    )
    if config.external_baselines:
        report = attach_baselines(report, model, config.external_baselines)
    return report


def ingest_baseline(path, name: str, model: ClusterModel, factuals: dict, target: int):
    """Read counterfactuals produced by an external method.

    Expected CSV: a header starting with `factual_id` followed by exactly
    d feature columns, vectors in original units, read by the dataset
    rules (`read_csv_table`); a header-only file gives no records. Each id
    is an integer key of `factuals` and appears once. Membership and
    distance are judged with this package's assignment rule and metric so
    that all methods are compared on identical footing.
    """
    target = as_int(target, name="target")
    model.check_cluster(target, "target")
    header, raw = read_csv_table(path, "baseline")
    if header is None or header[0] != "factual_id":
        raise DataError(f"baseline {path}: first header column must be 'factual_id'")
    if len(header) - 1 != model.d:
        raise DataError(
            f"baseline {path}: expected {model.d} feature columns, got {len(header) - 1}"
        )
    if not raw:
        return []
    try:
        vectors, id_cells = parse_csv_table(raw, 0)
    except DataError as exc:
        raise DataError(f"baseline {path}: {exc}") from None
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.shape[1] != model.d:
        raise DataError(f"baseline {path}: the header has {model.d + 1} cells, "
                        f"the rows {vectors.shape[1] + 1}")
    ids, seen = [], set()
    for r, cell in enumerate(id_cells, start=1):
        try:
            factual_id = int(cell)
        except ValueError:
            raise DataError(f"baseline {path}: bad factual_id {cell!r} at row {r}") from None
        if factual_id not in factuals:
            raise DataError(f"baseline {path}: unknown factual_id {factual_id} at row {r}")
        if factual_id in seen:
            raise DataError(f"baseline {path}: duplicate factual_id {factual_id} at row {r}")
        seen.add(factual_id)
        ids.append(factual_id)
    z_internal = np.asarray(model.to_internal(vectors), dtype=np.float64)
    y_internal = np.asarray(
        model.to_internal(np.stack([np.asarray(factuals[i], dtype=np.float64) for i in ids])),
        dtype=np.float64,
    )
    strict, tolerant = membership_verdict(model, z_internal, [target] * len(ids))
    dz = z_internal - y_internal
    distances = np.vecdot(dz, dz).tolist()
    records = [
        BaselineRecord(
            factual_id=factual_id,
            counterfactual=vec,
            distance_sq=distances[j],
            member_strict=strict[j],
            member_tolerant=tolerant[j],
        )
        for j, (factual_id, vec) in enumerate(zip(ids, vectors.tolist()))
    ]
    records.sort(key=lambda rec: rec.factual_id)
    return records


def attach_baselines(report: EvalReport, model: ClusterModel, baselines) -> EvalReport:
    """Ingest (name, path) pairs and add the common-success comparison block.

    Only factuals for which our method and every baseline landed in the
    target cluster enter the comparison, so the distance columns are
    paired across methods.
    """
    baselines = tuple(baselines)
    _check_baseline_names(baselines)
    factuals = {r.factual_id: np.asarray(r.factual) for r in report.records}
    tables = {}
    for name, path in baselines:
        tables[name] = ingest_baseline(path, name, model, factuals, report.target)
    ours_ok = {r.factual_id for r in report.records if r.tolerant_member}
    common = sorted(
        set.intersection(
            ours_ok,
            *({rec.factual_id for rec in recs if rec.member_tolerant} for recs in tables.values()),
        )
    )
    ours_by_id = {r.factual_id: r for r in report.records}
    distances = {"ours": [ours_by_id[i].distance_sq for i in common]}
    for name, recs in tables.items():
        by_id = {rec.factual_id: rec for rec in recs}
        distances[name] = [by_id[i].distance_sq for i in common]
    report.baselines = tables
    report.comparison = {"factual_ids": common, "distances": distances}
    return report


# ---------------------------------------------------------------------------
# Epsilon sweeps


@dataclass
class SweepPoint:
    epsilon: float
    result: CfResult
    deltas: "list[float] | None"


def sweep_epsilon(
    model: ClusterModel,
    y,
    target: int,
    mask: "Mask | None",
    epsilons,
    source: "int | None" = None,
):
    """One counterfactual per plausibility value, with the per-feature
    signed changes `z - y` in original units. The factual, target,
    source and mask are checked once, as the first value's request, and
    every value is checked before the first solve; the values then go to
    the solver core behind `explain_many` as one factual row each, and
    share one pair plan. Solver failures at one epsilon do not stop the
    sweep."""
    y_arr = np.asarray(y, dtype=np.float64)
    values = list(epsilons)
    if not values:
        raise ValidationError("epsilons", "need at least one value")
    first = CfRequest(factual=y_arr, target=target, source=source, mask=mask, epsilon=values[0])
    eps_list = [first.epsilon] + [check_epsilon(eps) for eps in values[1:]]
    if eps_list != sorted(eps_list):
        raise ValidationError("epsilons", "values must be sorted ascending")
    mask = first.validate_against(model)
    n = len(eps_list)
    results = _explain_rows(model, first.factual[None, :], [first.source] * n,
                            [first.target] * n, [mask] * n, eps_list)
    points = []
    for eps, result in zip(eps_list, results):
        deltas = None
        if result.counterfactual_original is not None:
            deltas = (result.counterfactual_original - first.factual).tolist()
        points.append(SweepPoint(epsilon=eps, result=result, deltas=deltas))
    return points


# ---------------------------------------------------------------------------
# Report serialization


def _record_dict(record) -> dict:
    """The fields of a record, with a fresh list for each vector."""
    out = dict(vars(record))
    for key, value in out.items():
        if isinstance(value, list):
            out[key] = list(value)
    return out


def report_to_dict(report: EvalReport) -> dict:
    """The report as a JSON-ready dict that shares no container with it."""
    out = dict(vars(report))
    out["mask_bits"] = list(report.mask_bits)
    out["records"] = [_record_dict(r) for r in report.records]
    out["aggregates"] = copy.deepcopy(report.aggregates)
    out["baselines"] = {name: [_record_dict(r) for r in recs]
                        for name, recs in report.baselines.items()}
    out["comparison"] = copy.deepcopy(report.comparison)
    return out


def _build(cls, obj, path: str):
    """cls(**obj) for a dataclass `cls`; DataError naming `path` and the
    field when obj is not an object, has an unknown field or lacks one."""
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected an object")
    try:
        return cls(**obj)
    except TypeError as exc:
        raise DataError(f"{path}: {exc}") from None


def _records(cls, values, path: str) -> list:
    if not isinstance(values, list):
        raise DataError(f"{path}: expected an array")
    return [_build(cls, v, f"{path}[{i}]") for i, v in enumerate(values)]


def report_from_dict(obj: dict) -> EvalReport:
    if not isinstance(obj, dict):
        raise DataError("report: expected an object")
    if obj.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise DataError(f"unsupported report schema_version {obj.get('schema_version')!r}")
    baselines = obj.get("baselines", {})
    if not isinstance(baselines, dict):
        raise DataError("baselines: expected an object")
    return _build(EvalReport, {
        **obj,
        "records": _records(FactualRecord, obj.get("records"), "records"),
        "baselines": {name: _records(BaselineRecord, recs, f"baselines.{name}")
                      for name, recs in baselines.items()},
    }, "report")


def write_report_json(report: EvalReport, path) -> None:
    write_json(report_to_dict(report), path)


def read_report_json(path) -> EvalReport:
    return report_from_dict(read_json(path, "report"))


def write_records_csv(report: EvalReport, path) -> None:
    """Flat per-factual table; counterfactual feature columns are empty for
    unsolved records."""
    write_csv(
        path,
        ["factual_id", "status", "strict_member", "tolerant_member", "distance_sq",
         "lambda", "residual", "elapsed"] + [f"cf_{i}" for i in range(report.d)],
        ([r.factual_id, r.status, int(r.strict_member), int(r.tolerant_member),
          r.distance_sq, r.lam, r.residual, r.elapsed]
         + (r.counterfactual or [None] * report.d) for r in report.records),
    )


def export_baseline_csv(report: EvalReport, path) -> None:
    """Re-export our counterfactuals in the baseline CSV format, which makes
    round-trip checks and cross-tool comparisons possible."""
    write_csv(
        path,
        ["factual_id"] + [f"f{i}" for i in range(report.d)],
        ([r.factual_id] + r.counterfactual for r in report.records
         if r.counterfactual is not None),
    )
