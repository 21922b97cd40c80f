"""Command line interface: fit models, explain factuals, sweep the
plausibility factor and run evaluation campaigns.

Exit codes: 0 success, 2 usage errors, 3 data errors, 4 fit failures,
5 solver failures. Every command writes its full results to files and
returns its exit code and summary; `main` prints that summary as the
single JSON line on standard output, so shell pipelines can branch on the
code and parse the line.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import re
import sys

import numpy as np

from .core import (
    DEFAULT_EPSILON,
    KMEANS,
    CfRequest,
    CfResult,
    ClusterCfError,
    DimensionMismatchError,
    Mask,
    ValidationError,
)
from .evaluate import (
    EvalConfig,
    run_eval,
    sweep_epsilon,
    write_records_csv,
    write_report_json,
)
from .explain import AllTargetsFailedError, explain, explain_best
from .fit import FitConfig, FitError, fit
from .model_io import (
    load_dataset,
    load_dataset_row,
    load_model,
    save_model,
    write_csv,
    write_json,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_FIT = 4
EXIT_SOLVE = 5

_COV_ALIASES = {"full": "full", "diag": "diagonal", "diagonal": "diagonal", "spherical": "spherical"}


class UsageError(Exception):
    pass


def _parse_floats(text: str, what: str) -> list:
    try:
        return [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise UsageError(f"could not parse {what} {text!r} as comma-separated numbers") from None


@contextlib.contextmanager
def _usage_errors():
    """A request or argument that fails its own check is a usage error."""
    try:
        yield
    except (ValidationError, DimensionMismatchError) as exc:
        raise UsageError(str(exc)) from None


def _parse_mask(text: "str | None") -> "Mask | None":
    """The mask of `--mask`; its width is checked with the request."""
    with _usage_errors():
        return None if text is None else Mask.from_string(text)


def _load_factual(args) -> np.ndarray:
    """The factual of `--factual`, or the one row of `--factual-row` that is
    read and checked, without the `--label-col` column."""
    if args.factual is not None:
        if args.label_col is not None:
            raise UsageError("--label-col applies only to --factual-row")
        return np.asarray(_parse_floats(args.factual, "--factual"), dtype=np.float64)
    row_text, data_path = args.factual_row
    try:
        row = int(row_text)
    except ValueError:
        raise UsageError(f"--factual-row index {row_text!r} is not an integer") from None
    try:
        return load_dataset_row(data_path, row, label_column=args.label_col)
    except IndexError as exc:
        raise UsageError(f"--factual-row: {exc}") from None


def _load_query(args):
    """The model, factual and mask of an `explain` or `sweep` call."""
    return load_model(args.model), _load_factual(args), _parse_mask(args.mask)


def _result_dict(result: CfResult, epsilon: float, mask: "Mask | None") -> dict:
    return {
        "status": result.status,
        "source": result.source,
        "target": result.target,
        "epsilon": epsilon,
        "mask": [int(b) for b in mask.bits] if mask is not None else None,
        "counterfactual": (
            None if result.counterfactual_original is None else result.counterfactual_original.tolist()
        ),
        "counterfactual_internal": (
            None if result.counterfactual is None else result.counterfactual.tolist()
        ),
        "distance_sq": result.distance_sq,
        "lambda": result.lam,
        "residual": result.residual,
        "strict_member": result.strict_member,
        "tolerant_member": result.tolerant_member,
        "elapsed": result.elapsed,
        "diagnostics": result.diagnostics,
    }


def _file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Commands


def cmd_fit(args) -> "tuple[int, dict]":
    if args.k < 2:
        raise UsageError("--k must be at least 2 (counterfactuals need a cluster pair)")
    with _usage_errors():
        config = FitConfig(
            algorithm=args.algo,
            covariance=_COV_ALIASES[args.cov],
            n_clusters=args.k,
            max_iter=args.max_iter,
            rel_tol=args.rel_tol,
            seed=args.seed,
            restarts=args.restarts,
            standardize=not args.no_standardize,
        )
    data = load_dataset(args.data, label_column=args.label_col)
    model, info = fit(data, config)
    provenance = {
        **dataclasses.asdict(config),
        "dataset": {
            "path": os.path.basename(str(args.data)),
            "sha256": _file_sha256(args.data),
            "rows": data.n,
            "features": data.d,
        },
    }
    save_model(model, args.output, provenance=provenance)
    objective_key = "inertia" if config.algorithm == KMEANS else "log_likelihood"
    return EXIT_OK, {
        "algorithm": config.algorithm,
        objective_key: info.objective,
        "iterations": info.iterations,
        "model": str(args.output),
    }


def cmd_explain(args) -> "tuple[int, dict]":
    model, y, mask = _load_query(args)
    if args.target == "best":
        try:
            with _usage_errors():
                result = explain_best(model, y, mask=mask, epsilon=args.epsilon, source=args.source)
        except AllTargetsFailedError as exc:
            result = None
            out = {"status": "all_targets_failed", "source": exc.source, "statuses": exc.statuses,
                   "target": None, "epsilon": args.epsilon, "distance_sq": None,
                   "counterfactual": None}
        else:
            out = _result_dict(result, args.epsilon, mask)
            out["chosen_target"] = result.target
    else:
        try:
            target = int(args.target)
        except ValueError:
            raise UsageError(f"--target must be an integer or 'best', got {args.target!r}") from None
        with _usage_errors():
            request = CfRequest(
                factual=y, target=target, source=args.source, mask=mask, epsilon=args.epsilon
            )
            result = explain(model, request)
        out = _result_dict(result, args.epsilon, mask)
    out["factual"] = y.tolist()
    write_json(out, args.output)
    code = EXIT_OK if result is not None and result.solved else EXIT_SOLVE
    return code, {
        "status": out["status"],
        "target": out["target"],
        "distance_sq": out["distance_sq"],
        "output": str(args.output),
    }


def cmd_sweep(args) -> "tuple[int, dict]":
    model, y, mask = _load_query(args)
    epsilons = _parse_floats(args.epsilons, "--epsilons")
    with _usage_errors():
        points = sweep_epsilon(model, y, args.target, mask, epsilons, source=args.source)

    results_path = f"{args.output}.results.json"
    deltas_path = f"{args.output}.deltas.csv"
    out = []
    for p in points:
        entry = _result_dict(p.result, p.epsilon, mask)
        entry["deltas"] = p.deltas
        out.append(entry)
    write_json({"factual": y.tolist(), "points": out}, results_path)
    write_csv(
        deltas_path,
        ["epsilon", "status", "distance_sq"] + [f"delta_{i}" for i in range(model.d)],
        ([p.epsilon, p.result.status, p.result.distance_sq] + (p.deltas or [None] * model.d)
         for p in points),
    )
    n_solved = sum(1 for p in points if p.result.solved)
    code = EXIT_OK if n_solved else EXIT_SOLVE
    return code, {
        "points": len(points),
        "solved": n_solved,
        "results": results_path,
        "deltas": deltas_path,
    }


def cmd_eval(args) -> "tuple[int, dict]":
    model = load_model(args.model)
    mask = _parse_mask(args.mask)
    baselines = []
    for spec_text in args.baseline or []:
        name, sep, path = spec_text.partition("=")
        if not sep or not name or not path:
            raise UsageError(f"--baseline expects NAME=PATH, got {spec_text!r}")
        baselines.append((name, path))
    with _usage_errors():
        config = EvalConfig(
            source=args.source,
            target=args.target,
            n_factuals=args.n,
            seed=args.seed,
            epsilon=args.epsilon,
            mask=mask,
            external_baselines=tuple(baselines),
        )
        config.validate_against(model)
    data = load_dataset(args.data, label_column=args.label_col)
    report = run_eval(model, data, config)

    report_path = f"{args.output}.report.json"
    records_path = f"{args.output}.records.csv"
    write_report_json(report, report_path)
    write_records_csv(report, records_path)
    return EXIT_OK, {
        "n": report.n_evaluated,
        "success_strict": report.aggregates["success_strict"],
        "success_tolerant": report.aggregates["success_tolerant"],
        "report": report_path,
        "records": records_path,
    }


# ---------------------------------------------------------------------------
# Parser


def _query_parser(sub, name: str, summary: str) -> argparse.ArgumentParser:
    """The `explain` or `sweep` parser with the options they share: the
    model, the factual (`_load_query` reads them) and the source."""
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("--model", required=True)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--factual-row", nargs=2, metavar=("ROW", "DATA"))
    group.add_argument("--factual", help="comma-separated feature values")
    parser.add_argument("--label-col", default=None, metavar="NAME",
                        help="a header column of the --factual-row file to drop")
    parser.add_argument("--source", type=int, default=None)
    parser.add_argument("--mask", default=None, help="comma-separated 0/1 bits")
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: `parse_args` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="clustercf",
        description="Minimum-distance counterfactual explanations for clustering models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a clustering model and write a model file")
    p_fit.add_argument("--algo", required=True, choices=("kmeans", "gmm"))
    p_fit.add_argument("--cov", default=FitConfig.covariance, choices=("full", "diag", "spherical"))
    p_fit.add_argument("--k", required=True, type=int, help="number of clusters")
    p_fit.add_argument("--seed", type=int, default=FitConfig.seed)
    p_fit.add_argument("--restarts", type=int, default=FitConfig.restarts)
    p_fit.add_argument("--max-iter", type=int, default=FitConfig.max_iter)
    p_fit.add_argument("--rel-tol", type=float, default=FitConfig.rel_tol)
    p_fit.add_argument("--no-standardize", action="store_true")
    p_fit.add_argument("--label-col", default=None)
    p_fit.add_argument("data", metavar="DATA")
    p_fit.add_argument("-o", "--output", required=True, metavar="MODEL")
    p_fit.set_defaults(handler=cmd_fit)

    p_explain = _query_parser(sub, "explain", "compute one counterfactual")
    p_explain.add_argument("--target", required=True, help="target cluster id or 'best'")
    p_explain.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_explain.add_argument("-o", "--output", required=True, metavar="OUT.json")
    p_explain.set_defaults(handler=cmd_explain)

    p_sweep = _query_parser(sub, "sweep", "counterfactuals over a plausibility grid")
    p_sweep.add_argument("--target", required=True, type=int)
    p_sweep.add_argument("--epsilons", required=True, help="comma-separated ascending values")
    p_sweep.add_argument("-o", "--output", required=True, metavar="PREFIX")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_eval = sub.add_parser("eval", help="sample factuals and report distances/success/timing")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--n", type=int, default=EvalConfig.n_factuals)
    p_eval.add_argument("--seed", type=int, default=EvalConfig.seed)
    p_eval.add_argument("--source", required=True, type=int)
    p_eval.add_argument("--target", required=True, type=int)
    p_eval.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_eval.add_argument("--mask", default=None, help="comma-separated 0/1 bits")
    p_eval.add_argument("--label-col", default=None)
    p_eval.add_argument("--baseline", action="append", metavar="NAME=PATH")
    p_eval.add_argument("data", metavar="DATA")
    p_eval.add_argument("-o", "--output", required=True, metavar="PREFIX")
    p_eval.set_defaults(handler=cmd_eval)

    return parser


# A separate argument that starts like a negative number.
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_factual_values(argv) -> list:
    """`--factual -0.5,0.1` as `--factual=-0.5,0.1`: argparse takes a
    separate argument that starts with '-' for an option unless the whole
    argument is one negative number."""
    out = []
    for arg in argv:
        if out and out[-1] == "--factual" and _NEGATIVE_VALUE.match(arg):
            out[-1] = f"--factual={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_factual_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        code, summary = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (ClusterCfError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    print(json.dumps({"command": args.command, **summary}))
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
