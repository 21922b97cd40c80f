"""Minimum-distance counterfactual explanations for clustering models.

Given a fitted clustering (k-means centers or Gaussian components), a
factual point, a target cluster, a per-feature actionability mask and a
plausibility factor, one pair solve returns the closest point on the
(source, target) pair's boundary shifted into the target: a
single-scalar root-find for Gaussian cluster pairs, whose affine case (a
pair of k-means centers, the identity-precision pair, or two Gaussians
with equal precisions) is a closed-form projection onto a hyperplane.
"""

from .core import (
    DIAGONAL,
    FULL,
    GAUSSIAN,
    KMEANS,
    SPHERICAL,
    STATUS_DEGENERATE_IDENTITY,
    STATUS_NO_FEASIBLE_SOLUTION,
    STATUS_NO_ROOT_FOUND,
    STATUS_OK,
    CfRequest,
    CfResult,
    ClusterCfError,
    ClusterModel,
    CovarianceSpec,
    DimensionMismatchError,
    GaussianComponent,
    Mask,
    Standardization,
    ValidationError,
    assign_cluster,
    distance_sq,
    log_density,
    score_matrix,
)
from .evaluate import (
    EvalConfig,
    EvalReport,
    attach_baselines,
    compute_aggregates,
    export_baseline_csv,
    ingest_baseline,
    read_report_json,
    run_eval,
    sweep_epsilon,
    write_records_csv,
    write_report_json,
)
from .explain import (
    AllTargetsFailedError,
    SourceMismatchWarning,
    explain,
    explain_best,
    explain_many,
    plausibility_check,
)
from .fit import (
    Dataset,
    FitConfig,
    FitError,
    fit,
    priors_policy,
)
from .model_io import (
    DataError,
    load_dataset,
    load_model,
    load_model_with_provenance,
    save_model,
)

__version__ = "0.1.0"

__all__ = [
    "AllTargetsFailedError",
    "CfRequest",
    "CfResult",
    "ClusterCfError",
    "ClusterModel",
    "CovarianceSpec",
    "DataError",
    "Dataset",
    "DimensionMismatchError",
    "EvalConfig",
    "EvalReport",
    "FitConfig",
    "FitError",
    "GaussianComponent",
    "Mask",
    "SourceMismatchWarning",
    "Standardization",
    "ValidationError",
    "assign_cluster",
    "attach_baselines",
    "compute_aggregates",
    "distance_sq",
    "explain",
    "explain_best",
    "explain_many",
    "export_baseline_csv",
    "fit",
    "ingest_baseline",
    "load_dataset",
    "load_model",
    "load_model_with_provenance",
    "log_density",
    "plausibility_check",
    "priors_policy",
    "read_report_json",
    "run_eval",
    "save_model",
    "score_matrix",
    "sweep_epsilon",
    "write_records_csv",
    "write_report_json",
]
