"""Graph coclustering with exact Bayesian model selection.

Fits piecewise-constant edge-density models to directed multigraphs by
simultaneously partitioning source and target vertices, selecting the
granularity that minimizes an exact negative-log-posterior criterion.
"""

__version__ = "0.1.0"

from .combinatorics import log_binomial, log_factorial, log_partition_count
from .density import (
    DensityEstimate,
    MetricsReport,
    baseline_estimator,
    estimate_density,
    information_metrics,
    modl_mi_estimate,
    modularity,
)
from .graph import EdgeListError, MultigraphSample, parse_edge_list
from .hierarchy import Dendrogram, MergeRecord, build_dendrogram, cut
from .model import (
    Coclustering,
    CriterionBreakdown,
    ModelError,
    NEW_CLUSTER,
    from_partitions,
    maximal_model,
    null_model,
)
from .optimizer import FitConfig, FitResult, gbum, initial_solution, post_optimize, vns_fit
from .synthgen import (
    GeneratorError,
    GeneratorSpec,
    gen_block_diagonal,
    gen_blockmodel,
    gen_circular,
    gen_undirected_pattern,
)

__all__ = [
    "__version__",
    "log_factorial",
    "log_binomial",
    "log_partition_count",
    "EdgeListError",
    "MultigraphSample",
    "parse_edge_list",
    "ModelError",
    "Coclustering",
    "CriterionBreakdown",
    "NEW_CLUSTER",
    "from_partitions",
    "null_model",
    "maximal_model",
    "FitConfig",
    "FitResult",
    "initial_solution",
    "gbum",
    "post_optimize",
    "vns_fit",
    "DensityEstimate",
    "MetricsReport",
    "estimate_density",
    "baseline_estimator",
    "information_metrics",
    "modularity",
    "modl_mi_estimate",
    "MergeRecord",
    "Dendrogram",
    "build_dendrogram",
    "cut",
    "GeneratorError",
    "GeneratorSpec",
    "gen_circular",
    "gen_block_diagonal",
    "gen_blockmodel",
    "gen_undirected_pattern",
]
