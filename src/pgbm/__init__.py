"""Probabilistic gradient boosting with stochastic leaf weights.

Trees carry per-leaf (mean, variance) statistics of their weight
estimate; predictions accumulate those moments across the ensemble with
a tree-correlation term, and any of nine output distributions can be
moment-matched and sampled after training.
"""

from __future__ import annotations

from . import errors
from .boost import (
    BoostConfig,
    Ensemble,
    PredictiveMoments,
    accumulate_moments,
    default_rho,
    predict_moments,
    predict_moments_by_rho,
    train,
    tree_contributions,
)
from .data import (
    BinEdges,
    BinnedDataset,
    RawDataset,
    apply_bins,
    compute_bin_edges,
    load_csv,
)
from .dist import FAMILIES, DistSpec, SampleMatrix, match_params, sample
from .loss import (
    GradHess,
    HierarchyLevel,
    HierarchySpec,
    hier_wmse_gradhess,
    hier_wmse_loss,
    load_hierarchy,
    mse_gradhess,
    numeric_gradhess,
    parse_hierarchy,
)
from .metrics import (
    MetricReport,
    crps_empirical,
    crps_empirical_rows,
    crps_normal,
    hierarchical_report,
    report_rows,
    rmse,
)
from .model_io import load, save
# find_best_split is exported only because the benchmark's own tests
# (benchmarks/test_bench_logic.py) check that the tracer wraps it under
# this name too; the other grower internals stay in pgbm.tree.
from .tree import Tree, TreeConfig, find_best_split

__version__ = "0.1.0"

__all__ = [
    "BinEdges",
    "BinnedDataset",
    "BoostConfig",
    "DistSpec",
    "Ensemble",
    "FAMILIES",
    "GradHess",
    "HierarchyLevel",
    "HierarchySpec",
    "MetricReport",
    "PredictiveMoments",
    "RawDataset",
    "SampleMatrix",
    "Tree",
    "TreeConfig",
    "accumulate_moments",
    "apply_bins",
    "compute_bin_edges",
    "crps_empirical",
    "crps_empirical_rows",
    "crps_normal",
    "default_rho",
    "errors",
    "find_best_split",
    "hier_wmse_gradhess",
    "hier_wmse_loss",
    "hierarchical_report",
    "load",
    "load_csv",
    "load_hierarchy",
    "match_params",
    "mse_gradhess",
    "numeric_gradhess",
    "parse_hierarchy",
    "predict_moments",
    "predict_moments_by_rho",
    "report_rows",
    "rmse",
    "sample",
    "save",
    "train",
    "tree_contributions",
    "__version__",
]
