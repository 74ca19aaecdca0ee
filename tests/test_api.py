"""The public names of the package."""

from __future__ import annotations

import pathlib

import pgbm

PUBLIC = {
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
    # The only grower internal exported: benchmarks/test_bench_logic.py
    # checks that the tracer also wraps it under this name.
    "find_best_split",
    "hier_wmse_gradhess",
    "hier_wmse_loss",
    "hierarchical_report",
    "leaf_stats",
    "load",
    "load_csv",
    "load_hierarchy",
    "match_params",
    "mse_gradhess",
    "numeric_gradhess",
    "parse_hierarchy",
    "predict_moments",
    "report_rows",
    "rmse",
    "sample",
    "save",
    "train",
    "tree_contributions",
    "__version__",
}


def test_all_is_the_pinned_public_api():
    assert len(pgbm.__all__) == len(set(pgbm.__all__))
    assert set(pgbm.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(pgbm, name) is not None


def test_no_elementwise_python_calls_through_frompyfunc():
    # np.frompyfunc makes one Python call per array element; the package
    # keeps its elementwise work in numpy.
    package = pathlib.Path(pgbm.__file__).parent
    users = [path.name for path in sorted(package.glob("**/*.py")) if "frompyfunc" in path.read_text()]
    assert users == []
