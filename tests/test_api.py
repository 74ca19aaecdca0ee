"""The public names of the package."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

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


def test_fork_is_called_from_one_module():
    # predict's writer and load_csv fork their workers through pgbm._shares alone.
    package = pathlib.Path(pgbm.__file__).parent

    def forks(path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return any(
            isinstance(node, ast.Attribute) and node.attr == "fork"
            and isinstance(node.value, ast.Name) and node.value.id == "os"
            for node in ast.walk(tree)
        )

    users = [path.name for path in sorted(package.glob("**/*.py")) if forks(path)]
    assert users == ["_shares.py"]


def test_no_blas_products():
    # A BLAS call wakes OpenBLAS's worker threads, which then spin on the
    # other CPUs between calls; the package's one product is an einsum.
    package = pathlib.Path(pgbm.__file__).parent
    blas = {"dot", "matmul", "vdot", "inner", "tensordot"}

    def products(path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return any(
            isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Attribute) and node.attr in blas
            for node in ast.walk(tree)
        )

    users = [path.name for path in sorted(package.glob("**/*.py")) if products(path)]
    assert users == []


def modules_after_cli_import(names: tuple[str, ...]) -> list[str]:
    """Those of ``names`` that a fresh `import pgbm.cli` loads."""
    src = str(pathlib.Path(pgbm.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, pgbm.cli; print([m for m in {names!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return ast.literal_eval(result.stdout)


def test_cli_import_loads_no_process_pool():
    # A process pool's imports would add to every command's start-up time.
    assert modules_after_cli_import(("multiprocessing", "concurrent.futures")) == []


def test_cli_import_loads_no_formatter():
    # Only predict's writer imports the CSV number formatter, so that its
    # tables add to no other command's start-up time or memory.
    assert modules_after_cli_import(("pgbm._reprs",)) == []
