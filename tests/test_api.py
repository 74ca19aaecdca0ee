"""The public names of the package."""

from __future__ import annotations

import ast
import inspect
import os
import pathlib
import subprocess
import sys

import numpy as np

import pgbm
import pgbm.cli
import pgbm.dist
import pgbm.model_io
import pgbm.tree

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


def test_shares_write_is_called_from_gather_and_predict():
    # Work gathered in memory goes through _shares.gather, which redoes it
    # in one process when a share fails; only predict's writer, whose text
    # streams into its output file, calls _shares.write itself.
    package = pathlib.Path(pgbm.__file__).parent

    def writes(node, module):
        return isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Attribute) and node.func.attr == "write"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "_shares"
            or module == "_shares" and isinstance(node.func, ast.Name) and node.func.id == "write"
        )

    callers = set()
    for path in sorted(package.glob("**/*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(writes(node, path.stem) for node in ast.walk(top)):
                callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {"_shares.gather", "cli._write_predictions"}


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


def modules_after_cli_import(names: tuple[str, ...], module: str = "pgbm.cli") -> list[str]:
    """Those of ``names`` that a fresh `import pgbm.cli` (or ``module``) loads."""
    src = str(pathlib.Path(pgbm.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, {module}; print([m for m in {names!r} if m in sys.modules])"
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


def test_cli_import_loads_no_dataclasses():
    # Building dataclasses runs generated code, once per class, on every
    # command's start-up; the value classes derive from pgbm._value.Value.
    assert modules_after_cli_import(("dataclasses",)) == []


def test_package_import_loads_every_traced_module():
    # benchmarks/tracing.py wraps functions only in the pgbm modules that
    # are already loaded, so loading one lazily would hide its layers.
    traced = tuple(f"pgbm.{name}" for name in
                   ("boost", "data", "dist", "loss", "metrics", "model_io", "tree"))
    assert modules_after_cli_import(traced, module="pgbm") == list(traced)


def test_traced_grower_functions_keep_their_bound_parameters():
    # benchmarks/tracing.py binds each call's arguments by name to count a
    # layer's work: the rows and features of a histogram, the candidates
    # of a split search (through the histogram's ``g``) and the rows
    # routed. A renamed parameter would break only its trace mode.
    bound = {
        "build_histogram": {"indices", "features"},
        "find_best_split": {"hist"},
        "route_many": {"bins"},
    }
    for name, params in bound.items():
        signature = inspect.signature(getattr(pgbm.tree, name))
        assert params <= signature.parameters.keys(), name
    assert isinstance(pgbm.tree.NodeHistogram.g, property)


def test_traced_predict_save_and_sample_keep_their_bound_parameters():
    # benchmarks/tracing.py also binds predict's ``args`` (its output bytes,
    # through ``args.out``), a saved model's ``path`` (its bytes) and a
    # sample call's ``spec`` (its family) and result fields (its draws,
    # rows and fallback rows). A renamed one would break only trace mode.
    bound = {pgbm.cli.cmd_predict: {"args"}, pgbm.model_io.save: {"path"},
             pgbm.dist.sample: {"spec"}}
    for fn, params in bound.items():
        assert params <= inspect.signature(fn).parameters.keys(), fn.__name__
    parser, _ = pgbm.cli._build_parser()
    args = parser.parse_args(["predict", "--model", "m", "--data", "d", "--out", "o"])
    assert args.out == "o"
    moments = pgbm.PredictiveMoments(np.array([1.0, -1.0]), np.array([1.0, 1.0]))
    result = pgbm.dist.sample(moments, pgbm.DistSpec("lognormal"), 3)
    assert (result.samples.size, result.samples.shape[1], result.fallback_rows) == (6, 2, 1)


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    rng = np.random.default_rng(0)
    for name, n in (("train.csv", 200), ("test.csv", 50)):
        x = rng.uniform(-2.0, 2.0, size=(n, 2))
        y = np.sin(x[:, 0]) + 0.5 * x[:, 1] + 0.1 * rng.normal(size=n)
        np.savetxt(tmp_path / name, np.column_stack([x, y]), delimiter=",",
                   header="a,b,y", comments="")
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(block, "README.md", "exec"), names)
    assert len(names["model"].trees) == 200
    assert names["draws"].samples.shape == (500, 50)
    assert 0 < names["crps"] < 1
