"""Random tiny train -> predict -> evaluate -> sweep pipelines through the
command line, with extreme cells and configs at their bounds.

Every command ends in one of two ways. Either it exits 0, prints only
finite numbers, writes its output file, and a model that train saved
loads. Or it exits 2 or 3 with exactly one ``error:`` line and writes
no output file. A traceback fails the test, and so does a numpy warning:
pytest turns warnings into errors here.
"""

from __future__ import annotations

import contextlib
import io
import re
import tempfile
from collections.abc import Callable
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgbm import FAMILIES, dist
from pgbm.cli import main
from pgbm.model_io import load as load_model

from conftest import use_workers

NOT_FINITE = re.compile(r"\b(?:inf|nan)\b", re.IGNORECASE)

SMALL = st.floats(-10.0, 10.0, allow_subnormal=False)
MILD = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e-310]) | SMALL
EXTREME = st.sampled_from([1e300, -1e300, 1.7e308, -1.7e308]) | MILD


@st.composite
def tables(draw, n_rows: int, n_features: int) -> str:
    """CSV text with features x0.. and target y. The features of about
    half the tables and the targets of a third hold cells of +-1e300 and
    +-1.7e308, near the float64 maximum; a target's overflows the sums
    of squares that training takes, and two of the largest overflow the
    target mean."""
    features = draw(st.sampled_from([MILD, EXTREME]))
    target = draw(st.sampled_from([MILD, MILD, EXTREME]))
    lines = [",".join([f"x{j}" for j in range(n_features)] + ["y"])]
    for _ in range(n_rows):
        row = [*(draw(features) for _ in range(n_features)), draw(target)]
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def hierarchy(rows: int, groups: int, weight: float) -> str:
    """An identity level and a level of ``groups`` strided groups of rows."""
    return "".join(
        ["levels=2\n", "level 0 weight=1 identity\n", f"level 1 weight={weight!r}\n"]
        + [f"group g{k}: {','.join(map(str, range(k, rows, groups)))}\n"
           for k in range(min(groups, rows))]
    )


@st.composite
def pipelines(draw) -> dict:
    """Input files and each command's flags. A flag value that names a
    file (``*.csv``, ``*.txt``) stands for that file in the run's
    directory. Half of the pipelines draw a hierarchy: train's loss uses
    it, and one with the same groups over the test file's rows breaks
    down evaluate's report."""
    n = draw(st.integers(1, 30))
    n_features = draw(st.integers(1, 3))
    train_table = draw(tables(n, n_features))
    n_test = draw(st.integers(1, 30))
    files = {"train.csv": train_table, "test.csv": draw(tables(n_test, n_features))}
    seed = ["--seed", str(draw(st.sampled_from([0, 2**63 - 1])))]
    train = [
        *seed,
        "--n-estimators", str(draw(st.integers(1, 4))),
        "--max-leaves", str(draw(st.integers(1, 64))),
        "--max-bin", str(draw(st.integers(2, 65536))),
        "--min-data-in-leaf", str(draw(st.integers(1, n + 2))),
        "--lambda", repr(draw(st.sampled_from([0.0, 1e-300, 1.0]))),
        "--learning-rate", repr(draw(st.sampled_from([0.1, 1.0, 1e6]) | st.floats(1e-3, 1.0))),
        "--bagging-fraction", repr(draw(st.sampled_from([1.0, 0.5, 1e-9]))),  # 1e-9: one row
        "--feature-fraction", repr(draw(st.sampled_from([1.0, 0.5]))),
    ]
    evaluate = []
    if draw(st.booleans()):
        groups = draw(st.integers(1, 3))
        weight = draw(st.sampled_from([0.0, 1.0, 1e300]))
        files["hierarchy.txt"] = hierarchy(n, groups, weight)
        files["test_hierarchy.txt"] = hierarchy(n_test, groups, weight)
        train += ["--loss", "hierwmse", "--hierarchy", "hierarchy.txt"]
        evaluate += ["--hierarchy", "test_hierarchy.txt"]
    if draw(st.booleans()):
        train += ["--valid", "test.csv", "--valid-metric", draw(st.sampled_from(["rmse", "crps"]))]
        if draw(st.booleans()):
            train += ["--early-stopping-rounds", str(draw(st.integers(1, 3)))]
    point_only = draw(st.booleans())
    predict = [*seed, "--dist", draw(st.sampled_from(FAMILIES)),
               "--n-samples", str(draw(st.integers(1, 4)))]
    predict += ["--point-only"] * point_only + ["--clamp-nonneg"] * draw(st.booleans())
    dists = draw(st.lists(st.sampled_from(FAMILIES), min_size=1, max_size=2, unique=True))
    sweep = [*seed, "--dists", ",".join(dists),
             "--rhos", draw(st.sampled_from(["0", "0,0.5", "-1,1"])),
             "--n-samples", str(draw(st.integers(1, 4)))]
    evaluate += ["--metrics", "rmse" if point_only else "crps,rmse"]
    return {"files": files, "train": train, "predict": predict, "evaluate": evaluate,
            "sweep": sweep}


def run(root: Path, argv: list[str], out: str) -> tuple[int, str, list[str]]:
    """Run one command, with file names made paths under ``root``, and
    check how it ended; ``out`` names its output file. Gives the exit
    code, stdout and stderr's lines."""
    argv = [str(root / arg) if arg.endswith((".csv", ".txt")) else arg for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    printed, errors = stdout.getvalue(), stderr.getvalue().splitlines()
    if code == 0:
        assert not NOT_FINITE.search(printed), printed
        assert all(line.startswith("warning: ") for line in errors), errors
        assert not NOT_FINITE.search((root / out).read_text(encoding="utf-8"))
    else:
        assert code in (2, 3), (code, errors)
        assert len(errors) == 1 and errors[0].startswith("error: "), errors
        assert not (root / out).exists()
    return code, printed, errors


def run_pipeline(pipeline: dict, workers: Callable[[int], None] | None = None) -> None:
    """Run the pipeline; given ``workers``, which sets the number of
    workers, predict runs in two and again in one, with the same outcome
    and bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in pipeline["files"].items():
            (root / name).write_text(text, encoding="utf-8")
        train = ["train", "--data", "train.csv", "--target", "y", "--model-out", "model.txt"]
        if run(root, [*train, *pipeline["train"]], "model.txt")[0] != 0:
            return
        load_model(root / "model.txt")
        model_and_data = ["--model", "model.txt", "--data", "test.csv"]
        predict = ["predict", *model_and_data, "--out", "pred.csv", *pipeline["predict"]]
        outcome = run(root, predict, "pred.csv")
        if workers is not None and outcome[0] == 0:
            written = (root / "pred.csv").read_bytes()
            workers(1)
            assert run(root, predict, "pred.csv") == outcome
            assert (root / "pred.csv").read_bytes() == written
            workers(2)
        if outcome[0] == 0:
            evaluate = ["evaluate", "--pred", "pred.csv", "--actual", "test.csv", "--target", "y",
                        "--out", "report.csv", *pipeline["evaluate"]]
            run(root, evaluate, "report.csv")
        run(root, ["sweep", *model_and_data, "--out", "grid.csv", *pipeline["sweep"]], "grid.csv")


@settings(max_examples=150)
@given(pipelines())
def test_pipeline(pipeline):
    run_pipeline(pipeline)


@settings(max_examples=50)
@given(pipelines())
def test_pipeline_in_shares(pipeline):
    """The same, with every read, predict's writer and its draws, and sweep
    split over two forked workers: blocks of draws hold two rows, so
    predict writes a test file of three rows or more in two shares.
    Predict's outcome and bytes are those of one process."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(dist, "_BLOCK_ROWS", 2)
        use_workers(monkeypatch, 2)
        run_pipeline(pipeline, lambda n: use_workers(monkeypatch, n))
