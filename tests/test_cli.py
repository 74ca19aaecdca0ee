"""End-to-end command-line behavior, in process."""

from __future__ import annotations

import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import pgbm
from pgbm import DistSpec, crps_empirical_rows, load_csv, predict_moments, sample
from pgbm.model_io import load as load_model
from pgbm import _reprs, _shares, cli, errors
from pgbm.cli import main

from conftest import make_regression, use_workers


def write_csv(path, data):
    lines = [",".join(data.feature_names + ["y"])]
    for i in range(data.n):
        cells = [repr(float(v)) for v in data.features[i]]
        cells.append(repr(float(data.target[i])))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def write_reordered(source, path, names):
    """Write the columns of CSV ``source`` named by ``names``, in that
    order, to ``path``; a name may repeat, and `q=x1` is a column q that
    holds column x1."""
    table = load_csv(source, None)
    header, _, _ = zip(*(name.partition("=") for name in names))
    at = [table.feature_names.index(name.rpartition("=")[2]) for name in names]
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in table.features[:, at].tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    train_csv = write_csv(root / "train.csv", make_regression(60, 300, 2))
    test_csv = write_csv(root / "test.csv", make_regression(61, 80, 2))
    model = root / "model.txt"
    code = main(
        [
            "train",
            "--data",
            str(train_csv),
            "--target",
            "y",
            "--model-out",
            str(model),
            "--n-estimators",
            "30",
            "--max-leaves",
            "8",
            "--seed",
            "4",
        ]
    )
    assert code == 0
    return {
        "root": root,
        "train_csv": train_csv,
        "test_csv": test_csv,
        "model": model,
    }


class TestTrain:
    def test_reports_saved_model(self, workspace, capsys, tmp_path):
        out = tmp_path / "m.txt"
        code = main(
            [
                "train",
                "--data",
                str(workspace["train_csv"]),
                "--target",
                "y",
                "--model-out",
                str(out),
                "--n-estimators",
                "3",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert f"saved {out} (3 trees)" in captured.out
        assert out.exists()

    def test_a_flag_left_out_takes_the_class_default(self, workspace, tmp_path):
        config = pgbm.BoostConfig()
        tree = config.tree
        explicit = {
            "--n-estimators": config.n_estimators,
            "--learning-rate": config.learning_rate,
            "--bagging-fraction": config.bagging_fraction,
            "--feature-fraction": config.feature_fraction,
            "--max-leaves": tree.max_leaves,
            "--max-bin": tree.max_bins,
            "--lambda": tree.lam,
            "--min-split-gain": tree.min_split_gain,
            "--min-data-in-leaf": tree.min_data_in_leaf,
            "--rho": config.rho,
            "--seed": config.seed,
        }
        assert config.early_stopping_rounds is None  # no flag spells None
        flags = [str(token) for pair in explicit.items() for token in pair]
        train_csv = str(workspace["train_csv"])
        paths = {name: tmp_path / f"{name}.txt" for name in ("bare", "explicit", "library")}
        for name, extra in (("bare", []), ("explicit", flags)):
            argv = ["train", "--data", train_csv, "--target", "y",
                    "--model-out", str(paths[name]), *extra]
            assert main(argv) == 0
        library = pgbm.train(load_csv(train_csv, "y"), pgbm.mse_gradhess, config)
        pgbm.save(library, paths["library"])
        bare = paths["bare"].read_bytes()
        assert paths["explicit"].read_bytes() == bare
        assert paths["library"].read_bytes() == bare

    def test_validation_progress_lines(self, workspace, capsys, tmp_path):
        out = tmp_path / "m.txt"
        code = main(
            [
                "train",
                "--data",
                str(workspace["train_csv"]),
                "--target",
                "y",
                "--valid",
                str(workspace["test_csv"]),
                "--valid-metric",
                "rmse",
                "--model-out",
                str(out),
                "--n-estimators",
                "5",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "iter 0 rmse " in captured.out
        assert "iter 4 rmse " in captured.out

    @pytest.mark.parametrize("names", [["x1", "y", "x0"], ["x0", "q=x1", "x1", "y"]],
                             ids=["reordered", "extra_column"])
    def test_validation_columns_are_found_by_name(self, workspace, capsys, tmp_path, names):
        """Early stopping on a validation file whose columns are in another
        order, or which holds one more, keeps the trees and prints the
        scores of the file in training order."""
        outcomes = []
        for valid in (workspace["test_csv"],
                      write_reordered(workspace["test_csv"], tmp_path / "valid.csv", names)):
            out = tmp_path / "m.txt"
            argv = ["train", "--data", str(workspace["train_csv"]), "--target", "y",
                    "--valid", str(valid), "--early-stopping-rounds", "3",
                    "--model-out", str(out), "--n-estimators", "60", "--seed", "4"]
            assert main(argv) == 0
            outcomes.append((capsys.readouterr().out.replace(str(valid), "VALID"),
                             out.read_bytes()))
        assert outcomes[0][1].count(b"\ntree ") > 1
        assert outcomes[1] == outcomes[0]

    def test_missing_required_flag(self, workspace, capsys):
        code = main(["train", "--data", str(workspace["train_csv"])])
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_missing_data_file(self, workspace, tmp_path, capsys):
        code = main(
            [
                "train",
                "--data",
                str(tmp_path / "absent.csv"),
                "--target",
                "y",
                "--model-out",
                str(tmp_path / "m.txt"),
            ]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_hierarchical_loss_needs_hierarchy_file(self, workspace, tmp_path, capsys):
        code = main(
            [
                "train",
                "--data",
                str(workspace["train_csv"]),
                "--target",
                "y",
                "--model-out",
                str(tmp_path / "m.txt"),
                "--loss",
                "hierwmse",
            ]
        )
        assert code == 2

    def test_bad_rho_argument(self, workspace, tmp_path, capsys):
        code = main(
            [
                "train",
                "--data",
                str(workspace["train_csv"]),
                "--target",
                "y",
                "--model-out",
                str(tmp_path / "m.txt"),
                "--rho",
                "sideways",
            ]
        )
        assert code == 2

    def test_max_bin_above_cap(self, workspace, tmp_path, capsys):
        code = main(
            [
                "train",
                "--data",
                str(workspace["train_csv"]),
                "--target",
                "y",
                "--model-out",
                str(tmp_path / "m.txt"),
                "--max-bin",
                "70000",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "max_bins" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "flag", ["--lambda", "--min-split-gain", "--learning-rate"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_config_real(self, workspace, tmp_path, capsys, flag, value):
        out = tmp_path / "m.txt"
        code = main(
            [
                "train",
                "--data",
                str(workspace["train_csv"]),
                "--target",
                "y",
                "--model-out",
                str(out),
                "--n-estimators",
                "2",
                flag,
                value,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_overflowing_split_search(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text("x,y\n0,1e160\n1,-1e160\n2,3e160\n3,-2e160\n", encoding="utf-8")
        code = main(
            [
                "train",
                "--data",
                str(data),
                "--target",
                "y",
                "--model-out",
                str(tmp_path / "m.txt"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "m.txt").exists()

    # Every line boundary of str.splitlines, by which a model file is read.
    LINE_BOUNDARIES = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                       "\u2028", "\u2029"]

    @pytest.mark.parametrize(
        "mark, where",
        [(mark, where) for mark in LINE_BOUNDARIES for where in ("feature", "target")]
        + [(",", "feature")],
    )
    def test_a_name_the_model_file_cannot_hold(self, tmp_path, monkeypatch, capsys, mark, where):
        """Refused before any tree is grown, with no model file written."""
        name = f"a{mark}b"  # inside the name: str.strip removes most of them
        header = [f'"{name}"', "x1", "y"] if where == "feature" else ["x0", "x1", f'"{name}"']
        rows = [f"{i},{i % 3},{i * 0.5}" for i in range(20)]
        data = tmp_path / "named.csv"
        data.write_text("\n".join([",".join(header), *rows]) + "\n", encoding="utf-8")
        fits = []
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: fits.append(args))
        model = tmp_path / "m.txt"
        target = name if where == "target" else "y"
        code = main(["train", "--data", str(data), "--target", target, "--model-out", str(model)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1, err
        assert fits == [] and not model.exists()

    def test_an_empty_name_is_kept(self, workspace, tmp_path, capsys):
        data = tmp_path / "named.csv"
        data.write_text("x0,,y\n" + "".join(f"{i},{i % 3},{i * 0.5}\n" for i in range(20)),
                        encoding="utf-8")
        model = tmp_path / "m.txt"
        assert main(["train", "--data", str(data), "--target", "y", "--model-out", str(model),
                     "--n-estimators", "3"]) == 0
        assert load_model(model).feature_names == ["x0", ""]
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--data", str(data), "--out", str(out),
                     "--point-only"]) == 0


class TestConfigFile:
    def test_config_supplies_defaults(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text(
            "# defaults for smoke runs\nn_estimators = 4\nmax_leaves = 4\n",
            encoding="utf-8",
        )
        out = tmp_path / "m.txt"
        code = main(
            [
                "--config",
                str(config),
                "train",
                "--data",
                str(workspace["train_csv"]),
                "--target",
                "y",
                "--model-out",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert f"saved {out} (4 trees)" in captured.out

    def test_cli_flag_overrides_config(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("n_estimators = 4\n", encoding="utf-8")
        out = tmp_path / "m.txt"
        code = main(
            [
                "--config",
                str(config),
                "train",
                "--data",
                str(workspace["train_csv"]),
                "--target",
                "y",
                "--model-out",
                str(out),
                "--n-estimators",
                "6",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert f"saved {out} (6 trees)" in captured.out

    def test_unknown_config_key(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("definitely_not_a_flag = 1\n", encoding="utf-8")
        code = main(
            [
                "--config",
                str(config),
                "train",
                "--data",
                str(workspace["train_csv"]),
                "--target",
                "y",
                "--model-out",
                str(tmp_path / "m.txt"),
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()


    @pytest.mark.parametrize("point_only", ["point_only", "point-only"])
    def test_config_supplies_required_flags(self, workspace, tmp_path, capsys, point_only):
        config = tmp_path / "predict.conf"
        config.write_text(
            f"{point_only} = true\nclamp_nonneg = off\nmodel = {workspace['model']}\n"
            f"data = {workspace['test_csv']}\n",
            encoding="utf-8",
        )
        out = tmp_path / "pred.csv"
        assert main(["--config", str(config), "predict", "--out", str(out)]) == 0
        assert read_lines(out)[0] == "row,mu,var"
        assert len(read_lines(out)) == 81

    def test_false_boolean_leaves_the_flag_out(self, workspace, tmp_path):
        config = tmp_path / "predict.conf"
        config.write_text("point_only = no\nn_samples = 3\n", encoding="utf-8")
        out = tmp_path / "pred.csv"
        argv = ["--config", str(config), "predict", "--model", str(workspace["model"]),
                "--data", str(workspace["test_csv"]), "--out", str(out)]
        assert main(argv) == 0
        assert read_lines(out)[0] == "row,mu,var,s0,s1,s2"


class TestPredict:
    def predict(self, workspace, out, extra=()):
        return main(
            [
                "predict",
                "--model",
                str(workspace["model"]),
                "--data",
                str(workspace["test_csv"]),
                "--out",
                str(out),
                *extra,
            ]
        )

    def test_output_shape(self, workspace, tmp_path, capsys):
        out = tmp_path / "pred.csv"
        code = self.predict(workspace, out, ["--n-samples", "5"])
        captured = capsys.readouterr()
        assert code == 0
        assert f"wrote {out} (80 rows)" in captured.out
        lines = read_lines(out)
        assert lines[0] == "row,mu,var,s0,s1,s2,s3,s4"
        assert len(lines) == 81
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[2]) >= 0.0

    def test_deterministic_bytes(self, workspace, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert self.predict(workspace, a, ["--n-samples", "8", "--seed", "5"]) == 0
        assert self.predict(workspace, b, ["--n-samples", "8", "--seed", "5"]) == 0
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.csv"
        assert self.predict(workspace, c, ["--n-samples", "8", "--seed", "6"]) == 0
        assert a.read_bytes() != c.read_bytes()

    def test_columns_are_found_by_name(self, workspace, tmp_path):
        """Reordered columns, and a name repeated that the model does not
        use, give the bytes of the file in training order."""
        expected, out = tmp_path / "expected.csv", tmp_path / "pred.csv"
        assert self.predict(workspace, expected, ["--n-samples", "4"]) == 0
        names = ["y", "x1", "y", "x0"]
        data = write_reordered(workspace["test_csv"], tmp_path / "data.csv", names)
        assert main(["predict", "--model", str(workspace["model"]), "--data", str(data),
                     "--out", str(out), "--n-samples", "4"]) == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_point_only(self, workspace, tmp_path):
        out = tmp_path / "pred.csv"
        assert self.predict(workspace, out, ["--point-only"]) == 0
        lines = read_lines(out)
        assert lines[0] == "row,mu,var"

    def test_sample_cap(self, workspace, tmp_path, capsys):
        code = self.predict(
            workspace, tmp_path / "pred.csv", ["--n-samples", "20000"]
        )
        assert code == 2
        assert "exceeds" in capsys.readouterr().err

    def test_corrupt_model(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a model\n", encoding="utf-8")
        code = main(
            [
                "predict",
                "--model",
                str(bad),
                "--data",
                str(workspace["test_csv"]),
                "--out",
                str(tmp_path / "pred.csv"),
            ]
        )
        assert code == 3

    def test_feature_outside_model_range(self, workspace, tmp_path, capsys):
        lines = read_lines(workspace["model"])
        at = next(i for i, line in enumerate(lines) if line.startswith("node 0 "))
        parts = lines[at].split()
        parts[2] = "7"
        lines[at] = " ".join(parts)
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(
            [
                "predict",
                "--model",
                str(bad),
                "--data",
                str(workspace["test_csv"]),
                "--out",
                str(tmp_path / "pred.csv"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "feature 7" in err
        assert len(err.splitlines()) == 1

    def test_unwritable_out(self, workspace, tmp_path, capsys):
        out = tmp_path / "missing" / "pred.csv"
        assert self.predict(workspace, out) == 3

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "extra",
        [["--n-samples", "6"], ["--point-only"], ["--n-samples", "6", "--dist", "poisson"],
         ["--n-samples", "6", "--clamp-nonneg"]],
        ids=["normal", "point_only", "poisson", "clamp_nonneg"],
    )
    def test_blocks_write_the_whole_file_bytes(
        self, workspace, tmp_path, monkeypatch, extra, workers
    ):
        # 80 rows in blocks of 7: eleven full blocks and a partial one. Two
        # workers take six blocks each. Each block is formatted two rows (at
        # most 20 values) at a time, so chunks end inside blocks.
        monkeypatch.setattr(cli, "_PREDICT_BLOCK_ROWS", 7)
        monkeypatch.setattr(_reprs, "_CHUNK_VALUES", 20)
        use_workers(monkeypatch, workers)
        out = tmp_path / "pred.csv"
        assert self.predict(workspace, out, [*extra, "--seed", "3"]) == 0

        model = load_model(workspace["model"])
        moments = predict_moments(model, load_csv(workspace["test_csv"], "y"))
        header = ["row", "mu", "var"]
        if "--point-only" not in extra:
            family = "poisson" if "poisson" in extra else "normal"
            spec = DistSpec(family, clamp_nonneg="--clamp-nonneg" in extra)
            draws = sample(moments, spec, 6, 3).samples
            header.extend(f"s{j}" for j in range(6))
        lines = [",".join(header)]
        for i in range(len(moments.mu)):
            cells = [str(i), repr(float(moments.mu[i])), repr(float(moments.var[i]))]
            if "--point-only" not in extra:
                cells.extend(repr(float(v)) for v in draws[:, i])
            lines.append(",".join(cells))
        text = out.read_text(encoding="utf-8")
        assert text == "\n".join(lines) + "\n"
        rows = [line.split(",", 1)[0] for line in read_lines(out)[1:]]
        assert rows == [str(i) for i in range(80)]
        if "poisson" in extra:
            assert ",2.0," in text
        if "--clamp-nonneg" in extra:
            assert ",0.0," in text or ",0.0\n" in text

    @pytest.mark.parametrize("rho", ["nan", "inf", "2", "-1.5"])
    def test_rho_outside_unit_interval(self, workspace, tmp_path, capsys, rho):
        out = tmp_path / "pred.csv"
        assert self.predict(workspace, out, ["--rho", rho]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: rho") and "outside [-1, 1]" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_rho_that_is_not_a_number(self, workspace, tmp_path, capsys):
        out = tmp_path / "pred.csv"
        assert self.predict(workspace, out, ["--rho", "sideways"]) == 2
        assert capsys.readouterr().err == (
            "error: argument --rho: expected a number or `auto`, got 'sideways'\n"
        )

    def test_rho_override_changes_var(self, workspace, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert self.predict(workspace, a, ["--point-only", "--rho", "0.0"]) == 0
        assert self.predict(workspace, b, ["--point-only", "--rho", "0.9"]) == 0
        var_a = [float(line.split(",")[2]) for line in read_lines(a)[1:]]
        var_b = [float(line.split(",")[2]) for line in read_lines(b)[1:]]
        assert sum(var_a) > sum(var_b)

    def test_fallback_warning(self, workspace, tmp_path, capsys):
        out = tmp_path / "pred.csv"
        extra = ["--dist", "negativebinomial", "--n-samples", "5", "--rho", "0.02"]
        assert self.predict(workspace, out, extra) == 0
        moments = predict_moments(
            load_model(workspace["model"]), load_csv(workspace["test_csv"], "y"), rho=0.02
        )
        fell = sample(moments, DistSpec("negativebinomial"), 5).fallback_rows
        assert fell > 0
        captured = capsys.readouterr()
        assert captured.err == (
            f"warning: {fell} rows were infeasible for negativebinomial "
            "and fell back to normal\n"
        )
        assert captured.out == f"wrote {out} (80 rows)\n"
        assert self.predict(workspace, out, ["--n-samples", "5"]) == 0
        assert capsys.readouterr().err == ""


@pytest.fixture(scope="module")
def predictions(workspace, tmp_path_factory):
    root = tmp_path_factory.mktemp("pred")
    out = root / "pred.csv"
    code = main(
        [
            "predict",
            "--model",
            str(workspace["model"]),
            "--data",
            str(workspace["test_csv"]),
            "--out",
            str(out),
            "--n-samples",
            "40",
            "--seed",
            "2",
        ]
    )
    assert code == 0
    return out


def test_only_predict_imports_the_formatter(workspace, predictions, tmp_path, monkeypatch):
    # Sweep's peak memory is the largest of the commands'; the formatter's
    # import and tables stay out of train, evaluate and sweep.
    monkeypatch.delitem(sys.modules, "pgbm._reprs")
    monkeypatch.delattr(pgbm, "_reprs")
    runs = {
        "train": ["--data", str(workspace["train_csv"]), "--target", "y",
                  "--model-out", str(tmp_path / "model.txt"), "--n-estimators", "2"],
        "evaluate": ["--pred", str(predictions), "--actual", str(workspace["test_csv"]),
                     "--target", "y"],
        "sweep": ["--model", str(workspace["model"]), "--data", str(workspace["test_csv"]),
                  "--dists", "normal,lognormal", "--rhos", "0,0.1", "--n-samples", "20"],
        "predict": ["--model", str(workspace["model"]), "--data", str(workspace["test_csv"]),
                    "--out", str(tmp_path / "pred.csv"), "--n-samples", "2"],
    }
    for command, argv in runs.items():
        assert main([command, *argv]) == 0
        assert ("pgbm._reprs" in sys.modules) == (command == "predict"), command


def replace_cell(lines, row, col, value):
    cells = lines[row].split(",")
    cells[col] = value
    return lines[:row] + [",".join(cells)] + lines[row + 1 :]


MALFORMED = {
    "empty": lambda lines: [],
    "header_only": lambda lines: lines[:1],
    "foreign_header": lambda lines: replace_cell(lines, 0, 0, "index"),
    "ragged_row": lambda lines: lines[:5] + [lines[5].rsplit(",", 1)[0]] + lines[6:],
    "unparseable_cell": lambda lines: replace_cell(lines, 5, 4, "oops"),
}


class TestEvaluate:
    def evaluate_fails(self, workspace, pred, capsys, metrics="crps,rmse"):
        code = main(
            [
                "evaluate",
                "--pred",
                str(pred),
                "--actual",
                str(workspace["test_csv"]),
                "--target",
                "y",
                "--metrics",
                metrics,
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:") and len(err.splitlines()) == 1
        return err

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_predictions(
        self, workspace, predictions, tmp_path, capsys, case
    ):
        bad = tmp_path / "bad.csv"
        lines = MALFORMED[case](read_lines(predictions))
        bad.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        err = self.evaluate_fails(workspace, bad, capsys)
        assert str(bad) in err

    @pytest.mark.parametrize("metric", ["rmse", "crps"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [1, 2, 3], ids=["mu", "var", "s0"])
    def test_non_finite_prediction_cell(
        self, workspace, predictions, tmp_path, capsys, column, value, metric
    ):
        bad = tmp_path / "bad.csv"
        lines = replace_cell(read_lines(predictions), 5, column, value)
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        err = self.evaluate_fails(workspace, bad, capsys, metrics=metric)
        assert "non-finite value at row 4" in err

    @pytest.mark.parametrize(
        "text", ["row,mu,var,s0\n", "row,mu,var,s0\n\n"], ids=["header_only", "blank_line"]
    )
    def test_no_data_rows_print_no_warning(self, workspace, tmp_path, capsys, text):
        pred = tmp_path / "empty.csv"
        pred.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            err = self.evaluate_fails(workspace, pred, capsys)
        assert "Warning" not in err

    def test_missing_predictions(self, workspace, tmp_path, capsys):
        err = self.evaluate_fails(workspace, tmp_path / "absent.csv", capsys)
        assert "cannot read" in err

    def test_unwritable_out(self, workspace, predictions, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--pred",
                str(predictions),
                "--actual",
                str(workspace["test_csv"]),
                "--target",
                "y",
                "--out",
                str(tmp_path / "missing" / "rows.csv"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and len(err.splitlines()) == 1

    def test_global_metrics(self, workspace, predictions, capsys):
        code = main(
            [
                "evaluate",
                "--pred",
                str(predictions),
                "--actual",
                str(workspace["test_csv"]),
                "--target",
                "y",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0] == "metric,level,group,value,n"
        names = {line.split(",")[0] for line in lines[1:] if line}
        assert {"crps", "rmse"} <= names
        rmse_line = next(line for line in lines if line.startswith("rmse,global"))
        assert float(rmse_line.split(",")[3]) > 0.0

    def test_out_file_matches_stdout(self, workspace, predictions, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(
            [
                "evaluate",
                "--pred",
                str(predictions),
                "--actual",
                str(workspace["test_csv"]),
                "--target",
                "y",
                "--out",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert out.read_text(encoding="utf-8").rstrip("\n") == captured.out.rstrip(
            "\n"
        )

    def test_crps_needs_samples(self, workspace, tmp_path, capsys):
        point = tmp_path / "point.csv"
        assert (
            main(
                [
                    "predict",
                    "--model",
                    str(workspace["model"]),
                    "--data",
                    str(workspace["test_csv"]),
                    "--out",
                    str(point),
                    "--point-only",
                ]
            )
            == 0
        )
        code = main(
            [
                "evaluate",
                "--pred",
                str(point),
                "--actual",
                str(workspace["test_csv"]),
                "--target",
                "y",
                "--metrics",
                "crps",
            ]
        )
        assert code == 2
        assert "point-only" in capsys.readouterr().err

    def test_unknown_metric(self, workspace, predictions, capsys):
        code = main(
            [
                "evaluate",
                "--pred",
                str(predictions),
                "--actual",
                str(workspace["test_csv"]),
                "--target",
                "y",
                "--metrics",
                "mae",
            ]
        )
        assert code == 2

    def test_flat_crps_holds_no_second_matrix(self, workspace, tmp_path, monkeypatch, capsys):
        """Without --hierarchy, evaluate scores the parsed file's rows in
        blocks: scoring adds less than one (n_samples, rows) float64 matrix
        to the traced memory that the parsed file holds."""
        data = write_csv(tmp_path / "rows.csv", make_regression(65, 3000, 2))
        pred = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(workspace["model"]), "--data", str(data),
                     "--out", str(pred), "--n-samples", "400"]) == 0
        read = cli._read_predictions
        held = []

        def reading(path):
            result = read(path)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return result

        monkeypatch.setattr(cli, "_read_predictions", reading)
        tracemalloc.start()
        try:
            code = main(["evaluate", "--pred", str(pred), "--actual", str(data),
                         "--target", "y", "--metrics", "crps"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        assert peak - held[0] < 400 * 3000 * 8

    @pytest.mark.parametrize("rows", [1, 257, 513])
    def test_hierarchy_adds_rows_to_the_flat_report(self, workspace, tmp_path, capsys, rows):
        """Evaluate scores in row blocks with and without --hierarchy: the
        global rows of both runs are the same bytes, and the crps is the
        whole sample matrix's score, a last block of one row included. The
        last row's target lies far out, so that its score moves the mean."""
        table = make_regression(66, rows, 2)
        table.target[-1] = 1e3 + 1 / 3
        data = write_csv(tmp_path / "rows.csv", table)
        pred = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(workspace["model"]), "--data", str(data),
                     "--out", str(pred), "--n-samples", "50", "--seed", "5"]) == 0
        hierarchy = tmp_path / "h.txt"
        hierarchy.write_text(
            "levels=3\nlevel 0 weight=1 identity\nlevel 1 weight=0.5\n"
            + "".join(f"group g{k}: {','.join(map(str, range(k, rows, 3)))}\n"
                      for k in range(min(3, rows)))
            + f"level 2 weight=0.1\ngroup all: {','.join(map(str, range(rows)))}\n",
            encoding="utf-8",
        )
        evaluate = ["evaluate", "--pred", str(pred), "--actual", str(data), "--target", "y"]
        capsys.readouterr()
        assert main(evaluate) == 0
        flat = capsys.readouterr().out.splitlines()
        assert main([*evaluate, "--hierarchy", str(hierarchy)]) == 0
        grouped = capsys.readouterr().out.splitlines()
        assert len(grouped) == len(flat) + 2 * 3
        global_rows = ("metric,", "crps,global,", "rmse,global,")
        assert [line for line in grouped if line.startswith(global_rows)] == flat
        samples = load_csv(pred, None).features[:, 3:].T
        crps = float(np.mean(crps_empirical_rows(samples, load_csv(data, "y").target)))
        assert flat[1] == f"crps,global,all,{crps!r},{rows}"

    def test_hierarchy_breakdown_rows(self, workspace, predictions, tmp_path, capsys):
        hierarchy = tmp_path / "h.txt"
        members = ",".join(str(i) for i in range(80))
        hierarchy.write_text(
            "levels=2\n"
            "level 0 weight=0.5 identity\n"
            "level 1 weight=0.5\n"
            f"group all: {members}\n",
            encoding="utf-8",
        )
        code = main(
            [
                "evaluate",
                "--pred",
                str(predictions),
                "--actual",
                str(workspace["test_csv"]),
                "--target",
                "y",
                "--hierarchy",
                str(hierarchy),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert any(line.startswith("rmse,0,") for line in lines)
        assert any(line.startswith("rmse,1,") for line in lines)
        assert any(line.startswith("crps,1,") for line in lines)


class TestSweep:
    def test_grid_and_best_line(self, workspace, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "sweep",
                "--model",
                str(workspace["model"]),
                "--data",
                str(workspace["test_csv"]),
                "--target",
                "y",
                "--dists",
                "normal,laplace",
                "--rhos",
                "0:0.02:0.01",
                "--n-samples",
                "30",
                "--out",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == "dist,rho,crps"
        assert len(lines) == 1 + 2 * 3
        assert "best: dist=" in captured.out

    def test_cell_matches_predict_then_evaluate(self, workspace, tmp_path, capsys):
        sweep_crps, eval_crps = self.laplace_cell_and_evaluate(
            workspace, tmp_path, capsys, "laplace", "0.02")
        assert eval_crps == sweep_crps

    def test_cell_matches_predict_then_evaluate_in_shares(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        """Also when the cell is scored in a forked worker: of four cells
        in two shares, laplace at 0.02 is the worker's second."""
        use_workers(monkeypatch, 2)
        gather = _shares.gather
        gathered = []

        def recording(shares, work):
            gathered.append((work.__name__, gather(shares, work)))
            return gathered[-1][1]

        monkeypatch.setattr(_shares, "gather", recording)
        sweep_crps, eval_crps = self.laplace_cell_and_evaluate(
            workspace, tmp_path, capsys, "normal,laplace", "0.0,0.02")
        cells = [records for name, records in gathered if name == "score_share"]
        assert len(cells) == 1 and cells[0] is not None
        assert eval_crps == sweep_crps

    def laplace_cell_and_evaluate(self, workspace, tmp_path, capsys, dists, rhos):
        """The CRPS of sweep's laplace cell at rho 0.02 and that of
        evaluate on predict's samples for the same cell."""
        code = main(
            [
                "sweep",
                "--model",
                str(workspace["model"]),
                "--data",
                str(workspace["test_csv"]),
                "--target",
                "y",
                "--dists",
                dists,
                "--rhos",
                rhos,
                "--n-samples",
                "25",
                "--seed",
                "9",
            ]
        )
        sweep_out = capsys.readouterr().out
        assert code == 0
        cell = next(
            line for line in sweep_out.splitlines() if line.startswith("laplace,0.02,")
        )
        sweep_crps = float(cell.split(",")[2])

        pred = tmp_path / "pred.csv"
        assert (
            main(
                [
                    "predict",
                    "--model",
                    str(workspace["model"]),
                    "--data",
                    str(workspace["test_csv"]),
                    "--out",
                    str(pred),
                    "--dist",
                    "laplace",
                    "--rho",
                    "0.02",
                    "--n-samples",
                    "25",
                    "--seed",
                    "9",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "evaluate",
                    "--pred",
                    str(pred),
                    "--actual",
                    str(workspace["test_csv"]),
                    "--target",
                    "y",
                    "--metrics",
                    "crps",
                ]
            )
            == 0
        )
        eval_out = capsys.readouterr().out
        crps_line = next(
            line for line in eval_out.splitlines() if line.startswith("crps,global")
        )
        eval_crps = float(crps_line.split(",")[3])
        return sweep_crps, eval_crps

    def test_fallback_warning_per_cell(self, workspace, tmp_path, capsys):
        argv = [
            "sweep", "--model", str(workspace["model"]), "--data",
            str(workspace["test_csv"]), "--target", "y", "--dists",
            "normal,negativebinomial,lognormal", "--rhos", "0.0,0.3", "--n-samples", "5",
        ]
        out = tmp_path / "grid.csv"
        assert main([*argv, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        model = load_model(workspace["model"])
        data = load_csv(workspace["test_csv"], "y")
        expected = []
        for family in ("normal", "negativebinomial", "lognormal"):
            for rho in (0.0, 0.3):
                moments = predict_moments(model, data, rho=rho)
                fell = sample(moments, DistSpec(family), 5).fallback_rows
                if fell:
                    expected.append(
                        f"warning: {fell} rows were infeasible for {family} "
                        f"at rho {rho!r} and fell back to normal"
                    )
        assert len(expected) >= 3
        assert captured.err.splitlines() == expected
        *grid, best = captured.out.splitlines()
        assert read_lines(out) == grid and best.startswith("best: ")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_score_that_overflows_is_refused(
        self, workspace, tmp_path, monkeypatch, capsys, workers
    ):
        """Leaves of 1e308 in the first tree (the loader takes any finite
        leaf) give means near -1e307, whose CRPS overflows in the mean
        over rows: sweep refuses the grid as evaluate refuses the score
        of predict's file, with no numpy warning."""
        lines = read_lines(workspace["model"])
        end = lines.index("tree 1")
        lines[:end] = [
            "leaf {} 1e308 {} {}".format(*line.split()[1:2], *line.split()[3:])
            if line.startswith("leaf ") else line
            for line in lines[:end]
        ]
        model = tmp_path / "huge.txt"
        model.write_text("\n".join(lines) + "\n", encoding="utf-8")
        data = str(workspace["test_csv"])
        use_workers(monkeypatch, workers)
        code = main(["sweep", "--model", str(model), "--data", data, "--target", "y",
                     "--dists", "normal,laplace", "--rhos", "0.0,0.5", "--n-samples", "5"])
        assert (code, *capsys.readouterr()) == (2, "", "error: metric value must be finite\n")
        pred = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--data", data, "--out", str(pred),
                     "--n-samples", "5"]) == 0
        capsys.readouterr()
        for metric in ("crps", "rmse"):
            code = main(["evaluate", "--pred", str(pred), "--actual", data, "--target", "y",
                         "--metrics", metric])
            assert (code, *capsys.readouterr()) == (2, "", "error: metric value must be finite\n")

    @pytest.mark.parametrize("rows", [1, 257, 513])
    def test_cell_is_the_whole_matrix_score(self, workspace, tmp_path, capsys, rows):
        """Sweep scores each block of draws as it comes, with the bits of
        the whole sample matrix's score, a last block of one row included.
        The last row's target lies far out, so that its score moves the
        mean: summed alone, a lone column's draws would round otherwise."""
        table = make_regression(63, rows, 2)
        table.target[-1] = 1e3 + 1 / 3
        data = write_csv(tmp_path / "rows.csv", table)
        code = main(["sweep", "--model", str(workspace["model"]), "--data", str(data),
                     "--target", "y", "--dists", "normal,negativebinomial", "--rhos", "0.1",
                     "--n-samples", "50", "--seed", "5"])
        assert code == 0
        cells = capsys.readouterr().out.splitlines()[1:-1]
        table = load_csv(data, "y")
        moments = predict_moments(load_model(workspace["model"]), table, rho=0.1)
        expected = []
        for family in ("normal", "negativebinomial"):
            draws = sample(moments, DistSpec(family), 50, seed=5).samples
            with np.errstate(over="ignore", invalid="ignore"):
                crps = float(np.mean(crps_empirical_rows(draws, table.target)))
            expected.append(f"{family},0.1,{crps!r}")
        assert cells == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_holds_no_sample_matrix(self, workspace, tmp_path, monkeypatch, capsys, workers):
        """Sweep's traced peak stays below one (n_samples, rows) float64
        matrix, in one process and in the calling process's share."""
        data = write_csv(tmp_path / "rows.csv", make_regression(64, 3000, 2))
        use_workers(monkeypatch, workers)
        tracemalloc.start()
        try:
            code = main(["sweep", "--model", str(workspace["model"]), "--data", str(data),
                         "--target", "y", "--dists", "normal,laplace", "--rhos", "0,0.05",
                         "--n-samples", "400"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        assert peak < 400 * 3000 * 8

    def test_holds_no_per_tree_matrix(self, workspace, tmp_path, capsys):
        """Sweep's traced peak stays below one (trees, rows) float64 matrix:
        it keeps a mean and one variance per rho, not each tree's leaf
        moments for every row."""
        model = load_model(workspace["model"])
        model.trees = model.trees * 20
        model_path = tmp_path / "long.txt"
        pgbm.save(model, model_path)
        data = write_csv(tmp_path / "rows.csv", make_regression(62, 2000, 2))
        tracemalloc.start()
        try:
            code = main(["sweep", "--model", str(model_path), "--data", str(data),
                         "--target", "y", "--rhos", "0,0.05", "--n-samples", "5"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        assert peak < len(model.trees) * 2000 * 8

    def test_unwritable_out(self, workspace, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--model",
                str(workspace["model"]),
                "--data",
                str(workspace["test_csv"]),
                "--target",
                "y",
                "--rhos",
                "0.0",
                "--n-samples",
                "10",
                "--out",
                str(tmp_path / "missing" / "grid.csv"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and len(err.splitlines()) == 1

    def test_rho_outside_range(self, workspace, capsys):
        code = main(
            [
                "sweep",
                "--model",
                str(workspace["model"]),
                "--data",
                str(workspace["test_csv"]),
                "--target",
                "y",
                "--rhos",
                "1.5",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: rho 1.5 outside [-1, 1]\n"

    @pytest.mark.parametrize(
        "rhos, first", [("-0.1:0.1:0.05", "-0.1"), ("-0.1,0.2", "-0.1"), ("-.5", "-0.5")]
    )
    def test_rhos_below_zero_need_no_equals_sign(self, workspace, capsys, rhos, first):
        base = ["sweep", "--model", str(workspace["model"]), "--data",
                str(workspace["test_csv"]), "--target", "y", "--n-samples", "10"]
        assert main([*base, f"--rhos={rhos}"]) == 0
        expected = capsys.readouterr()
        assert expected.out.splitlines()[1].startswith(f"normal,{first},")
        assert main([*base, "--rhos", rhos]) == 0
        assert capsys.readouterr() == expected

    def test_rho_range_at_the_cap(self):
        rhos = cli._parse_rhos("0:0.999:0.001")
        assert len(rhos) == cli.MAX_RHO_VALUES
        assert (rhos[0], rhos[-1]) == (0.0, 0.999)

    def test_all_families_token(self, workspace, capsys):
        code = main(
            [
                "sweep",
                "--model",
                str(workspace["model"]),
                "--data",
                str(workspace["test_csv"]),
                "--target",
                "y",
                "--dists",
                "all",
                "--rhos",
                "0.02",
                "--n-samples",
                "10",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        families = {
            line.split(",")[0]
            for line in captured.out.splitlines()
            if "," in line and not line.startswith("dist,")
        }
        assert "normal" in families
        assert "poisson" in families


class TestTopLevel:
    def test_version(self, capsys):
        code = main(["--version"])
        assert code == 0
        assert "0.1.0" in capsys.readouterr().out

    def test_no_command(self, capsys):
        code = main([])
        assert code == 2

    def test_unknown_command(self, capsys):
        code = main(["frobnicate"])
        assert code == 2


def _train(f, data, *extra, target="y"):
    return ["train", "--data", str(f[data]), "--target", target,
            "--model-out", str(f["out"]), *extra]


def _predict(f, model, *extra):
    return ["predict", "--model", str(f[model]), "--data", str(f["test_csv"]),
            "--out", str(f["out"]), *extra]


def _sweep(f, *extra, model="model"):
    return ["sweep", "--model", str(f[model]), "--data", str(f["test_csv"]), *extra]


def _configured(f, config, *argv):
    return ["--config", str(f[config]), *argv]


# Every failure a command can meet: case -> (argv from the files built by
# the `failures` fixture and the case's own output path `out`, exit code,
# the error the handler raises or None when argparse or the config reader
# rejects the line first).
FAILURES = {
    "missing_file": (lambda f: _train(f, "absent"), 3, errors.IoError),
    "missing_target": (lambda f: _train(f, "train_csv", target="nope"), 3, errors.MissingColumn),
    "unparseable_cell": (lambda f: _train(f, "unparseable"), 3, errors.ParseError),
    "non_finite_cell": (lambda f: _train(f, "non_finite"), 3, errors.NonFiniteValue),
    "header_only": (lambda f: _train(f, "header_only"), 3, errors.EmptyDataset),
    "valid_feature_count": (
        lambda f: _train(f, "train_csv", "--valid", str(f["one_feature"])),
        3, errors.MissingColumn),
    "valid_other_names": (
        lambda f: _train(f, "train_csv", "--valid", str(f["other_names"])),
        3, errors.MissingColumn),
    "repeated_feature_train": (lambda f: _train(f, "repeated_feature"), 3, errors.DuplicateColumn),
    "repeated_target_train": (lambda f: _train(f, "repeated_target"), 3, errors.DuplicateColumn),
    "repeated_feature_valid": (
        lambda f: _train(f, "train_csv", "--valid", str(f["repeated_x0"])),
        3, errors.DuplicateColumn),
    "repeated_feature_predict": (
        lambda f: ["predict", "--model", str(f["model"]), "--data", str(f["repeated_x0"]),
                   "--out", str(f["out"])],
        3, errors.DuplicateColumn),
    "repeated_target_sweep": (
        lambda f: ["sweep", "--model", str(f["model"]), "--data", str(f["repeated_target"])],
        3, errors.DuplicateColumn),
    "repeated_target_evaluate": (
        lambda f: ["evaluate", "--pred", str(f["point_predictions"]),
                   "--actual", str(f["repeated_target"]), "--target", "y", "--metrics", "rmse"],
        3, errors.DuplicateColumn),
    "prediction_rows": (
        lambda f: ["evaluate", "--pred", str(f["one_prediction"]),
                   "--actual", str(f["test_csv"]), "--target", "y", "--metrics", "rmse"],
        3, errors.LengthMismatch),
    "hierarchy_row": (
        lambda f: _train(f, "train_csv", "--loss", "hierwmse",
                         "--hierarchy", str(f["far_hierarchy"])),
        3, errors.IndexOutOfRange),
    "split_overflow": (lambda f: _train(f, "huge"), 3, errors.NonFiniteEstimate),
    "target_mean_overflow": (lambda f: _train(f, "near_max_target"), 3, errors.NonFiniteEstimate),
    "fit_overflow_bagged_leaf": (
        lambda f: _train(f, "opposed_pair", "--bagging-fraction", "0.5", "--max-leaves", "1"),
        3, errors.NonFiniteEstimate),
    "fit_overflow_leaf_variance": (
        lambda f: _train(f, "opposed_pair_and_two", "--max-leaves", "1", "--n-estimators", "1"),
        3, errors.NonFiniteEstimate),
    "fit_overflow_valid_rmse": (
        lambda f: _train(f, "six_rows", "--valid", str(f["six_rows_1e300"]),
                         "--n-estimators", "2"),
        2, ValueError),
    "fit_overflow_valid_crps": (
        lambda f: _train(f, "six_rows", "--valid", str(f["six_rows_1e308"]),
                         "--n-estimators", "2", "--valid-metric", "crps"),
        2, ValueError),
    "overflowing_model_point_only": (
        lambda f: _predict(f, "overflowing_model", "--point-only"), 3, errors.NonFiniteEstimate),
    "overflowing_model_predict": (
        lambda f: _predict(f, "overflowing_model", "--n-samples", "5"),
        3, errors.NonFiniteEstimate),
    "overflowing_model_sweep": (
        lambda f: _sweep(f, "--target", "y", "--n-samples", "5", "--out", str(f["out"]),
                         model="overflowing_model"),
        3, errors.NonFiniteEstimate),
    "diverged": (
        lambda f: _train(f, "diverging", "--loss", "hierwmse", "--hierarchy",
                         str(f["two_groups"]), "--learning-rate", "0.5"),
        3, errors.TrainingDiverged),
    "diverged_last_tree": (
        lambda f: _train(f, "diverging", "--loss", "hierwmse", "--hierarchy",
                         str(f["two_groups"]), "--learning-rate", "0.5", "--n-estimators", "1"),
        3, errors.TrainingDiverged),
    "model_version": (lambda f: _predict(f, "future_model"), 3, errors.VersionMismatch),
    "model_corrupt": (lambda f: _predict(f, "not_a_model"), 3, errors.CorruptModel),
    "model_blank_tree_line": (lambda f: _predict(f, "blank_line_model"), 3, errors.CorruptModel),
    "model_feature_named_twice": (
        lambda f: _predict(f, "twice_named_model", "--point-only"), 3, errors.CorruptModel),
    "csv_field_over_limit": (lambda f: _train(f, "long_header_cell"), 3, errors.ParseError),
    "hierarchy_member_beyond_int64": (
        lambda f: _train(f, "train_csv", "--loss", "hierwmse",
                         "--hierarchy", str(f["huge_member"])),
        3, errors.ParseError),
    "hierarchy_nan_weight": (
        lambda f: _train(f, "train_csv", "--loss", "hierwmse",
                         "--hierarchy", str(f["nan_weight"])),
        3, errors.ParseError),
    "evaluate_hierarchy_inf_weight": (
        lambda f: ["evaluate", "--pred", str(f["point_predictions"]),
                   "--actual", str(f["test_csv"]), "--target", "y", "--metrics", "rmse",
                   "--hierarchy", str(f["inf_weight"])],
        3, errors.ParseError),
    "hierwmse_without_hierarchy": (
        lambda f: _train(f, "train_csv", "--loss", "hierwmse"), 2, ValueError),
    "sample_cap": (lambda f: _predict(f, "model", "--n-samples", "20000"), 2, ValueError),
    "unknown_family": (
        lambda f: ["sweep", "--model", str(f["model"]), "--data", str(f["test_csv"]),
                   "--dists", "normal,gamma"],
        2, ValueError),
    "negative_seed_train": (lambda f: _train(f, "train_csv", "--seed", "-1"), 2, ValueError),
    "negative_seed_bagged": (
        lambda f: _train(f, "train_csv", "--seed", "-1", "--bagging-fraction", "0.5"),
        2, ValueError),
    "negative_seed_predict": (lambda f: _predict(f, "model", "--seed", "-5"), 2, ValueError),
    "negative_seed_sweep": (lambda f: _sweep(f, "--seed", "-3"), 2, ValueError),
    "negative_seed_predict_absent_model": (
        lambda f: _predict(f, "absent", "--seed", "-5"), 2, ValueError),
    "negative_seed_point_only_absent_model": (
        lambda f: _predict(f, "absent", "--point-only", "--seed", "-5"), 2, ValueError),
    "negative_seed_sweep_absent_model": (
        lambda f: _sweep(f, "--seed", "-3", model="absent"), 2, ValueError),
    "zero_samples_absent_model": (
        lambda f: _predict(f, "absent", "--n-samples", "0"), 2, ValueError),
    "csv_not_utf8": (lambda f: _train(f, "not_utf8"), 3, errors.IoError),
    "model_not_utf8": (lambda f: _predict(f, "not_utf8"), 3, errors.IoError),
    "hierarchy_not_utf8": (
        lambda f: _train(f, "train_csv", "--loss", "hierwmse", "--hierarchy", str(f["not_utf8"])),
        3, errors.IoError),
    "config_not_utf8": (lambda f: _configured(f, "not_utf8", *_train(f, "train_csv")), 3, None),
    "rho_range_overflow": (lambda f: _sweep(f, "--rhos", "0:1e300:1e-300"), 2, ValueError),
    "rho_range_infinite_step": (lambda f: _sweep(f, "--rhos", "0:0.1:inf"), 2, ValueError),
    "rho_range_nan_start": (lambda f: _sweep(f, "--rhos", "nan:1:0.1"), 2, ValueError),
    "rho_range_tiny_step": (lambda f: _sweep(f, "--rhos=-1:1:1e-300"), 2, ValueError),
    "rho_range_above_cap": (lambda f: _sweep(f, "--rhos", "0:1:0.001"), 2, ValueError),
    "rho_list_nan": (lambda f: _sweep(f, "--rhos", "0,nan", model="absent"), 2, ValueError),
    "rho_list_out_of_range": (
        lambda f: _sweep(f, "--rhos", "0,1.5", model="absent"), 2, ValueError),
    "rho_list_above_cap": (
        lambda f: _sweep(f, "--rhos", ",".join(["0"] * (cli.MAX_RHO_VALUES + 1)),
                         model="absent"),
        2, ValueError),
    "duplicate_family": (
        lambda f: _sweep(f, "--dists", "normal, lognormal,normal", model="absent"), 2, ValueError),
    "duplicate_rho": (lambda f: _sweep(f, "--rhos", "0,0.1,0.0", model="absent"), 2, ValueError),
    "duplicate_rho_in_range": (
        lambda f: _sweep(f, "--rhos", "0:1e-11:1e-13", model="absent"), 2, ValueError),
    "duplicate_metric": (
        lambda f: ["evaluate", "--pred", str(f["absent"]), "--actual", str(f["absent"]),
                   "--target", "y", "--metrics", "rmse,crps,rmse"],
        2, ValueError),
    "rhos_followed_by_flag": (lambda f: _sweep(f, "--rhos", "--seed", "1"), 2, None),
    "header_only_predictions": (
        lambda f: ["evaluate", "--pred", str(f["header_only_predictions"]),
                   "--actual", str(f["test_csv"]), "--target", "y"],
        3, errors.EmptyDataset),
    "no_command": (lambda f: [], 2, None),
    "unknown_command": (lambda f: ["frobnicate"], 2, None),
    "missing_required_flag": (lambda f: ["train"], 2, None),
    "bad_choice": (lambda f: _predict(f, "model", "--dist", "foo"), 2, None),
    "bad_int": (lambda f: _train(f, "train_csv", "--n-estimators", "x"), 2, None),
    "unknown_flag": (lambda f: _train(f, "train_csv", "--frobnicate"), 2, None),
    "abbreviated_flag": (lambda f: _train(f, "train_csv", "--n-est", "4"), 2, None),
    "bare_config": (lambda f: ["train", "--config"], 2, None),
    "config_without_command": (lambda f: ["--config", str(f["unknown_key"])], 2, None),
    "config_unknown_key": (
        lambda f: _configured(f, "unknown_key", *_train(f, "train_csv")), 2, None),
    "config_abbreviated_key": (
        lambda f: _configured(f, "abbreviated_key", *_train(f, "train_csv")), 2, None),
    "config_help": (lambda f: _configured(f, "help_key", *_train(f, "train_csv")), 2, None),
    "config_bad_int": (lambda f: _configured(f, "bad_int", *_train(f, "train_csv")), 2, None),
    "config_bad_choice": (
        lambda f: _configured(f, "bad_choice", *_predict(f, "model")), 2, None),
    "config_bad_boolean": (
        lambda f: _configured(f, "bad_boolean", *_predict(f, "model")), 2, None),
    "config_bad_line": (lambda f: _configured(f, "bad_line", *_train(f, "train_csv")), 2, None),
    "config_missing": (lambda f: _configured(f, "absent", *_train(f, "train_csv")), 3, None),
}

# PgbmError subclasses that no command can raise, and why.
UNREACHABLE = {
    "NonFiniteLoss": "only numeric_gradhess raises it, and no command uses it",
    "DegenerateHessian": "every command's hessian is positive and lambda nonnegative",
    "EmptyMask": "a bag always holds at least one row",
    "InfeasibleMoments": "sample falls back to normal instead of raising it",
    "FeatureCountMismatch": "every command finds a file's feature columns by name",
    "FeatureNameMismatch": "every command passes a file's feature columns in the model's order",
    "EmptySamples": "sample rejects zero draws and evaluate needs sample columns first",
}


@pytest.fixture(scope="module")
def failures(workspace, tmp_path_factory):
    root = tmp_path_factory.mktemp("failures")
    files = dict(workspace, root=root, absent=root / "absent.txt")
    members = {"a": range(20), "b": range(20, 40)}
    texts = {
        "unparseable": "x,y\n1,oops\n",
        "non_finite": "x,y\n1,nan\n",
        "header_only": "x,y\n",
        "one_feature": "x0,y\n0,1\n",
        "other_names": "p,q,y\n0,1,2\n",
        "repeated_feature": "x0,x0,y\n0,1,2\n1,0,3\n",
        "repeated_target": "x0,y,x1,y\n0,1,2,3\n1,0,3,2\n",
        "repeated_x0": "x0,x1,x0,y\n0,1,2,3\n1,0,3,2\n",
        "one_prediction": "row,mu,var\n0,1.0,0.5\n",
        "header_only_predictions": "row,mu,var,s0,s1\n",
        "far_hierarchy": "levels=1\nlevel 0 weight=1\ngroup a: 0,999\n",
        "huge": "x,y\n0,1e160\n1,-1e160\n2,3e160\n3,-2e160\n",
        "near_max_target": "x,y\n0,1.7e308\n1,1.7e308\n2,1.7e308\n",
        # The bag of two rows holds 1e300 and -1e300: the leaf's gradient
        # variance overflows.
        "opposed_pair": "x,y\n0,1e300\n1,-1e300\n2,3.0\n",
        "opposed_pair_and_two": "x,y\n1,1e300\n2,-1e300\n3,5\n4,1\n",
        "six_rows": "x,y\n1,1\n2,2\n3,5\n4,1\n5,2\n6,-3\n",
        "six_rows_1e300": "x,y\n1,1e300\n2,-1e300\n3,5\n4,1\n5,2\n6,-3\n",
        "six_rows_1e308": "x,y\n1,1e308\n2,-1e308\n3,5\n4,1\n5,2\n6,-3\n",
        # Two groups of 20 rows: a leaf holding a whole group has about
        # ten times the curvature of the diagonal hessian, so a step of
        # 0.5 overshoots and the objective grows.
        "diverging": "x,y\n" + "".join(
            f"{i // 20},{1 if i < 20 else -1}\n" for i in range(40)),
        "two_groups": "levels=2\nlevel 0 weight=1 identity\nlevel 1 weight=1\n" + "".join(
            f"group {key}: {','.join(map(str, rows))}\n" for key, rows in members.items()),
        "long_header_cell": "x" * 131073 + ",y\n0,1\n",
        "huge_member": "levels=1\nlevel 0 weight=1\ngroup b: 20,99999999999999999999\n",
        "nan_weight": "levels=1\nlevel 0 weight=nan identity\n",
        "inf_weight": "levels=1\nlevel 0 weight=inf identity\n",
        "point_predictions": "row,mu,var\n" + "".join(f"{i},1.0,0.5\n" for i in range(80)),
        "blank_line_model": workspace["model"].read_text(encoding="utf-8").replace(
            "tree 0\n", "tree 0\n\n", 1),
        "twice_named_model": workspace["model"].read_text(encoding="utf-8").replace(
            "\nfeature_names = x0,x1\n", "\nfeature_names = x0,x0\n", 1),
        # Every leaf mean 1e308, which the loader takes: the means overflow.
        "overflowing_model": "".join(
            "leaf {} 1e308 {} {}\n".format(*line.split()[1:2], *line.split()[3:])
            if line.startswith("leaf ") else line + "\n"
            for line in read_lines(workspace["model"])),
        "future_model": "pgbmfmt v2\n",
        "not_a_model": "not a model\n",
        "unknown_key": "definitely_not_a_flag = 1\n",
        "abbreviated_key": "n_est = 4\n",
        "help_key": "help = 1\n",
        "bad_int": "n_estimators = many\n",
        "bad_choice": "dist = foo\n",
        "bad_boolean": "point_only = maybe\n",
        "bad_line": "n_estimators\n",
    }
    for name, text in texts.items():
        files[name] = root / f"{name}.txt"
        files[name].write_text(text, encoding="utf-8")
    files["not_utf8"] = root / "not_utf8.txt"
    files["not_utf8"].write_bytes(b"x,y\n0,\xff\n")
    return files


@pytest.fixture
def case_files(failures, tmp_path):
    """The shared input files, and an output path of the case's own, so
    that a case which wrongly succeeds cannot change another's outcome."""
    return dict(failures, out=tmp_path / "never.txt")


class TestErrorPaths:
    @pytest.mark.parametrize("case", sorted(FAILURES))
    def test_failure_is_one_error_line(self, case_files, monkeypatch, capsys, case):
        build, code, error = FAILURES[case]
        raised = []

        def recording(handler):
            def run(args):
                try:
                    return handler(args)
                except Exception as exc:
                    raised.append(type(exc))
                    raise

            return run

        for name, handler in cli._HANDLERS.items():
            monkeypatch.setitem(cli._HANDLERS, name, recording(handler))
        assert main(build(case_files)) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1, err
        assert "usage:" not in err and "Traceback" not in err
        assert raised == ([] if error is None else [error])
        assert not case_files["out"].exists()

    @pytest.mark.parametrize("case", sorted(c for c in FAILURES if c.startswith("negative_seed")))
    def test_negative_seed_is_named_before_any_output(self, case_files, capsys, case):
        argv = FAILURES[case][0](case_files)
        assert main(argv) == 2
        seed = argv[argv.index("--seed") + 1]
        assert capsys.readouterr() == ("", f"error: seed must be nonnegative, got {seed}\n")
        assert not case_files["out"].exists()

    @pytest.mark.parametrize("case", sorted(c for c in FAILURES if c.startswith("overflowing_")))
    def test_an_overflowing_model_warns_nothing(self, case_files, capsys, case):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(FAILURES[case][0](case_files))
        assert caught == []
        message = "error: the predicted mean or variance overflows float64\n"
        assert (code, *capsys.readouterr()) == (3, "", message)
        assert not case_files["out"].exists()

    @pytest.mark.parametrize("case", sorted(c for c in FAILURES if c.startswith("fit_overflow_")))
    def test_an_overflowing_fit_warns_nothing(self, case_files, capsys, case):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(FAILURES[case][0](case_files))
        assert caught == []
        expected = FAILURES[case][1]
        message = {
            3: "error: a split gain or leaf moment overflows float64\n",
            2: "error: metric value must be finite\n",
        }[expected]
        assert (code, *capsys.readouterr()) == (expected, "", message)
        assert not case_files["out"].exists()

    def test_an_overflowing_target_mean_is_named(self, case_files, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(FAILURES["target_mean_overflow"][0](case_files))
        assert caught == []
        message = "error: the target mean overflows float64 (inf)\n"
        assert (code, *capsys.readouterr()) == (3, "", message)

    def test_every_pgbm_error_is_walked(self):
        classes = {
            name for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, errors.PgbmError)
            and value is not errors.PgbmError
        }
        walked = {
            error.__name__ for _, _, error in FAILURES.values()
            if error is not None and issubclass(error, errors.PgbmError)
        }
        assert walked.isdisjoint(UNREACHABLE)
        assert walked | set(UNREACHABLE) == classes
