"""End-to-end command-line behavior, in process."""

from __future__ import annotations

import numpy as np
import pytest

from pgbm.cli import main

from conftest import make_regression


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

    @pytest.mark.parametrize("rho", ["nan", "inf", "2", "-1.5"])
    def test_rho_outside_unit_interval(self, workspace, tmp_path, capsys, rho):
        out = tmp_path / "pred.csv"
        assert self.predict(workspace, out, ["--rho", rho]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: rho") and "outside [-1, 1]" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_rho_override_changes_var(self, workspace, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert self.predict(workspace, a, ["--point-only", "--rho", "0.0"]) == 0
        assert self.predict(workspace, b, ["--point-only", "--rho", "0.9"]) == 0
        var_a = [float(line.split(",")[2]) for line in read_lines(a)[1:]]
        var_b = [float(line.split(",")[2]) for line in read_lines(b)[1:]]
        assert sum(var_a) > sum(var_b)


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


class TestEvaluate:
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
                "laplace",
                "--rhos",
                "0.02",
                "--n-samples",
                "25",
                "--seed",
                "9",
            ]
        )
        sweep_out = capsys.readouterr().out
        assert code == 0
        cell = next(
            line for line in sweep_out.splitlines() if line.startswith("laplace,")
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
        assert eval_crps == sweep_crps

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
