"""Batch command line: train, predict, evaluate, sweep.

Exit codes: 0 success, 2 usage or configuration error, 3 data or model
error; every failure prints a one-line diagnosis to stderr. Options can
come from a `--config <file>` of `key = value` lines (with `#`
comments); keys are the long flag names with underscores, and explicit
flags take precedence over file values.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .boost import (
    BoostConfig,
    Ensemble,
    accumulate_moments,
    predict_moments,
    train,
    tree_contributions,
)
from .data import RawDataset, load_csv
from .dist import FAMILIES, DistSpec, sample
from .errors import IoError, LengthMismatch, MissingColumn, ParseError, PgbmError
from .loss import hier_wmse_gradhess, load_hierarchy, mse_gradhess
from .metrics import (
    MetricReport,
    crps_empirical_rows,
    crps_normal,
    hierarchical_report,
    report_rows,
    rmse,
)
from .model_io import load as load_model
from .model_io import save as save_model
from .tree import TreeConfig

MAX_SAMPLE_COLUMNS = 10_000

_REQUIRED = {
    "train": ("data", "target", "model_out"),
    "predict": ("model", "data", "out"),
    "evaluate": ("pred", "actual"),
    "sweep": ("model", "data"),
}


def _rho_argument(text: str):
    return text if text == "auto" else float(text)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="pgbm",
        description="Probabilistic gradient boosting: train, predict, evaluate, sweep.",
    )
    parser.add_argument("--version", action="version", version=f"pgbm {__version__}")
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="read defaults from a `key = value` file; flags override it",
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub: dict[str, argparse.ArgumentParser] = {}

    p = commands.add_parser("train", help="fit a model and save it")
    p.add_argument("--data", help="training CSV")
    p.add_argument("--target", help="target column name")
    p.add_argument("--model-out", help="path for the saved model")
    p.add_argument("--valid", help="validation CSV scored every iteration")
    p.add_argument("--valid-metric", choices=("rmse", "crps"), default="rmse",
                   help="validation score (crps uses the normal closed form)")
    p.add_argument("--loss", choices=("mse", "hierwmse"), default="mse")
    p.add_argument("--hierarchy", help="hierarchy spec file (required for hierwmse)")
    p.add_argument("--n-estimators", type=int, default=100)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--bagging-fraction", type=float, default=1.0)
    p.add_argument("--feature-fraction", type=float, default=1.0)
    p.add_argument("--max-leaves", type=int, default=16)
    p.add_argument("--max-bin", type=int, default=64)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--min-split-gain", type=float, default=0.0)
    p.add_argument("--min-data-in-leaf", type=int, default=1)
    p.add_argument("--rho", type=_rho_argument, default="auto",
                   help="tree correlation in [-1,1], or `auto` for log10(n)/100")
    p.add_argument("--early-stopping-rounds", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    sub["train"] = p

    p = commands.add_parser("predict", help="write moments and samples for a dataset")
    p.add_argument("--model", help="saved model file")
    p.add_argument("--data", help="input CSV (extra columns are ignored)")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--dist", choices=FAMILIES, default="normal")
    p.add_argument("--rho", type=_rho_argument, default=None,
                   help="override the stored tree correlation")
    p.add_argument("--n-samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--point-only", action="store_true",
                   help="write only row,mu,var without sample columns")
    p.add_argument("--clamp-nonneg", action="store_true",
                   help="truncate samples at zero")
    sub["predict"] = p

    p = commands.add_parser("evaluate", help="score predictions against actuals")
    p.add_argument("--pred", help="CSV produced by predict")
    p.add_argument("--actual", help="CSV with the realized targets")
    p.add_argument("--target", help="target column in --actual")
    p.add_argument("--metrics", default="crps,rmse", help="comma list of crps,rmse")
    p.add_argument("--hierarchy", help="hierarchy spec file for per-level rows")
    p.add_argument("--out", help="also write the report CSV here")
    sub["evaluate"] = p

    p = commands.add_parser("sweep", help="grid CRPS over distributions and rho")
    p.add_argument("--model", help="saved model file")
    p.add_argument("--data", help="validation CSV including the target column")
    p.add_argument("--target", help="target column (defaults to the trained one)")
    p.add_argument("--dists", default="normal", help="comma list of families, or `all`")
    p.add_argument("--rhos", default="0:0.09:0.01",
                   help="comma list, or range start:stop:step (inclusive)")
    p.add_argument("--n-samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the grid CSV here")
    sub["sweep"] = p

    return parser, sub


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    entries: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ValueError(f"config line {lineno}: expected `key = value`")
        if key in entries:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _parse_config_bool(key: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"config key {key!r}: expected a boolean, got {value!r}")


def _apply_config(
    subparser: argparse.ArgumentParser, entries: dict[str, str]
) -> None:
    actions: dict[str, argparse.Action] = {}
    for action in subparser._actions:
        for option in action.option_strings:
            if option.startswith("--"):
                actions[option[2:].replace("-", "_")] = action
    defaults = {}
    for key, value in entries.items():
        action = actions.get(key)
        if action is None or key == "help":
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(action, argparse._StoreTrueAction):
            converted: object = _parse_config_bool(key, value)
        elif action.type is not None:
            try:
                converted = action.type(value)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
        else:
            converted = value
        if action.choices is not None and converted not in action.choices:
            raise ValueError(
                f"config key {key!r}: {converted!r} is not one of {list(action.choices)}"
            )
        defaults[action.dest] = converted
    subparser.set_defaults(**defaults)


def _check_required(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    for dest in _REQUIRED[args.command]:
        if getattr(args, dest) is None:
            flag = "--" + dest.replace("_", "-")
            parser.error(f"{args.command} requires {flag}")


def _select_features(model: Ensemble, raw: RawDataset, source: str) -> np.ndarray:
    columns = []
    for name in model.feature_names:
        if name not in raw.feature_names:
            raise MissingColumn(f"{source} is missing column {name!r}")
        columns.append(raw.feature_names.index(name))
    return raw.features[:, columns]


def _feature_dataset(model: Ensemble, path: str) -> RawDataset:
    """Load a CSV keeping exactly the model's feature columns, in
    training order; a present target column is simply dropped."""
    raw = load_csv(path, target_column=None)
    features = _select_features(model, raw, path)
    return RawDataset(features, np.zeros(raw.n), list(model.feature_names))


def _target_dataset(model: Ensemble, path: str, target: str | None) -> RawDataset:
    name = target if target is not None else model.target_name
    if name is None:
        raise ValueError("no target column recorded in the model; pass --target")
    raw = load_csv(path, target_column=name)
    features = _select_features(model, raw, path)
    return RawDataset(features, raw.target, list(model.feature_names), name)


def cmd_train(args: argparse.Namespace) -> int:
    data = load_csv(args.data, args.target)
    if args.loss == "hierwmse":
        if args.hierarchy is None:
            raise ValueError("--loss hierwmse requires --hierarchy")
        hierarchy = load_hierarchy(args.hierarchy)
        loss = lambda y, yhat: hier_wmse_gradhess(y, yhat, hierarchy)
    else:
        loss = mse_gradhess

    config = BoostConfig(
        n_estimators=args.n_estimators,
        learning_rate=args.learning_rate,
        bagging_fraction=args.bagging_fraction,
        feature_fraction=args.feature_fraction,
        tree=TreeConfig(
            max_leaves=args.max_leaves,
            max_bins=args.max_bin,
            lam=args.lam,
            min_split_gain=args.min_split_gain,
            min_data_in_leaf=args.min_data_in_leaf,
        ),
        rho=args.rho,
        early_stopping_rounds=args.early_stopping_rounds,
        seed=args.seed,
    )

    valid = None
    progress = None
    if args.valid is not None:
        valid_data = load_csv(args.valid, args.target)
        if args.valid_metric == "crps":
            metric = lambda y, mu, var: float(np.mean(crps_normal(y, mu, var)))
        else:
            metric = lambda y, mu, var: rmse(y, mu)
        valid = (valid_data, metric)

        def progress(k: int, value: float | None) -> None:
            print(f"iter {k} {args.valid_metric} {value:.6g}")

    model = train(data, loss, config, valid=valid, progress=progress)
    save_model(model, args.model_out)
    print(f"saved {args.model_out} ({len(model.trees)} trees)")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    data = _feature_dataset(model, args.data)
    rho = None if args.rho in (None, "auto") else float(args.rho)
    moments = predict_moments(model, data, rho=rho)

    header = ["row", "mu", "var"]
    matrix = None
    if not args.point_only:
        if args.n_samples > MAX_SAMPLE_COLUMNS:
            raise ValueError(
                f"--n-samples {args.n_samples} exceeds the cap of "
                f"{MAX_SAMPLE_COLUMNS} sample columns; reduce it or use --point-only"
            )
        spec = DistSpec(family=args.dist, clamp_nonneg=args.clamp_nonneg)
        result = sample(moments, spec, args.n_samples, args.seed)
        if result.fallback_rows:
            print(
                f"warning: {result.fallback_rows} rows were infeasible for "
                f"{args.dist} and fell back to normal",
                file=sys.stderr,
            )
        matrix = result.samples
        header.extend(f"s{j}" for j in range(args.n_samples))

    lines = [",".join(header)]
    for i in range(data.n):
        cells = [str(i), repr(float(moments.mu[i])), repr(float(moments.var[i]))]
        if matrix is not None:
            cells.extend(repr(float(v)) for v in matrix[:, i])
        lines.append(",".join(cells))
    try:
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {args.out} ({data.n} rows)")
    return 0


def _read_predictions(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(0, 0, f"{path} is empty") from None
            if header[:3] != ["row", "mu", "var"]:
                raise ParseError(0, 0, f"{path} does not look like predict output")
            n_extra = len(header) - 3
            mu, var, samples = [], [], []
            for r, cells in enumerate(reader):
                if len(cells) != len(header):
                    raise ParseError(r, len(cells), f"{path}: ragged row")
                try:
                    mu.append(float(cells[1]))
                    var.append(float(cells[2]))
                    if n_extra:
                        samples.append([float(v) for v in cells[3:]])
                except ValueError as exc:
                    raise ParseError(r, 0, f"{path}: {exc}") from exc
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    # Row-major layout keeps metric reductions bit-identical to in-process
    # sample matrices, so sweep cells match predict + evaluate exactly.
    matrix = np.ascontiguousarray(np.array(samples).T) if n_extra else None
    return np.array(mu), np.array(var), matrix


def _actual_targets(path: str, target: str | None) -> np.ndarray:
    raw = load_csv(path, target_column=None)
    if target is not None:
        if target not in raw.feature_names:
            raise MissingColumn(f"{path} has no column {target!r}")
        return raw.features[:, raw.feature_names.index(target)]
    if raw.f == 1:
        return raw.features[:, 0]
    raise ValueError(f"{path} has {raw.f} columns; pass --target to pick one")


def cmd_evaluate(args: argparse.Namespace) -> int:
    requested = [m.strip() for m in args.metrics.split(",") if m.strip()]
    for name in requested:
        if name not in ("crps", "rmse"):
            raise ValueError(f"unknown metric {name!r}; choose from crps,rmse")
    if not requested:
        raise ValueError("no metrics requested")

    mu, _, samples = _read_predictions(args.pred)
    y = _actual_targets(args.actual, args.target)
    if len(y) != len(mu):
        raise LengthMismatch(
            f"{args.pred} has {len(mu)} rows but {args.actual} has {len(y)}"
        )
    hierarchy = load_hierarchy(args.hierarchy) if args.hierarchy else None

    lines = ["metric,level,group,value,n"]
    for name in requested:
        if name == "crps" and samples is None:
            raise ValueError(
                "crps needs sample columns; rerun predict without --point-only"
            )
        pred = samples if name == "crps" else mu
        if hierarchy is not None:
            report = hierarchical_report(y, pred, hierarchy, metric=name)
        elif name == "crps":
            value = float(np.mean(crps_empirical_rows(samples, y)))
            report = MetricReport(name="crps", value=value, n=len(y))
        else:
            report = MetricReport(name="rmse", value=rmse(y, mu), n=len(y))
        lines.extend(report_rows(report))

    print("\n".join(lines))
    if args.out is not None:
        try:
            Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        except OSError as exc:
            raise IoError(f"cannot write {args.out}: {exc}") from exc
    return 0


def _parse_rhos(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("range step must be positive")
        count = int(round((stop - start) / step)) + 1
        values = [round(start + i * step, 12) for i in range(count)]
        return [v for v in values if v <= stop + 1e-12]
    return [float(p) for p in text.split(",") if p.strip()]


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.dists == "all":
        families = list(FAMILIES)
    else:
        families = [d.strip() for d in args.dists.split(",") if d.strip()]
        for family in families:
            if family not in FAMILIES:
                raise ValueError(
                    f"unknown family {family!r}; choose from {', '.join(FAMILIES)}"
                )
    if not families:
        raise ValueError("no families requested")
    rhos = _parse_rhos(args.rhos)
    if not rhos:
        raise ValueError("no rho values requested")
    if args.n_samples > MAX_SAMPLE_COLUMNS:
        raise ValueError(
            f"--n-samples {args.n_samples} exceeds the cap of {MAX_SAMPLE_COLUMNS}"
        )

    model = load_model(args.model)
    data = _target_dataset(model, args.data, args.target)
    contrib_mu, contrib_var = tree_contributions(model, data)
    moments_by_rho = {
        rho: accumulate_moments(model.y0, model.alpha, rho, contrib_mu, contrib_var)
        for rho in rhos
    }

    lines = ["dist,rho,crps"]
    best: tuple[str, float, float] | None = None
    for family in families:
        spec = DistSpec(family=family)
        for rho in rhos:
            result = sample(moments_by_rho[rho], spec, args.n_samples, args.seed)
            value = float(np.mean(crps_empirical_rows(result.samples, data.target)))
            lines.append(f"{family},{rho!r},{value!r}")
            if best is None or value < best[2]:
                best = (family, rho, value)

    print("\n".join(lines))
    print(f"best: dist={best[0]} rho={best[1]!r} crps={best[2]!r}")
    if args.out is not None:
        try:
            Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        except OSError as exc:
            raise IoError(f"cannot write {args.out}: {exc}") from exc
    return 0


_HANDLERS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subparsers = _build_parser()
    try:
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config")
        pre_args, rest = pre.parse_known_args(argv)
        command = next((t for t in rest if not t.startswith("-")), None)
        if pre_args.config is not None:
            if command not in subparsers:
                raise ValueError("--config requires a command (train/predict/evaluate/sweep)")
            _apply_config(subparsers[command], _read_config_file(pre_args.config))
        args = parser.parse_args(rest)
        if args.command is None:
            parser.error("a command is required (train/predict/evaluate/sweep)")
        _check_required(parser, args)
        return _HANDLERS[args.command](args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PgbmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
