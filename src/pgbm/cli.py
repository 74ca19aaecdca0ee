"""Batch command line: train, predict, evaluate, sweep.

Exit codes: 0 success, 2 usage or configuration error, 3 data or model
error; every failure, a usage error included, prints one `error:` line
to stderr. Options can come from a `--config <file>` of `key = value`
lines (with `#` comments). Each entry becomes the flag `--key=value`
(underscores in the key become dashes; a boolean flag is given or left
out), placed before the explicit flags, so the command's parser checks
it like any flag and an explicit flag takes precedence. No flag is
abbreviated.

predict writes its CSV text, sweep scores its grid cells, and every
command reads a large plain CSV input (see `load_csv`), on every CPU in
the process's affinity mask, in forked worker processes (limit it with
`taskset`); output bytes, the matrices read and errors do not depend on
the number of CPUs. Without `os.fork`, or where a fork fails, the work
runs in one process. Where a worker fails, the calling process does its
share in its place, so that any failure is one process's failure.
Columns are found by name; each name a command needs must name one column.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import struct
import sys
from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

from . import __version__, _shares, dist
from .boost import (
    BoostConfig,
    PredictiveMoments,
    _check_rho,
    predict_moments,
    predict_moments_by_rho,
    train,
)
from .data import OutputFile, RawDataset, load_csv, read_text, write_lines
from .dist import FAMILIES, DistSpec, check_draws, check_seed, sample_blocks
from .errors import DuplicateColumn, LengthMismatch, MissingColumn, ParseError, PgbmError
from .loss import hier_wmse_gradhess, load_hierarchy, mse_gradhess
from .metrics import (
    MetricReport,
    crps_normal,
    hierarchical_report,
    mean_crps,
    report_rows,
    rmse,
)
from .model_io import check_names
from .model_io import load as load_model
from .model_io import save as save_model
from .tree import TreeConfig

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator
    from _typeshed import SupportsWrite

    Cell = tuple[DistSpec, float]

MAX_SAMPLE_COLUMNS = 10_000
# Most rho values one `sweep --rhos` list or range may give.
MAX_RHO_VALUES = 1_000
# One scored sweep cell as a worker hands it back: its CRPS and the rows
# that fell back to normal.
_CELL = struct.Struct("<dq")


class _ArgumentParser(argparse.ArgumentParser):
    """Raises ValueError on a usage error instead of printing usage and
    exiting, so that main reports it like any other error. Flags are
    never abbreviated, so a misspelt config key is an unknown flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise ValueError(message)


def _rho_argument(text: str):
    if text == "auto":
        return text
    try:
        return float(text)
    except ValueError:
        message = f"expected a number or `auto`, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _ArgumentParser(
        prog="pgbm",
        description="Probabilistic gradient boosting: train, predict, evaluate, sweep.",
    )
    parser.add_argument("--version", action="version", version=f"pgbm {__version__}")
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="read defaults from a `key = value` file; flags override it",
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    sub: dict[str, argparse.ArgumentParser] = {}

    p = commands.add_parser("train", help="fit a model and save it")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--target", required=True, help="target column name")
    p.add_argument("--model-out", required=True, help="path for the saved model")
    p.add_argument("--valid", help="validation CSV scored every iteration")
    p.add_argument("--valid-metric", choices=("rmse", "crps"), default="rmse",
                   help="validation score (crps uses the normal closed form)")
    p.add_argument("--loss", choices=("mse", "hierwmse"), default="mse")
    p.add_argument("--hierarchy", help="hierarchy spec file (required for hierwmse)")
    # The model's configuration: a flag left out takes the BoostConfig or
    # TreeConfig default.
    p.add_argument("--n-estimators", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--bagging-fraction", type=float)
    p.add_argument("--feature-fraction", type=float)
    p.add_argument("--max-leaves", type=int)
    p.add_argument("--max-bin", dest="max_bins", metavar="MAX_BIN", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--min-split-gain", type=float)
    p.add_argument("--min-data-in-leaf", type=int)
    p.add_argument("--rho", type=_rho_argument,
                   help="tree correlation in [-1,1], or `auto` for log10(n)/100")
    p.add_argument("--early-stopping-rounds", type=int)
    p.add_argument("--seed", type=int)
    sub["train"] = p

    p = commands.add_parser("predict", help="write moments and samples for a dataset")
    p.add_argument("--model", required=True, help="saved model file")
    p.add_argument("--data", required=True, help="input CSV (extra columns are ignored)")
    p.add_argument("--out", required=True, help="output CSV path")
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
    p.add_argument("--pred", required=True, help="CSV produced by predict")
    p.add_argument("--actual", required=True, help="CSV with the realized targets")
    p.add_argument("--target", help="target column in --actual")
    p.add_argument("--metrics", default="crps,rmse",
                   help="comma list of crps,rmse, each at most once")
    p.add_argument("--hierarchy", help="hierarchy spec file for per-level rows")
    p.add_argument("--out", help="also write the report CSV here")
    sub["evaluate"] = p

    p = commands.add_parser("sweep", help="grid CRPS over distributions and rho")
    p.add_argument("--model", required=True, help="saved model file")
    p.add_argument("--data", required=True,
                   help="validation CSV including the target column")
    p.add_argument("--target", help="target column (defaults to the trained one)")
    p.add_argument("--dists", default="normal",
                   help="comma list of families, each at most once, or `all`")
    p.add_argument("--rhos", default="0:0.09:0.01",
                   help="comma list, or range start:stop:step (inclusive), of distinct values")
    p.add_argument("--n-samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the grid CSV here")
    sub["sweep"] = p

    return parser, sub


def _read_config_file(path: str) -> dict[str, str]:
    text = read_text(path)
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


def _config_flags(
    subparser: argparse.ArgumentParser, entries: dict[str, str]
) -> list[str]:
    """Turn config entries into the command-line flags they name."""
    flags = []
    for key, value in entries.items():
        dest = key.replace("-", "_")
        flag = "--" + dest.replace("_", "-")
        if subparser.get_default(dest) is False:
            if _parse_config_bool(key, value):
                flags.append(flag)
        else:
            flags.append(f"{flag}={value}")
    return flags


def _columns(path: str, header: list[str], names: list[str]) -> list[int]:
    """The position of each of ``names`` in ``header``, the column names
    of the file at ``path``. Raises MissingColumn for a name it lacks and
    DuplicateColumn for one it gives twice, since either could be meant."""
    count = Counter(header)
    for name in names:
        if not count[name]:
            raise MissingColumn(f"{path} is missing column {name!r}")
        if count[name] > 1:
            raise DuplicateColumn(f"{path} has {count[name]} columns named {name!r}")
    at = {name: k for k, name in enumerate(header)}
    return [at[name] for name in names]


def _named_columns(path: str, names: list[str], target: str | None = None) -> RawDataset:
    """Load a CSV keeping exactly the feature columns ``names`` (see
    `_columns`), in that order; with a ``target`` name that column is the
    target, and any other column is dropped."""
    raw = load_csv(path, target)
    columns = _columns(path, raw.feature_names, names)
    if target is not None:  # load_csv took the first column of that name
        _columns(path, [*raw.feature_names, target], [target])
    return RawDataset(raw.features[:, columns], raw.target, list(names), target)


def _check_sampling(n_samples: int, seed: int) -> None:
    """Refuse a sampling request before any file is read."""
    check_draws(n_samples, seed)
    if n_samples > MAX_SAMPLE_COLUMNS:
        raise ValueError(
            f"--n-samples {n_samples} exceeds the cap of {MAX_SAMPLE_COLUMNS} sample columns"
        )


def _warn_fallback(rows: int, family: str, where: str = "") -> None:
    if rows:
        message = f"{rows} rows were infeasible for {family}{where} and fell back to normal"
        print(f"warning: {message}", file=sys.stderr)


def cmd_train(args: argparse.Namespace) -> int:
    data = load_csv(args.data, args.target)
    names = [*data.feature_names, args.target]
    _columns(args.data, names, names)  # the model finds its features by name
    check_names(data.feature_names, args.target)
    if args.loss == "hierwmse":
        if args.hierarchy is None:
            raise ValueError("--loss hierwmse requires --hierarchy")
        hierarchy = load_hierarchy(args.hierarchy)
        loss = lambda y, yhat: hier_wmse_gradhess(y, yhat, hierarchy)
    else:
        loss = mse_gradhess

    given = {name: value for name, value in vars(args).items() if value is not None}
    pick = lambda cls: {name: given[name] for name in cls._fields if name in given}
    config = BoostConfig(tree=TreeConfig(**pick(TreeConfig)), **pick(BoostConfig))

    valid = None
    progress = None
    if args.valid is not None:
        valid_data = _named_columns(args.valid, data.feature_names, args.target)

        def metric(y, mu, var):  # evaluate's check: a score that is not finite fails
            crps = args.valid_metric == "crps"
            value = np.mean(crps_normal(y, mu, var)) if crps else rmse(y, mu)
            return MetricReport(name=args.valid_metric, value=float(value), n=len(y)).value

        valid = (valid_data, metric)

        def progress(k: int, value: float | None) -> None:
            print(f"iter {k} {args.valid_metric} {value:.6g}")

    model = train(data, loss, config, valid=valid, progress=progress)
    save_model(model, args.model_out)
    print(f"saved {args.model_out} ({len(model.trees)} trees)")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    check_seed(args.seed)
    if not args.point_only:
        _check_sampling(args.n_samples, args.seed)
    model = load_model(args.model)
    data = _named_columns(args.data, model.feature_names)
    rho = None if args.rho in (None, "auto") else float(args.rho)
    moments = predict_moments(model, data, rho=rho)

    header = ["row", "mu", "var"]
    draws = None
    if not args.point_only:
        spec = DistSpec(family=args.dist, clamp_nonneg=args.clamp_nonneg)
        fallback_rows, draws = sample_blocks(moments, spec, args.n_samples, args.seed)
        _warn_fallback(fallback_rows, args.dist)
        header.extend(f"s{j}" for j in range(args.n_samples))

    out_dir = os.path.dirname(os.path.abspath(args.out))
    with OutputFile(args.out) as out:
        _write_predictions(out, header, moments, draws, out_dir)
    print(f"wrote {args.out} ({data.n} rows)")
    return 0


def _write_predictions(
    out: SupportsWrite[bytes],
    header: list[str],
    moments: PredictiveMoments,
    draws: Callable[[int], Iterator[np.ndarray]] | None,
    tmpdir: str,
) -> None:
    """Write predict's CSV: the header, then `row,mu,var,s0,...` per row
    with the bytes of repr() for every real, formatted in numpy (see
    `_reprs`). Runs of blocks of rows are formatted on every CPU (see
    `_shares`; workers' text waits in ``tmpdir``), one `dist._BLOCK_ROWS`
    block at a time. ``draws``, the ``blocks`` of `sample_blocks`, draws
    each run's blocks from its first, so no process holds all the draws;
    each block is copied into one table of mu, var and draws."""
    from . import _reprs  # only predict pays for its tables

    out.write((",".join(header) + "\n").encode())
    size = dist._BLOCK_ROWS
    blocks = range(0, len(moments.mu), size)
    n = _shares.count(len(blocks), size * len(header))
    shares = [blocks[len(blocks) * k // n : len(blocks) * (k + 1) // n] for k in range(n)]

    def write_blocks(starts: range, file: SupportsWrite[bytes]) -> None:
        table = np.empty((size, len(header) - 1))  # a block's mu, var, draws
        drawn = None if draws is None else draws(starts.start // size)
        for start in starts:
            stop = start + size
            rows = table[: len(moments.mu[start:stop])]
            rows[:, 0], rows[:, 1] = moments.mu[start:stop], moments.var[start:stop]
            if drawn is not None:
                rows[:, 2:] = next(drawn).T
            file.write(_reprs.rows(start, rows))

    _shares.write(out, shares, write_blocks, tmpdir)


def _read_predictions(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    raw = load_csv(path, target_column=None)
    if raw.feature_names[:3] != ["row", "mu", "var"]:
        raise ParseError(0, 0, f"{path} does not look like predict output")
    return raw.features[:, 1], raw.features[:, 3:].T if raw.f > 3 else None


def _actual_targets(path: str, target: str | None) -> np.ndarray:
    raw = load_csv(path, target_column=None)
    if target is not None:
        return raw.features[:, _columns(path, raw.feature_names, [target])[0]]
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
    _check_unique("--metrics", requested)

    mu, samples = _read_predictions(args.pred)
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
        lines.extend(report_rows(hierarchical_report(y, pred, hierarchy, metric=name)))

    print("\n".join(lines))
    if args.out is not None:
        write_lines(args.out, lines)
    return 0


def _check_unique(flag: str, values: list) -> None:
    """Refuse a list flag that gives one value twice (a rho range can, when
    its step is below the rounding of its values)."""
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError(f"{flag} gives {value!r} more than once")
        seen.add(value)


def _parse_rhos(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"range {text!r} must have a finite start, stop and step")
        if step <= 0:
            raise ValueError("range step must be positive")
        if not (-1.0 <= start <= 1.0 and -1.0 <= stop <= 1.0):
            raise ValueError(f"range {text!r} must start and stop within [-1, 1]")
        span = (stop - start) / step  # inf when a tiny step overflows
        count = round(span) + 1 if math.isfinite(span) else math.inf
        if count > MAX_RHO_VALUES:
            raise ValueError(
                f"range {text!r} gives more than the cap of {MAX_RHO_VALUES} rho values"
            )
        values = [round(start + i * step, 12) for i in range(count)]
        return [v for v in values if v <= stop + 1e-12]
    values = [float(p) for p in text.split(",") if p.strip()]
    if len(values) > MAX_RHO_VALUES:
        raise ValueError(
            f"--rhos lists {len(values)} values, more than the cap of {MAX_RHO_VALUES}"
        )
    for value in values:
        _check_rho(value)
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    families = FAMILIES if args.dists == "all" else args.dists.split(",")
    specs = [DistSpec(family=f.strip()) for f in families if f.strip()]
    if not specs:
        raise ValueError("no families requested")
    _check_unique("--dists", [spec.family for spec in specs])
    rhos = _parse_rhos(args.rhos)
    if not rhos:
        raise ValueError("no rho values requested")
    _check_unique("--rhos", rhos)
    _check_sampling(args.n_samples, args.seed)

    model = load_model(args.model)
    target = args.target if args.target is not None else model.target_name
    if target is None:
        raise ValueError("no target column recorded in the model; pass --target")
    data = _named_columns(args.data, model.feature_names, target)
    moments_by_rho = dict(zip(rhos, predict_moments_by_rho(model, data, rhos)))

    cells = [(spec, rho) for spec in specs for rho in rhos]

    def score(cell: Cell) -> tuple[float, int]:
        spec, rho = cell
        fallback_rows, blocks = sample_blocks(moments_by_rho[rho], spec, args.n_samples, args.seed)
        # evaluate's check: a score that is not finite fails the command
        crps = MetricReport(name="crps", value=mean_crps(blocks(), data.target), n=data.n)
        return crps.value, fallback_rows

    # A fork costs about as much as scoring one cell, so each share holds a
    # pair of cells or more; cell k goes to share k mod n, so that a slow
    # family's cells spread over the shares.
    n = _shares.count(len(cells) // 2, 2 * data.n * args.n_samples)
    shares = [range(k, len(cells), n) for k in range(n)]

    def score_share(share: range, file: SupportsWrite[bytes]) -> None:
        for k in share:
            file.write(_CELL.pack(*score(cells[k])))

    records = _shares.gather(shares, score_share)
    if records is None:  # in this process, each cell's warning as it is scored
        scores = map(score, cells)
    else:
        order = [k for share in shares for k in share]
        scores = [record for _, record in sorted(zip(order, _CELL.iter_unpack(records)))]
    lines = ["dist,rho,crps"]
    best: tuple[str, float, float] | None = None
    for (spec, rho), (value, fallback_rows) in zip(cells, scores):
        _warn_fallback(fallback_rows, spec.family, f" at rho {rho!r}")
        lines.append(f"{spec.family},{rho!r},{value!r}")
        if best is None or value < best[2]:
            best = (spec.family, rho, value)

    print("\n".join(lines))
    print(f"best: dist={best[0]} rho={best[1]!r} crps={best[2]!r}")
    if args.out is not None:
        write_lines(args.out, lines)
    return 0


_HANDLERS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
}


def _attach_negative_rhos(argv: list[str]) -> list[str]:
    """Join a bare `--rhos` with a next token that starts with `-` and a
    digit or `.`, as `--rhos=-0.1:0.1:0.05`: argparse takes any other
    token that starts with `-` than a plain negative number for a flag."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] == "--rhos" and re.match(r"-[0-9.]", token):
            joined[-1] = f"--rhos={token}"
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    argv = _attach_negative_rhos(argv)
    parser, subparsers = _build_parser()
    try:
        pre = _ArgumentParser(add_help=False)
        pre.add_argument("--config")
        pre_args, rest = pre.parse_known_args(argv)
        command = next((t for t in rest if not t.startswith("-")), None)
        if pre_args.config is not None and command in subparsers:
            at = rest.index(command) + 1
            rest[at:at] = _config_flags(
                subparsers[command], _read_config_file(pre_args.config)
            )
        args = parser.parse_args(rest)
        return _HANDLERS[args.command](args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PgbmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
