"""Text persistence for trained ensembles.

The format is line-oriented UTF-8 (`pgbmfmt v1`): a header, a fixed
sequence of `key = value` scalars, one `edges` line per feature, then
per-tree blocks of `node` and `leaf` lines. All reals are rendered with
repr(), the shortest decimal that round-trips the double exactly, so
save -> load -> save is byte-identical and reloaded models predict
bit-for-bit the same. Child references inside a node line use N<id> for
split nodes and L<id> for leaves. The loader reads exactly the layout
``save`` writes: scalars in order, then each tree's node lines and leaf
lines in id order. Anything else raises CorruptModel.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .boost import BoostConfig, Ensemble, _check_rho
from .data import BinEdges, read_text, write_lines
from .errors import CorruptModel, VersionMismatch
from .tree import Tree, TreeConfig

_HEADER = "pgbmfmt v1"
# Leaf counts and child references are stored as int64.
_MAX_INT = int(np.iinfo(np.int64).max)


def _real(value) -> str:
    # float() first: under numpy 2 the repr of a numpy scalar is
    # "np.float64(...)", which the loader cannot parse.
    return repr(float(value))


def _ref_token(ref: int) -> str:
    return f"N{ref}" if ref >= 0 else f"L{~ref}"


def check_names(feature_names: list[str], target_name: str | None) -> None:
    """Raise ValueError for a name the model file cannot hold: a comma in
    a feature name, or in any name a line boundary of `str.splitlines`,
    by which `load` splits the file."""
    for name in feature_names:
        if "," in name:
            raise ValueError(f"feature name {name!r} cannot contain ','")
    for name in [*feature_names, target_name or ""]:
        if name.splitlines() not in ([], [name]):
            raise ValueError(f"column name {name!r} cannot contain a line break")


def _format_lines(model: Ensemble) -> list[str]:
    config = model.config
    tree_config = config.tree
    check_names(model.feature_names, model.target_name)
    rho_config = (
        "auto" if config.rho == "auto" else _real(config.rho)
    )
    stopping = (
        "none"
        if config.early_stopping_rounds is None
        else str(config.early_stopping_rounds)
    )
    lines = [
        _HEADER,
        f"n_estimators = {config.n_estimators}",
        f"learning_rate = {_real(config.learning_rate)}",
        f"bagging_fraction = {_real(config.bagging_fraction)}",
        f"feature_fraction = {_real(config.feature_fraction)}",
        f"max_leaves = {tree_config.max_leaves}",
        f"max_bins = {tree_config.max_bins}",
        f"lambda = {_real(tree_config.lam)}",
        f"min_split_gain = {_real(tree_config.min_split_gain)}",
        f"min_data_in_leaf = {tree_config.min_data_in_leaf}",
        f"rho_config = {rho_config}",
        f"early_stopping_rounds = {stopping}",
        f"seed = {config.seed}",
        f"y0 = {_real(model.y0)}",
        f"alpha = {_real(model.alpha)}",
        f"rho = {_real(model.rho_default)}",
        f"n_train = {model.n_train}",
        f"n_features = {len(model.feature_names)}",
        f"feature_names = {','.join(model.feature_names)}",
    ]
    if model.target_name is not None:
        lines.append(f"target_column = {model.target_name}")
    lines.append(f"n_trees = {len(model.trees)}")
    for j, edge_values in enumerate(model.edges.edges):
        joined = ",".join(_real(v) for v in edge_values)
        lines.append(f"edges {j}:" + (f" {joined}" if joined else ""))
    for k, tree in enumerate(model.trees):
        lines.append(f"tree {k}")
        for node_id, (feature, threshold, left, right, gain) in enumerate(
            tree.nodes.tolist()
        ):
            lines.append(
                f"node {node_id} {feature} {threshold} "
                f"{_ref_token(left)} {_ref_token(right)} {_real(gain)}"
            )
        for leaf_id, (mu, var, n) in enumerate(tree.leaves.tolist()):
            lines.append(f"leaf {leaf_id} {_real(mu)} {_real(var)} {n}")
    return lines


def save(model: Ensemble, path: str | Path) -> None:
    write_lines(path, _format_lines(model))


def _finite(text: str, what: str = "value") -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite {what} {value!r}")
    return value


# Every scalar key in the order ``save`` writes it, with the reader of
# its value. Only ``target_column`` may be absent.
_SCALARS = {
    "n_estimators": int,
    "learning_rate": _finite,
    "bagging_fraction": _finite,
    "feature_fraction": _finite,
    "max_leaves": int,
    "max_bins": int,
    "lambda": _finite,
    "min_split_gain": _finite,
    "min_data_in_leaf": int,
    "rho_config": lambda text: text if text == "auto" else _finite(text),
    "early_stopping_rounds": lambda text: None if text == "none" else int(text),
    "seed": int,
    "y0": _finite,
    "alpha": _finite,
    "rho": lambda text: _check_rho(_finite(text)),
    "n_train": int,
    "n_features": int,
    "feature_names": lambda text: text.split(","),
    "target_column": str,
    "n_trees": int,
}


def _line(lines: list[str], pos: int, what: str) -> str:
    if pos >= len(lines):
        raise CorruptModel(pos + 1, f"unexpected end of file, expected {what}")
    return lines[pos]


def _parse_ref(token: str) -> int:
    kind, body = token[:1], token[1:]
    if kind not in ("N", "L") or not body.isdigit() or int(body) > _MAX_INT:
        raise ValueError(f"bad child reference {token!r}")
    return int(body) if kind == "N" else ~int(body)


def _read_node(fields: list[str], edge_counts: list[int]) -> tuple:
    feature, threshold, left, right, gain = fields
    feature, threshold = int(feature), int(threshold)
    if not 0 <= feature < len(edge_counts):
        raise ValueError(f"feature {feature} outside 0..{len(edge_counts) - 1}")
    if not 0 <= threshold < edge_counts[feature]:
        raise ValueError(
            f"threshold {threshold} does not split the "
            f"{edge_counts[feature] + 1} bins of feature {feature}"
        )
    return feature, threshold, _parse_ref(left), _parse_ref(right), _finite(gain, "gain")


def _read_leaf(fields: list[str]) -> tuple:
    mu, var, n = fields
    mu, var, n = _finite(mu, "leaf mean"), _finite(var, "leaf variance"), int(n)
    if var < 0:
        raise ValueError(f"negative leaf variance {var!r}")
    if not 1 <= n <= _MAX_INT:
        raise ValueError(f"leaf count {n} outside 1..{_MAX_INT}")
    return mu, var, n


def _read_edges(fields: list[str]) -> np.ndarray:
    (text,) = fields or [""]
    values = np.array([_finite(v) for v in text.split(",")] if text else [])
    if values.size > 1 and not np.all(np.diff(values) > 0):
        raise ValueError("values are not strictly increasing")
    return values


def _parse_line(lines: list[str], pos: int, kind: str, ident: int | str, read):
    """Read line ``pos`` as ``<kind> <ident>`` and the fields ``read`` takes."""
    line = _line(lines, pos, f"{kind} {ident}")
    parts = line.split()
    if parts[:2] != [kind, str(ident)]:
        raise CorruptModel(pos + 1, f"expected '{kind} {ident} ...', got {line!r}")
    try:
        return read(parts[2:])
    except ValueError as exc:
        raise CorruptModel(pos + 1, f"bad {kind} line: {exc}") from exc


def _parse_tree(
    lines: list[str], pos: int, index: int, edge_counts: list[int]
) -> tuple[Tree, int]:
    """Read tree block ``index`` from line ``pos`` on: its header, node
    lines 0..N-1 and leaf lines 0..N. ``Tree`` checks the links. Returns
    the tree and the position after the block."""
    header = _line(lines, pos, f"tree {index}")
    if header != f"tree {index}":
        raise CorruptModel(pos + 1, f"expected 'tree {index}', got {header!r}")
    header_lineno = pos + 1
    nodes, leaves = [], []
    while pos + 1 < len(lines) and lines[pos + 1].startswith("node "):
        pos += 1
        nodes.append(_parse_line(
            lines, pos, "node", len(nodes), lambda fields: _read_node(fields, edge_counts)
        ))
    while len(leaves) <= len(nodes):
        pos += 1
        leaves.append(_parse_line(lines, pos, "leaf", len(leaves), _read_leaf))
    try:
        return Tree(nodes=nodes, leaves=leaves), pos + 1
    except ValueError as exc:
        raise CorruptModel(header_lineno, f"tree {index}: {exc}") from exc


def load(path: str | Path) -> Ensemble:
    lines = read_text(path).splitlines()
    if not lines:
        raise CorruptModel(1, "empty file")
    if lines[0] != _HEADER:
        if lines[0].startswith("pgbmfmt"):
            raise VersionMismatch(f"unsupported format {lines[0]!r}, expected {_HEADER!r}")
        raise CorruptModel(1, f"not a model file (header {lines[0]!r})")

    scalars: dict[str, object] = {}
    pos = 1
    for key, reader in _SCALARS.items():
        line = _line(lines, pos, f"'{key} = ...'")
        name, sep, value = line.partition(" = ")
        if key == "target_column" and name != key:
            scalars[key] = None
            continue
        if name != key or not sep:
            raise CorruptModel(pos + 1, f"expected '{key} = ...', got {line!r}")
        try:
            scalars[key] = reader(value)
        except ValueError as exc:
            raise CorruptModel(pos + 1, f"bad value for {key}: {exc}") from exc
        pos += 1

    n_features = scalars["n_features"]
    feature_names = scalars["feature_names"]
    if len(feature_names) != n_features:
        raise CorruptModel(
            pos + 1, f"{len(feature_names)} feature names for {n_features} features"
        )

    edge_arrays = [
        _parse_line(lines, pos + j, "edges", f"{j}:", _read_edges) for j in range(n_features)
    ]
    pos += n_features
    edge_counts = [values.size for values in edge_arrays]
    trees = []
    for k in range(scalars["n_trees"]):
        tree, pos = _parse_tree(lines, pos, k, edge_counts)
        trees.append(tree)
    if pos < len(lines):
        raise CorruptModel(pos + 1, f"trailing content {lines[pos]!r}")

    try:
        tree_config = TreeConfig(
            max_leaves=scalars["max_leaves"],
            max_bins=scalars["max_bins"],
            lam=scalars["lambda"],
            min_split_gain=scalars["min_split_gain"],
            min_data_in_leaf=scalars["min_data_in_leaf"],
        )
        config = BoostConfig(
            n_estimators=scalars["n_estimators"],
            learning_rate=scalars["learning_rate"],
            bagging_fraction=scalars["bagging_fraction"],
            feature_fraction=scalars["feature_fraction"],
            tree=tree_config,
            rho=scalars["rho_config"],
            early_stopping_rounds=scalars["early_stopping_rounds"],
            seed=scalars["seed"],
        )
    except ValueError as exc:
        raise CorruptModel(2, f"invalid configuration: {exc}") from exc

    return Ensemble(
        trees=trees,
        y0=scalars["y0"],
        alpha=scalars["alpha"],
        rho_default=scalars["rho"],
        edges=BinEdges(tuple(edge_arrays)),
        config=config,
        n_train=scalars["n_train"],
        feature_names=feature_names,
        target_name=scalars.get("target_column"),
    )
