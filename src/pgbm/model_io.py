"""Text persistence for trained ensembles.

The format is line-oriented UTF-8 (`pgbmfmt v1`): a header, a fixed
sequence of `key = value` scalars, one `edges` line per feature, then
per-tree blocks of `node` and `leaf` lines. All reals are rendered with
repr(), the shortest decimal that round-trips the double exactly, so a
file that ``save`` wrote is byte-identical after load -> save, and
reloaded models predict bit-for-bit the same. Child references inside a
node line use N<id> for split nodes and L<id> for leaves. The loader
reads exactly the layout ``save`` writes: scalars in order, then each
tree's node lines and leaf lines in id order. Anything else raises
CorruptModel; a number that int() or float() reads in another spelling
(``1``, ``-0``, ``9223372036854775808``) loads, and saves as repr() has it.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from operator import attrgetter
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


def check_names(feature_names: list[str], target_name: str | None) -> list[str]:
    """Return ``feature_names``, or raise ValueError for a name the model
    file cannot hold: a comma in a feature name, a feature name given
    twice, or in any name a line boundary of `str.splitlines`, by which
    `load` splits the file."""
    for name, count in Counter(feature_names).items():
        if "," in name:
            raise ValueError(f"feature name {name!r} cannot contain ','")
        if count > 1:
            raise ValueError(f"feature name {name!r} is given {count} times")
    for name in [*feature_names, target_name or ""]:
        if name.splitlines() not in ([], [name]):
            raise ValueError(f"column name {name!r} cannot contain a line break")
    return feature_names


def _finite(text: str, what: str = "value") -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite {what} {value!r}")
    return value


def _at_least(low: int, text: str) -> int:
    value = int(text)
    if value < low:
        raise ValueError(f"{value} is below {low}")
    return value


# Every scalar key in file order: the attribute of an ``Ensemble`` that
# holds its value (through ``config`` and ``config.tree``), how ``save``
# writes that value and how ``load`` reads it back. A key written with
# ``len`` counts the feature names or the tree blocks that follow. Only
# the ``target_column`` line may be absent, when ``target_name`` is None.
_SCALARS = {
    "n_estimators": ("config.n_estimators", str, int),
    "learning_rate": ("config.learning_rate", _real, _finite),
    "bagging_fraction": ("config.bagging_fraction", _real, _finite),
    "feature_fraction": ("config.feature_fraction", _real, _finite),
    "max_leaves": ("config.tree.max_leaves", str, int),
    "max_bins": ("config.tree.max_bins", str, int),
    "lambda": ("config.tree.lam", _real, _finite),
    "min_split_gain": ("config.tree.min_split_gain", _real, _finite),
    "min_data_in_leaf": ("config.tree.min_data_in_leaf", str, int),
    "rho_config": (
        "config.rho",
        lambda rho: "auto" if rho == "auto" else _real(rho),
        lambda text: text if text == "auto" else _finite(text),
    ),
    "early_stopping_rounds": (
        "config.early_stopping_rounds",
        lambda rounds: "none" if rounds is None else str(rounds),
        lambda text: None if text == "none" else int(text),
    ),
    "seed": ("config.seed", str, int),
    "y0": ("y0", _real, _finite),
    "alpha": ("alpha", _real, _finite),
    "rho": ("rho_default", _real, lambda text: _check_rho(_finite(text))),
    "n_train": ("n_train", str, lambda text: _at_least(1, text)),
    "n_features": ("feature_names", len, int),
    "feature_names": ("feature_names", ",".join, lambda text: check_names(text.split(","), None)),
    "target_column": ("target_name", str, str),
    "n_trees": ("trees", len, lambda text: _at_least(0, text)),
}


def _format_lines(model: Ensemble) -> list[str]:
    check_names(model.feature_names, model.target_name)
    lines = [_HEADER]
    for key, (where, write, _) in _SCALARS.items():
        value = attrgetter(where)(model)
        if value is not None or where != "target_name":
            lines.append(f"{key} = {write(value)}")
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

    fields = defaultdict(dict)  # keyword arguments by owner: "", "config" or "config.tree"
    counts = {}
    pos = 1
    for key, (where, write, read) in _SCALARS.items():
        line = _line(lines, pos, f"'{key} = ...'")
        name, sep, value = line.partition(" = ")
        if where == "target_name" and name != key:
            continue
        if name != key or not sep:
            raise CorruptModel(pos + 1, f"expected '{key} = ...', got {line!r}")
        owner, _, field = where.rpartition(".")
        try:
            (counts if write is len else fields[owner])[field] = read(value)
        except ValueError as exc:
            raise CorruptModel(pos + 1, f"bad value for {key}: {exc}") from exc
        pos += 1

    n_features, n_names = counts["feature_names"], len(fields[""]["feature_names"])
    if n_names != n_features:
        raise CorruptModel(pos + 1, f"{n_names} feature names for {n_features} features")

    edge_arrays = [
        _parse_line(lines, pos + j, "edges", f"{j}:", _read_edges) for j in range(n_features)
    ]
    pos += n_features
    edge_counts = [values.size for values in edge_arrays]
    trees = []
    for k in range(counts["trees"]):
        tree, pos = _parse_tree(lines, pos, k, edge_counts)
        trees.append(tree)
    if pos < len(lines):
        raise CorruptModel(pos + 1, f"trailing content {lines[pos]!r}")

    try:
        tree_config = TreeConfig(**fields["config.tree"])
        config = BoostConfig(tree=tree_config, **fields["config"])
    except ValueError as exc:
        raise CorruptModel(2, f"invalid configuration: {exc}") from exc
    return Ensemble(trees=trees, edges=BinEdges(tuple(edge_arrays)), config=config, **fields[""])
