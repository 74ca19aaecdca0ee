"""Text persistence for trained ensembles.

The format is line-oriented UTF-8 (`pgbmfmt v1`): a header, a fixed
sequence of `key = value` scalars, one `edges` line per feature, then
per-tree blocks of `node` and `leaf` lines. All reals are rendered with
repr(), the shortest decimal that round-trips the double exactly, so
save -> load -> save is byte-identical and reloaded models predict
bit-for-bit the same. Child references inside a node line use N<id> for
split nodes and L<id> for leaves.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .boost import BoostConfig, Ensemble
from .data import BinEdges, read_text, write_lines
from .errors import CorruptModel, VersionMismatch
from .tree import LEAF_DTYPE, LeafStats, Tree, TreeConfig

_HEADER = "pgbmfmt v1"
# Leaf counts are stored as int64 (the ``n`` field of ``LEAF_DTYPE``).
_MAX_COUNT = int(np.iinfo(LEAF_DTYPE["n"]).max)

_SCALAR_KEYS = (
    "n_estimators",
    "learning_rate",
    "bagging_fraction",
    "feature_fraction",
    "max_leaves",
    "max_bins",
    "lambda",
    "min_split_gain",
    "min_data_in_leaf",
    "rho_config",
    "early_stopping_rounds",
    "seed",
    "y0",
    "alpha",
    "rho",
    "n_train",
    "n_features",
    "feature_names",
    "n_trees",
)


def _real(value) -> str:
    # float() first: under numpy 2 the repr of a numpy scalar is
    # "np.float64(...)", which the loader cannot parse.
    return repr(float(value))


def _ref_token(ref: int) -> str:
    return f"N{ref}" if ref >= 0 else f"L{~ref}"


def _format_lines(model: Ensemble) -> list[str]:
    config = model.config
    tree_config = config.tree
    for name in model.feature_names:
        if "," in name or "\n" in name:
            raise ValueError(f"feature name {name!r} cannot contain ',' or newline")
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


class _Parser:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 0

    @property
    def lineno(self) -> int:
        return self.pos + 1

    def peek(self) -> str | None:
        if self.pos < len(self.lines):
            return self.lines[self.pos]
        return None

    def take(self, what: str) -> str:
        line = self.peek()
        if line is None:
            raise CorruptModel(len(self.lines) + 1, f"unexpected end of file, expected {what}")
        self.pos += 1
        return line


def _parse_ref(token: str, lineno: int) -> int:
    kind, body = token[:1], token[1:]
    if kind not in ("N", "L") or not body.isdigit():
        raise CorruptModel(lineno, f"bad child reference {token!r}")
    value = int(body)
    return value if kind == "N" else ~value


def _finite(value: float, what: str, lineno: int) -> float:
    if not math.isfinite(value):
        raise CorruptModel(lineno, f"non-finite {what} {value!r}")
    return value


def _parse_scalar(key: str, value: str, lineno: int):
    try:
        if key in ("n_estimators", "max_leaves", "max_bins", "min_data_in_leaf",
                   "seed", "n_train", "n_features", "n_trees"):
            return int(value)
        if key in ("learning_rate", "bagging_fraction", "feature_fraction",
                   "lambda", "min_split_gain", "y0", "alpha"):
            return _finite(float(value), key, lineno)
        if key == "rho":
            rho = _finite(float(value), key, lineno)
            if not -1.0 <= rho <= 1.0:
                raise CorruptModel(lineno, f"rho {rho!r} outside [-1, 1]")
            return rho
        if key == "rho_config":
            return value if value == "auto" else _finite(float(value), key, lineno)
        if key == "early_stopping_rounds":
            return None if value == "none" else int(value)
        if key == "feature_names":
            return value.split(",")
        if key == "target_column":
            return value
    except ValueError as exc:
        raise CorruptModel(lineno, f"bad value for {key}: {exc}") from exc
    raise CorruptModel(lineno, f"unknown key {key!r}")


def _parse_tree(parser: _Parser, index: int, edge_counts: list[int]) -> Tree:
    """Parse one tree block and check that it is a tree the grower could
    have made: features in range, thresholds that split their feature's
    bins, and children that follow their parent (the grower numbers
    split nodes in split order) and are referenced exactly once. Those
    checks rule out cycles and unreachable nodes, so routing terminates.
    """
    header_lineno = parser.lineno
    header = parser.take(f"tree {index}")
    if header != f"tree {index}":
        raise CorruptModel(header_lineno, f"expected 'tree {index}', got {header!r}")
    nodes: dict[int, tuple[int, int, int, int, float]] = {}
    leaves: dict[int, LeafStats] = {}
    while True:
        line = parser.peek()
        if line is None or line.startswith("tree "):
            break
        lineno = parser.lineno
        parts = parser.take("node or leaf line").split()
        try:
            if parts[0] == "node" and len(parts) == 7:
                node_id = int(parts[1])
                feature = int(parts[2])
                threshold = int(parts[3])
                left = _parse_ref(parts[4], lineno)
                right = _parse_ref(parts[5], lineno)
                gain = _finite(float(parts[6]), "gain", lineno)
                if not 0 <= feature < len(edge_counts):
                    raise CorruptModel(
                        lineno,
                        f"feature {feature} outside 0..{len(edge_counts) - 1}",
                    )
                n_edges = edge_counts[feature]
                if not 0 <= threshold < n_edges:
                    raise CorruptModel(
                        lineno,
                        f"threshold {threshold} does not split the "
                        f"{n_edges + 1} bins of feature {feature}",
                    )
                if node_id in nodes:
                    raise CorruptModel(lineno, f"duplicate node id {node_id}")
                nodes[node_id] = (feature, threshold, left, right, gain)
            elif parts[0] == "leaf" and len(parts) == 5:
                leaf_id = int(parts[1])
                leaf = LeafStats(
                    mu=_finite(float(parts[2]), "leaf mean", lineno),
                    var=_finite(float(parts[3]), "leaf variance", lineno),
                    n=int(parts[4]),
                )
                if leaf.var < 0:
                    raise CorruptModel(lineno, f"negative leaf variance {leaf.var!r}")
                if leaf.n < 1:
                    raise CorruptModel(lineno, f"empty leaf {leaf_id}")
                if leaf.n > _MAX_COUNT:
                    raise CorruptModel(
                        lineno, f"leaf {leaf_id} count {leaf.n} too large"
                    )
                if leaf_id in leaves:
                    raise CorruptModel(lineno, f"duplicate leaf id {leaf_id}")
                leaves[leaf_id] = leaf
            else:
                raise CorruptModel(lineno, f"expected node or leaf line, got {parts[0]!r}")
        except ValueError as exc:
            raise CorruptModel(lineno, f"bad tree line: {exc}") from exc
    if not leaves:
        raise CorruptModel(header_lineno, f"tree {index} has no leaves")
    if sorted(nodes) != list(range(len(nodes))):
        raise CorruptModel(header_lineno, f"tree {index} node ids are not 0..{len(nodes) - 1}")
    if sorted(leaves) != list(range(len(leaves))):
        raise CorruptModel(header_lineno, f"tree {index} leaf ids are not 0..{len(leaves) - 1}")
    if len(leaves) != len(nodes) + 1:
        raise CorruptModel(
            header_lineno,
            f"tree {index} has {len(nodes)} nodes but {len(leaves)} leaves",
        )
    referenced: set[int] = set()
    for node_id, (_, _, left, right, _) in nodes.items():
        for ref in (left, right):
            target = ref if ref >= 0 else ~ref
            pool = nodes if ref >= 0 else leaves
            if target not in pool:
                raise CorruptModel(
                    header_lineno,
                    f"tree {index} node {node_id} references missing child {_ref_token(ref)}",
                )
            if 0 <= ref <= node_id:
                raise CorruptModel(
                    header_lineno,
                    f"tree {index} node {node_id} has child {_ref_token(ref)}, "
                    "which does not follow it",
                )
            if ref in referenced:
                raise CorruptModel(
                    header_lineno,
                    f"tree {index} references {_ref_token(ref)} more than once",
                )
            referenced.add(ref)
    return Tree(
        nodes=[nodes[i] for i in range(len(nodes))],
        leaves=[leaves[i] for i in range(len(leaves))],
    )


def load(path: str | Path) -> Ensemble:
    parser = _Parser(read_text(path).splitlines())

    header = parser.peek()
    if header is None:
        raise CorruptModel(1, "empty file")
    if header != _HEADER:
        if header.startswith("pgbmfmt"):
            raise VersionMismatch(f"unsupported format {header!r}, expected {_HEADER!r}")
        raise CorruptModel(1, f"not a model file (header {header!r})")
    parser.take("header")

    scalars: dict[str, object] = {}
    while True:
        line = parser.peek()
        if line is None or line.startswith("edges ") or line.startswith("tree "):
            break
        lineno = parser.lineno
        key, sep, value = parser.take("scalar line").partition(" = ")
        if not sep:
            raise CorruptModel(lineno, f"expected 'key = value', got {key!r}")
        if key in scalars:
            raise CorruptModel(lineno, f"duplicate key {key!r}")
        scalars[key] = _parse_scalar(key, value, lineno)
    for key in _SCALAR_KEYS:
        if key not in scalars:
            raise CorruptModel(parser.lineno, f"missing key {key!r}")

    n_features = scalars["n_features"]
    feature_names = scalars["feature_names"]
    if len(feature_names) != n_features:
        raise CorruptModel(
            parser.lineno, f"{len(feature_names)} feature names for {n_features} features"
        )

    edge_arrays = []
    for j in range(n_features):
        lineno = parser.lineno
        line = parser.take(f"edges {j}")
        prefix, sep, rest = line.partition(":")
        if not sep or prefix != f"edges {j}":
            raise CorruptModel(lineno, f"expected 'edges {j}:', got {line!r}")
        rest = rest.strip()
        try:
            values = np.array([float(v) for v in rest.split(",")] if rest else [])
        except ValueError as exc:
            raise CorruptModel(lineno, f"bad edge value: {exc}") from exc
        if not np.all(np.isfinite(values)):
            raise CorruptModel(lineno, f"edges {j} hold a non-finite value")
        if values.size > 1 and not np.all(np.diff(values) > 0):
            raise CorruptModel(lineno, f"edges {j} are not strictly increasing")
        edge_arrays.append(values)

    edge_counts = [values.size for values in edge_arrays]
    trees = [_parse_tree(parser, k, edge_counts) for k in range(scalars["n_trees"])]
    if parser.peek() is not None:
        raise CorruptModel(parser.lineno, f"trailing content {parser.peek()!r}")

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
