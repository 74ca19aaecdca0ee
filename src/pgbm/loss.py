"""Gradient and hessian providers for the training losses.

Boosting only ever sees a loss through its per-sample gradient g and
hessian h at the current estimates. Two analytic providers are shipped,
plain MSE and the hierarchical weighted MSE that couples samples through
group sums, plus a central finite-difference provider for user-supplied
separable losses.

Conventions: the MSE is defined without a 1/2 factor, so g = 2(yhat - y)
and h = 2. The hierarchical loss is

    L = sum over levels a, groups G of level a:
            w_a * (sum_{i in G} y_i - sum_{i in G} yhat_i)^2

whose exact derivatives are g_i = -2 * sum_a w_a * r(a, group of i) with
r the group residual sum, and h_i = 2 * sum_a w_a.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np

from ._value import Value
from .data import read_text
from .errors import (
    IndexOutOfRange,
    LengthMismatch,
    NonFiniteLoss,
    ParseError,
)

DEFAULT_FD_STEP = 1e-5


class GradHess(Value):
    """Per-sample gradient and hessian vectors for one iteration.

    ``objective`` is the loss at the estimates the derivatives were taken
    at, or None when the provider does not compute it; training uses it
    to detect divergence.
    """

    g: np.ndarray
    h: np.ndarray
    objective: float | None = None

    def __post_init__(self):
        g = np.ascontiguousarray(self.g, dtype=np.float64)
        h = np.ascontiguousarray(self.h, dtype=np.float64)
        if g.shape != h.shape or g.ndim != 1:
            raise LengthMismatch("gradient and hessian must be equal-length vectors")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)


class HierarchyLevel(Value):
    """One aggregation level: a weight and a partition of the sample rows.

    ``identity=True`` marks the level where every sample is its own
    group; its groups are generated on the fly and ``groups`` stays None.
    """

    weight: float
    groups: dict[str, np.ndarray] | None = None
    identity: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.weight) and self.weight >= 0):
            raise ValueError("level weights must be finite and nonnegative")


class HierarchySpec(Value):
    """Ordered aggregation levels; each level partitions the samples.

    Each level's partition is resolved and checked once per row count and
    then cached on the instance, so a spec (its levels and their group
    arrays) must not be mutated after its first use.
    """

    levels: list[HierarchyLevel]

    def __post_init__(self):
        object.__setattr__(self, "_resolved", {})  # (level, n) -> (ids, keys); not a field
        if not self.levels:
            raise ValueError("a hierarchy needs at least one level")
        if all(level.weight == 0 for level in self.levels):
            raise ValueError("level weights must not all be zero")

    def group_ids(self, level: int, n: int) -> tuple[np.ndarray, list[str]]:
        """Return (group id per sample, group keys) for one level.

        Verifies that the level's groups partition range(n): indices must
        be in range, and each sample must appear in exactly one group.
        The first successful call for a (level, n) pair caches its result;
        later calls return the same read-only ids and the same key list.
        A failed check is not cached, so it raises again on every call.
        """
        resolved = self._resolved.get((level, n))
        if resolved is None:
            resolved = self._resolve(level, n)
            resolved[0].setflags(write=False)
            self._resolved[(level, n)] = resolved
        return resolved

    def _resolve(self, level: int, n: int) -> tuple[np.ndarray, list[str]]:
        spec = self.levels[level]
        if spec.identity or spec.groups is None:
            return np.arange(n), [str(i) for i in range(n)]
        ids = np.full(n, -1, dtype=np.int64)
        keys = list(spec.groups)
        for gid, key in enumerate(keys):
            members = np.asarray(spec.groups[key], dtype=np.int64)
            if members.size and (members.min() < 0 or members.max() >= n):
                raise IndexOutOfRange(
                    f"level {level} group {key!r} refers to a row outside 0..{n - 1}"
                )
            if np.any(ids[members] != -1):
                raise ValueError(
                    f"level {level} group {key!r} overlaps another group"
                )
            ids[members] = gid
        if np.any(ids == -1):
            missing = int(np.argwhere(ids == -1)[0][0])
            raise ValueError(f"row {missing} belongs to no group of level {level}")
        return ids, keys


def mse_gradhess(y: np.ndarray, yhat: np.ndarray) -> GradHess:
    """Gradient and hessian of sum (y_i - yhat_i)^2: g = 2(yhat - y), h = 2."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise LengthMismatch(f"y has shape {y.shape}, yhat has shape {yhat.shape}")
    residual = yhat - y
    with np.errstate(over="ignore"):
        objective = float(np.sum(residual**2))
    return GradHess(g=2.0 * residual, h=np.full(y.shape, 2.0), objective=objective)


def hier_wmse_loss(y: np.ndarray, yhat: np.ndarray, spec: HierarchySpec) -> float:
    """Weighted squared error of group sums, summed over all levels."""
    return hier_wmse_gradhess(y, yhat, spec).objective


def hier_wmse_gradhess(
    y: np.ndarray, yhat: np.ndarray, spec: HierarchySpec
) -> GradHess:
    """Exact derivatives of hier_wmse_loss with respect to each yhat_i,
    with the loss itself as the objective."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise LengthMismatch(f"y has shape {y.shape}, yhat has shape {yhat.shape}")
    n = y.size
    residual = y - yhat
    g = np.zeros(n)
    weight_sum = 0.0
    total = 0.0
    for a, level in enumerate(spec.levels):
        ids, keys = spec.group_ids(a, n)
        group_residual = np.bincount(ids, weights=residual, minlength=len(keys))
        g -= 2.0 * level.weight * group_residual[ids]
        weight_sum += level.weight
        with np.errstate(over="ignore"):
            total += level.weight * float(np.sum(group_residual**2))
    return GradHess(g=g, h=np.full(n, 2.0 * weight_sum), objective=total)


def numeric_gradhess(
    loss_fn: Callable[[float, float], float],
    y: np.ndarray,
    yhat: np.ndarray,
    step: float = DEFAULT_FD_STEP,
) -> GradHess:
    """Central finite differences of a per-sample-separable loss.

    ``loss_fn(y_i, v)`` evaluates the loss of one sample at estimate v.
    The step is relative: delta_i = step * max(1, |yhat_i|). Coupled
    losses cannot go through this path since each sample is probed
    independently; they need an analytic provider. The objective is the
    sum of the per-sample losses at ``yhat``.
    """
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise LengthMismatch(f"y has shape {y.shape}, yhat has shape {yhat.shape}")
    if step <= 0:
        raise ValueError("step must be positive")
    g = np.empty(y.size)
    h = np.empty(y.size)
    total = 0.0
    for i in range(y.size):
        delta = step * max(1.0, abs(yhat[i]))
        lo = loss_fn(y[i], yhat[i] - delta)
        mid = loss_fn(y[i], yhat[i])
        hi = loss_fn(y[i], yhat[i] + delta)
        if not (np.isfinite(lo) and np.isfinite(mid) and np.isfinite(hi)):
            raise NonFiniteLoss(f"loss not finite near yhat[{i}]={yhat[i]!r}")
        g[i] = (hi - lo) / (2.0 * delta)
        h[i] = (hi - 2.0 * mid + lo) / (delta * delta)
        total += mid
    return GradHess(g=g, h=h, objective=float(total))


def parse_hierarchy(text: str) -> HierarchySpec:
    """Parse the hierarchy text format.

    Line 1 is ``levels=<k>``; each level opens with
    ``level <a> weight=<w>`` (append ``identity`` for the
    one-sample-per-group level) and is followed by
    ``group <key>: i1,i2,...`` lines holding 0-based sample rows.
    Blank lines and ``#`` comments are ignored.
    """
    declared: int | None = None
    levels: list[HierarchyLevel] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if declared is None:
            if not line.startswith("levels="):
                raise ParseError(lineno, 0, "expected levels=<k> on the first line")
            try:
                declared = int(line.split("=", 1)[1])
            except ValueError:
                raise ParseError(lineno, 0, "bad level count") from None
            continue
        if line.startswith("level "):
            parts = line.split()
            identity = "identity" in parts[2:]
            weight_part = next((p for p in parts if p.startswith("weight=")), None)
            if len(parts) < 3 or weight_part is None:
                raise ParseError(lineno, 0, "expected level <a> weight=<w>")
            try:
                index = int(parts[1])
                weight = float(weight_part.split("=", 1)[1])
            except ValueError:
                raise ParseError(lineno, 0, "bad level index or weight") from None
            if index != len(levels):
                raise ParseError(lineno, 0, f"expected level {len(levels)}")
            try:
                levels.append(HierarchyLevel(weight, None if identity else {}, identity))
            except ValueError as exc:
                raise ParseError(lineno, 0, str(exc)) from None
        elif line.startswith("group "):
            groups = levels[-1].groups if levels else None
            if groups is None:
                raise ParseError(lineno, 0, "group line outside a non-identity level")
            head, _, tail = line[len("group ") :].partition(":")
            key = head.strip()
            if not key or key in groups:
                raise ParseError(lineno, 0, f"bad or duplicate group key {key!r}")
            try:
                members = [int(tok) for tok in tail.split(",") if tok.strip()]
                groups[key] = np.asarray(members, dtype=np.int64)
            except (ValueError, OverflowError):
                raise ParseError(lineno, 0, "bad member index") from None
        else:
            raise ParseError(lineno, 0, f"unrecognized line {line!r}")
    if declared is None:
        raise ParseError(1, 0, "empty hierarchy file")
    if len(levels) != declared:
        raise ParseError(1, 0, f"declared {declared} levels, found {len(levels)}")
    try:
        return HierarchySpec(levels=levels)
    except ValueError as exc:
        raise ParseError(1, 0, str(exc)) from None


def load_hierarchy(path: str | Path) -> HierarchySpec:
    return parse_hierarchy(read_text(path))
