"""Summary statistics and metric-name rules for benchmark results."""

from __future__ import annotations

import re
import statistics

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Percentiles reported when enough samples lie beyond them.
PERCENTILES = (99.9, 99.0, 90.0, 75.0)


def valid_name(name: str) -> bool:
    """Starts with a letter or digit; at most 64 letters, digits, `_`, `.`, `-`."""
    return NAME.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT.fullmatch(unit) is not None


def summarize(values: list[float]) -> dict:
    """Median, extremes and sample count, plus the highest percentile
    from ``PERCENTILES`` that has at least ten samples beyond it (or
    None when there are too few samples for any)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    summary = {"n": n, "median": statistics.median(ordered),
               "min": ordered[0], "max": ordered[-1], "percentile": None}
    for p in PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 9) >= 10:
            rank = min(n - 1, int(round(p / 100.0 * (n - 1))))
            summary["percentile"] = {"p": p, "value": ordered[rank]}
            break
    return summary


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)``
    gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
