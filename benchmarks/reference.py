"""A fixed reference workload that measures how fast the machine is now.

    python3 benchmarks/reference.py

It imports numpy and runs the same mix of work that pgbm's commands do:
many small numpy calls (as in per-node split search), large array
passes (as in histogram build and routing), float formatting and
parsing (as in CSV output and input) and a pure-Python loop. It never
imports pgbm, so a change to the program does not change its time.

run.py times it as a subprocess between the commands of every repeat
and divides the commands' time by it. On a shared host whose speed
drifts by a third over minutes, that ratio stays steady where the
seconds do not.
"""

from __future__ import annotations

import numpy as np

ROUNDS = 10


def kernel(rounds: int = ROUNDS) -> float:
    rng = np.random.default_rng(20210601)
    values = rng.random(200_000)
    codes = rng.integers(0, 256, size=values.size)
    bins = [rng.random(64) for _ in range(16)]
    floats = rng.random(5_000)
    total = 0.0
    for _ in range(rounds):
        for _ in range(40):
            for hist in bins:
                left = np.cumsum(hist)[:-1]
                gains = left * left / (left + 1.0)
                total += float(gains[int(np.argmax(gains))])
        for _ in range(2):
            total += float(np.bincount(codes, weights=values, minlength=256)[7])
            total += float(values[np.argsort(values[:50_000])][0])
        text = ",".join(repr(float(v)) for v in floats)
        total += sum(float(field) for field in text.split(","))
        step = 0.0
        for i in range(50_000):
            step += (i % 7) * 0.5
        total += step
    return total


if __name__ == "__main__":
    print(repr(kernel()))
