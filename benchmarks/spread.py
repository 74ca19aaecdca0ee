"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmarks/spread.py --workloads wine,synth --seeds 10

Runs ``run.py`` once per seed (1..N) for each workload, one run at a
time, each ``run_seconds`` long as BENCHMARK.json sets it. Prints per
metric the median over the runs and the distance between the first and
third quartile as a share of the median, next to the metric's bound
from BENCHMARK.json. A spread above a third of the
bound is flagged: that metric is too noisy to gate a change reliably.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, help="also write the values as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict[str, dict[str, list[float]]] = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in range(1, args.seeds + 1):
            run = subprocess.run(
                [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if run.returncode != 0:
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(run.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = values
        for name, series in values.items():
            spread = quartile_spread(series)
            share = spread / bounds[name]
            worst = max(worst, share)
            flag = "" if share < 1 / 3 else "  <-- above a third of the bound"
            print(f"{workload:9s} {name:16s} median {statistics.median(series):10.5g} "
                  f"spread {spread:7.4f} bound {bounds[name]:.2f}{flag}", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
