#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

    python3 benchmarks/e2e/bench.py --seeds 10 --json A.json
    python3 benchmarks/e2e/bench.py --seeds 10 --json B.json
    python3 benchmarks/e2e/compare.py A.json B.json

For every workload x end-to-end metric it prints each set's median and
spread (distance between the first and third quartile over the set's runs,
as a share of the median), how much worse B's median is than A's, and a
verdict against the metric's bound in ``BENCHMARK.json``:

``worse``       B's median is worse than A's by more than the bound;
``unresolved``  a set's own spread is wider than the bound, so the medians
                cannot tell ``same`` from ``worse`` (``setup_s`` is exempt, as
                in the driver's acceptance rule);
``same``        neither.

Exits 1 when any row is ``worse`` or ``unresolved``.  Run it on two sets of
one commit to accept the benchmark, and on parent and change (runs
alternated) to judge a change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"]:
            continue
        if not run["correct"]:
            raise SystemExit(f"{path}: {run['workload']} seed {run['seed']} failed its "
                             f"output checks: {run['failures']}")
        for metric, entry in run["metrics"].items():
            values.setdefault((run["workload"], metric), []).append(entry["value"])
    return values


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    before, after = load(argv[0]), load(argv[1])
    verdicts = {"same": 0, "worse": 0, "unresolved": 0}
    print(f"{'workload':<16} {'metric':<12} {'A median':>12} {'A spread':>9} "
          f"{'B median':>12} {'B spread':>9} {'B worse by':>11} {'bound':>6}  verdict")
    for (workload, name), a_values in before.items():
        metric = next(entry for entry in declared if entry["name"] == name)
        b_values = after.get((workload, name))
        if not b_values:
            continue
        a_median, b_median = statistics.median(a_values), statistics.median(b_values)
        change = (b_median - a_median) / a_median
        if metric["better"] == "higher":
            change = -change
        widest = max(spread(a_values), spread(b_values))
        if change > metric["bound"]:
            verdict = "worse"
        elif widest > metric["bound"] and name != "setup_s":
            verdict = "unresolved"
        else:
            verdict = "same"
        verdicts[verdict] += 1
        print(f"{workload:<16} {name:<12} {a_median:>12.5g} {spread(a_values):>9.3f} "
              f"{b_median:>12.5g} {spread(b_values):>9.3f} {change:>+11.3f} "
              f"{metric['bound']:>6.2f}  {verdict}")
    print(", ".join(f"{count} {verdict}" for verdict, count in verdicts.items()))
    return 1 if verdicts["worse"] or verdicts["unresolved"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
