"""Compare two benchmark result files, workload by workload.

    python3 perfbench/run.py --workload all --repeat 5 --out base.json
    python3 perfbench/run.py --workload all --repeat 5 --out change.json
    python3 perfbench/diff.py base.json change.json

For every end-to-end metric in BENCHMARK.json it prints both medians, the
change, and the run-to-run spread (interquartile range over median, the
larger of the two files). The verdict is "unresolved" when that spread
exceeds the metric's bound, unless every run of one side beats every run of
the other; otherwise "worse" or "better" when the medians differ by more
than the bound, and "same" when they do not. Each metric also shows its
workload's own name (frame_ms_p50, train_s, ...). Detection quality figures
(scan_recall, ...) follow in the same table with no bound and no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import OWN_NAMES

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _by_workload(runs: list) -> dict[str, dict[str, list[float]]]:
    table: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for run in runs:
        if run["trace"]:
            continue
        for section in ("metrics", "quality"):
            for name, metric in run[section].items():
                table[run["workload"]][name].append(metric["value"])
    return table


def _quality_better(runs: list) -> dict[str, str]:
    return {name: m["better"] for run in runs for name, m in run["quality"].items()}


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: list[float], b: list[float], better: str, bound: float):
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = (med_b - med_a) / abs(med_a)
    worse_by = change if better == "lower" else -change
    spread = max(_spread(a), _spread(b))
    b_wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
    a_wins = max(a) < min(b) if better == "lower" else min(a) > max(b)
    if spread > bound and not (a_wins or b_wins):
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    elif -worse_by > bound:
        word = "better"
    else:
        word = "same"
    return med_a, med_b, change, spread, word


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    runs_a = json.loads(Path(args.base).read_text())["runs"]
    runs_b = json.loads(Path(args.change).read_text())["runs"]
    base, change = _by_workload(runs_a), _by_workload(runs_b)
    rows = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    rows += [(name, better, None)
             for name, better in _quality_better(runs_a).items()]
    worse = 0
    print(f"{'workload':<8} {'metric':<32} {'base':>12} {'change':>12} "
          f"{'delta':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(base) & set(change)):
        for name, better, bound in rows:
            a, b = base[workload].get(name), change[workload].get(name)
            if not a or not b:
                continue
            own = OWN_NAMES[workload].get(name)
            label = f"{name} ({own[0]})" if own else name
            if bound is None:   # quality: may read 0, so no ratios
                med_a, med_b = statistics.median(a), statistics.median(b)
                print(f"{workload:<8} {label:<32} {med_a:>12.5g} {med_b:>12.5g} "
                      f"{'-':>8} {'-':>7} {'-':>6}  -")
                continue
            med_a, med_b, delta, spread, word = verdict(a, b, better, bound)
            worse += word == "worse"
            print(f"{workload:<8} {label:<32} {med_a:>12.5g} {med_b:>12.5g} "
                  f"{delta:>+8.1%} {spread:>7.1%} {bound:>6.0%}  {word}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
