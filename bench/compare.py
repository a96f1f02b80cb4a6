"""Compare two sets of benchmark results, e.g. a parent commit and a change.

    python3 bench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``*.json`` files that ``bench/run.py`` wrote to
``bench/results/``.  Untraced runs are grouped by workload; runs of the
two sides with the same seed form a pair.  For each workload and each
end-to-end metric of ``BENCHMARK.json`` this prints both sides' median and
quartiles and a verdict:

* improved   - the change wins at least 9 of every 10 pairs, and its
               median is better by more than the base's own quartile spread;
* regressed  - the change's median is worse by more than the metric's bound;
* unresolved - either side's quartile spread is wider than the bound and
               not every run of the change beats every run of the base;
* unchanged  - otherwise.

A change counts only when every one of its runs passed the output checks
and its share of failed operations is no larger than the base's; else
every metric of the workload reads *not counted*.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")


def load_runs(directory: str) -> dict[str, dict[int, dict]]:
    """Untraced results by workload, then by seed (the latest run of a seed wins)."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def failed_share(runs: dict[int, dict]) -> float:
    return sum(r["failed"] for r in runs.values()) / sum(r["attempted"] for r in runs.values())


def counted(base: dict[int, dict], change: dict[int, dict]) -> bool:
    """Every change run is correct and no larger share of operations fails."""
    return all(r["correct"] for r in change.values()) and failed_share(change) <= failed_share(base)


def verdict(base: dict[int, float], change: dict[int, float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b_vals, c_vals = list(base.values()), list(change.values())
    b_q1, b_med, b_q3 = quartiles(b_vals)
    c_q1, c_med, c_q3 = quartiles(c_vals)
    pairs = [seed for seed in base if seed in change]
    wins = sum(sign * (change[s] - base[s]) < 0 for s in pairs)
    gain = sign * (b_med - c_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > b_q3 - b_q1:
        return "improved"
    if sign * (c_med - b_med) > bound * abs(b_med):
        return "regressed"
    spread = max((b_q3 - b_q1) / abs(b_med), (c_q3 - c_q1) / abs(c_med))
    all_better = max(sign * v for v in c_vals) < min(sign * v for v in b_vals)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two directories of benchmark results.")
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    base, change = load_runs(args.base), load_runs(args.change)

    print(f"{'workload':9} {'metric':12} {'base q1/med/q3':>28} {'change q1/med/q3':>28} {'pairs':>6}  verdict")
    for workload in sorted(set(base) & set(change)):
        for side, runs in (("base", base[workload]), ("change", change[workload])):
            failed = sum(r["failed"] for r in runs.values())
            attempted = sum(r["attempted"] for r in runs.values())
            wrong = sum(not r["correct"] for r in runs.values())
            print(f"{workload:9} {side} failed {failed}/{attempted} operations, {wrong} of {len(runs)} runs incorrect")
        holds = counted(base[workload], change[workload])
        for metric in metrics:
            name = metric["name"]
            b = {s: r["metrics"][name]["value"] for s, r in base[workload].items()}
            c = {s: r["metrics"][name]["value"] for s, r in change[workload].items()}
            pairs = sum(s in c for s in b)
            cells = ["/".join(f"{v:.4g}" for v in quartiles(list(side.values()))) for side in (b, c)]
            result = verdict(b, c, metric["better"], metric["bound"]) if holds else "not counted"
            print(f"{workload:9} {name:12} {cells[0]:>28} {cells[1]:>28} {pairs:>6}  {result}")
    missing = sorted(set(base) ^ set(change))
    if missing:
        print(f"workloads on one side only: {', '.join(missing)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
