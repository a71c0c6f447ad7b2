"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 perf/compare.py --a base.jsonl --b head.jsonl

Reads the JSON-lines documents ``perf/run.py --out`` appends and keeps the
untraced runs.  For every (workload, end-to-end metric) it prints each
side's run count, median and spread (interquartile range over median,
quartiles as ``statistics.quantiles(values, n=4)`` gives them), B's
change against A's median, and a verdict:

* ``regressed``: B's median is worse than A's by more than the bound;
* ``unresolved``: a side's spread exceeds the bound (``setup_s`` exempt),
  so a change that size cannot be told from noise;
* ``ok``: neither.

A trailing ``*`` marks a spread at or above a third of the bound, the
margin the benchmark is built to keep.  Exit status is 1 when any pair is
regressed or unresolved or any run was incorrect, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

from common import ROOT
from summary import median, spread

#: The metric whose spread is not held to its bound (set-up is dominated
#: by imports and the host's file cache).
SPREAD_EXEMPT = "setup_s"


def load(paths: list[str]) -> tuple[dict, int, int]:
    """``({(workload, metric): [values]}, runs, incorrect runs)``."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    runs = incorrect = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                document = json.loads(line)
                if document["trace"]:
                    continue
                runs += 1
                incorrect += not document["correct"]
                for name, entry in document["metrics"].items():
                    values[(document["workload"], name)].append(entry["value"])
    return values, runs, incorrect


def verdict(metric: dict, a: list[float], b: list[float]) -> tuple[float, str]:
    """B's relative change against A's median and the verdict for it."""
    base = median(a)
    change = (median(b) - base) / base
    worse = change if metric["better"] == "lower" else -change
    bound = metric["bound"]
    if worse > bound:
        return change, "regressed"
    if metric["name"] != SPREAD_EXEMPT and max(spread(a), spread(b)) > bound:
        return change, "unresolved"
    return change, "ok"


def _cell(metric: dict, values: list[float]) -> str:
    """Median and spread, marked when the spread uses a third of the bound."""
    margin = spread(values)
    marked = metric["name"] != SPREAD_EXEMPT and margin >= metric["bound"] / 3
    return f"{median(values):>12.6g} {margin:>6.2%}{'*' if marked else ' '}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", nargs="+", required=True, help="baseline result files")
    parser.add_argument("--b", nargs="+", required=True, help="compared result files")
    parser.add_argument(
        "--benchmark", default=str(ROOT / "BENCHMARK.json"),
        help="benchmark definition holding the bounds",
    )
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as handle:
        definition = json.load(handle)
    a, runs_a, bad_a = load(args.a)
    b, runs_b, bad_b = load(args.b)
    print(f"A: {runs_a} runs ({bad_a} incorrect)   B: {runs_b} runs ({bad_b} incorrect)")
    print(
        f"{'workload':<18} {'metric':<18} {'n':>5} {'A median':>12} {'A sprd':>7}"
        f" {'B median':>12} {'B sprd':>7} {'change':>8} {'bound':>6}  verdict"
    )
    failing = bad_a + bad_b
    workloads = [entry["name"] for entry in definition["workloads"]]
    for workload in workloads:
        for metric in definition["end_to_end"]:
            key = (workload, metric["name"])
            if not a.get(key) or not b.get(key):
                print(f"{workload:<18} {metric['name']:<18} missing")
                failing += 1
                continue
            change, outcome = verdict(metric, a[key], b[key])
            failing += outcome != "ok"
            print(
                f"{workload:<18} {metric['name']:<18} "
                f"{len(a[key]):>2}/{len(b[key]):<2} "
                f"{_cell(metric, a[key])}{_cell(metric, b[key])}"
                f"{change:>+8.2%} {metric['bound']:>6.0%}  {outcome}"
            )
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
