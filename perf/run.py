"""Run the repository benchmark (workloads and metrics in BENCHMARK.json).

    python3 perf/run.py --workload shor_fidelity --seed 3 --seconds 30 --trace 0
    python3 perf/run.py --seed 0 --out results.jsonl      # every workload

One run measures one workload for ``--seconds`` seconds, checks every
output, prints each metric with its unit and, as its last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
times the production path with nothing patched and reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics from a
separate traced pass.  Without ``--workload`` every workload runs, once
untraced and once traced, and the metrics in the last line are keyed
``<workload>/<metric>``.

Exit status: 0 when every check passed, 1 when an output was incorrect
(the result line says ``"correct": false``), 2 when nothing could be
measured (no result line), e.g. when ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import common
import metrics
import serving
import sim

WORKLOADS = (*sim.WORKLOADS, serving.WORKLOAD.name)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]),
    )
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured time per run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: untraced end-to-end run, 1: traced per-layer run "
        "(default: both with --workload all, else 0)",
    )
    parser.add_argument(
        "--out", default="",
        help="append one JSON document per run (metrics, checks, the "
        "per-workload report and provenance) to this file",
    )
    return parser.parse_args(argv)


def measure(name: str, seed: int, seconds: float, trace: bool, engine: str,
            definition: dict) -> metrics.RunResult:
    """One run of one workload, with its metric set checked against
    BENCHMARK.json and the trace's coverage checked."""
    workdir = common.make_workdir()
    try:
        if name in sim.WORKLOADS:
            result = sim.measure(
                sim.WORKLOADS[name], seed, seconds, trace, workdir, engine
            )
        else:
            result = serving.measure(
                serving.WORKLOAD, seed, seconds, trace, workdir, engine
            )
    finally:
        common.remove_workdir(workdir)
    section = definition["per_layer" if trace else "end_to_end"]
    expected = {entry["name"]: entry["unit"] for entry in section}
    produced = {metric: unit for metric, (_value, unit) in result.metrics.items()}
    if produced != expected:
        raise common.BenchmarkError(
            f"{name}: metrics {sorted(produced.items() ^ expected.items())} "
            "disagree with BENCHMARK.json"
        )
    if trace:
        unattributed = result.metrics["trace.unattributed_frac"][0]
        if unattributed > metrics.MAX_UNATTRIBUTED:
            result.problems.append(
                f"the trace leaves {unattributed:.3f} of the wall unattributed"
            )
            result.failed += 1
    return result


def _metric_doc(result: metrics.RunResult) -> dict:
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result.metrics.items()
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    out = os.path.abspath(args.out) if args.out else ""
    try:
        common.require_source()
        definition = common.load_benchmark()
        os.chdir(common.ROOT)
        stamp = common.stamp(args.seed)
        seconds = args.seconds or float(definition["run_seconds"])
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        if args.trace is not None:
            modes = (bool(args.trace),)
        else:
            modes = (False, True) if args.workload == "all" else (False,)
        runs = []
        for name in names:
            for trace in modes:
                result = measure(
                    name, args.seed, seconds, trace, stamp["engine"], definition
                )
                runs.append((name, trace, result))
                _print_run(name, trace, result)
                if out:
                    _append(out, name, trace, seconds, stamp, result)
    except (common.BenchmarkError, OSError, subprocess.SubprocessError) as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2
    correct = not any(result.problems for _n, _t, result in runs)
    if len(runs) == 1:
        metric_doc = _metric_doc(runs[0][2])
    else:
        metric_doc = {
            f"{name}/{metric}": entry
            for name, _trace, result in runs
            for metric, entry in _metric_doc(result).items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result.attempted for _n, _t, result in runs),
        "failed": sum(result.failed for _n, _t, result in runs),
        "metrics": metric_doc,
    }))
    return 0 if correct else 1


def _print_run(name: str, trace: bool, result: metrics.RunResult) -> None:
    print(f"== {name} (trace={int(trace)}): attempted {result.attempted}, "
          f"failed {result.failed}")
    for metric, (value, unit) in result.metrics.items():
        print(f"  {metric:<36} {value:>14.6g} {unit}")
    for problem in result.problems:
        print(f"  INCORRECT: {problem}", file=sys.stderr)


def _append(path: str, name: str, trace: bool, seconds: float, stamp: dict,
            result: metrics.RunResult) -> None:
    document = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "stamp": stamp,
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "error_rate": result.failed / result.attempted,
        "problems": result.problems,
        "metrics": _metric_doc(result),
        "report": result.report,
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(document, default=str) + "\n")


if __name__ == "__main__":
    sys.exit(main())
