#!/usr/bin/env python
"""Benchmark gate: this checkout against a base revision, in paired runs.

    python scripts/bench_gate.py BASE_REV

Checks ``BASE_REV`` out as a detached git worktree in a temporary
directory and copies this checkout's ``perf/`` and ``BENCHMARK.json``
over it, so both sides are measured by the same harness.  Then, for each
of :data:`PAIRS` pairs and each workload in ``BENCHMARK.json``, it runs
``perf/run.py --trace 0`` once on each side at the benchmark's own
``run_seconds`` and seed :data:`SEED`, with the side that goes first
flipped every pair, so slow drift of the host's speed falls on
both sides alike.  Both sides' result documents, and ``perf/compare.py``'s
table for them, are written to ``.bench_gate/`` in this checkout.

Exit status is ``perf/compare.py``'s (1 when a run was incorrect or a
metric regressed or could not be told from noise against the bounds in
``BENCHMARK.json``), or 1 when any run was measured on an engine other
than ``arena``: a host that cannot build the arena's C core would
otherwise compare the reference engine against itself.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_gate"

#: Paired runs per workload.  ``perf/compare.py`` holds each side's
#: spread (interquartile range over median) to the bound.  On a shared
#: 2-core host, runs of identical code spread by about 15% as the host's
#: speed drifted, and parent-vs-parent gates read unresolved with three
#: pairs and with five, whose quartiles sit at or next to the extremes.
PAIRS = 9

#: One seed for every run: seed 0 is the one with exact result pins on
#: every workload, and a fixed circuit keeps the spread down to the host's.
SEED = 0

#: Every run of both sides must have measured this engine.
ENGINE = "arena"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _checkout_base(revision: str, target: Path) -> None:
    """``revision`` at ``target``, measured by this checkout's harness."""
    _git("worktree", "add", "--detach", str(target), revision)
    shutil.rmtree(target / "perf")
    shutil.copytree(
        ROOT / "perf",
        target / "perf",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    shutil.copy2(ROOT / "BENCHMARK.json", target / "BENCHMARK.json")


def _run(side: Path, workload: str, out: Path) -> None:
    command = [
        sys.executable,
        "perf/run.py",
        "--workload",
        workload,
        "--seed",
        str(SEED),
        "--trace",
        "0",
        "--out",
        str(out),
    ]
    print(f"-- {out.stem}: {workload}", flush=True)
    status = subprocess.run(command, cwd=side).returncode
    if status:
        print(f"-- {out.stem}: {workload} exited {status}", flush=True)


def _wrong_engines(path: Path) -> list[str]:
    """``workload: engine`` for every run in ``path`` not measured on ENGINE."""
    if not path.exists():
        return []
    documents = [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    return [
        f"{document['workload']}: {document['stamp']['engine']}"
        for document in documents
        if document["stamp"]["engine"] != ENGINE
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision to compare this checkout against")
    args = parser.parse_args(argv)
    revision = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    results = {"base": OUT / "base.jsonl", "head": OUT / "head.jsonl"}
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        workloads = [entry["name"] for entry in json.load(handle)["workloads"]]
    base = Path(tempfile.mkdtemp(prefix="bench-gate-")) / "base"
    try:
        _checkout_base(revision, base)
        sides = [("base", base), ("head", ROOT)]
        for pair in range(PAIRS):
            for workload in workloads:
                for name, side in sides if pair % 2 == 0 else sides[::-1]:
                    _run(side, workload, results[name])
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(base)], cwd=ROOT)
        shutil.rmtree(base.parent, ignore_errors=True)
    compare = subprocess.run(
        [
            sys.executable,
            "perf/compare.py",
            "--a",
            str(results["base"]),
            "--b",
            str(results["head"]),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    report = f"base {revision}\n{compare.stdout}{compare.stderr}"
    wrong = {name: _wrong_engines(path) for name, path in results.items()}
    for name, runs in wrong.items():
        if runs:
            report += f"{name}: not measured on {ENGINE}: {', '.join(runs)}\n"
    (OUT / "compare.txt").write_text(report, encoding="utf-8")
    print(report, end="")
    return 1 if compare.returncode or any(wrong.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
