"""Paths, environment hygiene and child-process plumbing for the benchmark.

Every process the benchmark starts runs the package from this checkout's
``src/`` with every ``REPRO_*`` override removed, so the default engine
and no fault plan, sanitizer or batched kernel is what gets measured.
Children also get a fixed ``PYTHONHASHSEED``: with a random one each
process lays out its string-keyed dicts differently, which on a 2-core
host doubled the spread between identical runs (per-run cv 4.8% vs 2.2%).
Scratch files live under ``.perf_work/`` inside the checkout.

Times are reported at a reference host speed.  :func:`calibrate` times a
fixed pure-Python kernel shaped like the simulator's hot path (a small
hash-consed, memoised diagram multiply) between the pieces of work of a
run, and :func:`host_scale` turns the run's calibrations into the factor
that maps measured seconds to seconds on a host where the kernel takes
:data:`REFERENCE_CALIBRATION_S`.  On a shared 2-core host whose speed
drifted by up to 45% within minutes, the kernel tracked the wall time of
``simulate()`` with correlation 0.85 (0.82 for batches of small jobs).
Contention bursts of a few hundred milliseconds slow the kernel by up
to 2x while barely touching the multi-second work around them, so
calibrations well above the run's fastest are dropped before taking the
median (:data:`BURST_RATIO`).  Over four sets of ten runs this kept the
worst spread of a workload's timings at 7-13%, against 10-30% for the
plain median and 10-15% unscaled.
"""

from __future__ import annotations

import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perf_work"
CHILD = Path(__file__).resolve().parent / "child.py"

#: A child that outlives this is hung; the run fails instead of waiting.
CHILD_TIMEOUT_S = 150.0

#: Calibration kernel time on the reference host (about this repository's
#: 2-core development host on a quiet day).
REFERENCE_CALIBRATION_S = 0.045

#: A calibration this much slower than the run's fastest was taken during
#: a contention burst and is left out of the run's host speed.
BURST_RATIO = 1.15


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (as opposed to measuring a failure)."""


def require_source() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``, or fail.

    Refuses to fall back to any other installed copy of the package, so a
    directory holding only the benchmark cannot produce a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source at {SRC}/repro")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    scrub(os.environ)


def scrub(environment: "os._Environ[str] | dict[str, str]") -> None:
    """Drop every ``REPRO_*`` override (engine, batching, DDSan, faults,
    store and socket defaults) from ``environment`` in place."""
    for key in [key for key in environment if key.startswith("REPRO_")]:
        del environment[key]


def child_environment(tmpdir: Path) -> dict[str, str]:
    """Environment for every process the benchmark starts."""
    environment = dict(os.environ)
    scrub(environment)
    environment["PYTHONPATH"] = str(SRC)
    environment["PYTHONHASHSEED"] = "0"
    environment["TMPDIR"] = str(tmpdir)
    return environment


def make_workdir() -> Path:
    """A fresh scratch directory under ``.perf_work/`` (short, so a Unix
    socket path inside it stays well under the 107-byte limit)."""
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="r", dir=WORK))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()  # only when no concurrent run still uses it
    except OSError:
        pass


def run_child(config: dict, workdir: Path) -> dict:
    """Run ``perf/child.py`` on ``config`` (sent on stdin) in a fresh
    interpreter.

    The child receives the spawn time on the system-wide monotonic clock
    so it can report set-up time from process start.  Returns the
    child's JSON result (its last stdout line).
    """
    payload = dict(config, spawned_at=time.monotonic())
    completed = subprocess.run(
        [sys.executable, str(CHILD)],
        input=json.dumps(payload),
        cwd=ROOT,
        env=child_environment(workdir),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise BenchmarkError(
            f"child {config['mode']} exited {completed.returncode}: "
            f"{completed.stderr.strip()[-2000:]}"
        )
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"child {config['mode']} printed no result")
    return json.loads(lines[-1])


def stop_process_group(process: subprocess.Popen, timeout: float) -> int | None:
    """SIGTERM ``process``; SIGKILL its whole group if it overruns.

    Returns the exit code of a graceful stop, or None when it had to be
    killed.  Either way nothing in the group is left running.
    """
    returncode: int | None = None
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        returncode = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        pass
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=10)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.02)
    return returncode


def _calibration_kernel() -> tuple:
    """A small decision-diagram multiply written out here: hash-consed
    binary nodes with complex weights, memoised recursion over a
    14-level diagram.  Independent of ``src/``, so a change to the
    package never moves the calibration."""
    unique: dict = {}
    memo: dict = {}
    rng = random.Random(7)
    gate = (complex(0.7071, 0.0), complex(0.0, 0.7071))

    def make(level: int, low: tuple, high: tuple) -> tuple:
        (w0, n0), (w1, n1) = low, high
        norm = abs(w0) + abs(w1)
        if norm == 0:
            return (0j, None)
        a, b = w0 / norm, w1 / norm
        key = (level, round(a.real, 12), round(a.imag, 12), id(n0),
               round(b.real, 12), round(b.imag, 12), id(n1))
        node = unique.get(key)
        if node is None:
            node = unique[key] = (level, (a, n0), (b, n1))
        return (norm, node)

    leaves = [(complex(rng.random(), rng.random()), "leaf") for _ in range(8)]

    def build(level: int) -> tuple:
        if level < 0:
            return rng.choice(leaves)
        if level < 4 or rng.random() < 0.8:
            return make(level, build(level - 1), build(level - 1))
        return make(level, build(level - 1), (0j, None))

    def multiply(edge: tuple, level: int) -> tuple:
        weight, node = edge
        if node is None or weight == 0:
            return (0j, None)
        if level < 0:
            return (weight * gate[0], node)
        key = (id(node), level)
        hit = memo.get(key)
        if hit is None:
            low = multiply(node[1], level - 1)
            high = multiply(node[2], level - 1)
            hit = memo[key] = make(
                level,
                (low[0] * gate[0] + high[0] * gate[1], low[1]),
                (high[0] * gate[0] - low[0] * gate[1], high[1]),
            )
        return (hit[0] * weight, hit[1])

    levels = 14
    return multiply(build(levels), levels)


def calibrate(repeats: int = 5) -> float:
    """Best of ``repeats`` timings of the calibration kernel, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - started)
    return best


def host_scale(calibrations: list[float]) -> float:
    """Factor mapping seconds measured during a run to seconds at the
    reference host speed: the reference over the median of the run's
    calibrations that are within :data:`BURST_RATIO` of its fastest."""
    fastest = min(calibrations)
    steady = [value for value in calibrations if value <= BURST_RATIO * fastest]
    return REFERENCE_CALIBRATION_S / statistics.median(steady)


def git_revision() -> str:
    """Commit of this checkout, or ``"unknown"`` outside a git work tree."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = completed.stdout.split()
    if completed.returncode != 0 or len(lines) != 2:
        return "unknown"
    if Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def stamp(seed: int) -> dict:
    """Run provenance: engine, interpreter, cores, commit and seed."""
    from repro.dd.backends import default_backend_name

    return {
        "engine": default_backend_name(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_revision(),
        "seed": seed,
    }


def load_benchmark() -> dict:
    """The benchmark definition (``BENCHMARK.json`` at the checkout root)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)
