"""The ``serve_mixed`` workload: requests through ``repro-sim serve``.

A fresh daemon (``--workers 1 --queue-capacity 64``) over a fresh store
takes a closed loop of requests from two client threads in this process.
Each client owns every other request of a job list generated from the
seed; in every block of four requests a client sends two fresh
memory-driven supremacy jobs, one fresh fidelity-driven Shor job and one
resubmission of a spec it already saw complete, in a seeded order.  The
fixed mix keeps the cost per request the same from seed to seed.  Before
each request a client thinks for a seeded time of up to one daemon tick,
so submissions land at every phase of the daemon's 50 ms control loop;
without it the closed loop locks onto the tick and every latency is a
whole number of ticks.

Traced runs also replay the same job list in a child process through
``repro.service.execute_job``, once untraced and once under
:class:`spans.LayerTrace`, for the per-layer breakdown.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
import traceback
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from typing import TYPE_CHECKING

import metrics
from common import (
    ROOT,
    BenchmarkError,
    calibrate,
    child_environment,
    host_scale,
    run_child,
    stop_process_group,
)
from summary import latency_summary, median

if TYPE_CHECKING:
    from repro.service import JobSpec

#: Exit code of a daemon that drained after SIGTERM.
EXIT_DRAINED = 5

#: Seconds a request may take before the run counts it failed.
WAIT_TIMEOUT_S = 30.0

#: Seconds a daemon may take to answer its first ping.
START_TIMEOUT_S = 60.0

#: Seconds a daemon may take to drain after SIGTERM before it is killed.
STOP_TIMEOUT_S = 30.0

#: Slack on fidelity floors (rounds and the requested final fidelity).
FIDELITY_SLACK = 1e-12

#: Length of one load segment between calibrations (seconds).
SEGMENT_S = 5.0


@dataclass(frozen=True)
class ServeWorkload:
    """The request mix and daemon configuration of ``serve_mixed``."""

    name: str = "serve_mixed"
    qsup: str = "qsup_3x3_10"
    qsup_args: tuple = (("round_fidelity", 0.975), ("threshold", 128))
    shor: str = "shor_21_2"
    shor_final_fidelity: tuple[float, float] = (0.5, 0.8)
    shor_args: tuple = (
        ("placement", "block:inverse_qft"), ("round_fidelity", 0.9)
    )
    block: tuple[str, ...] = ("qsup", "qsup", "shor", "resubmit")
    think_max_s: float = 0.05
    checkpoint_interval: int = 10
    clients: int = 2
    workers: int = 1
    queue_capacity: int = 64
    setup_starts: int = 3
    max_requests: int | None = None


WORKLOAD = ServeWorkload()


@dataclass(frozen=True)
class Request:
    index: int
    client: int
    kind: str
    spec: JobSpec
    think_s: float


def job_list(workload: ServeWorkload, seed: int, count: int) -> list[Request]:
    """The first ``count`` requests for ``seed`` (a prefix of every longer
    list for the same seed).  Fresh specs never repeat within a list."""
    from repro.service import JobSpec

    rng = random.Random(seed)
    pending: list[list[str]] = [[] for _ in range(workload.clients)]
    fresh: list[list[JobSpec]] = [[] for _ in range(workload.clients)]
    seen: set[str] = set()
    requests = []
    for index in range(count):
        client = index % workload.clients
        if not pending[client]:
            order = rng.sample(workload.block, len(workload.block))
            if not fresh[client] and order[0] == "resubmit":
                order.append(order.pop(0))
            pending[client] = order
        kind = pending[client].pop(0)
        if kind == "resubmit":
            spec = rng.choice(fresh[client])
        else:
            while True:
                if kind == "qsup":
                    spec = JobSpec(
                        circuit=f"builtin:{workload.qsup}_{rng.randrange(10**6)}",
                        strategy="memory",
                        strategy_args=workload.qsup_args,
                        checkpoint_interval=workload.checkpoint_interval,
                    )
                else:
                    low, high = workload.shor_final_fidelity
                    spec = JobSpec(
                        circuit=f"builtin:{workload.shor}",
                        strategy="fidelity",
                        strategy_args=workload.shor_args + (
                            ("final_fidelity", round(rng.uniform(low, high), 6)),
                        ),
                        checkpoint_interval=workload.checkpoint_interval,
                    )
                if spec.content_hash() not in seen:
                    break
            seen.add(spec.content_hash())
            fresh[client].append(spec)
        think_s = rng.uniform(0.0, workload.think_max_s)
        requests.append(Request(index, client, kind, spec, think_s))
    return requests


def _request_budget(workload: ServeWorkload, seconds: float) -> int:
    """More requests than any run can send in ``seconds``."""
    count = max(64, int(seconds * 200))
    if workload.max_requests is not None:
        count = min(count, workload.max_requests)
    return count


# ----------------------------------------------------------------------
# Daemon lifecycle
# ----------------------------------------------------------------------


def _children(pid: int) -> list[int]:
    """Live child processes of ``pid`` (the daemon's forked workers)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _peak_rss_mib(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of process ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"/proc/{pid}/status has no VmHWM")


class Daemon:
    """One ``repro-sim serve`` process over its own fresh store."""

    def __init__(self, workload: ServeWorkload, workdir: Path, label: str):
        from repro.serve import ServeClient

        self.workload = workload
        self.workdir = workdir
        self.store = workdir / f"store-{label}"
        # Relative to the checkout root (both processes' working
        # directory), which keeps the socket path short.
        socket_path = os.path.relpath(workdir / f"{label}.sock", ROOT)
        self.client = ServeClient(
            socket_path=socket_path, timeout=WAIT_TIMEOUT_S + 15.0
        )
        self.log_path = workdir / f"daemon-{label}.log"
        self._socket_path = socket_path
        self.process: subprocess.Popen | None = None
        self.workers: list[int] = []

    def start(self) -> float:
        """Spawn the daemon; return seconds from spawn to its first pong."""
        spawned = time.monotonic()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--store", str(self.store),
                    "--socket", self._socket_path,
                    "--workers", str(self.workload.workers),
                    "--queue-capacity", str(self.workload.queue_capacity),
                ],
                cwd=ROOT,
                env=child_environment(self.workdir),
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        while True:
            try:
                self.client.ping()
                break
            except OSError:
                if self.process.poll() is not None:
                    raise BenchmarkError(
                        f"daemon exited {self.process.returncode} before "
                        f"its first ping: {self.log_tail()}"
                    ) from None
                if time.monotonic() - spawned > START_TIMEOUT_S:
                    raise BenchmarkError("daemon did not answer a ping") from None
                time.sleep(0.005)
        setup_s = time.monotonic() - spawned
        self.workers = sorted(_children(self.process.pid))
        if not self.workers:
            raise BenchmarkError("the daemon started no worker process")
        return setup_s

    def stop(self) -> int | None:
        """SIGTERM (drain), killing the process group on overrun."""
        if self.process is None:
            return None
        return stop_process_group(self.process, STOP_TIMEOUT_S)

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(encoding="utf-8")[-2000:]
        except OSError:
            return ""


# ----------------------------------------------------------------------
# Closed-loop load
# ----------------------------------------------------------------------


def drive(client, streams: list[Iterator[Request]], seconds: float) -> list[dict]:
    """One closed-loop thread per stream sends requests from it until
    ``seconds`` have passed; returns one record per request sent, in
    request order.  Streams are left where the load stopped."""
    deadline = time.monotonic() + seconds
    records: list[dict] = []
    lock = threading.Lock()

    def loop(stream: Iterator[Request]) -> None:
        while time.monotonic() < deadline:
            request = next(stream, None)
            if request is None:
                return
            time.sleep(request.think_s)
            record = {"request": request, "error": ""}
            sent = time.perf_counter()
            try:
                accepted = client.submit(request.spec)
                record["admitted"] = time.perf_counter() - sent
                job = client.wait(accepted["job_id"], timeout=WAIT_TIMEOUT_S)["job"]
                record["latency"] = time.perf_counter() - sent
                record["sent"] = sent
                record["job"] = job
                record["degraded"] = accepted["degraded"]
            except Exception as error:  # noqa: BLE001 - counted as failed
                record["error"] = "".join(
                    traceback.format_exception_only(type(error), error)
                ).strip()
            with lock:
                records.append(record)

    threads = [
        threading.Thread(target=loop, args=(stream,), daemon=True)
        for stream in streams
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 2 * WAIT_TIMEOUT_S)
        if thread.is_alive():
            raise BenchmarkError("a client thread did not finish")
    records.sort(key=lambda record: record["request"].index)
    return records


def drive_calibrated(
    client, requests: list[Request], clients: int, seconds: float
) -> tuple[list[dict], list[float], float]:
    """:func:`drive` in segments of about :data:`SEGMENT_S` with a
    calibration after each, taken while the daemon is idle.

    The client threads share this process, so calibrating during the
    load would disturb it; pausing for one calibration every few seconds
    samples the host's speed through the run instead.  Returns
    ``(records, calibrations, busy seconds)``, busy seconds being the sum
    over segments of first submit → last result.
    """
    streams = [iter(requests[index::clients]) for index in range(clients)]
    deadline = time.monotonic() + seconds
    records: list[dict] = []
    calibrations: list[float] = []
    busy_s = 0.0
    while time.monotonic() < deadline:
        segment = drive(
            client, streams, min(SEGMENT_S, deadline - time.monotonic())
        )
        calibrations.append(calibrate())
        sent = [record for record in segment if "sent" in record]
        if not sent:
            break
        first = min(record["sent"] for record in sent)
        busy_s += max(r["sent"] + r["latency"] for r in sent) - first
        records.extend(segment)
    return records, calibrations, busy_s


def check_jobs(outcomes: list[tuple[Request, dict | None, str]]) -> list[str]:
    """One problem line per failed request, given outcomes as ``(request,
    job result, error)``; a job result has ``status``, ``cached`` and
    ``stats``."""
    problems = []
    first: dict[str, dict] = {}
    for request, result, error in outcomes:
        found = _job_problems(request, result, error, first)
        if found:
            problems.append(
                f"request {request.index} ({request.kind}): " + "; ".join(found)
            )
    return problems


def _job_problems(request, result, error, first) -> list[str]:
    if error or result is None:
        return [error or "no result"]
    if result["status"] != "completed":
        return [f"{result['status']} {result.get('error', '')}"]
    stats = result["stats"]
    job_hash = request.spec.content_hash()
    if request.kind == "resubmit":
        if not result["cached"]:
            return ["not served from the store"]
        if stats != first.get(job_hash):
            return ["stats differ from its first completion"]
        return []
    found = []
    if result["cached"]:
        found.append("fresh spec served from the store")
    first[job_hash] = stats
    if any(
        entry["achieved_fidelity"] < entry["requested_fidelity"] - FIDELITY_SLACK
        for entry in stats["rounds"]
    ):
        found.append("a round fell below its requested fidelity")
    floor = dict(request.spec.strategy_args).get("final_fidelity", 0.0)
    if stats["fidelity_estimate"] < floor - FIDELITY_SLACK:
        found.append(f"f_final below the requested {floor}")
    return found


def _daemon_outcomes(records: list[dict]) -> list[tuple[Request, dict | None, str]]:
    outcomes = []
    for record in records:
        job = record.get("job")
        result = job.get("result") if job else None
        error = record["error"]
        if job is not None and job["status"] != "completed":
            error = error or f"status {job['status']}: {job.get('error', '')}"
        if record.get("degraded"):
            error = error or "admitted at a degraded tier"
        outcomes.append((record["request"], result, error))
    return outcomes


def client_breakdown(records: list[dict], scale: float) -> dict:
    """Client-side per-request split of the daemon run (``serve.*``), in
    seconds times the run's host ``scale``."""
    done = [r for r in records if not r["error"] and "job" in r]
    fresh = [r for r in done if not r["job"]["result"]["cached"]]
    cached = [r for r in done if r["job"]["result"]["cached"]]

    def run(record: dict) -> float:
        return record["job"]["result"]["stats"]["runtime_seconds"] * scale

    latency = [r["latency"] * scale for r in done]
    admit = [r["admitted"] * scale for r in done]
    runs = [run(r) for r in fresh]
    overhead = [(r["latency"] - r["admitted"]) * scale - run(r) for r in fresh]
    fresh_latency = sum(r["latency"] * scale for r in fresh)
    return {
        "latency": latency_summary(latency),
        "admit": latency_summary(admit),
        "run": latency_summary(runs),
        "overhead": latency_summary(overhead),
        "cached_latency": latency_summary([r["latency"] * scale for r in cached]),
        "run_mean_s": fmean(runs) if runs else 0.0,
        "admit_share": sum(admit) / sum(latency) if latency else 0.0,
        "run_share": sum(runs) / fresh_latency if fresh else 0.0,
        "overhead_share": sum(overhead) / fresh_latency if fresh else 0.0,
        "cached_frac": len(cached) / len(done) if done else 0.0,
    }


def _serve(workload, requests, seconds, workdir, problems) -> dict:
    """Start a fresh daemon, drive the load in calibrated segments, drain.

    Returns the daemon's ``setup_s``, the ``records``, the
    ``calibrations``, ``busy_s`` (all unscaled) and the workers' peak RSS
    at the end (``rss_mb``).
    """
    daemon = Daemon(workload, workdir, "load")
    try:
        setup_s = daemon.start()
        records, calibrations, busy_s = drive_calibrated(
            daemon.client, requests, workload.clients, seconds
        )
        workers = sorted(_children(daemon.process.pid))
        rss_mb = sum(_peak_rss_mib(pid) for pid in workers)
    finally:
        returncode = daemon.stop()
    if workers != daemon.workers:
        problems.append("the daemon replaced a worker during the run")
    if returncode != EXIT_DRAINED:
        problems.append(
            f"loaded daemon exited {returncode} on SIGTERM, not {EXIT_DRAINED}"
        )
    return {
        "setup_s": setup_s, "records": records, "calibrations": calibrations,
        "busy_s": busy_s, "rss_mb": rss_mb,
    }


def _extra_starts(workload, workdir, problems) -> list[float]:
    """Set-up times of daemons that are started and drained with no load."""
    times = []
    for index in range(workload.setup_starts - 1):
        daemon = Daemon(workload, workdir, f"setup{index}")
        try:
            times.append(daemon.start())
        finally:
            returncode = daemon.stop()
        if returncode != EXIT_DRAINED:
            problems.append(f"idle daemon exited {returncode} on SIGTERM")
    return times


def measure(
    workload: ServeWorkload,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    engine: str,
) -> metrics.RunResult:
    """One benchmark run of the serving workload."""
    requests = job_list(workload, seed, _request_budget(workload, seconds))
    problems: list[str] = []
    if trace:
        return _measure_traced(workload, requests, seconds, workdir, problems)
    before = calibrate()
    setups = _extra_starts(workload, workdir, problems)
    run = _serve(workload, requests, seconds, workdir, problems)
    setups.append(run["setup_s"])
    calibrations = [before, *run["calibrations"]]
    scale = host_scale(calibrations)
    records = run["records"]
    problems.extend(check_jobs(_daemon_outcomes(records)))
    breakdown = client_breakdown(records, scale)
    stats = [r["job"]["result"]["stats"] for r in records if "job" in r]
    if not stats:
        raise BenchmarkError(f"no request completed: {problems[:3]}")
    engines = {entry["dd_backend"] for entry in stats}
    if engines != {engine}:
        problems.append(f"jobs ran on {sorted(engines)}, default is {engine}")
    measured = metrics.end_to_end(
        setup_s=median(setups) * scale,
        # Mean, not median: fresh jobs are of two kinds, and the median
        # of the mix jumps between them.
        wall_s=breakdown["run_mean_s"],
        latency_p50_s=breakdown["latency"]["p50"],
        jobs_per_s=breakdown["latency"]["n"] / (run["busy_s"] * scale),
        sim_rss_mb=run["rss_mb"],
        peak_nodes=max(entry["max_nodes"] for entry in stats),
        fidelity_estimate=min(entry["fidelity_estimate"] for entry in stats),
    )
    report = {
        "requests": len(records),
        "latency_p95_s": breakdown["latency"]["p95"],
        "serve": breakdown,
        "raw_setup_s": setups,
        "calibrations_s": calibrations,
    }
    attempted = len(records) + workload.setup_starts
    return metrics.RunResult(measured, attempted, len(problems), problems, report)


def _measure_traced(workload, requests, seconds, workdir, problems):
    """Daemon run for the client-side split, then an untraced and a
    traced replay of the same jobs for the layer breakdown."""
    run = _serve(workload, requests, seconds / 2, workdir, problems)
    records = run["records"]
    daemon_found = check_jobs(_daemon_outcomes(records))
    specs = [request.spec.to_dict() for request in requests]
    plain = run_child(
        {"mode": "replay", "jobs": specs, "traced": False,
         "store": str(workdir / "replay-plain"), "budget_s": seconds / 4},
        workdir,
    )
    replayed = len(plain["jobs"])
    traced = run_child(
        {"mode": "replay", "jobs": specs[:replayed], "traced": True,
         "store": str(workdir / "replay-traced")},
        workdir,
    )
    scale = host_scale([*run["calibrations"], calibrate()])
    replay_found = []
    for name, replay in (("untraced", plain), ("traced", traced)):
        replay_found += [
            f"{name} replay {problem}" for problem in check_jobs(
                [(request, job, job["error"])
                 for request, job in zip(requests, replay["jobs"])]
            )
        ]
    if [_replay_key(job) for job in traced["jobs"]] != [
        _replay_key(job) for job in plain["jobs"]
    ]:
        replay_found.append("traced replay results differ from untraced")
    problems.extend(daemon_found + replay_found)
    trace = metrics.TracedPass()
    trace.add(
        traced, plain["wall_s"],
        [job["stats"] for job in traced["jobs"] if not job["cached"]],
    )
    breakdown = client_breakdown(records, scale)
    report = {
        "requests": len(records),
        "replayed": replayed,
        "serve": breakdown,
        "layers": metrics.layer_table(trace, scale),
    }
    attempted = len(records) + 2 * replayed + 1
    return metrics.RunResult(
        metrics.per_layer(trace, breakdown, scale), attempted, len(problems),
        problems, report,
    )


def _replay_key(job: dict) -> tuple:
    """A replayed job's outcome without its timing."""
    stats = {k: v for k, v in (job["stats"] or {}).items() if k != "runtime_seconds"}
    return job["status"], job["cached"], stats
