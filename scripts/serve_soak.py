#!/usr/bin/env python
"""Soak test for ``repro-sim serve`` — CI's chaos acceptance for the
serving layer (docs/SERVE.md).

Drives a real daemon process through a mixed-priority burst of
submissions while a fault plan SIGKILLs one worker mid-job, then
asserts the ISSUE-5 serving invariants:

* **Zero lost accepted jobs** — every job the daemon admitted reaches a
  final state (``completed``/``deadline``; never silently missing).
* **Explicit shedding** — the burst overruns the bounded queue, so at
  least one submission is rejected with ``error="shed"`` and a
  ``retry_after`` hint, and shed submissions are eventually admitted on
  retry.
* **Supervision** — the killed worker is replaced (``worker_restarts``)
  and its job completes on a requeued attempt.
* **Bounded admission latency** — p99 time-to-admission-decision stays
  under ``--p99-admission-seconds`` even while saturated.  Beside it the
  soak reports (without gating on it) the submit-to-final latency of
  completed jobs, p50 and p95, measured by one waiter per accepted job.
* **Clean drain** — SIGTERM ends the daemon with exit code 5
  (``EXIT_DRAINED``) and a final ``--metrics`` snapshot on disk.

Exit code 0 when every assertion holds; 1 otherwise (the daemon log
tail is printed for the CI failure artifact).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro.faults import FaultPlan, FaultRule
from repro.serve import ServeClient, ServeError
from repro.service.jobs import JobSpec

CIRCUITS = (
    "builtin:shor_15_2",
    "builtin:qsup_2x2_4_0",
    "builtin:qsup_3x3_8_0",
    "builtin:qsup_3x3_12_0",
)

#: Final states that count as "not lost" for an accepted job.
ACCEPTABLE_FINAL = {"completed", "deadline", "drained"}


def _spec(index: int) -> JobSpec:
    """A unique-per-index spec (distinct content hash → no cache hits)."""
    return JobSpec(
        circuit=CIRCUITS[index % len(CIRCUITS)],
        strategy="fidelity",
        strategy_args=(
            ("final_fidelity", round(0.9999 - index * 1e-5, 7)),
            ("round_fidelity", 0.999),
        ),
        checkpoint_interval=10,
    )


def _start_daemon(args, workdir: str, log_path: str) -> tuple:
    socket_path = os.path.join(workdir, "serve.sock")
    plan_path = os.path.join(workdir, "plan.json")
    plan = FaultPlan(
        rules=(FaultRule(site="engine.job", kind="kill", max_hits=1),),
        state_dir=os.path.join(workdir, "counters"),
    )
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan.to_dict(), handle, indent=2)
    log_handle = open(log_path, "w", encoding="utf-8")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--store",
            os.path.join(workdir, "store"),
            "--socket",
            socket_path,
            "--workers",
            str(args.workers),
            "--queue-capacity",
            str(args.queue_capacity),
            "--fault-plan",
            plan_path,
            "--metrics",
            os.path.join(workdir, "metrics.json"),
        ],
        stdout=log_handle,
        stderr=subprocess.STDOUT,
    )
    client = ServeClient(socket_path=socket_path, timeout=120.0)
    deadline = time.monotonic() + 30.0
    while True:
        try:
            client.ping()
            return process, client, log_handle
        except OSError:
            if process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited early (rc={process.returncode})"
                )
            if time.monotonic() >= deadline:
                process.kill()
                raise RuntimeError("daemon did not come up in 30s")
            time.sleep(0.05)


def _percentile(ordered: list[float], fraction: float) -> float:
    return ordered[int(fraction * (len(ordered) - 1))]


class _Waiter(threading.Thread):
    """Waits for one accepted job from the moment it was submitted, so
    its final state is seen when it happens rather than when a
    sequential sweep gets to it."""

    def __init__(self, client: ServeClient, job_id: str, submitted: float):
        super().__init__(daemon=True)
        self.client = client
        self.job_id = job_id
        self.submitted = submitted
        self.job: dict | None = None
        self.error: Exception | None = None
        self.latency = 0.0

    def run(self) -> None:
        try:
            self.job = self.client.wait(self.job_id, timeout=300.0)["job"]
        except (ServeError, OSError) as error:
            self.error = error
        self.latency = time.perf_counter() - self.submitted


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=50)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queue-capacity", type=int, default=8)
    parser.add_argument("--p99-admission-seconds", type=float, default=0.5)
    parser.add_argument(
        "--log",
        default="",
        help="daemon log path (default: <workdir>/daemon.log)",
    )
    args = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix="serve-soak-")
    log_path = args.log or os.path.join(workdir, "daemon.log")
    failures: list[str] = []

    def check(ok: bool, label: str) -> None:
        print(f"  {'ok ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    process, client, log_handle = _start_daemon(args, workdir, log_path)
    try:
        print(f"soak: {args.requests} mixed-priority requests, "
              f"workers={args.workers}, "
              f"queue_capacity={args.queue_capacity}")

        accepted: dict[str, dict] = {}
        waiters: dict[str, _Waiter] = {}
        admission_latencies: list[float] = []

        def accept(response: dict, submitted: float) -> None:
            job_id = response["job_id"]
            accepted[job_id] = response
            waiters[job_id] = _Waiter(client, job_id, submitted)
            waiters[job_id].start()

        shed_total = 0
        backlog: list[tuple[int, float]] = []

        for index in range(args.requests):
            submit_started = time.perf_counter()
            try:
                response = client.submit(
                    _spec(index),
                    priority=index % 3,
                    # Every 10th request carries a tight soft deadline:
                    # "deadline" is then an acceptable final state.
                    soft_timeout=0.05 if index % 10 == 9 else None,
                )
            except ServeError as error:
                admission_latencies.append(
                    time.perf_counter() - submit_started
                )
                if error.error != "shed":
                    failures.append(
                        f"unexpected rejection: {error.error}"
                    )
                    continue
                shed_total += 1
                backlog.append((index, error.retry_after or 0.1))
            else:
                admission_latencies.append(
                    time.perf_counter() - submit_started
                )
                accept(response, submit_started)

        # Retry shed submissions until admitted (bounded patience):
        # shedding is explicit back-pressure, not job loss.
        retry_deadline = time.monotonic() + 120.0
        while backlog and time.monotonic() < retry_deadline:
            index, retry_after = backlog.pop(0)
            time.sleep(min(retry_after, 1.0))
            submit_started = time.perf_counter()
            try:
                response = client.submit(_spec(index), priority=index % 3)
            except ServeError as error:
                if error.error != "shed":
                    failures.append(
                        f"unexpected rejection on retry: {error.error}"
                    )
                    continue
                backlog.append((index, error.retry_after or 0.1))
            else:
                accept(response, submit_started)

        check(shed_total >= 1, f"saturation shed observed ({shed_total})")
        check(not backlog, "every shed submission eventually admitted")
        degraded = sum(1 for r in accepted.values() if r["degraded"])
        print(f"  -- {len(accepted)} accepted, {degraded} admitted at a "
              "degraded tier")

        lost: list[str] = []
        statuses: dict[str, int] = {}
        completed_latencies: list[float] = []
        for job_id in sorted(accepted):
            waiter = waiters[job_id]
            waiter.join()
            job = waiter.job
            if job is None:
                lost.append(f"{job_id}: {waiter.error}")
                continue
            if job["status"] == "completed":
                completed_latencies.append(waiter.latency)
            statuses[job["status"]] = statuses.get(job["status"], 0) + 1
            if job["status"] not in ACCEPTABLE_FINAL:
                lost.append(f"{job_id}: {job['status']} ({job['error']})")
        check(not lost, f"zero lost accepted jobs {statuses}")
        for line in lost[:10]:
            print(f"       lost: {line}")

        metrics = client.metrics()
        check(
            metrics["worker_restarts"] >= 1,
            f"killed worker was replaced "
            f"(restarts={metrics['worker_restarts']})",
        )

        admission_latencies.sort()
        p99 = _percentile(admission_latencies, 0.99)
        check(
            p99 <= args.p99_admission_seconds,
            f"p99 admission latency {p99 * 1000:.1f}ms <= "
            f"{args.p99_admission_seconds * 1000:.0f}ms",
        )
        if completed_latencies:
            completed_latencies.sort()
            print(
                "  -- submit->final latency of "
                f"{len(completed_latencies)} completed jobs: "
                f"p50 {_percentile(completed_latencies, 0.5) * 1000:.0f}ms, "
                f"p95 {_percentile(completed_latencies, 0.95) * 1000:.0f}ms"
            )

        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=60)
        check(returncode == 5, f"clean SIGTERM drain (exit {returncode})")
        check(
            os.path.exists(os.path.join(workdir, "metrics.json")),
            "final metrics snapshot written",
        )
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
        log_handle.close()
        if failures:
            print("---- daemon log tail ----")
            with open(log_path, encoding="utf-8") as handle:
                for line in handle.readlines()[-40:]:
                    print(f"  {line.rstrip()}")
        else:
            shutil.rmtree(workdir, ignore_errors=True)

    if failures:
        print(f"soak: FAILED ({len(failures)} assertion(s))")
        return 1
    print("soak: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
