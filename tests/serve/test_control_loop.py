"""The control loop waits on events, not on a timer.

Every test here uses a ``tick_interval`` far longer than the behaviour
it checks, so a loop that only acted once per interval fails it: a
submitted job must complete, and a drain must stop the daemon, well
inside one interval; a killed worker's pipe (readable EOF until the
worker is replaced) must not spin the loop; and the batch engine, which
shares the worker supervisor, must not spin on it either.
"""

from __future__ import annotations

import os
import signal
import time

from repro.faults import FaultPlan, FaultRule, arm
from repro.serve import SimDaemon
from repro.service.engine import JobEngine
from repro.service.jobs import JobSpec
from repro.service.supervisor import WorkerSupervisor

from .conftest import run_daemon


def _counting(monkeypatch, owner, name: str) -> list[float]:
    """Record the time of every call to ``owner.name``."""
    calls: list[float] = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(time.monotonic())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_submitted_job_completes_inside_one_tick(store):
    with run_daemon(store, tick_interval=2.0) as (daemon, client):
        spec = JobSpec(circuit="builtin:shor_15_2", seed=3)
        started = time.monotonic()
        job_id = client.submit(spec)["job_id"]
        job = client.wait(job_id, timeout=30.0)["job"]
        elapsed = time.monotonic() - started
        assert job["status"] == "completed"
        assert elapsed < 1.0, f"submit -> completed took {elapsed:.2f}s"


def test_drain_op_stops_an_idle_daemon_inside_one_tick(store):
    with run_daemon(store, tick_interval=5.0) as (daemon, client):
        started = time.monotonic()
        assert client.drain()["draining"]
        assert daemon._stopped.wait(1.0), "drain waited for the tick"
        assert time.monotonic() - started < 1.0


def test_killed_idle_worker_does_not_spin_the_loop(store, monkeypatch):
    ticks = _counting(monkeypatch, SimDaemon, "_tick")
    with run_daemon(store, workers=1, tick_interval=1.0) as (daemon, _):
        (handle,) = daemon.supervisor._handles.values()
        killed_at = time.monotonic()
        os.kill(handle.process.pid, signal.SIGKILL)
        time.sleep(2.0)
        passes = sum(1 for at in ticks if at >= killed_at)
        assert passes <= 10, f"{passes} loop passes in 2 s after a kill"
        assert daemon.supervisor.restarts == 1
        assert daemon.supervisor.idle_count == 1


def test_engine_batch_with_a_killed_worker_polls_a_bounded_number_of_times(
    store, tmp_path, monkeypatch
):
    victim = JobSpec(circuit="builtin:shor_15_2")
    bystander = JobSpec(circuit="builtin:qsup_2x2_4_0")
    # Matching one job keeps the other worker off the shared visit
    # counter, so the kill fires exactly once.
    arm(
        FaultPlan(
            rules=(
                FaultRule(
                    site="engine.job",
                    kind="kill",
                    max_hits=1,
                    match={"name": victim.display_name},
                ),
            ),
            state_dir=str(tmp_path / "counters"),
        )
    )
    polls = _counting(monkeypatch, WorkerSupervisor, "poll")
    started = time.monotonic()
    results = JobEngine(store, workers=2, retry_backoff=0.01).run_batch(
        [victim, bystander]
    )
    elapsed = time.monotonic() - started
    assert [result.status for result in results] == ["completed"] * 2
    assert [result.attempts for result in results] == [2, 1]
    # The batch loop waits up to 0.1 s per poll; a dead worker's
    # readable pipe must not turn that wait into a spin.
    assert len(polls) <= 20 + 20 * elapsed, (
        f"{len(polls)} polls in {elapsed:.2f}s"
    )
