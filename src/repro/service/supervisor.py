"""Supervised worker pool: forked workers, heartbeats, kill/respawn.

The one worker pool of the repo: :class:`~repro.service.engine.JobEngine`
runs parallel batches on it and the serve daemon its requests.  Both
must survive their workers dying (OOM-killed, fault-plan ``kill``
rules, hard-deadline SIGKILLs) and wedging (stuck in a non-Python
blocking call).  An executor-style pool hides too much for that — a
broken pool poisons every in-flight future — so the supervisor manages
``multiprocessing`` processes directly:

* one task queue *per worker*, so the parent always knows exactly which
  job a dead worker was holding (a shared task queue loses that);
* one result pipe *per worker* carrying ``("started" | "done" |
  "failed", ...)`` messages.  A shared queue would not do: its writers
  share one lock, and a worker killed while its feeder thread held it
  would block every other worker's results.  A worker killed mid-send
  only tears its own pipe, which is closed with its handle;
* a per-worker heartbeat (a shared double the worker's beat thread
  stamps with ``time.monotonic()``, which is system-wide on Linux and
  therefore comparable across processes) — a busy worker whose beat
  goes stale past ``heartbeat_timeout`` is declared wedged, killed, and
  replaced;
* a per-worker cancel event, wired into the job's
  :class:`repro.core.simulator.CancellationToken` so drains and soft
  cancellations reach the gate loop cooperatively.

Workers are **forked**, so an armed :mod:`repro.faults` plan in the
parent process is inherited — chaos plans with ``state_dir`` visit
counters fire deterministically across worker generations.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import wait

from ..core.simulator import CancellationToken
from ..dd.package import reset_default_package
from .engine import JobResult, execute_job
from .jobs import JobSpec
from .replication import open_store

#: Seconds between worker heartbeat stamps.
HEARTBEAT_INTERVAL = 0.2


def _worker_main(
    worker_id: int,
    task_queue,
    results,
    heartbeat,
    cancel_event,
    store_root: str,
    use_cache: bool,
) -> None:
    """Worker process entry: beat, take tasks, execute, report."""
    # Forked workers inherit the daemon's process-global default package
    # (and every node it interned); replace it with a fresh one.  The
    # backend override is inherited too — deliberately, so a --backend
    # choice made at daemon startup governs all workers.
    reset_default_package()
    stop_beat = threading.Event()

    def beat() -> None:
        while not stop_beat.is_set():
            heartbeat.value = time.monotonic()
            stop_beat.wait(HEARTBEAT_INTERVAL)

    beater = threading.Thread(target=beat, daemon=True)
    beater.start()
    try:
        while True:
            try:
                task = task_queue.get(timeout=0.5)
            except queue_module.Empty:
                continue
            if task is None:
                return
            job_id, spec_dict, soft_deadline, fence = task
            # A stale cancel aimed at a previous assignment must not
            # abort this one; the parent only sets the event while this
            # worker's current job should stop.
            cancel_event.clear()
            results.send(("started", worker_id, job_id))
            try:
                spec = JobSpec.from_dict(spec_dict)
                cancel = CancellationToken(
                    soft_deadline=soft_deadline, event=cancel_event
                )
                result = execute_job(
                    spec,
                    # open_store, not ArtifactStore: a replicated root
                    # must reopen as a ReplicatedStore in the worker.
                    open_store(store_root),
                    use_cache=use_cache,
                    cancel=cancel,
                    fence=fence,
                )
            except BaseException as error:  # noqa: BLE001 - reported
                results.send(
                    (
                        "failed",
                        worker_id,
                        job_id,
                        f"{type(error).__name__}: {error}",
                    )
                )
            else:
                results.send(("done", worker_id, job_id, result))
    finally:
        stop_beat.set()


@dataclass
class WorkerEvent:
    """One message pumped out of the pool.

    ``kind`` is ``"started"``, ``"done"`` (carries ``result``),
    ``"failed"`` (carries ``error``), ``"died"`` (worker process gone),
    or ``"wedged"`` (heartbeat stale; the worker was killed).  For
    ``died``/``wedged``, ``job_id`` is the lost assignment or None.
    """

    kind: str
    worker_id: int
    job_id: str | None = None
    result: JobResult | None = None
    error: str = ""


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    def __init__(self, worker_id: int, ctx, args) -> None:
        self.worker_id = worker_id
        self.task_queue = ctx.Queue(1)
        self.results, self._results_writer = ctx.Pipe(duplex=False)
        self.heartbeat = ctx.Value("d", time.monotonic(), lock=False)
        self.cancel_event = ctx.Event()
        self.job_id: str | None = None
        store_root, use_cache = args
        self.process = ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self.task_queue,
                self._results_writer,
                self.heartbeat,
                self.cancel_event,
                store_root,
                use_cache,
            ),
            daemon=True,
        )

    def start(self) -> None:
        self.process.start()
        # With the parent's copy of the write end closed, a worker
        # killed mid-send leaves EOF on its pipe rather than a hang.
        self._results_writer.close()

    @property
    def busy(self) -> bool:
        return self.job_id is not None

    def alive(self) -> bool:
        return self.process.is_alive()

    def last_beat(self) -> float:
        return float(self.heartbeat.value)


class WorkerSupervisor:
    """Spawn, watch, and replace simulation workers.

    Args:
        store_root: Artifact store path handed to every worker.
        workers: Pool size (kept constant across restarts).
        use_cache: Forwarded to :func:`execute_job`.
        heartbeat_timeout: Stale-beat threshold for wedge detection;
            generous by default because a beat thread misses beats only
            when the whole process is stopped or stuck in C.
        clock: Monotonic time source (injectable for tests).

    Not thread-safe; drive it from one control loop (the daemon tick).
    """

    def __init__(
        self,
        store_root: str,
        workers: int = 2,
        use_cache: bool = True,
        heartbeat_timeout: float = 10.0,
        clock=time.monotonic,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.store_root = store_root
        self.workers = workers
        self.use_cache = use_cache
        self.heartbeat_timeout = heartbeat_timeout
        self.clock = clock
        self._ctx = get_context("fork")
        self._handles: dict[int, _WorkerHandle] = {}
        self._next_id = 0
        self.restarts = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn the initial pool."""
        while len(self._handles) < self.workers:
            self._spawn()

    def _spawn(self) -> _WorkerHandle:
        handle = _WorkerHandle(
            self._next_id,
            self._ctx,
            (self.store_root, self.use_cache),
        )
        self._next_id += 1
        self._handles[handle.worker_id] = handle
        handle.start()
        return handle

    def stop(self, timeout: float = 2.0) -> None:
        """Shut the pool down: sentinel, join, terminate stragglers."""
        for handle in self._handles.values():
            try:
                handle.task_queue.put_nowait(None)
            except queue_module.Full:
                pass
        deadline = self.clock() + timeout
        for handle in self._handles.values():
            remaining = max(0.0, deadline - self.clock())
            handle.process.join(remaining)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(1.0)
            handle.results.close()
        self._handles.clear()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    @property
    def idle_count(self) -> int:
        """Workers currently without an assignment."""
        return sum(
            1
            for handle in self._handles.values()
            if not handle.busy and handle.alive()
        )

    @property
    def busy_jobs(self) -> dict[str, int]:
        """Mapping of in-flight job id → worker id."""
        return {
            handle.job_id: worker_id
            for worker_id, handle in self._handles.items()
            if handle.job_id is not None
        }

    def submit(
        self,
        job_id: str,
        spec: JobSpec,
        soft_deadline: float | None,
        fence: dict | None = None,
    ) -> bool:
        """Assign a job to an idle worker; False when none is free.

        ``fence`` is the ownership-lease token the worker attaches to
        every checkpoint write (see :func:`execute_job`).
        """
        for handle in self._handles.values():
            if handle.busy or not handle.alive():
                continue
            handle.job_id = job_id
            handle.task_queue.put(
                (job_id, spec.to_dict(), soft_deadline, fence)
            )
            return True
        return False

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------

    def poll(self, timeout: float = 0.0) -> list[WorkerEvent]:
        """Drain completed-work messages, waiting up to ``timeout``
        seconds for the first one (0: non-blocking)."""
        events: list[WorkerEvent] = []
        pipes = [handle.results for handle in self._handles.values()]
        for pipe in wait(pipes, timeout):
            events.extend(self._read(pipe))
        return events

    def _read(self, pipe) -> list[WorkerEvent]:
        """Turn every message waiting on one worker's pipe into events."""
        events: list[WorkerEvent] = []
        while True:
            try:
                if not pipe.poll():
                    break
                message = pipe.recv()
            except (EOFError, OSError):
                break  # the worker died, maybe mid-send; check() sees it
            kind, worker_id, job_id = message[0], message[1], message[2]
            handle = self._handles.get(worker_id)
            if kind == "started":
                events.append(
                    WorkerEvent(
                        kind="started", worker_id=worker_id, job_id=job_id
                    )
                )
                continue
            if handle is not None and handle.job_id == job_id:
                handle.job_id = None
            if kind == "done":
                events.append(
                    WorkerEvent(
                        kind="done",
                        worker_id=worker_id,
                        job_id=job_id,
                        result=message[3],
                    )
                )
            else:
                events.append(
                    WorkerEvent(
                        kind="failed",
                        worker_id=worker_id,
                        job_id=job_id,
                        error=message[3],
                    )
                )
        return events

    def check(self) -> list[WorkerEvent]:
        """Detect dead and wedged workers; replace them.

        Call *after* :meth:`poll` in each tick so results a worker
        managed to report before dying are not double-counted as lost.
        Returns one ``died``/``wedged`` event per replaced worker,
        carrying the assignment that was in flight (if any) — the
        caller decides whether to requeue (a checkpoint makes the retry
        resume) or fail the job.
        """
        events: list[WorkerEvent] = []
        now = self.clock()
        for worker_id in list(self._handles):
            handle = self._handles[worker_id]
            if not handle.alive():
                events.append(
                    WorkerEvent(
                        kind="died",
                        worker_id=worker_id,
                        job_id=handle.job_id,
                    )
                )
                self._replace(worker_id)
            elif (
                handle.busy
                and now - handle.last_beat() > self.heartbeat_timeout
            ):
                handle.process.kill()
                handle.process.join(1.0)
                events.append(
                    WorkerEvent(
                        kind="wedged",
                        worker_id=worker_id,
                        job_id=handle.job_id,
                    )
                )
                self._replace(worker_id)
        return events

    def _replace(self, worker_id: int) -> None:
        """Drop a dead handle and spawn its successor."""
        self._handles.pop(worker_id).results.close()
        self.restarts += 1
        self._spawn()

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------

    def cancel_job(self, job_id: str) -> bool:
        """Cooperatively cancel an in-flight job (soft: sets the
        worker's cancel event; the gate loop checkpoints and returns a
        drained/deadline result)."""
        for handle in self._handles.values():
            if handle.job_id == job_id:
                handle.cancel_event.set()
                return True
        return False

    def cancel_all(self) -> int:
        """Set every busy worker's cancel event (drain); returns count."""
        cancelled = 0
        for handle in self._handles.values():
            if handle.busy:
                handle.cancel_event.set()
                cancelled += 1
        return cancelled

    def kill_job(self, job_id: str) -> bool:
        """Hard-kill the worker running ``job_id`` and replace it.

        The caller owns the requeue-or-fail decision for the lost
        assignment; the job does **not** come back from :meth:`check`
        (the handle is replaced here).
        """
        for worker_id, handle in list(self._handles.items()):
            if handle.job_id == job_id:
                handle.process.kill()
                handle.process.join(1.0)
                self._replace(worker_id)
                return True
        return False
