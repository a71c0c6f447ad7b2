"""The simulation daemon: request path, control loop, drain.

``SimDaemon`` wires the serving pieces together around the existing
service layer (:func:`repro.service.engine.execute_job` inside
supervised workers, :class:`repro.service.store.ArtifactStore` for
artifacts and checkpoints):

* **Admission** (socket handler threads, under the state lock):
  draining → reject; queue full → explicit SHED with a ``retry_after``
  estimate; breaker open for the spec → fast rejection; otherwise the
  fidelity ladder picks the tier for the current queue utilization,
  possibly rewriting the spec to a lower ``f_final``, and the job
  enters the bounded priority queue.
* **The tick** (one control-loop thread): pump worker results, replace
  dead/wedged workers and requeue-or-fail their lost jobs, hard-kill
  jobs past their hard deadline, dispatch queued jobs to idle workers,
  and advance a drain to completion.
* **Deadlines** are per-attempt: at dispatch the soft deadline is
  handed to the worker as a :class:`~repro.core.simulator.CancellationToken`
  (the gate loop checkpoints and answers ``status="deadline"`` with the
  partial fidelity spent), while the hard deadline is enforced here by
  SIGKILL + requeue-or-fail — the backstop for workers too wedged to
  answer the soft signal.
* **Drain** (SIGTERM/SIGINT or the ``drain`` op): stop admitting,
  cancel in-flight jobs cooperatively (they checkpoint), persist the
  still-queued jobs to ``<store>/serve/drained-queue.json`` (reloaded
  and re-admitted on the next start), and exit once nothing is
  running.  No accepted job is ever silently lost.

Store degradation is part of admission: when the store is replicated
(:class:`repro.service.replication.ReplicatedStore`) and has dropped
to read-only after a lost write quorum, submissions shed with
``store_degraded`` rather than accepting work whose artifacts could
not be durably persisted.
"""

from __future__ import annotations

import os
import socketserver
import sys
import threading
import time
from dataclasses import dataclass, field

from ..faults.errors import PERMANENT
from ..obs import get_recorder
from ..service.engine import JobResult
from ..service.jobs import JobSpec
from ..service.replication import open_store
from ..service.store import ArtifactStore
from ..service.supervisor import WorkerSupervisor
from .breaker import CircuitBreaker
from .degrade import FidelityLadder
from .protocol import (
    ProtocolError,
    error_response,
    ok_response,
    read_message,
    write_message,
)
from .queue import AdmissionQueue, QueueItem

#: File (under ``<store>/serve/``) holding jobs that were still queued
#: when a drain completed; the next daemon start re-admits them.
DRAINED_QUEUE_FILE = "drained-queue.json"

#: Job states a record can rest in (no further transitions).  A
#: ``stolen`` job left this daemon's queue for a peer shard (the
#: cluster router re-admits it elsewhere; see repro.serve.router).
FINAL_STATES = frozenset(
    {"completed", "timeout", "deadline", "drained", "error", "stolen"}
)

#: Tenant recorded for submissions that carry no ``tenant`` field.
DEFAULT_TENANT = "default"


@dataclass
class JobRecord:
    """Daemon-side lifecycle of one accepted job."""

    job_id: str
    spec: JobSpec
    tenant: str = DEFAULT_TENANT
    priority: int = 0
    tier: int = 0
    f_final_cap: float | None = None
    degraded: bool = False
    soft_timeout: float | None = None
    hard_timeout: float | None = None
    status: str = "queued"
    attempts: int = 0
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    hard_deadline: float | None = None
    result: JobResult | None = None
    error: str = ""
    events: list[str] = field(default_factory=list)
    #: Ownership-lease fence token (``{"owner", "epoch"}``) stamped by
    #: the cluster router; handed to the worker so the store rejects
    #: checkpoint writes from a shard whose lease was reassigned.
    fence: dict | None = None

    @property
    def final(self) -> bool:
        return self.status in FINAL_STATES

    def to_dict(self) -> dict:
        document: dict = {
            "job_id": self.job_id,
            "job_hash": self.spec.content_hash(),
            "name": self.spec.display_name,
            "status": self.status,
            "tenant": self.tenant,
            "priority": self.priority,
            "tier": self.tier,
            "f_final_cap": self.f_final_cap,
            "degraded": self.degraded,
            "attempts": self.attempts,
            "error": self.error,
            "events": list(self.events),
        }
        if self.result is not None:
            counts = self.result.counts
            document["result"] = {
                "status": self.result.status,
                "cached": self.result.cached,
                "resumed_at": self.result.resumed_at,
                "stats": self.result.stats,
                "counts": (
                    {str(k): v for k, v in counts.items()}
                    if counts is not None
                    else None
                ),
                "error": self.result.error,
                "error_kind": self.result.error_kind,
            }
        return document


class _StreamHandler(socketserver.StreamRequestHandler):
    """One connection: JSON-lines request/response until EOF."""

    def handle(self) -> None:
        daemon = self.server.daemon  # type: ignore[attr-defined]
        while True:
            try:
                message = read_message(self.rfile)
            except ProtocolError as error:
                write_message(self.wfile, error_response(str(error)))
                return
            if message is None:
                return
            try:
                response = daemon.handle_request(message)
            except Exception as error:  # noqa: BLE001 - reported on wire
                response = error_response(
                    f"internal: {type(error).__name__}: {error}"
                )
            try:
                write_message(self.wfile, response)
            except (BrokenPipeError, ConnectionResetError):
                return


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


if hasattr(socketserver, "ThreadingUnixStreamServer"):

    class _UnixServer(socketserver.ThreadingUnixStreamServer):
        daemon_threads = True


def build_line_server(
    owner, socket_path: str | None, host: str, port: int
) -> tuple:
    """Create the threading JSON-lines listener for ``owner``.

    ``owner`` is any object with a ``handle_request(dict) -> dict``
    method — the single daemon and the cluster router share this server
    (and hence the exact wire behavior).  Returns ``(server, address)``
    where address is the socket path or the bound ``(host, port)``.
    """
    if socket_path is not None:
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        server = _UnixServer(socket_path, _StreamHandler)
        address: tuple[str, int] | str = socket_path
    else:
        server = _TCPServer((host, port), _StreamHandler)
        address = server.server_address[:2]
    server.daemon = owner  # type: ignore[attr-defined]
    return server, address


class SimDaemon:
    """Persistent simulation service over one artifact store.

    Args:
        store: Artifact store (or its root path) shared with workers.
        workers: Supervised worker-pool size.
        queue_capacity: Bound on queued-but-not-running jobs; beyond it
            submissions shed.
        ladder: Load-shedding fidelity ladder (None = default tiers).
        breaker: Per-spec circuit breaker (None = defaults).
        heartbeat_timeout: Wedged-worker threshold (seconds).
        max_attempts: Total executions allowed per job across worker
            deaths, hard kills, and transient failures.
        use_cache: Serve cached artifacts without simulating.
        shard_id: Cluster shard name; namespaces the drained-queue
            file so shards sharing one store never clobber each other,
            and is stamped into ping/metrics/jobs responses.  Empty
            for a standalone daemon (the pre-cluster file name).
        socket_path: Unix socket to listen on (preferred).
        host / port: TCP fallback when ``socket_path`` is None
            (``port=0`` picks a free port; see :attr:`address`).
        tick_interval: Control-loop period in seconds.
        log: Writable text stream for daemon log lines (stderr default).
    """

    def __init__(
        self,
        store: "ArtifactStore | str",
        workers: int = 2,
        queue_capacity: int = 16,
        ladder: FidelityLadder | None = None,
        breaker: CircuitBreaker | None = None,
        heartbeat_timeout: float = 10.0,
        max_attempts: int = 3,
        use_cache: bool = True,
        shard_id: str = "",
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_interval: float = 0.05,
        log=None,
    ) -> None:
        self.store = (
            store if isinstance(store, ArtifactStore) else open_store(store)
        )
        self.queue = AdmissionQueue(capacity=queue_capacity)
        self.ladder = ladder if ladder is not None else FidelityLadder()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.supervisor = WorkerSupervisor(
            self.store.root,
            workers=workers,
            use_cache=use_cache,
            heartbeat_timeout=heartbeat_timeout,
        )
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        self.max_attempts = max_attempts
        self.shard_id = shard_id
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.tick_interval = tick_interval
        self._log_stream = log if log is not None else sys.stderr
        self._lock = threading.RLock()
        self._done = threading.Condition(self._lock)
        self._jobs: dict[str, JobRecord] = {}
        self._seq = 0
        self._drain = threading.Event()
        self._stopped = threading.Event()
        self._server = None
        self._server_thread: threading.Thread | None = None
        self._started = False
        self._drain_swept = False
        self._service_ewma = 1.0
        self.address: tuple[str, int] | str | None = None
        self.clock = time.monotonic

    # ------------------------------------------------------------------
    # Logging
    # ------------------------------------------------------------------

    def _log(self, message: str) -> None:
        try:
            self._log_stream.write(
                f"[serve +{self.clock():.3f}] {message}\n"
            )
            self._log_stream.flush()
        except (OSError, ValueError):  # pragma: no cover - closed stream
            pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start workers and the socket listener (idempotent)."""
        if self._started:
            return
        self._started = True
        self.supervisor.start()
        self._restore_drained_queue()
        self._server, self.address = build_line_server(
            self, self.socket_path, self.host, self.port
        )
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
        )
        self._server_thread.start()
        self._log(
            f"listening on {self.address} "
            f"(workers={self.supervisor.workers}, "
            f"queue_capacity={self.queue.capacity})"
        )

    def serve_forever(self) -> None:
        """Run the control loop until drained (or :meth:`stop`)."""
        self.start()
        try:
            while not self._stopped.is_set():
                self._tick()
                time.sleep(self.tick_interval)
        finally:
            self.shutdown()

    def stop(self) -> None:
        """Stop immediately (tests); prefer :meth:`request_drain`."""
        self._stopped.set()

    def request_drain(self) -> None:
        """Begin a graceful drain (signal-handler safe)."""
        if not self._drain.is_set():
            self._drain.set()

    @property
    def draining(self) -> bool:
        return self._drain.is_set()

    def shutdown(self) -> None:
        """Tear down the listener and the worker pool."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self.socket_path and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:  # pragma: no cover - already gone
                pass
        self.supervisor.stop()
        self._log("shut down")

    # ------------------------------------------------------------------
    # Drained-queue persistence
    # ------------------------------------------------------------------

    def _drained_queue_name(self) -> str:
        name = (
            f"drained-queue-{self.shard_id}"
            if self.shard_id
            else DRAINED_QUEUE_FILE.removesuffix(".json")
        )
        return name

    def _persist_drained_queue(self, records: list[JobRecord]) -> None:
        if not records:
            return
        name = self._drained_queue_name()
        payload = [
            {
                "spec": record.spec.to_dict(),
                "priority": record.priority,
                "tenant": record.tenant,
                "soft_timeout": record.soft_timeout,
                "hard_timeout": record.hard_timeout,
            }
            for record in records
        ]
        try:
            self.store.park_jobs(name, payload)
        except OSError as error:
            self._log(f"failed to persist drained queue: {error}")
            return
        self._log(
            f"persisted {len(records)} queued job(s) to "
            f"{self.store.parked_jobs_path(name)} for the next start"
        )

    def _restore_drained_queue(self) -> None:
        name = self._drained_queue_name()
        try:
            entries = self.store.take_parked_jobs(name)
        except OSError as error:
            self._log(f"ignoring unreadable drained queue: {error}")
            return
        if not entries:
            return
        restored = 0
        leftover = []
        with self._lock:
            for entry in entries:
                try:
                    spec = JobSpec.from_dict(entry["spec"])
                    priority = int(entry.get("priority", 0))
                except (KeyError, TypeError, ValueError) as error:
                    self._log(f"dropping malformed drained entry: {error}")
                    continue
                record = self._new_record(spec, priority)
                record.tenant = str(
                    entry.get("tenant") or DEFAULT_TENANT
                )
                soft = entry.get("soft_timeout")
                hard = entry.get("hard_timeout")
                record.soft_timeout = (
                    float(soft) if soft is not None else None
                )
                record.hard_timeout = (
                    float(hard) if hard is not None else None
                )
                if self.queue.offer(
                    QueueItem(job_id=record.job_id, priority=priority)
                ):
                    restored += 1
                else:
                    del self._jobs[record.job_id]
                    leftover.append(entry)
        if leftover:
            try:
                self.store.park_jobs(name, leftover)
            except OSError as error:
                self._log(f"failed to re-park overflow jobs: {error}")
        if restored:
            self._log(
                f"re-admitted {restored} job(s) from the previous drain"
            )

    # ------------------------------------------------------------------
    # Admission (called from handler threads)
    # ------------------------------------------------------------------

    def _new_record(self, spec: JobSpec, priority: int) -> JobRecord:
        self._seq += 1
        record = JobRecord(
            job_id=f"j-{self._seq:06d}",
            spec=spec,
            priority=priority,
            submitted_at=self.clock(),
        )
        self._jobs[record.job_id] = record
        return record

    def _retry_after_estimate(self) -> float:
        """Suggested backoff for shed callers: roughly the time for the
        queue to make one slot's worth of progress."""
        depth = self.queue.depth + len(self.supervisor.busy_jobs)
        per_slot = self._service_ewma / max(1, self.supervisor.workers)
        return round(max(0.5, per_slot * max(1, depth)), 3)

    def handle_request(self, message: dict) -> dict:
        """Dispatch one protocol request (thread-safe)."""
        op = message.get("op")
        if op == "ping":
            with self._lock:
                return ok_response(
                    pong=True,
                    shard=self.shard_id,
                    draining=self.draining,
                    queue_depth=self.queue.depth,
                )
        if op == "submit":
            return self._handle_submit(message)
        if op == "status":
            return self._handle_status(message)
        if op == "wait":
            return self._handle_wait(message)
        if op == "metrics":
            return self._handle_metrics()
        if op == "jobs":
            return self._handle_jobs()
        if op == "steal":
            return self._handle_steal(message)
        if op == "drain":
            self.request_drain()
            return ok_response(draining=True)
        return error_response(f"unknown op {op!r}")

    def _handle_submit(self, message: dict) -> dict:
        obs = get_recorder()
        admission_started = time.perf_counter()
        try:
            with self._lock:
                if self.draining:
                    if obs.enabled:
                        obs.count("serve.rejected_draining")
                    return error_response("draining")
                spec_doc = message.get("spec")
                if not isinstance(spec_doc, dict):
                    return error_response("submit requires a spec object")
                if getattr(self.store, "read_only", False):
                    # A replicated store that lost its write quorum is
                    # read-only: accepting the job would let it run and
                    # then fail to persist its artifact.  Shed instead;
                    # a scrub (or recovered replica) lifts the mode.
                    if obs.enabled:
                        obs.count("serve.rejected_store_degraded")
                    return error_response(
                        "store_degraded",
                        retry_after=self._retry_after_estimate(),
                    )
                try:
                    spec = JobSpec.from_dict(spec_doc)
                except (TypeError, ValueError) as error:
                    if obs.enabled:
                        obs.count("serve.rejected_bad_spec")
                    return error_response(f"bad spec: {error}")
                priority = int(message.get("priority", 0))
                # Admission control first (non-destructive): a full
                # queue sheds before the breaker consumes a probe.
                if self.queue.full:
                    if obs.enabled:
                        obs.count("serve.shed")
                        obs.event(
                            "serve_shed",
                            name=spec.display_name,
                            queue_depth=self.queue.depth,
                        )
                    return error_response(
                        "shed", retry_after=self._retry_after_estimate()
                    )
                job_hash = spec.content_hash()
                if not self.breaker.allow(job_hash):
                    if obs.enabled:
                        obs.count("serve.breaker_rejected")
                    return error_response(
                        "breaker_open",
                        retry_after=round(
                            self.breaker.retry_after(job_hash), 3
                        ),
                    )
                tiered = self.ladder.apply(spec, self.queue.utilization)
                record = self._new_record(tiered.spec, priority)
                record.tenant = str(
                    message.get("tenant") or DEFAULT_TENANT
                )
                record.tier = tiered.tier
                record.f_final_cap = tiered.f_final_cap
                record.degraded = tiered.degraded
                soft = message.get("soft_timeout")
                hard = message.get("hard_timeout")
                record.soft_timeout = (
                    float(soft) if soft is not None else None
                )
                record.hard_timeout = (
                    float(hard) if hard is not None else None
                )
                fence = message.get("fence")
                record.fence = fence if isinstance(fence, dict) else None
                # Cannot fail: fullness was checked under this lock.
                self.queue.offer(
                    QueueItem(job_id=record.job_id, priority=priority)
                )
                if obs.enabled:
                    obs.count("serve.submitted")
                    obs.count(f"serve.tier.{record.tier}")
                    if record.degraded:
                        obs.count("serve.degraded")
                return ok_response(
                    job_id=record.job_id,
                    job_hash=record.spec.content_hash(),
                    tier=record.tier,
                    f_final_cap=record.f_final_cap,
                    degraded=record.degraded,
                    queue_depth=self.queue.depth,
                )
        finally:
            if obs.enabled:
                obs.observe(
                    "serve.admission",
                    time.perf_counter() - admission_started,
                )

    def _handle_status(self, message: dict) -> dict:
        job_id = message.get("job_id")
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                return error_response(f"unknown job {job_id!r}")
            return ok_response(job=record.to_dict())

    def _handle_wait(self, message: dict) -> dict:
        job_id = message.get("job_id")
        timeout = float(message.get("timeout", 60.0))
        deadline = self.clock() + timeout
        with self._done:
            record = self._jobs.get(job_id)
            if record is None:
                return error_response(f"unknown job {job_id!r}")
            while not record.final:
                remaining = deadline - self.clock()
                if remaining <= 0:
                    return error_response(
                        "wait_timeout", job=record.to_dict()
                    )
                self._done.wait(remaining)
            return ok_response(job=record.to_dict())

    def _handle_metrics(self) -> dict:
        obs = get_recorder()
        # Store health involves file reads (scrub status, read-only
        # marker) — gather it before taking the state lock (DD009).
        store_status = (
            self.store.status()
            if hasattr(self.store, "status")
            else {"replicated": False}
        )
        with self._lock:
            statuses: dict[str, int] = {}
            tiers: dict[str, int] = {}
            tenants: dict[str, dict] = {}
            for record in self._jobs.values():
                statuses[record.status] = statuses.get(record.status, 0) + 1
                tiers[str(record.tier)] = tiers.get(str(record.tier), 0) + 1
                tenant = tenants.setdefault(
                    record.tenant,
                    {"queued": 0, "running": 0, "final": 0, "total": 0},
                )
                tenant["total"] += 1
                if record.status == "queued":
                    tenant["queued"] += 1
                elif record.status in ("dispatched", "running"):
                    tenant["running"] += 1
                elif record.final:
                    tenant["final"] += 1
            breaker = self.breaker.snapshot()
            ladder_tier, ladder_cap = self.ladder.tier_for(
                self.queue.utilization
            )
            return ok_response(
                store=store_status,
                shard=self.shard_id,
                queue_depth=self.queue.depth,
                queue_capacity=self.queue.capacity,
                utilization=round(self.queue.utilization, 4),
                running=len(self.supervisor.busy_jobs),
                idle_workers=self.supervisor.idle_count,
                worker_restarts=self.supervisor.restarts,
                draining=self.draining,
                jobs_by_status=statuses,
                jobs_by_tier=tiers,
                tenants=tenants,
                ladder_tier=ladder_tier,
                ladder_cap=ladder_cap,
                breaker=breaker,
                breaker_open=sum(
                    1
                    for entry in breaker.values()
                    if entry["state"] != "closed"
                ),
                recorder=obs.snapshot() if obs.enabled else {},
            )

    def _handle_jobs(self) -> dict:
        """Compact status of every record — the router's sync primitive.

        One bulk response per tick instead of per-job ``status`` calls;
        the router uses it both as a liveness probe and to learn which
        of its routed jobs reached a final state.
        """
        with self._lock:
            jobs = [
                {
                    "job_id": record.job_id,
                    "job_hash": record.spec.content_hash(),
                    "status": record.status,
                    "tenant": record.tenant,
                }
                for record in self._jobs.values()
            ]
            return ok_response(shard=self.shard_id, jobs=jobs)

    def _handle_steal(self, message: dict) -> dict:
        """Give up to ``max_jobs`` queued jobs to the cluster router.

        The router re-admits them on a cooler (or surviving) shard;
        here each stolen record finalizes as ``stolen`` so this shard
        never also runs it — a stolen job has exactly one owner.
        Returns the full submission payload (spec, tenant, priority,
        deadlines) so nothing is lost in the move.
        """
        obs = get_recorder()
        max_jobs = int(message.get("max_jobs", 0))
        with self._lock:
            stolen: list[dict] = []
            for item in self.queue.steal(max_jobs):
                record = self._jobs.get(item.job_id)
                if record is None or record.status != "queued":
                    continue
                self._finalize(record, "stolen")
                stolen.append(
                    {
                        "job_id": record.job_id,
                        "job_hash": record.spec.content_hash(),
                        "spec": record.spec.to_dict(),
                        "priority": record.priority,
                        "tenant": record.tenant,
                        "soft_timeout": record.soft_timeout,
                        "hard_timeout": record.hard_timeout,
                    }
                )
            if obs.enabled and stolen:
                obs.count("serve.stolen", len(stolen))
            return ok_response(
                shard=self.shard_id,
                stolen=stolen,
                queue_depth=self.queue.depth,
            )

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        """One supervision pass; all state mutation happens here or in
        the handler threads, both under the state lock.  Blocking work
        (drained-queue persistence) is collected under the lock and
        performed after release (DD009 discipline)."""
        with self._lock:
            self._pump_results()
            self._check_workers()
            self._enforce_hard_deadlines()
            self._dispatch()
            to_persist = self._advance_drain()
        if to_persist:
            self._persist_drained_queue(to_persist)

    def _pump_results(self) -> None:
        for event in self.supervisor.poll():
            record = self._jobs.get(event.job_id or "")
            if event.kind == "started":
                if record is not None and record.status == "dispatched":
                    record.status = "running"
                continue
            if record is None or record.final:
                continue  # stale message from a killed worker
            if event.kind == "done" and event.result is not None:
                self._apply_result(record, event.result)
            else:
                self._requeue_or_fail(
                    record, f"worker raised: {event.error}"
                )

    def _check_workers(self) -> None:
        obs = get_recorder()
        for event in self.supervisor.check():
            if obs.enabled:
                obs.count(f"serve.worker_{event.kind}")
            self._log(
                f"worker {event.worker_id} {event.kind} "
                f"(job={event.job_id or '-'}); respawned"
            )
            record = self._jobs.get(event.job_id or "")
            if record is not None and not record.final:
                self._requeue_or_fail(record, f"worker {event.kind}")

    def _enforce_hard_deadlines(self) -> None:
        now = self.clock()
        obs = get_recorder()
        for record in list(self._jobs.values()):
            if record.status not in ("running", "dispatched"):
                continue
            if record.hard_deadline is None or now < record.hard_deadline:
                continue
            killed = self.supervisor.kill_job(record.job_id)
            if obs.enabled:
                obs.count("serve.hard_kills")
            self._log(
                f"{record.job_id} hard deadline exceeded "
                f"(killed worker: {killed})"
            )
            self._requeue_or_fail(record, "hard deadline exceeded")

    def _dispatch(self) -> None:
        if self.draining:
            return
        while self.supervisor.idle_count > 0:
            item = self.queue.poll()
            if item is None:
                return
            record = self._jobs.get(item.job_id)
            if record is None or record.status != "queued":
                continue
            soft_deadline = (
                self.clock() + record.soft_timeout
                if record.soft_timeout is not None
                else None
            )
            if not self.supervisor.submit(
                record.job_id,
                record.spec,
                soft_deadline,
                fence=record.fence,
            ):
                # Raced with a worker death; try again next tick.
                self.queue.offer(item)
                return
            record.attempts += 1
            record.status = "dispatched"
            record.started_at = self.clock()
            record.hard_deadline = (
                self.clock() + record.hard_timeout
                if record.hard_timeout is not None
                else None
            )
            record.events.append(f"attempt {record.attempts} dispatched")

    def _advance_drain(self) -> list[JobRecord]:
        """Advance the drain state machine under the state lock.

        Returns the records whose specs still need persisting; the
        caller writes them to disk *after* releasing the lock so file
        I/O never runs inside the lock region (DD009).
        """
        queued: list[JobRecord] = []
        if not self.draining:
            return queued
        if not self._drain_swept:
            self._drain_swept = True
            cancelled = self.supervisor.cancel_all()
            for item in self.queue.drain():
                record = self._jobs.get(item.job_id)
                if record is not None and record.status == "queued":
                    queued.append(record)
                    self._finalize(record, "drained")
            self._log(
                f"draining: cancelled {cancelled} in-flight job(s), "
                f"parked {len(queued)} queued job(s)"
            )
        if not self.supervisor.busy_jobs:
            self._stopped.set()
        return queued

    # ------------------------------------------------------------------
    # Result application
    # ------------------------------------------------------------------

    def _finalize(self, record: JobRecord, status: str) -> None:
        record.status = status
        record.finished_at = self.clock()
        record.events.append(f"finalized: {status}")
        self._done.notify_all()

    def _apply_result(self, record: JobRecord, result: JobResult) -> None:
        obs = get_recorder()
        record.result = result
        job_hash = record.spec.content_hash()
        if record.started_at is not None:
            elapsed = self.clock() - record.started_at
            self._service_ewma = (
                0.8 * self._service_ewma + 0.2 * max(0.01, elapsed)
            )
        if result.status == "completed":
            self.breaker.record_success(job_hash)
            if obs.enabled:
                obs.count("serve.completed")
                if record.degraded:
                    obs.count("serve.completed_degraded")
            self._finalize(record, "completed")
            return
        if result.status in ("timeout", "deadline", "drained"):
            # Cooperative interruptions: the worker checkpointed, the
            # Lemma-1 budget spent so far is in result.stats, and a
            # future submission of the same spec resumes from there.
            if obs.enabled:
                obs.count(f"serve.{result.status}")
            self._finalize(record, result.status)
            return
        record.error = result.error
        if result.error_kind == PERMANENT:
            self.breaker.record_failure(job_hash)
            if obs.enabled:
                obs.count("serve.failed_permanent")
            self._finalize(record, "error")
            return
        self._requeue_or_fail(record, result.error or "transient failure")

    def _requeue_or_fail(self, record: JobRecord, reason: str) -> None:
        """Give a disrupted job another attempt, or finalize it.

        Requeued jobs resume from any checkpoint their interrupted
        attempt persisted (the engine's normal resume path).  During a
        drain, disrupted jobs finalize as ``drained`` — their
        checkpoint survives for the next daemon start.
        """
        obs = get_recorder()
        record.events.append(f"disrupted: {reason}")
        if self.draining:
            self._finalize(record, "drained")
            return
        if record.attempts >= self.max_attempts:
            record.error = (
                f"failed after {record.attempts} attempts: {reason}"
            )
            if obs.enabled:
                obs.count("serve.failed_attempts")
            self._finalize(record, "error")
            return
        record.status = "queued"
        record.started_at = None
        record.hard_deadline = None
        if self.queue.offer(
            QueueItem(job_id=record.job_id, priority=record.priority)
        ):
            if obs.enabled:
                obs.count("serve.requeued")
            self._log(f"{record.job_id} requeued after: {reason}")
        else:
            record.error = f"requeue shed (queue full) after: {reason}"
            if obs.enabled:
                obs.count("serve.requeue_shed")
            self._finalize(record, "error")
