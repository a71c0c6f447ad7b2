"""The cluster router: one front door over N shard daemons.

:class:`ClusterRouter` speaks the exact JSON-lines protocol of a single
:class:`~repro.serve.daemon.SimDaemon` (it reuses the daemon's listener
via :func:`~repro.serve.daemon.build_line_server`), so existing clients
and CLI commands work against a sharded tier unchanged.  Behind the
front door it adds the cluster concerns:

* **Sharding** — submissions are placed by rendezvous hashing over the
  spec's content hash (:class:`~repro.serve.membership.Membership`), so
  repeated submissions of one spec land on the shard that holds its
  checkpoint/cache state, and the preference order doubles as the
  failover order.
* **Supervision & failover** — every tick probes each shard with the
  bulk ``jobs`` op (one RPC doubles as heartbeat and status sync).
  After ``fail_threshold`` consecutive probe failures a shard is
  ``down`` and every non-final job routed to it is re-admitted to the
  surviving shards.  The shared artifact store makes that recovery
  cheap *and* exact: a re-admitted job resumes from its Lemma-1
  checkpoint (same fidelity ledger, same final fidelity as an
  uninterrupted run), and a job whose shard died *after* completing is
  re-admitted when a client waits on it, a cache hit on the new shard —
  never lost.
* **Exactly one owner** — a cluster job is owned by one shard at a
  time.  Failover reassigns ownership before re-submitting; work
  stealing finalizes the job as ``stolen`` on the hot shard inside the
  ``steal`` op itself before the router re-admits it on the cool one.
  Ownership is backed by store leases (:mod:`repro.service.lease`):
  every placement force-acquires an epoch-numbered lease for the
  target shard and hands the fence token down with the submission, so
  a ``down`` ex-owner that comes back and keeps running its orphaned
  copy cannot overwrite the new owner's checkpoints — the store
  rejects its stale-epoch writes
  (:class:`~repro.faults.errors.StaleLeaseError`).  Results still land
  in the shared content-addressed store either way, so the duplicate
  costs compute, not correctness.
* **Store health** — when the store is replicated
  (:class:`~repro.service.replication.ReplicatedStore`), admission
  sheds with ``store_degraded`` while the store is read-only after a
  lost write quorum, ``metrics`` carries a ``store:`` section with
  per-replica health, and the router can trigger periodic anti-entropy
  scrubs (``scrub_interval``).
* **Tenancy** — per-tenant max-in-flight quotas and token-bucket rate
  limits are enforced at admission, before any shard sees the request
  (rejections: ``error="quota"`` / ``error="rate_limited"``, both with
  ``retry_after``).
* **Fault surface** — every router→shard RPC passes the
  ``cluster.rpc`` injection site first, so a seeded
  :class:`~repro.faults.plan.FaultPlan` can refuse connections, tear
  writes (:class:`~repro.faults.errors.PartialWriteFault`), or slow the
  path deterministically; the failover machinery above is exercised by
  the cluster soak under exactly these rules.

Lock discipline (DD009): the router holds its state lock only around
table/membership mutation; every RPC, ownership-log append, and file
write happens outside lock regions — decisions are *collected* under
the lock and *performed* after release.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass, field

from ..faults.errors import QuorumLost
from ..faults.injector import inject
from ..obs import get_recorder
from ..service.lease import DEFAULT_LEASE_TTL, LeaseManager
from ..service.replication import open_store
from ..service.store import ArtifactStore
from .client import ServeClient, ServeError
from .daemon import build_line_server
from .protocol import (
    ProtocolError,
    Submission,
    error_response,
    ok_response,
    park_submissions,
    parse_submission,
    take_parked_submissions,
)

#: File (under ``<store>/serve/``) holding router-side jobs that had no
#: live owner when a cluster drain completed; the next router start
#: re-admits them.
ROUTER_DRAINED_FILE = "drained-queue-router.json"

#: Cluster-job states with no further transitions.
CLUSTER_FINAL = frozenset(
    {"completed", "timeout", "deadline", "drained", "error"}
)

#: Router-internal states (never reported by a shard): ``admitting`` is
#: a submission whose first placement RPC is still in flight;
#: ``orphaned`` has no live owner and is awaiting re-admission;
#: ``readmitting`` has a re-admission RPC in flight.
_UNOWNED = ("admitting", "orphaned", "readmitting")


@dataclass
class ClusterJob:
    """Router-side lifecycle of one accepted job."""

    cluster_id: str
    job_hash: str
    submission: Submission
    shard_id: str = ""
    shard_job_id: str = ""
    status: str = "admitting"
    readmissions: int = 0
    error: str = ""
    history: list[str] = field(default_factory=list)

    @property
    def final(self) -> bool:
        return self.status in CLUSTER_FINAL

    def describe(self) -> dict:
        """Router-local job document (used when no shard can answer)."""
        return {
            "job_id": self.cluster_id,
            "job_hash": self.job_hash,
            "status": self.status,
            "tenant": self.submission.tenant,
            "priority": self.submission.priority,
            "error": self.error,
            "shard": self.shard_id,
            "shard_job_id": self.shard_job_id,
            "readmissions": self.readmissions,
            "history": list(self.history),
        }


@dataclass
class _TokenBucket:
    """Deterministic token bucket (monotonic clock, no randomness)."""

    rate: float
    burst: float
    tokens: float
    stamp: float

    def take(self, now: float) -> float:
        """Consume one token; returns 0.0, or the suggested wait."""
        self.tokens = min(
            self.burst, self.tokens + (now - self.stamp) * self.rate
        )
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


class ClusterRouter:
    """Protocol-compatible front door over a set of shard daemons.

    Args:
        store: The artifact store *shared by every shard* (checkpoint
            resume across shards depends on this).
        membership: Shard registry (see
            :class:`~repro.serve.membership.Membership`).
        quotas: Per-tenant max in-flight jobs (``"*"`` = default for
            unlisted tenants; 0/absent = unlimited).
        rate_limits: Per-tenant ``(rate_per_second, burst)`` token
            buckets (``"*"`` = default; absent = unlimited).
        max_readmissions: Failover/steal moves allowed per job before
            it finalizes as ``error`` (guards against a spec that kills
            every shard it lands on).
        steal_threshold: Queue-depth gap between the hottest and
            coolest shard that triggers work stealing.
        steal_batch: Maximum jobs moved per stealing pass.
        lease_ttl: Ownership-lease lifetime in seconds; the router
            renews held leases at one third of this period.
        scrub_interval: Seconds between background anti-entropy scrubs
            of a replicated store (None disables; ignored for a plain
            store).
        rpc_timeout: Socket timeout for router→shard RPCs.
        socket_path / host / port: The router's own listener endpoint.
        tick_interval: Supervision-loop period in seconds.
        log: Writable text stream for router log lines (stderr).
    """

    def __init__(
        self,
        store: "ArtifactStore | str",
        membership,
        quotas: dict[str, int] | None = None,
        rate_limits: dict[str, tuple[float, float]] | None = None,
        max_readmissions: int = 5,
        steal_threshold: int = 4,
        steal_batch: int = 2,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        scrub_interval: float | None = None,
        rpc_timeout: float = 30.0,
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_interval: float = 0.1,
        log=None,
    ) -> None:
        self.store = (
            store if isinstance(store, ArtifactStore) else open_store(store)
        )
        self.membership = membership
        self.leases = LeaseManager(self.store, ttl_seconds=lease_ttl)
        self.scrub_interval = scrub_interval
        self.quotas = dict(quotas or {})
        self.rate_limits = dict(rate_limits or {})
        if max_readmissions < 1:
            raise ValueError("max_readmissions must be positive")
        self.max_readmissions = max_readmissions
        self.steal_threshold = max(1, steal_threshold)
        self.steal_batch = max(1, steal_batch)
        self.rpc_timeout = rpc_timeout
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.tick_interval = tick_interval
        self._log_stream = log if log is not None else sys.stderr
        self._lock = threading.RLock()
        self._jobs: dict[str, ClusterJob] = {}
        #: ``(shard_id, shard_job_id) -> cluster_id`` for the *current*
        #: owner only; stale entries are removed on every reassignment,
        #: which is what makes reports from ex-owners ignorable.
        self._owners: dict[tuple[str, str], str] = {}
        self._buckets: dict[str, _TokenBucket] = {}
        self._seq = 0
        self._drain = threading.Event()
        self._drain_rpcs_sent = False
        self._stopped = threading.Event()
        self._server = None
        self._server_thread: threading.Thread | None = None
        self._started = False
        self._last_lease_renewal = 0.0
        self._last_scrub: float | None = None
        self._scrub_thread: threading.Thread | None = None
        self.address: tuple[str, int] | str | None = None
        self.clock = time.monotonic

    # ------------------------------------------------------------------
    # Logging
    # ------------------------------------------------------------------

    def _log(self, message: str) -> None:
        try:
            self._log_stream.write(
                f"[cluster +{self.clock():.3f}] {message}\n"
            )
            self._log_stream.flush()
        except (OSError, ValueError):  # pragma: no cover - closed stream
            pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the listener and restore parked jobs (idempotent)."""
        if self._started:
            return
        self._started = True
        self._restore_orphans()
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
            f"routing on {self.address} across "
            f"{len(self.membership)} shard(s)"
        )

    def serve_forever(self) -> None:
        """Run the supervision loop until drained (or :meth:`stop`)."""
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
        """Begin a graceful cluster-wide drain (signal-handler safe)."""
        if not self._drain.is_set():
            self._drain.set()

    @property
    def draining(self) -> bool:
        return self._drain.is_set()

    def shutdown(self) -> None:
        """Tear down the listener; park unowned jobs for the next start."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self.socket_path and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:  # pragma: no cover - already gone
                pass
        with self._lock:
            orphans = [
                job.submission
                for job in self._jobs.values()
                if job.status in _UNOWNED
            ]
        park_submissions(self.store, self._orphan_name(), orphans, self._log)
        self._log("shut down")

    # ------------------------------------------------------------------
    # Router-side drained-queue persistence (zero-lost-jobs backstop
    # for jobs that had no live owner when the cluster went down)
    # ------------------------------------------------------------------

    def _orphan_name(self) -> str:
        return ROUTER_DRAINED_FILE.removesuffix(".json")

    def _restore_orphans(self) -> None:
        submissions = take_parked_submissions(
            self.store, self._orphan_name(), self._log
        )
        with self._lock:
            for submission in submissions:
                job = self._new_record(submission)
                job.status = "orphaned"
                job.history.append("restored from parked-job file")

    # ------------------------------------------------------------------
    # Shard RPC (never called with the state lock held — DD009)
    # ------------------------------------------------------------------

    def _rpc(
        self, shard_id: str, message: dict, idempotent: bool = False
    ) -> dict:
        """One router→shard request through the fault-injection site.

        Raises whatever the transport raises — connection errors
        (including injected ``conn_refused`` / ``partial_write``
        faults) and :class:`ProtocolError` for torn frames; callers
        convert those into membership probe failures.
        """
        info = self.membership.get(shard_id)
        inject(
            "cluster.rpc",
            shard=shard_id,
            op=str(message.get("op")),
        )
        client = ServeClient(
            socket_path=info.socket_path, timeout=self.rpc_timeout
        )
        return client.request(message, idempotent=idempotent)

    def _record_rpc_failure(self, shard_id: str) -> None:
        with self._lock:
            if self.membership.record_failure(shard_id):
                self._log(
                    f"shard {shard_id} declared down "
                    f"(={self.membership.fail_threshold} consecutive "
                    "failures); failing over its jobs"
                )

    def _record_ownership(
        self, job: ClusterJob, event: str, shard_id: str
    ) -> None:
        """Append one event to the store's shared ownership log."""
        try:
            self.store.append_ownership(
                {
                    "event": event,
                    "cluster_job": job.cluster_id,
                    "job_hash": job.job_hash,
                    "shard": shard_id,
                    "tenant": job.submission.tenant,
                    "readmissions": job.readmissions,
                }
            )
        except OSError as error:  # pragma: no cover - advisory log
            self._log(f"ownership log append failed: {error}")

    # ------------------------------------------------------------------
    # Request handling (handler threads)
    # ------------------------------------------------------------------

    def handle_request(self, message: dict) -> dict:
        """Dispatch one protocol request (thread-safe)."""
        op = message.get("op")
        if op == "ping":
            with self._lock:
                return ok_response(
                    pong=True,
                    cluster=True,
                    draining=self.draining,
                    shards=self.membership.snapshot(),
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
        if op == "drain":
            return self._handle_drain(message)
        return error_response(f"unknown op {op!r}")

    def _new_record(self, submission: Submission) -> ClusterJob:
        self._seq += 1
        job = ClusterJob(
            cluster_id=f"c-{self._seq:06d}",
            job_hash=submission.spec.content_hash(),
            submission=submission,
        )
        self._jobs[job.cluster_id] = job
        return job

    def _tenant_gate(self, tenant: str) -> dict | None:
        """Quota + rate-limit check (called under the state lock)."""
        quota = self.quotas.get(tenant, self.quotas.get("*", 0))
        if quota:
            active = sum(
                1
                for job in self._jobs.values()
                if job.submission.tenant == tenant and not job.final
            )
            if active >= quota:
                return error_response(
                    "quota",
                    tenant=tenant,
                    in_flight=active,
                    limit=quota,
                    retry_after=1.0,
                )
        limit = self.rate_limits.get(tenant, self.rate_limits.get("*"))
        if limit:
            rate, burst = float(limit[0]), float(limit[1])
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = _TokenBucket(
                    rate=rate, burst=burst, tokens=burst, stamp=self.clock()
                )
                self._buckets[tenant] = bucket
            wait = bucket.take(self.clock())
            if wait > 0:
                return error_response(
                    "rate_limited",
                    tenant=tenant,
                    retry_after=round(wait, 3),
                )
        return None

    def _submit_message(
        self, job: ClusterJob, fence: dict | None = None
    ) -> dict:
        message = {"op": "submit", **job.submission.to_message()}
        if fence is not None:
            message["fence"] = fence
        return message

    def _grant_lease(self, job: ClusterJob, shard_id: str) -> dict | None:
        """Force-acquire the job's ownership lease for ``shard_id``.

        Called with no lock held (lease writes are store I/O).  A
        repeat grant to the *same* shard renews the lease at the same
        epoch; granting to a different shard bumps the epoch, which is
        what fences out the previous owner's in-flight checkpoint
        writes.  Returns the fence token, or None when the store
        cannot persist the lease right now (the placement proceeds
        unfenced rather than losing the job).
        """
        try:
            lease = self.leases.acquire(
                job.job_hash, owner=shard_id, force=True
            )
        except (OSError, QuorumLost) as error:
            self._log(
                f"lease grant for {job.cluster_id} on {shard_id} "
                f"failed: {error}"
            )
            return None
        return lease.fence

    def _handle_submit(self, message: dict) -> dict:
        obs = get_recorder()
        admission_started = time.perf_counter()
        try:
            return self._admit(message)
        finally:
            if obs.enabled:
                obs.observe(
                    "cluster.admission",
                    time.perf_counter() - admission_started,
                )

    def _admit(self, message: dict) -> dict:
        obs = get_recorder()
        try:
            submission = parse_submission(message)
        except ValueError as error:
            return error_response(str(error))
        if getattr(self.store, "read_only", False):
            # Replicated store lost its write quorum: every shard
            # shares it, so placement is pointless — shed here with a
            # distinguishable error (checked before the lock; the
            # read-only probe is a marker-file stat).
            if obs.enabled:
                obs.count("cluster.rejected_store_degraded")
            return error_response("store_degraded", retry_after=1.0)
        with self._lock:
            if self.draining:
                return error_response("draining")
            rejection = self._tenant_gate(submission.tenant)
            if rejection is not None:
                if obs.enabled:
                    obs.count(f"cluster.rejected_{rejection['error']}")
                return rejection
            job = self._new_record(submission)
            targets = self.membership.route(job.job_hash)
        try:
            placed = self._place(job, targets, event="assigned")
        except ServeError as error:
            # A terminal per-spec rejection (breaker open): forward the
            # shard's rejection document verbatim.
            if obs.enabled:
                obs.count("cluster.rejected_breaker")
            return dict(error.response)
        if placed is not None:
            response, shard_id = placed
            if obs.enabled:
                obs.count("cluster.submitted")
            return ok_response(
                job_id=job.cluster_id,
                job_hash=job.job_hash,
                shard=shard_id,
                tier=response.get("tier"),
                f_final_cap=response.get("f_final_cap"),
                degraded=response.get("degraded"),
                queue_depth=response.get("queue_depth"),
            )
        # Nowhere to put it right now.  A terminal rejection (breaker
        # open, bad spec) was already returned by _place; reaching here
        # means every routable shard shed or was unreachable — drop the
        # record and shed explicitly rather than admit without an owner.
        with self._lock:
            self._jobs.pop(job.cluster_id, None)
        if obs.enabled:
            obs.count("cluster.shed")
        return error_response("shed", retry_after=1.0)

    def _place(
        self, job: ClusterJob, targets: list[str], event: str
    ) -> tuple[dict, str] | None:
        """Try each shard in preference order; returns the accepting
        ``(response, shard_id)`` or None when all shed/unreachable.

        Terminal per-spec rejections (breaker open) finalize the job
        as ``error`` and are returned as an accepting-shaped response
        so the caller forwards the rejection; transient conditions
        (shed, connection failures) move on to the next preference.
        """
        for shard_id in targets:
            fence = self._grant_lease(job, shard_id)
            try:
                response = self._rpc(
                    shard_id, self._submit_message(job, fence)
                )
            except ServeError as error:
                if error.error in ("shed", "draining", "store_degraded"):
                    continue
                # breaker_open (or a malformed-spec disagreement):
                # trying other shards would just trip their breakers
                # too — finalize and surface the rejection.
                with self._lock:
                    job.status = "error"
                    job.error = f"rejected by {shard_id}: {error.error}"
                    job.history.append(job.error)
                raise
            except (OSError, ProtocolError):
                self._record_rpc_failure(shard_id)
                continue
            with self._lock:
                # Retire the previous ownership key (failover/steal
                # re-placement): reports from the ex-owner about its
                # orphaned copy must no longer reach this job.
                self._owners.pop((job.shard_id, job.shard_job_id), None)
                job.shard_id = shard_id
                job.shard_job_id = str(response.get("job_id", ""))
                job.status = "queued"
                job.history.append(f"{event} to {shard_id}")
                self._owners[(shard_id, job.shard_job_id)] = (
                    job.cluster_id
                )
                self.membership.record_success(shard_id)
            self._record_ownership(job, event, shard_id)
            return response, shard_id
        return None

    def _merge_doc(self, job: ClusterJob, doc: dict) -> dict:
        """Overlay cluster identity/history onto a shard job document."""
        merged = dict(doc)
        merged["job_id"] = job.cluster_id
        merged["shard_job_id"] = job.shard_job_id
        merged["shard"] = job.shard_id
        merged["readmissions"] = job.readmissions
        merged["history"] = list(job.history)
        return merged

    def _handle_status(self, message: dict) -> dict:
        cluster_id = message.get("job_id")
        with self._lock:
            job = self._jobs.get(cluster_id)
            if job is None:
                return error_response(f"unknown job {cluster_id!r}")
            owner, shard_job_id = job.shard_id, job.shard_job_id
            unowned = job.status in _UNOWNED
        if unowned:
            return ok_response(job=job.describe())
        try:
            response = self._rpc(
                owner,
                {"op": "status", "job_id": shard_job_id},
                idempotent=True,
            )
        except (ServeError, OSError, ProtocolError):
            # Owner can't answer right now; the router's mirror is the
            # best truth available (failover will refresh it).
            return ok_response(job=job.describe())
        return ok_response(job=self._merge_doc(job, response["job"]))

    def _handle_wait(self, message: dict) -> dict:
        cluster_id = message.get("job_id")
        timeout = float(message.get("timeout", 60.0))
        deadline = self.clock() + timeout
        while True:
            with self._lock:
                job = self._jobs.get(cluster_id)
                if job is None:
                    return error_response(f"unknown job {cluster_id!r}")
                owner, shard_job_id = job.shard_id, job.shard_job_id
                status = job.status
                owner_down = (
                    bool(owner)
                    and self.membership.get(owner).state == "down"
                )
                reopen = status == "completed" and owner_down
                if reopen:
                    # The dead owner held the job's only document, but
                    # its result is in the shared store.
                    job.status = "readmitting"
            if reopen:
                # Re-admitted, the job is a cache hit on a survivor.  The
                # survivor applies its own degradation tier to the
                # original spec: at the dead owner's tier it finds the
                # result under that tier's hash, at another it recomputes.
                self._readmit(job)
                continue
            if status in CLUSTER_FINAL and (
                status == "error" or not owner or owner_down
            ):
                # Router-finalized (readmission exhausted, parked), or an
                # interrupted job whose owner is gone: there is no shard
                # document to fetch.
                return ok_response(job=job.describe())
            remaining = deadline - self.clock()
            if remaining <= 0:
                return error_response("wait_timeout", job=job.describe())
            if status in _UNOWNED:
                # Between owners (failover in progress): poll the
                # supervision loop's progress rather than any shard.
                time.sleep(min(remaining, self.tick_interval))
                continue
            try:
                response = self._rpc(
                    owner,
                    {
                        "op": "wait",
                        "job_id": shard_job_id,
                        # Short chunks so ownership changes (failover,
                        # stealing) are picked up promptly.
                        "timeout": min(remaining, 1.0),
                    },
                )
            except ServeError as error:
                if error.error == "wait_timeout":
                    continue
                # Unknown job (shard restarted without its state) or
                # another rejection: let supervision re-own it.
                time.sleep(min(remaining, self.tick_interval))
                continue
            except (OSError, ProtocolError):
                self._record_rpc_failure(owner)
                time.sleep(min(remaining, self.tick_interval))
                continue
            doc = response["job"]
            with self._lock:
                moved = (
                    job.shard_id != owner
                    or job.shard_job_id != shard_job_id
                )
                if not moved and doc.get("status") in CLUSTER_FINAL:
                    job.status = str(doc["status"])
                    merged = self._merge_doc(job, doc)
                else:
                    merged = None
            if merged is not None:
                return ok_response(job=merged)
            # The job moved mid-wait (stolen / failed over) or ended in
            # a shard-final state the cluster re-owns (e.g. ``stolen``):
            # keep waiting on the current owner.

    def _handle_metrics(self) -> dict:
        obs = get_recorder()
        # Store health reads files (scrub status, read-only marker) —
        # collect it before taking the state lock (DD009).
        store_status = (
            self.store.status()
            if hasattr(self.store, "status")
            else {"replicated": False}
        )
        with self._lock:
            shard_ids = [info.shard_id for info in self.membership]
        reports: dict[str, dict | None] = {}
        for shard_id in shard_ids:
            try:
                reports[shard_id] = self._rpc(
                    shard_id, {"op": "metrics"}, idempotent=True
                )
            except (ServeError, OSError, ProtocolError):
                reports[shard_id] = None
        with self._lock:
            shards: dict[str, dict] = {}
            for shard_id, report in reports.items():
                info = self.membership.get(shard_id)
                if report is not None:
                    info.queue_depth = int(report.get("queue_depth", 0))
                    info.queue_capacity = int(
                        report.get("queue_capacity", 0)
                    )
                    info.running = int(report.get("running", 0))
                    info.breaker_open = int(report.get("breaker_open", 0))
                    info.ladder_tier = int(report.get("ladder_tier", 0))
                entry = {
                    "state": info.state,
                    "queue_depth": info.queue_depth,
                    "queue_capacity": info.queue_capacity,
                    "running": info.running,
                    "breaker_open": info.breaker_open,
                    "ladder_tier": info.ladder_tier,
                    "leases_held": info.leases_held,
                }
                if report is not None:
                    entry["utilization"] = report.get("utilization")
                    entry["tenants"] = report.get("tenants", {})
                shards[shard_id] = entry
            statuses: dict[str, int] = {}
            tenants: dict[str, dict] = {}
            for job in self._jobs.values():
                statuses[job.status] = statuses.get(job.status, 0) + 1
                tenant = tenants.setdefault(
                    job.submission.tenant,
                    {
                        "queued": 0,
                        "running": 0,
                        "final": 0,
                        "total": 0,
                        "readmissions": 0,
                    },
                )
                tenant["total"] += 1
                tenant["readmissions"] += job.readmissions
                if job.final:
                    tenant["final"] += 1
                elif job.status in ("dispatched", "running"):
                    tenant["running"] += 1
                else:
                    tenant["queued"] += 1
            for tenant, quota in self.quotas.items():
                if tenant in tenants:
                    tenants[tenant]["quota"] = quota
            return ok_response(
                cluster=True,
                draining=self.draining,
                store=store_status,
                shards=shards,
                jobs_by_status=statuses,
                tenants=tenants,
                recorder=obs.snapshot() if obs.enabled else {},
            )

    def _handle_jobs(self) -> dict:
        with self._lock:
            return ok_response(
                cluster=True,
                jobs=[
                    {
                        "job_id": job.cluster_id,
                        "job_hash": job.job_hash,
                        "status": job.status,
                        "tenant": job.submission.tenant,
                        "shard": job.shard_id,
                        "readmissions": job.readmissions,
                        "history": list(job.history),
                    }
                    for job in self._jobs.values()
                ],
            )

    def _handle_drain(self, message: dict) -> dict:
        shard_id = message.get("shard")
        if shard_id is None:
            self.request_drain()
            return ok_response(draining=True)
        shard_id = str(shard_id)
        try:
            with self._lock:
                info = self.membership.get(shard_id)
        except KeyError:
            return error_response(f"unknown shard {shard_id!r}")
        with self._lock:
            self.membership.mark_draining(shard_id)
            capacity = max(info.queue_capacity, 64)
        # Redistribute the queue before draining: steal everything
        # still queued there and re-admit it on the other shards, so a
        # single-shard drain sheds capacity, not jobs.
        moved = self._steal_and_readmit(shard_id, capacity)
        try:
            self._rpc(shard_id, {"op": "drain"})
        except (ServeError, OSError, ProtocolError):
            self._record_rpc_failure(shard_id)
        self._log(
            f"draining shard {shard_id}; redistributed {moved} queued "
            "job(s)"
        )
        return ok_response(draining=shard_id, redistributed=moved)

    # ------------------------------------------------------------------
    # Supervision loop
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        """One supervision pass: probe, sync, fail over, steal, drain.

        RPCs and file writes all happen outside the lock; the lock only
        guards the job table and membership state (DD009).
        """
        with self._lock:
            shard_ids = [info.shard_id for info in self.membership]
        probes: list[tuple[str, dict | None]] = []
        for shard_id in shard_ids:
            try:
                response = self._rpc(
                    shard_id, {"op": "jobs"}, idempotent=True
                )
            except (ServeError, OSError, ProtocolError):
                probes.append((shard_id, None))
            else:
                probes.append((shard_id, response))
        readmit: list[ClusterJob] = []
        with self._lock:
            for shard_id, response in probes:
                if response is None:
                    if self.membership.record_failure(shard_id):
                        self._log(
                            f"shard {shard_id} declared down; failing "
                            "over its jobs"
                        )
                    continue
                if self.membership.record_success(shard_id):
                    self._log(
                        f"shard {shard_id} recovered; resuming routing "
                        "to it"
                    )
                self._sync_shard_jobs(shard_id, response.get("jobs", []))
            cluster_draining = self.draining
            for job in self._jobs.values():
                if job.final or job.status == "readmitting":
                    continue
                if job.status == "orphaned":
                    job.status = "readmitting"
                    readmit.append(job)
                    continue
                if job.status == "admitting":
                    continue
                owner = self.membership.get(job.shard_id)
                if owner.state == "down" and not cluster_draining:
                    job.status = "readmitting"
                    readmit.append(job)
            self._sync_leases_held()
        for job in readmit:
            self._readmit(job)
        self._maybe_steal()
        self._renew_leases()
        self._maybe_scrub()
        self._advance_drain()

    def _sync_leases_held(self) -> None:
        """Refresh per-shard lease counts (called under the lock)."""
        held: dict[str, int] = {}
        for job in self._jobs.values():
            if job.final or job.status in _UNOWNED or not job.shard_id:
                continue
            held[job.shard_id] = held.get(job.shard_id, 0) + 1
        for info in self.membership:
            info.leases_held = held.get(info.shard_id, 0)

    def _renew_leases(self) -> None:
        """Renew every held lease at a third of the TTL (no lock held
        on entry; lease writes are store I/O)."""
        now = self.clock()
        if now - self._last_lease_renewal < self.leases.ttl_seconds / 3.0:
            return
        self._last_lease_renewal = now
        with self._lock:
            owned = [
                (job.job_hash, job.shard_id)
                for job in self._jobs.values()
                if not job.final
                and job.status not in _UNOWNED
                and job.shard_id
            ]
        for job_hash, shard_id in owned:
            try:
                # Same owner → same epoch, fresh TTL (pure renewal).
                self.leases.acquire(job_hash, owner=shard_id, force=True)
            except (OSError, QuorumLost) as error:
                self._log(f"lease renewal failed for {shard_id}: {error}")
                return

    def _maybe_scrub(self) -> None:
        """Kick a background anti-entropy scrub when due (no lock)."""
        if self.scrub_interval is None:
            return
        if not hasattr(self.store, "scrub"):
            return
        now = self.clock()
        if (
            self._last_scrub is not None
            and now - self._last_scrub < self.scrub_interval
        ):
            return
        if self._scrub_thread is not None and self._scrub_thread.is_alive():
            return
        self._last_scrub = now

        def run() -> None:
            try:
                report = self.store.scrub(repair=True)
            except OSError as error:  # pragma: no cover - disk trouble
                self._log(f"background scrub failed: {error}")
                return
            if report.get("repaired") or report.get("lost"):
                self._log(
                    "scrub: "
                    f"repaired={report.get('repaired', 0)} "
                    f"quarantined={report.get('quarantined', 0)} "
                    f"lost={report.get('lost', 0)}"
                )

        self._scrub_thread = threading.Thread(target=run, daemon=True)
        self._scrub_thread.start()

    def _sync_shard_jobs(self, shard_id: str, jobs: list) -> None:
        """Mirror shard-reported statuses (called under the lock)."""
        for entry in jobs:
            if not isinstance(entry, dict):
                continue
            key = (shard_id, str(entry.get("job_id", "")))
            cluster_id = self._owners.get(key)
            if cluster_id is None:
                continue  # ex-owner report or shard-local job
            job = self._jobs.get(cluster_id)
            if job is None or job.final:
                continue
            status = str(entry.get("status", ""))
            if status == "stolen":
                # The steal path re-owns the job; if we see this the
                # reassignment already happened (the owners map entry
                # would be gone) or is in flight — never a final state
                # cluster-side.
                continue
            if status == "drained":
                owner = self.membership.get(shard_id)
                if owner.state == "draining" and not self.draining:
                    # Single-shard drain: the shard checkpointed its
                    # in-flight jobs and parked; the cluster re-owns
                    # them and resumes elsewhere.
                    del self._owners[key]
                    job.status = "orphaned"
                    job.history.append(
                        f"orphaned by draining shard {shard_id}"
                    )
                    continue
            if status:
                job.status = status

    def _readmit(self, job: ClusterJob) -> None:
        """Re-admit an unowned job to a surviving shard (no lock held).

        The shared store turns this into exact recovery: a checkpoint
        written by the old shard resumes on the new one with the same
        fidelity ledger (Lemma 1 composes across processes), and a job
        the old shard completed before dying is a cache hit.
        """
        obs = get_recorder()
        with self._lock:
            if job.readmissions >= self.max_readmissions:
                job.status = "error"
                job.error = (
                    f"abandoned after {job.readmissions} re-admissions"
                )
                job.history.append(job.error)
                failed = True
            else:
                job.readmissions += 1
                exclude = {job.shard_id} if job.shard_id else set()
                targets = self.membership.route(
                    job.job_hash, exclude=exclude
                )
                failed = False
        if failed:
            if obs.enabled:
                obs.count("cluster.abandoned")
            return
        try:
            placed = self._place(job, targets, event="readmitted")
        except ServeError:
            return  # finalized as a terminal rejection inside _place
        if placed is not None:
            if obs.enabled:
                obs.count("cluster.readmitted")
            self._log(
                f"{job.cluster_id} re-admitted to {placed[1]} "
                f"(move {job.readmissions})"
            )
            return
        with self._lock:
            job.status = "orphaned"  # retry next tick

    def _steal_and_readmit(self, shard_id: str, max_jobs: int) -> int:
        """Steal up to ``max_jobs`` from a shard and place them
        elsewhere; returns the number moved (no lock held on entry)."""
        try:
            response = self._rpc(
                shard_id, {"op": "steal", "max_jobs": max_jobs}
            )
        except (ServeError, OSError, ProtocolError):
            self._record_rpc_failure(shard_id)
            return 0
        moved = 0
        for payload in response.get("stolen", []):
            if not isinstance(payload, dict):
                continue
            key = (shard_id, str(payload.get("job_id", "")))
            with self._lock:
                cluster_id = self._owners.pop(key, None)
                job = (
                    self._jobs.get(cluster_id)
                    if cluster_id is not None
                    else None
                )
                if job is None:
                    # A shard-local job (e.g. restored from the shard's
                    # own drained queue): adopt it into the cluster so
                    # the move cannot lose it.  The shard has already
                    # given it up, so a malformed one is dropped alone.
                    try:
                        submission = parse_submission(payload)
                    except ValueError as error:
                        self._log(f"dropping malformed stolen job: {error}")
                        continue
                    job = self._new_record(submission)
                    job.history.append(f"adopted from {shard_id}")
                job.status = "orphaned"
                job.history.append(f"stolen from {shard_id}")
            self._readmit(job)
            moved += 1
        return moved

    def _maybe_steal(self) -> None:
        """Rebalance when one shard runs hot (no lock held on entry).

        Depths come from the router's own mirror (no extra RPC): the
        number of non-final jobs currently owned per shard, which is
        exactly the load the router has placed.
        """
        with self._lock:
            depths: dict[str, int] = {
                info.shard_id: 0
                for info in self.membership
                if info.state == "up"
            }
            if len(depths) < 2:
                return
            for job in self._jobs.values():
                if job.final or job.status in _UNOWNED:
                    continue
                if job.status == "queued" and job.shard_id in depths:
                    depths[job.shard_id] += 1
            hot = max(depths, key=lambda sid: depths[sid])
            cool = min(depths, key=lambda sid: depths[sid])
            gap = depths[hot] - depths[cool]
            if gap < self.steal_threshold:
                return
            batch = min(self.steal_batch, gap // 2)
        if batch < 1:
            return
        moved = self._steal_and_readmit(hot, batch)
        if moved:
            obs = get_recorder()
            if obs.enabled:
                obs.count("cluster.stolen", moved)
            self._log(
                f"rebalanced {moved} job(s) off hot shard {hot} "
                f"(gap {gap})"
            )

    def _advance_drain(self) -> None:
        """Cluster-wide drain: drain every shard, stop when quiet."""
        if not self.draining:
            return
        if not self._drain_rpcs_sent:
            self._drain_rpcs_sent = True
            with self._lock:
                shard_ids = [info.shard_id for info in self.membership]
            for shard_id in shard_ids:
                try:
                    self._rpc(shard_id, {"op": "drain"})
                except (ServeError, OSError, ProtocolError):
                    self._record_rpc_failure(shard_id)
            self._log("draining: drain requested on every shard")
        with self._lock:
            busy = sum(
                1
                for job in self._jobs.values()
                if not job.final and job.status not in _UNOWNED
            )
            if busy == 0:
                self._stopped.set()
