"""Fault taxonomy: transient vs. permanent failures.

The job engine's retry loop is only sound when it can distinguish
failures that a retry can fix from failures it cannot:

* :class:`TransientFault` — environmental and may succeed on retry
  (I/O hiccups, memory pressure, a killed worker).  The engine retries
  these with exponential backoff, up to its ``max_retries`` budget.
* :class:`PermanentFault` — deterministic given the job spec (malformed
  QASM, an unknown builtin, an exhausted fidelity budget).  Retrying
  re-runs the same computation to the same failure, so the engine
  reports them immediately.

:func:`classify_exception` maps arbitrary exceptions onto the taxonomy.
Integrity failures (checksum mismatches on stored artifacts) get their
own subclasses so callers can quarantine the corrupt artifact and fall
back to recomputation rather than surfacing the error at all.
"""

from __future__ import annotations

TRANSIENT = "transient"
PERMANENT = "permanent"


class TransientFault(RuntimeError):
    """A failure that may not recur: retrying the operation is sensible."""


class PermanentFault(RuntimeError):
    """A deterministic failure: retrying re-runs into the same error."""


class ArtifactIntegrityError(PermanentFault):
    """A stored artifact failed its checksum / consistency verification.

    Permanent for the *artifact* (re-reading the same bytes re-fails),
    but recoverable for the *job*: quarantine the object and recompute.

    Attributes:
        path: Filesystem path of the offending artifact, when known.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path


class CheckpointIntegrityError(ArtifactIntegrityError):
    """A checkpoint document is corrupt, truncated, or stale.

    Recovery: quarantine the checkpoint and restart the job from
    scratch — sound (if wasteful) because a fresh run spends its own
    Lemma-1 fidelity budget from 1.0.
    """


class LeaseIntegrityError(ArtifactIntegrityError):
    """A copy of an ownership lease is corrupt, unchecksummed, or stale.

    Recovery: a lease no copy of which verifies is quarantined and
    reads as absent, exactly like a lost lease — fencing then falls
    back to the router's own exclusion until the next placement
    writes a fresh lease.
    """


class PartialWriteFault(ConnectionResetError):
    """An injected torn write on a network path (``partial_write`` kind).

    Raised to the *writer* after only part of a frame reached the peer —
    the peer sees a torn line, the writer sees a reset.  Subclasses
    :class:`ConnectionResetError` so :func:`classify_exception` treats
    it as transient and retry/failover logic applies unchanged.
    """


class QuorumLost(TransientFault):
    """A replicated-store write could not reach its write quorum.

    Transient by design: replicas come back (restart, scrub repair) and
    the write may then succeed.  While quorum is unreachable the
    :class:`~repro.service.replication.ReplicatedStore` degrades to
    read-only mode and admission control sheds new work instead of
    accepting jobs whose artifacts could not be durably persisted.

    Attributes:
        acked: Number of replicas that acknowledged the write.
        needed: The write quorum the store is configured for.
    """

    def __init__(self, message: str, acked: int = 0, needed: int = 0):
        super().__init__(message)
        self.acked = acked
        self.needed = needed


class StaleLeaseError(PermanentFault):
    """A fenced write carried an epoch older than the current lease.

    Raised by the *store layer* (not the router) when a recovered
    ex-owner tries to persist a checkpoint for a job whose ownership
    lease has since been re-acquired at a higher epoch.  Permanent for
    the writer: the job now belongs to someone else, so retrying the
    same write can never succeed.

    Attributes:
        job_hash: The job whose lease fenced the write.
        fence_epoch: Epoch the rejected writer presented.
        lease_epoch: Current (higher) epoch recorded in the lease.
    """

    def __init__(
        self,
        message: str,
        job_hash: str = "",
        fence_epoch: int = 0,
        lease_epoch: int = 0,
    ):
        super().__init__(message)
        self.job_hash = job_hash
        self.fence_epoch = fence_epoch
        self.lease_epoch = lease_epoch


class StaleReplicaFault(RuntimeError):
    """An injected lying-fsync: the replica acks a write it then drops.

    Raised *to the replication layer only* (never surfaced to callers):
    the quorum loop counts the ack but the replica's copy is missing or
    stale, modelling firmware that acknowledges before the bytes are
    durable.  Anti-entropy scrubbing must detect and repair the
    divergence.
    """


class MemoryBudgetExceeded(PermanentFault):
    """Memory pressure persists but the fidelity floor forbids degrading.

    Raised by the simulator's memory watchdog when an emergency
    approximation round would push the Lemma-1 fidelity product below
    the configured floor — the run fails rather than returning a
    meaninglessly inaccurate state (§IV-B's warning).
    """


#: Exception types that are environmental — a retry may succeed.
_TRANSIENT_TYPES: tuple[type[BaseException], ...] = (
    TransientFault,
    OSError,
    MemoryError,
    TimeoutError,
    ConnectionError,
)


def classify_exception(error: BaseException) -> str:
    """Map an exception to :data:`TRANSIENT` or :data:`PERMANENT`.

    Explicit taxonomy members win; otherwise I/O- and resource-shaped
    standard exceptions are transient and everything else (value errors,
    parse errors, programming errors) is permanent.
    """
    if isinstance(error, PermanentFault):
        return PERMANENT
    if isinstance(error, _TRANSIENT_TYPES):
        return TRANSIENT
    return PERMANENT
