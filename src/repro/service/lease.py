"""Store-backed ownership leases with epoch fencing.

The sharded serve tier needs *exactly one* shard executing a job at a
time, and — harder — needs a shard that was wrongly declared dead (a
GC pause, a partitioned host) to be unable to corrupt state when it
comes back.  The ownership log (append-only history) answers "who ran
this"; leases answer "who may write *now*":

* Every placement acquires a **lease** for the job: a small document
  ``{job_hash, owner, epoch, expires_at}`` persisted through the
  store (and therefore quorum-replicated when the store is a
  :class:`~repro.service.replication.ReplicatedStore`).  The store
  owns the document and verifies its checksum on every read, so a
  copy whose epoch a flipped bit has raised is corrupt, never newest.
* The **epoch** increments on every change of ownership.  The router
  hands the ``(owner, epoch)`` pair to the executing worker as a
  **fence token**; the store layer rejects checkpoint writes whose
  token is older than the current lease
  (:class:`~repro.faults.errors.StaleLeaseError`).  A recovered
  ex-owner can therefore never clobber the new owner's checkpoint,
  even if the router's view of the world is wrong.
* Leases are **TTL-renewed**.  An owner that stops renewing (crashed,
  partitioned) lets the lease expire, after which anyone may take
  over — bumping the epoch and fencing the stragglers out.

Releases keep the lease document (with ``expires_at`` forced into the
past) rather than deleting it: a deleted lease would read as "no
lease" and let a stale fenced writer through; ``jobs gc`` leaves lease
files alone too.  A lease no copy of which verifies is quarantined and
reads as absent, as a lost lease would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..faults.errors import LeaseIntegrityError
from .codec import DocumentKind

if TYPE_CHECKING:  # pragma: no cover - the store imports this module
    from .store import ArtifactStore

#: Default time a lease stays valid without renewal, in seconds.
DEFAULT_LEASE_TTL = 30.0


class LeaseHeld(RuntimeError):
    """The job's lease is held, unexpired, by a different owner.

    Attributes:
        lease: The conflicting :class:`Lease`.
    """

    def __init__(self, message: str, lease: "Lease"):
        super().__init__(message)
        self.lease = lease


@dataclass(frozen=True)
class Lease:
    """One job's current ownership claim.

    Attributes:
        job_hash: The job the lease covers.
        owner: Identity of the holder (a shard id).
        epoch: Monotonic ownership generation; bumped on takeover.
        expires_at: Wall-clock expiry (Unix seconds).
    """

    job_hash: str
    owner: str
    epoch: int
    expires_at: float

    @property
    def fence(self) -> dict:
        """The fence token checkpoint writes must carry."""
        return {"owner": self.owner, "epoch": self.epoch}

    def expired(self, now: float | None = None) -> bool:
        """True when the lease has lapsed (holder stopped renewing)."""
        if now is None:
            # Wall clock by design: expiry must compare across hosts.
            now = time.time()  # ddlint: ignore[DD005]
        return now >= self.expires_at


#: The checksummed ``repro-lease`` document (stored form).
LEASE_DOCUMENT = DocumentKind(
    value_type=Lease,
    format="repro-lease",
    version=1,
    fields={
        "job_hash": str,
        "owner": str,
        "epoch": int,
        "expires_at": (int, float),
    },
    error=LeaseIntegrityError,
)


class LeaseManager:
    """Acquire/renew/release ownership leases on behalf of one owner.

    Args:
        store: The (possibly replicated) artifact store.
        owner: This process's identity — for the router, the shard id
            the job is being placed on.
        ttl_seconds: Lease validity window per acquire/renew.
    """

    def __init__(
        self,
        store: ArtifactStore,
        owner: str = "",
        ttl_seconds: float = DEFAULT_LEASE_TTL,
    ):
        self.store = store
        self.owner = owner
        self.ttl_seconds = float(ttl_seconds)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def current(self, job_hash: str) -> Lease | None:
        """The lease currently recorded for a job, or None.

        A lease that does not verify is quarantined and reads as None.
        """
        try:
            return self.store.read_lease(job_hash)
        except LeaseIntegrityError as error:
            self.store.quarantine_lease(job_hash, str(error))
            return None

    # ------------------------------------------------------------------
    # State changes
    # ------------------------------------------------------------------

    def acquire(
        self, job_hash: str, owner: str | None = None, force: bool = False
    ) -> Lease:
        """Claim the job for ``owner``; returns the (new) lease.

        Ownership changes — a different previous owner, expired or
        not — bump the epoch, so every fence token the old owner still
        holds goes stale the moment the claim lands.  Re-acquiring
        one's own live lease keeps the epoch (it is a renewal, not a
        takeover).

        Args:
            owner: Claimant identity (defaults to the manager's).
            force: Take over even while a different owner's lease is
                live — the router's failover path, which has already
                declared that owner dead.  Without ``force`` a live
                foreign lease raises :class:`LeaseHeld`.
        """
        claimant = self.owner if owner is None else owner
        now = time.time()  # ddlint: ignore[DD005] - lease TTLs are wall-clock
        previous = self.current(job_hash)
        epoch = 1
        if previous is not None:
            if previous.owner == claimant:
                epoch = previous.epoch
            elif previous.expired(now) or force:
                epoch = previous.epoch + 1
            else:
                raise LeaseHeld(
                    f"lease for {job_hash[:12]} held by "
                    f"{previous.owner!r} (epoch {previous.epoch}) for "
                    f"another {previous.expires_at - now:.1f}s",
                    lease=previous,
                )
        lease = Lease(
            job_hash=job_hash,
            owner=claimant,
            epoch=epoch,
            expires_at=now + self.ttl_seconds,
        )
        self.store.write_lease(lease)
        return lease

    def renew(self, lease: Lease) -> Lease | None:
        """Extend a held lease's TTL; returns the refreshed lease.

        Returns None (without writing) when the store no longer agrees
        that ``lease`` is current — the owner lost a takeover race and
        must stop treating the job as its own.
        """
        recorded = self.current(lease.job_hash)
        if (
            recorded is None
            or recorded.epoch != lease.epoch
            or recorded.owner != lease.owner
        ):
            return None
        now = time.time()  # ddlint: ignore[DD005] - lease TTLs are wall-clock
        refreshed = Lease(
            job_hash=lease.job_hash,
            owner=lease.owner,
            epoch=lease.epoch,
            expires_at=now + self.ttl_seconds,
        )
        self.store.write_lease(refreshed)
        return refreshed

    def release(self, lease: Lease) -> None:
        """Give up a lease without surrendering its fencing power.

        The document stays on disk with ``expires_at`` in the past and
        the epoch intact: the next claimant bumps the epoch as usual,
        and any write still carrying this lease's token keeps being
        accepted only until then (deleting the file instead would let
        *arbitrarily old* tokens through).
        """
        recorded = self.current(lease.job_hash)
        if (
            recorded is None
            or recorded.epoch != lease.epoch
            or recorded.owner != lease.owner
        ):
            return  # someone else took over; nothing of ours to release
        expired = Lease(
            job_hash=lease.job_hash,
            owner=lease.owner,
            epoch=lease.epoch,
            expires_at=0.0,
        )
        self.store.write_lease(expired)
