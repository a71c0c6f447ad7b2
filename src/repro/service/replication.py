"""Replicated artifact store: quorum writes, read-repair, anti-entropy.

A :class:`ReplicatedStore` presents the :class:`ArtifactStore` API over
N independent store roots (``<root>/replica-0`` ... ``replica-N-1``;
future: hosts) so that one bad disk can no longer destroy checkpoints,
results, or the ownership state failover depends on::

    <root>/replication.json   — manifest: replica count, write quorum
    <root>/replica-<i>/...    — a complete, ordinary ArtifactStore each
    <root>/scrub-status.json  — last anti-entropy pass (timestamps, repairs)
    <root>/read-only.json     — present while quorum is unreachable
    <root>/serve/...          — host-local serve runtime (sockets, logs)

**Write quorum.**  A put succeeds only after W of N replicas
acknowledge the CRC/SHA-verified atomic write; fewer acks raise the
typed :class:`~repro.faults.errors.QuorumLost` and flip the store into
**read-only mode** (a marker file, so every process sharing the store
sees it), which admission control surfaces by shedding new work
instead of accepting jobs whose artifacts could not be durably
persisted.  The next successful quorum write clears the marker.

**Read-all, verify, repair.**  Every read of a result, checkpoint or
lease consults *all* replicas through one read,
:meth:`ReplicatedStore._newest`: each copy is verified before it is
compared, the freshest verified copy wins, and every other copy is
quarantined if corrupt and rewritten from it (**read-repair**).
Checkpoints and leases are ordered documents, so freshness matters — a
stale checkpoint replayed after failover would corrupt the Lemma-1
fidelity ledger, and a stale lease epoch would un-fence a dead owner —
and the winner is the highest ``(next_op_index, elapsed_seconds)`` /
``(epoch, expires_at)``.  A bit flip that raises one copy's op index or
epoch therefore makes that copy corrupt, not newest.  A result object
is immutable, so any verified copy wins; its copy is verified by the
plain store's rule (the document's CRC, the state's and journal's
recorded SHA-256) and ``load_result``, ``load_state`` and
``read_journal`` are served from its verified document and bytes.

**Anti-entropy.**  :meth:`scrub` runs every result, checkpoint and lease
on every replica through that same read, quarantining bitrot/torn
copies and re-replicating healthy bytes until the target replication
factor holds again (``repro-sim store scrub/repair/status``).

Fault injection: every delegated replica operation visits the
``store.replica`` site — before reads, after writes (so file kinds see
the written bytes) — with ``replica=<index>``/``op=<method>`` context;
pair with a rule's ``match`` to break exactly one replica.  The three
result reads visit it as ``op="load_result"``.  Scrubbing itself does
not visit the site: it is the repair tool, not the system under test.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from collections.abc import Callable, Iterable, Iterator
from operator import attrgetter
from typing import Any, NamedTuple

from ..dd.package import Package
from ..faults.errors import (
    ArtifactIntegrityError,
    QuorumLost,
    StaleReplicaFault,
)
from ..faults.injector import inject
from ..obs import get_recorder
from .checkpoint import Checkpoint, encode_checkpoint
from .lease import Lease
from .store import (
    CHECKPOINT_FILE,
    JOURNAL_FILE,
    RESULT_FILE,
    STATE_FILE,
    ArtifactStore,
    _atomic_write,
    _journal_from,
    _state_from,
)

MANIFEST_FILE = "replication.json"
SCRUB_STATUS_FILE = "scrub-status.json"
READ_ONLY_MARKER = "read-only.json"

REPLICATION_FORMAT = "repro-replication"
REPLICATION_VERSION = 1

#: Replica health states reported by ``status()`` / ``cluster status``.
HEALTH_OK = "ok"
HEALTH_DEGRADED = "degraded"
HEALTH_SCRUBBING = "scrubbing"
HEALTH_LOST = "lost"


def open_store(root: str) -> ArtifactStore:
    """Open the store at ``root``, replicated or plain.

    Every process that reopens a store from a bare path (pool workers,
    shard daemons, the CLI) must go through this so a replicated root
    is never accidentally treated as a plain store — writing artifacts
    *next to* the replicas instead of *into* them.
    """
    absolute = os.path.abspath(os.path.expanduser(root))
    if os.path.exists(os.path.join(absolute, MANIFEST_FILE)):
        return ReplicatedStore(absolute)
    return ArtifactStore(absolute)


class _Ordered(NamedTuple):
    """A per-job artifact kind as the newest-copy read handles it."""

    name: str
    #: The ``op`` a live read visits the ``store.replica`` site with.
    op: str
    read: Callable[[ArtifactStore, str], Any]
    write: Callable[[ArtifactStore, str, Any], object]
    quarantine: Callable[[ArtifactStore, str, str], object]
    path: Callable[[ArtifactStore, str], str]
    #: Order of verified copies (newest = max).
    freshness: Callable[[Any], tuple]


_CHECKPOINT = _Ordered(
    name="checkpoint",
    op="load_checkpoint",
    read=ArtifactStore.load_checkpoint,
    write=ArtifactStore.save_checkpoint,
    quarantine=ArtifactStore.quarantine_checkpoint,
    path=lambda replica, job_hash: os.path.join(
        replica.checkpoint_dir(job_hash), CHECKPOINT_FILE
    ),
    freshness=attrgetter("next_op_index", "elapsed_seconds"),
)

#: ``expires_at`` orders renewals within an epoch, so a replica that
#: missed one is repaired too.
_LEASE = _Ordered(
    name="lease",
    op="read_lease",
    read=ArtifactStore.read_lease,
    write=lambda replica, _job_hash, lease: replica.write_lease(lease),
    quarantine=ArtifactStore.quarantine_lease,
    path=ArtifactStore.lease_path,
    freshness=attrgetter("epoch", "expires_at"),
)


class _ResultCopy(NamedTuple):
    """One replica's verified copy of a result object."""

    replica: ArtifactStore
    document: dict
    #: The verified bytes of ``state.json`` / ``journal.jsonl`` (None:
    #: the object has no such file and records none).
    state: bytes | None
    journal: bytes | None


def _verified_result(
    replica: ArtifactStore, job_hash: str
) -> _ResultCopy | None:
    """``replica``'s copy of a result object when it verifies, else None.

    Checks the bytes of all three files by the plain store's read rule
    (the document's CRC, the state's and journal's recorded SHA-256),
    then decodes the state into a throwaway package, so a state that
    verifies but does not decode is damage too and the process's default
    unique tables do not grow.

    Raises:
        ArtifactIntegrityError: When the copy is incomplete, fails
            verification, or its state does not decode.
    """
    directory = replica.result_dir(job_hash)
    if not os.path.isdir(directory):
        return None
    try:
        document = replica.load_result(job_hash)
        copy = _ResultCopy(
            replica,
            document,
            *(
                replica._checked_bytes(job_hash, document, name)
                for name in (STATE_FILE, JOURNAL_FILE)
            ),
        )
        if copy.state is not None:
            _state_from(job_hash, copy.state, Package())
        return copy
    except (KeyError, OSError) as error:
        raise ArtifactIntegrityError(
            f"result for {job_hash[:12]} is incomplete or unreadable: "
            f"{error}",
            path=directory,
        ) from error


def _copy_result(
    source: ArtifactStore, target: ArtifactStore, job_hash: str
) -> None:
    """Re-replicate one result object, staging + promote like a put."""
    src_dir = source.result_dir(job_hash)
    dst_dir = target.result_dir(job_hash)
    if os.path.isdir(dst_dir):
        target.quarantine_result(
            job_hash, f"repair: replaced by the copy in {source.root}"
        )
    shard = os.path.dirname(dst_dir)
    os.makedirs(shard, exist_ok=True)
    staging = tempfile.mkdtemp(dir=shard, prefix=f".staging-{job_hash[:8]}-")
    try:
        for name in os.listdir(src_dir):
            shutil.copy2(
                os.path.join(src_dir, name), os.path.join(staging, name)
            )
        ArtifactStore._promote(staging, dst_dir)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


#: Results are immutable, so every verified copy is as fresh as any
#: other.  Repair copies the winning replica's files.
_RESULT = _Ordered(
    name="result",
    op="load_result",
    read=_verified_result,
    write=lambda replica, job_hash, source: _copy_result(
        source.replica, replica, job_hash
    ),
    quarantine=ArtifactStore.quarantine_result,
    path=lambda replica, job_hash: os.path.join(
        replica.result_dir(job_hash), RESULT_FILE
    ),
    freshness=lambda _copy: (),
)


class ReplicatedStore(ArtifactStore):
    """N-way replicated :class:`ArtifactStore` with quorum semantics.

    Args:
        root: Directory holding the replication manifest and replicas.

    Raises:
        ValueError: When ``root`` has no (or a malformed) manifest —
            use :meth:`create` to initialise one, or
            :func:`open_store` to fall back to a plain store.
    """

    def __init__(self, root: str):
        super().__init__(root)
        manifest_path = os.path.join(self.root, MANIFEST_FILE)
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise ValueError(
                f"{self.root!r} is not a replicated store (no "
                f"{MANIFEST_FILE}); use ReplicatedStore.create() or "
                f"open_store()"
            ) from None
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(
                f"unreadable replication manifest in {self.root!r}: "
                f"{error}"
            ) from error
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != REPLICATION_FORMAT
        ):
            raise ValueError(
                f"{manifest_path!r} is not a {REPLICATION_FORMAT} "
                f"document"
            )
        count = int(manifest.get("replicas", 0))
        quorum = int(manifest.get("write_quorum", 0))
        if count < 1 or not 1 <= quorum <= count:
            raise ValueError(
                f"invalid replication manifest: replicas={count} "
                f"write_quorum={quorum}"
            )
        self.replica_count = count
        self.write_quorum = quorum
        self.replicas = [
            ArtifactStore(os.path.join(self.root, f"replica-{index}"))
            for index in range(count)
        ]
        self.health: list[str] = [HEALTH_OK] * count
        self.repairs = 0
        #: Guards the ``scrubbing`` flag only — the scrub pass itself
        #: runs outside any lock region (its critical section is file
        #: I/O, which must not block other lock clients; DD009).
        self._scrub_gate = threading.Lock()
        self.scrubbing = False

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: str,
        replicas: int = 3,
        write_quorum: int | None = None,
    ) -> "ReplicatedStore":
        """Initialise a replicated store at ``root``.

        The default write quorum is a majority (``N // 2 + 1``).  When
        ``root`` already holds a *plain* store, its data is adopted as
        replica 0 and immediately re-replicated to full factor, so
        converting an existing deployment is one command
        (``repro-sim store init``).
        """
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        quorum = (
            replicas // 2 + 1 if write_quorum is None else int(write_quorum)
        )
        if not 1 <= quorum <= replicas:
            raise ValueError(
                f"write_quorum must be in [1, {replicas}], got {quorum}"
            )
        absolute = os.path.abspath(os.path.expanduser(root))
        if os.path.exists(os.path.join(absolute, MANIFEST_FILE)):
            raise ValueError(f"{absolute!r} is already a replicated store")
        os.makedirs(absolute, exist_ok=True)
        migrated = False
        replica0 = os.path.join(absolute, "replica-0")
        for name in ("objects", "checkpoints", "serve", "quarantine"):
            source = os.path.join(absolute, name)
            if not os.path.isdir(source):
                continue
            os.makedirs(replica0, exist_ok=True)
            os.rename(source, os.path.join(replica0, name))
            migrated = True
        for index in range(replicas):
            os.makedirs(
                os.path.join(absolute, f"replica-{index}"), exist_ok=True
            )
        _atomic_write(
            os.path.join(absolute, MANIFEST_FILE),
            json.dumps(
                {
                    "format": REPLICATION_FORMAT,
                    "version": REPLICATION_VERSION,
                    "replicas": replicas,
                    "write_quorum": quorum,
                },
                indent=2,
                sort_keys=True,
            ),
        )
        store = cls(absolute)
        if migrated:
            store.scrub(repair=True)
        return store

    # ------------------------------------------------------------------
    # Health / degradation bookkeeping
    # ------------------------------------------------------------------

    def _mark(self, index: int, state: str) -> None:
        if self.health[index] != state:
            self.health[index] = state
            obs = get_recorder()
            if obs.enabled:
                obs.event("replica_health", replica=index, state=state)

    def _read_only_marker(self) -> str:
        return os.path.join(self.root, READ_ONLY_MARKER)

    @property
    def read_only(self) -> bool:
        """True while the store has degraded to read-only mode.

        Backed by a marker file so every process sharing the store
        (router, shard daemons, pool workers) agrees.
        """
        return os.path.exists(self._read_only_marker())

    def _enter_read_only(self, reason: str, acked: int) -> None:
        try:
            _atomic_write(
                self._read_only_marker(),
                json.dumps(
                    {
                        "read_only": True,
                        "reason": reason,
                        "acked": acked,
                        "write_quorum": self.write_quorum,
                        # Wall-clock timestamp for operators.
                        "since": time.time(),  # ddlint: ignore[DD005]
                    },
                    indent=2,
                    sort_keys=True,
                ),
            )
        except OSError:
            pass  # the shared root itself is failing; callers still shed
        obs = get_recorder()
        if obs.enabled:
            obs.count("store.quorum_lost")

    def _exit_read_only(self) -> None:
        try:
            os.unlink(self._read_only_marker())
        except FileNotFoundError:
            pass
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Injection + quorum plumbing
    # ------------------------------------------------------------------

    def _fire(
        self, index: int, op: str, job_hash: str, path: str | None
    ) -> None:
        """Visit the per-replica fault site."""
        inject(
            "store.replica",
            replica=index,
            op=op,
            job_hash=job_hash,
            path=path,
        )

    def _readable(
        self, index: int, op: str, job_hash: str, path: str
    ) -> bool:
        """Visit the fault site before a read; False if the replica is out."""
        try:
            self._fire(index, op, job_hash, path)
        except StaleReplicaFault:
            return False
        except (OSError, ConnectionError, MemoryError):
            self._mark(index, HEALTH_DEGRADED)
            return False
        return True

    def _quorum_write(
        self,
        op: str,
        job_hash: str,
        write: Callable[[ArtifactStore], object],
        written_path: Callable[[ArtifactStore], str] | None = None,
        undo: Callable[[ArtifactStore], None] | None = None,
    ) -> int:
        """Apply ``write`` to every replica; require W acks.

        The fault site fires *after* each delegated write so file kinds
        (``bitrot``) damage the bytes that were just persisted.  A
        :class:`StaleReplicaFault` models a lying fsync: the ack is
        counted but ``undo`` drops the replica's copy, leaving a
        divergence only anti-entropy can heal.
        """
        acks = 0
        last_error: BaseException | None = None
        for index, replica in enumerate(self.replicas):
            try:
                write(replica)
            except (OSError, ArtifactIntegrityError) as error:
                last_error = error
                self._mark(index, HEALTH_DEGRADED)
                continue
            path = written_path(replica) if written_path else None
            try:
                self._fire(index, op, job_hash, path)
            except StaleReplicaFault:
                if undo is not None:
                    undo(replica)
                acks += 1  # the replica *said* yes; the bytes are gone
                continue
            except (OSError, ConnectionError, MemoryError) as error:
                last_error = error
                self._mark(index, HEALTH_DEGRADED)
                continue
            acks += 1
            self._mark(index, HEALTH_OK)
        if acks < self.write_quorum:
            detail = f": {last_error}" if last_error else ""
            self._enter_read_only(
                f"{op} reached {acks}/{self.write_quorum} replicas"
                f"{detail}",
                acks,
            )
            raise QuorumLost(
                f"{op} for {job_hash[:12] if job_hash else op!r} "
                f"acked by {acks} of {len(self.replicas)} replicas "
                f"(write quorum {self.write_quorum}){detail}",
                acked=acks,
                needed=self.write_quorum,
            )
        if self.read_only:
            self._exit_read_only()
        return acks

    # ------------------------------------------------------------------
    # Paths (diagnostics point at replica 0, the "primary" for display)
    # ------------------------------------------------------------------

    def result_dir(self, job_hash: str) -> str:
        return self.replicas[0].result_dir(job_hash)

    def checkpoint_dir(self, job_hash: str) -> str:
        return self.replicas[0].checkpoint_dir(job_hash)

    def quarantine_root(self) -> str:
        return self.replicas[0].quarantine_root()

    def ownership_log_path(self) -> str:
        return self.replicas[0].ownership_log_path()

    def lease_path(self, job_hash: str) -> str:
        return self.replicas[0].lease_path(job_hash)

    def parked_jobs_path(self, name: str) -> str:
        return self.replicas[0].parked_jobs_path(name)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def has_result(self, job_hash: str) -> bool:
        return any(
            replica.has_result(job_hash) for replica in self.replicas
        )

    def put_result(
        self,
        job_hash: str,
        result_doc: dict,
        state_doc: dict | None = None,
        journal_rows: list[dict] | None = None,
    ) -> str:
        # Stamp once so every replica writes byte-identical artifacts
        # (per-replica timestamps would defeat cross-replica repair
        # comparisons and make "which copy is right" ambiguous).
        document = dict(result_doc)
        document.setdefault(  # wall-clock timestamp, not a duration
            "stored_at", time.time()  # ddlint: ignore[DD005]
        )
        self._quorum_write(
            "put_result",
            job_hash,
            lambda replica: replica.put_result(
                job_hash,
                document,
                state_doc=state_doc,
                journal_rows=journal_rows,
            ),
            written_path=lambda replica: os.path.join(
                replica.result_dir(job_hash), RESULT_FILE
            ),
            undo=lambda replica: shutil.rmtree(
                replica.result_dir(job_hash), ignore_errors=True
            ),
        )
        return self.result_dir(job_hash)

    def _result_copy(self, job_hash: str) -> _ResultCopy:
        """A verified copy of the result object.

        Every copy is checked (:meth:`_newest`); the corrupt and missing
        ones are repaired from the winner.

        Raises:
            KeyError: When no replica holds the result.
            ArtifactIntegrityError: When no copy verifies.
        """
        copy = self._newest(_RESULT, job_hash)
        if copy is None:
            raise KeyError(f"no stored result for {job_hash}")
        return copy

    def load_result(self, job_hash: str) -> dict:
        return self._result_copy(job_hash).document

    def load_state(self, job_hash, package=None):
        return _state_from(job_hash, self._result_copy(job_hash).state, package)

    def read_journal(self, job_hash: str) -> list[dict]:
        return _journal_from(self._result_copy(job_hash).journal)

    def _union(
        self, listing: Callable[[ArtifactStore], Iterable[str]]
    ) -> list[str]:
        """The sorted union of one listing over every replica."""
        return sorted(
            {name for replica in self.replicas for name in listing(replica)}
        )

    def _result_hashes(self) -> list[str]:
        return self._union(ArtifactStore._result_hashes)

    # ------------------------------------------------------------------
    # Checkpoints (ordered documents: read-all, pick newest, repair)
    # ------------------------------------------------------------------

    def save_checkpoint(
        self,
        job_hash: str,
        checkpoint: Checkpoint,
        fence: dict | None = None,
    ) -> str:
        # Fence once at this layer against the max-epoch lease view and
        # encode once; every replica writes the same bytes.
        self._check_fence(job_hash, fence)
        text = encode_checkpoint(checkpoint)
        self._quorum_write(
            "save_checkpoint",
            job_hash,
            lambda replica: replica._write_checkpoint(job_hash, text),
            written_path=lambda replica: os.path.join(
                replica.checkpoint_dir(job_hash), CHECKPOINT_FILE
            ),
            undo=lambda replica: shutil.rmtree(
                replica.checkpoint_dir(job_hash), ignore_errors=True
            ),
        )
        return os.path.join(
            self.checkpoint_dir(job_hash), CHECKPOINT_FILE
        )

    def load_checkpoint(self, job_hash: str) -> Checkpoint | None:
        """Newest verified checkpoint across replicas (repairing the rest).

        Read-any is *wrong* here: a replica that missed the last
        quorum write holds an older-but-valid checkpoint, and resuming
        from it would replay work and corrupt the Lemma-1 fidelity
        ledger.  See :meth:`_newest`.
        """
        return self._newest(_CHECKPOINT, job_hash)

    def clear_checkpoint(
        self, job_hash: str, fence: dict | None = None
    ) -> None:
        self._check_fence(job_hash, fence)
        for replica in self.replicas:
            replica.clear_checkpoint(job_hash)

    def iter_checkpoints(self) -> Iterator[str]:
        yield from self._union(ArtifactStore.iter_checkpoints)

    # ------------------------------------------------------------------
    # Ownership log
    # ------------------------------------------------------------------

    def append_ownership(self, entry: dict) -> None:
        """Append to every replica's log; at least one must take it."""
        acks = 0
        last_error: BaseException | None = None
        for index, replica in enumerate(self.replicas):
            try:
                replica.append_ownership(entry)
                self._fire(
                    index,
                    "append_ownership",
                    str(entry.get("job_hash", "")),
                    replica.ownership_log_path(),
                )
            except StaleReplicaFault:
                acks += 1
                continue
            except (OSError, ConnectionError, MemoryError) as error:
                last_error = error
                self._mark(index, HEALTH_DEGRADED)
                continue
            acks += 1
        if acks == 0 and last_error is not None:
            raise last_error

    def read_ownership_log(self, job_hash: str | None = None) -> list[dict]:
        """The most complete replica's view of the ownership history."""
        best: list[dict] = []
        for replica in self.replicas:
            try:
                events = replica.read_ownership_log(job_hash)
            except OSError:
                continue
            if len(events) > len(best):
                best = events
        return best

    # ------------------------------------------------------------------
    # Leases (ordered documents: highest epoch wins)
    # ------------------------------------------------------------------

    def read_lease(self, job_hash: str) -> Lease | None:
        """Newest verified lease across replicas (repairing the rest).

        Fencing correctness depends on this: a fence check that read a
        *stale* epoch from a lagging replica would accept writes the
        current owner's epoch forbids, and one that trusted a damaged
        copy's epoch would fence out the live owner.  See
        :meth:`_newest`.
        """
        return self._newest(_LEASE, job_hash)

    def write_lease(self, lease: Lease) -> str:
        self._quorum_write(
            "write_lease",
            lease.job_hash,
            lambda replica: replica.write_lease(lease),
            written_path=lambda replica: replica.lease_path(lease.job_hash),
            undo=lambda replica: _unlink_quiet(
                replica.lease_path(lease.job_hash)
            ),
        )
        return self.lease_path(lease.job_hash)

    def _lease_hashes(self) -> list[str]:
        return self._union(ArtifactStore._lease_hashes)

    # ------------------------------------------------------------------
    # Newest-copy reads (results, checkpoints and leases)
    # ------------------------------------------------------------------

    def _newest(
        self, kind: _Ordered, job_hash: str, report: dict | None = None
    ) -> Any:
        """The newest verified copy across replicas, or None if none has one.

        Each replica read verifies its copy, so a damaged copy is
        corrupt, never newest.  Every copy less fresh than the winner
        (corrupt, missing or stale) is rewritten from it, a corrupt one
        quarantined first.  A live read visits the ``store.replica``
        fault site and leaves a replica it cannot reach alone, neither
        compared nor rewritten; a scrub passes its ``report`` instead,
        which gets the problems and counts and says whether to repair.
        Raises the kind's :class:`ArtifactIntegrityError` when no copy
        verifies.
        """
        copies: list[Any] = []
        corrupt: set[int] = set()
        unreachable: set[int] = set()
        error: ArtifactIntegrityError | None = None
        for index, replica in enumerate(self.replicas):
            copies.append(None)
            if report is None and not self._readable(
                index, kind.op, job_hash, kind.path(replica, job_hash)
            ):
                unreachable.add(index)
                continue
            try:
                copies[index] = kind.read(replica, job_hash)
            except ArtifactIntegrityError as caught:
                error = caught
                corrupt.add(index)
                self._mark(index, HEALTH_DEGRADED)
        verified = [copy for copy in copies if copy is not None]
        if not verified:
            if error is not None:
                raise error
            return None
        best = max(verified, key=kind.freshness)
        newest = kind.freshness(best)
        for index, copy in enumerate(copies):
            if index in unreachable or (
                copy is not None and kind.freshness(copy) == newest
            ):
                continue
            if report is not None:
                state = (
                    "corrupt" if index in corrupt
                    else "missing" if copy is None
                    else "stale"
                )
                report["problems"].append(
                    {
                        "kind": f"{kind.name}_{state}",
                        "job_hash": job_hash,
                        "replica": index,
                    }
                )
                if not report["repair"]:
                    continue
            replica = self.replicas[index]
            try:
                if index in corrupt:
                    by = "read-repair" if report is None else "scrub"
                    reason = f"{by}: corrupt {kind.name} copy"
                    kind.quarantine(replica, job_hash, reason)
                kind.write(replica, job_hash, best)
            except OSError:
                self._mark(index, HEALTH_DEGRADED)
                continue
            self._mark(index, HEALTH_OK)
            if report is None:
                self.repairs += 1
            else:
                report["repaired"] += 1
                report["quarantined"] += int(index in corrupt)
        return best

    # ------------------------------------------------------------------
    # Parked job queues
    # ------------------------------------------------------------------

    def park_jobs(self, name: str, payload: list[dict]) -> str:
        self._quorum_write(
            "park_jobs",
            name,
            lambda replica: replica.park_jobs(name, payload),
            written_path=lambda replica: replica.parked_jobs_path(name),
            undo=lambda replica: _unlink_quiet(
                replica.parked_jobs_path(name)
            ),
        )
        return self.parked_jobs_path(name)

    def take_parked_jobs(self, name: str) -> list[dict]:
        """Longest parked dump across replicas (then cleared from all)."""
        best: list[dict] = []
        for replica in self.replicas:
            taken = replica.take_parked_jobs(name)
            if len(taken) > len(best):
                best = taken
        return best

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------

    def quarantine_checkpoint(self, job_hash: str, reason: str) -> str | None:
        return _first(
            [r.quarantine_checkpoint(job_hash, reason) for r in self.replicas]
        )

    def quarantine_result(self, job_hash: str, reason: str) -> str | None:
        return _first(
            [r.quarantine_result(job_hash, reason) for r in self.replicas]
        )

    def quarantine_lease(self, job_hash: str, reason: str) -> str | None:
        return _first(
            [r.quarantine_lease(job_hash, reason) for r in self.replicas]
        )

    def iter_quarantined(self) -> Iterator[str]:
        yield from self._union(ArtifactStore.iter_quarantined)

    def quarantine_report(self) -> list[dict]:
        report: list[dict] = []
        seen: set[str] = set()
        for replica in self.replicas:
            for entry in replica.quarantine_report():
                if entry["name"] in seen:
                    continue
                seen.add(entry["name"])
                report.append(entry)
        return sorted(report, key=lambda entry: entry["name"])

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def gc(
        self,
        older_than_seconds: float | None = None,
        remove_results: bool = False,
        remove_quarantine: bool = False,
        staging_older_than_seconds: float | None = 3600.0,
    ) -> dict:
        removed = {
            "checkpoints": 0, "results": 0, "quarantined": 0, "staging": 0,
        }
        for replica in self.replicas:
            counts = replica.gc(
                older_than_seconds=older_than_seconds,
                remove_results=remove_results,
                remove_quarantine=remove_quarantine,
                staging_older_than_seconds=staging_older_than_seconds,
            )
            for key, value in counts.items():
                removed[key] = removed.get(key, 0) + value
        return removed

    # ------------------------------------------------------------------
    # Anti-entropy scrub
    # ------------------------------------------------------------------

    def scrub(self, repair: bool = True) -> dict:
        """One anti-entropy pass over every artifact on every replica.

        Verifies integrity blocks, quarantines bitrot/torn copies, and
        (with ``repair``) re-replicates healthy bytes until every
        surviving artifact is back at the target replication factor.
        Returns a report document (also persisted to
        ``scrub-status.json``) and clears read-only mode when the
        store is fully healthy again.

        Only one pass runs at a time: a concurrent call raises
        :class:`RuntimeError` instead of queueing behind a full pass
        of file I/O.
        """
        with self._scrub_gate:
            if self.scrubbing:
                raise RuntimeError("a scrub pass is already running")
            self.scrubbing = True
        try:
            return self._scrub_pass(repair)
        finally:
            self.scrubbing = False

    def _scrub_pass(self, repair: bool) -> dict:
        started = time.time()  # ddlint: ignore[DD005] - report timestamp
        report: dict = {
            "repair": repair,
            "results_checked": 0,
            "checkpoints_checked": 0,
            "leases_checked": 0,
            "repaired": 0,
            "quarantined": 0,
            "lost": 0,
            "problems": [],
        }
        # Every copy of every result, checkpoint and lease: verified,
        # and brought to match the newest verified copy.  Checkpoints
        # shadowed by a result are garbage (the job completed — same
        # rule as gc).
        for kind, hashes in (
            (_RESULT, self._result_hashes()),
            (_CHECKPOINT, self.iter_checkpoints()),
            (_LEASE, self._lease_hashes()),
        ):
            for job_hash in hashes:
                report[f"{kind.name}s_checked"] += 1
                if kind is _CHECKPOINT and self.has_result(job_hash):
                    if repair:
                        for replica in self.replicas:
                            replica.clear_checkpoint(job_hash)
                    continue
                try:
                    self._newest(kind, job_hash, report)
                except ArtifactIntegrityError:
                    report["lost"] += 1
                    report["problems"].append(
                        {"kind": f"{kind.name}_lost", "job_hash": job_hash}
                    )
                    if repair:
                        for replica in self.replicas:
                            if kind.quarantine(
                                replica,
                                job_hash,
                                "scrub: no valid copy survives",
                            ):
                                report["quarantined"] += 1
        # Ownership history: longest log wins.
        if repair:
            self._replicate_ownership_log()
        if repair and report["lost"] == 0:
            # Every problem the pass found was repaired: the replicas
            # are byte-complete again, so clear degradation state.
            for index in range(len(self.replicas)):
                self._mark(index, HEALTH_OK)
            self._exit_read_only()
        finished = time.time()  # ddlint: ignore[DD005] - report timestamp
        report["started_at"] = started
        report["finished_at"] = finished
        report["duration_seconds"] = finished - started
        self.repairs += report["repaired"]
        try:
            _atomic_write(
                os.path.join(self.root, SCRUB_STATUS_FILE),
                json.dumps(
                    {
                        "last_scrub": finished,
                        "report": {
                            key: value
                            for key, value in report.items()
                            # Problem lists can be large; keep the
                            # persisted status to counters + a sample.
                            if key != "problems"
                        },
                        "problem_sample": report["problems"][:20],
                    },
                    indent=2,
                    sort_keys=True,
                ),
            )
        except OSError:
            pass
        obs = get_recorder()
        if obs.enabled:
            obs.count("store.scrubs")
            obs.event(
                "scrub",
                repaired=report["repaired"],
                quarantined=report["quarantined"],
                lost=report["lost"],
            )
        return report

    def _replicate_ownership_log(self) -> None:
        """Copy the longest ownership log over shorter replica copies."""
        sizes: list[tuple[int, int]] = []
        for index, replica in enumerate(self.replicas):
            path = replica.ownership_log_path()
            try:
                sizes.append((os.path.getsize(path), index))
            except OSError:
                sizes.append((0, index))
        if not sizes:
            return
        best_size, best_index = max(sizes)
        if best_size == 0:
            return
        source = self.replicas[best_index].ownership_log_path()
        for size, index in sizes:
            if index == best_index or size >= best_size:
                continue
            target = self.replicas[index].ownership_log_path()
            try:
                os.makedirs(os.path.dirname(target), exist_ok=True)
                shutil.copy2(source, target)
            except OSError:
                self._mark(index, HEALTH_DEGRADED)

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------

    def last_scrub(self) -> dict | None:
        """The persisted status of the most recent scrub, or None."""
        path = os.path.join(self.root, SCRUB_STATUS_FILE)
        try:
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        return document if isinstance(document, dict) else None

    def status(self) -> dict:
        """Health document for ``store status`` / ``cluster status``."""
        replicas = []
        for index, replica in enumerate(self.replicas):
            state = self.health[index]
            if not os.path.isdir(replica.root):
                state = HEALTH_LOST
            elif self.scrubbing:
                state = HEALTH_SCRUBBING
            replicas.append(
                {
                    "index": index,
                    "root": replica.root,
                    "state": state,
                }
            )
        scrub_status = self.last_scrub()
        return {
            "replicated": True,
            "replication_factor": self.replica_count,
            "write_quorum": self.write_quorum,
            "read_only": self.read_only,
            "repairs": self.repairs,
            "replicas": replicas,
            "last_scrub": (
                scrub_status.get("last_scrub") if scrub_status else None
            ),
        }


def _first(targets: list[str | None]) -> str | None:
    """The first quarantine target of a per-replica quarantine."""
    return next(filter(None, targets), None)


def _unlink_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
