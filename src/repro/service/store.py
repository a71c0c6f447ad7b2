"""On-disk content-addressed artifact store.

Layout under the store root::

    objects/<hh>/<hash>/result.json    — job result document (stats, spec)
    objects/<hh>/<hash>/state.json     — serialized final-state DD
    objects/<hh>/<hash>/journal.jsonl  — run journal (rounds, ops, events)
    checkpoints/<hash>/latest.json     — most recent resume checkpoint
    quarantine/<kind>-<hash>-<n>/      — corrupt artifacts, moved aside
    serve/ownership.jsonl              — append-only job ownership log
    serve/leases/<hash>.json           — ownership lease (epoch fencing)

``<hash>`` is :meth:`repro.service.jobs.JobSpec.content_hash` and
``<hh>`` its first two hex digits (keeps directory fan-out bounded).
Checkpoints live outside ``objects/`` because they are transient: a
completed job deletes its checkpoint, and ``gc`` removes checkpoints
whose result already exists (orphans of a crash after completion).

**Integrity protocol.**  A result object is written as one unit: every
file goes into a same-filesystem staging directory which is then
*renamed* into place — the object either exists completely or not at
all, so a crash between file writes can never leave a half-artifact
that reads as a cache hit.  ``result.json`` embeds an ``integrity``
block (SHA-256 of the state and journal bytes, CRC-32 of the document
itself).  Every read verifies by one rule: :meth:`load_result` checks
the CRC and requires the block, and :meth:`load_state` and
:meth:`read_journal` check their file's bytes against the SHA-256
recorded in that verified document — a file that is missing, present
without a recorded hash, short or edited is corrupt, and so is a state
that verifies but does not decode.  A failure raises
:class:`~repro.faults.errors.ArtifactIntegrityError`, which callers
handle by quarantining the object (move aside, keep for forensics) and
recomputing.

The store owns the checkpoint document: :meth:`save_checkpoint` takes a
:class:`~repro.service.checkpoint.Checkpoint` and encodes it once (one
JSON dump, SHA-256 embedded), and :meth:`load_checkpoint` verifies the
bytes on every read, returning a ``Checkpoint`` or raising
:class:`~repro.faults.errors.CheckpointIntegrityError` — for a torn or
corrupt file, a wrong format, a missing or failing checksum, and a
checkpoint recorded for another job alike.  Ownership leases work the
same way (:meth:`write_lease`, :meth:`read_lease`, ``LeaseIntegrityError``).

**Multi-reader/multi-writer safety.**  One store may back several
daemon shards at once (the serve cluster shares a store so results and
checkpoints are location-independent — any shard can resume any job).
The protocol already makes that mostly free: objects appear atomically
via rename, and last-writer-wins replacement keeps every reader on a
complete directory.  The remaining races are handled explicitly —
:meth:`load_checkpoint` treats a checkpoint that vanishes between the
existence check and the open as "no checkpoint" (a peer completed the
job and cleared it), and :meth:`_promote` retries its replace-swap when
a concurrent writer wins the rename race.  The ownership log
(:meth:`append_ownership`) is an O_APPEND JSONL file, safe for
concurrent appenders on POSIX.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import tempfile
import time
import zlib
from collections.abc import Iterator
from hashlib import sha256

from ..dd.package import Package
from ..dd.serialize import state_from_dict
from ..dd.vector import StateDD
from ..faults.errors import (
    ArtifactIntegrityError,
    LeaseIntegrityError,
    StaleLeaseError,
)
from ..faults.injector import inject
from ..obs import get_recorder
from .checkpoint import CHECKPOINT_DOCUMENT, Checkpoint, encode_checkpoint
from .codec import DocumentKind
from .lease import LEASE_DOCUMENT, Lease, LeaseManager

RESULT_FILE = "result.json"
STATE_FILE = "state.json"
JOURNAL_FILE = "journal.jsonl"
CHECKPOINT_FILE = "latest.json"

#: Key under which result documents carry their checksums.
INTEGRITY_KEY = "integrity"

#: The integrity-block key recording each sibling file's SHA-256.
_RECORDED_HASH = {STATE_FILE: "state_sha256", JOURNAL_FILE: "journal_sha256"}


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (same-directory temp file).

    The rename makes the write survive a killed process: readers see the
    old bytes or the new, never a torn file.  Nothing calls ``fsync``,
    so surviving an operating-system crash or a power loss is not
    promised (docs/SERVICE.md, "What a write survives").
    """
    directory = os.path.dirname(path)
    descriptor, temp_path = tempfile.mkstemp(
        dir=directory, prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def _result_text(document: dict) -> str:
    """The one serialization of ``result.json`` (written and verified)."""
    return json.dumps(document, sort_keys=True, indent=2)


def _doc_crc(document: dict) -> int:
    """CRC-32 over the canonical JSON form of ``document``."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode())


def _state_from(
    job_hash: str, raw: bytes | None, package: Package | None
) -> StateDD:
    """The state diagram of verified ``state.json`` bytes.

    Raises:
        KeyError: When the object has no state file (``raw`` is None).
        ArtifactIntegrityError: When the bytes do not decode.  They
            passed their recorded SHA-256, so the writer stored a state
            no decoder accepts: the object must be recomputed.
    """
    if raw is None:
        raise KeyError(f"no stored state for {job_hash}")
    try:
        return state_from_dict(json.loads(raw), package)
    except ValueError as error:
        raise ArtifactIntegrityError(
            f"{STATE_FILE} of {job_hash[:12]} does not decode: {error}"
        ) from error


def _journal_from(raw: bytes | None) -> list[dict]:
    """The rows of verified ``journal.jsonl`` bytes (None: no journal)."""
    return [] if raw is None else [json.loads(line) for line in raw.splitlines()]


class ArtifactStore:
    """Content-addressed persistence for job results and checkpoints.

    Args:
        root: Store directory (created on first write).
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(os.path.expanduser(root))

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def result_dir(self, job_hash: str) -> str:
        """Directory holding the artifacts of ``job_hash``."""
        return os.path.join(
            self.root, "objects", job_hash[:2], job_hash
        )

    def checkpoint_dir(self, job_hash: str) -> str:
        """Directory holding the checkpoint of ``job_hash``."""
        return os.path.join(self.root, "checkpoints", job_hash)

    def quarantine_root(self) -> str:
        """Directory corrupt artifacts are moved into."""
        return os.path.join(self.root, "quarantine")

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def has_result(self, job_hash: str) -> bool:
        """True when a completed result document exists for the hash."""
        return os.path.exists(
            os.path.join(self.result_dir(job_hash), RESULT_FILE)
        )

    def put_result(
        self,
        job_hash: str,
        result_doc: dict,
        state_doc: dict | None = None,
        journal_rows: list[dict] | None = None,
    ) -> str:
        """Persist a completed job's artifacts; returns the object dir.

        Every file is written into a staging directory which is renamed
        into place as the single terminal step, so a crash at any point
        leaves either the complete object or no object — never a
        half-artifact that :meth:`has_result` would treat as a cache
        hit.  The result document gains an ``integrity`` block covering
        the sibling files and itself.
        """
        directory = self.result_dir(job_hash)
        shard = os.path.dirname(directory)
        os.makedirs(shard, exist_ok=True)
        staging = tempfile.mkdtemp(
            dir=shard, prefix=f".staging-{job_hash[:8]}-"
        )
        try:
            integrity: dict = {}
            if state_doc is not None:
                state_text = json.dumps(state_doc)
                integrity["state_sha256"] = sha256(
                    state_text.encode()
                ).hexdigest()
                with open(
                    os.path.join(staging, STATE_FILE), "w", encoding="utf-8"
                ) as handle:
                    handle.write(state_text)
            # Named crash window: a fault plan can break the write here,
            # between the state file and the terminal marker.
            inject("store.put_result", job_hash=job_hash, path=staging)
            if journal_rows is not None:
                journal_text = "".join(
                    json.dumps(row, sort_keys=True) + "\n"
                    for row in journal_rows
                )
                integrity["journal_sha256"] = sha256(
                    journal_text.encode()
                ).hexdigest()
                with open(
                    os.path.join(staging, JOURNAL_FILE),
                    "w",
                    encoding="utf-8",
                ) as handle:
                    handle.write(journal_text)
            document = dict(result_doc)
            document.setdefault(  # wall-clock timestamp, not a duration
                "stored_at", time.time()  # ddlint: ignore[DD005]
            )
            document.pop(INTEGRITY_KEY, None)
            integrity["doc_crc32"] = _doc_crc(
                {**document, INTEGRITY_KEY: integrity}
            )
            document[INTEGRITY_KEY] = integrity
            with open(
                os.path.join(staging, RESULT_FILE), "w", encoding="utf-8"
            ) as handle:
                handle.write(_result_text(document))
            self._promote(staging, directory)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return directory

    @staticmethod
    def _promote(staging: str, final: str) -> None:
        """Rename the staging directory into place (the terminal step)."""
        backup = staging + ".replaced"
        for _attempt in range(8):
            try:
                os.rename(staging, final)
                return
            except OSError:
                if not os.path.isdir(final):
                    raise
            # The object already exists (a concurrent writer won, or
            # this is an explicit recompute): swap the old object out,
            # then discard it — last writer wins, and readers always
            # see a complete dir.  With several shards completing the
            # same hash at once the old object can vanish between our
            # check and the swap; that just reopens the fast path, so
            # loop rather than fail.
            try:
                os.rename(final, backup)
            except FileNotFoundError:
                continue
            os.rename(staging, final)
            shutil.rmtree(backup, ignore_errors=True)
            return
        raise RuntimeError(  # pragma: no cover - pathological contention
            f"could not promote {staging!r}: rename race persisted"
        )

    def load_result(self, job_hash: str) -> dict:
        """Load a result document, verifying its integrity block.

        The CRC covers the parsed values, so the file must also be the
        writer's one dump of them, byte for byte: an edit that parses to
        the same values (``e-05`` read as ``E-05``) still fails.

        Raises:
            KeyError: When no result exists for the hash.
            ArtifactIntegrityError: When the document is unparsable, has
                no integrity block, fails its CRC or is not the writer's
                dump of itself (callers should quarantine + recompute).
        """
        path = os.path.join(self.result_dir(job_hash), RESULT_FILE)
        if not os.path.exists(path):
            raise KeyError(f"no stored result for {job_hash}")
        inject("store.load_result", job_hash=job_hash, path=path)
        with open(path, "rb") as handle:
            raw = handle.read()
            try:
                document = json.loads(raw)
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise ArtifactIntegrityError(
                    f"result document for {job_hash[:12]} is not valid "
                    f"JSON: {error}",
                    path=path,
                ) from error
        integrity = (
            document.get(INTEGRITY_KEY) if isinstance(document, dict) else None
        )
        if not isinstance(integrity, dict) or "doc_crc32" not in integrity:
            raise ArtifactIntegrityError(
                f"result document for {job_hash[:12]} has no integrity "
                f"block",
                path=path,
            )
        covered = {k: v for k, v in integrity.items() if k != "doc_crc32"}
        expected = integrity["doc_crc32"]
        actual = _doc_crc({**document, INTEGRITY_KEY: covered})
        if actual != expected:
            raise ArtifactIntegrityError(
                f"result document for {job_hash[:12]} fails its "
                f"CRC-32 (stored {expected}, computed {actual})",
                path=path,
            )
        if raw != _result_text(document).encode():
            raise ArtifactIntegrityError(
                f"result document for {job_hash[:12]} differs from the "
                "writer's dump of its own values",
                path=path,
            )
        return document

    def _checked_bytes(
        self, job_hash: str, document: dict, name: str
    ) -> bytes | None:
        """The bytes of a result object's state or journal file.

        ``document`` is the object's verified result document; the file
        must match the SHA-256 it records.  Returns None when the object
        has no such file and records none.

        Raises:
            ArtifactIntegrityError: When the file is missing, has no
                recorded hash, or fails its SHA-256 check.
        """
        expected = document[INTEGRITY_KEY].get(_RECORDED_HASH[name])
        path = os.path.join(self.result_dir(job_hash), name)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            if expected is None:
                return None
            raise ArtifactIntegrityError(
                f"{name} of {job_hash[:12]} is missing", path=path
            ) from None
        if expected is None:
            raise ArtifactIntegrityError(
                f"{name} of {job_hash[:12]} has no recorded SHA-256",
                path=path,
            )
        if sha256(raw).hexdigest() != expected:
            raise ArtifactIntegrityError(
                f"{name} of {job_hash[:12]} fails its SHA-256 check",
                path=path,
            )
        return raw

    def load_state(
        self, job_hash: str, package: Package | None = None
    ) -> StateDD:
        """Rehydrate the stored final-state diagram of a job.

        The file bytes are verified against the SHA-256 the result
        document records before deserialization.

        Raises:
            KeyError: When the job has no stored result or no state.
            ArtifactIntegrityError: When the result document or the
                state file fails verification, or the state does not
                decode.
        """
        document = self.load_result(job_hash)
        return _state_from(
            job_hash, self._checked_bytes(job_hash, document, STATE_FILE), package
        )

    def read_journal(self, job_hash: str) -> list[dict]:
        """Read the run journal rows (empty list when the job has none).

        The file bytes are verified against the SHA-256 the result
        document records.  :meth:`put_result` writes the journal whole,
        so a short or edited journal is damage, never an interrupted
        append.

        Raises:
            KeyError: When the job has no stored result.
            ArtifactIntegrityError: When the result document or the
                journal fails verification.
        """
        document = self.load_result(job_hash)
        return _journal_from(self._checked_bytes(job_hash, document, JOURNAL_FILE))

    def _result_hashes(self) -> list[str]:
        """The job hashes with an object directory, verified or not."""
        objects = os.path.join(self.root, "objects")
        if not os.path.isdir(objects):
            return []
        return sorted(
            job_hash
            for shard in os.listdir(objects)
            if os.path.isdir(os.path.join(objects, shard))
            for job_hash in os.listdir(os.path.join(objects, shard))
            if not job_hash.startswith(".")  # a crashed writer's staging
        )

    def iter_results(self) -> Iterator[tuple[str, dict]]:
        """Yield ``(job_hash, result_doc)`` for every stored result."""
        for job_hash in self._result_hashes():
            try:
                yield job_hash, self.load_result(job_hash)
            except (KeyError, ArtifactIntegrityError):
                continue

    def resolve_prefix(self, prefix: str) -> str:
        """Expand a unique hash prefix to the full hash.

        Matches every stored object, verified or not, so a damaged
        result resolves and its read reports the damage.

        Raises:
            KeyError: When the prefix matches zero or several results.
        """
        matches = [
            job_hash
            for job_hash in self._result_hashes()
            if job_hash.startswith(prefix)
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise KeyError(f"no stored result matches {prefix!r}")
        raise KeyError(
            f"ambiguous prefix {prefix!r} ({len(matches)} matches)"
        )

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def save_checkpoint(
        self,
        job_hash: str,
        checkpoint: Checkpoint,
        fence: dict | None = None,
    ) -> str:
        """Atomically persist the latest checkpoint of a job.

        Args:
            fence: Optional ``{"owner": str, "epoch": int}`` token from
                the writer's ownership lease.  When the job's current
                lease records a higher epoch the write is rejected with
                :class:`~repro.faults.errors.StaleLeaseError` — a
                recovered ex-owner cannot clobber the new owner's
                checkpoint, no matter what the router believes.
        """
        self._check_fence(job_hash, fence)
        return self._write_checkpoint(job_hash, encode_checkpoint(checkpoint))

    def _write_checkpoint(self, job_hash: str, text: str) -> str:
        """Atomically replace the checkpoint file with encoded ``text``."""
        directory = self.checkpoint_dir(job_hash)
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, CHECKPOINT_FILE)
        _atomic_write(path, text)
        # Post-write window: corrupt/truncate rules damage the file
        # here, exercising the verify-on-load + quarantine path.
        inject("store.save_checkpoint", job_hash=job_hash, path=path)
        return path

    def load_checkpoint(self, job_hash: str) -> Checkpoint | None:
        """Load and verify the latest checkpoint, or None when there is none.

        Raises:
            CheckpointIntegrityError: When the checkpoint file exists
                but does not verify — unreadable, truncated, corrupted,
                missing its checksum, or recorded for another job
                (:meth:`~repro.service.codec.DocumentKind.decode`).
                Callers should quarantine it and start fresh.
        """
        path = os.path.join(self.checkpoint_dir(job_hash), CHECKPOINT_FILE)
        if not os.path.exists(path):
            return None
        inject("store.load_checkpoint", job_hash=job_hash, path=path)
        return self._load_document(CHECKPOINT_DOCUMENT, job_hash, path)

    @staticmethod
    def _load_document(kind: DocumentKind, job_hash: str, path: str):
        """Read and verify one checkpoint or lease file; None if absent.

        A file that vanishes before the open is absent, not corrupt: a
        peer shard completed the job and cleared its checkpoint.
        """
        try:
            with open(path, "rb") as handle:
                return kind.decode(handle.read(), job_hash, path)
        except FileNotFoundError:
            return None
        except OSError as error:
            raise kind.rejected(
                job_hash, path, f"is unreadable: {error}"
            ) from error

    def clear_checkpoint(
        self, job_hash: str, fence: dict | None = None
    ) -> None:
        """Delete a job's checkpoint directory (idempotent).

        Accepts the same ``fence`` token as :meth:`save_checkpoint`: a
        fenced-out ex-owner must not delete the checkpoint the new
        owner is resuming from.
        """
        self._check_fence(job_hash, fence)
        shutil.rmtree(self.checkpoint_dir(job_hash), ignore_errors=True)

    def iter_checkpoints(self) -> Iterator[str]:
        """Yield the job hashes that currently have a checkpoint."""
        directory = os.path.join(self.root, "checkpoints")
        if not os.path.isdir(directory):
            return
        for job_hash in sorted(os.listdir(directory)):
            if os.path.exists(
                os.path.join(directory, job_hash, CHECKPOINT_FILE)
            ):
                yield job_hash

    # ------------------------------------------------------------------
    # Ownership log
    # ------------------------------------------------------------------

    def ownership_log_path(self) -> str:
        """The append-only job ownership log shared by the serve tier."""
        return os.path.join(self.root, "serve", "ownership.jsonl")

    def append_ownership(self, entry: dict) -> None:
        """Append one ownership event to the shared log.

        The cluster router records ``assigned`` / ``readmitted`` /
        ``stolen`` events here so ``jobs ls`` can show which shard owns
        a job and how it moved during failover.  The write is a single
        ``O_APPEND`` of one line, which POSIX keeps atomic across
        concurrent appenders — no lock needed, and a torn tail (crash
        mid-append) is tolerated by :meth:`read_ownership_log`.
        """
        path = self.ownership_log_path()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        line = json.dumps(entry, sort_keys=True) + "\n"
        descriptor = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(descriptor, line.encode("utf-8"))
        finally:
            os.close(descriptor)

    def read_ownership_log(self, job_hash: str | None = None) -> list[dict]:
        """Read ownership events, oldest first.

        Args:
            job_hash: When given, only events whose ``job_hash`` field
                matches (exactly, or by this prefix).

        A torn tail line — the only damage an interrupted append can
        cause — is silently dropped; the log is advisory history, not
        an integrity-checked artifact.
        """
        path = self.ownership_log_path()
        if not os.path.exists(path):
            return []
        events: list[dict] = []
        with open(path, "rb") as handle:
            for raw in handle.readlines():
                try:
                    row = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    continue  # torn tail of a crashed appender
                if not isinstance(row, dict):
                    continue
                if job_hash is not None:
                    recorded = str(row.get("job_hash", ""))
                    if not recorded.startswith(job_hash):
                        continue
                events.append(row)
        return events

    # ------------------------------------------------------------------
    # Ownership leases
    # ------------------------------------------------------------------

    def lease_path(self, job_hash: str) -> str:
        """The lease document of one job."""
        return os.path.join(
            self.root, "serve", "leases", f"{job_hash}.json"
        )

    def read_lease(self, job_hash: str) -> Lease | None:
        """Load and verify a job's ownership lease, or None when there is none.

        Raises:
            LeaseIntegrityError: When the lease file exists but does not
                verify (damaged, unchecksummed or stale);
                :meth:`LeaseManager.current` quarantines it.
        """
        return self._load_document(
            LEASE_DOCUMENT, job_hash, self.lease_path(job_hash)
        )

    def write_lease(self, lease: Lease) -> str:
        """Atomically persist a job's ownership lease."""
        path = self.lease_path(lease.job_hash)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _atomic_write(path, LEASE_DOCUMENT.encode(lease))
        return path

    def _lease_hashes(self) -> list[str]:
        """The job hashes that have a lease file, verified or not."""
        directory = os.path.join(self.root, "serve", "leases")
        if not os.path.isdir(directory):
            return []
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(directory)
            if name.endswith(".json") and not name.startswith(".")
        )

    def iter_leases(self) -> Iterator[Lease]:
        """Yield every recorded lease that verifies."""
        for job_hash in self._lease_hashes():
            try:
                lease = self.read_lease(job_hash)
            except LeaseIntegrityError:
                continue
            if lease is not None:
                yield lease

    def _check_fence(self, job_hash: str, fence: dict | None) -> None:
        """Reject a fenced write unless it holds the current lease.

        The comparison happens at the store layer so the guarantee
        survives router failover bugs.  A fence passes only when it
        names the recorded lease's exact owner and epoch, the rule
        :meth:`LeaseManager.renew` applies: a lease lost and claimed
        afresh restarts at epoch 1, so "no older than the lease" would
        let an ex-owner's higher-epoch token through.
        """
        if fence is None:
            return
        lease = LeaseManager(self).current(job_hash)
        if lease is None:
            return  # unleased job (or lease lost): nothing to fence
        fence_epoch = int(fence.get("epoch", 0))
        if lease.epoch != fence_epoch or lease.owner != str(fence.get("owner", "")):
            raise StaleLeaseError(
                f"checkpoint write for {job_hash[:12]} fenced: lease "
                f"epoch {lease.epoch} (owner {lease.owner!r}) is not the "
                f"writer's epoch {fence_epoch} (owner {fence.get('owner')!r})",
                job_hash=job_hash,
                fence_epoch=fence_epoch,
                lease_epoch=lease.epoch,
            )

    # ------------------------------------------------------------------
    # Parked job queues (drained/orphaned serve-tier state)
    # ------------------------------------------------------------------

    def parked_jobs_path(self, name: str) -> str:
        """The parked-jobs document ``name`` (a serve-tier queue dump)."""
        return os.path.join(self.root, "serve", f"{name}.json")

    def park_jobs(self, name: str, payload: list[dict]) -> str:
        """Atomically persist a serve-tier queue dump under ``name``.

        The daemon and router park undispatched jobs here on drain and
        restore them on restart.  Routing the write through the store
        (instead of an ad-hoc ``open()`` on ``<root>/serve/``) keeps
        the dump subject to the store's replication policy — a parked
        queue that only exists on a lost replica is a lost job.
        """
        path = self.parked_jobs_path(name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _atomic_write(
            path, json.dumps(payload, indent=2, sort_keys=True)
        )
        return path

    def take_parked_jobs(self, name: str) -> list[dict]:
        """Read and remove the parked-jobs document ``name``.

        Returns an empty list when there is nothing parked.  Unparsable
        dumps read as empty (the jobs are already lost; crashing the
        restoring daemon would not bring them back).
        """
        path = self.parked_jobs_path(name)
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return []
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            payload = []
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        if not isinstance(payload, list):
            return []
        return [row for row in payload if isinstance(row, dict)]

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------

    def _quarantine(self, source: str, label: str, reason: str) -> str | None:
        """Move ``source`` into the quarantine area; returns the new path."""
        if not os.path.exists(source):
            return None
        root = self.quarantine_root()
        os.makedirs(root, exist_ok=True)
        for attempt in range(1000):
            target = os.path.join(root, f"{label}-{attempt}")
            if not os.path.exists(target):
                break
        else:  # pragma: no cover - 1000 quarantined copies of one artifact
            raise RuntimeError(f"quarantine area full for {label}")
        os.makedirs(target)
        os.rename(source, os.path.join(target, os.path.basename(source)))
        _atomic_write(
            os.path.join(target, "reason.json"),
            json.dumps(
                {
                    "reason": reason,
                    "source": source,
                    # Wall-clock timestamp for forensics, not a duration.
                    "quarantined_at": time.time(),  # ddlint: ignore[DD005]
                },
                indent=2,
                sort_keys=True,
            ),
        )
        obs = get_recorder()
        if obs.enabled:
            obs.count("store.quarantined")
            obs.event("quarantine", label=label, reason=reason)
        return target

    def quarantine_checkpoint(
        self, job_hash: str, reason: str
    ) -> str | None:
        """Move a corrupt checkpoint aside instead of crashing on it.

        Returns the quarantine directory, or None when the job had no
        checkpoint to move.
        """
        return self._quarantine(
            self.checkpoint_dir(job_hash),
            f"checkpoint-{job_hash[:12]}",
            reason,
        )

    def quarantine_lease(self, job_hash: str, reason: str) -> str | None:
        """Move a lease that does not verify aside (it then reads as absent)."""
        return self._quarantine(
            self.lease_path(job_hash), f"lease-{job_hash[:12]}", reason
        )

    def quarantine_result(self, job_hash: str, reason: str) -> str | None:
        """Move a corrupt result object aside so it stops serving reads."""
        return self._quarantine(
            self.result_dir(job_hash), f"result-{job_hash[:12]}", reason
        )

    def iter_quarantined(self) -> Iterator[str]:
        """Yield the quarantine entry directory names, sorted."""
        root = self.quarantine_root()
        if not os.path.isdir(root):
            return
        yield from sorted(os.listdir(root))

    def quarantine_report(self) -> list[dict]:
        """Describe every quarantine entry, surviving damaged metadata.

        Quarantining itself can be interrupted (a crash between the
        artifact move and the ``reason.json`` write) or the reason file
        can be damaged later; a listing must *report* that rather than
        crash.  Each returned dict has:

        * ``name`` — the entry directory name,
        * ``reason`` — the recorded reason, or ``None``,
        * ``quarantined_at`` — the recorded wall-clock time, or ``None``,
        * ``error`` — why the metadata was unreadable (``"missing
          reason.json"``, a parse error, ...), or ``None`` when intact.
        """
        report: list[dict] = []
        root = self.quarantine_root()
        for name in self.iter_quarantined():
            entry: dict = {
                "name": name,
                "reason": None,
                "quarantined_at": None,
                "error": None,
            }
            path = os.path.join(root, name, "reason.json")
            try:
                with open(path, encoding="utf-8") as handle:
                    document = json.load(handle)
            except FileNotFoundError:
                entry["error"] = "missing reason.json"
            except (
                OSError,
                UnicodeDecodeError,
                json.JSONDecodeError,
            ) as error:
                entry["error"] = (
                    f"unreadable reason.json: {type(error).__name__}: "
                    f"{error}"
                )
            else:
                if isinstance(document, dict):
                    reason = document.get("reason")
                    stamp = document.get("quarantined_at")
                    entry["reason"] = (
                        reason if isinstance(reason, str) else None
                    )
                    entry["quarantined_at"] = (
                        float(stamp)
                        if isinstance(stamp, (int, float))
                        else None
                    )
                else:
                    entry["error"] = (
                        "malformed reason.json: expected an object, got "
                        f"{type(document).__name__}"
                    )
            report.append(entry)
        return report

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
        """Collect garbage; returns counts of removed artifacts.

        Always removes checkpoints shadowed by a stored result (the job
        finished; the snapshot can never be resumed to a different
        answer), and reaps staging directories / atomic-write temp
        files older than ``staging_older_than_seconds`` (a put that
        crashed between staging and promote leaks its staging dir
        forever otherwise; the age threshold keeps a concurrent
        in-flight put safe — pass None to skip staging entirely).
        With ``remove_results`` also deletes result objects — all of
        them, or only those stored more than ``older_than_seconds``
        ago.  With ``remove_quarantine`` the quarantine area is purged
        too.
        """
        removed = {
            "checkpoints": 0, "results": 0, "quarantined": 0, "staging": 0,
        }
        for job_hash in list(self.iter_checkpoints()):
            if self.has_result(job_hash):
                self.clear_checkpoint(job_hash)
                removed["checkpoints"] += 1
        if staging_older_than_seconds is not None:
            removed["staging"] = self._reap_staging(
                staging_older_than_seconds
            )
        if remove_results:
            now = time.time()  # ddlint: ignore[DD005] - compared to stored_at
            for job_hash, document in list(self.iter_results()):
                age = now - float(document.get("stored_at", 0.0))
                if (
                    older_than_seconds is None
                    or age > older_than_seconds
                ):
                    shutil.rmtree(
                        self.result_dir(job_hash), ignore_errors=True
                    )
                    removed["results"] += 1
        if remove_quarantine:
            for entry in list(self.iter_quarantined()):
                shutil.rmtree(
                    os.path.join(self.quarantine_root(), entry),
                    ignore_errors=True,
                )
                removed["quarantined"] += 1
        return removed

    def _reap_staging(self, older_than_seconds: float) -> int:
        """Remove crash-leaked staging dirs and temp files by age.

        Scans the object shards for dot-entries (``.staging-*`` dirs,
        their ``.replaced`` backups) and the checkpoint dirs,
        ``serve/`` (parked queues) and ``serve/leases/`` for ``.tmp-*``
        atomic-write leftovers whose mtime is older than the
        threshold.  The age gate is what makes this safe against a
        *live* writer: an in-flight put's staging dir was created
        moments ago, so it never crosses a sane threshold.
        """
        reaped = 0
        now = time.time()  # ddlint: ignore[DD005] - compared to mtimes
        candidates = [
            path
            for pattern in (
                "objects/*/.*",
                "checkpoints/*/.tmp-*",
                "serve/.tmp-*",
                "serve/leases/.tmp-*",
            )
            for path in glob.glob(os.path.join(glob.escape(self.root), pattern))
        ]
        for path in candidates:
            try:
                age = now - os.stat(path).st_mtime
            except OSError:
                continue  # vanished (a concurrent gc or promote)
            if age <= older_than_seconds:
                continue
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            else:
                try:
                    os.unlink(path)
                except OSError:
                    continue
            reaped += 1
        return reaped
