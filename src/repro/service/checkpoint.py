"""Mid-run snapshots: serialize, persist, and rehydrate partial work.

A checkpoint captures everything needed to continue an interrupted
simulation as if it had never stopped:

* the state diagram after the last applied operation (serialized in the
  :mod:`repro.dd.serialize` format),
* the index of the first operation *not yet* applied,
* the approximation rounds already performed, and
* bookkeeping (max diagram size so far, elapsed seconds).

Resuming is *sound* — not merely convenient — because of Lemma 1: the
end-to-end fidelity estimate is the product of per-round fidelities, so
rounds performed before the interruption compose multiplicatively with
rounds the resumed run adds.  The resumed run seeds its statistics with
the recorded rounds and its strategy with the spent budget
(:meth:`repro.core.strategies.ApproximationStrategy.resume`), so round
placement, budgets, and the fidelity guarantee all match the
uninterrupted run.  One caveat: the complex table's tolerance-bucketed
canonicalization accumulates different representatives in a fresh
process, so a later round whose greedy selection sits exactly on the
budget boundary can admit a marginally different node set — the realized
fidelity may then differ at that round's boundary while still obeying
the same ``f >= f_round`` bound.

**Stored form.**  The artifact store is the only caller of
:func:`encode_checkpoint` and :func:`decode_checkpoint`: it takes and
returns :class:`Checkpoint` objects, never documents.  The encoding is
one sorted compact JSON dump with a SHA-256 over those bytes, and every
read verifies it — a document that is unreadable, mistyped, missing its
checksum, failing it, or recorded for another job raises
:class:`~repro.faults.errors.CheckpointIntegrityError`, so a damaged
copy can never be resumed from or replicated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from collections.abc import Sequence
from hashlib import sha256
from typing import TYPE_CHECKING

from ..core.simulator import RoundRecord, SimulationStats, SimulationTimeout
from ..dd.serialize import state_to_dict
from ..dd.vector import StateDD
from ..faults.errors import CheckpointIntegrityError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .store import ArtifactStore

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 1

#: Document key carrying the SHA-256 over the rest of the document.
CHECKSUM_KEY = "checksum"

#: Payload fields and the JSON types a valid document gives them.
_FIELD_TYPES: dict[str, type | tuple[type, ...]] = {
    "job_hash": str,
    "next_op_index": int,
    "state": dict,
    "rounds": list,
    "max_nodes": int,
    "elapsed_seconds": (int, float),
}


def rounds_to_dicts(rounds: Sequence[RoundRecord]) -> list[dict]:
    """Serialize round records to JSON-compatible dictionaries."""
    return [
        {
            "op_index": record.op_index,
            "nodes_before": record.nodes_before,
            "nodes_after": record.nodes_after,
            "requested_fidelity": record.requested_fidelity,
            "achieved_fidelity": record.achieved_fidelity,
            "removed_contribution": record.removed_contribution,
            "removed_nodes": record.removed_nodes,
            "emergency": record.emergency,
        }
        for record in rounds
    ]


def rounds_from_dicts(rows: Sequence[dict]) -> list[RoundRecord]:
    """Rebuild round records from their serialized form."""
    return [RoundRecord(**row) for row in rows]


@dataclass(frozen=True)
class Checkpoint:
    """One resumable snapshot of a partially simulated job.

    Attributes:
        job_hash: Content hash of the owning :class:`JobSpec`.
        next_op_index: First operation index not yet applied.
        state: Serialized state diagram after ``next_op_index`` ops.
        rounds: Approximation rounds performed so far (serialized).
        max_nodes: Maximum diagram size observed so far.
        elapsed_seconds: Simulation time consumed so far (across all
            previous attempts).
    """

    job_hash: str
    next_op_index: int
    state: dict
    rounds: list[dict]
    max_nodes: int
    elapsed_seconds: float

    def round_records(self) -> list[RoundRecord]:
        """The completed rounds as live :class:`RoundRecord` objects."""
        return rounds_from_dicts(self.rounds)


def encode_checkpoint(checkpoint: Checkpoint) -> str:
    """The stored form of ``checkpoint``: one dump, checksum spliced in.

    The payload is dumped once as sorted compact JSON, the SHA-256 is
    taken over those bytes, and ``{"checksum":"<hex>",`` replaces the
    opening brace.  ``checksum`` sorts before every payload key, so the
    text is also the sorted compact JSON of the whole document.
    """
    canonical = json.dumps(
        {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            **vars(checkpoint),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = sha256(canonical.encode()).hexdigest()
    return f'{{"{CHECKSUM_KEY}":"{digest}",{canonical[1:]}'


def decode_checkpoint(raw: bytes, job_hash: str, path: str) -> Checkpoint:
    """Verify the stored bytes of ``job_hash``'s checkpoint and rebuild it.

    The checksum is the SHA-256 of the sorted compact JSON of every
    other key, so documents of any ``repro-checkpoint`` v1 writer
    verify, whatever their key order or whitespace.

    Raises:
        CheckpointIntegrityError: When the bytes are not JSON, the
            format or version is wrong, the checksum is missing or does
            not match, a field is missing or mistyped, or the document
            was recorded for another job (a *stale* checkpoint).
    """

    def rejected(problem: str) -> CheckpointIntegrityError:
        return CheckpointIntegrityError(
            f"checkpoint for {job_hash[:12]} {problem}", path=path
        )

    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise rejected(f"is unreadable: {error}") from error
    if (
        not isinstance(document, dict)
        or document.get("format") != CHECKPOINT_FORMAT
    ):
        raise rejected(f"is not a {CHECKPOINT_FORMAT} document")
    if document.get("version") != CHECKPOINT_VERSION:
        raise rejected(f"has unsupported version {document.get('version')!r}")
    recorded = document.pop(CHECKSUM_KEY, None)
    if recorded is None:
        raise rejected("carries no checksum")
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    if recorded != sha256(canonical.encode()).hexdigest():
        raise rejected("fails its embedded SHA-256 check")
    for name, kind in _FIELD_TYPES.items():
        if not isinstance(document.get(name), kind):
            raise rejected(f"has a missing or mistyped {name!r}")
    if document["job_hash"] != job_hash:
        raise rejected(
            f"is stale: recorded for job {document['job_hash'][:12]}"
        )
    return Checkpoint(
        job_hash=job_hash,
        next_op_index=document["next_op_index"],
        state=document["state"],
        rounds=document["rounds"],
        max_nodes=document["max_nodes"],
        elapsed_seconds=float(document["elapsed_seconds"]),
    )


def checkpoint_from_timeout(
    job_hash: str,
    timeout: SimulationTimeout,
    prior_elapsed: float = 0.0,
    prior_max_nodes: int = 0,
) -> Checkpoint | None:
    """Build a checkpoint from a :class:`SimulationTimeout`, if possible.

    Returns None when the timeout carries no partial state (e.g. raised
    by the matrix–matrix paradigm, which has no resumable state vector).
    """
    if timeout.partial_state is None or timeout.op_index is None:
        return None
    stats = timeout.stats
    return Checkpoint(
        job_hash=job_hash,
        next_op_index=timeout.op_index,
        state=timeout.partial_state,
        rounds=rounds_to_dicts(stats.rounds),
        max_nodes=max(prior_max_nodes, stats.max_nodes),
        elapsed_seconds=prior_elapsed + stats.runtime_seconds,
    )


class CheckpointWriter:
    """Simulator checkpoint callback that persists snapshots to a store.

    Designed to be handed to :meth:`repro.core.simulator.DDSimulator.run`
    as ``checkpoint_callback``; each invocation serializes the current
    state and atomically replaces the job's latest checkpoint.

    Args:
        store: Target artifact store.
        job_hash: Content hash of the job being executed.
        prior_elapsed: Seconds consumed by earlier (interrupted)
            attempts, added to the recorded elapsed time.
        prior_max_nodes: Peak diagram size observed by earlier attempts,
            folded into the recorded maximum so the stat stays
            cumulative across interruptions.
        fence: Ownership-lease token (``{"owner", "epoch"}``) carried
            by every checkpoint write; the store rejects stale-epoch
            writers (:class:`~repro.faults.errors.StaleLeaseError`).
    """

    def __init__(
        self,
        store: "ArtifactStore",
        job_hash: str,
        prior_elapsed: float = 0.0,
        prior_max_nodes: int = 0,
        fence: dict | None = None,
    ):
        self.store = store
        self.job_hash = job_hash
        self.prior_elapsed = prior_elapsed
        self.prior_max_nodes = prior_max_nodes
        self.fence = fence
        self.writes = 0

    def __call__(
        self, state: StateDD, next_op_index: int, stats: SimulationStats
    ) -> None:
        """Persist the current simulation frontier as the checkpoint."""
        checkpoint = Checkpoint(
            job_hash=self.job_hash,
            next_op_index=next_op_index,
            state=state_to_dict(state),
            rounds=rounds_to_dicts(stats.rounds),
            max_nodes=max(self.prior_max_nodes, stats.max_nodes),
            elapsed_seconds=self.prior_elapsed + stats.runtime_seconds,
        )
        self.store.save_checkpoint(
            self.job_hash, checkpoint, fence=self.fence
        )
        self.writes += 1
