"""Mid-run snapshots: serialize, persist, and rehydrate partial work.

A checkpoint is the stored form of a
:class:`~repro.core.simulator.ResumePoint`, everything needed to
continue an interrupted simulation as if it had never stopped:

* the state diagram after the last applied operation (serialized in the
  :mod:`repro.dd.serialize` format),
* the index of the first operation *not yet* applied,
* the statistics so far, cumulative across attempts: the approximation
  rounds already performed, the maximum diagram size and the elapsed
  seconds, and
* the schedule: the strategy's scheduling fields
  (:meth:`repro.core.strategies.ApproximationStrategy.schedule`) and the
  memory watchdog's rescue count and floor.

Resuming is *sound* — not merely convenient — because of Lemma 1: the
end-to-end fidelity estimate is the product of per-round fidelities, so
rounds performed before the interruption compose multiplicatively with
rounds the resumed run adds.  The resumed run continues the recorded
rounds and restores the schedule, so it places the rounds the
uninterrupted run would, with the same budgets.

Every checkpoint — periodic, or the one a stopped run leaves — is
written by :class:`CheckpointWriter` from the resume point the
simulator hands it.  Resuming from that resume point in the same
package is bit-exact.  The stored state decodes verbatim too
(:meth:`Checkpoint.resume_point`): every node is interned with its
stored weights, so the resumed run starts from the very diagram the
checkpoint was written from.  What a fresh package still lacks is the
history of its tables: the ``vadd`` cache buckets the weight ratio and
the unique table keeps the first-seen weights of a bucket, so a later
operation can land a few ulps away from the uninterrupted run, and a
round whose greedy selection sits on the budget boundary can then admit
a marginally different node set — the realized fidelity may differ in
its last bits while still obeying the same ``f >= f_round`` bound.

**Stored form.**  The artifact store is the only user of
:data:`CHECKPOINT_DOCUMENT`: it takes and returns :class:`Checkpoint`
objects, never documents.  The encoding is the :mod:`repro.service.codec`
one shared with leases — one sorted compact JSON dump with a SHA-256
over those bytes — and every read verifies it: a document that is
unreadable, mistyped, missing its checksum, failing it, or recorded for
another job raises :class:`~repro.faults.errors.CheckpointIntegrityError`,
so a damaged copy can never be resumed from or replicated.  A checkpoint
that verifies but whose state does not decode raises the same error
from :meth:`Checkpoint.resume_point`.  A version 1 document, written
before the schedule was stored, fails the version check like any other
damage; the engine then restarts the job from scratch.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.simulator import ResumePoint, RoundRecord, SimulationStats
from ..dd.package import Package
from ..dd.serialize import state_from_dict, state_to_dict
from ..faults.errors import CheckpointIntegrityError
from .codec import DocumentKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .store import ArtifactStore

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 2


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
        schedule: The resume point's schedule (strategy fields plus the
            watchdog's ``rescues`` and ``rescue_floor``).
    """

    job_hash: str
    next_op_index: int
    state: dict
    rounds: list[dict]
    max_nodes: int
    elapsed_seconds: float
    schedule: dict

    def resume_point(self, package: Package) -> ResumePoint:
        """The stored resume point, its state decoded verbatim into
        ``package``.

        Raises:
            CheckpointIntegrityError: When the state does not decode.
                The checkpoint passed its checksum, so its writer stored
                a state no decoder accepts and no attempt could ever
                resume from it.
        """
        try:
            state = state_from_dict(self.state, package)
        except ValueError as error:
            raise CheckpointIntegrityError(
                f"checkpoint for {self.job_hash[:12]} holds a state that "
                f"does not decode: {error}"
            ) from error
        # A resumed run reads only the cumulative fields of the stats.
        stats = SimulationStats(
            circuit_name="",
            strategy="",
            num_qubits=state.num_qubits,
            num_operations=0,
            max_nodes=self.max_nodes,
            rounds=rounds_from_dicts(self.rounds),
            runtime_seconds=self.elapsed_seconds,
        )
        return ResumePoint(state, self.next_op_index, stats, self.schedule)


#: The checksummed ``repro-checkpoint`` document (stored form).
CHECKPOINT_DOCUMENT = DocumentKind(
    value_type=Checkpoint,
    format=CHECKPOINT_FORMAT,
    version=CHECKPOINT_VERSION,
    fields={
        "job_hash": str,
        "next_op_index": int,
        "state": dict,
        "rounds": list,
        "max_nodes": int,
        "elapsed_seconds": (int, float),
        "schedule": dict,
    },
    error=CheckpointIntegrityError,
)

#: The stored text of a checkpoint (:meth:`DocumentKind.encode`).
encode_checkpoint = CHECKPOINT_DOCUMENT.encode


class CheckpointWriter:
    """Simulator checkpoint callback that persists snapshots to a store.

    Designed to be handed to :meth:`repro.core.simulator.DDSimulator.run`
    as ``checkpoint_callback``, and called once more by the engine with
    a stopped run's :class:`~repro.core.simulator.ResumePoint`; each
    invocation serializes the point and atomically replaces the job's
    latest checkpoint.

    Args:
        store: Target artifact store.
        job_hash: Content hash of the job being executed.
        fence: Ownership-lease token (``{"owner", "epoch"}``) carried
            by every checkpoint write; the store rejects stale-epoch
            writers (:class:`~repro.faults.errors.StaleLeaseError`).
    """

    def __init__(
        self,
        store: "ArtifactStore",
        job_hash: str,
        fence: dict | None = None,
    ):
        self.store = store
        self.job_hash = job_hash
        self.fence = fence
        self.writes = 0

    def __call__(self, point: ResumePoint) -> None:
        """Persist ``point`` as the job's checkpoint."""
        checkpoint = Checkpoint(
            job_hash=self.job_hash,
            next_op_index=point.op_index,
            state=state_to_dict(point.state),
            rounds=rounds_to_dicts(point.stats.rounds),
            max_nodes=point.stats.max_nodes,
            elapsed_seconds=point.stats.runtime_seconds,
            schedule=point.schedule,
        )
        self.store.save_checkpoint(
            self.job_hash, checkpoint, fence=self.fence
        )
        self.writes += 1
