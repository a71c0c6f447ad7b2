"""Tests for checkpoint serialization and the simulator callback."""

from __future__ import annotations

import json
import os

import pytest

from repro.circuits.qft import qft_circuit
from repro.core.simulator import (
    CancellationToken,
    DDSimulator,
    RoundRecord,
)
from repro.dd.package import Package
from repro.dd.serialize import state_to_dict
from repro.dd.vector import StateDD
from repro.faults.errors import CheckpointIntegrityError
from repro.service.checkpoint import (
    Checkpoint,
    CheckpointWriter,
    encode_checkpoint,
    rounds_from_dicts,
    rounds_to_dicts,
)
from repro.service.engine import execute_job
from repro.service.jobs import JobSpec
from repro.service.store import CHECKPOINT_FILE, ArtifactStore
from tests.helpers import CountingClock, make_checkpoint

JOB_HASH = "ff" + "0" * 62


def _round(op_index: int = 3) -> RoundRecord:
    return RoundRecord(
        op_index=op_index,
        nodes_before=100,
        nodes_after=60,
        requested_fidelity=0.9,
        achieved_fidelity=0.93,
        removed_contribution=0.05,
        removed_nodes=40,
    )


class TestRoundsSerialization:
    def test_round_trip(self):
        records = [_round(3), _round(9)]
        assert rounds_from_dicts(rounds_to_dicts(records)) == records


def _plant(store: ArtifactStore, job_hash: str, text: str) -> None:
    """Write ``text`` as ``job_hash``'s checkpoint file, bypassing encode."""
    directory = store.checkpoint_dir(job_hash)
    os.makedirs(directory, exist_ok=True)
    with open(
        os.path.join(directory, CHECKPOINT_FILE), "w", encoding="utf-8"
    ) as handle:
        handle.write(text)


class TestCheckpointDocument:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        schedule = {"threshold": 16.0, "rescues": 1, "rescue_floor": 40}
        checkpoint = Checkpoint(
            job_hash=JOB_HASH,
            next_op_index=7,
            state=state_to_dict(StateDD.plus_state(2, Package())),
            rounds=rounds_to_dicts([_round()]),
            max_nodes=123,
            elapsed_seconds=1.5,
            schedule=schedule,
        )
        store.save_checkpoint(JOB_HASH, checkpoint)
        clone = store.load_checkpoint(JOB_HASH)
        assert clone == checkpoint
        point = clone.resume_point(Package())
        assert (point.op_index, point.schedule) == (7, schedule)
        assert point.stats.rounds == [_round()]
        assert (point.stats.max_nodes, point.stats.runtime_seconds) == (123, 1.5)
        assert point.state.num_qubits == 2

    def test_encoding_is_one_sorted_compact_dump(self):
        checkpoint = Checkpoint(
            JOB_HASH, 7, {"b": 1, "a": [0.5]}, [], 3, 1.5, {"rescues": 0}
        )
        text = encode_checkpoint(checkpoint)
        document = json.loads(text)
        assert text == json.dumps(
            document, sort_keys=True, separators=(",", ":")
        )
        assert text.startswith('{"checksum":"')

    def test_rejects_wrong_format(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        _plant(store, JOB_HASH, json.dumps({"format": "something-else"}))
        with pytest.raises(CheckpointIntegrityError, match="not a"):
            store.load_checkpoint(JOB_HASH)

    def test_rejects_wrong_version(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        document = json.loads(
            encode_checkpoint(make_checkpoint(JOB_HASH, 0))
        )
        document["version"] = 99
        _plant(store, JOB_HASH, json.dumps(document))
        with pytest.raises(CheckpointIntegrityError, match="version 99"):
            store.load_checkpoint(JOB_HASH)

    def test_rejects_a_mistyped_field_under_a_valid_checksum(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        mistyped = Checkpoint(
            JOB_HASH, "7", {}, [], 0, 0.0, {}  # type: ignore[arg-type]
        )
        store.save_checkpoint(JOB_HASH, mistyped)
        with pytest.raises(CheckpointIntegrityError, match="next_op_index"):
            store.load_checkpoint(JOB_HASH)

    def test_rejects_a_checkpoint_recorded_for_another_job(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        other = "ee" + "1" * 62
        store.save_checkpoint(JOB_HASH, make_checkpoint(other, 3))
        with pytest.raises(CheckpointIntegrityError, match="stale"):
            store.load_checkpoint(JOB_HASH)


class TestStopCheckpoint:
    """A stopped job's checkpoint is written by the same writer as the
    periodic ones, from the live state the stop carries."""

    SPEC = JobSpec(
        "builtin:qsup_3x3_10_0",
        "memory",
        (("threshold", 64), ("round_fidelity", 0.975)),
    )

    def test_a_stop_leaves_a_checkpoint_that_verifies_and_resumes(
        self, tmp_path
    ):
        reference = DDSimulator(Package()).run(
            self.SPEC.build_circuit(), self.SPEC.build_strategy()
        )
        assert reference.stats.rounds
        cut = reference.stats.rounds[0].op_index + 1
        store = ArtifactStore(str(tmp_path))
        job_hash = self.SPEC.content_hash()
        # The post-round poll of operation cut - 1 is clock call 2 * cut.
        stopped = execute_job(
            self.SPEC,
            store,
            cancel=CancellationToken(
                soft_deadline=2.0 * cut, clock=CountingClock()
            ),
        )
        assert stopped.status == "deadline"
        assert stopped.stats["next_op_index"] == cut

        checkpoint = store.load_checkpoint(job_hash)  # verifies
        assert checkpoint.next_op_index == cut
        assert rounds_from_dicts(checkpoint.rounds) == (
            reference.stats.rounds[:1]
        )
        assert set(checkpoint.schedule) == {
            "threshold", "rescues", "rescue_floor"
        }
        assert checkpoint.max_nodes == stopped.stats["max_nodes"]
        assert checkpoint.elapsed_seconds == stopped.stats["runtime_seconds"]

        resumed = execute_job(self.SPEC, store)
        assert resumed.status == "completed"
        assert resumed.resumed_at == cut
        assert resumed.stats["num_rounds"] == reference.stats.num_rounds
        assert store.load_checkpoint(job_hash) is None

    def test_a_timeout_checkpoints_without_an_interval(self, tmp_path):
        spec = self.SPEC.with_overrides(max_seconds=0.0)
        assert spec.checkpoint_interval == 0
        store = ArtifactStore(str(tmp_path))
        stopped = execute_job(spec, store)
        assert stopped.status == "timeout"
        checkpoint = store.load_checkpoint(spec.content_hash())
        assert checkpoint.next_op_index == stopped.stats["next_op_index"]


class TestCheckpointWriter:
    def test_writes_during_simulation(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        writer = CheckpointWriter(store, JOB_HASH)
        package = Package()
        circuit = qft_circuit(4)
        outcome = DDSimulator(package).run(
            circuit,
            checkpoint_interval=2,
            checkpoint_callback=writer,
        )
        assert writer.writes == (len(circuit) - 1) // 2
        checkpoint = store.load_checkpoint(JOB_HASH)
        assert 0 < checkpoint.next_op_index < len(circuit)
        assert checkpoint.elapsed_seconds > 0.0
        # Replaying the remaining operations reproduces the final state.
        resumed = DDSimulator(package).run(
            circuit, initial_state=checkpoint.resume_point(package)
        )
        assert outcome.state.fidelity(resumed.state) == pytest.approx(1.0)
