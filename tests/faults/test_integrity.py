"""Artifact/checkpoint integrity: checksums, atomicity, quarantine."""

from __future__ import annotations

import base64
import hashlib
import json
import os

import pytest

from repro.dd.package import Package
from repro.dd.serialize import state_to_dict
from repro.dd.vector import StateDD
from repro.faults.errors import (
    ArtifactIntegrityError,
    CheckpointIntegrityError,
)
from repro.faults.injector import arm
from repro.faults.plan import FaultPlan, FaultRule
from repro.service.checkpoint import Checkpoint
from repro.service.engine import execute_job
from repro.service.jobs import JobSpec
from repro.service.store import (
    JOURNAL_FILE,
    RESULT_FILE,
    STATE_FILE,
    ArtifactStore,
)
from tests.helpers import make_checkpoint, v1_state_document

HASH_A = "a" * 64

#: A ``repro-checkpoint`` v1 file exactly as the earlier writer stored it.
V1_DOCUMENT = (
    '{"format": "repro-checkpoint", "version": 1, "job_hash": '
    '"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", '
    '"next_op_index": 56, "state": {"format": "repro-dd-state", '
    '"version": 1, "num_qubits": 2, "root": {"weight": '
    '[0.9999999999999999, 0.0], "node": 2}, "nodes": [{"level": 0, '
    '"edges": [[[0.0, 0.0], -1], [[1.0, 0.0], -1]]}, {"level": 0, '
    '"edges": [[[1.0, 0.0], -1], [[0.0, 0.0], -1]]}, {"level": 1, '
    '"edges": [[[0.7071067811865476, 0.0], 1], [[0.7071067811865476, '
    '0.0], 0]]}]}, "rounds": [{"op_index": 20, "nodes_before": 9, '
    '"nodes_after": 5, "requested_fidelity": 0.9, "achieved_fidelity": '
    '0.9375, "removed_contribution": 0.0625, "removed_nodes": 4, '
    '"emergency": false}], "max_nodes": 9, "elapsed_seconds": 0.25, '
    '"checksum": '
    '"df78c93d7d86fd33c795880ff0b62142f39f6a460823a13674f891d82253507d"}'
)

#: A result object (``result.json``, ``state.json``, ``journal.jsonl``)
#: exactly as the writer stored it: the format every reader must keep
#: verifying.
PINNED_OBJECT = {
    RESULT_FILE: (
        '{\n  "integrity": {\n    "doc_crc32": 3171601979,\n'
        '    "journal_sha256": '
        '"b44091b02d6015e6ce4109ca4c42a16ed624b350e343f108b7de6e7b72daf30e",'
        '\n    "state_sha256": '
        '"fa877f72388910aa7f84e3bbb376ca12545f2e628e7a377d364b9d99b3d38dc9"'
        '\n  },\n  "stats": {\n    "fidelity_estimate": 0.9,\n'
        '    "max_nodes": 3\n  },\n  "stored_at": 1760000000.5\n}'
    ),
    STATE_FILE: (
        '{"format": "repro-dd-state", "version": 1, "num_qubits": 2, '
        '"root": {"weight": [0.9999999999999999, 0.0], "node": 2}, '
        '"nodes": [{"level": 0, "edges": [[[0.0, 0.0], -1], [[1.0, 0.0], '
        '-1]]}, {"level": 0, "edges": [[[1.0, 0.0], -1], [[0.0, 0.0], '
        '-1]]}, {"level": 1, "edges": [[[0.7071067811865476, 0.0], 1], '
        '[[0.7071067811865476, 0.0], 0]]}]}'
    ),
    JOURNAL_FILE: (
        '{"achieved_fidelity": 0.9, "event": "round"}\n'
        '{"event": "completed"}\n'
    ),
}


def _undecodable_state(num_qubits: int, version: int) -> dict:
    """A state document of ``num_qubits`` qubits whose first node names
    a later node as its child: well-formed JSON that no decoder
    accepts."""
    state = StateDD.plus_state(num_qubits, Package())
    if version == 1:
        document = v1_state_document(state)
        document["nodes"][0]["edges"][0][1] = 1
        return document
    document = state_to_dict(state)
    children = bytearray(base64.b64decode(document["children"]))
    children[4:8] = (1).to_bytes(4, "little", signed=True)
    document["children"] = base64.b64encode(bytes(children)).decode()
    return document


def _spec(**kwargs) -> JobSpec:
    defaults = dict(circuit="builtin:shor_15_2")
    defaults.update(kwargs)
    return JobSpec(**defaults)


def _arm(*rules: FaultRule, **kwargs) -> None:
    arm(FaultPlan(rules=tuple(rules), **kwargs))


class TestAtomicPut:
    def test_put_round_trips_with_integrity_block(self, store):
        store.put_result(
            HASH_A,
            {"stats": {"max_nodes": 4}},
            state_doc={"num_qubits": 1},
            journal_rows=[{"event": "completed"}],
        )
        document = store.load_result(HASH_A)
        integrity = document["integrity"]
        assert set(integrity) == {
            "state_sha256",
            "journal_sha256",
            "doc_crc32",
        }
        assert store.read_journal(HASH_A) == [{"event": "completed"}]

    def test_crash_mid_put_leaves_no_half_artifact(self, store):
        """An I/O failure between the staging writes must leave the
        store exactly as it was: no result, no readable object."""
        _arm(FaultRule(site="store.put_result", kind="io_error"))
        with pytest.raises(OSError, match="injected"):
            store.put_result(
                HASH_A,
                {"stats": {}},
                state_doc={"num_qubits": 1},
                journal_rows=[{"event": "completed"}],
            )
        assert not store.has_result(HASH_A)
        assert list(store.iter_results()) == []
        # The staging directory was rolled back, not orphaned.
        shard = os.path.dirname(store.result_dir(HASH_A))
        leftovers = [
            entry
            for entry in (os.listdir(shard) if os.path.isdir(shard) else [])
            if entry.startswith(".staging-")
        ]
        assert leftovers == []

    def test_reput_replaces_the_object(self, store):
        store.put_result(HASH_A, {"stats": {"run": 1}})
        store.put_result(HASH_A, {"stats": {"run": 2}})
        assert store.load_result(HASH_A)["stats"] == {"run": 2}


class TestResultVerification:
    def test_corrupted_document_fails_its_crc(self, store):
        store.put_result(HASH_A, {"stats": {"max_nodes": 4}})
        path = os.path.join(store.result_dir(HASH_A), RESULT_FILE)
        document = json.loads(open(path, encoding="utf-8").read())
        document["stats"]["max_nodes"] = 99999  # silent bit-rot
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.raises(ArtifactIntegrityError, match="CRC-32"):
            store.load_result(HASH_A)

    @pytest.mark.parametrize(
        "old, new",
        [(b"e-05", b"E-05"), (b'"max_nodes": 4', b'"max_nodes":4')],
    )
    def test_an_edit_that_keeps_the_values_is_still_corrupt(
        self, store, old, new
    ):
        """The CRC covers the parsed values; the bytes must be the
        writer's own dump too, or a copy can differ unnoticed."""
        store.put_result(
            HASH_A, {"stats": {"max_nodes": 4, "runtime_seconds": 1.5e-05}}
        )
        path = os.path.join(store.result_dir(HASH_A), RESULT_FILE)
        with open(path, "rb") as handle:
            text = handle.read()
        assert text.count(old) == 1
        with open(path, "wb") as handle:
            handle.write(text.replace(old, new))
        with pytest.raises(ArtifactIntegrityError, match="writer's dump"):
            store.load_result(HASH_A)

    def test_unparsable_document_is_an_integrity_error(self, store):
        store.put_result(HASH_A, {"stats": {}})
        path = os.path.join(store.result_dir(HASH_A), RESULT_FILE)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{torn")
        with pytest.raises(ArtifactIntegrityError, match="not valid JSON"):
            store.load_result(HASH_A)

    def test_document_without_integrity_block_is_rejected(self, store):
        # Stripping the block would otherwise switch every check off.
        store.put_result(HASH_A, {"stats": {"max_nodes": 4}})
        path = os.path.join(store.result_dir(HASH_A), RESULT_FILE)
        document = json.loads(open(path, encoding="utf-8").read())
        del document["integrity"]
        document["stats"]["max_nodes"] = 99999
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.raises(ArtifactIntegrityError, match="no integrity"):
            store.load_result(HASH_A)

    def test_unrecorded_state_is_corrupt(self, store):
        store.put_result(HASH_A, {"stats": {}})
        path = os.path.join(store.result_dir(HASH_A), STATE_FILE)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(PINNED_OBJECT[STATE_FILE])
        with pytest.raises(ArtifactIntegrityError, match="no recorded"):
            store.load_state(HASH_A)

    def test_object_of_the_earlier_writer_still_verifies(self, store):
        """Its ``result.json`` and journal verify; its version 1 state no
        longer decodes, so the engine quarantines the object and
        recomputes it."""
        spec = _spec(shots=10)
        job_hash = spec.content_hash()
        os.makedirs(store.result_dir(job_hash))
        for name, text in PINNED_OBJECT.items():
            path = os.path.join(store.result_dir(job_hash), name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        document = store.load_result(job_hash)
        assert document["stats"] == {"fidelity_estimate": 0.9, "max_nodes": 3}
        assert store.read_journal(job_hash) == [
            {"achieved_fidelity": 0.9, "event": "round"},
            {"event": "completed"},
        ]
        with pytest.raises(ArtifactIntegrityError, match="version 1"):
            store.load_state(job_hash)

        result = execute_job(spec, store)
        assert result.status == "completed", result.error
        assert not result.cached
        assert len(list(store.iter_quarantined())) == 1
        assert store.load_state(job_hash).num_qubits == (
            spec.build_circuit().num_qubits
        )

    def test_corrupted_state_fails_its_sha(self, store):
        spec = _spec()
        execute_job(spec, store)
        job_hash = spec.content_hash()
        path = os.path.join(store.result_dir(job_hash), STATE_FILE)
        with open(path, "r+b") as handle:
            handle.seek(20)
            byte = handle.read(1)
            handle.seek(20)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(ArtifactIntegrityError, match="SHA-256"):
            store.load_state(job_hash)

    def test_engine_quarantines_corrupt_cache_and_recomputes(self, store):
        spec = _spec(shots=10)
        first = execute_job(spec, store)
        job_hash = spec.content_hash()
        path = os.path.join(store.result_dir(job_hash), RESULT_FILE)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage")
        result = execute_job(spec, store)
        assert result.status == "completed"
        assert not result.cached  # recomputed, not served from cache
        for key in ("max_nodes", "final_nodes", "fidelity_estimate"):
            assert result.stats[key] == first.stats[key]
        assert len(list(store.iter_quarantined())) == 1
        # The recomputed artifact is whole again and verifies.
        stored = store.load_result(job_hash)["stats"]
        assert stored["fidelity_estimate"] == first.stats["fidelity_estimate"]


    @pytest.mark.parametrize("version", [1, 2])
    def test_engine_recomputes_a_result_whose_state_does_not_decode(
        self, store, version
    ):
        """The state file passes its SHA-256, yet the writer stored a
        state no decoder accepts: that is integrity damage, so a cache
        hit that samples it quarantines the object and recomputes."""
        spec = _spec(shots=4)
        first = execute_job(spec, store)
        job_hash = spec.content_hash()
        store.put_result(
            job_hash,
            store.load_result(job_hash),
            state_doc=_undecodable_state(
                first.stats["num_qubits"], version
            ),
            journal_rows=store.read_journal(job_hash),
        )
        with pytest.raises(ArtifactIntegrityError, match="does not decode"):
            store.load_state(job_hash)
        result = execute_job(spec, store)
        assert result.status == "completed"
        assert not result.cached
        assert result.counts == first.counts
        assert len(list(store.iter_quarantined())) == 1
        assert (
            store.load_state(job_hash).num_qubits == first.stats["num_qubits"]
        )


class TestJournalVerification:
    @staticmethod
    def _put(store) -> str:
        store.put_result(
            HASH_A,
            {"stats": {}},
            journal_rows=[
                {"event": "round", "achieved_fidelity": 0.9},
                {"event": "op", "index": 0},
            ],
        )
        return os.path.join(store.result_dir(HASH_A), JOURNAL_FILE)

    def test_truncated_journal_raises_and_is_left_untouched(self, store):
        # put_result writes the journal whole through the staging
        # rename, so a short journal is damage, not an interrupted
        # append: nothing may rewrite it.
        path = self._put(store)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 5)
        damaged = open(path, "rb").read()
        with pytest.raises(ArtifactIntegrityError, match="SHA-256"):
            store.read_journal(HASH_A)
        assert open(path, "rb").read() == damaged

    def test_edited_row_fails_the_sha(self, store):
        path = self._put(store)
        text = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace("0.9", "0.1"))
        with pytest.raises(ArtifactIntegrityError, match="SHA-256"):
            store.read_journal(HASH_A)

    def test_mid_file_corruption_raises(self, store):
        store.put_result(HASH_A, {"stats": {}}, journal_rows=[])
        path = os.path.join(store.result_dir(HASH_A), JOURNAL_FILE)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"event": "op"}\n{broken}\n{"event": "end"}\n')
        with pytest.raises(ArtifactIntegrityError, match="SHA-256"):
            store.read_journal(HASH_A)

    def test_unrecorded_journal_is_corrupt(self, store):
        store.put_result(HASH_A, {"stats": {}})
        path = os.path.join(store.result_dir(HASH_A), JOURNAL_FILE)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"event": "op"}\n')
        with pytest.raises(ArtifactIntegrityError, match="no recorded"):
            store.read_journal(HASH_A)

    def test_deleted_journal_is_corrupt(self, store):
        os.unlink(self._put(store))
        with pytest.raises(ArtifactIntegrityError, match="missing"):
            store.read_journal(HASH_A)


class TestCheckpointIntegrity:
    def _checkpoint(self) -> Checkpoint:
        return Checkpoint(
            job_hash=HASH_A,
            next_op_index=7,
            state={"num_qubits": 1, "terms": []},
            rounds=[],
            max_nodes=12,
            elapsed_seconds=0.5,
            schedule={"rescues": 0, "rescue_floor": 0},
        )

    @staticmethod
    def _path(store) -> str:
        return os.path.join(store.checkpoint_dir(HASH_A), "latest.json")

    def _rewrite(self, store, edit) -> None:
        """Apply ``edit`` to the stored document and write it back."""
        with open(self._path(store), encoding="utf-8") as handle:
            document = json.load(handle)
        edit(document)
        with open(self._path(store), "w", encoding="utf-8") as handle:
            json.dump(document, handle)

    def test_checksum_round_trips(self, store):
        checkpoint = self._checkpoint()
        store.save_checkpoint(HASH_A, checkpoint)
        with open(self._path(store), encoding="utf-8") as handle:
            assert "checksum" in json.load(handle)
        assert store.load_checkpoint(HASH_A) == checkpoint

    def test_tampered_field_fails_the_checksum(self, store):
        store.save_checkpoint(HASH_A, self._checkpoint())
        self._rewrite(
            store, lambda document: document.update(next_op_index=9)
        )
        with pytest.raises(CheckpointIntegrityError, match="SHA-256"):
            store.load_checkpoint(HASH_A)

    def test_document_without_checksum_is_rejected(self, store):
        # A one-bit flip in the key name would otherwise switch the
        # check off; every writer records the checksum.
        store.save_checkpoint(HASH_A, self._checkpoint())
        self._rewrite(store, lambda document: document.pop("checksum"))
        with pytest.raises(CheckpointIntegrityError, match="no checksum"):
            store.load_checkpoint(HASH_A)

    def test_v1_document_of_the_earlier_writer_is_quarantined(
        self, store, chaos_root
    ):
        """A version 1 checkpoint stores no schedule, so it cannot resume
        as the uninterrupted run would: it fails the version check, is
        quarantined, and the job restarts equal to an uninterrupted run
        (a fresh run spends its own Lemma-1 budget from 1.0)."""
        # Verbatim output of the earlier writer, which dumped the
        # document twice: sorted and compact for the checksum, then in
        # insertion order with default separators for the file.
        os.makedirs(store.checkpoint_dir(HASH_A))
        with open(self._path(store), "w", encoding="utf-8") as handle:
            handle.write(V1_DOCUMENT)
        with pytest.raises(CheckpointIntegrityError, match="version 1"):
            store.load_checkpoint(HASH_A)

        # The same document, checksummed for a real job.
        spec = _spec(
            circuit="builtin:shor_21_2",
            strategy="fidelity",
            strategy_args=(("final_fidelity", 0.5), ("round_fidelity", 0.9)),
        )
        job_hash = spec.content_hash()
        document = json.loads(V1_DOCUMENT)
        del document["checksum"]
        document["job_hash"] = job_hash
        canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
        document["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
        os.makedirs(store.checkpoint_dir(job_hash))
        path = os.path.join(store.checkpoint_dir(job_hash), "latest.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)

        result = execute_job(spec, store)
        assert result.status == "completed", result.error
        assert result.resumed_at is None
        assert store.load_checkpoint(job_hash) is None
        assert len(list(store.iter_quarantined())) == 1
        reference = execute_job(spec, ArtifactStore(str(chaos_root / "ref")))
        for key in ("fidelity_estimate", "rounds", "max_nodes", "final_nodes"):
            assert result.stats[key] == reference.stats[key]

    @pytest.mark.parametrize("version", [1, 2])
    def test_a_checkpoint_whose_state_does_not_decode_is_quarantined(
        self, store, version
    ):
        """The checkpoint passes its checksum, yet its state does not
        decode: the job must not fail on it attempt after attempt, but
        quarantine it and start fresh, as for a failed checksum."""
        spec = _spec()
        job_hash = spec.content_hash()
        num_qubits = spec.build_circuit().num_qubits
        store.save_checkpoint(
            job_hash,
            Checkpoint(
                job_hash=job_hash,
                next_op_index=10,
                state=_undecodable_state(num_qubits, version),
                rounds=[],
                max_nodes=3,
                elapsed_seconds=0.0,
                schedule={"rescues": 0, "rescue_floor": 0},
            ),
        )
        result = execute_job(spec, store)
        assert result.status == "completed", result.error
        assert result.resumed_at is None
        assert store.load_checkpoint(job_hash) is None
        assert len(list(store.iter_quarantined())) == 1

    def test_truncated_checkpoint_file_raises(self, store):
        store.save_checkpoint(HASH_A, self._checkpoint())
        path = os.path.join(store.checkpoint_dir(HASH_A), "latest.json")
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        with pytest.raises(CheckpointIntegrityError, match="unreadable"):
            store.load_checkpoint(HASH_A)


class TestQuarantine:
    def test_quarantine_moves_checkpoint_aside_with_reason(self, store):
        store.save_checkpoint(HASH_A, make_checkpoint(HASH_A, 3))
        target = store.quarantine_checkpoint(HASH_A, "checksum mismatch")
        assert target is not None
        assert store.load_checkpoint(HASH_A) is None
        reason = json.loads(
            open(
                os.path.join(target, "reason.json"), encoding="utf-8"
            ).read()
        )
        assert reason["reason"] == "checksum mismatch"
        assert len(list(store.iter_quarantined())) == 1

    def test_quarantine_without_artifact_is_none(self, store):
        assert store.quarantine_checkpoint(HASH_A, "nothing there") is None

    def test_repeated_quarantines_get_distinct_slots(self, store):
        for _ in range(3):
            store.save_checkpoint(HASH_A, make_checkpoint(HASH_A, 3))
            assert store.quarantine_checkpoint(HASH_A, "bad") is not None
        assert len(list(store.iter_quarantined())) == 3

    def test_gc_can_purge_quarantine(self, store):
        store.save_checkpoint(HASH_A, make_checkpoint(HASH_A, 3))
        store.quarantine_checkpoint(HASH_A, "bad")
        removed = store.gc(remove_quarantine=True)
        assert removed["quarantined"] == 1
        assert list(store.iter_quarantined()) == []
