"""Tests for the replicated artifact store: quorum, repair, scrub."""

from __future__ import annotations

import base64
import json
import os
import struct
from unittest import mock

import numpy as np
import pytest

from repro.dd.package import Package, default_package
from repro.dd.serialize import state_to_dict
from repro.dd.vector import StateDD
from repro.faults import injector as injector_module
from repro.faults.errors import LeaseIntegrityError, QuorumLost
from repro.faults.injector import arm
from repro.faults.plan import FaultPlan, FaultRule
from repro.service.engine import execute_job
from repro.service.jobs import JobSpec
from repro.service.lease import Lease, LeaseManager
from repro.service.replication import ReplicatedStore, open_store
from repro.service.store import ArtifactStore
from tests.helpers import make_checkpoint

HASH_A = "a" * 64
HASH_B = "b" * 64


@pytest.fixture(autouse=True)
def _clean_injector():
    injector_module.disarm()
    yield
    injector_module.disarm()


@pytest.fixture
def store(tmp_path) -> ReplicatedStore:
    return ReplicatedStore.create(
        str(tmp_path / "store"), replicas=3, write_quorum=2
    )


def _flip_byte(path: str, offset: int = 16) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _state_doc(seed: int = 0) -> dict:
    """A 3-qubit state no other test builds (distinct per ``seed``)."""
    amplitudes = np.arange(1.0, 9.0) + seed / 7
    package = Package()
    state = StateDD.from_amplitudes(
        amplitudes / np.linalg.norm(amplitudes), package
    )
    return state_to_dict(state)


def _replica_down(replica: int) -> FaultRule:
    return FaultRule(
        site="store.replica", kind="replica_down", match={"replica": replica}
    )


class TestCreateAndOpen:
    def test_create_lays_out_replicas_and_manifest(self, store):
        assert store.replica_count == 3
        assert store.write_quorum == 2
        for index in range(3):
            assert os.path.isdir(
                os.path.join(store.root, f"replica-{index}")
            )
        with open(os.path.join(store.root, "replication.json")) as handle:
            manifest = json.load(handle)
        assert manifest["replicas"] == 3

    def test_open_store_dispatches_on_manifest(self, store, tmp_path):
        reopened = open_store(store.root)
        assert isinstance(reopened, ReplicatedStore)
        plain = open_store(str(tmp_path / "plain"))
        assert isinstance(plain, ArtifactStore)
        assert not isinstance(plain, ReplicatedStore)

    def test_create_rejects_invalid_quorum(self, tmp_path):
        with pytest.raises(ValueError):
            ReplicatedStore.create(
                str(tmp_path / "s"), replicas=3, write_quorum=4
            )

    def test_create_twice_fails(self, store):
        with pytest.raises(ValueError):
            ReplicatedStore.create(store.root)

    def test_create_adopts_existing_plain_store(self, tmp_path):
        root = str(tmp_path / "migrate")
        plain = ArtifactStore(root)
        plain.put_result(HASH_A, {"stats": {"fidelity": 0.5}})
        replicated = ReplicatedStore.create(root, replicas=3)
        # The adopted data is immediately re-replicated to full factor.
        for replica in replicated.replicas:
            assert replica.has_result(HASH_A)
        assert replicated.load_result(HASH_A)["stats"]["fidelity"] == 0.5

    def test_plain_root_is_not_a_replicated_store(self, tmp_path):
        with pytest.raises(ValueError):
            ReplicatedStore(str(tmp_path / "nothing"))


class TestQuorumWrites:
    def test_put_replicates_to_every_replica(self, store):
        store.put_result(HASH_A, {"stats": {}})
        assert all(
            replica.has_result(HASH_A) for replica in store.replicas
        )
        # Byte-identical artifacts on every replica (shared stored_at).
        docs = [
            replica.load_result(HASH_A) for replica in store.replicas
        ]
        assert docs[0] == docs[1] == docs[2]

    def test_one_replica_down_still_commits(self, store):
        arm(FaultPlan(rules=(_replica_down(1),)))
        store.put_result(HASH_A, {"stats": {}})
        assert store.replicas[0].has_result(HASH_A)
        assert store.replicas[2].has_result(HASH_A)
        assert not store.read_only

    def test_quorum_loss_raises_and_degrades_to_read_only(self, store):
        arm(FaultPlan(rules=(_replica_down(1), _replica_down(2))))
        with pytest.raises(QuorumLost) as info:
            store.put_result(HASH_A, {"stats": {}})
        assert info.value.acked == 1
        assert store.read_only
        # The marker is a file: a fresh handle on the same root agrees.
        assert ReplicatedStore(store.root).read_only

    def test_successful_quorum_write_clears_read_only(self, store):
        arm(FaultPlan(rules=(_replica_down(1), _replica_down(2))))
        with pytest.raises(QuorumLost):
            store.put_result(HASH_A, {"stats": {}})
        injector_module.disarm()
        store.put_result(HASH_B, {"stats": {}})
        assert not store.read_only

    def test_stale_replica_ack_is_counted_but_bytes_are_gone(self, store):
        arm(
            FaultPlan(
                rules=(
                    FaultRule(
                        site="store.replica",
                        kind="stale_replica",
                        match={"replica": 0, "op": "put_result"},
                    ),
                )
            )
        )
        store.put_result(HASH_A, {"stats": {}})  # no QuorumLost: 3 acks
        assert not store.replicas[0].has_result(HASH_A)
        assert store.replicas[1].has_result(HASH_A)
        injector_module.disarm()
        report = store.scrub(repair=True)
        assert report["repaired"] >= 1
        assert store.replicas[0].has_result(HASH_A)


class TestReadRepair:
    def test_read_falls_through_and_repairs_bitrot(self, store):
        store.put_result(HASH_A, {"stats": {"fidelity": 0.9}})
        victim = os.path.join(
            store.replicas[0].result_dir(HASH_A), "result.json"
        )
        _flip_byte(victim)
        document = store.load_result(HASH_A)
        assert document["stats"]["fidelity"] == 0.9
        # Read-repair restored the damaged replica from a healthy one.
        assert store.replicas[0].load_result(HASH_A) == document
        assert store.repairs >= 1
        # The corrupt bytes were kept for forensics.
        assert list(store.replicas[0].iter_quarantined())

    def test_read_survives_a_down_replica(self, store):
        store.put_result(HASH_A, {"stats": {}})
        arm(FaultPlan(rules=(_replica_down(0),)))
        assert store.load_result(HASH_A)["stats"] == {}

    def test_a_replica_the_read_cannot_reach_is_left_alone(self, store):
        store.put_result(HASH_A, {"stats": {}})
        victim = os.path.join(
            store.replicas[0].result_dir(HASH_A), "result.json"
        )
        _flip_byte(victim)
        damaged = _read_bytes(victim)
        arm(FaultPlan(rules=(_replica_down(0),)))
        assert store.load_result(HASH_A)["stats"] == {}
        assert _read_bytes(victim) == damaged
        assert not list(store.replicas[0].iter_quarantined())

    def test_all_copies_corrupt_raises_integrity_error(self, store):
        from repro.faults.errors import ArtifactIntegrityError

        store.put_result(HASH_A, {"stats": {}})
        for replica in store.replicas:
            _flip_byte(
                os.path.join(replica.result_dir(HASH_A), "result.json")
            )
        with pytest.raises(ArtifactIntegrityError):
            store.load_result(HASH_A)

    def test_missing_result_raises_key_error(self, store):
        with pytest.raises(KeyError):
            store.load_result(HASH_A)


def _edit_json(path: str, edit) -> None:
    """Apply ``edit`` to the JSON document at ``path`` and write it back."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    edit(document)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def _strip_integrity(document: dict) -> None:
    del document["integrity"]
    document["stats"]["fidelity"] = 0.1


JOURNAL = [{"event": "round", "achieved_fidelity": 0.9}, {"event": "end"}]
FILES = ("result.json", "state.json", "journal.jsonl")


class TestResultReads:
    """Every result read checks every copy by the plain store's rule."""

    def _paths(self, store, name: str) -> list[str]:
        return [
            os.path.join(replica.result_dir(HASH_A), name)
            for replica in store.replicas
        ]

    def _damaged_replica_0(self, store, name: str, damage) -> list[bytes]:
        """Put a result, damage replica 0's ``name``; the healthy bytes."""
        store.put_result(
            HASH_A,
            {"stats": {"fidelity": 0.9}},
            state_doc=_state_doc(),
            journal_rows=JOURNAL,
        )
        healthy = [_read_bytes(self._paths(store, n)[1]) for n in FILES]
        damage(self._paths(store, name)[0])
        return healthy

    def _assert_repaired(self, store, healthy: list[bytes]) -> None:
        for name, data in zip(FILES, healthy, strict=True):
            assert [_read_bytes(p) for p in self._paths(store, name)] == [
                data
            ] * 3
        assert list(store.replicas[0].iter_quarantined())

    def test_stripped_integrity_block_is_corrupt_not_served(self, store):
        healthy = self._damaged_replica_0(
            store,
            "result.json",
            lambda path: _edit_json(path, _strip_integrity),
        )
        report = store.scrub(repair=False)
        assert [
            (problem["kind"], problem["replica"])
            for problem in report["problems"]
        ] == [("result_corrupt", 0)]
        assert store.load_result(HASH_A)["stats"] == {"fidelity": 0.9}
        self._assert_repaired(store, healthy)

    def test_a_one_bit_edit_that_keeps_the_values_is_corrupt(self, store):
        """``1.5e-05`` and ``1.5E-05`` parse alike, one bit apart: the
        copy is byte-divergent, so the scrub reports it and the read
        repairs it."""
        store.put_result(
            HASH_A,
            {"stats": {"runtime_seconds": 1.5e-05}},
            state_doc=_state_doc(),
            journal_rows=JOURNAL,
        )
        healthy = [_read_bytes(self._paths(store, n)[1]) for n in FILES]
        victim = self._paths(store, "result.json")[0]
        with open(victim, "wb") as handle:
            handle.write(healthy[0].replace(b"e-05", b"E-05"))
        report = store.scrub(repair=False)
        assert [
            (problem["kind"], problem["replica"])
            for problem in report["problems"]
        ] == [("result_corrupt", 0)]
        assert store.load_result(HASH_A)["stats"] == {
            "runtime_seconds": 1.5e-05
        }
        self._assert_repaired(store, healthy)

    def test_edited_journal_row_is_corrupt_not_served(self, store):
        def edit(path: str) -> None:
            text = _read_bytes(path).replace(b"0.9", b"0.1")
            with open(path, "wb") as handle:
                handle.write(text)

        healthy = self._damaged_replica_0(store, "journal.jsonl", edit)
        report = store.scrub(repair=False)
        assert [
            (problem["kind"], problem["replica"])
            for problem in report["problems"]
        ] == [("result_corrupt", 0)]
        assert store.read_journal(HASH_A) == JOURNAL
        self._assert_repaired(store, healthy)

    def test_emptied_journal_is_corrupt_not_served(self, store):
        healthy = self._damaged_replica_0(
            store, "journal.jsonl", lambda path: open(path, "w").close()
        )
        assert store.read_journal(HASH_A) == JOURNAL
        self._assert_repaired(store, healthy)

    def test_state_is_served_from_a_verified_copy(self, store):
        healthy = self._damaged_replica_0(store, "state.json", _flip_byte)
        state = store.load_state(HASH_A, Package())
        assert state.num_qubits == 3
        self._assert_repaired(store, healthy)

    def test_result_reads_visit_the_site_as_load_result(self, store):
        store.put_result(HASH_A, {"stats": {}}, journal_rows=JOURNAL)
        visits = []
        with mock.patch.object(
            ReplicatedStore,
            "_fire",
            lambda self, index, op, job_hash, path: visits.append(op),
        ):
            store.load_result(HASH_A)
            store.read_journal(HASH_A)
            with pytest.raises(KeyError):
                store.load_state(HASH_A)
        assert visits == ["load_result"] * 9

    def test_scrub_adds_nothing_to_the_unique_tables(self, store):
        for index in range(3):
            store.put_result(
                f"{index}" * 64, {"stats": {}}, state_doc=_state_doc(index)
            )
        before = default_package().unique_table_sizes()
        report = store.scrub(repair=False)
        assert (report["results_checked"], report["problems"]) == (3, [])
        assert default_package().unique_table_sizes() == before


class TestCheckpoints:
    def test_newest_checkpoint_wins_and_laggards_catch_up(self, store):
        # Replica 1 missed the last quorum write and holds op 3; the
        # others hold op 7.  Read-any would happily return op 3 and
        # corrupt the fidelity ledger on resume.
        store.replicas[0].save_checkpoint(HASH_A, make_checkpoint(HASH_A, 7))
        store.replicas[1].save_checkpoint(HASH_A, make_checkpoint(HASH_A, 3))
        store.replicas[2].save_checkpoint(HASH_A, make_checkpoint(HASH_A, 7))
        document = store.load_checkpoint(HASH_A)
        assert document == make_checkpoint(HASH_A, 7)
        assert store.replicas[1].load_checkpoint(HASH_A) == document

    def test_corrupt_copy_is_quarantined_and_replaced(self, store):
        store.save_checkpoint(HASH_A, make_checkpoint(HASH_A, 5))
        path = os.path.join(
            store.replicas[2].checkpoint_dir(HASH_A), "latest.json"
        )
        _flip_byte(path)
        assert store.load_checkpoint(HASH_A) == make_checkpoint(HASH_A, 5)
        assert store.replicas[2].load_checkpoint(HASH_A) == make_checkpoint(
            HASH_A, 5
        )

    def test_one_bit_raising_the_op_index_does_not_spread(self, store):
        # One flipped bit makes replica 0's op 56 read as 76.  Every
        # copy is verified before it is compared, so that copy is
        # corrupt, not newest: the healthy op wins and the healthy
        # copies keep their bytes.
        store.save_checkpoint(HASH_A, make_checkpoint(HASH_A, 56))
        paths = [
            os.path.join(replica.checkpoint_dir(HASH_A), "latest.json")
            for replica in store.replicas
        ]
        healthy = [_read_bytes(path) for path in paths[1:]]
        field = b'"next_op_index":'
        with open(paths[0], "r+b") as handle:
            data = handle.read()
            position = data.index(field + b"56") + len(field)
            handle.seek(position)
            handle.write(bytes([data[position] ^ 0x02]))  # '5' -> '7'
        report = store.scrub(repair=False)
        assert [
            (problem["kind"], problem["replica"])
            for problem in report["problems"]
        ] == [("checkpoint_corrupt", 0)]
        assert store.load_checkpoint(HASH_A).next_op_index == 56
        assert [_read_bytes(path) for path in paths[1:]] == healthy
        assert _read_bytes(paths[0]) == healthy[0]  # read-repaired

    @pytest.mark.parametrize("replicated", [False, True])
    def test_a_checkpoint_write_dumps_json_once(self, tmp_path, replicated):
        root = str(tmp_path / "one")
        target = (
            ReplicatedStore.create(root, replicas=3)
            if replicated
            else ArtifactStore(root)
        )
        with mock.patch("json.dumps", wraps=json.dumps) as dumps:
            target.save_checkpoint(HASH_A, make_checkpoint(HASH_A, 4))
        assert dumps.call_count == 1

    def test_missing_everywhere_is_none(self, store):
        assert store.load_checkpoint(HASH_A) is None

    def test_clear_checkpoint_clears_all_replicas(self, store):
        store.save_checkpoint(HASH_A, make_checkpoint(HASH_A, 5))
        store.clear_checkpoint(HASH_A)
        for replica in store.replicas:
            assert replica.load_checkpoint(HASH_A) is None


class TestParkedJobs:
    def test_park_and_take_round_trip(self, store):
        payload = [{"job_hash": HASH_A, "priority": "batch"}]
        store.park_jobs("drained-queue", payload)
        for replica in store.replicas:
            assert os.path.exists(
                replica.parked_jobs_path("drained-queue")
            )
        assert store.take_parked_jobs("drained-queue") == payload
        assert store.take_parked_jobs("drained-queue") == []

    def test_take_prefers_the_longest_surviving_dump(self, store):
        long = [{"job_hash": HASH_A}, {"job_hash": HASH_B}]
        store.park_jobs("drained-queue", long)
        # One replica's copy is truncated to a shorter (stale) dump.
        with open(
            store.replicas[0].parked_jobs_path("drained-queue"), "w"
        ) as handle:
            json.dump([{"job_hash": HASH_A}], handle)
        assert store.take_parked_jobs("drained-queue") == long


class TestScrub:
    def test_scrub_repairs_bitrot_and_restores_rf(self, store):
        store.put_result(HASH_A, {"stats": {}})
        _flip_byte(
            os.path.join(
                store.replicas[1].result_dir(HASH_A), "result.json"
            )
        )
        report = store.scrub(repair=True)
        assert report["results_checked"] == 1
        assert report["repaired"] >= 1
        assert report["quarantined"] >= 1
        assert report["lost"] == 0
        assert all(
            replica.load_result(HASH_A) for replica in store.replicas
        )

    def test_detect_only_reports_without_touching(self, store):
        store.put_result(HASH_A, {"stats": {}})
        victim = os.path.join(
            store.replicas[1].result_dir(HASH_A), "result.json"
        )
        _flip_byte(victim)
        before = open(victim, "rb").read()
        report = store.scrub(repair=False)
        assert report["problems"]
        assert report["repaired"] == 0
        assert open(victim, "rb").read() == before

    def test_scrub_counts_lost_artifacts(self, store):
        store.put_result(HASH_A, {"stats": {}})
        for replica in store.replicas:
            _flip_byte(
                os.path.join(replica.result_dir(HASH_A), "result.json")
            )
        report = store.scrub(repair=True)
        assert report["lost"] == 1

    def test_a_state_that_verifies_but_does_not_decode_is_lost(self, store):
        """Every copy of the state passes its SHA-256 but names a forward
        child: the scrub reports the result lost and quarantines it, and
        the next run with shots recomputes it."""
        spec = JobSpec("builtin:shor_15_2", shots=8)
        job_hash = spec.content_hash()
        document = _state_doc()
        children = bytearray(base64.b64decode(document["children"]))
        children[4:8] = struct.pack("<i", 3)  # node 0's child 0: a later node
        document["children"] = base64.b64encode(bytes(children)).decode()
        store.put_result(job_hash, {"stats": {}}, state_doc=document)

        report = store.scrub(repair=False)
        assert (report["lost"], report["problems"]) == (
            1,
            [{"kind": "result_lost", "job_hash": job_hash}],
        )
        report = store.scrub()
        assert (report["lost"], report["quarantined"]) == (1, 3)
        assert not store.has_result(job_hash)

        result = execute_job(spec, store)
        assert (result.status, result.cached) == ("completed", False)
        assert sum(result.counts.values()) == 8
        assert store.load_state(job_hash, Package()).num_qubits > 0
        assert store.scrub(repair=False)["problems"] == []

    def test_scrub_clears_read_only_when_clean(self, store):
        arm(FaultPlan(rules=(_replica_down(1), _replica_down(2))))
        with pytest.raises(QuorumLost):
            store.put_result(HASH_A, {"stats": {}})
        assert store.read_only
        injector_module.disarm()
        store.scrub(repair=True)
        assert not store.read_only

    def test_scrub_persists_status_for_operators(self, store):
        store.put_result(HASH_A, {"stats": {}})
        store.scrub(repair=True)
        status = store.status()
        assert status["replicated"] is True
        assert status["replication_factor"] == 3
        assert status["last_scrub"] is not None
        persisted = store.last_scrub()
        assert persisted["report"]["results_checked"] == 1

    def test_scrub_spreads_lease_epochs(self, store):
        store.replicas[0].write_lease(Lease(HASH_A, "s0", 1, 0.0))
        store.replicas[1].write_lease(Lease(HASH_A, "s1", 4, 0.0))
        store.scrub(repair=True)
        for replica in store.replicas:
            assert replica.read_lease(HASH_A).epoch == 4

    def test_scrub_reports_lease_problems(self, store):
        store.write_lease(Lease(HASH_A, "s0", 2, 50.0))
        store.replicas[1].write_lease(Lease(HASH_A, "s0", 2, 20.0))
        _flip_byte(store.replicas[2].lease_path(HASH_A))
        report = store.scrub(repair=False)
        assert report["leases_checked"] == 1
        assert [
            (problem["kind"], problem["replica"])
            for problem in report["problems"]
        ] == [("lease_stale", 1), ("lease_corrupt", 2)]
        report = store.scrub(repair=True)
        assert (report["repaired"], report["quarantined"]) == (2, 1)
        assert store.scrub(repair=False)["problems"] == []

    def test_injected_faults_do_not_fire_during_scrub(self, store):
        # The scrubber is the repair tool, not the system under test:
        # a rule that breaks replica reads must not break the scrub.
        store.put_result(HASH_A, {"stats": {}})
        arm(FaultPlan(rules=(_replica_down(0),)))
        report = store.scrub(repair=True)
        assert report["lost"] == 0


class TestLeaseReads:
    def test_read_lease_returns_max_epoch(self, store):
        store.replicas[0].write_lease(Lease(HASH_A, "old", 2, 0.0))
        store.replicas[2].write_lease(Lease(HASH_A, "new", 5, 0.0))
        lease = store.read_lease(HASH_A)
        assert lease.epoch == 5
        assert lease.owner == "new"
        # Laggards were read-repaired to the winning epoch.
        assert store.replicas[0].read_lease(HASH_A).epoch == 5

    def test_write_lease_is_a_quorum_write(self, store):
        store.write_lease(Lease(HASH_A, "s0", 1, 99.0))
        for replica in store.replicas:
            assert replica.read_lease(HASH_A).epoch == 1

    def test_a_missed_renewal_is_repaired(self, store):
        store.write_lease(Lease(HASH_A, "s0", 1, 10.0))
        store.replicas[0].write_lease(Lease(HASH_A, "s0", 1, 40.0))
        assert store.read_lease(HASH_A) == Lease(HASH_A, "s0", 1, 40.0)
        for replica in store.replicas:
            assert replica.read_lease(HASH_A).expires_at == 40.0

    def test_one_bit_raising_the_lease_epoch_does_not_spread(self, store):
        # One flipped bit makes replica 0's epoch 1 read as 9.  Every
        # copy is verified before it is compared, so that copy is
        # corrupt, not newest: epoch 1 wins, the healthy copies keep
        # their bytes, and the live owner's fenced write goes through.
        owner = LeaseManager(store, owner="s0").acquire(HASH_A)
        assert owner.epoch == 1
        paths = [replica.lease_path(HASH_A) for replica in store.replicas]
        healthy = [_read_bytes(path) for path in paths[1:]]
        field = b'"epoch":'
        with open(paths[0], "r+b") as handle:
            data = handle.read()
            position = data.index(field + b"1") + len(field)
            handle.seek(position)
            handle.write(bytes([data[position] ^ 0x08]))  # '1' -> '9'
        assert b'"epoch":9' in _read_bytes(paths[0])
        assert store.read_lease(HASH_A).epoch == 1
        assert [_read_bytes(path) for path in paths[1:]] == healthy
        assert _read_bytes(paths[0]) == healthy[0]  # read-repaired
        store.save_checkpoint(
            HASH_A, make_checkpoint(HASH_A, 3), fence=owner.fence
        )
        assert store.load_checkpoint(HASH_A) == make_checkpoint(HASH_A, 3)

    def test_a_lease_with_no_verified_copy_reads_as_absent(self, store):
        # Every copy fails (here: written without a checksum, as leases
        # were before they carried one).  The read raises; the fence
        # check and the manager quarantine the copies and go on as for
        # a lost lease.
        unchecksummed = {"owner": "s0", "epoch": 3, "expires_at": 0.0}
        for replica in store.replicas:
            path = replica.lease_path(HASH_A)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(unchecksummed, handle)
        with pytest.raises(LeaseIntegrityError, match="not a repro-lease"):
            store.read_lease(HASH_A)
        store.save_checkpoint(
            HASH_A,
            make_checkpoint(HASH_A, 1),
            fence={"owner": "s1", "epoch": 1},
        )
        assert store.read_lease(HASH_A) is None
        assert [
            list(replica.iter_quarantined()) for replica in store.replicas
        ] == [[f"lease-{HASH_A[:12]}-0"]] * 3
        assert LeaseManager(store, owner="s1").acquire(HASH_A).epoch == 1


class TestStatus:
    def test_status_reports_per_replica_health(self, store):
        status = store.status()
        assert status["write_quorum"] == 2
        assert [entry["state"] for entry in status["replicas"]] == [
            "ok",
            "ok",
            "ok",
        ]

    def test_lost_replica_directory_shows_as_lost(self, store, tmp_path):
        import shutil

        shutil.rmtree(store.replicas[2].root)
        status = store.status()
        assert status["replicas"][2]["state"] == "lost"
