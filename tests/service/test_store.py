"""Tests for the content-addressed artifact store."""

from __future__ import annotations

import math
import os
import threading
import time
from unittest import mock

import numpy as np
import pytest

from repro.dd.package import Package
from repro.dd.serialize import state_to_dict
from repro.dd.vector import StateDD
from repro.service.lease import Lease
from repro.service.store import ArtifactStore
from tests.helpers import make_checkpoint

HASH_A = "aa" + "0" * 62
HASH_B = "ab" + "1" * 62
HASH_C = "cc" + "2" * 62


def _ghz_doc():
    state = StateDD.from_amplitudes(
        np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2), Package()
    )
    return state_to_dict(state)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


class TestResults:
    def test_missing_result(self, store):
        assert not store.has_result(HASH_A)
        with pytest.raises(KeyError):
            store.load_result(HASH_A)
        with pytest.raises(KeyError):
            store.load_state(HASH_A)

    def test_put_and_load(self, store):
        store.put_result(
            HASH_A,
            {"stats": {"circuit_name": "ghz"}},
            state_doc=_ghz_doc(),
            journal_rows=[{"event": "op", "index": 0, "nodes": 1}],
        )
        assert store.has_result(HASH_A)
        document = store.load_result(HASH_A)
        assert document["stats"]["circuit_name"] == "ghz"
        assert document["stored_at"] > 0
        state = store.load_state(HASH_A, Package())
        assert state.node_count() == 5
        assert store.read_journal(HASH_A) == [
            {"event": "op", "index": 0, "nodes": 1}
        ]

    def test_journal_absent_is_empty(self, store):
        store.put_result(HASH_A, {"stats": {}})
        assert store.read_journal(HASH_A) == []

    def test_iter_results_sorted(self, store):
        store.put_result(HASH_B, {"stats": {}})
        store.put_result(HASH_A, {"stats": {}})
        hashes = [job_hash for job_hash, _doc in store.iter_results()]
        assert hashes == [HASH_A, HASH_B]

    def test_no_temp_files_left_behind(self, store):
        store.put_result(HASH_A, {"stats": {}}, state_doc=_ghz_doc())
        leftovers = [
            name
            for _root, _dirs, files in os.walk(store.root)
            for name in files
            if name.startswith(".tmp-")
        ]
        assert leftovers == []


class TestResolvePrefix:
    def test_unique_prefix(self, store):
        store.put_result(HASH_A, {"stats": {}})
        store.put_result(HASH_C, {"stats": {}})
        assert store.resolve_prefix("aa") == HASH_A

    def test_ambiguous_prefix(self, store):
        store.put_result(HASH_A, {"stats": {}})
        store.put_result(HASH_B, {"stats": {}})
        with pytest.raises(KeyError):
            store.resolve_prefix("a")

    def test_unknown_prefix(self, store):
        with pytest.raises(KeyError):
            store.resolve_prefix("dead")


class TestCheckpoints:
    def test_round_trip_and_clear(self, store):
        assert store.load_checkpoint(HASH_A) is None
        store.save_checkpoint(HASH_A, make_checkpoint(HASH_A, 3))
        assert store.load_checkpoint(HASH_A) == make_checkpoint(HASH_A, 3)
        assert list(store.iter_checkpoints()) == [HASH_A]
        store.clear_checkpoint(HASH_A)
        assert store.load_checkpoint(HASH_A) is None
        assert list(store.iter_checkpoints()) == []

    def test_save_overwrites_atomically(self, store):
        store.save_checkpoint(HASH_A, make_checkpoint(HASH_A, 3))
        store.save_checkpoint(HASH_A, make_checkpoint(HASH_A, 9))
        assert store.load_checkpoint(HASH_A) == make_checkpoint(HASH_A, 9)


class TestGc:
    def test_removes_shadowed_checkpoints(self, store):
        store.put_result(HASH_A, {"stats": {}})
        store.save_checkpoint(HASH_A, make_checkpoint(HASH_A, 3))
        store.save_checkpoint(HASH_B, make_checkpoint(HASH_B, 5))
        removed = store.gc()
        assert removed == {
            "checkpoints": 1,
            "results": 0,
            "quarantined": 0,
            "staging": 0,
        }
        # The live (resumable) checkpoint survives.
        assert list(store.iter_checkpoints()) == [HASH_B]
        assert store.has_result(HASH_A)

    def test_remove_results(self, store):
        store.put_result(HASH_A, {"stats": {}})
        removed = store.gc(remove_results=True)
        assert removed["results"] == 1
        assert not store.has_result(HASH_A)

    def test_remove_results_respects_age(self, store):
        store.put_result(HASH_A, {"stats": {}, "stored_at": 0.0})
        store.put_result(HASH_B, {"stats": {}})
        removed = store.gc(
            older_than_seconds=3600.0, remove_results=True
        )
        assert removed["results"] == 1
        assert not store.has_result(HASH_A)
        assert store.has_result(HASH_B)


class TestGcStaging:
    """Crash-leaked staging dirs are reaped by age; live puts are safe."""

    def _leak_staging(self, store, age_seconds: float) -> str:
        shard = os.path.dirname(store.result_dir(HASH_A))
        os.makedirs(shard, exist_ok=True)
        staging = os.path.join(shard, f".staging-{HASH_A[:8]}-leak")
        os.makedirs(staging)
        with open(os.path.join(staging, "result.json"), "w") as handle:
            handle.write("{}")
        stamp = time.time() - age_seconds
        os.utime(staging, (stamp, stamp))
        return staging

    def test_old_staging_dir_is_reaped(self, store):
        staging = self._leak_staging(store, age_seconds=7200.0)
        removed = store.gc(staging_older_than_seconds=3600.0)
        assert removed["staging"] == 1
        assert not os.path.exists(staging)

    def test_fresh_staging_dir_survives(self, store):
        staging = self._leak_staging(store, age_seconds=0.0)
        removed = store.gc(staging_older_than_seconds=3600.0)
        assert removed["staging"] == 0
        assert os.path.exists(staging)

    def test_none_threshold_skips_staging(self, store):
        staging = self._leak_staging(store, age_seconds=7200.0)
        removed = store.gc(staging_older_than_seconds=None)
        assert removed["staging"] == 0
        assert os.path.exists(staging)

    def test_old_checkpoint_tmp_file_is_reaped(self, store):
        store.save_checkpoint(HASH_A, make_checkpoint(HASH_A, 1))
        leak = os.path.join(
            store.checkpoint_dir(HASH_A), ".tmp-abandoned"
        )
        with open(leak, "w") as handle:
            handle.write("{")
        os.utime(leak, (0, 0))
        removed = store.gc(staging_older_than_seconds=3600.0)
        assert removed["staging"] == 1
        assert not os.path.exists(leak)
        assert store.load_checkpoint(HASH_A) == make_checkpoint(HASH_A, 1)

    @pytest.mark.parametrize("written", ["lease", "parked queue"])
    def test_old_serve_tmp_file_is_reaped_and_a_young_one_kept(
        self, store, written
    ):
        # Crashed lease writes leave .tmp-* files in serve/leases/,
        # crashed queue dumps in serve/; gc reaps both by age.
        if written == "lease":
            store.write_lease(Lease(HASH_A, "s0", 1, 0.0))
            directory = os.path.dirname(store.lease_path(HASH_A))
        else:
            store.park_jobs("drained-queue", [{"job_hash": HASH_A}])
            directory = os.path.dirname(store.parked_jobs_path("q"))
        old, young = (
            os.path.join(directory, f".tmp-{name}.json")
            for name in ("old", "young")
        )
        for leak in (old, young):
            with open(leak, "w") as handle:
                handle.write("{")
        os.utime(old, (0, 0))
        removed = store.gc(staging_older_than_seconds=3600.0)
        assert removed["staging"] == 1
        assert not os.path.exists(old)
        assert os.path.exists(young)

    def test_concurrent_in_flight_put_is_not_reaped(self, store):
        # A put paused between staging and promote (the crash window
        # gc exists for) must not have its staging dir reaped by a
        # concurrent gc: the age gate keeps a moments-old dir safe.
        staged = threading.Event()
        release = threading.Event()
        original_promote = ArtifactStore._promote

        def paused_promote(staging_dir, final_dir):
            staged.set()
            assert release.wait(timeout=30.0)
            return original_promote(staging_dir, final_dir)

        outcome: dict = {}

        def put():
            try:
                store.put_result(HASH_A, {"stats": {"fidelity": 1.0}})
            except BaseException as error:  # pragma: no cover
                outcome["error"] = error

        with mock.patch.object(
            ArtifactStore, "_promote", staticmethod(paused_promote)
        ):
            writer = threading.Thread(target=put)
            writer.start()
            try:
                assert staged.wait(timeout=30.0)
                removed = store.gc(staging_older_than_seconds=3600.0)
                assert removed["staging"] == 0
            finally:
                release.set()
                writer.join(timeout=30.0)
        assert "error" not in outcome
        assert store.load_result(HASH_A)["stats"]["fidelity"] == 1.0


class TestQuarantineReport:
    """`jobs ls` must report half-written quarantine entries, not crash."""

    def _quarantine_one(self, store) -> str:
        store.save_checkpoint(HASH_A, make_checkpoint(HASH_A, 3))
        store.quarantine_checkpoint(HASH_A, "checksum mismatch")
        return next(iter(store.iter_quarantined()))

    def test_intact_entry_is_fully_described(self, store):
        name = self._quarantine_one(store)
        (entry,) = store.quarantine_report()
        assert entry["name"] == name
        assert entry["reason"] == "checksum mismatch"
        assert entry["quarantined_at"] is not None
        assert entry["error"] is None

    def test_missing_reason_file_is_reported(self, store):
        name = self._quarantine_one(store)
        os.unlink(
            os.path.join(store.quarantine_root(), name, "reason.json")
        )
        (entry,) = store.quarantine_report()
        assert entry["reason"] is None
        assert entry["error"] == "missing reason.json"

    def test_truncated_reason_file_is_reported(self, store):
        name = self._quarantine_one(store)
        path = os.path.join(store.quarantine_root(), name, "reason.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"reason": "checksum mis')  # crash mid-write
        (entry,) = store.quarantine_report()
        assert entry["reason"] is None
        assert "unreadable reason.json" in entry["error"]

    def test_non_object_reason_file_is_reported(self, store):
        name = self._quarantine_one(store)
        path = os.path.join(store.quarantine_root(), name, "reason.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('["not", "an", "object"]')
        (entry,) = store.quarantine_report()
        assert entry["reason"] is None
        assert "malformed reason.json" in entry["error"]

    def test_non_string_reason_degrades_to_none(self, store):
        name = self._quarantine_one(store)
        path = os.path.join(store.quarantine_root(), name, "reason.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"reason": 42, "quarantined_at": "soon"}')
        (entry,) = store.quarantine_report()
        assert entry["reason"] is None
        assert entry["quarantined_at"] is None
        assert entry["error"] is None

    def test_report_covers_every_entry(self, store):
        self._quarantine_one(store)
        store.save_checkpoint(HASH_B, make_checkpoint(HASH_B, 5))
        store.quarantine_checkpoint(HASH_B, "torn file")
        report = store.quarantine_report()
        assert len(report) == 2
        assert {e["reason"] for e in report} == {
            "checksum mismatch",
            "torn file",
        }

    def test_empty_store_reports_nothing(self, store):
        assert store.quarantine_report() == []


class TestOwnershipLog:
    def test_append_and_read_preserve_order(self, store):
        store.append_ownership(
            {"event": "assigned", "job_hash": HASH_A, "shard": "s0"}
        )
        store.append_ownership(
            {"event": "readmitted", "job_hash": HASH_A, "shard": "s1"}
        )
        store.append_ownership(
            {"event": "assigned", "job_hash": HASH_B, "shard": "s1"}
        )
        events = store.read_ownership_log()
        assert [e["event"] for e in events] == [
            "assigned",
            "readmitted",
            "assigned",
        ]
        assert [e["shard"] for e in events] == ["s0", "s1", "s1"]

    def test_filter_by_hash_prefix(self, store):
        store.append_ownership({"event": "assigned", "job_hash": HASH_A})
        store.append_ownership({"event": "assigned", "job_hash": HASH_B})
        assert len(store.read_ownership_log(HASH_A)) == 1
        assert len(store.read_ownership_log(HASH_A[:8])) == 1
        assert len(store.read_ownership_log("a")) == 2  # shared prefix
        assert store.read_ownership_log("ff") == []

    def test_missing_log_reads_empty(self, store):
        assert store.read_ownership_log() == []

    def test_torn_tail_and_garbage_rows_are_dropped(self, store):
        store.append_ownership({"event": "assigned", "job_hash": HASH_A})
        with open(store.ownership_log_path(), "a", encoding="utf-8") as f:
            f.write('["not", "a", "dict"]\n')
            f.write('{"event": "readmit')  # crash mid-append
        events = store.read_ownership_log()
        assert [e["event"] for e in events] == ["assigned"]

    def test_concurrent_appenders_never_tear_lines(self, store):
        import threading

        def append(tag: str) -> None:
            for index in range(25):
                store.append_ownership(
                    {"event": tag, "n": index, "job_hash": HASH_A}
                )

        threads = [
            threading.Thread(target=append, args=(f"w{k}",))
            for k in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        events = store.read_ownership_log()
        assert len(events) == 100
        for tag in ("w0", "w1", "w2", "w3"):
            ours = [e["n"] for e in events if e["event"] == tag]
            assert ours == list(range(25))  # per-writer order intact


class TestMultiWriterSafety:
    """Races between shard daemons sharing one store."""

    def test_checkpoint_vanishing_mid_load_reads_as_none(
        self, store, monkeypatch
    ):
        """A peer shard can complete the job and clear its checkpoint
        between our existence check and the open; that is "no
        checkpoint", not corruption."""
        target = os.path.join(
            store.checkpoint_dir(HASH_A), "latest.json"
        )
        real_exists = os.path.exists
        monkeypatch.setattr(
            "repro.service.store.os.path.exists",
            lambda path: path == target or real_exists(path),
        )
        assert store.load_checkpoint(HASH_A) is None

    def test_promote_replaces_an_existing_object(self, store):
        store.put_result(HASH_A, {"spec": {}, "stats": {"version": 1}})
        store.put_result(HASH_A, {"spec": {}, "stats": {"version": 2}})
        assert store.load_result(HASH_A)["stats"] == {"version": 2}
        # No staging or backup directories linger after the swap.
        shard_dir = os.path.dirname(store.result_dir(HASH_A))
        assert os.listdir(shard_dir) == [HASH_A]
