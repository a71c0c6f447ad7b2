"""Tests for the job engine: caching, resume, batches, retries."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.simulator import CancellationToken
from repro.faults.injector import arm, disarm
from repro.faults.plan import FaultPlan, FaultRule
from repro.service.engine import JobEngine, JobResult, execute_job
from repro.service.jobs import JobSpec
from repro.service.store import CHECKPOINT_FILE, ArtifactStore
from tests.helpers import CountingClock

FIDELITY_SHOR = (
    ("final_fidelity", 0.5),
    ("round_fidelity", 0.9),
    ("placement", "block:inverse_qft"),
)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def _spec(**kwargs) -> JobSpec:
    defaults = dict(circuit="builtin:shor_15_2")
    defaults.update(kwargs)
    return JobSpec(**defaults)


class TestExecuteJob:
    def test_completes_and_persists(self, store):
        spec = _spec(shots=20, seed=3, checkpoint_interval=10)
        result = execute_job(spec, store)
        assert result.status == "completed"
        assert not result.cached
        assert result.stats["num_rounds"] == 0
        assert result.counts and sum(result.counts.values()) == 20
        job_hash = spec.content_hash()
        assert store.has_result(job_hash)
        assert store.load_state(job_hash).num_qubits == 12
        journal = store.read_journal(job_hash)
        assert journal[-1]["event"] == "completed"
        assert sum(1 for row in journal if row["event"] == "op") == (
            result.stats["num_operations"]
        )
        # Completed jobs leave no checkpoint behind.
        assert store.load_checkpoint(job_hash) is None

    def test_cache_hit_returns_identical_result(self, store):
        spec = _spec(shots=25, seed=9)
        first = execute_job(spec, store)
        second = execute_job(spec, store)
        assert second.cached and not first.cached
        assert second.stats == first.stats
        # Same seed resamples identically from the rehydrated state.
        assert second.counts == first.counts

    def test_cache_resamples_with_new_seed(self, store):
        base = _spec(circuit="builtin:qsup_2x2_4_0", shots=200, seed=0)
        first = execute_job(base, store)
        second = execute_job(base.with_overrides(seed=1), store)
        assert second.cached
        assert second.counts != first.counts

    def test_use_cache_false_recomputes(self, store):
        spec = _spec()
        execute_job(spec, store)
        result = execute_job(spec, store, use_cache=False)
        assert not result.cached

    def test_error_result_for_bad_builtin(self, store):
        result = execute_job(_spec(circuit="builtin:nope_1_2"), store)
        assert result.status == "error"
        assert "unknown builtin" in result.error
        assert not store.has_result(result.job_hash)

    def test_error_result_for_bad_qasm(self, store):
        result = execute_job(_spec(circuit="definitely not qasm"), store)
        assert result.status == "error"


class TestTimeoutResume:
    def test_timeout_checkpoints_and_resume_matches_uninterrupted(
        self, store, tmp_path
    ):
        spec = JobSpec(
            circuit="builtin:shor_21_2",
            strategy="fidelity",
            strategy_args=FIDELITY_SHOR[:2],
            max_seconds=0.05,
            checkpoint_interval=20,
        )
        # The whole run can fit the budget on a fast host: gate 40 of
        # the first attempt is slowed past it, so that attempt times out.
        arm(
            FaultPlan(
                rules=(
                    FaultRule(
                        site="simulator.gate",
                        kind="slow",
                        at_op=40,
                        args={"delay_seconds": 0.1},
                    ),
                )
            )
        )
        try:
            result = execute_job(spec, store)
        finally:
            disarm()
        assert result.status == "timeout"
        assert store.load_checkpoint(spec.content_hash()) is not None
        assert result.stats["next_op_index"] > 0

        attempts = 0
        while result.status == "timeout" and attempts < 60:
            result = execute_job(spec, store)
            attempts += 1
        assert result.status == "completed"
        assert result.resumed_at and result.resumed_at > 0
        assert store.load_checkpoint(spec.content_hash()) is None

        reference = execute_job(
            spec.with_overrides(max_seconds=None),
            ArtifactStore(str(tmp_path / "reference")),
        )
        assert reference.status == "completed"
        assert result.stats["fidelity_estimate"] == pytest.approx(
            reference.stats["fidelity_estimate"], abs=1e-12
        )
        assert (
            result.stats["num_rounds"] == reference.stats["num_rounds"]
        )
        # Peak diagram size and runtime accumulate across attempts.
        assert result.stats["max_nodes"] == reference.stats["max_nodes"]
        assert result.stats["runtime_seconds"] >= spec.max_seconds


    def test_resumed_journal_totals_match_the_result(self, store):
        """The journal's ``completed`` row carries the totals of
        ``result.json`` (runtime and peak across both attempts), not
        those of the resuming attempt alone."""
        spec = JobSpec(
            circuit="builtin:shor_21_2",
            strategy="fidelity",
            strategy_args=FIDELITY_SHOR,
        )
        # The post-round poll of operation 59 is clock call 120.
        stopped = execute_job(
            spec,
            store,
            cancel=CancellationToken(
                soft_deadline=120.0, clock=CountingClock()
            ),
        )
        assert stopped.status == "deadline"
        assert stopped.stats["next_op_index"] == 60
        result = execute_job(spec, store)
        assert result.status == "completed" and result.resumed_at == 60
        assert result.stats["runtime_seconds"] > 0.0
        journal = store.read_journal(spec.content_hash())
        assert journal[0] == {"event": "resume", "at": 60}
        completed = journal[-1]
        assert completed == {
            "event": "completed",
            **{
                key: result.stats[key]
                for key in (
                    "runtime_seconds",
                    "fidelity_estimate",
                    "max_nodes",
                    "final_nodes",
                )
            },
        }
        assert [row for row in journal if row["event"] == "round"] == [
            {"event": "round", **record} for record in result.stats["rounds"]
        ]


class TestStaleCheckpoint:
    def test_stale_checkpoint_is_quarantined_and_job_restarts_fresh(
        self, store
    ):
        """A checkpoint recorded for a *different* job hash (e.g. a
        hand-edited spec reusing an old store key) must not be resumed
        from — it is quarantined and the job restarts from scratch."""
        from repro.service.checkpoint import Checkpoint

        spec = _spec(checkpoint_interval=10)
        job_hash = spec.content_hash()
        stale = Checkpoint(
            job_hash="f" * 64,  # some other job's snapshot
            next_op_index=30,
            state={"num_qubits": 12, "terms": []},
            rounds=[],
            max_nodes=5,
            elapsed_seconds=1.0,
            schedule={},
        )
        store.save_checkpoint(job_hash, stale)

        result = execute_job(spec, store)
        assert result.status == "completed"
        assert result.resumed_at is None  # fresh start, not a resume
        assert result.stats["fidelity_estimate"] == 1.0
        # The stale snapshot was moved aside, not silently deleted.
        quarantined = list(store.iter_quarantined())
        assert len(quarantined) == 1
        # A completed job leaves no checkpoint behind.
        assert store.load_checkpoint(job_hash) is None

    def test_malformed_checkpoint_is_quarantined_and_job_restarts(
        self, store
    ):
        spec = _spec()
        directory = store.checkpoint_dir(spec.content_hash())
        os.makedirs(directory)
        with open(
            os.path.join(directory, CHECKPOINT_FILE), "w", encoding="utf-8"
        ) as handle:
            json.dump({"format": "repro-checkpoint", "version": 1}, handle)
        result = execute_job(spec, store)
        assert result.status == "completed"
        assert result.resumed_at is None
        assert len(list(store.iter_quarantined())) == 1


class TestJobEngine:
    def test_validates_construction(self, store):
        with pytest.raises(ValueError):
            JobEngine(store, workers=-1)
        with pytest.raises(ValueError):
            JobEngine(store, max_retries=-1)

    def test_accepts_store_path(self, tmp_path):
        engine = JobEngine(str(tmp_path / "s"))
        assert isinstance(engine.store, ArtifactStore)

    def test_empty_batch(self, store):
        assert JobEngine(store).run_batch([]) == []

    def test_serial_batch_preserves_order_and_dedupes(self, store):
        specs = [
            _spec(),
            _spec(circuit="builtin:shor_15_7"),
            _spec(),  # duplicate of the first
        ]
        seen = []
        results = JobEngine(store).run_batch(
            specs, progress=seen.append
        )
        assert [r.spec.circuit for r in results] == [
            "builtin:shor_15_2",
            "builtin:shor_15_7",
            "builtin:shor_15_2",
        ]
        assert results[0] is results[2]  # deduplicated execution
        assert len(seen) == 2  # progress fired once per unique job
        assert all(r.status == "completed" for r in results)

    def test_pool_batch(self, store):
        specs = [
            _spec(),
            _spec(circuit="builtin:shor_15_7"),
            _spec(circuit="builtin:qsup_2x2_4_0"),
        ]
        results = JobEngine(store, workers=2).run_batch(specs)
        assert [r.status for r in results] == ["completed"] * 3
        assert [r.spec.circuit for r in results] == [
            s.circuit for s in specs
        ]
        # Artifacts written by workers are visible to the parent.
        for result in results:
            assert store.has_result(result.job_hash)

    def test_pool_batch_serves_cache(self, store):
        specs = [_spec(), _spec(circuit="builtin:shor_15_7")]
        engine = JobEngine(store, workers=2)
        engine.run_batch(specs)
        again = engine.run_batch(specs)
        assert all(result.cached for result in again)

    def test_pool_batch_reports_errors(self, store):
        results = JobEngine(store, workers=2).run_batch(
            [_spec(), _spec(circuit="builtin:nope_1_2")]
        )
        assert results[0].status == "completed"
        assert results[1].status == "error"


class TestJobResult:
    def test_summary_variants(self):
        spec = _spec()
        ok = JobResult(
            spec=spec,
            job_hash="ab" * 32,
            status="completed",
            stats={
                "fidelity_estimate": 0.75,
                "max_nodes": 10,
                "num_rounds": 2,
                "runtime_seconds": 1.0,
            },
        )
        assert "f_final=0.750" in ok.summary()
        assert ok.ok and ok.fidelity_estimate == 0.75
        timeout = JobResult(
            spec=spec,
            job_hash="ab" * 32,
            status="timeout",
            stats={"next_op_index": 7},
        )
        assert "TIMEOUT" in timeout.summary()
        assert not timeout.ok
        error = JobResult(
            spec=spec, job_hash="ab" * 32, status="error", error="boom"
        )
        assert "ERROR" in error.summary()
        assert error.fidelity_estimate is None


class TestJobLifecycleEvents:
    def test_batch_emits_job_events_and_counters(self, store):
        from repro.obs import Recorder, recording

        engine = JobEngine(store, workers=1)
        recorder = Recorder(enabled=True)
        with recording(recorder):
            engine.run_batch([_spec()])
            engine.run_batch([_spec()])  # second run is served from cache
        phases = [e["phase"] for e in recorder.events if e["event"] == "job"]
        assert phases == ["queued", "started", "completed", "queued", "cached"]
        assert recorder.counters["jobs.queued"] == 2
        assert recorder.counters["jobs.started"] == 1
        assert recorder.counters["jobs.completed"] == 1
        assert recorder.counters["jobs.cached"] == 1

    def test_error_job_emits_error_phase(self, store):
        from repro.obs import Recorder, recording

        recorder = Recorder(enabled=True)
        with recording(recorder):
            execute_job(_spec(circuit="builtin:nope"), store)
        phases = [e["phase"] for e in recorder.events if e["event"] == "job"]
        assert "error" in phases
        assert recorder.counters["jobs.error"] == 1

    def test_no_events_without_active_recorder(self, store):
        from repro.obs import get_recorder

        execute_job(_spec(), store, use_cache=False)
        assert get_recorder().events == []
