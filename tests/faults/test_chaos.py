"""End-to-end chaos scenarios: jobs survive injected faults.

Each test arms a :class:`FaultPlan`, runs real jobs through the real
engine/store/simulator stack, and asserts the system converges to a
*correct* result — completed jobs, verified-checksum artifacts, and
Lemma-1 fidelity accounting that matches an uninterrupted reference.
"""

from __future__ import annotations

import pytest

from repro.core import simulator as simulator_module
from repro.core.simulator import DDSimulator, MemoryWatchdog
from repro.faults import (
    FaultPlan,
    FaultRule,
    MemoryBudgetExceeded,
    arm,
    disarm,
)
from repro.obs import Recorder, recording
from repro.obs.report import metrics_report
from repro.service.engine import JobEngine, execute_job
from repro.service.jobs import JobSpec, build_builtin_circuit
from repro.service.store import ArtifactStore


def _spec(**kwargs) -> JobSpec:
    defaults = dict(circuit="builtin:shor_15_2")
    defaults.update(kwargs)
    return JobSpec(**defaults)


def _arm(*rules: FaultRule, **kwargs) -> None:
    arm(FaultPlan(rules=tuple(rules), **kwargs))


def _engine(store, **kwargs) -> JobEngine:
    defaults = dict(max_retries=2, retry_backoff=0.01)
    defaults.update(kwargs)
    return JobEngine(store, **defaults)


class TestTransientRetry:
    def test_transient_worker_fault_is_retried_to_completion(self, store):
        _arm(FaultRule(site="engine.job", kind="transient", max_hits=1))
        result = _engine(store).run(_spec())
        assert result.status == "completed"
        assert result.attempts == 2
        # The artifact passes its integrity checks end to end.
        assert store.load_result(result.job_hash)["stats"] == result.stats

    def test_permanent_fault_is_not_retried(self, store):
        _arm(FaultRule(site="engine.job", kind="permanent", max_hits=None))
        result = _engine(store).run(_spec())
        assert result.status == "error"
        assert result.error_kind == "permanent"
        assert result.attempts == 1  # deterministic failure: no retry

    def test_retry_budget_bounds_transient_attempts(self, store):
        _arm(FaultRule(site="engine.job", kind="transient", max_hits=None))
        result = _engine(store, max_retries=2).run(_spec())
        assert result.status == "error"
        assert result.error_kind == "transient"
        assert result.attempts == 3  # first try + max_retries

    def test_persist_failure_is_transient_and_retried(self, store):
        """An I/O fault while persisting artifacts errors the attempt
        (the staging dir rolls back) and the retry completes whole."""
        _arm(FaultRule(site="store.put_result", kind="io_error", max_hits=1))
        result = _engine(store).run(_spec())
        assert result.status == "completed"
        assert result.attempts == 2
        stored = store.load_result(result.job_hash)
        assert stored["stats"]["fidelity_estimate"] == (
            result.stats["fidelity_estimate"]
        )

    def test_retry_events_are_recorded(self, store):
        _arm(FaultRule(site="engine.job", kind="transient", max_hits=1))
        recorder = Recorder(enabled=True)
        with recording(recorder):
            _engine(store).run(_spec())
        assert recorder.counters["jobs.retried"] == 1
        assert recorder.counters["faults.injected"] == 1


class TestKilledWorker:
    def test_pool_batch_survives_a_killed_worker(self, store, chaos_root):
        """SIGKILL one worker mid-batch; the engine replaces the worker
        and every job still completes with verified artifacts.

        The kill rule carries a ``state_dir`` so its visit counter
        spans the killed worker and its replacement — the fault fires
        exactly once even though the job runs twice.
        """
        specs = [_spec(), _spec(circuit="builtin:qsup_2x2_4_0")]
        _arm(
            FaultRule(site="engine.job", kind="kill", max_hits=1),
            state_dir=str(chaos_root / "counters"),
        )
        # workers=2 keeps execution in forked pool workers: the kill
        # must never fire in the pytest process itself.
        results = _engine(store, workers=2).run_batch(specs)
        assert [r.status for r in results] == ["completed", "completed"]
        for result in results:
            document = store.load_result(result.job_hash)  # verifies CRC
            assert document["stats"]["fidelity_estimate"] == 1.0
            assert store.load_state(result.job_hash) is not None

    def test_killed_worker_costs_only_its_own_job(self, store, chaos_root):
        """Killing one worker requeues only the job it held: a
        multi-second job running beside it finishes on its first
        attempt instead of being re-run from the start."""
        victim = _spec()
        bystander = _spec(
            circuit="builtin:shor_35_2",
            strategy="memory",
            strategy_args=(("round_fidelity", 0.8), ("threshold", 32000)),
        )
        _arm(
            FaultRule(
                site="engine.job",
                kind="kill",
                max_hits=1,
                match={"name": victim.display_name},
            ),
            state_dir=str(chaos_root / "counters"),
        )
        results = _engine(store, workers=2).run_batch([bystander, victim])
        assert [r.status for r in results] == ["completed", "completed"]
        assert results[0].attempts == 1
        assert results[1].attempts == 2

    def test_killed_worker_exhausts_retries_into_error(self, store, chaos_root):
        """A worker that dies on every attempt becomes an error result
        (not a hang, not an exception out of run_batch)."""
        specs = [_spec(), _spec(circuit="builtin:qsup_2x2_4_0")]
        _arm(
            FaultRule(site="engine.job", kind="kill", max_hits=None),
            state_dir=str(chaos_root / "counters"),
        )
        results = _engine(store, workers=2, max_retries=1).run_batch(specs)
        assert all(r.status == "error" for r in results)
        assert all("worker failed" in r.error for r in results)


class TestCorruptedCheckpoint:
    TIMEOUT_SPEC = dict(
        circuit="builtin:shor_21_2",
        strategy="fidelity",
        strategy_args=(
            ("final_fidelity", 0.5),
            ("round_fidelity", 0.9),
        ),
        max_seconds=0.15,
        checkpoint_interval=20,
    )

    def _drive_to_completion(self, spec, store):
        result = execute_job(spec, store)
        attempts = 0
        while result.status == "timeout" and attempts < 60:
            result = execute_job(spec, store)
            attempts += 1
        return result

    @pytest.mark.parametrize("damage", ["corrupt", "truncate"])
    def test_damaged_checkpoint_is_quarantined_and_job_completes(
        self, store, tmp_path, damage
    ):
        """Corrupt/truncate the checkpoint a timeout leaves behind; the
        rerun quarantines it, restarts fresh, and the final Lemma-1
        fidelity matches an uninterrupted reference run."""
        # No periodic checkpoint interval: the timeout-rescue save is
        # the only save_checkpoint visit, so the one-shot damage rule
        # hits the checkpoint the rerun will actually load.  Without the
        # periodic saves the whole run fits in 0.15 s, so the budget is
        # cut to keep the first attempt a timeout.
        spec = JobSpec(
            **{**self.TIMEOUT_SPEC, "checkpoint_interval": 0, "max_seconds": 0.03}
        )
        _arm(FaultRule(site="store.save_checkpoint", kind=damage, max_hits=1))
        first = execute_job(spec, store)
        assert first.status == "timeout"  # left a (damaged) checkpoint

        disarm()
        result = self._drive_to_completion(spec, store)
        assert result.status == "completed"
        assert len(list(store.iter_quarantined())) >= 1

        reference = execute_job(
            spec.with_overrides(max_seconds=None),
            ArtifactStore(str(tmp_path / "reference")),
        )
        assert result.stats["fidelity_estimate"] == pytest.approx(
            reference.stats["fidelity_estimate"], abs=1e-12
        )
        assert result.stats["num_rounds"] == reference.stats["num_rounds"]
        # The surviving artifact passes verification.
        stored = store.load_result(result.job_hash)
        assert stored["stats"]["fidelity_estimate"] == (
            result.stats["fidelity_estimate"]
        )

    def test_clean_kill_resume_cycle_preserves_fidelity(self, store, tmp_path):
        """Repeated timeout/resume cycles (the kill-resume shape without
        the kill) spend exactly the reference run's fidelity budget."""
        spec = JobSpec(**self.TIMEOUT_SPEC)
        result = self._drive_to_completion(spec, store)
        assert result.status == "completed"
        assert result.resumed_at and result.resumed_at > 0
        reference = execute_job(
            spec.with_overrides(max_seconds=None),
            ArtifactStore(str(tmp_path / "reference")),
        )
        assert result.stats["fidelity_estimate"] == pytest.approx(
            reference.stats["fidelity_estimate"], abs=1e-12
        )


class TestMemoryPressure:
    CIRCUIT = "builtin:shor_15_2"

    def _run(self, watchdog=None):
        circuit = build_builtin_circuit("shor_15_2")
        return DDSimulator().run(circuit, watchdog=watchdog)

    def test_injected_memory_error_triggers_emergency_round(self):
        _arm(
            FaultRule(site="simulator.gate", kind="memory_error", at_op=40)
        )
        outcome = self._run(MemoryWatchdog(emergency_fidelity=0.7))
        emergencies = [r for r in outcome.stats.rounds if r.emergency]
        assert len(emergencies) == 1
        (rescue,) = emergencies
        assert rescue.op_index == 40
        assert rescue.removed_nodes > 0
        # The rescue's fidelity cost lands in the Lemma-1 budget.
        assert outcome.stats.fidelity_estimate == pytest.approx(
            rescue.achieved_fidelity
        )
        assert outcome.stats.fidelity_estimate < 1.0

    def test_emergency_round_appears_in_metrics_report(self):
        _arm(
            FaultRule(site="simulator.gate", kind="memory_error", at_op=40)
        )
        recorder = Recorder(enabled=True)
        with recording(recorder):
            outcome = self._run(MemoryWatchdog(emergency_fidelity=0.7))
        report = metrics_report(outcome.stats, recorder)
        assert report["fidelity"]["num_emergency_rounds"] == 1
        assert report["fidelity"]["estimate"] < 1.0
        assert any(entry["emergency"] for entry in report["rounds"])
        assert recorder.counters["watchdog.emergency_rounds"] == 1

    def test_disabled_watchdog_propagates_memory_error(self):
        _arm(
            FaultRule(site="simulator.gate", kind="memory_error", at_op=40)
        )
        with pytest.raises(MemoryError, match="injected"):
            self._run(MemoryWatchdog(enabled=False))

    def test_fidelity_floor_refuses_to_degrade(self):
        _arm(
            FaultRule(site="simulator.gate", kind="memory_error", at_op=40)
        )
        with pytest.raises(MemoryBudgetExceeded, match="floor"):
            self._run(
                MemoryWatchdog(emergency_fidelity=0.7, fidelity_floor=0.99)
            )

    def test_node_ceiling_rescues_without_any_injection(self):
        """The RSS/node watchdog path needs no fault plan: crossing the
        configured ceiling triggers emergency approximation rounds."""
        outcome = self._run(
            MemoryWatchdog(node_ceiling=30, emergency_fidelity=0.7)
        )
        emergencies = [r for r in outcome.stats.rounds if r.emergency]
        assert emergencies  # the ceiling tripped at least once
        assert all(r.removed_nodes > 0 for r in emergencies)
        assert 0.0 < outcome.stats.fidelity_estimate < 1.0

    def test_rss_ceiling_clears_once_rss_falls(self, monkeypatch):
        """The RSS ceiling reads *current* RSS: once a rescue brings it
        back under the ceiling, no further rescue fires (a peak reading
        could never fall, so every later growth step would trip it)."""
        rss = {"mb": 900.0, "reads": 0}

        def read_rss() -> float:
            rss["reads"] += 1
            return rss["mb"]

        real_round = DDSimulator._emergency_round

        def releasing_round(self, state, *args):
            shrunk, nodes = real_round(self, state, *args)
            if shrunk is not state:  # the rescue removed nodes
                rss["mb"] = 100.0
            return shrunk, nodes

        monkeypatch.setattr(simulator_module, "_current_rss_mb", read_rss)
        watchdog = MemoryWatchdog(rss_mb_ceiling=500.0, emergency_fidelity=0.7)
        stuck = self._run(watchdog)
        assert len([r for r in stuck.stats.rounds if r.emergency]) > 1

        monkeypatch.setattr(DDSimulator, "_emergency_round", releasing_round)
        reads_before = rss["reads"]
        outcome = self._run(watchdog)
        emergencies = [r for r in outcome.stats.rounds if r.emergency]
        assert len(emergencies) == 1
        # The ceiling kept being checked after the rescue released memory.
        assert rss["mb"] == 100.0
        assert rss["reads"] - reads_before > emergencies[0].op_index

    def test_current_rss_is_positive(self):
        assert simulator_module._current_rss_mb() > 0.0

    def test_memory_error_in_job_is_transient_and_retried(self, store):
        """Through the engine: a MemoryError classifies transient, so
        the job retries (and succeeds once the plan's shot is spent)."""
        _arm(
            FaultRule(site="engine.job", kind="memory_error", max_hits=1)
        )
        result = _engine(store).run(_spec())
        assert result.status == "completed"
        assert result.attempts == 2
