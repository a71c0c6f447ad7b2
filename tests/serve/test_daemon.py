"""Daemon tests: admission control, supervision, deadlines, drain.

Admission-policy tests drive :meth:`SimDaemon.handle_request` directly
(no sockets, no workers, no control loop) so every decision is
deterministic.  End-to-end tests run the real thing — forked workers,
Unix socket, control loop — via the ``run_daemon`` helper.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.faults import FaultPlan, FaultRule, arm
from repro.obs import recording
from repro.serve import CircuitBreaker, FidelityLadder, SimDaemon
from repro.serve.daemon import DRAINED_QUEUE_FILE
from repro.service.jobs import JobSpec

from .conftest import (
    LEGACY_PARKED_FILE,
    legacy_parked_submissions,
    run_daemon,
    write_parked_file,
)

FIDELITY_ARGS = (
    ("final_fidelity", 0.999),
    ("placement", "block:inverse_qft"),
    ("round_fidelity", 0.9),
)


def _spec(**kwargs) -> JobSpec:
    defaults = dict(circuit="builtin:shor_15_2")
    defaults.update(kwargs)
    return JobSpec(**defaults)


def _submit_message(spec: JobSpec, **extra) -> dict:
    message: dict = {"op": "submit", "spec": spec.to_dict()}
    message.update(extra)
    return message


class TestAdmission:
    """Policy decisions, driven synchronously without workers."""

    def test_full_queue_sheds_with_retry_after(self, store):
        daemon = SimDaemon(store, queue_capacity=2)
        for _ in range(2):
            assert daemon.handle_request(_submit_message(_spec()))["ok"]
        shed = daemon.handle_request(_submit_message(_spec()))
        assert not shed["ok"]
        assert shed["error"] == "shed"
        assert shed["retry_after"] > 0
        # The queue never grew past its bound.
        assert daemon.queue.depth == 2

    def test_open_breaker_fast_rejects_the_spec(self, store):
        breaker = CircuitBreaker(failure_threshold=1)
        daemon = SimDaemon(store, breaker=breaker)
        spec = _spec()
        breaker.record_failure(spec.content_hash())
        rejected = daemon.handle_request(_submit_message(spec))
        assert not rejected["ok"]
        assert rejected["error"] == "breaker_open"
        assert rejected["retry_after"] > 0
        # Other specs are unaffected.
        other = _spec(strategy="fidelity", strategy_args=FIDELITY_ARGS)
        assert daemon.handle_request(_submit_message(other))["ok"]

    def test_draining_daemon_rejects_submissions(self, store):
        daemon = SimDaemon(store)
        daemon.request_drain()
        rejected = daemon.handle_request(_submit_message(_spec()))
        assert rejected == {"ok": False, "error": "draining"}

    def test_bad_specs_are_rejected_not_queued(self, store):
        daemon = SimDaemon(store)
        missing = daemon.handle_request({"op": "submit"})
        assert not missing["ok"]
        bad = daemon.handle_request(
            {"op": "submit", "spec": {"circuit": "builtin:x", "bogus": 1}}
        )
        assert not bad["ok"] and bad["error"].startswith("bad spec")
        assert daemon.queue.depth == 0

    @pytest.mark.parametrize("max_seconds", ["5", float("nan"), -1])
    def test_a_bad_time_budget_is_a_bad_spec(self, store, max_seconds):
        daemon = SimDaemon(store)
        spec_doc = {**_spec().to_dict(), "max_seconds": max_seconds}
        bad = daemon.handle_request({"op": "submit", "spec": spec_doc})
        assert not bad["ok"]
        assert bad["error"].startswith("bad spec: max_seconds")
        assert daemon.queue.depth == 0

    @pytest.mark.parametrize(
        "field",
        [{"shots": 2.5}, {"shots": True}, {"checkpoint_interval": 2.5}],
    )
    def test_a_non_integer_count_is_a_bad_spec(self, store, field):
        daemon = SimDaemon(store)
        spec_doc = {**_spec().to_dict(), **field}
        with recording() as recorder:
            bad = daemon.handle_request({"op": "submit", "spec": spec_doc})
        assert not bad["ok"]
        (name,) = field
        assert bad["error"].startswith(f"bad spec: {name} must be an integer")
        assert recorder.counters["serve.rejected_bad_spec"] == 1
        assert daemon._jobs == {}
        assert daemon.queue.depth == 0

    def test_a_negative_seed_is_a_bad_spec(self, store):
        daemon = SimDaemon(store)
        spec_doc = {**_spec().to_dict(), "seed": -1, "shots": 4}
        with recording() as recorder:
            bad = daemon.handle_request({"op": "submit", "spec": spec_doc})
        assert not bad["ok"]
        assert bad["error"].startswith("bad spec: seed must be non-negative")
        assert recorder.counters["serve.rejected_bad_spec"] == 1
        assert daemon._jobs == {}
        assert daemon.queue.depth == 0

    def test_unknown_op_and_unknown_job(self, store):
        daemon = SimDaemon(store)
        assert not daemon.handle_request({"op": "explode"})["ok"]
        assert not daemon.handle_request(
            {"op": "status", "job_id": "j-999999"}
        )["ok"]

    def test_ladder_degrades_admissions_under_load(self, store):
        daemon = SimDaemon(store, queue_capacity=4)
        spec = _spec(strategy="fidelity", strategy_args=FIDELITY_ARGS)
        responses = [
            daemon.handle_request(_submit_message(spec)) for _ in range(4)
        ]
        assert [r["tier"] for r in responses] == [0, 0, 1, 1]
        assert [r["degraded"] for r in responses] == [
            False,
            False,
            True,
            True,
        ]
        # The degraded admissions run a *rewritten* spec: its lowered
        # f_final target is part of its cache identity.
        assert responses[2]["f_final_cap"] == 0.99
        assert responses[2]["job_hash"] != spec.content_hash()
        record = daemon._jobs[responses[2]["job_id"]]
        args = dict(record.submission.spec.strategy_args)
        assert args["final_fidelity"] == 0.99

    @pytest.mark.parametrize(
        "field", [{"priority": "high"}, {"hard_timeout": -1.0}]
    )
    def test_a_malformed_submit_leaves_no_record_behind(self, store, field):
        daemon = SimDaemon(store, queue_capacity=8)
        rejected = daemon.handle_request(_submit_message(_spec(), **field))
        assert rejected["error"].startswith("bad submit: ")
        assert daemon._jobs == {}
        assert daemon.queue.depth == 0

    def test_priority_is_honored_at_dispatch_order(self, store):
        daemon = SimDaemon(store, queue_capacity=8)
        low = daemon.handle_request(_submit_message(_spec(), priority=0))
        high = daemon.handle_request(_submit_message(_spec(), priority=5))
        first = daemon.queue.poll()
        assert first.job_id == high["job_id"]
        assert daemon.queue.poll().job_id == low["job_id"]


class TestDrainWithoutWorkers:
    """Drain bookkeeping, driven tick by tick."""

    def test_drain_parks_queued_jobs_for_the_next_start(self, store):
        daemon = SimDaemon(store, queue_capacity=8)
        ids = [
            daemon.handle_request(_submit_message(_spec(), priority=p))[
                "job_id"
            ]
            for p in (0, 3)
        ]
        daemon.request_drain()
        daemon._tick()
        assert daemon._stopped.is_set()
        for job_id in ids:
            assert daemon._jobs[job_id].status == "drained"
        path = os.path.join(store.root, "serve", DRAINED_QUEUE_FILE)
        with open(path, encoding="utf-8") as handle:
            parked = json.load(handle)
        assert len(parked) == 2

        # A fresh daemon on the same store re-admits the parked jobs.
        successor = SimDaemon(store, queue_capacity=8)
        successor._restore_drained_queue()
        assert successor.queue.depth == 2
        assert not os.path.exists(path)

    def test_restore_drops_a_bad_entry_alone(self, store):
        good = {"spec": _spec().to_dict(), "priority": 1, "soft_timeout": 2.0}
        bad = {"spec": _spec().to_dict(), "soft_timeout": "soon"}
        store.park_jobs(
            DRAINED_QUEUE_FILE.removesuffix(".json"), [good, bad, good]
        )
        daemon = SimDaemon(store, queue_capacity=8)
        daemon._restore_drained_queue()  # must not raise
        assert daemon.queue.depth == 2
        for record in daemon._jobs.values():
            submission = record.submission
            assert (submission.priority, submission.soft_timeout) == (1, 2.0)

    def test_restores_a_parked_file_with_every_key_written(self, store):
        write_parked_file(
            store, DRAINED_QUEUE_FILE.removesuffix(".json"), LEGACY_PARKED_FILE
        )
        daemon = SimDaemon(store, queue_capacity=8)
        daemon._restore_drained_queue()
        assert [record.submission for record in daemon._jobs.values()] == (
            legacy_parked_submissions()
        )
        assert daemon.queue.depth == 2

    def test_restore_tolerates_garbage_files(self, store):
        path = os.path.join(store.root, "serve", DRAINED_QUEUE_FILE)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        daemon = SimDaemon(store)
        daemon._restore_drained_queue()  # must not raise
        assert daemon.queue.depth == 0


class TestStealAndJobsOps:
    """The shard-side primitives the cluster router drives."""

    def test_steal_hands_over_the_longest_waiting_jobs(self, store):
        daemon = SimDaemon(store, queue_capacity=8, shard_id="s0")
        low = daemon.handle_request(
            _submit_message(_spec(seed=1), priority=0, tenant="acme")
        )
        high = daemon.handle_request(
            _submit_message(_spec(seed=2), priority=5)
        )
        response = daemon.handle_request({"op": "steal", "max_jobs": 1})
        assert response["shard"] == "s0"
        (payload,) = response["stolen"]
        # The low-priority job — the one that would wait longest here —
        # moves, with its full submission payload.
        assert payload["job_id"] == low["job_id"]
        assert payload["tenant"] == "acme"
        assert payload["priority"] == 0
        assert payload["spec"] == _spec(seed=1).to_dict()
        # The stolen record finalizes here: exactly one owner.
        assert daemon._jobs[low["job_id"]].status == "stolen"
        assert daemon._jobs[high["job_id"]].status == "queued"
        assert daemon.queue.depth == 1

    def test_steal_is_bounded_by_whats_queued(self, store):
        daemon = SimDaemon(store, queue_capacity=8)
        daemon.handle_request(_submit_message(_spec()))
        first = daemon.handle_request({"op": "steal", "max_jobs": 5})
        assert len(first["stolen"]) == 1
        again = daemon.handle_request({"op": "steal", "max_jobs": 5})
        assert again["stolen"] == []

    def test_jobs_op_reports_every_record(self, store):
        daemon = SimDaemon(store, queue_capacity=8, shard_id="s7")
        ids = [
            daemon.handle_request(
                _submit_message(_spec(seed=seed), tenant=tenant)
            )["job_id"]
            for seed, tenant in ((1, "acme"), (2, "beta"))
        ]
        response = daemon.handle_request({"op": "jobs"})
        assert response["shard"] == "s7"
        by_id = {job["job_id"]: job for job in response["jobs"]}
        assert set(by_id) == set(ids)
        assert by_id[ids[0]]["tenant"] == "acme"
        assert by_id[ids[1]]["tenant"] == "beta"
        assert all(
            job["status"] == "queued" for job in response["jobs"]
        )

    def test_metrics_breaks_down_tenants(self, store):
        daemon = SimDaemon(store, queue_capacity=8)
        daemon.handle_request(
            _submit_message(_spec(seed=1), tenant="acme")
        )
        daemon.handle_request(
            _submit_message(_spec(seed=2), tenant="acme")
        )
        daemon.handle_request(_submit_message(_spec(seed=3)))
        tenants = daemon.handle_request({"op": "metrics"})["tenants"]
        assert tenants["acme"] == {
            "queued": 2,
            "running": 0,
            "final": 0,
            "total": 2,
        }
        assert tenants["default"]["total"] == 1


class TestEndToEnd:
    def test_submit_wait_status_metrics(self, store):
        with run_daemon(store) as (daemon, client):
            spec = _spec(shots=16, seed=7, checkpoint_interval=10)
            accepted = client.submit(spec)
            assert accepted["tier"] == 0 and not accepted["degraded"]
            job = client.wait(accepted["job_id"], timeout=60.0)["job"]
            assert job["status"] == "completed"
            assert job["result"]["stats"]["fidelity_estimate"] == 1.0
            assert sum(job["result"]["counts"].values()) == 16
            status = client.status(accepted["job_id"])["job"]
            assert status["status"] == "completed"
            metrics = client.metrics()
            assert metrics["jobs_by_status"] == {"completed": 1}
            assert metrics["queue_depth"] == 0

    def test_second_submission_is_served_from_cache(self, store):
        with run_daemon(store) as (daemon, client):
            spec = _spec()
            first = client.wait(
                client.submit(spec)["job_id"], timeout=60.0
            )["job"]
            second = client.wait(
                client.submit(spec)["job_id"], timeout=60.0
            )["job"]
            assert not first["result"]["cached"]
            assert second["result"]["cached"]

    def test_drain_op_stops_the_daemon_cleanly(self, store):
        with run_daemon(store) as (daemon, client):
            job_id = client.submit(_spec())["job_id"]
            assert client.wait(job_id, timeout=60.0)["job"]["status"] == (
                "completed"
            )
            assert client.drain()["draining"]
            assert daemon._stopped.wait(30.0)
            # Every accepted job ended in a final state.
            for record in daemon._jobs.values():
                assert record.final


class TestDrainedQueueRestartEndToEnd:
    def test_parked_jobs_complete_on_the_next_daemon(self, store):
        """Zero-lost-jobs across a restart, end to end: jobs parked by
        a drain are re-admitted by the successor daemon and actually
        run to completion with their tenant intact."""
        predecessor = SimDaemon(store, queue_capacity=8)
        specs = [_spec(seed=71), _spec(seed=72)]
        for spec in specs:
            assert predecessor.handle_request(
                _submit_message(spec, tenant="acme")
            )["ok"]
        predecessor.request_drain()
        predecessor._tick()
        assert predecessor._stopped.is_set()

        with run_daemon(store) as (daemon, client):
            jobs = client.jobs()["jobs"]
            assert len(jobs) == 2
            assert {job["job_hash"] for job in jobs} == {
                spec.content_hash() for spec in specs
            }
            for job in jobs:
                final = client.wait(job["job_id"], timeout=60.0)["job"]
                assert final["status"] == "completed"
                assert final["tenant"] == "acme"
                assert (
                    final["result"]["stats"]["fidelity_estimate"] == 1.0
                )


class TestKilledWorker:
    def test_killed_worker_job_is_requeued_and_completes(
        self, store, tmp_path
    ):
        """Chaos acceptance: SIGKILL a worker mid-job; the supervisor
        replaces it and the job's retry produces the correct result.

        The kill rule's ``state_dir`` counter spans worker generations,
        so the fault fires exactly once."""
        arm(
            FaultPlan(
                rules=(
                    FaultRule(
                        site="engine.job", kind="kill", max_hits=1
                    ),
                ),
                state_dir=str(tmp_path / "counters"),
            )
        )
        with run_daemon(store, workers=2) as (daemon, client):
            job_id = client.submit(_spec())["job_id"]
            job = client.wait(job_id, timeout=120.0)["job"]
            assert job["status"] == "completed"
            assert job["attempts"] == 2
            assert any("disrupted" in event for event in job["events"])
            assert job["result"]["stats"]["fidelity_estimate"] == 1.0
            assert daemon.supervisor.restarts >= 1
            # The artifact passed its checksum verification on load.
            assert store.load_result(job["job_hash"])["stats"] == (
                job["result"]["stats"]
            )


class TestDeadlines:
    def test_soft_deadline_checkpoints_and_reports_deadline(self, store):
        with run_daemon(store) as (daemon, client):
            spec = _spec(checkpoint_interval=10)
            job_id = client.submit(spec, soft_timeout=0.0)["job_id"]
            job = client.wait(job_id, timeout=60.0)["job"]
            assert job["status"] == "deadline"
            # The partial stats carry the Lemma-1 budget spent so far.
            assert "fidelity_estimate" in job["result"]["stats"]
            # A fresh submission without a deadline finishes the work.
            retry = client.wait(
                client.submit(spec)["job_id"], timeout=60.0
            )["job"]
            assert retry["status"] == "completed"
            assert retry["result"]["stats"]["fidelity_estimate"] == 1.0

    def test_hard_deadline_kills_and_exhausts_attempts(self, store):
        with run_daemon(store, max_attempts=2) as (daemon, client):
            job_id = client.submit(
                _spec(circuit="builtin:shor_21_2"), hard_timeout=0.0
            )["job_id"]
            job = client.wait(job_id, timeout=120.0)["job"]
            assert job["status"] == "error"
            assert job["attempts"] == 2
            assert "hard deadline exceeded" in job["error"]
            assert daemon.supervisor.restarts >= 2


class TestDegradedTierCorrectness:
    def test_degraded_job_meets_its_degraded_f_final(self, store):
        """Acceptance: a tier-degraded job still satisfies its *lowered*
        fidelity target, verified against the dense statevector."""
        import numpy as np

        from repro.core.fidelity import fidelity_dense
        from repro.service.engine import execute_job

        ladder = FidelityLadder(tiers=((0.5, 0.9),))
        spec = _spec(
            circuit="builtin:shor_21_2",
            strategy="fidelity",
            strategy_args=FIDELITY_ARGS,
        )
        tiered = ladder.apply(spec, utilization=1.0)
        assert tiered.degraded and tiered.f_final_cap == 0.9

        degraded = execute_job(tiered.spec, store)
        assert degraded.status == "completed"
        exact = execute_job(
            _spec(circuit="builtin:shor_21_2"), store
        )
        assert exact.status == "completed"

        approx_vec = store.load_state(
            degraded.job_hash
        ).to_amplitudes()
        exact_vec = store.load_state(exact.job_hash).to_amplitudes()
        true_fidelity = fidelity_dense(
            np.asarray(exact_vec), np.asarray(approx_vec)
        )
        estimate = degraded.stats["fidelity_estimate"]
        # The run really did approximate ...
        assert degraded.stats["num_rounds"] >= 1
        assert estimate < 1.0
        # ... the estimate is honest (Lemma 1) ...
        assert true_fidelity == pytest.approx(estimate, abs=1e-9)
        # ... and the degraded target is met.
        assert true_fidelity >= 0.9 - 1e-9
