"""Cluster tests: membership, routing, failover, stealing, tenancy.

Router behavior is driven deterministically against in-memory fake
shards (the real :class:`ServeClient` is monkeypatched out at the
transport seam, so the ``cluster.rpc`` fault-injection site stays
live).  A final section runs the router against two real in-process
daemons over real sockets.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.faults import FaultPlan, FaultRule, arm
from repro.serve import ClusterRouter, Membership, ServeError
from repro.serve import router as router_module
from repro.serve.protocol import Submission
from repro.serve.router import CLUSTER_FINAL, ROUTER_DRAINED_FILE
from repro.service.jobs import JobSpec
from repro.service.store import ArtifactStore

from .conftest import (
    LEGACY_PARKED_FILE,
    legacy_parked_submissions,
    run_daemon,
    write_parked_file,
)


def _spec(**kwargs) -> JobSpec:
    defaults = dict(circuit="builtin:shor_15_2")
    defaults.update(kwargs)
    return JobSpec(**defaults)


def _specs_preferring(membership, shard_id: str, count: int) -> list[JobSpec]:
    """Distinct-hash specs whose rendezvous first choice is ``shard_id``.

    ``content_hash`` covers only the state-determining fields, so the
    specs are distinguished through ``strategy_args`` (seed/shots are
    deliberately not part of a spec's cache identity).
    """
    specs: list[JobSpec] = []
    nonce = 0
    while len(specs) < count:
        spec = _spec(strategy_args=(("variant", float(nonce)),))
        if membership.prefer(spec.content_hash())[0] == shard_id:
            specs.append(spec)
        nonce += 1
    return specs


def _submit(router, spec: JobSpec, **extra) -> dict:
    message: dict = {"op": "submit", "spec": spec.to_dict()}
    message.update(extra)
    return router.handle_request(message)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class FakeShard:
    """In-memory stand-in for one shard daemon's protocol surface."""

    def __init__(self, shard_id: str) -> None:
        self.shard_id = shard_id
        self.seq = 0
        self.jobs: dict[str, dict] = {}
        self.down = False
        self.reject: str | None = None
        self.draining = False
        self.submissions: list[dict] = []

    def handle(self, message: dict) -> dict:
        if self.down:
            raise ConnectionRefusedError(f"{self.shard_id} is down")
        op = message["op"]
        if op == "submit":
            self.submissions.append(message)
            if self.reject is not None:
                response: dict = {"ok": False, "error": self.reject}
                if self.reject == "breaker_open":
                    response["retry_after"] = 9.0
                return response
            self.seq += 1
            job_id = f"j-{self.seq:06d}"
            self.jobs[job_id] = {
                "job_id": job_id,
                "status": "queued",
                "spec": message["spec"],
                "tenant": message.get("tenant", "default"),
                "priority": message.get("priority", 0),
            }
            return {
                "ok": True,
                "job_id": job_id,
                "tier": 0,
                "f_final_cap": None,
                "degraded": False,
                "queue_depth": len(self.jobs),
            }
        if op == "jobs":
            return {
                "ok": True,
                "shard": self.shard_id,
                "jobs": [
                    {"job_id": job["job_id"], "status": job["status"]}
                    for job in self.jobs.values()
                ],
            }
        if op == "steal":
            stolen = []
            for job in self.jobs.values():
                if len(stolen) >= int(message["max_jobs"]):
                    break
                if job["status"] != "queued":
                    continue
                job["status"] = "stolen"
                stolen.append(
                    {
                        "job_id": job["job_id"],
                        "job_hash": "",
                        "spec": job["spec"],
                        "tenant": job["tenant"],
                        "priority": job["priority"],
                        "soft_timeout": None,
                        "hard_timeout": None,
                    }
                )
            return {"ok": True, "stolen": stolen, "queue_depth": 0}
        if op == "drain":
            self.draining = True
            return {"ok": True, "draining": True}
        if op == "metrics":
            return {
                "ok": True,
                "queue_depth": len(self.jobs),
                "queue_capacity": 8,
                "running": 0,
                "breaker_open": 0,
                "ladder_tier": 0,
                "utilization": 0.25,
                "tenants": {},
            }
        if op in ("status", "wait"):
            job = self.jobs.get(str(message.get("job_id")))
            if job is None:
                return {"ok": False, "error": "unknown job"}
            return {"ok": True, "job": dict(job)}
        raise AssertionError(f"fake shard got unexpected op {op!r}")


class FakeTransport:
    """Drop-in for ServeClient: routes requests to FakeShard objects."""

    registry: dict[str, FakeShard] = {}

    def __init__(self, socket_path=None, host="", port=0, timeout=None):
        self.socket_path = socket_path

    def request(self, message: dict, idempotent: bool = False) -> dict:
        response = FakeTransport.registry[self.socket_path].handle(message)
        if not response.get("ok"):
            raise ServeError(response)
        return response


@pytest.fixture
def fake_cluster(tmp_path, monkeypatch):
    """Build a router over in-memory fake shards."""

    def build(shard_ids, fail_threshold=2, **router_kwargs):
        monkeypatch.setattr(router_module, "ServeClient", FakeTransport)
        shards = {sid: FakeShard(sid) for sid in shard_ids}
        FakeTransport.registry = {
            f"/fake/{sid}.sock": shard for sid, shard in shards.items()
        }
        membership = Membership(
            [(sid, f"/fake/{sid}.sock") for sid in shard_ids],
            fail_threshold=fail_threshold,
        )
        router = ClusterRouter(
            ArtifactStore(str(tmp_path / "store")),
            membership,
            log=io.StringIO(),
            **router_kwargs,
        )
        return router, shards

    yield build
    FakeTransport.registry = {}


class TestMembership:
    def test_rendezvous_order_is_deterministic(self):
        pairs = [("s0", "/a"), ("s1", "/b"), ("s2", "/c")]
        first = Membership(pairs)
        second = Membership(list(reversed(pairs)))
        for job_hash in ("aa" * 32, "bb" * 32, "cc" * 32):
            order = first.prefer(job_hash)
            assert sorted(order) == ["s0", "s1", "s2"]
            assert order == second.prefer(job_hash)

    def test_losing_a_shard_preserves_the_rest_of_the_order(self):
        membership = Membership(
            [("s0", "/a"), ("s1", "/b"), ("s2", "/c")]
        )
        job_hash = "ab" * 32
        full = membership.prefer(job_hash)
        for _ in range(membership.fail_threshold):
            membership.record_failure(full[0])
        assert membership.route(job_hash) == full[1:]

    def test_state_machine_up_suspect_down_recovered(self):
        membership = Membership([("s0", "/a")], fail_threshold=3)
        info = membership.get("s0")
        assert not membership.record_failure("s0")
        assert info.state == "suspect" and info.routable
        assert not membership.record_failure("s0")
        assert membership.record_failure("s0")  # the down transition
        assert info.state == "down" and not info.routable
        assert not membership.record_failure("s0")  # already down
        assert membership.record_success("s0")  # recovery edge
        assert info.state == "up" and info.failures == 0
        assert not membership.record_success("s0")

    def test_draining_is_sticky_against_probes(self):
        membership = Membership([("s0", "/a")], fail_threshold=1)
        membership.mark_draining("s0")
        assert not membership.record_success("s0")
        assert not membership.record_failure("s0")
        assert membership.get("s0").state == "draining"
        assert membership.route("ab" * 32) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            Membership([])
        with pytest.raises(ValueError):
            Membership([("s0", "/a"), ("s0", "/b")])
        with pytest.raises(ValueError):
            Membership([("s0", "/a")], fail_threshold=0)


class TestRouterAdmission:
    def test_submit_places_on_the_rendezvous_preference(
        self, fake_cluster
    ):
        router, shards = fake_cluster(["s0", "s1"])
        spec = _spec(seed=1)
        preferred = router.membership.prefer(spec.content_hash())[0]
        response = _submit(router, spec, tenant="acme", priority=4)
        assert response["ok"]
        assert response["job_id"] == "c-000001"
        assert response["shard"] == preferred
        (message,) = shards[preferred].submissions
        assert message["tenant"] == "acme"
        assert message["priority"] == 4
        events = router.store.read_ownership_log(spec.content_hash())
        assert [e["event"] for e in events] == ["assigned"]
        assert events[0]["shard"] == preferred

    def test_placement_is_sticky_per_spec(self, fake_cluster):
        router, _ = fake_cluster(["s0", "s1", "s2"])
        spec = _spec(seed=2)
        first = _submit(router, spec)["shard"]
        second = _submit(router, spec)["shard"]
        assert first == second

    def test_unreachable_preference_fails_over_at_submit(
        self, fake_cluster
    ):
        router, shards = fake_cluster(["s0", "s1"])
        spec = _spec(seed=3)
        order = router.membership.prefer(spec.content_hash())
        shards[order[0]].down = True
        response = _submit(router, spec)
        assert response["ok"] and response["shard"] == order[1]
        assert router.membership.get(order[0]).failures == 1

    def test_all_shards_shedding_sheds_with_no_record(
        self, fake_cluster
    ):
        router, shards = fake_cluster(["s0", "s1"])
        for shard in shards.values():
            shard.reject = "shed"
        response = _submit(router, _spec())
        assert response == {
            "ok": False,
            "error": "shed",
            "retry_after": 1.0,
        }
        assert router._jobs == {}

    def test_breaker_rejection_is_forwarded_verbatim(self, fake_cluster):
        router, shards = fake_cluster(["s0", "s1"])
        for shard in shards.values():
            shard.reject = "breaker_open"
        response = _submit(router, _spec(seed=4))
        assert response["error"] == "breaker_open"
        assert response["retry_after"] == 9.0
        (job,) = router._jobs.values()
        assert job.status == "error" and "breaker_open" in job.error
        # Only the first preference was consulted; trying the rest
        # would just trip their breakers too.
        assert sum(len(s.submissions) for s in shards.values()) == 1

    def test_draining_cluster_rejects_submissions(self, fake_cluster):
        router, _ = fake_cluster(["s0"])
        router.request_drain()
        assert _submit(router, _spec()) == {
            "ok": False,
            "error": "draining",
        }

    def test_bad_specs_are_rejected(self, fake_cluster):
        router, _ = fake_cluster(["s0"])
        assert not router.handle_request({"op": "submit"})["ok"]
        bad = router.handle_request(
            {"op": "submit", "spec": {"circuit": "builtin:x", "bogus": 1}}
        )
        assert bad["error"].startswith("bad spec")
        assert not router.handle_request({"op": "explode"})["ok"]

    def test_ping_reports_the_cluster_shape(self, fake_cluster):
        router, _ = fake_cluster(["s0", "s1"])
        response = router.handle_request({"op": "ping"})
        assert response["cluster"] is True
        assert set(response["shards"]) == {"s0", "s1"}
        assert response["shards"]["s0"]["state"] == "up"


class TestTenantGovernance:
    def test_quota_bounds_in_flight_jobs_per_tenant(self, fake_cluster):
        router, shards = fake_cluster(["s0"], quotas={"acme": 2})
        assert _submit(router, _spec(seed=10), tenant="acme")["ok"]
        assert _submit(router, _spec(seed=11), tenant="acme")["ok"]
        rejected = _submit(router, _spec(seed=12), tenant="acme")
        assert rejected["error"] == "quota"
        assert rejected["in_flight"] == 2 and rejected["limit"] == 2
        assert rejected["retry_after"] == 1.0
        # Other tenants are not constrained by acme's quota.
        assert _submit(router, _spec(seed=13), tenant="beta")["ok"]

    def test_quota_frees_as_jobs_reach_final_states(self, fake_cluster):
        router, shards = fake_cluster(["s0"], quotas={"acme": 1})
        assert _submit(router, _spec(seed=10), tenant="acme")["ok"]
        assert _submit(router, _spec(seed=11), tenant="acme")[
            "error"
        ] == "quota"
        for job in shards["s0"].jobs.values():
            job["status"] = "completed"
        router._tick()
        assert _submit(router, _spec(seed=12), tenant="acme")["ok"]

    def test_a_malformed_submit_leaves_no_record_behind(
        self, fake_cluster
    ):
        router, shards = fake_cluster(["s0"], quotas={"acme": 1})
        rejected = _submit(
            router, _spec(seed=10), tenant="acme", soft_timeout="soon"
        )
        assert rejected["error"].startswith("bad submit: soft_timeout")
        assert shards["s0"].submissions == []
        assert _submit(router, _spec(seed=11), tenant="acme")["ok"]

    def test_rate_limit_is_a_deterministic_token_bucket(
        self, fake_cluster
    ):
        router, _ = fake_cluster(["s0"], rate_limits={"*": (1.0, 2.0)})
        clock = FakeClock()
        router.clock = clock
        assert _submit(router, _spec(seed=20), tenant="acme")["ok"]
        assert _submit(router, _spec(seed=21), tenant="acme")["ok"]
        rejected = _submit(router, _spec(seed=22), tenant="acme")
        assert rejected["error"] == "rate_limited"
        assert rejected["retry_after"] == pytest.approx(1.0)
        clock.now += 1.0  # one token refilled
        assert _submit(router, _spec(seed=23), tenant="acme")["ok"]
        assert _submit(router, _spec(seed=24), tenant="acme")[
            "error"
        ] == "rate_limited"


class TestFailover:
    def _place_on(self, router, shards, shard_id, count):
        specs = _specs_preferring(router.membership, shard_id, count)
        return [
            _submit(router, spec)["job_id"] for spec in specs
        ]

    def test_down_shard_jobs_readmit_to_survivors(self, fake_cluster):
        router, shards = fake_cluster(["s0", "s1"], fail_threshold=2)
        ids = self._place_on(router, shards, "s0", 3)
        shards["s0"].down = True
        router._tick()  # suspect
        router._tick()  # down -> fail over
        for cluster_id in ids:
            job = router._jobs[cluster_id]
            assert job.shard_id == "s1"
            assert job.status == "queued"
            assert job.readmissions == 1
            assert job.history[-1] == "readmitted to s1"
        assert router.membership.get("s0").state == "down"
        # The owners map points every moved job at s1 only.
        assert all(key[0] == "s1" for key in router._owners)
        events = router.store.read_ownership_log()
        assert (
            sum(1 for e in events if e["event"] == "readmitted") == 3
        )

    def test_reports_from_an_ex_owner_are_ignored(self, fake_cluster):
        router, shards = fake_cluster(["s0", "s1"], fail_threshold=1)
        (cluster_id,) = self._place_on(router, shards, "s0", 1)
        old_copy = next(iter(shards["s0"].jobs))
        shards["s0"].down = True
        router._tick()  # down + failover to s1
        assert router._jobs[cluster_id].shard_id == "s1"
        # The ex-owner comes back and finishes its orphaned copy.
        shards["s0"].down = False
        shards["s0"].jobs[old_copy]["status"] = "completed"
        router._tick()
        assert router.membership.get("s0").state == "up"
        assert router._jobs[cluster_id].status == "queued"  # unchanged
        # Only the current owner's report finalizes the cluster job.
        for job in shards["s1"].jobs.values():
            job["status"] = "completed"
        router._tick()
        assert router._jobs[cluster_id].status == "completed"

    def test_readmission_budget_abandons_cursed_jobs(self, fake_cluster):
        router, shards = fake_cluster(
            ["s0", "s1"], fail_threshold=1, max_readmissions=1
        )
        (cluster_id,) = self._place_on(router, shards, "s0", 1)
        shards["s0"].down = True
        router._tick()
        job = router._jobs[cluster_id]
        assert job.shard_id == "s1" and job.readmissions == 1
        shards["s1"].down = True
        shards["s0"].down = False
        router._tick()
        assert job.status == "error"
        assert "abandoned after 1 re-admissions" in job.error

    def _finish_then_kill_owner(self, router, shards, status):
        (cluster_id,) = self._place_on(router, shards, "s0", 1)
        for job in shards["s0"].jobs.values():
            job["status"] = status
        router._tick()  # the router mirrors the final status
        assert router._jobs[cluster_id].status == status
        shards["s0"].down = True
        router._tick()  # s0 down; a final job is not failed over
        assert router.membership.get("s0").state == "down"
        return cluster_id

    def test_wait_reaches_a_completed_job_whose_owner_died(
        self, fake_cluster
    ):
        router, shards = fake_cluster(["s0", "s1"], fail_threshold=1)
        cluster_id = self._finish_then_kill_owner(router, shards, "completed")
        # The survivor finds the result in the shared store: its copy
        # completes on admission, as a cache hit does.
        survivor = shards["s1"]
        handle = survivor.handle

        def cache_hit(message: dict) -> dict:
            response = handle(message)
            if message["op"] == "submit":
                survivor.jobs[response["job_id"]]["status"] = "completed"
            return response

        survivor.handle = cache_hit
        response = router.handle_request(
            {"op": "wait", "job_id": cluster_id, "timeout": 2.0}
        )
        assert response["ok"], response
        job = response["job"]
        assert job["status"] == "completed"
        assert job["shard"] == "s1"
        assert job["readmissions"] == 1
        assert job["history"][-1] == "readmitted to s1"
        assert router._jobs[cluster_id].status == "completed"

    def test_wait_on_an_interrupted_job_whose_owner_died(
        self, fake_cluster
    ):
        router, shards = fake_cluster(["s0", "s1"], fail_threshold=1)
        cluster_id = self._finish_then_kill_owner(router, shards, "deadline")
        response = router.handle_request(
            {"op": "wait", "job_id": cluster_id, "timeout": 2.0}
        )
        assert response["ok"], response
        assert response["job"]["status"] == "deadline"
        assert response["job"]["readmissions"] == 0
        assert not shards["s1"].submissions

    def test_no_routable_shard_keeps_the_job_orphaned(self, fake_cluster):
        router, shards = fake_cluster(["s0", "s1"], fail_threshold=1)
        (cluster_id,) = self._place_on(router, shards, "s0", 1)
        shards["s0"].down = True
        shards["s1"].down = True
        router._tick()
        job = router._jobs[cluster_id]
        assert job.status == "orphaned"  # parked, not lost
        # Survivor comes back: the next tick re-admits.
        shards["s1"].down = False
        router._tick()
        assert job.status == "queued" and job.shard_id == "s1"


class TestWorkStealing:
    def test_hot_shard_sheds_to_the_cool_one(self, fake_cluster):
        router, shards = fake_cluster(
            ["s0", "s1"], steal_threshold=4, steal_batch=2
        )
        specs = _specs_preferring(router.membership, "s0", 5)
        for spec in specs:
            assert _submit(router, spec)["ok"]
        assert len(shards["s0"].jobs) == 5
        router._tick()
        moved = [
            job
            for job in router._jobs.values()
            if job.shard_id == "s1"
        ]
        assert len(moved) == 2
        for job in moved:
            assert "stolen from s0" in job.history
            assert job.history[-1] == "readmitted to s1"
            assert job.readmissions == 1
        # The hot shard finalized its copies as stolen (one owner).
        stolen = [
            j
            for j in shards["s0"].jobs.values()
            if j["status"] == "stolen"
        ]
        assert len(stolen) == 2

    def test_balanced_shards_do_not_steal(self, fake_cluster):
        router, shards = fake_cluster(
            ["s0", "s1"], steal_threshold=4, steal_batch=2
        )
        for spec in _specs_preferring(router.membership, "s0", 3):
            _submit(router, spec)
        router._tick()
        assert all(
            job.readmissions == 0 for job in router._jobs.values()
        )


class TestSingleShardDrain:
    def test_drain_shard_redistributes_its_queue(self, fake_cluster):
        router, shards = fake_cluster(["s0", "s1"])
        for spec in _specs_preferring(router.membership, "s0", 2):
            _submit(router, spec)
        response = router.handle_request({"op": "drain", "shard": "s0"})
        assert response["draining"] == "s0"
        assert response["redistributed"] == 2
        assert shards["s0"].draining
        assert router.membership.get("s0").state == "draining"
        for job in router._jobs.values():
            assert job.shard_id == "s1" and job.status == "queued"
        # New work no longer routes to the draining shard.
        spec = _specs_preferring(router.membership, "s0", 3)[-1]
        assert _submit(router, spec)["shard"] == "s1"

    def test_drained_in_flight_jobs_resume_elsewhere(self, fake_cluster):
        router, shards = fake_cluster(["s0", "s1"])
        (spec,) = _specs_preferring(router.membership, "s0", 1)
        cluster_id = _submit(router, spec)["job_id"]
        shard_copy = next(iter(shards["s0"].jobs.values()))
        shard_copy["status"] = "running"  # steal must skip it
        assert router.handle_request({"op": "drain", "shard": "s0"})[
            "redistributed"
        ] == 0
        # The shard checkpoints and parks the job as part of its drain.
        shard_copy["status"] = "drained"
        router._tick()
        job = router._jobs[cluster_id]
        assert job.shard_id == "s1" and job.status == "queued"
        assert "orphaned by draining shard s0" in job.history

    def test_a_malformed_stolen_job_is_dropped_alone(self, fake_cluster):
        """Shard-local jobs are adopted from the steal answer; the shard
        has already finalized them as stolen, so one bad entry must not
        cost the ones after it."""
        router, shards = fake_cluster(["s0", "s1"])
        for seq, priority in ((1, 1), (2, "high"), (3, 1)):
            job_id = f"j-{seq:06d}"
            shards["s0"].jobs[job_id] = {
                "job_id": job_id,
                "status": "queued",
                "spec": _spec(seed=seq).to_dict(),
                "tenant": "acme",
                "priority": priority,
            }
        response = router.handle_request({"op": "drain", "shard": "s0"})
        assert response["redistributed"] == 2
        assert [job.submission for job in router._jobs.values()] == [
            Submission(_spec(seed=seq), "acme", 1) for seq in (1, 3)
        ]
        for job in router._jobs.values():
            assert job.shard_id == "s1" and job.status == "queued"
            assert "adopted from s0" in job.history
        assert [m["spec"]["seed"] for m in shards["s1"].submissions] == [1, 3]
        log = router._log_stream.getvalue()
        assert "dropping malformed stolen job: bad submit: priority" in log

    def test_unknown_shard_is_an_error(self, fake_cluster):
        router, _ = fake_cluster(["s0"])
        response = router.handle_request(
            {"op": "drain", "shard": "nope"}
        )
        assert not response["ok"] and "unknown shard" in response["error"]


class TestClusterDrain:
    def test_drain_spans_every_shard_and_stops_when_quiet(
        self, fake_cluster
    ):
        router, shards = fake_cluster(["s0", "s1"])
        _submit(router, _spec(seed=30))
        router.request_drain()
        router._tick()
        assert all(shard.draining for shard in shards.values())
        assert not router._stopped.is_set()  # still busy
        for shard in shards.values():
            for job in shard.jobs.values():
                job["status"] = "completed"
        router._tick()
        assert router._stopped.is_set()

    def test_down_shard_jobs_are_not_readmitted_mid_drain(
        self, fake_cluster
    ):
        router, shards = fake_cluster(["s0", "s1"], fail_threshold=1)
        specs = _specs_preferring(router.membership, "s0", 1)
        cluster_id = _submit(router, specs[0])["job_id"]
        router.request_drain()
        shards["s0"].down = True
        router._tick()
        # Draining cluster: the job stays put (its shard's own drain
        # parks it durably); re-admission would race the shutdown.
        assert router._jobs[cluster_id].shard_id == "s0"


class TestOrphanPersistence:
    def test_unowned_jobs_park_at_shutdown_and_restore(
        self, fake_cluster, tmp_path
    ):
        router, shards = fake_cluster(["s0", "s1"], fail_threshold=1)
        spec = _specs_preferring(router.membership, "s0", 1)[0]
        _submit(router, spec, tenant="acme", priority=2)
        shards["s0"].down = True
        shards["s1"].down = True
        router._tick()
        router.shutdown()
        path = os.path.join(
            router.store.root, "serve", ROUTER_DRAINED_FILE
        )
        with open(path, encoding="utf-8") as handle:
            (parked,) = json.load(handle)
        assert parked["spec"] == spec.to_dict()
        assert parked["tenant"] == "acme"
        assert parked["priority"] == 2

        # A successor router over the same store re-admits the job.
        shards["s0"].down = False
        shards["s1"].down = False
        successor = ClusterRouter(
            router.store,
            Membership(
                [("s0", "/fake/s0.sock"), ("s1", "/fake/s1.sock")]
            ),
            log=io.StringIO(),
        )
        successor._restore_orphans()
        assert not os.path.exists(path)
        (job,) = successor._jobs.values()
        assert job.status == "orphaned"
        assert job.submission.tenant == "acme"
        assert job.submission.priority == 2
        assert "restored from parked-job file" in job.history
        successor._tick()
        assert job.status == "queued" and job.shard_id

    def test_restore_drops_a_bad_entry_alone(self, fake_cluster):
        router, _ = fake_cluster(["s0"])
        spec = JobSpec(circuit="builtin:shor_15_2").to_dict()
        good = {"spec": spec, "tenant": "acme", "priority": 2}
        bad = {"spec": spec, "tenant": "acme", "priority": "high"}
        router.store.park_jobs(router._orphan_name(), [good, bad, good])
        router._restore_orphans()  # must not raise
        jobs = list(router._jobs.values())
        assert len(jobs) == 2
        assert all(job.submission.priority == 2 for job in jobs)
        assert all(job.status == "orphaned" for job in jobs)

    def test_restores_a_parked_file_with_every_key_written(
        self, fake_cluster
    ):
        router, _ = fake_cluster(["s0"])
        write_parked_file(
            router.store, router._orphan_name(), LEGACY_PARKED_FILE
        )
        router._restore_orphans()
        jobs = list(router._jobs.values())
        assert [job.submission for job in jobs] == legacy_parked_submissions()
        assert all(job.status == "orphaned" for job in jobs)

    def test_restore_tolerates_garbage_files(self, fake_cluster):
        router, _ = fake_cluster(["s0"])
        path = router.store.parked_jobs_path(router._orphan_name())
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        router._restore_orphans()  # must not raise
        assert router._jobs == {}


class TestStatusAndWait:
    def test_status_merges_cluster_identity_over_the_shard_doc(
        self, fake_cluster
    ):
        router, shards = fake_cluster(["s0", "s1"])
        spec = _spec(seed=40)
        accepted = _submit(router, spec)
        response = router.handle_request(
            {"op": "status", "job_id": accepted["job_id"]}
        )
        job = response["job"]
        assert job["job_id"] == accepted["job_id"]
        assert job["shard"] == accepted["shard"]
        assert job["shard_job_id"].startswith("j-")
        assert job["readmissions"] == 0

    def test_status_of_an_unowned_job_is_served_locally(
        self, fake_cluster
    ):
        router, shards = fake_cluster(["s0", "s1"], fail_threshold=1)
        spec = _specs_preferring(router.membership, "s0", 1)[0]
        cluster_id = _submit(router, spec)["job_id"]
        shards["s0"].down = True
        shards["s1"].down = True
        router._tick()
        response = router.handle_request(
            {"op": "status", "job_id": cluster_id}
        )
        assert response["ok"]
        assert response["job"]["status"] == "orphaned"

    def test_wait_returns_the_final_merged_document(self, fake_cluster):
        router, shards = fake_cluster(["s0"])
        cluster_id = _submit(router, _spec(seed=41))["job_id"]
        for job in shards["s0"].jobs.values():
            job["status"] = "completed"
        response = router.handle_request(
            {"op": "wait", "job_id": cluster_id, "timeout": 5.0}
        )
        assert response["job"]["status"] == "completed"
        assert response["job"]["job_id"] == cluster_id
        assert router._jobs[cluster_id].status == "completed"

    def test_wait_times_out_with_the_current_document(
        self, fake_cluster
    ):
        router, _ = fake_cluster(["s0"])
        cluster_id = _submit(router, _spec(seed=42))["job_id"]
        response = router.handle_request(
            {"op": "wait", "job_id": cluster_id, "timeout": 0.05}
        )
        assert not response["ok"]
        assert response["error"] == "wait_timeout"
        assert response["job"]["status"] == "queued"

    def test_unknown_jobs_are_errors(self, fake_cluster):
        router, _ = fake_cluster(["s0"])
        for op in ("status", "wait"):
            assert not router.handle_request(
                {"op": op, "job_id": "c-999999"}
            )["ok"]


class TestClusterMetrics:
    def test_metrics_aggregates_shards_and_tenants(self, fake_cluster):
        router, shards = fake_cluster(
            ["s0", "s1"], quotas={"acme": 5}
        )
        _submit(router, _spec(seed=50), tenant="acme")
        _submit(router, _spec(seed=51), tenant="acme")
        _submit(router, _spec(seed=52))
        response = router.handle_request({"op": "metrics"})
        assert response["cluster"] is True
        assert set(response["shards"]) == {"s0", "s1"}
        for entry in response["shards"].values():
            assert entry["state"] == "up"
            assert entry["queue_capacity"] == 8
            assert entry["utilization"] == 0.25
        acme = response["tenants"]["acme"]
        assert acme["total"] == 2 and acme["queued"] == 2
        assert acme["quota"] == 5
        assert response["tenants"]["default"]["total"] == 1
        assert response["jobs_by_status"] == {"queued": 3}

    def test_metrics_surfaces_unreachable_shards(self, fake_cluster):
        router, shards = fake_cluster(["s0", "s1"])
        shards["s1"].down = True
        response = router.handle_request({"op": "metrics"})
        assert response["shards"]["s0"]["queue_capacity"] == 8
        assert "utilization" not in response["shards"]["s1"]


class TestNetworkFaults:
    """Seeded faults at the ``cluster.rpc`` site drive real failover."""

    def _arm(self, kind: str, max_hits: int = 1, **args) -> None:
        arm(
            FaultPlan(
                rules=(
                    FaultRule(
                        site="cluster.rpc",
                        kind=kind,
                        max_hits=max_hits,
                        args=args,
                    ),
                ),
            )
        )

    def test_conn_refused_fails_over_to_the_next_preference(
        self, fake_cluster
    ):
        router, shards = fake_cluster(["s0", "s1"])
        spec = _spec(seed=60)
        order = router.membership.prefer(spec.content_hash())
        self._arm("conn_refused", max_hits=1)
        response = _submit(router, spec)
        assert response["ok"] and response["shard"] == order[1]
        assert router.membership.get(order[0]).state == "suspect"

    def test_partial_write_is_transient_not_fatal(self, fake_cluster):
        router, shards = fake_cluster(["s0", "s1"])
        spec = _spec(seed=61)
        order = router.membership.prefer(spec.content_hash())
        self._arm("partial_write", max_hits=1)
        response = _submit(router, spec)
        assert response["ok"] and response["shard"] == order[1]
        assert router.membership.get(order[0]).failures == 1

    def test_slow_rpc_delays_but_succeeds(self, fake_cluster):
        router, _ = fake_cluster(["s0", "s1"])
        spec = _spec(seed=62)
        order = router.membership.prefer(spec.content_hash())
        self._arm("slow", max_hits=1, delay_seconds=0.0)
        response = _submit(router, spec)
        assert response["ok"] and response["shard"] == order[0]
        assert all(
            info.failures == 0 for info in router.membership
        )


class TestEndToEndCluster:
    """The router against two real daemons over real sockets."""

    def test_route_wait_and_drain_across_real_shards(self, store):
        with run_daemon(store, shard_id="s0") as (d0, _c0):
            with run_daemon(store, shard_id="s1") as (d1, _c1):
                membership = Membership(
                    [
                        ("s0", d0.socket_path),
                        ("s1", d1.socket_path),
                    ]
                )
                router = ClusterRouter(
                    store, membership, log=io.StringIO()
                )
                accepted = [
                    _submit(router, _spec(seed=seed))
                    for seed in range(3)
                ]
                assert all(r["ok"] for r in accepted)
                for response in accepted:
                    job = router.handle_request(
                        {
                            "op": "wait",
                            "job_id": response["job_id"],
                            "timeout": 60.0,
                        }
                    )["job"]
                    assert job["status"] == "completed"
                    assert (
                        job["result"]["stats"]["fidelity_estimate"]
                        == 1.0
                    )
                    assert job["shard"] in ("s0", "s1")
                # The supervision tick syncs final statuses into the
                # router mirror and a cluster drain reaches every shard.
                router._tick()
                assert all(
                    job.status in CLUSTER_FINAL
                    for job in router._jobs.values()
                )
                router.request_drain()
                router._tick()
                assert d0._stopped.wait(30.0)
                assert d1._stopped.wait(30.0)

    def test_single_shard_drain_carries_every_submission_field(
        self, store, monkeypatch
    ):
        """Jobs queued on s0 (its dispatch held) move to s1 with their
        tenant, priority and timeouts: two placed by the router, one
        submitted to s0 directly and adopted from the steal answer."""
        with run_daemon(store, shard_id="s0") as (d0, c0):
            monkeypatch.setattr(d0, "_dispatch", lambda: None)
            with run_daemon(store, shard_id="s1") as (d1, _c1):
                membership = Membership(
                    [
                        ("s0", d0.socket_path),
                        ("s1", d1.socket_path),
                    ]
                )
                router = ClusterRouter(
                    store, membership, log=io.StringIO()
                )
                fidelity_specs = (
                    _spec(
                        strategy="fidelity",
                        strategy_args=(
                            ("final_fidelity", 0.99 - nonce / 1000),
                            ("round_fidelity", 0.999),
                        ),
                    )
                    for nonce in range(100)
                )
                placed = [
                    spec
                    for spec in fidelity_specs
                    if membership.prefer(spec.content_hash())[0] == "s0"
                ][:2]
                expected = [
                    Submission(placed[0], "acme", 4, 30.0, 60.0),
                    Submission(placed[1], "beta", -1, None, 45.0),
                ]
                for submission in expected:
                    accepted = router.handle_request(
                        {"op": "submit", **submission.to_message()}
                    )
                    assert accepted["shard"] == "s0"
                local = Submission(_spec(seed=9), "gamma", 2, 20.0, None)
                c0.submit(
                    local.spec,
                    tenant=local.tenant,
                    priority=local.priority,
                    soft_timeout=local.soft_timeout,
                )
                expected.append(local)
                moved = router.handle_request({"op": "drain", "shard": "s0"})
                assert moved["redistributed"] == 3
                assert d0._stopped.wait(30.0)
                by_hash = {s.spec.content_hash(): s for s in expected}
                for job in list(router._jobs.values()):
                    assert job.shard_id == "s1"
                    assert job.submission == by_hash[job.job_hash]
                    done = router.handle_request(
                        {
                            "op": "wait",
                            "job_id": job.cluster_id,
                            "timeout": 60.0,
                        }
                    )["job"]
                    assert done["status"] == "completed", done
                    record = d1._jobs[job.shard_job_id]
                    assert record.submission == by_hash[job.job_hash]

    def test_checkpoint_resumes_across_shards_with_same_fidelity(
        self, store
    ):
        """A deadline-interrupted job checkpoints on one shard and a
        re-submission *on the other shard* resumes it to the same
        final fidelity as an uninterrupted run (Lemma 1 composes
        across processes through the shared store)."""
        spec = _spec(checkpoint_interval=10)
        with run_daemon(store, shard_id="s0") as (d0, c0):
            interrupted = c0.wait(
                c0.submit(spec, soft_timeout=0.0)["job_id"],
                timeout=60.0,
            )["job"]
            assert interrupted["status"] == "deadline"
        checkpoint = store.load_checkpoint(spec.content_hash())
        assert checkpoint is not None
        with run_daemon(store, shard_id="s1") as (d1, c1):
            resumed = c1.wait(
                c1.submit(spec)["job_id"], timeout=60.0
            )["job"]
            assert resumed["status"] == "completed"
            # The engine reports resumed_at as ``start_op_index or
            # None`` -- a checkpoint taken before op 0 resumes
            # indistinguishably from a fresh run.
            assert resumed["result"]["resumed_at"] == (
                checkpoint.next_op_index or None
            )
            assert (
                resumed["result"]["stats"]["fidelity_estimate"] == 1.0
            )
