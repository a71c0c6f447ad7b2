"""Tests for the fault injector: matching, execution, arming."""

from __future__ import annotations

import errno
import json
import multiprocessing
import os

import pytest

from repro.faults import injector as injector_module
from repro.faults.errors import (
    PermanentFault,
    StaleReplicaFault,
    TransientFault,
)
from repro.faults.injector import (
    FaultInjector,
    arm,
    disarm,
    get_injector,
    inject,
)
from repro.faults.plan import FaultPlan, FaultRule


def _plan(*rules: FaultRule, **kwargs) -> FaultPlan:
    return FaultPlan(rules=tuple(rules), **kwargs)


class TestMatching:
    def test_other_sites_do_not_fire(self):
        injector = FaultInjector(
            _plan(FaultRule(site="engine.job", kind="transient"))
        )
        injector.fire("store.put_result")
        assert injector.fired == []

    def test_kind_raises_matching_exception(self):
        for kind, expected in [
            ("io_error", OSError),
            ("memory_error", MemoryError),
            ("transient", TransientFault),
            ("permanent", PermanentFault),
        ]:
            injector = FaultInjector(
                _plan(FaultRule(site="engine.job", kind=kind))
            )
            with pytest.raises(expected, match="injected"):
                injector.fire("engine.job")

    def test_at_op_only_fires_on_that_operation(self):
        injector = FaultInjector(
            _plan(
                FaultRule(site="simulator.gate", kind="transient", at_op=5)
            )
        )
        for op_index in range(5):
            injector.fire("simulator.gate", op_index=op_index)
        with pytest.raises(TransientFault):
            injector.fire("simulator.gate", op_index=5)

    def test_after_hits_skips_a_warmup_window(self):
        injector = FaultInjector(
            _plan(
                FaultRule(site="engine.job", kind="transient", after_hits=2)
            )
        )
        injector.fire("engine.job")
        injector.fire("engine.job")
        with pytest.raises(TransientFault):
            injector.fire("engine.job")

    def test_max_hits_bounds_total_firings(self):
        injector = FaultInjector(
            _plan(FaultRule(site="engine.job", kind="transient", max_hits=2))
        )
        for _ in range(2):
            with pytest.raises(TransientFault):
                injector.fire("engine.job")
        injector.fire("engine.job")  # third visit: exhausted, no fire
        assert len(injector.fired) == 2

    def test_fired_records_context(self):
        injector = FaultInjector(
            _plan(FaultRule(site="simulator.gate", kind="transient"))
        )
        with pytest.raises(TransientFault):
            injector.fire("simulator.gate", op_index=3, gate="h")
        (record,) = injector.fired
        assert record.site == "simulator.gate"
        assert record.visit == 1
        assert record.context == {"op_index": 3, "gate": "h"}


class TestFileDamage:
    def test_truncate_shrinks_the_context_file(self, tmp_path):
        target = tmp_path / "artifact.json"
        target.write_bytes(b"x" * 100)
        injector = FaultInjector(
            _plan(
                FaultRule(
                    site="store.save_checkpoint",
                    kind="truncate",
                    args={"keep_bytes": 10},
                )
            )
        )
        injector.fire("store.save_checkpoint", path=str(target))
        assert target.stat().st_size == 10

    def test_corrupt_flips_one_byte(self, tmp_path):
        target = tmp_path / "artifact.json"
        original = bytes(range(64))
        target.write_bytes(original)
        injector = FaultInjector(
            _plan(
                FaultRule(
                    site="store.save_checkpoint",
                    kind="corrupt",
                    args={"offset": 5},
                )
            )
        )
        injector.fire("store.save_checkpoint", path=str(target))
        damaged = target.read_bytes()
        assert len(damaged) == len(original)
        assert damaged[5] == original[5] ^ 0xFF
        assert damaged[:5] == original[:5]
        assert damaged[6:] == original[6:]

    def test_missing_path_is_a_no_op(self, tmp_path):
        injector = FaultInjector(
            _plan(FaultRule(site="store.save_checkpoint", kind="corrupt"))
        )
        injector.fire(
            "store.save_checkpoint", path=str(tmp_path / "absent.json")
        )
        # The rule consumed its visit without damaging anything.
        assert len(injector.fired) == 1


class TestReplicaFaults:
    def test_match_filters_by_context(self):
        injector = FaultInjector(
            _plan(
                FaultRule(
                    site="store.replica",
                    kind="replica_down",
                    match={"replica": 1},
                )
            )
        )
        injector.fire("store.replica", replica=0, op="load_result")
        assert injector.fired == []
        with pytest.raises(OSError) as info:
            injector.fire("store.replica", replica=1, op="load_result")
        assert info.value.errno == errno.EHOSTUNREACH

    def test_match_can_target_one_operation(self):
        injector = FaultInjector(
            _plan(
                FaultRule(
                    site="store.replica",
                    kind="enospc",
                    match={"replica": 0, "op": "put_result"},
                )
            )
        )
        injector.fire("store.replica", replica=0, op="load_result")
        assert injector.fired == []
        with pytest.raises(OSError) as info:
            injector.fire("store.replica", replica=0, op="put_result")
        assert info.value.errno == errno.ENOSPC

    def test_stale_replica_raises_the_internal_fault(self):
        injector = FaultInjector(
            _plan(FaultRule(site="store.replica", kind="stale_replica"))
        )
        with pytest.raises(StaleReplicaFault, match="lying fsync"):
            injector.fire("store.replica", replica=2, op="put_result")

    def test_bitrot_flips_one_byte_of_the_replica_file(self, tmp_path):
        target = tmp_path / "result.json"
        original = bytes(range(64))
        target.write_bytes(original)
        injector = FaultInjector(
            _plan(
                FaultRule(
                    site="store.replica",
                    kind="bitrot",
                    args={"offset": 7},
                )
            )
        )
        injector.fire(
            "store.replica", replica=0, op="put_result", path=str(target)
        )
        damaged = target.read_bytes()
        assert len(damaged) == len(original)
        assert damaged[7] == original[7] ^ 0xFF


class TestCrossProcessCounters:
    def test_state_dir_counts_span_injector_instances(self, tmp_path):
        """Two injectors (as in killed-and-restarted workers) share the
        visit stream, so ``max_hits: 1`` fires exactly once overall."""
        plan = _plan(
            FaultRule(site="engine.job", kind="transient", max_hits=1),
            state_dir=str(tmp_path / "counters"),
        )
        first = FaultInjector(plan)
        with pytest.raises(TransientFault):
            first.fire("engine.job")
        second = FaultInjector(plan)  # a "restarted worker"
        second.fire("engine.job")
        assert second.fired == []


def _visit_concurrently(plan: FaultPlan, start, visits: int, out) -> None:
    """Worker: visit the rule ``visits`` times, report the visit numbers."""
    injector = FaultInjector(plan)
    start.wait()
    for _ in range(visits):
        injector.fire("store.save_checkpoint", path="/nonexistent/latest.json")
    out.put([record.visit for record in injector.fired])


class TestConcurrentVisitors:
    def test_concurrent_processes_get_distinct_visit_numbers(self, tmp_path):
        """Visitors in several processes at once each get their own
        visit number: together they count exactly 1..N."""
        plan = _plan(
            FaultRule(
                site="store.save_checkpoint", kind="corrupt", max_hits=None
            ),
            state_dir=str(tmp_path / "counters"),
        )
        context = multiprocessing.get_context("spawn")
        processes, visits = 3, 50
        start = context.Barrier(processes)
        out = context.Queue()
        workers = [
            context.Process(
                target=_visit_concurrently, args=(plan, start, visits, out)
            )
            for _ in range(processes)
        ]
        for worker in workers:
            worker.start()
        seen = [out.get(timeout=60) for _ in workers]
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        assert sorted(sum(seen, [])) == list(range(1, processes * visits + 1))

    def test_an_append_racing_ours_does_not_shift_our_visit(
        self, tmp_path, monkeypatch
    ):
        """The interleaving the processes above can hit, forced: another
        visitor appends right after our write.  Our visit stays 1."""
        counters = tmp_path / "counters"
        plan = _plan(
            FaultRule(site="store.save_checkpoint", kind="corrupt"),
            state_dir=str(counters),
        )
        injector = FaultInjector(plan)
        real_write = os.write

        def write_then_race(descriptor: int, data: bytes) -> int:
            written = real_write(descriptor, data)
            with open(counters / "rule-0.visits", "ab") as other:
                other.write(b".")
            return written

        monkeypatch.setattr(os, "write", write_then_race)
        injector.fire("store.save_checkpoint", path="/nonexistent/latest.json")
        assert [record.visit for record in injector.fired] == [1]


class TestArming:
    def test_disarmed_inject_is_a_no_op(self):
        disarm()
        inject("engine.job")  # must not raise

    def test_arm_and_disarm(self):
        arm(_plan(FaultRule(site="engine.job", kind="transient")))
        with pytest.raises(TransientFault):
            inject("engine.job")
        disarm()
        inject("engine.job")

    def test_env_variable_arms_on_first_use(self, tmp_path, monkeypatch):
        plan = _plan(FaultRule(site="engine.job", kind="transient"))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        monkeypatch.setenv("REPRO_FAULTS", str(path))
        injector_module._INJECTOR = None
        injector_module._env_checked = False
        try:
            injector = get_injector()
            assert injector is not None
            assert injector.plan == plan
        finally:
            disarm()

    def test_explicit_disarm_beats_environment(self, tmp_path, monkeypatch):
        plan = _plan(FaultRule(site="engine.job", kind="transient"))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        monkeypatch.setenv("REPRO_FAULTS", str(path))
        disarm()
        assert get_injector() is None
