"""Tests for checkpoint/resume support in the core simulator.

The resumed trajectory must be indistinguishable from the uninterrupted
one: same final state, same round placement, and — by Lemma 1 — the same
end-to-end fidelity product, continued from the resume point's rounds.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.circuits.qft import qft_circuit
from repro.circuits.shor import shor_circuit
from repro.core.simulator import DDSimulator, ResumePoint, SimulationTimeout
from repro.core.strategies import (
    AdaptiveStrategy,
    FidelityDrivenStrategy,
    MemoryDrivenStrategy,
    NoApproximation,
    SizeCapStrategy,
)
from repro.dd.package import Package
from repro.service.jobs import build_builtin_circuit


class TestStartOpIndex:
    def test_split_run_matches_full_run(self):
        package = Package()
        simulator = DDSimulator(package)
        circuit = qft_circuit(5)
        full = simulator.run(circuit)

        half = len(circuit) // 2
        resumed = simulator.run(
            circuit, initial_state=_run_prefix(simulator, circuit, half)
        )
        assert full.state.fidelity(resumed.state) == pytest.approx(1.0)
        assert (
            resumed.stats.num_operations == full.stats.num_operations
        )

    def test_validates_range(self):
        simulator = DDSimulator(Package())
        circuit = qft_circuit(3)
        point = _run_prefix(simulator, circuit, 1)
        for op_index in (len(circuit) + 1, -1):
            with pytest.raises(ValueError, match="out of range"):
                simulator.run(
                    circuit, initial_state=replace(point, op_index=op_index)
                )

    def test_start_at_end_applies_nothing(self):
        package = Package()
        simulator = DDSimulator(package)
        circuit = qft_circuit(3)
        full = simulator.run(circuit)
        point = replace(
            _run_prefix(simulator, circuit, 1),
            state=full.state,
            op_index=len(circuit),
        )
        noop = simulator.run(circuit, initial_state=point)
        assert noop.state.fidelity(full.state) == pytest.approx(1.0)


def _run_prefix(simulator, circuit, stop, strategy=None) -> ResumePoint:
    """Return the resume point after the first ``stop`` operations."""
    collected = {}
    simulator.run(
        circuit,
        strategy,
        checkpoint_interval=stop,
        checkpoint_callback=lambda point: collected.setdefault(
            point.op_index, point
        ),
    )
    return collected[stop]


class TestTimeoutPartialState:
    def test_timeout_carries_resumable_state(self):
        package = Package()
        simulator = DDSimulator(package)
        circuit = shor_circuit(15, 2)
        with pytest.raises(SimulationTimeout) as excinfo:
            simulator.run(circuit, max_seconds=0.0)
        timeout = excinfo.value
        assert (timeout.reason, timeout.op_index) == ("timeout", 0)
        assert timeout.resume_point.state.package is package
        resumed = simulator.run(
            circuit, initial_state=timeout.resume_point
        )
        reference = DDSimulator(Package()).run(circuit)
        assert np.array_equal(
            resumed.state.to_amplitudes(), reference.state.to_amplitudes()
        )


class TestCheckpointCallback:
    def test_interval_validation(self):
        simulator = DDSimulator(Package())
        with pytest.raises(ValueError):
            simulator.run(qft_circuit(3), checkpoint_interval=0)

    def test_callback_receives_increasing_indices(self):
        indices = []
        simulator = DDSimulator(Package())
        circuit = qft_circuit(4)
        simulator.run(
            circuit,
            checkpoint_interval=3,
            checkpoint_callback=lambda point: indices.append(point.op_index),
        )
        assert indices == sorted(indices)
        assert all(0 < i < len(circuit) for i in indices)

    def test_no_callback_without_interval(self):
        calls = []
        DDSimulator(Package()).run(
            qft_circuit(3),
            checkpoint_callback=lambda *_args: calls.append(1),
        )
        assert calls == []


class TestPriorRounds:
    def test_prior_rounds_seed_fidelity_product(self):
        package = Package()
        simulator = DDSimulator(package)
        circuit = shor_circuit(21, 2)

        def strategy() -> FidelityDrivenStrategy:
            return FidelityDrivenStrategy(
                0.5, 0.9, placement="block:inverse_qft"
            )

        full = simulator.run(circuit, strategy())
        assert full.stats.num_rounds >= 1

        # Split the run after the first round's position.
        split = full.stats.rounds[0].op_index + 1
        point = _run_prefix(simulator, circuit, split, strategy())
        assert point.stats.rounds == full.stats.rounds[:1]
        resumed = simulator.run(circuit, strategy(), initial_state=point)
        assert resumed.stats.rounds == full.stats.rounds
        assert resumed.stats.fidelity_estimate == (
            full.stats.fidelity_estimate
        )


def _restored(make, workload, cut):
    """The resume point ``cut`` operations into ``workload`` under
    ``make()``, and a fresh ``make()`` planned and restored from it."""
    circuit = build_builtin_circuit(workload)
    point = _run_prefix(DDSimulator(Package()), circuit, cut, make())
    strategy = make()
    strategy.plan(circuit)
    strategy.restore(point.schedule)
    return point, strategy


class TestStrategyResumeHooks:
    """``schedule()``/``restore()``, the strategy's part of a resume
    point: a restored strategy continues where the stopped one was, even
    where the round ledger says otherwise."""

    def test_base_default_is_noop(self):
        strategy = NoApproximation()
        assert strategy.schedule() == {}
        strategy.restore({"rescues": 0, "rescue_floor": 0})

    def test_memory_regrows_threshold(self):
        """Three attempts that removed nothing doubled the threshold;
        the ledger has no round to re-derive it from."""
        point, strategy = _restored(
            lambda: MemoryDrivenStrategy(8, 0.99), "qsup_3x3_8_0", 34
        )
        assert point.stats.rounds == []
        assert strategy.threshold == 64.0

    def test_fidelity_drops_passed_positions(self):
        point, strategy = _restored(
            lambda: FidelityDrivenStrategy(
                0.5, 0.9, positions=[5, 10, 20, 30]
            ),
            "shor_15_2",
            11,
        )
        assert strategy._pending == [20, 30]

    def test_fidelity_respects_budget_across_split(self):
        """An emergency round's charge (one planned position fewer)
        survives the resume."""
        strategy = FidelityDrivenStrategy(0.5, 0.9, positions=[5, 10, 20, 30])
        strategy.plan(shor_circuit(15, 2))
        strategy.note_external_round(3, 0.9)
        restored = FidelityDrivenStrategy(0.5, 0.9, positions=[5, 10, 20, 30])
        restored.plan(shor_circuit(15, 2))
        restored.restore(strategy.schedule())
        assert restored._pending == [5, 10, 20]

    def test_adaptive_charges_budget(self):
        """The budget spent and the growth baseline both carry over (the
        baseline used to restart from the resumed state)."""
        point, strategy = _restored(
            lambda: AdaptiveStrategy(0.5, 0.9), "shor_21_2", 40
        )
        assert strategy.rounds_used == len(point.stats.rounds) == 2
        assert strategy._baseline == 258

    def test_size_cap_restores_spent_fidelity(self):
        point, strategy = _restored(
            lambda: SizeCapStrategy(2000, 0.3), "shor_33_5", 50
        )
        assert len(point.stats.rounds) == 1
        assert strategy.remaining_fidelity == (
            point.stats.rounds[0].achieved_fidelity
        )

    STRATEGIES = {
        "exact": (NoApproximation, ()),
        "memory": (lambda: MemoryDrivenStrategy(8, 0.99), ("threshold",)),
        "fidelity": (
            lambda: FidelityDrivenStrategy(0.5, 0.9),
            ("_pending",),
        ),
        "adaptive": (
            lambda: AdaptiveStrategy(0.5, 0.9),
            ("rounds_used", "_baseline"),
        ),
        "size_cap": (lambda: SizeCapStrategy(64, 0.5), ("remaining_fidelity",)),
    }

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_schedule_holds_the_strategy_and_watchdog_fields(self, name):
        make, fields = self.STRATEGIES[name]
        point, _strategy = _restored(make, "shor_15_2", 20)
        assert set(point.schedule) == {*fields, "rescues", "rescue_floor"}
        # The stored form is JSON: the schedule survives a round trip.
        assert json.loads(json.dumps(point.schedule)) == point.schedule

    def test_restore_copies_the_schedule(self):
        strategy = FidelityDrivenStrategy(0.5, 0.9, positions=[5, 10, 20])
        strategy.plan(shor_circuit(15, 2))
        schedule = strategy.schedule()
        strategy.restore(schedule)
        strategy._pending.pop()
        assert schedule["_pending"] == [5, 10, 20]
        assert strategy.schedule()["_pending"] == [5, 10]


class TestResumePoint:
    def test_one_point_resumes_twice_alike(self):
        """Resuming does not consume the point: its stats and schedule
        are copies the resumed runs never write to."""
        package = Package()
        circuit = build_builtin_circuit("qsup_3x3_8_0")

        def strategy() -> MemoryDrivenStrategy:
            return MemoryDrivenStrategy(8, 0.99)

        point = _run_prefix(DDSimulator(package), circuit, 34, strategy())
        rounds = list(point.stats.rounds)
        first, second = (
            DDSimulator(package).run(circuit, strategy(), initial_state=point)
            for _ in range(2)
        )
        assert point.stats.rounds == rounds
        assert first.stats.rounds == second.stats.rounds
        assert first.stats.fidelity_estimate == second.stats.fidelity_estimate

    def test_stats_are_cumulative(self):
        """The resumed run continues the point's rounds, peak size and
        runtime; ``max_seconds`` still limits each attempt alone."""
        package = Package()
        circuit = qft_circuit(4)
        point = _run_prefix(DDSimulator(package), circuit, 5)
        point = replace(
            point,
            stats=replace(point.stats, runtime_seconds=1000.0, max_nodes=999),
        )
        resumed = DDSimulator(package).run(
            circuit, initial_state=point, max_seconds=60.0
        )
        assert resumed.stats.runtime_seconds >= 1000.0
        assert resumed.stats.max_nodes == 999
