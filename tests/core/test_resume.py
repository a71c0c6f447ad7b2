"""Tests for checkpoint/resume support in the core simulator.

The resumed trajectory must be indistinguishable from the uninterrupted
one: same final state, same round placement, and — by Lemma 1 — the same
end-to-end fidelity product when prior rounds are seeded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.qft import qft_circuit
from repro.circuits.shor import shor_circuit
from repro.core.simulator import DDSimulator, SimulationTimeout
from repro.core.strategies import (
    AdaptiveStrategy,
    FidelityDrivenStrategy,
    MemoryDrivenStrategy,
    NoApproximation,
    SizeCapStrategy,
)
from repro.dd.package import Package


class TestStartOpIndex:
    def test_split_run_matches_full_run(self):
        package = Package()
        simulator = DDSimulator(package)
        circuit = qft_circuit(5)
        full = simulator.run(circuit)

        half = len(circuit) // 2
        prefix_state = _run_prefix(simulator, circuit, half)
        resumed = simulator.run(
            circuit,
            initial_state=prefix_state,
            start_op_index=half,
        )
        assert full.state.fidelity(resumed.state) == pytest.approx(1.0)
        assert (
            resumed.stats.num_operations == full.stats.num_operations
        )

    def test_validates_range(self):
        simulator = DDSimulator(Package())
        circuit = qft_circuit(3)
        with pytest.raises(ValueError):
            simulator.run(circuit, start_op_index=len(circuit) + 1)
        with pytest.raises(ValueError):
            simulator.run(circuit, start_op_index=-1)

    def test_start_at_end_applies_nothing(self):
        package = Package()
        simulator = DDSimulator(package)
        circuit = qft_circuit(3)
        full = simulator.run(circuit)
        noop = simulator.run(
            circuit,
            initial_state=full.state,
            start_op_index=len(circuit),
        )
        assert noop.state.fidelity(full.state) == pytest.approx(1.0)


def _run_prefix(simulator, circuit, stop):
    """Return the state after the first ``stop`` operations."""
    collected = {}
    simulator.run(
        circuit,
        checkpoint_interval=stop,
        checkpoint_callback=lambda state, i, _st: collected.setdefault(
            i, state
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
        assert timeout.state.package is package
        resumed = simulator.run(
            circuit,
            initial_state=timeout.state,
            start_op_index=timeout.op_index,
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
            checkpoint_callback=lambda _s, i, _st: indices.append(i),
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
        strategy = FidelityDrivenStrategy(
            0.5, 0.9, placement="block:inverse_qft"
        )
        full = simulator.run(circuit, strategy)
        assert full.stats.num_rounds >= 1

        # Split the run after the first round's position.
        split = full.stats.rounds[0].op_index + 1
        prefix = _run_with_stop(package, circuit, strategy, split)
        resumed = simulator.run(
            circuit,
            FidelityDrivenStrategy(
                0.5, 0.9, placement="block:inverse_qft"
            ),
            initial_state=prefix["state"],
            start_op_index=split,
            prior_rounds=prefix["rounds"],
        )
        assert resumed.stats.num_rounds == full.stats.num_rounds
        assert resumed.stats.fidelity_estimate == pytest.approx(
            full.stats.fidelity_estimate, abs=1e-12
        )


def _run_with_stop(package, circuit, strategy, stop):
    """Run the first ``stop`` ops under ``strategy`` via checkpointing."""
    grabbed = {}

    def grab(state, next_op_index, stats):
        if next_op_index == stop and "state" not in grabbed:
            grabbed["state"] = state
            grabbed["rounds"] = list(stats.rounds)

    fresh = FidelityDrivenStrategy(
        strategy.final_fidelity,
        strategy.round_fidelity,
        placement=strategy.placement,
    )
    DDSimulator(package).run(
        circuit,
        fresh,
        checkpoint_interval=1,
        checkpoint_callback=grab,
    )
    return grabbed


class TestStrategyResumeHooks:
    def _rounds(self, count):
        from repro.core.simulator import RoundRecord

        return [
            RoundRecord(
                op_index=i,
                nodes_before=10,
                nodes_after=5,
                requested_fidelity=0.9,
                achieved_fidelity=0.9,
                removed_contribution=0.1,
                removed_nodes=5,
            )
            for i in range(count)
        ]

    def test_base_default_is_noop(self):
        strategy = NoApproximation()
        strategy.resume(5, self._rounds(2))  # must not raise

    def test_memory_regrows_threshold(self):
        strategy = MemoryDrivenStrategy(
            threshold=100, round_fidelity=0.9, growth=2.0
        )
        strategy.plan(qft_circuit(3))
        strategy.resume(10, self._rounds(3))
        assert strategy.threshold == 800.0

    def test_fidelity_drops_passed_positions(self):
        circuit = shor_circuit(15, 2)
        strategy = FidelityDrivenStrategy(
            0.5, 0.9, positions=[5, 10, 20, 30]
        )
        strategy.plan(circuit)
        strategy.resume(11, self._rounds(2))
        assert strategy._pending == [20, 30]

    def test_fidelity_respects_budget_across_split(self):
        circuit = shor_circuit(15, 2)
        strategy = FidelityDrivenStrategy(
            0.5, 0.9, positions=[5, 10, 20, 30]
        )
        assert strategy.budgeted_rounds == 6
        strategy.plan(circuit)
        strategy.resume(0, self._rounds(5))
        assert len(strategy._pending) <= 1

    def test_adaptive_charges_budget(self):
        strategy = AdaptiveStrategy(0.5, 0.9)
        strategy.plan(qft_circuit(3))
        strategy.resume(4, self._rounds(2))
        assert strategy.rounds_used == 2

    def test_size_cap_restores_spent_fidelity(self):
        strategy = SizeCapStrategy(max_nodes=64, final_fidelity=0.5)
        strategy.plan(qft_circuit(3))
        strategy.resume(4, self._rounds(2))
        assert strategy.remaining_fidelity == pytest.approx(0.81)
