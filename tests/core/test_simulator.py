"""Tests for the approximating DD simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baseline import simulate_dense
from repro.circuits.circuit import Circuit
from repro.circuits.entangle import ghz_circuit
from repro.circuits.randomcirc import random_circuit
from repro.circuits.supremacy import supremacy_circuit
from repro.core import (
    DDSimulator,
    FidelityDrivenStrategy,
    MemoryDrivenStrategy,
    NoApproximation,
    SimulationTimeout,
    simulate,
)
from repro.dd.package import Package


class TestExactSimulation:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense(self, seed):
        circuit = random_circuit(4, 25, seed=seed)
        outcome = simulate(circuit, package=Package())
        np.testing.assert_allclose(
            outcome.state.to_amplitudes(), simulate_dense(circuit), atol=1e-8
        )

    def test_initial_state(self):
        circuit = Circuit(3).cx(0, 1)
        outcome = simulate(circuit, package=Package(), initial_state=0b001)
        assert outcome.state.probability(0b011) == pytest.approx(1.0)

    def test_stats_basics(self):
        circuit = ghz_circuit(5)
        outcome = simulate(circuit, package=Package())
        stats = outcome.stats
        assert stats.circuit_name == "ghz_5"
        assert stats.strategy == "exact"
        assert stats.num_operations == len(circuit)
        assert stats.num_rounds == 0
        assert stats.fidelity_estimate == 1.0
        assert stats.runtime_seconds > 0.0
        assert stats.final_nodes == 9
        assert stats.max_nodes >= stats.final_nodes

    def test_trajectory_recording(self):
        circuit = ghz_circuit(4)
        outcome = simulate(
            circuit, package=Package(), record_trajectory=True
        )
        trajectory = outcome.stats.trajectory
        assert trajectory is not None
        assert len(trajectory) == len(circuit)
        assert max(trajectory) == outcome.stats.max_nodes

    def test_trajectory_disabled_by_default(self):
        outcome = simulate(ghz_circuit(3), package=Package())
        assert outcome.stats.trajectory is None

    def test_run_exact_convenience(self):
        simulator = DDSimulator(Package())
        outcome = simulator.run_exact(ghz_circuit(3))
        assert outcome.stats.strategy == "exact"


class TestStagedSimulation:
    def test_prepared_initial_state(self):
        """Splitting a circuit across two runs gives the same result."""
        from repro.circuits.shor import shor_circuit

        package = Package()
        circuit = shor_circuit(15, 2)
        whole = simulate(circuit, package=package)

        half = len(circuit) // 2
        first = Circuit(circuit.num_qubits, "first")
        second = Circuit(circuit.num_qubits, "second")
        for index, operation in enumerate(circuit):
            (first if index < half else second).append(operation)
        simulator = DDSimulator(package)
        stage1 = simulator.run(first)
        stage2 = simulator.run(second, initial_state=stage1.state)
        assert stage2.state.fidelity(whole.state) == pytest.approx(1.0)

    def test_stage_switching_strategies(self):
        """Exact modexp, then approximate inverse QFT — the paper's plan,
        expressed as two staged runs."""
        from repro.circuits.shor import (
            modular_exponentiation_only,
            shor_circuit,
        )
        from repro.core import FidelityDrivenStrategy

        package = Package()
        full = shor_circuit(33, 5)
        prefix = modular_exponentiation_only(33, 5)
        iqft = Circuit(full.num_qubits, "iqft_only")
        for operation in list(full)[len(prefix):]:
            iqft.append(operation)

        simulator = DDSimulator(package)
        stage1 = simulator.run(prefix)
        stage2 = simulator.run(
            iqft,
            FidelityDrivenStrategy(0.5, 0.9, placement="even"),
            initial_state=stage1.state,
        )
        exact = simulate(full, package=package)
        assert exact.state.fidelity(stage2.state) >= 0.5 - 1e-9

    def test_width_mismatch_rejected(self):
        package = Package()
        simulator = DDSimulator(package)
        from repro.dd.vector import StateDD

        prepared = StateDD.basis_state(2, 0, package)
        with pytest.raises(ValueError):
            simulator.run(ghz_circuit(3), initial_state=prepared)

    def test_package_mismatch_rejected(self):
        simulator = DDSimulator(Package())
        from repro.dd.vector import StateDD

        prepared = StateDD.basis_state(3, 0, Package())
        with pytest.raises(ValueError):
            simulator.run(ghz_circuit(3), initial_state=prepared)


class TestApproximateSimulation:
    def test_memory_strategy_records_rounds(self):
        circuit = supremacy_circuit(3, 3, 10, seed=0)
        outcome = simulate(
            circuit,
            MemoryDrivenStrategy(threshold=64, round_fidelity=0.95),
            package=Package(),
        )
        assert outcome.stats.num_rounds >= 1
        for record in outcome.stats.rounds:
            assert record.achieved_fidelity >= 0.95 - 1e-9
            assert record.nodes_after <= record.nodes_before

    def test_fidelity_strategy_bound_holds(self):
        circuit = supremacy_circuit(3, 3, 10, seed=1)
        package = Package()
        exact = simulate(circuit, package=package)
        approx = simulate(
            circuit,
            FidelityDrivenStrategy(0.5, 0.9, placement="even"),
            package=package,
        )
        true_fidelity = exact.state.fidelity(approx.state)
        assert true_fidelity >= 0.5 - 1e-9
        assert approx.stats.fidelity_estimate >= 0.5 - 1e-9

    def test_estimate_close_to_true_fidelity(self):
        circuit = supremacy_circuit(3, 3, 12, seed=2)
        package = Package()
        exact = simulate(circuit, package=package)
        approx = simulate(
            circuit,
            MemoryDrivenStrategy(threshold=100, round_fidelity=0.95),
            package=package,
        )
        true_fidelity = exact.state.fidelity(approx.state)
        assert approx.stats.fidelity_estimate == pytest.approx(
            true_fidelity, abs=0.05
        )

    def test_approximation_reduces_max_size(self):
        circuit = supremacy_circuit(3, 3, 12, seed=3)
        package = Package()
        exact = simulate(circuit, package=package)
        approx = simulate(
            circuit,
            MemoryDrivenStrategy(threshold=64, round_fidelity=0.8),
            package=package,
        )
        assert approx.stats.max_nodes <= exact.stats.max_nodes

    def test_round_records_have_positions(self):
        circuit = supremacy_circuit(3, 3, 8, seed=4)
        outcome = simulate(
            circuit,
            MemoryDrivenStrategy(threshold=32, round_fidelity=0.9),
            package=Package(),
        )
        positions = [record.op_index for record in outcome.stats.rounds]
        assert positions == sorted(positions)
        assert all(0 <= p < len(circuit) for p in positions)

    def test_final_state_is_unit_norm(self):
        circuit = supremacy_circuit(3, 3, 10, seed=5)
        outcome = simulate(
            circuit,
            MemoryDrivenStrategy(threshold=32, round_fidelity=0.9),
            package=Package(),
        )
        assert outcome.state.norm() == pytest.approx(1.0)

    def test_summary_format(self):
        circuit = ghz_circuit(3)
        outcome = simulate(circuit, package=Package())
        summary = outcome.stats.summary()
        assert "ghz_3" in summary
        assert "max_dd" in summary


class TestRoundLedger:
    """Strategy rounds and watchdog rounds land in one ledger: records,
    counters, events and the Lemma-1 product agree."""

    def _run(self):
        from repro.core import MemoryWatchdog
        from repro.obs import Recorder, recording

        recorder = Recorder(enabled=True)
        with recording(recorder):
            outcome = simulate(
                supremacy_circuit(3, 3, 8, seed=0),
                MemoryDrivenStrategy(threshold=16, round_fidelity=0.97),
                package=Package(),
                recorder=recorder,
                watchdog=MemoryWatchdog(
                    node_ceiling=80, emergency_fidelity=0.8
                ),
            )
        return outcome.stats, recorder

    def test_both_paths_ran(self):
        stats, _ = self._run()
        kinds = {record.emergency for record in stats.rounds}
        assert kinds == {False, True}

    def test_counters_are_sums_over_records(self):
        stats, recorder = self._run()
        counters = recorder.counters
        assert counters["approx.rounds"] == len(stats.rounds)
        assert counters["approx.nodes_removed"] == sum(
            record.removed_nodes for record in stats.rounds
        )
        spent = 0.0
        for record in stats.rounds:
            spent += 1.0 - record.achieved_fidelity
        assert counters["approx.fidelity_spent"] == spent
        assert counters["watchdog.emergency_rounds"] == sum(
            1 for event in recorder.events
            if event["event"] == "emergency_round"
        )

    def test_events_match_records(self):
        stats, recorder = self._run()
        expected = []
        for record in stats.rounds:
            fields = {
                "op_index": record.op_index,
                "nodes_before": record.nodes_before,
                "nodes_after": record.nodes_after,
                "nodes_removed": record.removed_nodes,
                "requested_fidelity": record.requested_fidelity,
                "achieved_fidelity": record.achieved_fidelity,
            }
            if record.emergency:
                expected.append(("emergency_round", fields))
            else:
                fields["fidelity_spent"] = 1.0 - record.achieved_fidelity
                expected.append(("round", fields))
        keys = {"seq", "ts", "event"}
        emitted = [
            (
                event["event"],
                {k: v for k, v in event.items() if k not in keys},
            )
            for event in recorder.events
            if event["event"] == "round"
            # A watchdog round that removed nothing emits its event but
            # leaves no record.
            or (event["event"] == "emergency_round"
                and event["nodes_removed"] > 0)
        ]
        assert emitted == expected

    def test_lemma1_product_is_the_estimate(self):
        stats, _ = self._run()
        product = 1.0
        for record in stats.rounds:
            product *= record.achieved_fidelity
        assert stats.fidelity_estimate == product
        assert 0.0 < product < 1.0


class TestTimeout:
    def test_timeout_raises_with_partial_stats(self):
        circuit = supremacy_circuit(3, 4, 14, seed=0)
        simulator = DDSimulator(Package())
        with pytest.raises(SimulationTimeout) as excinfo:
            simulator.run(circuit, max_seconds=1e-4)
        stats = excinfo.value.stats
        assert stats.circuit_name == circuit.name
        assert stats.runtime_seconds > 0.0

    def test_no_timeout_when_fast_enough(self):
        outcome = simulate(
            ghz_circuit(3), package=Package(), max_seconds=60.0
        )
        assert outcome.stats.runtime_seconds < 60.0
