"""Tests for the matrix-matrix simulation mode (reference [31])."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baseline import simulate_dense
from repro.circuits.entangle import ghz_circuit
from repro.circuits.qft import qft_circuit
from repro.circuits.randomcirc import random_circuit
from repro.core import DDSimulator, SimulationTimeout
from repro.dd.package import Package


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense(self, seed):
        circuit = random_circuit(4, 20, seed=seed)
        simulator = DDSimulator(Package())
        outcome = simulator.run_matrix_matrix(circuit)
        np.testing.assert_allclose(
            outcome.state.to_amplitudes(),
            simulate_dense(circuit),
            atol=1e-8,
        )

    def test_matches_matrix_vector_mode(self):
        circuit = qft_circuit(5)
        simulator = DDSimulator(Package())
        mv = simulator.run(circuit)
        mm = simulator.run_matrix_matrix(circuit)
        assert mv.state.fidelity(mm.state) == pytest.approx(1.0)

    def test_initial_state(self):
        circuit = ghz_circuit(3)
        simulator = DDSimulator(Package())
        outcome = simulator.run_matrix_matrix(circuit, initial_state=0b011)
        # GHZ circuit on |011>: H(0) + CX chain still entangles.
        assert outcome.state.norm() == pytest.approx(1.0)


class TestStatistics:
    def test_strategy_label(self):
        simulator = DDSimulator(Package())
        outcome = simulator.run_matrix_matrix(ghz_circuit(3))
        assert outcome.stats.strategy == "matrix-matrix"

    def test_tracks_operator_sizes(self):
        circuit = qft_circuit(4)
        simulator = DDSimulator(Package())
        outcome = simulator.run_matrix_matrix(
            circuit, record_trajectory=True
        )
        assert len(outcome.stats.trajectory) == len(circuit)
        assert outcome.stats.max_nodes == max(outcome.stats.trajectory)

    def test_final_nodes_is_state_size(self):
        simulator = DDSimulator(Package())
        outcome = simulator.run_matrix_matrix(ghz_circuit(4))
        assert outcome.stats.final_nodes == outcome.state.node_count()

    def test_timeout(self):
        circuit = random_circuit(10, 200, seed=1)
        simulator = DDSimulator(Package())
        with pytest.raises(SimulationTimeout):
            simulator.run_matrix_matrix(circuit, max_seconds=1e-4)

    @pytest.mark.parametrize("record_trajectory", [False, True])
    def test_timeout_names_the_first_operation_not_composed(
        self, monkeypatch, record_trajectory
    ):
        """With a clock that ticks one second per read (the start, then
        one read per operation), a 5.5 s budget stops before op 5."""
        ticks = iter(range(1, 10_000))
        monkeypatch.setattr(
            "repro.core.simulator.time.perf_counter",
            lambda: float(next(ticks)),
        )
        simulator = DDSimulator(Package())
        with pytest.raises(
            SimulationTimeout, match="at operation 5$"
        ) as excinfo:
            simulator.run_matrix_matrix(
                qft_circuit(12),
                max_seconds=5.5,
                record_trajectory=record_trajectory,
            )
        stopped = excinfo.value
        assert (stopped.reason, stopped.op_index) == ("timeout", 5)
        assert stopped.resume_point is None
        if record_trajectory:
            assert len(stopped.stats.trajectory) == 5


class TestRegimes:
    def test_qft_operator_stays_polynomial(self):
        """[31]: the accumulated QFT operator is DD-compact."""
        circuit = qft_circuit(6, swaps=False)
        simulator = DDSimulator(Package())
        outcome = simulator.run_matrix_matrix(circuit)
        # Far below the 4^n dense worst case (~4096 nodes at n=6).
        assert outcome.stats.max_nodes < 500

    def test_random_operator_blows_up_faster_than_state(self):
        """Accumulating a random unitary is costlier than carrying the
        state — the regime where matrix-vector wins."""
        circuit = random_circuit(6, 40, seed=3)
        simulator = DDSimulator(Package())
        mv = simulator.run(circuit)
        mm = simulator.run_matrix_matrix(circuit)
        assert mm.stats.max_nodes > mv.stats.max_nodes
