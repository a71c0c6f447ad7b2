"""The simulator pauses CPython's cyclic garbage collector while it runs.

Decision diagrams are acyclic, so reference counting frees every dead
node; the collector's traversals are pure overhead.  These tests pin
the contract of the pause — every run leaves the collector in its entry
state, however it ends, and nested runs keep the outer pause — and that
a run leaves no cyclic garbage behind for a paused collector to miss.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

import repro.core.semiclassical as semiclassical
import repro.core.simulator as simulator
from repro.circuits.circuit import Circuit
from repro.circuits.entangle import ghz_circuit
from repro.circuits.shor import shor_circuit
from repro.circuits.supremacy import supremacy_circuit
from repro.core.simulator import (
    CancellationToken,
    DDSimulator,
    SimulationCancelled,
    SimulationTimeout,
    simulate,
)
from repro.core.strategies import (
    FidelityDrivenStrategy,
    MemoryDrivenStrategy,
    NoApproximation,
)
from repro.dd.package import Package

ENGINES = ("arena", "reference")


@pytest.fixture(autouse=True)
def restore_collector():
    """Leave the collector as the test found it, whatever the test does."""
    was_enabled = gc.isenabled()
    yield
    gc.set_debug(0)
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(params=(True, False), ids=("enabled", "disabled"))
def entry_state(request):
    """Run the test with the collector enabled, then disabled, on entry."""
    if request.param:
        gc.enable()
    else:
        gc.disable()
    return request.param


class SetEvent:
    def is_set(self) -> bool:
        return True


class RecordingStrategy(NoApproximation):
    """Exact simulation that records the collector state at every hook."""

    def __init__(self, nested: bool = False) -> None:
        self.nested = nested
        self.seen: list[bool] = []

    def after_operation(self, state, op_index, node_count):
        if self.nested and op_index == 0:
            simulate(ghz_circuit(3), package=Package())
        self.seen.append(gc.isenabled())
        return None


class TestEntryStateRestored:
    def test_after_a_completed_run(self, entry_state):
        simulate(ghz_circuit(4))
        assert gc.isenabled() is entry_state

    def test_after_a_timeout(self, entry_state):
        with pytest.raises(SimulationTimeout):
            simulate(ghz_circuit(4), max_seconds=0)
        assert gc.isenabled() is entry_state

    def test_after_a_cancellation(self, entry_state):
        with pytest.raises(SimulationCancelled):
            simulate(ghz_circuit(4), cancel=CancellationToken(event=SetEvent()))
        assert gc.isenabled() is entry_state

    def test_after_an_argument_error(self, entry_state):
        with pytest.raises(ValueError):
            simulate(ghz_circuit(4), size_check_interval=0)
        assert gc.isenabled() is entry_state

    def test_after_a_hook_error(self, entry_state):
        class Failing(NoApproximation):
            def after_operation(self, state, op_index, node_count):
                raise RuntimeError("strategy failed")

        with pytest.raises(RuntimeError, match="strategy failed"):
            simulate(ghz_circuit(4), Failing())
        assert gc.isenabled() is entry_state


class TestPausedWhileRunning:
    def test_strategy_hook_runs_paused(self):
        gc.enable()
        strategy = RecordingStrategy()
        simulate(ghz_circuit(4), strategy)
        assert strategy.seen == [False] * 4
        assert gc.isenabled()

    def test_nested_run_keeps_the_outer_pause(self):
        gc.enable()
        strategy = RecordingStrategy(nested=True)
        simulate(ghz_circuit(4), strategy)
        # The hook at op 0 ran a whole simulation before recording.
        assert strategy.seen == [False] * 4
        assert gc.isenabled()

    def test_matrix_matrix_runs_paused(self, monkeypatch):
        gc.enable()
        seen: list[bool] = []
        lower = simulator.operation_to_medge

        def recording_lower(*args, **kwargs):
            seen.append(gc.isenabled())
            return lower(*args, **kwargs)

        monkeypatch.setattr(simulator, "operation_to_medge", recording_lower)
        DDSimulator(Package()).run_matrix_matrix(ghz_circuit(3))
        assert seen == [False] * 3
        assert gc.isenabled()

    def test_semiclassical_shor_runs_paused(self, monkeypatch):
        gc.enable()
        seen: list[bool] = []
        measure = semiclassical.measure_qubit

        def recording_measure(*args, **kwargs):
            seen.append(gc.isenabled())
            return measure(*args, **kwargs)

        monkeypatch.setattr(semiclassical, "measure_qubit", recording_measure)
        run = semiclassical.semiclassical_shor_run(
            15, 2, np.random.default_rng(0), Package(), round_fidelity=0.99
        )
        assert seen == [False] * run.counting_bits
        assert gc.isenabled()


def _cyclic_garbage_after(circuit: Circuit, strategy, engine: str) -> int:
    """Objects a run leaves that only the cyclic collector could free."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        outcome = simulate(circuit, strategy, package=Package(backend=engine))
        rounds = outcome.stats.num_rounds
        del outcome
        found = gc.collect()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert rounds > 0, "the run must exercise approximation rounds"
    return found


@pytest.mark.parametrize("engine", ENGINES)
class TestNoCyclicGarbage:
    def test_memory_driven_supremacy(self, engine):
        strategy = MemoryDrivenStrategy(threshold=64, round_fidelity=0.975)
        circuit = supremacy_circuit(3, 3, 10, 0)
        assert _cyclic_garbage_after(circuit, strategy, engine) == 0

    def test_fidelity_driven_shor(self, engine):
        strategy = FidelityDrivenStrategy(
            final_fidelity=0.5,
            round_fidelity=0.9,
            placement="block:inverse_qft",
        )
        circuit = shor_circuit(21, 2)
        assert _cyclic_garbage_after(circuit, strategy, engine) == 0
