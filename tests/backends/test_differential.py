"""Differential tests: reference vs arena backend, same inputs.

Both backends are driven through *identical* gate and approximation
sequences and must agree on everything observable:

* final amplitudes within ``ctable.tolerance()``;
* the achieved fidelity of every approximation round — **bit for bit**,
  because both backends execute the same float operations in the same
  order (the interface contract pinned in docs/BACKENDS.md);
* the Lemma-1 fidelity product (``stats.fidelity_estimate``);
* diagram node counts after every round.

These invariants are what lets the arena backend claim "as accurate as
the reference, just faster": any divergence here is a correctness bug,
not a performance tradeoff.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.lowering import operation_to_medge
from repro.circuits.randomcirc import random_circuit
from repro.core import MemoryDrivenStrategy, NoApproximation, simulate
from repro.core.approximation import approximate_state
from repro.dd import ctable
from repro.dd.backends.arena import ArenaBackend
from repro.dd.package import Package
from repro.dd.vector import StateDD
from repro.service.jobs import build_builtin_circuit

BACKENDS = ("reference", "arena")


def _apply_circuit(circuit, package: Package) -> StateDD:
    """Lower and apply every operation of ``circuit`` to |0...0>."""
    state = StateDD.basis_state(circuit.num_qubits, 0, package)
    top = circuit.num_qubits - 1
    for operation in circuit:
        medge = operation_to_medge(operation, circuit.num_qubits, package)
        state = StateDD(
            package.multiply_mv(medge, state.edge, top),
            circuit.num_qubits,
            package,
        )
    return state


class TestGateParity:
    """Same circuit, both backends: identical states."""

    @settings(max_examples=25, deadline=None)
    @given(
        num_qubits=st.integers(min_value=2, max_value=4),
        num_operations=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_amplitudes_match(self, num_qubits, num_operations, seed):
        circuit = random_circuit(num_qubits, num_operations, seed=seed)
        amplitudes = {}
        counts = {}
        for backend in BACKENDS:
            state = _apply_circuit(circuit, Package(backend=backend))
            amplitudes[backend] = state.to_amplitudes()
            counts[backend] = state.node_count()
        for backend in BACKENDS[1:]:
            np.testing.assert_allclose(
                amplitudes[backend],
                amplitudes["reference"],
                atol=ctable.tolerance(),
                rtol=0.0,
            )
            assert counts[backend] == counts["reference"]

    @settings(max_examples=25, deadline=None)
    @given(
        num_qubits=st.integers(min_value=2, max_value=4),
        num_operations=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_norm_contributions_match(
        self, num_qubits, num_operations, seed
    ):
        circuit = random_circuit(num_qubits, num_operations, seed=seed)
        contributions = {}
        for backend in BACKENDS:
            package = Package(backend=backend)
            state = _apply_circuit(circuit, package)
            contributions[backend] = package.norm_contributions(state.edge)
        reference = contributions["reference"]
        for backend in BACKENDS[1:]:
            other = contributions[backend]
            # Same sweep over isomorphic diagrams: same number of nodes
            # and the same multiset of contribution values, bit for bit.
            assert len(other) == len(reference)
            assert sorted(other.values()) == sorted(reference.values())


class TestApproximationParity:
    """Interleaved approximation rounds: identical Lemma-1 accounting."""

    @settings(max_examples=20, deadline=None)
    @given(
        num_qubits=st.integers(min_value=2, max_value=4),
        num_operations=st.integers(min_value=4, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        round_fidelity=st.floats(min_value=0.6, max_value=0.999),
        stride=st.integers(min_value=2, max_value=6),
    )
    def test_round_accounting_matches(
        self, num_qubits, num_operations, seed, round_fidelity, stride
    ):
        circuit = random_circuit(num_qubits, num_operations, seed=seed)
        rounds: dict[str, list[tuple]] = {}
        for backend in BACKENDS:
            package = Package(backend=backend)
            state = StateDD.basis_state(circuit.num_qubits, 0, package)
            top = circuit.num_qubits - 1
            records = []
            for index, operation in enumerate(circuit):
                medge = operation_to_medge(
                    operation, circuit.num_qubits, package
                )
                state = StateDD(
                    package.multiply_mv(medge, state.edge, top),
                    circuit.num_qubits,
                    package,
                )
                if (index + 1) % stride == 0:
                    result = approximate_state(state, round_fidelity)
                    state = result.state
                    records.append(
                        (
                            result.achieved_fidelity,
                            result.removed_contribution,
                            result.nodes_before,
                            result.nodes_after,
                            result.removed_nodes,
                        )
                    )
            rounds[backend] = records
        # Bit-for-bit: same removal selections, same measured fidelity.
        for backend in BACKENDS[1:]:
            assert rounds[backend] == rounds["reference"]


SMOKE_WORKLOADS = [
    ("qsup_2x2_8_0", NoApproximation),
    (
        "qsup_3x3_12_0",
        lambda: MemoryDrivenStrategy(threshold=64, round_fidelity=0.975),
    ),
    ("shor_15_2", NoApproximation),
]


@pytest.mark.parametrize("workload, strategy_factory", SMOKE_WORKLOADS)
def test_builtin_workload_parity(workload, strategy_factory):
    """Full simulator runs on Table-1-style workloads agree exactly."""
    outcomes = {}
    for backend in BACKENDS:
        outcomes[backend] = simulate(
            build_builtin_circuit(workload),
            strategy_factory(),
            package=Package(backend=backend),
        )
    reference = outcomes["reference"]
    for backend in BACKENDS[1:]:
        other = outcomes[backend]
        assert (
            other.stats.fidelity_estimate == reference.stats.fidelity_estimate
        )
        assert [r.achieved_fidelity for r in other.stats.rounds] == [
            r.achieved_fidelity for r in reference.stats.rounds
        ]
        assert other.stats.max_nodes == reference.stats.max_nodes
        assert other.stats.final_nodes == reference.stats.final_nodes
        np.testing.assert_allclose(
            other.state.to_amplitudes(),
            reference.state.to_amplitudes(),
            atol=ctable.tolerance(),
            rtol=0.0,
        )
        assert other.stats.dd_backend == "arena"
    assert reference.stats.dd_backend == "reference"


@pytest.mark.parametrize("workload, strategy_factory", SMOKE_WORKLOADS)
def test_reclaim_parity_under_constant_flushing(workload, strategy_factory):
    """A 64-entry cache limit makes every engine flush many times, so the
    arena reclaims again and again; results stay bit-equal, every
    reclaim leaves the arena audit-clean, and once the caches are
    cleared both engines hold exactly the same live nodes."""
    outcomes = {}
    live = {}
    for backend in BACKENDS:
        package = Package(backend=backend, cache_limit=64)
        engine = package._backend
        audits: list[list[str]] = []
        if isinstance(engine, ArenaBackend):
            reclaim = engine._reclaim

            def audited_reclaim(reclaim=reclaim, engine=engine):
                reclaim()
                audits.append(engine.integrity_problems())

            engine._reclaim = audited_reclaim
        outcome = simulate(
            build_builtin_circuit(workload),
            strategy_factory(),
            package=package,
        )
        if isinstance(engine, ArenaBackend):
            assert audits, "the arena never reclaimed"
            assert all(found == [] for found in audits)
        assert package.stats["cache_flushes"] >= 1
        state = outcome.state
        outcomes[backend] = (
            outcome.stats,
            state.to_amplitudes(),
            state.node_count(),
        )
        del outcome
        gc.collect()
        package.clear_caches()
        gc.collect()
        live[backend] = package.unique_table_sizes()
        assert package.integrity_problems() == []
        del state

    ref_stats, ref_amplitudes, ref_nodes = outcomes["reference"]
    for backend in BACKENDS[1:]:
        stats, amplitudes, nodes = outcomes[backend]
        assert stats.fidelity_estimate == ref_stats.fidelity_estimate
        assert stats.rounds == ref_stats.rounds
        assert stats.max_nodes == ref_stats.max_nodes
        assert stats.final_nodes == ref_stats.final_nodes
        assert nodes == ref_nodes
        assert np.array_equal(amplitudes, ref_amplitudes)
        assert live[backend] == live["reference"]


#: The arena's (hits, misses, flushes) of the mv and vadd caches and its
#: ``vnodes_created`` on SMOKE_WORKLOADS, by cache limit, as recorded from
#: the pure-Python arena recursion the native core replaced.  The traced
#: benchmark's ``dd.cache.*.hit_rate`` and ``dd.vnodes_created`` keep
#: their meaning only while these hold.  (The reference is no yardstick
#: here: its weak tables may free and re-intern nodes.)
ARENA_COUNTERS = {
    (None, "qsup_2x2_8_0"): ((61, 76, 0), (4, 18, 0), 73),
    (None, "qsup_3x3_12_0"): ((1839, 7539, 0), (90, 4360, 0), 6788),
    (None, "shor_15_2"): ((617, 886, 0), (42, 120, 0), 383),
    (64, "qsup_2x2_8_0"): ((61, 76, 1), (4, 18, 0), 73),
    (64, "qsup_3x3_12_0"): ((1214, 11581, 180), (81, 4761, 74), 7026),
    (64, "shor_15_2"): ((597, 1339, 20), (42, 120, 1), 399),
}


@pytest.mark.parametrize("cache_limit", [None, 64])
@pytest.mark.parametrize("workload, strategy_factory", SMOKE_WORKLOADS)
def test_arena_counters_match_pinned_values(workload, strategy_factory, cache_limit):
    package = (
        Package(backend="arena")
        if cache_limit is None
        else Package(backend="arena", cache_limit=cache_limit)
    )
    package.enable_metrics()
    simulate(build_builtin_circuit(workload), strategy_factory(), package=package)
    caches = package.cache_stats()["caches"]
    observed = tuple(
        (caches[name]["hits"], caches[name]["misses"], caches[name]["flushes"])
        for name in ("mv", "vadd")
    ) + (package.stats["vnodes_created"],)
    assert observed == ARENA_COUNTERS[cache_limit, workload]
