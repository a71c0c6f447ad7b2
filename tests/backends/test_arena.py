"""Arena-backend internals: storage audits, growth, caches, fallbacks."""

from __future__ import annotations

import gc
import math
import os
import struct
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.analysis import Sanitizer
from repro.circuits.lowering import operation_to_medge
from repro.core import MemoryDrivenStrategy, simulate
from repro.dd.backends.arena import ArenaBackend
from repro.dd.backends.base import DDBackend
from repro.dd.node import VNode
from repro.dd.package import Package
from repro.dd.validate import collect_backend_violations
from repro.dd.vector import StateDD
from repro.service.jobs import build_builtin_circuit


def _workload_package() -> Package:
    package = Package(backend="arena")
    simulate(
        build_builtin_circuit("qsup_2x2_8_0"),
        MemoryDrivenStrategy(threshold=16, round_fidelity=0.95),
        package=package,
    )
    return package


class TestArenaAudits:
    """DDSan-style invariant audits run green on arena storage."""

    def test_backend_violations_empty_after_workload(self):
        package = _workload_package()
        assert collect_backend_violations(package) == []

    def test_integrity_problems_via_interface(self):
        package = _workload_package()
        assert package.integrity_problems(check_caches=True) == []

    def test_corrupt_record_slot_is_reported(self):
        package = _workload_package()
        backend = package.backend
        record = backend._v_record
        node = backend._v_nodes[-1]
        slot = 48 * node.index
        level, child0, child1 = struct.unpack_from("3i", record, slot)
        assert (level, child0) == (node.level, node.edges[0][1].index)
        # -2 marks a foreign child: wrong for an arena-built node.
        struct.pack_into("3i", record, slot, level, -2, child1)
        problems = package.integrity_problems()
        assert len(problems) == 1
        assert f"record slot {node.index} " in problems[0]
        struct.pack_into("3i", record, slot, level, child0, child1)
        assert package.integrity_problems() == []

    def test_record_length_mismatch_is_reported(self):
        package = _workload_package()
        package.backend._v_record.extend(bytes(12))
        assert any("record holds" in p for p in package.integrity_problems())

    def test_sanitizer_accepts_arena_package(self):
        package = Package(backend="arena")
        sanitizer = Sanitizer(package)
        state = StateDD.plus_state(3, package)
        # Raises SanitizerError on any storage-invariant violation.
        sanitizer.check_after_operation(state, op_index=0, gate="h")

    def test_full_ddsan_run_is_green(self):
        package = Package(backend="arena")
        outcome = simulate(
            build_builtin_circuit("qsup_2x2_8_0"),
            MemoryDrivenStrategy(threshold=16, round_fidelity=0.95),
            package=package,
            ddsan=True,
        )
        assert outcome.stats.dd_backend == "arena"


class TestArenaGrowth:
    def test_capacity_doubles_past_initial(self):
        """Thousands of distinct leaves intern densely and audit clean."""
        backend = ArenaBackend()
        package = Package(backend=backend)
        total = 3000
        for index in range(total):
            angle = index / total
            package.make_vedge(
                0,
                (complex(np.cos(angle), 0.0), None),
                (complex(0.0, np.sin(angle) + 0.5), None),
            )
        assert len(backend._v_nodes) == total
        assert backend.stats["vnodes_created"] == total
        # Ids are dense and every slot round-trips to its node.
        for index, node in enumerate(backend._v_nodes):
            assert node.index == index
            assert backend._v_nodes[node.index] is node
        assert package.integrity_problems() == []


class TestGateCache:
    def test_arena_memoizes_lowered_gates(self):
        from repro.circuits.circuit import Operation
        from repro.circuits.lowering import operation_to_medge

        package = Package(backend="arena")
        operation = Operation("h", (0,))
        first = operation_to_medge(operation, 3, package)
        second = operation_to_medge(operation, 3, package)
        assert second == first
        assert package.gate_cache  # populated
        assert second[1] is first[1]

    def test_reference_has_no_gate_cache(self):
        package = Package(backend="reference")
        assert package.gate_cache is None


class TestForeignNodeFallback:
    """Hand-built nodes (index == -1) fall back to the generic sweeps."""

    def test_sparse_levels_fall_back_to_the_generic_sort(self):
        package = Package(backend="arena")
        backend = package.backend
        leaf = package.make_vedge(0, (0.6 + 0j, None), (0.8 + 0j, None))
        edge = package.make_vedge(10**6, leaf, (0j, None))
        assert package.vnodes(edge) == DDBackend.vnodes(backend, edge)
        contributions = package.norm_contributions(edge)
        generic = DDBackend.norm_contributions(backend, edge)
        assert list(contributions.items()) == list(generic.items())

    def test_node_count_on_foreign_diagram(self):
        package = Package(backend="arena")
        foreign = VNode(0, ((complex(1.0), None), (complex(0.0), None)))
        edge = (complex(1.0), foreign)
        assert package.node_count(edge) == 1

    def test_vnodes_on_foreign_diagram(self):
        package = Package(backend="arena")
        foreign = VNode(0, ((complex(1.0), None), (complex(0.0), None)))
        assert package.vnodes((complex(1.0), foreign)) == [foreign]

    def test_norm_contributions_on_foreign_diagram(self):
        package = Package(backend="arena")
        foreign = VNode(0, ((complex(1.0), None), (complex(0.0), None)))
        contributions = package.norm_contributions((complex(1.0), foreign))
        assert set(contributions) == {foreign}

    def test_approximate_round_on_foreign_diagram(self):
        package = Package(backend="arena")
        backend = package.backend
        foreign = VNode(0, ((complex(0.6), None), (complex(0.8), None)))
        _one, leaf = package.make_vedge(0, (0j, None), (1 + 0j, None))
        edge = package.make_vedge(1, (complex(0.6), foreign), (complex(0.8), leaf))
        rebuilt, spent, count = package.approximate_round(edge, 1, 0.4, 2)
        assert count == 1
        assert rebuilt[1].edges[0] == (0j, None)
        assert (rebuilt, spent, count) == DDBackend.approximate_round(
            backend, edge, 1, 0.4, 2
        )

    def test_approximate_round_with_sparse_levels(self):
        package = Package(backend="arena")
        leaf = package.make_vedge(0, (0.6 + 0j, None), (0.8 + 0j, None))
        other = package.make_vedge(0, (0.8 + 0j, None), (0.6 + 0j, None))
        below = package.make_vedge(1, (0.6 + 0j, leaf[1]), (0.8 + 0j, other[1]))
        edge = package.make_vedge(10**6, below, (0j, None))
        # Nothing fits the budgets: a rebuild would meet the terminal
        # far above level 0.
        for budget, max_removed in ((0.3, 4), (0.0, 4), (math.inf, 0)):
            assert package.approximate_round(
                edge, 10**6, budget, max_removed
            ) == DDBackend.approximate_round(
                package.backend, edge, 10**6, budget, max_removed
            )

    def test_state_table_on_foreign_diagram(self):
        package = Package(backend="arena")
        backend = package.backend
        foreign = VNode(0, ((complex(0.6), None), (complex(0.0, 0.8), None)))
        edge = package.make_vedge(1, (complex(1.0), foreign), (0j, None))
        assert package.state_table(edge) == DDBackend.state_table(backend, edge)
        assert package.state_table((complex(1.0), foreign)) == (
            DDBackend.state_table(backend, (complex(1.0), foreign))
        )

    def test_state_table_with_sparse_levels(self):
        package = Package(backend="arena")
        leaf = package.make_vedge(0, (0.6 + 0j, None), (0.8 + 0j, None))
        edge = package.make_vedge(10**6, leaf, (0j, None))
        assert package.state_table(edge) == DDBackend.state_table(
            package.backend, edge
        )


class TestThinNodes:
    """An arena vector node holds only its slot, record and children."""

    def test_nodes_are_read_only(self):
        package = Package(backend="arena")
        node = StateDD.plus_state(2, package).edge[1]
        for name, value in (("edges", ()), ("level", 0), ("index", 0)):
            with pytest.raises(AttributeError):
                setattr(node, name, value)
        assert node.level == 1 and node.index == len(package.backend._v_nodes) - 1

    def test_edges_are_built_on_access_from_the_slots_nodes(self):
        package = Package(backend="arena")
        node = StateDD.plus_state(2, package).edge[1]
        first, second = node.edges, node.edges
        assert first == second and first is not second
        child = first[0][1]
        assert child is package.backend._v_nodes[child.index]

    def test_python_heap_per_new_node(self):
        """Per-node tuples and complexes must not come back: the Python heap
        beyond the arena's own arrays grows by at most ~120 B a node."""
        package = Package(backend="arena")
        backend = package.backend
        runs = []
        for seed in range(5):
            circuit = build_builtin_circuit(f"qsup_3x3_10_{seed}")
            n = circuit.num_qubits
            gates = [operation_to_medge(op, n, package) for op in circuit.operations]
            runs.append((n, gates, StateDD.basis_state(n, 0, package).edge))

        def arena_bytes() -> int:
            state = backend._state
            tables = ("vtable", "mtable", "vadd", "madd", "mv", "mm", "inner")
            return (
                sum(sys.getsizeof(getattr(state, name)) for name in tables)
                + sys.getsizeof(backend._v_record)
                + sys.getsizeof(backend._v_nodes)
                + sys.getsizeof(backend._m_nodes)
            )

        created = backend.stats["vnodes_created"]
        gc.collect()
        storage = arena_bytes()
        tracemalloc.start()
        try:
            for n, gates, edge in runs:
                for gate in gates:
                    edge = package.multiply_mv(gate, edge, n - 1)
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        created = backend.stats["vnodes_created"] - created
        assert created >= 10_000
        per_node = (traced - (arena_bytes() - storage)) / created
        assert per_node <= 120, per_node


class TestLifetime:
    def test_a_dropped_package_is_freed(self):
        package = Package(backend="arena")
        simulate(
            build_builtin_circuit("qsup_2x2_8_0"),
            MemoryDrivenStrategy(threshold=16, round_fidelity=0.95),
            package=package,
        )
        backend = weakref.ref(package.backend)
        del package
        gc.collect()
        assert backend() is None

    def test_a_node_outlives_its_package(self):
        package = Package(backend="arena")
        weight, root = StateDD.plus_state(3, package).edge
        amplitudes = StateDD((weight, root), 3, package).to_amplitudes()
        backend = weakref.ref(package.backend)
        del package
        gc.collect()
        # The node holds its record and children, not the arena's tables.
        assert backend() is None
        assert root.level == 2
        (w0, child), (w1, _same) = root.edges
        assert child is _same and child.edges[0][1].level == 0
        assert np.allclose(
            StateDD((weight, root), 3, Package(backend="arena")).to_amplitudes(),
            amplitudes,
        )

    def test_a_long_chain_frees_without_recursing(self):
        package = Package(backend="arena")
        edge = package.make_vedge(0, (1 + 0j, None), (0j, None))
        for _ in range(200_000):
            edge = package.make_vedge(1, edge, (0j, None))
        del package, edge  # freeing the chain must not exhaust the C stack

    @pytest.mark.skipif(
        "asan" in os.environ.get("LD_PRELOAD", ""),
        reason="AddressSanitizer's quarantine holds freed memory in RSS",
    )
    def test_many_jobs_leave_rss_flat(self, tmp_path):
        from repro.service.engine import execute_job
        from repro.service.jobs import JobSpec
        from repro.service.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        spec = JobSpec(circuit="builtin:qsup_2x2_4_0")

        def rss_kib() -> int:
            with open("/proc/self/status") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1])
            return 0

        for _ in range(50):
            execute_job(spec, store, use_cache=False)
        start = rss_kib()
        for _ in range(200):
            execute_job(spec, store, use_cache=False)
        assert rss_kib() - start < 2048
