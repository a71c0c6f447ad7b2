"""Arena-backend internals: storage audits, growth, caches, fallbacks."""

from __future__ import annotations

import numpy as np

from repro.analysis import Sanitizer
from repro.core import MemoryDrivenStrategy, simulate
from repro.dd.backends.arena import ArenaBackend
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
