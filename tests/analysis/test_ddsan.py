"""Tests for DDSan, the runtime decision-diagram sanitizer.

Corruptions are seeded deliberately — building denormalized nodes by
hand and mutating hash-consed nodes in place — to prove the sanitizer
catches exactly the damage ddlint rules DD001/DD003 exist to prevent.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    Sanitizer,
    SanitizerError,
    audit_package,
    check_operator_invariants,
    collect_operator_violations,
    ddsan_enabled,
)
from repro.circuits.circuit import Circuit, Operation
from repro.core import NoApproximation, simulate
from repro.dd.matrix import OperatorDD
from repro.dd.node import MNode, VNode
from repro.dd.package import Package
from repro.dd.validate import collect_violations
from repro.dd.vector import StateDD


def bell_circuit() -> Circuit:
    circuit = Circuit(2, name="bell")
    circuit.append(Operation("h", (0,)))
    circuit.append(Operation("x", (1,), (0,)))
    circuit.append(Operation("h", (0,)))
    circuit.append(Operation("h", (0,)))
    return circuit


class TestEnablement:
    def test_env_flag_parsing(self):
        assert ddsan_enabled({"REPRO_DDSAN": "1"})
        assert ddsan_enabled({"REPRO_DDSAN": "true"})
        assert ddsan_enabled({"REPRO_DDSAN": " ON "})
        assert not ddsan_enabled({"REPRO_DDSAN": "0"})
        assert not ddsan_enabled({"REPRO_DDSAN": ""})
        assert not ddsan_enabled({})

    def test_clean_run_passes_under_sanitizer(self):
        outcome = simulate(
            bell_circuit(), NoApproximation(), package=Package(), ddsan=True
        )
        assert outcome.stats.num_operations == 4


class TestCorruptedStates:
    """Hand-built diagrams violating each structural invariant."""

    def test_denormalized_node(self):
        package = Package()
        rogue = VNode(0, ((0.5 + 0j, None), (0.5 + 0j, None)))
        state = StateDD((1.0 + 0j, rogue), 1, package)
        problems = collect_violations(state)
        assert any("edge-norm" in problem for problem in problems)

    def test_level_skip(self):
        package = Package()
        bottom = VNode(0, ((1.0 + 0j, None), (0j, None)))
        rogue = VNode(2, ((1.0 + 0j, bottom), (0j, None)))
        state = StateDD((1.0 + 0j, rogue), 3, package)
        problems = collect_violations(state)
        assert any("level skip" in problem for problem in problems)

    def test_duplicated_structural_node(self):
        package = Package()
        inv = 2.0 ** -0.5
        twin_a = VNode(0, ((1.0 + 0j, None), (0j, None)))
        twin_b = VNode(0, ((1.0 + 0j, None), (0j, None)))
        root = VNode(1, ((inv + 0j, twin_a), (inv + 0j, twin_b)))
        state = StateDD((1.0 + 0j, root), 2, package)
        problems = collect_violations(state)
        assert any("duplicate structural" in problem for problem in problems)

    def test_sanitizer_raises_with_context(self):
        package = Package()
        rogue = VNode(0, ((0.5 + 0j, None), (0.5 + 0j, None)))
        state = StateDD((1.0 + 0j, rogue), 1, package)
        sanitizer = Sanitizer(package)
        with pytest.raises(SanitizerError) as info:
            sanitizer.check_after_operation(state, op_index=7, gate="h")
        assert info.value.op_index == 7
        assert info.value.gate == "h"
        assert "after operation 7" in str(info.value)

    def test_round_context_in_error(self):
        package = Package()
        rogue = VNode(0, ((0.5 + 0j, None), (0.5 + 0j, None)))
        state = StateDD((1.0 + 0j, rogue), 1, package)
        sanitizer = Sanitizer(package)
        with pytest.raises(SanitizerError) as info:
            sanitizer.check_after_round(state, op_index=3, round_index=2)
        assert info.value.round_index == 2


class TestPackageAudit:
    def test_clean_package_audits_clean(self):
        package = Package()
        StateDD.plus_state(3, package)
        assert audit_package(package) == []

    def test_stale_unique_table_entry(self):
        # Arena nodes are read-only; the reference engine's can be mutated.
        package = Package(backend="reference")
        state = StateDD.plus_state(2, package)
        node = state.nodes()[0]
        (w0, c0), (w1, c1) = node.edges
        node.edges = ((w0 * 2.0, c0), (w1, c1))  # mutate after interning
        problems = audit_package(package)
        assert any("stale" in problem for problem in problems)

    def test_non_canonical_cached_node(self):
        package = Package()
        plus = StateDD.plus_state(2, package)
        basis = StateDD.basis_state(2, 1, package)
        package.vadd(plus.edge, basis.edge, 1)
        assert len(package._vadd_cache) > 0
        # Emptying the unique table leaves every cached node un-interned.
        package._vtable.clear()
        problems = audit_package(package)
        assert any("non-canonical" in problem for problem in problems)
        assert audit_package(package, check_caches=False) == []


class TestOperatorInvariants:
    def test_valid_operator_passes(self):
        package = Package()
        import numpy as np

        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        operator = OperatorDD.from_matrix(hadamard, package)
        assert collect_operator_violations(operator) == []
        check_operator_invariants(operator)

    def test_bad_normalization_leader(self):
        package = Package()
        rogue = MNode(
            0,
            (
                (0.5 + 0j, None),
                (0j, None),
                (0j, None),
                (0.5 + 0j, None),
            ),
        )
        operator = OperatorDD((1.0 + 0j, rogue), 1, package)
        problems = collect_operator_violations(operator)
        assert any("normalization leader" in problem for problem in problems)

    def test_matrix_level_skip(self):
        package = Package()
        bottom = MNode(
            0, ((1.0 + 0j, None), (0j, None), (0j, None), (1.0 + 0j, None))
        )
        rogue = MNode(
            2,
            (
                (1.0 + 0j, bottom),
                (0j, None),
                (0j, None),
                (1.0 + 0j, bottom),
            ),
        )
        operator = OperatorDD((1.0 + 0j, rogue), 3, package)
        problems = collect_operator_violations(operator)
        assert any("level skip" in problem for problem in problems)

    def test_check_operator_raises(self):
        package = Package()
        rogue = MNode(
            0, ((2.0 + 0j, None), (0j, None), (0j, None), (0j, None))
        )
        operator = OperatorDD((1.0 + 0j, rogue), 1, package)
        with pytest.raises(SanitizerError):
            check_operator_invariants(operator)


class TestMidSimulationCatch:
    """DDSan aborts a simulation when a gate application corrupts
    a hash-consed node — the acceptance scenario of the issue."""

    def test_seeded_corruption_is_caught(self):
        circuit = bell_circuit()
        # Arena nodes are read-only; the reference engine's can be mutated.
        package = Package(backend="reference")
        top_level = circuit.num_qubits - 1
        original = package.multiply_mv
        calls = {"top": 0}

        def corrupting_multiply(medge, vedge, level):
            result = original(medge, vedge, level)
            if level == top_level:
                calls["top"] += 1
                if calls["top"] == 3:
                    _weight, root = result
                    assert root is not None
                    root.edges = tuple(
                        (weight * 3.0, child)
                        for weight, child in root.edges
                    )
            return result

        package.multiply_mv = corrupting_multiply
        with pytest.raises(SanitizerError) as info:
            simulate(circuit, NoApproximation(), package=package, ddsan=True)
        assert info.value.op_index == 2
        assert info.value.gate == circuit.operations[2].gate
        assert any(
            "edge-norm" in problem or "stale" in problem
            for problem in info.value.problems
        )

    def test_same_corruption_passes_unsanitized(self):
        """Without DDSan the corrupted run completes silently —
        the sanitizer is what surfaces the damage."""
        circuit = bell_circuit()
        # Arena nodes are read-only; the reference engine's can be mutated.
        package = Package(backend="reference")
        top_level = circuit.num_qubits - 1
        original = package.multiply_mv
        calls = {"top": 0}

        def corrupting_multiply(medge, vedge, level):
            result = original(medge, vedge, level)
            if level == top_level:
                calls["top"] += 1
                if calls["top"] == 3:
                    _weight, root = result
                    root.edges = tuple(
                        (weight * 3.0, child)
                        for weight, child in root.edges
                    )
            return result

        package.multiply_mv = corrupting_multiply
        outcome = simulate(
            circuit, NoApproximation(), package=package, ddsan=False
        )
        assert outcome.stats.num_operations == 4
