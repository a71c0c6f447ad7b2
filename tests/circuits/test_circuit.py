"""Tests for the circuit IR: operations, blocks, transformations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baseline import simulate_dense
from repro.circuits.circuit import Block, Circuit, Operation


class TestOperationValidation:
    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            Operation("bogus", (0,))

    def test_no_targets(self):
        with pytest.raises(ValueError):
            Operation("x", ())

    def test_target_control_overlap(self):
        with pytest.raises(ValueError):
            Operation("x", (0,), (0,))

    def test_single_qubit_gate_single_target(self):
        with pytest.raises(ValueError):
            Operation("h", (0, 1))

    def test_param_count_checked(self):
        with pytest.raises(ValueError):
            Operation("rx", (0,))
        with pytest.raises(ValueError):
            Operation("h", (0,), params=(1.0,))

    def test_swap_needs_two_targets(self):
        with pytest.raises(ValueError):
            Operation("swap", (0,))

    def test_cmodmul_needs_two_params(self):
        with pytest.raises(ValueError):
            Operation("cmodmul", (0, 1), params=(7,))

    def test_cmodmul_work_register_is_the_low_qubits(self):
        # The lowering acts on qubits 0..k-1 whatever the targets say, so
        # any other register is refused however the operation is built.
        for targets in ((2, 3), (1, 0), (0, 2)):
            with pytest.raises(ValueError, match="0..k-1"):
                Operation("cmodmul", targets, (), (2, 3))
        assert Operation("cmodmul", (0, 1), (), (2, 3)).targets == (0, 1)

    def test_qubits_touched(self):
        op = Operation("x", (2,), (0, 1))
        assert op.num_qubits_touched == 3

    def test_describe_includes_controls(self):
        op = Operation("p", (2,), (0,), (math.pi / 2,))
        text = op.describe()
        assert "cp" in text and "0 -> 2" in text


class TestOperationInverse:
    def test_self_inverse(self):
        op = Operation("x", (0,), (1,))
        assert op.inverse() == op

    def test_rotation_inverse(self):
        op = Operation("rz", (0,), params=(0.5,))
        assert op.inverse().params == (-0.5,)

    def test_swap_inverse_is_self(self):
        op = Operation("swap", (0, 1))
        assert op.inverse() is op

    def test_cmodmul_inverse_uses_modular_inverse(self):
        op = Operation("cmodmul", (0, 1, 2, 3), params=(7, 15))
        inverse = op.inverse()
        assert inverse.params == (pow(7, -1, 15), 15)
        assert (7 * inverse.params[0]) % 15 == 1


class TestCircuitBuilding:
    def test_fluent_chaining(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        assert len(circuit) == 2
        assert circuit[0].gate == "h"
        assert circuit[1].controls == (0,)

    def test_qubit_bounds_checked(self):
        circuit = Circuit(2)
        with pytest.raises(ValueError):
            circuit.h(2)
        with pytest.raises(ValueError):
            circuit.cx(0, 5)

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            Circuit(0)

    def test_all_builder_methods(self):
        circuit = Circuit(4)
        circuit.i(0).x(0).y(0).z(0).h(0).s(0).sdg(0).t(0).tdg(0)
        circuit.sx(0).sy(0)
        circuit.rx(0.1, 0).ry(0.2, 0).rz(0.3, 0).p(0.4, 0)
        circuit.u(0.1, 0.2, 0.3, 0)
        circuit.cx(0, 1).cy(0, 1).cz(0, 1).ch(0, 1)
        circuit.cp(0.5, 0, 1).crz(0.6, 0, 1).cry(0.7, 0, 1)
        circuit.ccx(0, 1, 2).mcx([0, 1, 2], 3).mcz([0, 1], 2)
        circuit.mcp(0.8, [0, 1], 2)
        circuit.swap(0, 1)
        assert len(circuit) == 28

    def test_cmodmul_validation(self):
        circuit = Circuit(6)
        with pytest.raises(ValueError):
            circuit.cmodmul(7, 15, work=[1, 2, 3, 4])  # not bottom-aligned
        with pytest.raises(ValueError):
            circuit.cmodmul(7, 15, work=[0, 1, 2])  # too narrow for N=15
        with pytest.raises(ValueError):
            circuit.cmodmul(5, 15, work=[0, 1, 2, 3])  # gcd(5,15)>1
        circuit.cmodmul(7, 15, work=range(4), controls=(5,))
        assert circuit[0].gate == "cmodmul"


class TestBlocks:
    def test_block_annotation(self):
        circuit = Circuit(2)
        circuit.begin_block("prep").h(0).cx(0, 1).end_block()
        assert circuit.blocks == (Block("prep", 0, 2),)

    def test_nested_block_rejected(self):
        circuit = Circuit(2).begin_block("a")
        with pytest.raises(ValueError):
            circuit.begin_block("b")

    def test_end_without_begin(self):
        with pytest.raises(ValueError):
            Circuit(2).end_block()

    def test_block_boundaries(self):
        circuit = Circuit(2)
        circuit.begin_block("a").h(0).end_block()
        circuit.begin_block("b").h(1).x(0).end_block()
        assert circuit.block_boundaries() == [1, 3]

    def test_invalid_block_range(self):
        with pytest.raises(ValueError):
            Block("x", -1, 0)
        with pytest.raises(ValueError):
            Block("x", 3, 1)


class TestCircuitTransforms:
    def test_inverse_undoes_circuit(self, rng):
        circuit = Circuit(3)
        circuit.h(0).cx(0, 1).t(2).cp(0.7, 1, 2).swap(0, 2).rz(0.3, 1)
        forward = simulate_dense(circuit)
        roundtrip = simulate_dense(circuit.compose(circuit.inverse()))
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        np.testing.assert_allclose(roundtrip, expected, atol=1e-10)
        assert not np.allclose(forward, expected)

    def test_inverse_reverses_blocks(self):
        circuit = Circuit(2)
        circuit.begin_block("a").h(0).end_block()
        circuit.begin_block("b").x(1).cx(0, 1).end_block()
        inverse = circuit.inverse()
        names = [block.name for block in inverse.blocks]
        assert names == ["b_dg", "a_dg"]
        assert inverse.blocks[0].start == 0

    def test_compose_offsets_blocks(self):
        first = Circuit(2)
        first.begin_block("a").h(0).end_block()
        second = Circuit(2)
        second.begin_block("b").x(1).end_block()
        combined = first.compose(second)
        assert combined.blocks[1] == Block("b", 1, 2)

    def test_compose_width_mismatch(self):
        with pytest.raises(ValueError):
            Circuit(2).compose(Circuit(3))


class TestSubcircuit:
    def test_range_extraction(self):
        circuit = Circuit(2).h(0).cx(0, 1).x(1).z(0)
        piece = circuit.subcircuit(1, 3)
        assert [op.gate for op in piece] == ["x", "x"]
        assert piece.name == f"{circuit.name}[1:3]"

    def test_open_end(self):
        circuit = Circuit(2).h(0).x(1).z(0)
        piece = circuit.subcircuit(1)
        assert len(piece) == 2

    def test_contained_blocks_rebased(self):
        circuit = Circuit(2)
        circuit.h(0)
        circuit.begin_block("core").cx(0, 1).x(1).end_block()
        circuit.z(0)
        piece = circuit.subcircuit(1, 3)
        assert piece.blocks == (Block("core", 0, 2),)

    def test_partial_blocks_dropped(self):
        circuit = Circuit(2)
        circuit.begin_block("core").h(0).cx(0, 1).end_block()
        piece = circuit.subcircuit(1, 2)
        assert piece.blocks == ()

    def test_invalid_range(self):
        circuit = Circuit(2).h(0)
        with pytest.raises(ValueError):
            circuit.subcircuit(2, 1)
        with pytest.raises(ValueError):
            circuit.subcircuit(0, 5)

    def test_concatenation_reconstructs(self):
        circuit = Circuit(3).h(0).cx(0, 1).t(2).swap(0, 2)
        rebuilt = circuit.subcircuit(0, 2).compose(circuit.subcircuit(2))
        assert rebuilt.operations == circuit.operations


class TestCircuitQueries:
    def test_gate_counts(self):
        circuit = Circuit(3).h(0).h(1).cx(0, 1).ccx(0, 1, 2)
        assert circuit.gate_counts() == {"h": 2, "cx": 1, "ccx": 1}

    def test_depth_parallel_gates(self):
        circuit = Circuit(3).h(0).h(1).h(2)
        assert circuit.depth() == 1

    def test_depth_serial_dependency(self):
        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        assert circuit.depth() == 3

    def test_two_qubit_gate_count(self):
        circuit = Circuit(3).h(0).cx(0, 1).swap(1, 2).ccx(0, 1, 2)
        assert circuit.two_qubit_gate_count() == 3

    def test_describe_contains_blocks(self):
        circuit = Circuit(2)
        circuit.begin_block("prep").h(0).end_block()
        text = circuit.describe()
        assert "block 'prep'" in text
        assert "h 0" in text

    def test_operations_snapshot_immutable(self):
        circuit = Circuit(2).h(0)
        snapshot = circuit.operations
        circuit.x(1)
        assert len(snapshot) == 1
