"""Shared test utilities."""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.lowering import circuit_operators
from repro.dd.package import Package
from repro.dd.vector import StateDD
from repro.service.checkpoint import Checkpoint


def run_circuit_dd(circuit: Circuit, package: Package | None = None) -> StateDD:
    """Apply a circuit to |0...0> gate by gate on decision diagrams."""
    state = StateDD.basis_state(circuit.num_qubits, 0, package)
    for operator in circuit_operators(circuit, package or state.package):
        state = operator.apply(state)
    return state


def random_state_vector(
    num_qubits: int, rng: np.random.Generator
) -> np.ndarray:
    """A Haar-ish random unit vector (Gaussian components, normalized)."""
    size = 1 << num_qubits
    vector = rng.normal(size=size) + 1j * rng.normal(size=size)
    return vector / np.linalg.norm(vector)


def random_sparse_state_vector(
    num_qubits: int, rng: np.random.Generator, density: float = 0.3
) -> np.ndarray:
    """A random unit vector with many exact zeros (DD-friendly)."""
    size = 1 << num_qubits
    mask = rng.random(size) < density
    if not mask.any():
        mask[int(rng.integers(size))] = True
    vector = np.where(
        mask, rng.normal(size=size) + 1j * rng.normal(size=size), 0.0
    )
    return vector / np.linalg.norm(vector)


def v1_state_document(state: StateDD) -> dict:
    """The ``repro-dd-state`` version 1 document of ``state``, as the
    earlier writer built it: a ``nodes`` list in ascending level order,
    each node's weights as JSON ``[re, im]`` pairs.  Only version 2 is
    written now; version 1 is still read."""
    nodes = sorted(state.nodes(), key=lambda node: node.level)
    index_of = {id(node): position for position, node in enumerate(nodes)}
    weight, root = state.edge
    return {
        "format": "repro-dd-state",
        "version": 1,
        "num_qubits": state.num_qubits,
        "root": {
            "weight": [weight.real, weight.imag],
            "node": -1 if root is None else index_of[id(root)],
        },
        "nodes": [
            {
                "level": node.level,
                "edges": [
                    [[w.real, w.imag], -1 if child is None else index_of[id(child)]]
                    for w, child in node.edges
                ],
            }
            for node in nodes
        ],
    }


def make_checkpoint(job_hash: str, next_op_index: int) -> Checkpoint:
    """A small valid checkpoint (empty state, no rounds) for store tests."""
    return Checkpoint(
        job_hash, next_op_index, state={}, rounds=[], max_nodes=0,
        elapsed_seconds=0.0, schedule={},
    )


class CountingClock:
    """Monotone clock returning 1.0, 2.0, ... — one tick per poll."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        return float(self.calls)
