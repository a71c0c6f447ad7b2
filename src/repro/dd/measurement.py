"""Projective measurement with state collapse on decision diagrams.

:meth:`repro.dd.vector.StateDD.sample` draws outcomes without modifying
the state; this module implements the textbook *collapsing* measurement of
§II-A ("the measurement destroys any superposition and entanglement"):
projecting onto a qubit outcome, renormalizing, and returning the
post-measurement state.

Projection reuses the same rebuild machinery as the paper's approximation
(zeroing one branch of every node on the measured qubit's level is a
truncation in the sense of Eq. (1)), so the measurement probability simply
falls out of the root weight after the normalizing rebuild.
"""

from __future__ import annotations


import numpy as np

from . import ctable
from .node import VEdge, VNode, zero_vedge
from .package import Package
from .vector import StateDD


def _project(
    edge: VEdge,
    level: int,
    qubit: int,
    value: int,
    memo: dict[VNode, VEdge],
    package: Package,
) -> VEdge:
    """Rebuild ``edge`` keeping only the ``value`` branch on ``qubit``."""
    weight, node = edge
    if ctable.is_zero(weight):
        return zero_vedge()
    if level < qubit:
        return edge
    cached = memo.get(node)
    if cached is None:
        if level == qubit:
            kept = node.edges[value]
            if value == 0:
                cached = package.make_vedge(level, kept, zero_vedge())
            else:
                cached = package.make_vedge(level, zero_vedge(), kept)
        else:
            child0 = _project(
                node.edges[0], level - 1, qubit, value, memo, package
            )
            child1 = _project(
                node.edges[1], level - 1, qubit, value, memo, package
            )
            cached = package.make_vedge(level, child0, child1)
        memo[node] = cached
    return (cached[0] * weight, cached[1])


def project_qubit(
    state: StateDD, qubit: int, value: int
) -> tuple[StateDD | None, float]:
    """Project a state onto ``qubit == value`` and renormalize.

    Args:
        state: The state to project (unit norm).
        qubit: Qubit index to project.
        value: Outcome to project onto (0 or 1).

    Returns:
        ``(post_state, probability)``.  When the outcome has probability
        zero the post state is None.
    """
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    if value not in (0, 1):
        raise ValueError("value must be 0 or 1")
    package = state.package
    projected = _project(
        state.edge, state.num_qubits - 1, qubit, value, {}, package
    )
    weight, node = projected
    probability = abs(weight) ** 2
    if probability <= 0.0 or node is None:
        return None, 0.0
    normalized = StateDD(
        (weight / abs(weight), node), state.num_qubits, package
    )
    return normalized, min(1.0, probability)


def measure_qubit(
    state: StateDD,
    qubit: int,
    rng: np.random.Generator | None = None,
) -> tuple[int, StateDD, float]:
    """Measure one qubit, collapsing the state.

    Args:
        state: The state to measure (unit norm; not modified — a fresh
            collapsed state is returned).
        qubit: Qubit index to measure.
        rng: NumPy generator (fresh default if omitted).

    Returns:
        ``(outcome, post_state, probability_of_outcome)``.
    """
    generator = rng if rng is not None else np.random.default_rng()
    probability_one = state.measure_qubit_probability(qubit)
    outcome = 1 if generator.random() < probability_one else 0
    post_state, probability = project_qubit(state, qubit, outcome)
    if post_state is None:
        # Numerical corner: the sampled branch carries (almost) no mass.
        outcome = 1 - outcome
        post_state, probability = project_qubit(state, qubit, outcome)
        if post_state is None:
            raise ArithmeticError("state has no measurable amplitude mass")
    return outcome, post_state, probability


def measure_all(
    state: StateDD,
    rng: np.random.Generator | None = None,
) -> tuple[int, StateDD]:
    """Measure every qubit, collapsing to a basis state.

    Returns:
        ``(basis_index, post_state)`` where the post state is the measured
        computational basis state (repeated measurement yields the same
        result, as Example 1 of the paper emphasizes).
    """
    generator = rng if rng is not None else np.random.default_rng()
    counts = state.sample(1, generator)
    index = next(iter(counts))
    collapsed = StateDD.basis_state(state.num_qubits, index, state.package)
    return index, collapsed


def sequential_measurement(
    state: StateDD,
    qubits: list[int],
    rng: np.random.Generator | None = None,
) -> tuple[dict[int, int], StateDD]:
    """Measure a list of qubits one after another with collapse.

    Demonstrates entanglement correlations: measuring one half of a GHZ
    pair pins the other half.

    Returns:
        ``(outcomes_by_qubit, post_state)``.
    """
    generator = rng if rng is not None else np.random.default_rng()
    outcomes: dict[int, int] = {}
    current = state
    for qubit in qubits:
        outcome, current, _probability = measure_qubit(
            current, qubit, generator
        )
        outcomes[qubit] = outcome
    return outcomes, current
