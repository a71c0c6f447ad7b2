"""Exact distribution analysis on state diagrams.

Sampling (``StateDD.sample``) estimates outcome statistics; this module
computes them *exactly* by diagram traversal:

* :func:`marginal_probabilities` — the joint distribution of any subset of
  qubits, in time linear in the diagram size times the marginal's support
  (never materializing the ``2**n`` joint distribution).
* :func:`outcome_entropy` — the Shannon entropy of the full measurement
  distribution, a scalar summary of how spread out a state is.
* :func:`dominant_outcomes` — the most probable basis states above a
  threshold, found by branch-and-bound descent.

These make the Shor postprocessing deterministic (feed the *exact*
counting-register distribution instead of samples) and give benchmarks
noise-free observables.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from . import ctable
from .node import VEdge, VNode
from .vector import StateDD


def marginal_probabilities(
    state: StateDD, qubits: Sequence[int]
) -> dict[int, float]:
    """Exact joint distribution of a subset of qubits.

    Args:
        state: The state to analyze (unit norm).
        qubits: Qubit indices to keep; bit ``k`` of a result key is the
            value of ``qubits[k]``.

    Returns:
        Mapping from marginal outcome to probability (entries below
        ``1e-15`` are dropped).

    Raises:
        ValueError: On duplicate or out-of-range qubits.
    """
    kept = list(qubits)
    if len(set(kept)) != len(kept):
        raise ValueError("duplicate qubits in marginal")
    for qubit in kept:
        if not 0 <= qubit < state.num_qubits:
            raise ValueError(f"qubit {qubit} out of range")
    position_of = {qubit: position for position, qubit in enumerate(kept)}

    # Sweep top-down, maintaining probability mass per (node, partial key).
    weight, root = state.edge
    if root is None:
        return {}
    masses: dict[tuple[int, int], float] = {(id(root), 0): abs(weight) ** 2}
    nodes_by_id: dict[int, VNode] = {id(root): root}
    result: dict[int, float] = {}

    for level in range(state.num_qubits - 1, -1, -1):
        next_masses: dict[tuple[int, int], float] = {}
        next_nodes: dict[int, VNode] = {}
        for (node_id, partial), mass in masses.items():
            node = nodes_by_id[node_id]
            for bit, (edge_weight, child) in enumerate(node.edges):
                if ctable.is_zero(edge_weight):
                    continue
                branch_mass = mass * abs(edge_weight) ** 2
                key = partial
                if level in position_of:
                    key |= bit << position_of[level]
                if level == 0:
                    result[key] = result.get(key, 0.0) + branch_mass
                else:
                    bucket = (id(child), key)
                    next_masses[bucket] = (
                        next_masses.get(bucket, 0.0) + branch_mass
                    )
                    next_nodes[id(child)] = child
        masses = next_masses
        nodes_by_id = next_nodes

    return {
        outcome: probability
        for outcome, probability in result.items()
        if probability > 1e-15
    }


def outcome_entropy(state: StateDD, base: float = 2.0) -> float:
    """Shannon entropy of the full measurement distribution.

    Computed from the per-level branching structure without materializing
    the distribution: a top-down sweep accumulates
    :math:`-\\sum_i p_i \\log p_i` by splitting each path's mass at every
    node.  Runs in time linear in the diagram size.
    """
    weight, root = state.edge
    if root is None:
        return 0.0
    log_base = math.log(base)
    # mass[node] = total path-prefix probability arriving at the node;
    # plogp[node] = sum of m * log(m) over those prefixes.
    masses: dict[int, float] = {id(root): abs(weight) ** 2}
    plogp: dict[int, float] = {
        id(root): abs(weight) ** 2 * math.log(max(abs(weight) ** 2, 1e-300))
    }
    nodes_by_id: dict[int, VNode] = {id(root): root}
    entropy_sum = 0.0

    for level in range(state.num_qubits - 1, -1, -1):
        next_masses: dict[int, float] = {}
        next_plogp: dict[int, float] = {}
        next_nodes: dict[int, VNode] = {}
        for node_id, mass in masses.items():
            node = nodes_by_id[node_id]
            node_plogp = plogp[node_id]
            for _bit, (edge_weight, child) in enumerate(node.edges):
                if ctable.is_zero(edge_weight):
                    continue
                p_edge = abs(edge_weight) ** 2
                branch_mass = mass * p_edge
                branch_plogp = (
                    p_edge * node_plogp + branch_mass * math.log(p_edge)
                )
                if level == 0:
                    entropy_sum += branch_plogp
                else:
                    key = id(child)
                    next_masses[key] = next_masses.get(key, 0.0) + branch_mass
                    next_plogp[key] = next_plogp.get(key, 0.0) + branch_plogp
                    next_nodes[key] = child
        masses = next_masses
        plogp = next_plogp
        nodes_by_id = next_nodes

    return max(0.0, -entropy_sum / log_base)


def dominant_outcomes(
    state: StateDD, threshold: float = 0.01, limit: int = 64
) -> list[tuple[int, float]]:
    """Basis states with probability above ``threshold``, most likely first.

    Branch-and-bound: a path prefix whose accumulated probability already
    falls below the threshold cannot contain a qualifying outcome (edge
    probabilities are at most 1 under the norm normalization), so whole
    subtrees are pruned.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    results: list[tuple[int, float]] = []
    _collect_outcomes(
        state.edge, state.num_qubits - 1, 0, 1.0, threshold, limit * 4, results
    )
    results.sort(key=lambda item: (-item[1], item[0]))
    return results[:limit]


def _collect_outcomes(
    edge: VEdge,
    level: int,
    prefix: int,
    mass: float,
    threshold: float,
    cap: int,
    results: list[tuple[int, float]],
) -> None:
    """Append ``(index, probability)`` for every path below ``edge`` whose
    probability reaches ``threshold``, until ``results`` holds ``cap``."""
    if len(results) >= cap:
        return
    weight, node = edge
    if ctable.is_zero(weight):
        return
    mass = mass * abs(weight) ** 2
    if mass < threshold:
        return
    if level < 0:
        results.append((prefix, mass))
        return
    _collect_outcomes(
        node.edges[0], level - 1, prefix, mass, threshold, cap, results
    )
    _collect_outcomes(
        node.edges[1],
        level - 1,
        prefix | (1 << level),
        mass,
        threshold,
        cap,
        results,
    )
