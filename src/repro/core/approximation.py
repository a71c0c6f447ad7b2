"""Node removal (§IV-A of the paper) and the other approximation policies.

``approximate_state`` removes low-contribution nodes from a state diagram
until a per-round fidelity budget is exhausted, then rebuilds and
renormalizes the diagram.  The removal set is chosen greedily by ascending
contribution under the constraint

.. math::

    \\sum_{v \\in R} c(v) \\;\\le\\; 1 - f_{\\text{round}},

which guarantees the achieved fidelity is at least
:math:`f_{\\text{round}}`: when removed nodes share paths, the actually
zeroed amplitude mass is *at most* the contribution sum, never more.  The
exact achieved fidelity :math:`|\\langle\\psi|\\psi_I\\rangle|^2` is then
measured with a DD inner product and reported alongside the bound.

Every node-removal policy here (``approximate_state``,
``approximate_to_size``, ``approximate_below_contribution``) runs the
same backend round, :meth:`~repro.dd.package.Package.approximate_round`,
and differs only in the mass budget and node count it passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..dd.backends.base import select_removal
from ..dd.node import VEdge, VNode
from ..dd.package import Package
from ..dd.vector import StateDD
from .contributions import node_contributions


@dataclass(frozen=True)
class ApproximationResult:
    """Record of one approximation round.

    Attributes:
        state: The approximated (renormalized) state.
        requested_fidelity: The per-round lower bound ``f_round``.
        achieved_fidelity: Exact fidelity between input and output state.
        removed_contribution: Total contribution of the removed nodes
            (upper bound on the fidelity loss).
        nodes_before: Diagram size before the round.
        nodes_after: Diagram size after the round.
        removed_nodes: Number of distinct nodes removed.
    """

    state: StateDD
    requested_fidelity: float
    achieved_fidelity: float
    removed_contribution: float
    nodes_before: int
    nodes_after: int
    removed_nodes: int

    @property
    def size_reduction(self) -> float:
        """Fraction of nodes eliminated by this round."""
        if self.nodes_before == 0:
            return 0.0
        return 1.0 - self.nodes_after / self.nodes_before


def _round_result(
    state: StateDD,
    approximated: StateDD,
    requested_fidelity: float,
    removed_contribution: float,
    removed_nodes: int,
    nodes_before: int,
) -> ApproximationResult:
    """Measure ``approximated`` against ``state`` and fill the record.

    When nothing was removed (``approximated is state``) the input comes
    back unchanged with fidelity 1 and no inner product is taken.
    """
    if approximated is state:
        return ApproximationResult(
            state=state,
            requested_fidelity=requested_fidelity,
            achieved_fidelity=1.0,
            removed_contribution=0.0,
            nodes_before=nodes_before,
            nodes_after=nodes_before,
            removed_nodes=0,
        )
    achieved = state.fidelity(approximated)
    return ApproximationResult(
        state=approximated,
        requested_fidelity=requested_fidelity,
        achieved_fidelity=achieved,
        removed_contribution=removed_contribution,
        nodes_before=nodes_before,
        nodes_after=approximated.node_count(),
        removed_nodes=removed_nodes,
    )


def _round_budget(round_fidelity: float) -> float:
    """The removable mass ``1 - round_fidelity`` of a §IV-A round.

    Raises:
        ValueError: When ``round_fidelity`` is not in ``(0, 1]``.
    """
    if not 0.0 < round_fidelity <= 1.0:
        raise ValueError("round_fidelity must be in (0, 1]")
    return 1.0 - round_fidelity


def select_nodes_for_removal(
    state: StateDD, round_fidelity: float
) -> tuple[set[VNode], float]:
    """Greedily pick removable nodes within the fidelity budget.

    Nodes are considered in ascending contribution order; the root is never
    a candidate.  Returns the removal set and its total contribution: the
    selection :meth:`~repro.dd.package.Package.approximate_round` makes.
    """
    budget = _round_budget(round_fidelity)
    contributions = node_contributions(state)
    return select_removal(
        contributions, state.edge[1], budget, len(contributions)
    )


def rebuild_without(
    state: StateDD, removed: set[VNode]
) -> StateDD:
    """Rebuild a diagram with every edge into ``removed`` zeroed.

    The result is renormalized to unit norm (preserving global phase), as
    in the truncation procedure (1) of §V.

    Raises:
        ValueError: If the removal set erases the entire state.
    """
    rebuilt = state.package.rebuild_without(
        state.edge, state.num_qubits - 1, removed
    )
    return _renormalized(state, rebuilt)


def _renormalized(state: StateDD, rebuilt: VEdge) -> StateDD:
    """``rebuilt`` (a rebuild of ``state``) scaled to unit norm.

    Raises:
        ValueError: If the rebuild erased the entire state.
    """
    new_weight, new_node = rebuilt
    magnitude = abs(new_weight)
    if magnitude == 0.0 or new_node is None:
        raise ValueError("approximation removed the entire state")
    return StateDD(
        (new_weight / magnitude, new_node), state.num_qubits, state.package
    )


def approximate_state(
    state: StateDD, round_fidelity: float
) -> ApproximationResult:
    """Perform one approximation round targeting ``round_fidelity``.

    Contributions, greedy selection and rebuild are one backend call
    (:meth:`~repro.dd.package.Package.approximate_round`).  The achieved
    fidelity is always measured with one DD inner product, so it is the
    exact factor Lemma 1 multiplies.

    Args:
        state: The state to approximate (must be unit norm).
        round_fidelity: Per-round fidelity lower bound (the paper's
            :math:`f_{\\text{round}}`).

    Returns:
        An :class:`ApproximationResult`; when nothing can be removed the
        input state is returned unchanged with fidelity 1.
    """
    budget = _round_budget(round_fidelity)
    nodes_before = state.node_count()
    rebuilt, spent, removed_nodes = state.package.approximate_round(
        state.edge, state.num_qubits - 1, budget, nodes_before
    )
    approximated = _renormalized(state, rebuilt) if removed_nodes else state
    return _round_result(
        state, approximated, round_fidelity, spent, removed_nodes,
        nodes_before,
    )


def approximate_below_contribution(
    state: StateDD, epsilon: float
) -> ApproximationResult:
    """Remove *every* node whose contribution is at most ``epsilon``.

    The threshold variant discussed alongside the budgeted scheme in the
    predecessor work [27]: instead of bounding the total removed mass, cut
    everything individually negligible.  The resulting fidelity is only
    bounded by ``1 - epsilon * removed_count``; the exact value is always
    measured and reported.  A cut that would remove all the mass is
    refused: the state comes back unchanged.

    Args:
        state: The state to approximate.
        epsilon: Per-node contribution cutoff in ``[0, 1)``.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must be in [0, 1)")
    nodes_before = state.node_count()
    _weight, root = state.edge
    taken = 0
    spent = 0.0
    # Summed in sweep order: the reported total.
    for node, value in node_contributions(state).items():
        if node is not root and value <= epsilon:
            taken += 1
            spent += value
    if not taken or spent >= 1.0:
        return _round_result(state, state, 1.0, 0.0, 0, nodes_before)
    # The nodes at or below epsilon lead the removal order, so the round
    # takes exactly them with no mass budget.
    rebuilt, _ordered, removed = state.package.approximate_round(
        state.edge, state.num_qubits - 1, math.inf, taken
    )
    return _round_result(
        state, _renormalized(state, rebuilt), max(0.0, 1.0 - spent),
        spent, removed, nodes_before,
    )


def approximate_to_size(
    state: StateDD,
    max_nodes: int,
    fidelity_floor: float = 0.0,
    max_passes: int = 16,
) -> ApproximationResult:
    """Shrink a diagram to at most ``max_nodes`` nodes if possible.

    The size-targeted variant of §IV-B's use case: each pass is one
    :meth:`~repro.dd.package.Package.approximate_round` that removes at
    most ``count - max_nodes`` nodes in ascending contribution order
    under a mass cap.  Removal can orphan whole subgraphs, so the loop
    re-measures the *rebuilt* diagram after each pass.  An optional
    ``fidelity_floor`` stops the destruction early — when the floor and
    the size target conflict, the floor wins and the result may stay
    larger than requested.

    Args:
        state: The state to shrink.
        max_nodes: Target maximum node count (>= the qubit count, since a
            product state needs one node per level).
        fidelity_floor: Never let the *cumulative* fidelity drop below
            this value, in ``[0, 1]``.
        max_passes: Safety bound on shrink iterations.
    """
    if max_nodes < state.num_qubits:
        raise ValueError(
            f"max_nodes {max_nodes} below the {state.num_qubits}-node "
            "minimum for a product state"
        )
    if not 0.0 <= fidelity_floor <= 1.0:
        raise ValueError("fidelity_floor must be in [0, 1]")
    nodes_before = state.node_count()
    level = state.num_qubits - 1
    current = state
    cumulative_fidelity = 1.0
    total_removed = 0
    total_spent = 0.0
    for _ in range(max_passes):
        count = current.node_count()
        if count <= max_nodes:
            break
        # Cap the removable mass: removing a full level's worth (sum 1)
        # would erase the state outright, and 0.99 leaves at least 1 %.
        mass_cap = 0.99
        if fidelity_floor > 0.0:
            mass_cap = min(
                mass_cap, 1.0 - fidelity_floor / cumulative_fidelity
            )
        rebuilt, spent, removed = current.package.approximate_round(
            current.edge, level, mass_cap, count - max_nodes
        )
        if not removed:
            break
        shrunk = _renormalized(current, rebuilt)
        cumulative_fidelity *= current.fidelity(shrunk)
        total_removed += removed
        total_spent += spent
        current = shrunk
        if fidelity_floor > 0.0 and cumulative_fidelity <= fidelity_floor:
            break
    return _round_result(
        state, current, fidelity_floor, total_spent, total_removed,
        nodes_before,
    )


def _quantize(weight: complex, precision: float) -> complex:
    """Snap both parts of ``weight`` onto the grid of pitch ``precision``."""
    return complex(
        round(weight.real / precision) * precision,
        round(weight.imag / precision) * precision,
    )


def _rebuild_quantized(
    edge: VEdge,
    level: int,
    precision: float,
    memo: dict[VNode, VEdge],
    package: Package,
) -> VEdge:
    """Rebuild ``edge`` with every child weight snapped by :func:`_quantize`."""
    weight, node = edge
    if weight == 0.0 or level < 0:
        return edge
    cached = memo.get(node)
    if cached is None:
        child0 = _rebuild_quantized(
            node.edges[0], level - 1, precision, memo, package
        )
        child1 = _rebuild_quantized(
            node.edges[1], level - 1, precision, memo, package
        )
        child0 = (_quantize(child0[0], precision), child0[1])
        child1 = (_quantize(child1[0], precision), child1[1])
        cached = package.make_vedge(level, child0, child1)
        memo[node] = cached
    return (cached[0] * weight, cached[1])


def round_edge_weights(
    state: StateDD, precision: float
) -> ApproximationResult:
    """Approximate by quantizing edge weights onto a coarse grid.

    A complementary compaction mechanism to node removal: snapping nearby
    weights onto shared grid points lets the unique table merge
    nearly-identical nodes (the effect a coarser tolerance would have in
    the complex table of [28]).  The exact resulting fidelity is measured
    and reported; unlike node removal it has no a-priori bound, so use it
    for exploration rather than guaranteed-accuracy simulation.

    Args:
        state: The state to quantize.
        precision: Grid pitch for the real and imaginary parts, in
            ``(0, 0.5]`` — e.g. ``1/64`` merges weights that agree to
            about two decimal digits.
    """
    if not 0.0 < precision <= 0.5:
        raise ValueError("precision must be in (0, 0.5]")
    package = state.package
    nodes_before = state.node_count()
    rebuilt = _rebuild_quantized(
        state.edge, state.num_qubits - 1, precision, {}, package
    )
    weight, node = rebuilt
    if node is None or abs(weight) == 0.0:
        raise ValueError("precision too coarse: the state was erased")
    quantized = StateDD(
        (weight / abs(weight), node), state.num_qubits, package
    )
    achieved = state.fidelity(quantized)
    return ApproximationResult(
        state=quantized,
        requested_fidelity=0.0,
        achieved_fidelity=achieved,
        removed_contribution=1.0 - achieved,
        nodes_before=nodes_before,
        nodes_after=quantized.node_count(),
        removed_nodes=max(0, nodes_before - quantized.node_count()),
    )
