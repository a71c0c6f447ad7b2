"""Fidelity-budgeted node removal (§IV-A of the paper).

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
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dd.node import VEdge, VNode, zero_vedge
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


def select_nodes_for_removal(
    state: StateDD, round_fidelity: float
) -> tuple[set[VNode], float]:
    """Greedily pick removable nodes within the fidelity budget.

    Nodes are considered in ascending contribution order; the root is never
    a candidate.  Returns the removal set and its total contribution.
    """
    if not 0.0 < round_fidelity <= 1.0:
        raise ValueError("round_fidelity must be in (0, 1]")
    budget = 1.0 - round_fidelity
    contributions = node_contributions(state)
    _weight, root = state.edge
    candidates = sorted(
        (
            (value, index, node)
            for index, (node, value) in enumerate(contributions.items())
            if node is not root
        ),
        key=lambda item: (item[0], item[1]),
    )
    removed: set[VNode] = set()
    spent = 0.0
    # Tiny slack keeps exact-boundary removals (e.g. budget 0.2 against a
    # contribution of 0.2) from being rejected by floating-point rounding.
    slack = 1e-12
    for value, _index, node in candidates:
        if spent + value > budget + slack:
            break
        removed.add(node)
        spent += value
    return removed, spent


def _rebuild_without(
    edge: VEdge,
    level: int,
    removed: set[VNode],
    memo: dict[VNode, VEdge],
    package: Package,
) -> VEdge:
    """Rebuild ``edge`` with every edge into ``removed`` zeroed."""
    weight, node = edge
    if weight == 0.0:
        return zero_vedge()
    if level < 0:
        return edge
    if node in removed:
        return zero_vedge()
    cached = memo.get(node)
    if cached is None:
        child0 = _rebuild_without(
            node.edges[0], level - 1, removed, memo, package
        )
        child1 = _rebuild_without(
            node.edges[1], level - 1, removed, memo, package
        )
        cached = package.make_vedge(level, child0, child1)
        memo[node] = cached
    return (cached[0] * weight, cached[1])


def rebuild_without(
    state: StateDD, removed: set[VNode]
) -> StateDD:
    """Rebuild a diagram with every edge into ``removed`` zeroed.

    The result is renormalized to unit norm (preserving global phase), as
    in the truncation procedure (1) of §V.

    Raises:
        ValueError: If the removal set erases the entire state.
    """
    package = state.package
    top = state.num_qubits - 1
    new_edge = _rebuild_without(state.edge, top, removed, {}, package)
    new_weight, new_node = new_edge
    magnitude = abs(new_weight)
    if magnitude == 0.0 or new_node is None:
        raise ValueError("approximation removed the entire state")
    return StateDD(
        (new_weight / magnitude, new_node), state.num_qubits, package
    )


def approximate_state(
    state: StateDD,
    round_fidelity: float,
    measure_fidelity: bool = True,
) -> ApproximationResult:
    """Perform one approximation round targeting ``round_fidelity``.

    Args:
        state: The state to approximate (must be unit norm).
        round_fidelity: Per-round fidelity lower bound (the paper's
            :math:`f_{\\text{round}}`).
        measure_fidelity: Also compute the exact achieved fidelity via a
            DD inner product (small extra cost; disable for raw speed —
            the guaranteed bound is then reported instead).

    Returns:
        An :class:`ApproximationResult`; when nothing can be removed the
        input state is returned unchanged with fidelity 1.
    """
    nodes_before = state.node_count()
    removed, spent = select_nodes_for_removal(state, round_fidelity)
    if not removed:
        return ApproximationResult(
            state=state,
            requested_fidelity=round_fidelity,
            achieved_fidelity=1.0,
            removed_contribution=0.0,
            nodes_before=nodes_before,
            nodes_after=nodes_before,
            removed_nodes=0,
        )
    approximated = rebuild_without(state, removed)
    if measure_fidelity:
        achieved = state.fidelity(approximated)
    else:
        achieved = 1.0 - spent
    return ApproximationResult(
        state=approximated,
        requested_fidelity=round_fidelity,
        achieved_fidelity=achieved,
        removed_contribution=spent,
        nodes_before=nodes_before,
        nodes_after=approximated.node_count(),
        removed_nodes=len(removed),
    )


def approximate_below_contribution(
    state: StateDD, epsilon: float
) -> ApproximationResult:
    """Remove *every* node whose contribution is at most ``epsilon``.

    The threshold variant discussed alongside the budgeted scheme in the
    predecessor work [27]: instead of bounding the total removed mass, cut
    everything individually negligible.  The resulting fidelity is only
    bounded by ``1 - epsilon * removed_count``; the exact value is always
    measured and reported.

    Args:
        state: The state to approximate.
        epsilon: Per-node contribution cutoff in ``[0, 1)``.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must be in [0, 1)")
    nodes_before = state.node_count()
    contributions = node_contributions(state)
    _weight, root = state.edge
    removed = {
        node
        for node, value in contributions.items()
        if node is not root and value <= epsilon
    }
    spent = sum(contributions[node] for node in removed)
    if not removed or spent >= 1.0:
        return ApproximationResult(
            state=state,
            requested_fidelity=1.0,
            achieved_fidelity=1.0,
            removed_contribution=0.0,
            nodes_before=nodes_before,
            nodes_after=nodes_before,
            removed_nodes=0,
        )
    approximated = rebuild_without(state, removed)
    achieved = state.fidelity(approximated)
    return ApproximationResult(
        state=approximated,
        requested_fidelity=max(0.0, 1.0 - spent),
        achieved_fidelity=achieved,
        removed_contribution=spent,
        nodes_before=nodes_before,
        nodes_after=approximated.node_count(),
        removed_nodes=len(removed),
    )


def approximate_to_size(
    state: StateDD,
    max_nodes: int,
    fidelity_floor: float = 0.0,
    max_passes: int = 16,
) -> ApproximationResult:
    """Shrink a diagram to at most ``max_nodes`` nodes if possible.

    The size-targeted variant of §IV-B's use case: remove nodes in
    ascending contribution order until the *rebuilt* diagram fits (removal
    can orphan whole subgraphs, so the loop re-measures after each pass).
    An optional ``fidelity_floor`` stops the destruction early — when the
    floor and the size target conflict, the floor wins and the result may
    stay larger than requested.

    Args:
        state: The state to shrink.
        max_nodes: Target maximum node count (>= the qubit count, since a
            product state needs one node per level).
        fidelity_floor: Never let the *cumulative* fidelity drop below
            this value.
        max_passes: Safety bound on shrink iterations.
    """
    if max_nodes < state.num_qubits:
        raise ValueError(
            f"max_nodes {max_nodes} below the {state.num_qubits}-node "
            "minimum for a product state"
        )
    nodes_before = state.node_count()
    current = state
    cumulative_fidelity = 1.0
    total_removed = 0
    total_spent = 0.0
    for _ in range(max_passes):
        count = current.node_count()
        if count <= max_nodes:
            break
        contributions = node_contributions(current)
        _weight, root = current.edge
        candidates = sorted(
            (
                (value, index, node)
                for index, (node, value) in enumerate(contributions.items())
                if node is not root
            ),
            key=lambda item: (item[0], item[1]),
        )
        overshoot = count - max_nodes
        # Cap the removable mass: removing a full level's worth (sum 1)
        # would erase the state outright.
        mass_cap = 0.99
        if fidelity_floor > 0.0:
            mass_cap = min(
                mass_cap, 1.0 - fidelity_floor / cumulative_fidelity
            )
        removed = set()
        spent = 0.0
        for value, _index, node in candidates[:overshoot]:
            if spent + value > mass_cap:
                break
            removed.add(node)
            spent += value
        if not removed:
            break
        shrunk = None
        while removed:
            try:
                shrunk = rebuild_without(current, removed)
                break
            except ValueError:
                # Pathological overlap emptied the state; halve the set
                # (drop the largest contributors first) and retry.
                survivors = sorted(
                    removed,
                    key=lambda n: next(
                        v for v, _i, node in candidates if node is n
                    ),
                )[: len(removed) // 2]
                removed = set(survivors)
        if shrunk is None:
            break
        spent = sum(
            value for value, _i, node in candidates if node in removed
        )
        round_fidelity = current.fidelity(shrunk)
        cumulative_fidelity *= round_fidelity
        total_removed += len(removed)
        total_spent += spent
        current = shrunk
        if fidelity_floor > 0.0 and cumulative_fidelity <= fidelity_floor:
            break
    achieved = state.fidelity(current) if current is not state else 1.0
    return ApproximationResult(
        state=current,
        requested_fidelity=fidelity_floor,
        achieved_fidelity=achieved,
        removed_contribution=total_spent,
        nodes_before=nodes_before,
        nodes_after=current.node_count(),
        removed_nodes=total_removed,
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
