"""Approximation strategies (§IV-B and §IV-C of the paper).

A strategy decides *when* during a simulation to run an approximation round
and at *what* per-round fidelity.  The simulator consults the strategy
after every applied operation; the strategy either returns an
:class:`repro.core.approximation.ApproximationResult` (having approximated
the state) or ``None``.

* :class:`MemoryDrivenStrategy` — reactive (§IV-B): approximate whenever
  the diagram exceeds a node-count threshold, then double the threshold so
  the number of rounds stays bounded.
* :class:`FidelityDrivenStrategy` — proactive (§IV-C): given a required
  final fidelity, pre-plan at most
  :math:`\\lfloor\\log_{f_{\\text{round}}} f_{\\text{final}}\\rfloor` rounds
  at block boundaries or evenly spaced positions.
"""

from __future__ import annotations

import abc
import copy
from collections.abc import Mapping, Sequence
from typing import Any

from ..circuits.circuit import Circuit
from ..dd.vector import StateDD
from ..obs import get_recorder
from .approximation import (
    ApproximationResult,
    approximate_state,
    approximate_to_size,
)
from .fidelity import max_rounds


class ApproximationStrategy(abc.ABC):
    """Base class for approximation scheduling policies."""

    @abc.abstractmethod
    def plan(self, circuit: Circuit) -> None:
        """Reset internal state and plan for a fresh run of ``circuit``."""

    @abc.abstractmethod
    def after_operation(
        self, state: StateDD, op_index: int, node_count: int
    ) -> ApproximationResult | None:
        """Called after each applied operation.

        Args:
            state: Current simulation state.
            op_index: Index of the operation just applied.
            node_count: Size of ``state`` (pre-computed by the simulator).

        Returns:
            The result of an approximation round, or None to continue
            unmodified.
        """

    def describe(self) -> str:
        """Short human-readable strategy summary for reports."""
        return type(self).__name__

    #: The fields :meth:`after_operation` carries from one operation to
    #: the next.  :meth:`schedule` and :meth:`restore` move them across a
    #: stop, so a resumed run places the rounds the uninterrupted run
    #: would (Lemma 1 composes its factors with the stopped run's).
    schedule_fields: tuple[str, ...] = ()

    def schedule(self) -> dict:
        """A copy of the :attr:`schedule_fields`, keyed by name."""
        return {
            name: copy.copy(getattr(self, name))
            for name in self.schedule_fields
        }

    def restore(self, schedule: Mapping[str, Any]) -> None:
        """Continue from a :meth:`schedule` copy; called after :meth:`plan`."""
        for name in self.schedule_fields:
            setattr(self, name, copy.copy(schedule[name]))

    def note_external_round(
        self, op_index: int, achieved_fidelity: float
    ) -> None:
        """Account for an approximation round the strategy did not run.

        The simulator's memory watchdog can force an *emergency* round
        (graceful degradation under memory pressure) between the
        strategy's own rounds.  Lemma 1 composes its fidelity into the
        same product, so budgeted strategies must charge it against
        their remaining allowance or the end-to-end guarantee silently
        erodes.  The default is a no-op (correct for stateless
        policies).

        Args:
            op_index: Operation index after which the round ran.
            achieved_fidelity: The round's achieved fidelity.
        """
        return None


class NoApproximation(ApproximationStrategy):
    """The exact reference simulation (the paper's baseline columns)."""

    def plan(self, circuit: Circuit) -> None:  # noqa: D102 - trivial
        return None

    def after_operation(
        self, state: StateDD, op_index: int, node_count: int
    ) -> ApproximationResult | None:  # noqa: D102 - trivial
        return None

    def describe(self) -> str:  # noqa: D102 - trivial
        return "exact"


class MemoryDrivenStrategy(ApproximationStrategy):
    """Reactive garbage-collection-style approximation (§IV-B).

    After every operation, if the diagram exceeds ``threshold`` nodes the
    state is approximated targeting ``round_fidelity`` and the threshold is
    multiplied by ``growth`` (the paper doubles it) so later rounds trigger
    less frequently.

    Args:
        threshold: Initial node-count threshold.
        round_fidelity: Per-round fidelity target :math:`f_{round}`.
        growth: Threshold multiplier applied after each round (default 2.0).
    """

    # Every attempt doubles the threshold, one that removes nothing too.
    schedule_fields = ("threshold",)

    def __init__(
        self,
        threshold: int,
        round_fidelity: float,
        growth: float = 2.0,
    ):
        if threshold < 1:
            raise ValueError("threshold must be positive")
        if not 0.0 < round_fidelity <= 1.0:
            raise ValueError("round_fidelity must be in (0, 1]")
        if growth < 1.0:
            raise ValueError("growth must be >= 1 (the paper doubles)")
        self.initial_threshold = threshold
        self.round_fidelity = round_fidelity
        self.growth = growth
        self.threshold = float(threshold)

    def plan(self, circuit: Circuit) -> None:
        """Reset the threshold for a new run."""
        self.threshold = float(self.initial_threshold)

    def note_external_round(
        self, op_index: int, achieved_fidelity: float
    ) -> None:
        """Grow the threshold as if the strategy had run the round itself."""
        self.threshold *= self.growth

    def after_operation(
        self, state: StateDD, op_index: int, node_count: int
    ) -> ApproximationResult | None:
        """Approximate and grow the threshold when the size bound trips."""
        if node_count <= self.threshold:
            return None
        result = approximate_state(state, self.round_fidelity)
        self.threshold *= self.growth
        recorder = get_recorder()
        if recorder.enabled:
            recorder.count("strategy.threshold_doublings")
            recorder.event(
                "threshold",
                op_index=op_index,
                threshold=self.threshold,
                growth=self.growth,
                trigger_nodes=node_count,
            )
        return result

    def describe(self) -> str:
        """e.g. ``memory(threshold=1024, f_round=0.975)``."""
        return (
            f"memory(threshold={self.initial_threshold}, "
            f"f_round={self.round_fidelity})"
        )


class FidelityDrivenStrategy(ApproximationStrategy):
    """Proactive accuracy-bounded approximation (§IV-C).

    Plans at most :func:`repro.core.fidelity.max_rounds` rounds before the
    simulation starts.  Round positions come from, in order of preference:

    1. an explicit ``positions`` sequence of operation indices,
    2. ``placement="block:<name>"`` — rounds spread evenly *inside* the
       named block, matching the paper's Shor experiments where "the
       approximation rounds [are applied] during the inverse QFT" (§VI),
    3. ``placement="blocks"`` — the circuit's annotated block boundaries
       (Fig. 2 placement); when there are more boundaries than rounds the
       *latest* boundaries are used, since diagrams are largest late in
       the circuit,
    4. ``placement="even"`` — positions evenly spaced across the circuit.

    Args:
        final_fidelity: Required end-to-end fidelity :math:`f_{final}`.
        round_fidelity: Per-round target :math:`f_{round}`.
        positions: Optional explicit operation indices after which to
            approximate.
        placement: ``"blocks"``, ``"even"``, or ``"block:<name>"`` — used
            when ``positions`` is not given.
    """

    schedule_fields = ("_pending",)

    def __init__(
        self,
        final_fidelity: float,
        round_fidelity: float,
        positions: Sequence[int] | None = None,
        placement: str = "blocks",
    ):
        if placement not in ("blocks", "even") and not placement.startswith(
            "block:"
        ):
            raise ValueError(
                "placement must be 'blocks', 'even', or 'block:<name>'"
            )
        self.final_fidelity = final_fidelity
        self.round_fidelity = round_fidelity
        self.budgeted_rounds = max_rounds(final_fidelity, round_fidelity)
        self.explicit_positions = (
            list(positions) if positions is not None else None
        )
        self.placement = placement
        self.planned_positions: list[int] = []
        self._pending: list[int] = []

    def plan(self, circuit: Circuit) -> None:
        """Choose the operation indices after which rounds will run."""
        rounds = self.budgeted_rounds
        if rounds == 0:
            self.planned_positions = []
            self._pending = []
            return
        if self.explicit_positions is not None:
            positions = sorted(
                p for p in self.explicit_positions if 0 <= p < len(circuit)
            )[:rounds]
        elif self.placement.startswith("block:"):
            name = self.placement[len("block:"):]
            matches = [b for b in circuit.blocks if b.name == name]
            if not matches:
                raise ValueError(
                    f"circuit {circuit.name!r} has no block named {name!r}"
                )
            block = matches[-1]
            positions = self._spread(block.start, block.end, rounds)
        else:
            boundaries = [
                b - 1 for b in circuit.block_boundaries() if b >= 1
            ]
            if self.placement == "blocks" and boundaries:
                positions = boundaries[-rounds:]
            else:
                positions = self._spread(0, len(circuit), rounds)
        self.planned_positions = list(positions)
        self._pending = list(positions)

    def note_external_round(
        self, op_index: int, achieved_fidelity: float
    ) -> None:
        """Give up one planned round to pay for the emergency round.

        The budget is ``max_rounds`` factors of at least
        ``round_fidelity``; an emergency round contributes its own
        factor, so dropping the last planned position keeps the Lemma 1
        product at or above ``final_fidelity`` whenever the emergency
        fidelity is no worse than the per-round target.
        """
        if self._pending:
            self._pending.pop()

    @staticmethod
    def _spread(start: int, end: int, rounds: int) -> list[int]:
        """Evenly distribute ``rounds`` positions over ``[start, end)``."""
        width = end - start
        if width <= 0:
            return []
        step = width / (rounds + 1)
        return sorted(
            {
                min(end - 1, max(start, start + round(step * (k + 1)) - 1))
                for k in range(rounds)
            }
        )

    def after_operation(
        self, state: StateDD, op_index: int, node_count: int
    ) -> ApproximationResult | None:
        """Run a round when the next planned position is reached."""
        if not self._pending or op_index < self._pending[0]:
            return None
        self._pending.pop(0)
        return approximate_state(state, self.round_fidelity)

    def describe(self) -> str:
        """e.g. ``fidelity(f_final=0.5, f_round=0.9, rounds<=6)``."""
        return (
            f"fidelity(f_final={self.final_fidelity}, "
            f"f_round={self.round_fidelity}, "
            f"rounds<={self.budgeted_rounds})"
        )


class AdaptiveStrategy(ApproximationStrategy):
    """Growth-triggered rounds under a fidelity-driven budget.

    §IV-C places rounds at pre-planned positions; this variant spends the
    same budget (at most :func:`repro.core.fidelity.max_rounds` rounds at
    ``round_fidelity``) *adaptively*: a round fires whenever the diagram
    has grown by ``growth_trigger``x since the previous round ended.  On
    workloads whose growth is concentrated in one phase (Shor's inverse
    QFT) this recovers the paper's hand-tuned placement automatically.

    Args:
        final_fidelity: Required end-to-end fidelity.
        round_fidelity: Per-round fidelity target.
        growth_trigger: Size multiple that triggers a round (> 1).
    """

    schedule_fields = ("rounds_used", "_baseline")

    def __init__(
        self,
        final_fidelity: float,
        round_fidelity: float,
        growth_trigger: float = 2.0,
    ):
        if growth_trigger <= 1.0:
            raise ValueError("growth_trigger must exceed 1")
        self.final_fidelity = final_fidelity
        self.round_fidelity = round_fidelity
        self.budgeted_rounds = max_rounds(final_fidelity, round_fidelity)
        self.growth_trigger = growth_trigger
        self.rounds_used = 0
        self._baseline: int | None = None

    def plan(self, circuit: Circuit) -> None:
        """Reset the budget and the growth baseline."""
        self.rounds_used = 0
        self._baseline = None

    def note_external_round(
        self, op_index: int, achieved_fidelity: float
    ) -> None:
        """Charge the emergency round against the adaptive budget."""
        self.rounds_used = min(self.budgeted_rounds, self.rounds_used + 1)
        self._baseline = None  # re-baseline on the shrunken diagram

    def after_operation(
        self, state: StateDD, op_index: int, node_count: int
    ) -> ApproximationResult | None:
        """Fire a round when growth since the last round exceeds the trigger."""
        if self._baseline is None:
            self._baseline = max(node_count, state.num_qubits)
            return None
        if self.rounds_used >= self.budgeted_rounds:
            return None
        if node_count < self._baseline * self.growth_trigger:
            return None
        result = approximate_state(state, self.round_fidelity)
        if result.removed_nodes:
            self.rounds_used += 1
            self._baseline = max(result.nodes_after, state.num_qubits)
            recorder = get_recorder()
            if recorder.enabled:
                recorder.count("strategy.budget_rounds_used")
                recorder.event(
                    "budget",
                    op_index=op_index,
                    rounds_used=self.rounds_used,
                    rounds_budgeted=self.budgeted_rounds,
                )
        else:
            # Nothing removable at this size: raise the baseline so the
            # trigger does not fire on every subsequent operation.
            self._baseline = node_count
        return result

    def describe(self) -> str:
        """e.g. ``adaptive(f_final=0.5, f_round=0.9, trigger=2.0x)``."""
        return (
            f"adaptive(f_final={self.final_fidelity}, "
            f"f_round={self.round_fidelity}, "
            f"trigger={self.growth_trigger}x)"
        )


class SizeCapStrategy(ApproximationStrategy):
    """A guarded memory-driven variant with a global fidelity floor.

    §IV-B warns that pure memory-driven approximation "may render the
    simulation result meaningless if the final state fidelity is too low".
    This strategy keeps the hard size cap of the memory-driven use case
    but tracks the cumulative fidelity (Lemma 1 product) and never spends
    below ``final_fidelity`` — when the floor is reached the cap is
    abandoned and the diagram is allowed to grow.

    Args:
        max_nodes: Hard diagram size target after each round.
        final_fidelity: Global fidelity floor in ``(0, 1]``.
    """

    schedule_fields = ("remaining_fidelity",)

    def __init__(self, max_nodes: int, final_fidelity: float = 0.5):
        if max_nodes < 2:
            raise ValueError("max_nodes must be at least 2")
        if not 0.0 < final_fidelity <= 1.0:
            raise ValueError("final_fidelity must be in (0, 1]")
        self.max_nodes = max_nodes
        self.final_fidelity = final_fidelity
        self.remaining_fidelity = 1.0

    def plan(self, circuit: Circuit) -> None:
        """Reset the cumulative fidelity budget for a new run."""
        self.remaining_fidelity = 1.0

    def note_external_round(
        self, op_index: int, achieved_fidelity: float
    ) -> None:
        """Fold the emergency round into the cumulative fidelity."""
        self.remaining_fidelity *= achieved_fidelity

    def after_operation(
        self, state: StateDD, op_index: int, node_count: int
    ) -> ApproximationResult | None:
        """Shrink back to the cap whenever the diagram exceeds it."""
        if node_count <= self.max_nodes:
            return None
        if self.remaining_fidelity <= self.final_fidelity:
            return None  # budget exhausted — never go below the floor
        if self.max_nodes < state.num_qubits:
            return None  # cap below the representable minimum
        floor = self.final_fidelity / self.remaining_fidelity
        result = approximate_to_size(
            state, self.max_nodes, fidelity_floor=floor
        )
        if result.removed_nodes:
            self.remaining_fidelity *= result.achieved_fidelity
            recorder = get_recorder()
            if recorder.enabled:
                recorder.event(
                    "budget",
                    op_index=op_index,
                    remaining_fidelity=self.remaining_fidelity,
                    floor=self.final_fidelity,
                )
        return result

    def describe(self) -> str:
        """e.g. ``size_cap(max_nodes=4096, floor=0.5)``."""
        return (
            f"size_cap(max_nodes={self.max_nodes}, "
            f"floor={self.final_fidelity})"
        )
