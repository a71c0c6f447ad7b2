"""The approximating DD simulator (§IV of the paper).

:class:`DDSimulator` applies a circuit to a decision-diagram state one
operation at a time (each operation lowered to an ``O(n)``-node matrix
diagram and multiplied onto the state) and consults an
:class:`repro.core.strategies.ApproximationStrategy` after every step.

The simulator records the statistics Table I reports: maximum diagram size
over the run, number of approximation rounds, the per-round fidelities,
the end-to-end fidelity estimate (their product, exact by Lemma 1), and
wall-clock runtime.  An optional per-operation size trajectory supports
the DD-growth ablation experiments.
"""

from __future__ import annotations

import gc
import os
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:
    from ..analysis.ddsan import Sanitizer

from ..circuits.circuit import Circuit
from ..circuits.lowering import operation_to_medge
from ..dd.package import Package, default_package
from ..dd.serialize import state_to_dict
from ..dd.vector import StateDD
from ..faults.errors import MemoryBudgetExceeded
from ..faults.injector import get_injector
from ..obs import Recorder, get_recorder
from .approximation import approximate_state
from .fidelity import composed_fidelity
from .strategies import ApproximationStrategy, NoApproximation


def _peak_rss_mb() -> float:
    """Peak resident-set size of this process in MiB (0.0 if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS reports bytes.
    import sys

    if sys.platform == "darwin":  # pragma: no cover
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def _current_rss_mb() -> float:
    """Current resident-set size of this process in MiB.

    Read from ``/proc/self/statm`` (resident pages × page size), so it
    falls when memory is released; falls back to the peak where that
    file is absent.
    """
    try:
        with open("/proc/self/statm", "rb") as statm:
            resident_pages = int(statm.read().split()[1])
    except (OSError, IndexError, ValueError):
        return _peak_rss_mb()
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


class _PausedGC:
    """Pause CPython's cyclic garbage collector for one simulation run.

    Decision diagrams are acyclic (children are interned before their
    parents and never mutated), so reference counting frees every dead
    node on its own; the collector's repeated traversals of the run's
    million-odd tracked nodes, edges and cache entries find nothing.
    On exit, by exception too, the collector is re-enabled only if it
    was enabled on entry: nested runs keep the outer pause, and runs
    overlapping in threads can only end a pause early.  The deferred
    young collection runs at the caller's next allocation.
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self._was_enabled:
            gc.enable()


def _resolve_sanitizer(
    ddsan: bool | None, package: Package
) -> "Sanitizer | None":
    """Build a DDSan sanitizer when requested (arg, or REPRO_DDSAN env
    when the arg is None).  The analysis package is imported lazily so
    explicitly-unsanitized runs never load it."""
    if ddsan is None:
        from ..analysis.ddsan import ddsan_enabled

        ddsan = ddsan_enabled()
    if not ddsan:
        return None
    from ..analysis.ddsan import Sanitizer

    return Sanitizer(package)


class SupportsIsSet(Protocol):
    """Anything with a ``threading.Event``-style ``is_set`` probe.

    A :class:`threading.Event`, a ``multiprocessing`` event proxy, or a
    test double all satisfy it — the simulator only ever *polls*, never
    waits, so the protocol is deliberately this narrow.
    """

    def is_set(self) -> bool: ...


class CancellationToken:
    """Cooperative cancellation handle, polled between gate applications.

    The serving layer (:mod:`repro.serve`) propagates per-request
    deadlines and drain requests into a running simulation through this
    token: :meth:`DDSimulator.run` polls :meth:`reason` before each
    operation and again after each operation's approximation round, and
    raises :class:`SimulationCancelled` — carrying a checkpointable
    partial state — as soon as either trigger fires.  Polling (rather
    than signals) keeps cancellation deterministic: it can only land at
    Lemma-1-consistent boundaries, never mid-multiplication.

    Attributes:
        soft_deadline: Absolute deadline on ``clock``'s timeline
            (``time.monotonic`` by default); ``None`` disables the
            time trigger.
        event: External cancel signal (e.g. a drain event shared with a
            worker process); ``None`` disables the event trigger.
        clock: Monotonic time source, injectable for deterministic
            tests.
    """

    __slots__ = ("soft_deadline", "event", "clock")

    def __init__(
        self,
        soft_deadline: float | None = None,
        event: SupportsIsSet | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.soft_deadline = soft_deadline
        self.event = event
        self.clock = clock

    def reason(self) -> str | None:
        """Why the run should stop: ``"drain"``, ``"deadline"``, or
        ``None`` to keep going.  The event trigger wins ties — a drain
        is an operator decision, a deadline merely a budget."""
        if self.event is not None and self.event.is_set():
            return "drain"
        if (
            self.soft_deadline is not None
            and self.clock() >= self.soft_deadline
        ):
            return "deadline"
        return None


class SimulationTimeout(RuntimeError):
    """Raised when a run exceeds its cooperative time budget.

    Mirrors the 3-hour experiment timeouts of §VI ("the runtime *Timeout*
    indicates the experiment was terminated"); the partially computed
    statistics are attached for reporting.

    Attributes:
        stats: Statistics accumulated up to the timeout.
        partial_state: JSON-compatible serialization of the state reached
            so far (``repro.dd.serialize.state_to_dict`` format), or None
            when no state was available.  Serialized — rather than a live
            :class:`~repro.dd.vector.StateDD` — so the partial work is
            picklable across process boundaries and directly persistable
            as a checkpoint (see :mod:`repro.service.checkpoint`).
        op_index: Index of the first operation that was *not* applied;
            resuming from ``partial_state`` must continue at this index.
    """

    def __init__(
        self,
        stats: "SimulationStats",
        partial_state: dict | None = None,
        op_index: int | None = None,
    ):
        super().__init__(
            f"simulation of {stats.circuit_name!r} timed out after "
            f"{stats.runtime_seconds:.2f}s at operation "
            f"{op_index if op_index is not None else len(stats.trajectory or [])}"
        )
        self.stats = stats
        self.partial_state = partial_state
        self.op_index = op_index


class SimulationCancelled(SimulationTimeout):
    """Raised when a :class:`CancellationToken` fires mid-run.

    A subclass of :class:`SimulationTimeout` so every existing
    checkpoint/resume path (``repro.service.checkpoint``) handles it
    unchanged: the partially computed state, accumulated statistics, and
    resume index travel on the exception exactly as for a timeout.

    Attributes:
        reason: ``"drain"`` (operator-initiated shutdown) or
            ``"deadline"`` (the request's soft deadline elapsed).
    """

    def __init__(
        self,
        stats: "SimulationStats",
        partial_state: dict | None = None,
        op_index: int | None = None,
        reason: str = "deadline",
    ):
        super().__init__(
            stats, partial_state=partial_state, op_index=op_index
        )
        self.reason = reason


@dataclass(frozen=True)
class RoundRecord:
    """One approximation round as it happened during a run.

    Attributes:
        op_index: Operation index after which the round ran.
        nodes_before: Diagram size entering the round.
        nodes_after: Diagram size leaving the round.
        requested_fidelity: The round's target :math:`f_{round}`.
        achieved_fidelity: Measured (or bounded) fidelity of the round.
        removed_contribution: Contribution mass of the removed nodes.
        removed_nodes: Number of removed nodes.
    """

    op_index: int
    nodes_before: int
    nodes_after: int
    requested_fidelity: float
    achieved_fidelity: float
    removed_contribution: float
    removed_nodes: int
    emergency: bool = False
    """True when the round was forced by the memory watchdog rather than
    scheduled by the approximation strategy (graceful degradation under
    memory pressure).  Lemma 1 composes it like any other round."""


@dataclass(frozen=True)
class MemoryWatchdog:
    """Graceful degradation policy for memory pressure (§IV-B's stance).

    The memory-driven use case of the paper approximates *instead of*
    running out of memory.  The watchdog generalizes that to runs whose
    strategy did not anticipate the pressure: when an allocation fails
    (a real or injected :class:`MemoryError`) or the diagram crosses a
    configured ceiling, the simulator runs an **emergency approximation
    round** through the same machinery as scheduled rounds
    (:func:`repro.core.approximation.approximate_state`) and keeps
    going.  Every rescue is recorded as an ``emergency`` round, so its
    fidelity cost appears in the Lemma-1 product (``--metrics`` reports
    it), and the strategy is notified via
    :meth:`~repro.core.strategies.ApproximationStrategy.note_external_round`
    so budgeted policies charge it against their allowance.

    The run *fails* (:class:`~repro.faults.errors.MemoryBudgetExceeded`)
    rather than degrade past ``fidelity_floor`` — §IV-B's warning that
    unchecked approximation "may render the simulation result
    meaningless" made executable.

    Attributes:
        enabled: Master switch; disabled means MemoryError propagates.
        node_ceiling: Proactive ceiling on the state diagram's node
            count (checked at size-check points); None disables.
        rss_mb_ceiling: Proactive ceiling on the process's current RSS
            in MiB; None disables.  The trip clears once RSS falls back
            under the ceiling; while it stays over, further rescues fire
            only while the diagram keeps growing.
        emergency_fidelity: Per-rescue fidelity target.
        fidelity_floor: Lower bound on the end-to-end fidelity estimate;
            a rescue that would (conservatively) cross it raises
            :class:`MemoryBudgetExceeded` instead of degrading.
        max_rescues: Hard cap on emergency rounds per run; exhausted
            rescues re-raise the original pressure signal.
    """

    enabled: bool = True
    node_ceiling: int | None = None
    rss_mb_ceiling: float | None = None
    emergency_fidelity: float = 0.9
    fidelity_floor: float = 0.05
    max_rescues: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.emergency_fidelity <= 1.0:
            raise ValueError("emergency_fidelity must be in (0, 1]")
        if not 0.0 <= self.fidelity_floor < 1.0:
            raise ValueError("fidelity_floor must be in [0, 1)")
        if self.max_rescues < 1:
            raise ValueError("max_rescues must be positive")
        if self.node_ceiling is not None and self.node_ceiling < 2:
            raise ValueError("node_ceiling must be at least 2")


@dataclass
class SimulationStats:
    """Run statistics in the shape of a Table I row.

    Attributes:
        circuit_name: Benchmark identifier (e.g. ``shor_33_5``).
        strategy: Strategy description string.
        num_qubits: Circuit width.
        num_operations: Number of applied operations.
        max_nodes: Maximum diagram size observed (the paper's
            "Max. DD Size").
        final_nodes: Diagram size of the final state.
        rounds: The approximation rounds that actually ran.
        runtime_seconds: Wall-clock simulation time.
        trajectory: Optional per-operation diagram sizes.
        dd_backend: Name of the DD backend the run executed on
            (observability metadata; results are backend-independent).
    """

    circuit_name: str
    strategy: str
    num_qubits: int
    num_operations: int
    max_nodes: int = 0
    final_nodes: int = 0
    rounds: list[RoundRecord] = field(default_factory=list)
    runtime_seconds: float = 0.0
    trajectory: list[int] | None = None
    dd_backend: str = ""

    @property
    def num_rounds(self) -> int:
        """Number of approximation rounds performed."""
        return len(self.rounds)

    @property
    def fidelity_estimate(self) -> float:
        """End-to-end fidelity estimate: product of per-round fidelities.

        Lemma 1 (§V) makes this product *exact* for the chain it analyzes
        (each factor measured against the one-fewer-approximations
        trajectory with the same truncation set).  Along the simulated
        trajectory the product is the estimate the paper reports as
        :math:`f_{final}`; successive truncations without intervening
        basis rotations compose exactly (commuting projectors), and on the
        paper's workloads the deviation is at floating-point level (see
        ``tests/integration``).
        """
        return composed_fidelity(
            [record.achieved_fidelity for record in self.rounds]
        )

    def summary(self) -> str:
        """One-line summary in the spirit of a Table I row."""
        return (
            f"{self.circuit_name}: qubits={self.num_qubits} "
            f"strategy={self.strategy} max_dd={self.max_nodes} "
            f"rounds={self.num_rounds} "
            f"f_final={self.fidelity_estimate:.3f} "
            f"runtime={self.runtime_seconds:.2f}s"
        )


@dataclass(frozen=True)
class SimulationOutcome:
    """Final state plus the statistics of the run."""

    state: StateDD
    stats: SimulationStats


class DDSimulator:
    """Decision-diagram circuit simulator with pluggable approximation.

    Args:
        package: DD package to simulate in (defaults to the global one).
    """

    def __init__(self, package: Package | None = None):
        self.package = package or default_package()

    def run(
        self,
        circuit: Circuit,
        strategy: ApproximationStrategy | None = None,
        initial_state: "int | StateDD" = 0,
        record_trajectory: bool = False,
        max_seconds: float | None = None,
        size_check_interval: int = 1,
        start_op_index: int = 0,
        prior_rounds: Sequence[RoundRecord] | None = None,
        checkpoint_interval: int | None = None,
        checkpoint_callback: 
            Callable[[StateDD, int, "SimulationStats"], None]
         | None = None,
        recorder: Recorder | None = None,
        ddsan: bool | None = None,
        watchdog: MemoryWatchdog | None = None,
        cancel: CancellationToken | None = None,
    ) -> SimulationOutcome:
        """Simulate ``circuit`` from a basis state or a prepared state.

        CPython's cyclic garbage collector is paused while the gates run
        (decision diagrams are acyclic, so reference counting frees dead
        nodes) and restored to its entry state on exit.

        Args:
            circuit: The circuit to apply.
            strategy: Approximation policy (exact simulation if omitted).
            initial_state: Starting basis-state index, or a prepared
                :class:`repro.dd.vector.StateDD` (same package and width)
                — enabling staged pipelines that switch strategies
                between algorithm phases.
            record_trajectory: Keep the per-operation diagram sizes
                (costs one size sweep per gate, which the simulator does
                anyway to maintain ``max_nodes``).
            max_seconds: Cooperative timeout — checked between operations;
                raises :class:`SimulationTimeout` when exceeded.
            size_check_interval: Count diagram nodes only every k-th
                operation (node counting costs a full sweep — about 7 %
                of the benchmark's fidelity-driven ``shor_69_2`` run at
                interval 1).  Strategies then see the
                most recent count, so memory-driven triggering becomes
                slightly delayed; ``max_nodes`` may undershoot the true
                peak between checks.  The final state is always counted.
            start_op_index: Resume support — skip operations before this
                index.  ``initial_state`` must then be the state *after*
                operations ``[0, start_op_index)`` (typically rehydrated
                from a checkpoint), and the strategy is notified through
                :meth:`~repro.core.strategies.ApproximationStrategy.resume`
                so pre-planned rounds before the resume point are not
                replayed.
            prior_rounds: Approximation rounds completed before
                ``start_op_index`` (from the interrupted run).  They seed
                ``stats.rounds`` so the Lemma 1 fidelity product composes
                across the interruption — truncations already applied are
                part of the state being resumed.
            checkpoint_interval: Invoke ``checkpoint_callback`` every this
                many applied operations (and never otherwise).
            checkpoint_callback: Called as ``callback(state, next_op_index,
                stats)`` where ``next_op_index`` is the index of the first
                operation not yet applied — the ``start_op_index`` a
                resuming run must pass.
            recorder: An :class:`repro.obs.Recorder` to instrument the
                run with (per-gate wall-time timers under ``gate.<name>``,
                ``op``/``round`` trace events, approximation counters).
                Defaults to the process-wide active recorder, which is a
                no-op unless :func:`repro.obs.recording` (or
                ``set_recorder``) activated one.  The ``nodes`` field of
                ``op`` events reports the most recent size check, so with
                ``size_check_interval > 1`` it can lag by up to
                ``interval - 1`` operations.
            ddsan: Run under the DDSan invariant sanitizer
                (:mod:`repro.analysis.ddsan`): re-verify state-diagram
                invariants plus unique-table and compute-cache integrity
                after every gate application and approximation round.
                ``None`` (the default) defers to the ``REPRO_DDSAN``
                environment variable.  Sanitized runs are slow — each
                check sweeps the diagram, the unique tables, and the
                caches — and abort with
                :class:`repro.analysis.ddsan.SanitizerError` naming the
                offending operation index, gate, and round on the first
                violation.
            watchdog: Memory-pressure policy (see
                :class:`MemoryWatchdog`).  ``None`` uses the default
                watchdog — ``MemoryError`` during a gate application
                triggers an emergency approximation round and a single
                retry.  Pass ``MemoryWatchdog(enabled=False)`` to let
                memory pressure propagate unhandled.
            cancel: Cooperative cancellation token (see
                :class:`CancellationToken`).  Polled before every
                operation and again after every operation's
                approximation round; when it fires the run raises
                :class:`SimulationCancelled` carrying the serialized
                partial state, the index of the first unapplied
                operation, and the trigger reason.  The post-round
                check is skipped after the final operation — a run
                whose last gate finished simply completes.

        Returns:
            A :class:`SimulationOutcome` with the final state (unit norm)
            and the per-run statistics.

        Raises:
            SimulationTimeout: When ``max_seconds`` elapses mid-run.  The
                exception carries the serialized partial state and the
                index of the first unapplied operation for checkpointing.
            SimulationCancelled: When ``cancel`` fires mid-run (same
                checkpoint payload as :class:`SimulationTimeout`, plus
                the cancellation reason).
            MemoryBudgetExceeded: When an emergency approximation round
                would push the fidelity estimate below the watchdog's
                floor.
            MemoryError: When pressure persists after a rescue (or the
                watchdog is disabled / its rescue budget is spent).
            ValueError: When a prepared initial state mismatches the
                circuit width or the simulator's package,
                ``size_check_interval < 1``, or ``start_op_index`` is out
                of range.
        """
        if size_check_interval < 1:
            raise ValueError("size_check_interval must be >= 1")
        if not 0 <= start_op_index <= len(circuit):
            raise ValueError(
                f"start_op_index {start_op_index} out of range for "
                f"{len(circuit)} operations"
            )
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        policy = strategy if strategy is not None else NoApproximation()
        policy.plan(circuit)
        stats = SimulationStats(
            circuit_name=circuit.name,
            strategy=policy.describe(),
            num_qubits=circuit.num_qubits,
            num_operations=len(circuit),
            trajectory=[] if record_trajectory else None,
            dd_backend=getattr(self.package, "backend_name", ""),
        )
        if prior_rounds:
            stats.rounds.extend(prior_rounds)
        if start_op_index:
            policy.resume(start_op_index, tuple(stats.rounds))

        if isinstance(initial_state, StateDD):
            if initial_state.num_qubits != circuit.num_qubits:
                raise ValueError(
                    "prepared initial state width does not match circuit"
                )
            if initial_state.package is not self.package:
                raise ValueError(
                    "prepared initial state belongs to another package"
                )
            state = initial_state
        else:
            state = StateDD.basis_state(
                circuit.num_qubits, initial_state, self.package
            )
        node_count = state.node_count()
        stats.max_nodes = node_count
        applied = 0
        sanitizer = _resolve_sanitizer(ddsan, self.package)
        guard = watchdog if watchdog is not None else MemoryWatchdog()
        rescues = 0
        rescue_floor = 0  # node count after the last rescue (anti-thrash)
        # Resolved once; the per-gate cost of a disarmed fault framework
        # is this local's ``is None`` check.
        injector = get_injector()
        if recorder is None:
            recorder = get_recorder()
        obs = recorder if recorder.enabled else None
        if obs is not None:
            obs.event(
                "run_start",
                circuit=circuit.name,
                strategy=stats.strategy,
                num_qubits=circuit.num_qubits,
                num_operations=len(circuit),
                start_op_index=start_op_index,
                initial_nodes=node_count,
                backend=stats.dd_backend,
            )
            obs.count(f"dd.backend.{stats.dd_backend or 'unknown'}")
        with _PausedGC():
            started = time.perf_counter()
            for op_index in range(start_op_index, len(circuit)):
                operation = circuit[op_index]
                if max_seconds is not None:
                    elapsed = time.perf_counter() - started
                    if elapsed > max_seconds:
                        stats.runtime_seconds = elapsed
                        stats.final_nodes = state.node_count()
                        raise SimulationTimeout(
                            stats,
                            partial_state=state_to_dict(state),
                            op_index=op_index,
                        )
                if cancel is not None:
                    cancel_reason = cancel.reason()
                    if cancel_reason is not None:
                        stats.runtime_seconds = time.perf_counter() - started
                        stats.final_nodes = state.node_count()
                        raise SimulationCancelled(
                            stats,
                            partial_state=state_to_dict(state),
                            op_index=op_index,
                            reason=cancel_reason,
                        )
                op_started = time.perf_counter() if obs is not None else 0.0
                try:
                    if injector is not None:
                        injector.fire(
                            "simulator.gate",
                            op_index=op_index,
                            gate=operation.gate,
                            circuit=circuit.name,
                        )
                    medge = operation_to_medge(
                        operation, circuit.num_qubits, self.package
                    )
                    edge = self.package.multiply_mv(
                        medge, state.edge, circuit.num_qubits - 1
                    )
                except MemoryError:
                    if not guard.enabled or rescues >= guard.max_rescues:
                        raise
                    # Graceful degradation: shrink the pre-operation state
                    # with an emergency round, then retry the gate once.  A
                    # second MemoryError propagates — degradation did not
                    # relieve the pressure.
                    state, node_count = self._emergency_round(
                        state, op_index, stats, guard, policy, obs
                    )
                    rescues += 1
                    rescue_floor = node_count
                    medge = operation_to_medge(
                        operation, circuit.num_qubits, self.package
                    )
                    edge = self.package.multiply_mv(
                        medge, state.edge, circuit.num_qubits - 1
                    )
                state = StateDD(edge, circuit.num_qubits, self.package)
                if sanitizer is not None:
                    sanitizer.check_after_operation(
                        state, op_index, operation.gate
                    )
                if (
                    op_index % size_check_interval == 0
                    or op_index == len(circuit) - 1
                ):
                    node_count = state.node_count()
                stats.max_nodes = max(stats.max_nodes, node_count)
                if obs is not None:
                    op_seconds = time.perf_counter() - op_started
                    obs.observe(f"gate.{operation.gate}", op_seconds)
                    obs.observe("simulate.apply", op_seconds)
                    obs.event(
                        "op",
                        index=op_index,
                        gate=operation.gate,
                        seconds=op_seconds,
                        nodes=node_count,
                    )

                result = policy.after_operation(state, op_index, node_count)
                if result is not None and result.removed_nodes > 0:
                    state = result.state
                    node_count = result.nodes_after
                    if sanitizer is not None:
                        sanitizer.check_after_round(
                            state, op_index, round_index=len(stats.rounds)
                        )
                    stats.rounds.append(
                        RoundRecord(
                            op_index=op_index,
                            nodes_before=result.nodes_before,
                            nodes_after=result.nodes_after,
                            requested_fidelity=result.requested_fidelity,
                            achieved_fidelity=result.achieved_fidelity,
                            removed_contribution=result.removed_contribution,
                            removed_nodes=result.removed_nodes,
                        )
                    )
                    if obs is not None:
                        spent = 1.0 - result.achieved_fidelity
                        obs.count("approx.rounds")
                        obs.count("approx.nodes_removed", result.removed_nodes)
                        obs.count("approx.fidelity_spent", spent)
                        obs.event(
                            "round",
                            op_index=op_index,
                            nodes_before=result.nodes_before,
                            nodes_after=result.nodes_after,
                            nodes_removed=result.removed_nodes,
                            requested_fidelity=result.requested_fidelity,
                            achieved_fidelity=result.achieved_fidelity,
                            fidelity_spent=spent,
                        )
                if (
                    guard.enabled
                    and rescues < guard.max_rescues
                    and node_count > rescue_floor
                    and (
                        (
                            guard.node_ceiling is not None
                            and node_count > guard.node_ceiling
                        )
                        or (
                            guard.rss_mb_ceiling is not None
                            and _current_rss_mb() > guard.rss_mb_ceiling
                        )
                    )
                ):
                    # Proactive ceiling trip: degrade before allocation
                    # fails.  Fires only while the diagram keeps growing
                    # past the previous rescue's result, so an irreducible
                    # diagram does not trigger a round on every operation.
                    state, node_count = self._emergency_round(
                        state, op_index, stats, guard, policy, obs
                    )
                    rescues += 1
                    rescue_floor = node_count
                if stats.trajectory is not None:
                    stats.trajectory.append(node_count)
                applied += 1
                if (
                    checkpoint_interval is not None
                    and checkpoint_callback is not None
                    and applied % checkpoint_interval == 0
                    and op_index + 1 < len(circuit)
                ):
                    stats.runtime_seconds = time.perf_counter() - started
                    checkpoint_callback(state, op_index + 1, stats)
                if cancel is not None and op_index + 1 < len(circuit):
                    # Second poll per operation, *after* any approximation
                    # round spent its fidelity, so a cancellation landing
                    # mid-round still checkpoints a Lemma-1-consistent
                    # (state, rounds) pair with the round included.
                    cancel_reason = cancel.reason()
                    if cancel_reason is not None:
                        stats.runtime_seconds = time.perf_counter() - started
                        stats.final_nodes = state.node_count()
                        raise SimulationCancelled(
                            stats,
                            partial_state=state_to_dict(state),
                            op_index=op_index + 1,
                            reason=cancel_reason,
                        )
            stats.runtime_seconds = time.perf_counter() - started
            stats.final_nodes = state.node_count()
            if obs is not None:
                obs.event(
                    "run_end",
                    circuit=circuit.name,
                    runtime_seconds=stats.runtime_seconds,
                    max_nodes=stats.max_nodes,
                    final_nodes=stats.final_nodes,
                    num_rounds=stats.num_rounds,
                    fidelity_estimate=stats.fidelity_estimate,
                )
            return SimulationOutcome(state=state, stats=stats)

    def _emergency_round(
        self,
        state: StateDD,
        op_index: int,
        stats: SimulationStats,
        watchdog: MemoryWatchdog,
        policy: ApproximationStrategy,
        obs: Recorder | None,
    ) -> tuple[StateDD, int]:
        """Run one watchdog-forced approximation round on ``state``.

        Returns the (possibly shrunken) state and its node count.  The
        round is recorded with ``emergency=True`` so its fidelity cost
        is visible in the Lemma-1 product, and the strategy is told via
        :meth:`~repro.core.strategies.ApproximationStrategy.note_external_round`.

        Raises:
            MemoryBudgetExceeded: When spending ``emergency_fidelity``
                would (conservatively) push the end-to-end estimate
                below the watchdog's floor.
        """
        projected = stats.fidelity_estimate * watchdog.emergency_fidelity
        if projected < watchdog.fidelity_floor:
            raise MemoryBudgetExceeded(
                f"emergency approximation at operation {op_index} would "
                f"drop the fidelity estimate to ~{projected:.4f}, below "
                f"the configured floor {watchdog.fidelity_floor} — "
                "refusing to degrade further (raise the floor's budget, "
                "relax the ceiling, or grant more memory)"
            )
        result = approximate_state(
            state, watchdog.emergency_fidelity, measure_fidelity=True
        )
        if obs is not None:
            obs.count("watchdog.emergency_rounds")
            obs.event(
                "emergency_round",
                op_index=op_index,
                nodes_before=result.nodes_before,
                nodes_after=result.nodes_after,
                nodes_removed=result.removed_nodes,
                requested_fidelity=result.requested_fidelity,
                achieved_fidelity=result.achieved_fidelity,
            )
        if result.removed_nodes == 0:
            # Nothing removable at this fidelity: the state is unchanged
            # and no fidelity was spent, so there is nothing to record.
            return state, result.nodes_after
        stats.rounds.append(
            RoundRecord(
                op_index=op_index,
                nodes_before=result.nodes_before,
                nodes_after=result.nodes_after,
                requested_fidelity=result.requested_fidelity,
                achieved_fidelity=result.achieved_fidelity,
                removed_contribution=result.removed_contribution,
                removed_nodes=result.removed_nodes,
                emergency=True,
            )
        )
        policy.note_external_round(op_index, result.achieved_fidelity)
        if obs is not None:
            obs.count("approx.rounds")
            obs.count("approx.nodes_removed", result.removed_nodes)
            obs.count(
                "approx.fidelity_spent", 1.0 - result.achieved_fidelity
            )
        return result.state, result.nodes_after

    def run_exact(
        self, circuit: Circuit, initial_state: int = 0
    ) -> SimulationOutcome:
        """Convenience: simulate without approximation."""
        return self.run(circuit, NoApproximation(), initial_state)

    def run_matrix_matrix(
        self,
        circuit: Circuit,
        initial_state: int = 0,
        record_trajectory: bool = False,
        max_seconds: float | None = None,
        ddsan: bool | None = None,
    ) -> SimulationOutcome:
        """Simulate by accumulating the circuit unitary (matrix–matrix).

        The alternative simulation paradigm of reference [31] (Zulehner &
        Wille, DATE 2019): compose all gate diagrams into one operator
        diagram, then apply it to the initial state once.  Competitive
        when the accumulated operator stays compact (e.g. the QFT);
        disastrous when it does not (random circuits) — the benchmark
        ``bench_ablation_mv_vs_mm`` quantifies the crossover.

        Statistics semantics: ``max_nodes``/``trajectory`` track the
        *operator* diagram during accumulation; ``final_nodes`` is the
        final state's size.
        """
        from ..dd.matrix import OperatorDD

        stats = SimulationStats(
            circuit_name=circuit.name,
            strategy="matrix-matrix",
            num_qubits=circuit.num_qubits,
            num_operations=len(circuit),
            trajectory=[] if record_trajectory else None,
            dd_backend=getattr(self.package, "backend_name", ""),
        )
        accumulated = OperatorDD.identity(circuit.num_qubits, self.package)
        stats.max_nodes = accumulated.node_count()
        sanitizer = _resolve_sanitizer(ddsan, self.package)
        with _PausedGC():
            started = time.perf_counter()
            for op_index, operation in enumerate(circuit):
                if max_seconds is not None:
                    elapsed = time.perf_counter() - started
                    if elapsed > max_seconds:
                        stats.runtime_seconds = elapsed
                        stats.final_nodes = accumulated.node_count()
                        raise SimulationTimeout(stats)
                medge = operation_to_medge(
                    operation, circuit.num_qubits, self.package
                )
                gate = OperatorDD(medge, circuit.num_qubits, self.package)
                accumulated = gate.compose(accumulated)
                if sanitizer is not None:
                    sanitizer.check_operator(accumulated, op_index)
                node_count = accumulated.node_count()
                stats.max_nodes = max(stats.max_nodes, node_count)
                if stats.trajectory is not None:
                    stats.trajectory.append(node_count)
            state = accumulated.apply(
                StateDD.basis_state(
                    circuit.num_qubits, initial_state, self.package
                )
            )
            stats.runtime_seconds = time.perf_counter() - started
            stats.final_nodes = state.node_count()
            return SimulationOutcome(state=state, stats=stats)


def simulate(
    circuit: Circuit,
    strategy: ApproximationStrategy | None = None,
    package: Package | None = None,
    initial_state: "int | StateDD" = 0,
    record_trajectory: bool = False,
    max_seconds: float | None = None,
    size_check_interval: int = 1,
    recorder: Recorder | None = None,
    ddsan: bool | None = None,
    watchdog: MemoryWatchdog | None = None,
    cancel: CancellationToken | None = None,
) -> SimulationOutcome:
    """Module-level convenience wrapper around :class:`DDSimulator`."""
    simulator = DDSimulator(package)
    return simulator.run(
        circuit,
        strategy,
        initial_state=initial_state,
        record_trajectory=record_trajectory,
        max_seconds=max_seconds,
        size_check_interval=size_check_interval,
        recorder=recorder,
        ddsan=ddsan,
        watchdog=watchdog,
        cancel=cancel,
    )
