"""Semiclassical (single-control-qubit) Shor simulation.

The full period-finding circuit of Fig. 2 needs ``3n`` qubits.  The
semiclassical inverse QFT (Griffiths–Niu; used by Beauregard's and
Parker–Plenio's Shor constructions) replaces the whole ``2n``-qubit
counting register with *one* control qubit that is measured and recycled
``2n`` times, with classically-conditioned phase corrections between
rounds.  For a simulator this is a double win: the state never exceeds
``n + 1`` qubits, and each measurement collapses entanglement that would
otherwise accumulate in the diagram.

Iterative phase estimation, bit by bit: writing the eigenphase as the
binary fraction :math:`\\varphi = 0.\\varphi_1\\varphi_2\\ldots\\varphi_m`,
round ``t`` (``t = 1 .. m``) applies the controlled power
:math:`U^{2^{m-t}}`, rotates away the already-measured tail
:math:`-2\\pi\\,0.0\\varphi_{l+1}\\ldots\\varphi_m`, and measures
:math:`\\varphi_l` exactly (for exact eigenstates) or with high
probability.  Measured bits assemble the same counting value the Fig. 2
circuit would produce, so the classical postprocessing is unchanged.

Approximation composes naturally: an optional round after each controlled
multiplication bounds the work-register diagram, and the per-round
fidelities multiply as in §V.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..postprocessing.shor_classical import ShorResult

from ..circuits.circuit import Operation
from ..circuits.lowering import operation_to_medge
from ..circuits.shor import shor_layout
from ..dd.measurement import measure_qubit
from ..dd.package import Package, default_package
from ..dd.vector import StateDD
from .approximation import approximate_state
from .fidelity import composed_fidelity
from .simulator import _PausedGC


@dataclass
class SemiclassicalRun:
    """One execution of the semiclassical period-finding procedure.

    Attributes:
        modulus: The number being factored.
        base: The coprime base.
        measured_value: The assembled counting value ``y``.
        bits: Measured bits, least significant first.
        num_qubits: Width of the simulated register (``n + 1``).
        max_nodes: Largest diagram seen during the run.
        rounds: Number of approximation rounds that removed nodes.
        round_fidelities: Achieved fidelity of each such round.
        runtime_seconds: Wall-clock time of the run.
    """

    modulus: int
    base: int
    measured_value: int
    bits: list[int]
    num_qubits: int
    max_nodes: int
    rounds: int
    round_fidelities: list[float] = field(default_factory=list)
    runtime_seconds: float = 0.0

    @property
    def counting_bits(self) -> int:
        """Number of phase bits measured (``2n``)."""
        return len(self.bits)

    @property
    def fidelity_estimate(self) -> float:
        """Composed per-round fidelity (Lemma 1 product)."""
        return composed_fidelity(self.round_fidelities)


def semiclassical_shor_run(
    modulus: int,
    base: int,
    rng: np.random.Generator | None = None,
    package: Package | None = None,
    round_fidelity: float | None = None,
) -> SemiclassicalRun:
    """Run one semiclassical period-finding experiment.

    Args:
        modulus: Number to factor (validated as in
            :func:`repro.circuits.shor.shor_layout`).
        base: Coprime base.
        rng: Random generator driving the measurements.
        package: DD package to simulate in.
        round_fidelity: If set, approximate the state to this per-round
            fidelity after every controlled multiplication.

    Returns:
        A :class:`SemiclassicalRun` with the measured counting value.
    """
    layout = shor_layout(modulus, base)
    generator = rng if rng is not None else np.random.default_rng()
    pkg = package or default_package()
    work_bits = layout.work_bits
    control = work_bits
    num_qubits = work_bits + 1
    total_bits = layout.counting_bits

    def apply(operation: Operation, state: StateDD) -> StateDD:
        medge = operation_to_medge(operation, num_qubits, pkg)
        edge = pkg.multiply_mv(medge, state.edge, num_qubits - 1)
        return StateDD(edge, num_qubits, pkg)

    hadamard = Operation("h", (control,))
    reset_x = Operation("x", (control,))

    state = StateDD.basis_state(num_qubits, 1, pkg)  # work = |1>, control |0>
    bits: list[int] = []
    round_fidelities: list[float] = []
    rounds = 0
    max_nodes = state.node_count()
    with _PausedGC():
        started = time.perf_counter()

        for step in range(total_bits):
            exponent = total_bits - 1 - step
            power = pow(base, 1 << exponent, modulus)
            state = apply(hadamard, state)
            state = apply(
                Operation(
                    "cmodmul",
                    tuple(range(work_bits)),
                    (control,),
                    (power, modulus),
                ),
                state,
            )
            # Rotate away the binary-fraction tail of the measured bits.
            if bits:
                theta = -2.0 * math.pi * sum(
                    bit / (1 << (position + 2))
                    for position, bit in enumerate(reversed(bits))
                )
                state = apply(Operation("p", (control,), (), (theta,)), state)
            state = apply(hadamard, state)
            max_nodes = max(max_nodes, state.node_count())

            outcome, state, _probability = measure_qubit(
                state, control, generator
            )
            bits.append(outcome)
            if outcome:
                state = apply(reset_x, state)

            if round_fidelity is not None:
                result = approximate_state(state, round_fidelity)
                if result.removed_nodes:
                    state = result.state
                    rounds += 1
                    round_fidelities.append(result.achieved_fidelity)

    measured = sum(bit << position for position, bit in enumerate(bits))
    return SemiclassicalRun(
        modulus=modulus,
        base=base,
        measured_value=measured,
        bits=bits,
        num_qubits=num_qubits,
        max_nodes=max_nodes,
        rounds=rounds,
        round_fidelities=round_fidelities,
        runtime_seconds=time.perf_counter() - started,
    )


def semiclassical_phase_estimation(
    phase: float,
    bits: int,
    rng: np.random.Generator | None = None,
    package: Package | None = None,
) -> int:
    """Iterative phase estimation of ``P(2*pi*phase)`` with one qubit.

    The minimal instance of the machinery behind
    :func:`semiclassical_shor_run`: a two-qubit register (eigenstate
    target + recycled control) estimates ``phase`` to ``bits`` binary
    digits.  For exactly representable phases every measurement is
    deterministic and the returned integer equals
    ``round(phase * 2**bits)`` with certainty.

    Returns:
        The measured ``bits``-bit phase integer.
    """
    if bits < 1:
        raise ValueError("need at least one phase bit")
    generator = rng if rng is not None else np.random.default_rng()
    pkg = package or default_package()
    control = 1
    num_qubits = 2

    def apply(operation: Operation, state: StateDD) -> StateDD:
        medge = operation_to_medge(operation, num_qubits, pkg)
        edge = pkg.multiply_mv(medge, state.edge, num_qubits - 1)
        return StateDD(edge, num_qubits, pkg)

    state = StateDD.basis_state(num_qubits, 1, pkg)  # target = |1>
    measured_bits: list[int] = []
    for step in range(bits):
        exponent = bits - 1 - step
        state = apply(Operation("h", (control,)), state)
        angle = 2.0 * math.pi * phase * (1 << exponent)
        state = apply(
            Operation("p", (0,), (control,), (angle,)), state
        )
        if measured_bits:
            correction = -2.0 * math.pi * sum(
                bit / (1 << (position + 2))
                for position, bit in enumerate(reversed(measured_bits))
            )
            state = apply(
                Operation("p", (control,), (), (correction,)), state
            )
        state = apply(Operation("h", (control,)), state)
        outcome, state, _probability = measure_qubit(
            state, control, generator
        )
        measured_bits.append(outcome)
        if outcome:
            state = apply(Operation("x", (control,)), state)
    return sum(bit << position for position, bit in enumerate(measured_bits))


def semiclassical_shor_factor(
    modulus: int,
    base: int,
    attempts: int = 10,
    rng: np.random.Generator | None = None,
    package: Package | None = None,
    round_fidelity: float | None = None,
) -> "tuple[ShorResult, list[SemiclassicalRun]]":
    """Repeat semiclassical runs until the factors fall out.

    Returns:
        ``(ShorResult, runs)`` — the postprocessing result (factors or a
        failure record) and the list of runs executed.

    Raises:
        ValueError: If ``attempts`` is not positive.
    """
    from ..postprocessing.shor_classical import postprocess_counts

    if attempts < 1:
        raise ValueError("attempts must be positive")
    generator = rng if rng is not None else np.random.default_rng()
    runs: list[SemiclassicalRun] = []
    counts: dict[int, int] = {}
    result: ShorResult | None = None
    for _ in range(attempts):
        run = semiclassical_shor_run(
            modulus,
            base,
            rng=generator,
            package=package,
            round_fidelity=round_fidelity,
        )
        runs.append(run)
        counts[run.measured_value] = counts.get(run.measured_value, 0) + 1
        result = postprocess_counts(
            counts, run.counting_bits, modulus, base
        )
        if result.succeeded:
            break
    assert result is not None  # attempts >= 1 always runs the loop
    return result, runs
