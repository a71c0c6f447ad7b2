"""Quantum circuit intermediate representation.

A :class:`Circuit` is an ordered list of :class:`Operation` values over a
fixed number of qubits, optionally annotated with named *blocks* — the
high-level algorithm structure (Fig. 2 of the paper) that the
fidelity-driven approximation strategy uses to place its approximation
rounds between circuit blocks.

Operations reference gates from :mod:`repro.circuits.gates` by name and may
carry any number of (positive) control qubits.  Two pseudo-gates extend the
single-qubit registry:

* ``swap`` — two targets; lowered to three CNOTs.
* ``cmodmul`` — modular multiplication by ``a`` modulo ``N`` on a work
  register (Shor's ``U_{a^x}`` blocks); lowered to a permutation matrix DD.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator, Sequence

from .gates import GATE_REGISTRY, inverse_gate

#: Gates that are not in the single-qubit registry but understood by the IR.
PSEUDO_GATES = frozenset({"swap", "cmodmul"})


@dataclass(frozen=True)
class Operation:
    """One gate application.

    Attributes:
        gate: Gate name — a key of ``GATE_REGISTRY`` or a pseudo-gate.
        targets: Target qubit indices.  Single-qubit gates take exactly
            one target; ``swap`` takes two; ``cmodmul`` takes the full
            work register (ascending, contiguous from qubit 0).
        controls: Positive control qubits (gate applies iff all are 1).
        params: Real gate parameters (e.g. rotation angles); for
            ``cmodmul`` the pair ``(a, N)`` as integers.
    """

    gate: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.gate not in GATE_REGISTRY and self.gate not in PSEUDO_GATES:
            raise ValueError(f"unknown gate {self.gate!r}")
        if not self.targets:
            raise ValueError("operation needs at least one target")
        touched = set(self.targets) | set(self.controls)
        if len(touched) != len(self.targets) + len(self.controls):
            raise ValueError(
                f"targets {self.targets} and controls {self.controls} overlap"
            )
        if self.gate in GATE_REGISTRY:
            if len(self.targets) != 1:
                raise ValueError(f"gate {self.gate!r} takes exactly one target")
            expected = GATE_REGISTRY[self.gate].num_params
            if len(self.params) != expected:
                raise ValueError(
                    f"gate {self.gate!r} expects {expected} params, "
                    f"got {len(self.params)}"
                )
        elif self.gate == "swap" and len(self.targets) != 2:
            raise ValueError("swap takes exactly two targets")
        elif self.gate == "cmodmul":
            if len(self.params) != 2:
                raise ValueError("cmodmul requires params (a, N)")
            # The lowering builds the permutation on the low len(targets)
            # qubits, whatever the targets say.
            if tuple(self.targets) != tuple(range(len(self.targets))):
                raise ValueError(
                    "cmodmul work register must be qubits 0..k-1 in order, "
                    f"got {self.targets}"
                )

    @property
    def num_qubits_touched(self) -> int:
        """Number of distinct qubits this operation acts on."""
        return len(self.targets) + len(self.controls)

    def inverse(self) -> "Operation":
        """Return the inverse operation."""
        if self.gate == "swap":
            return self
        if self.gate == "cmodmul":
            a, modulus = int(self.params[0]), int(self.params[1])
            a_inv = pow(a, -1, modulus)
            return Operation(
                "cmodmul", self.targets, self.controls, (a_inv, modulus)
            )
        name, params = inverse_gate(self.gate, self.params)
        return Operation(name, self.targets, self.controls, params)

    def describe(self) -> str:
        """Human-readable one-line rendering, e.g. ``cp(pi/2) 0 -> 2``."""
        params = (
            "(" + ", ".join(f"{p:g}" for p in self.params) + ")"
            if self.params
            else ""
        )
        controls = (
            " ".join(str(c) for c in self.controls) + " -> "
            if self.controls
            else ""
        )
        targets = " ".join(str(t) for t in self.targets)
        prefix = "c" * len(self.controls) if self.gate in GATE_REGISTRY else ""
        return f"{prefix}{self.gate}{params} {controls}{targets}"


@dataclass(frozen=True)
class Block:
    """A named, contiguous region of a circuit (Fig. 2 structure).

    Attributes:
        name: Block label, e.g. ``"modmul[3]"`` or ``"inverse_qft"``.
        start: Index of the first operation in the block.
        end: One past the last operation in the block.
    """

    name: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid block range [{self.start}, {self.end})")


class Circuit:
    """An ordered sequence of operations on ``num_qubits`` qubits.

    The class offers fluent builder methods (``circuit.h(0).cx(0, 1)``),
    block annotation for approximation placement, structural queries, and
    conversion to/from the OpenQASM subset in :mod:`repro.circuits.qasm`.
    """

    def __init__(self, num_qubits: int, name: str = "circuit"):
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        self.num_qubits = num_qubits
        self.name = name
        self._operations: list[Operation] = []
        self._blocks: list[Block] = []
        self._open_block: tuple[str, int] | None = None

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._operations)

    def __getitem__(self, index: int) -> Operation:
        return self._operations[index]

    @property
    def operations(self) -> tuple[Operation, ...]:
        """The operations as an immutable snapshot."""
        return tuple(self._operations)

    @property
    def blocks(self) -> tuple[Block, ...]:
        """The annotated blocks as an immutable snapshot."""
        return tuple(self._blocks)

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def append(self, operation: Operation) -> "Circuit":
        """Append a pre-built operation after validating qubit bounds."""
        touched = set(operation.targets) | set(operation.controls)
        out_of_range = [q for q in touched if not 0 <= q < self.num_qubits]
        if out_of_range:
            raise ValueError(
                f"qubits {out_of_range} out of range for "
                f"{self.num_qubits}-qubit circuit"
            )
        self._operations.append(operation)
        return self

    def _gate(
        self,
        gate: str,
        target: int,
        controls: Sequence[int] = (),
        params: Sequence[float] = (),
    ) -> "Circuit":
        return self.append(
            Operation(gate, (target,), tuple(controls), tuple(params))
        )

    # -- single-qubit gates -------------------------------------------------
    def i(self, q: int) -> "Circuit":
        """Identity (explicit no-op)."""
        return self._gate("id", q)

    def x(self, q: int) -> "Circuit":
        """Pauli-X."""
        return self._gate("x", q)

    def y(self, q: int) -> "Circuit":
        """Pauli-Y."""
        return self._gate("y", q)

    def z(self, q: int) -> "Circuit":
        """Pauli-Z."""
        return self._gate("z", q)

    def h(self, q: int) -> "Circuit":
        """Hadamard."""
        return self._gate("h", q)

    def s(self, q: int) -> "Circuit":
        """Phase gate S."""
        return self._gate("s", q)

    def sdg(self, q: int) -> "Circuit":
        """Inverse phase gate."""
        return self._gate("sdg", q)

    def t(self, q: int) -> "Circuit":
        """T gate."""
        return self._gate("t", q)

    def tdg(self, q: int) -> "Circuit":
        """Inverse T gate."""
        return self._gate("tdg", q)

    def sx(self, q: int) -> "Circuit":
        """Square root of X."""
        return self._gate("sx", q)

    def sy(self, q: int) -> "Circuit":
        """Square root of Y."""
        return self._gate("sy", q)

    def rx(self, theta: float, q: int) -> "Circuit":
        """X rotation."""
        return self._gate("rx", q, params=(theta,))

    def ry(self, theta: float, q: int) -> "Circuit":
        """Y rotation."""
        return self._gate("ry", q, params=(theta,))

    def rz(self, theta: float, q: int) -> "Circuit":
        """Z rotation."""
        return self._gate("rz", q, params=(theta,))

    def p(self, lam: float, q: int) -> "Circuit":
        """Phase gate P(lambda)."""
        return self._gate("p", q, params=(lam,))

    def u(self, theta: float, phi: float, lam: float, q: int) -> "Circuit":
        """Generic single-qubit gate."""
        return self._gate("u", q, params=(theta, phi, lam))

    # -- controlled gates ---------------------------------------------------
    def cx(self, control: int, target: int) -> "Circuit":
        """Controlled-X (CNOT)."""
        return self._gate("x", target, controls=(control,))

    def cy(self, control: int, target: int) -> "Circuit":
        """Controlled-Y."""
        return self._gate("y", target, controls=(control,))

    def cz(self, control: int, target: int) -> "Circuit":
        """Controlled-Z (supremacy-circuit coupler)."""
        return self._gate("z", target, controls=(control,))

    def ch(self, control: int, target: int) -> "Circuit":
        """Controlled-Hadamard."""
        return self._gate("h", target, controls=(control,))

    def cp(self, lam: float, control: int, target: int) -> "Circuit":
        """Controlled phase — the ``CR`` gate of the QFT (Fig. 2)."""
        return self._gate("p", target, controls=(control,), params=(lam,))

    def crz(self, theta: float, control: int, target: int) -> "Circuit":
        """Controlled Z rotation."""
        return self._gate("rz", target, controls=(control,), params=(theta,))

    def cry(self, theta: float, control: int, target: int) -> "Circuit":
        """Controlled Y rotation."""
        return self._gate("ry", target, controls=(control,), params=(theta,))

    def ccx(self, control1: int, control2: int, target: int) -> "Circuit":
        """Toffoli."""
        return self._gate("x", target, controls=(control1, control2))

    def mcx(self, controls: Sequence[int], target: int) -> "Circuit":
        """Multi-controlled X."""
        return self._gate("x", target, controls=tuple(controls))

    def mcz(self, controls: Sequence[int], target: int) -> "Circuit":
        """Multi-controlled Z."""
        return self._gate("z", target, controls=tuple(controls))

    def mcp(self, lam: float, controls: Sequence[int], target: int) -> "Circuit":
        """Multi-controlled phase."""
        return self._gate("p", target, controls=tuple(controls), params=(lam,))

    # -- pseudo-gates ---------------------------------------------------
    def swap(self, q1: int, q2: int) -> "Circuit":
        """Swap two qubits."""
        return self.append(Operation("swap", (q1, q2)))

    def cmodmul(
        self,
        multiplier: int,
        modulus: int,
        work: Sequence[int],
        controls: Sequence[int] = (),
    ) -> "Circuit":
        """Controlled modular multiplication ``|x> -> |a*x mod N>``.

        The work register must cover qubits ``0 .. len(work)-1`` in
        ascending order (the lowering builds the permutation at the bottom
        of the diagram).  ``multiplier`` must be coprime to ``modulus`` so
        the operation is unitary.

        Args:
            multiplier: The factor ``a``.
            modulus: The modulus ``N``; requires ``2**len(work) >= N``.
            work: Work register qubits.
            controls: Optional control qubits.
        """
        work_tuple = tuple(work)
        if (1 << len(work_tuple)) < modulus:
            raise ValueError(
                f"work register of {len(work_tuple)} qubits cannot hold "
                f"values modulo {modulus}"
            )
        import math

        if math.gcd(multiplier % modulus, modulus) != 1:
            raise ValueError(
                f"multiplier {multiplier} is not invertible modulo {modulus}"
            )
        return self.append(
            Operation(
                "cmodmul",
                work_tuple,
                tuple(controls),
                (multiplier % modulus, modulus),
            )
        )

    # ------------------------------------------------------------------
    # Blocks
    # ------------------------------------------------------------------

    def begin_block(self, name: str) -> "Circuit":
        """Open a named block at the current position."""
        if self._open_block is not None:
            raise ValueError(
                f"block {self._open_block[0]!r} is still open"
            )
        self._open_block = (name, len(self._operations))
        return self

    def end_block(self) -> "Circuit":
        """Close the currently open block."""
        if self._open_block is None:
            raise ValueError("no block is open")
        name, start = self._open_block
        self._blocks.append(Block(name, start, len(self._operations)))
        self._open_block = None
        return self

    def block_boundaries(self) -> list[int]:
        """Operation indices at which annotated blocks end.

        These are the paper's preferred locations for approximation rounds
        ("between circuit blocks of the algorithm", §IV-C).
        """
        return sorted({block.end for block in self._blocks})

    # ------------------------------------------------------------------
    # Transformations and queries
    # ------------------------------------------------------------------

    def inverse(self) -> "Circuit":
        """Return the adjoint circuit (reversed order, inverted gates)."""
        inverted = Circuit(self.num_qubits, name=f"{self.name}_dg")
        for operation in reversed(self._operations):
            inverted.append(operation.inverse())
        total = len(self._operations)
        for block in reversed(self._blocks):
            inverted._blocks.append(
                Block(f"{block.name}_dg", total - block.end, total - block.start)
            )
        return inverted

    def subcircuit(self, start: int, end: int | None = None) -> "Circuit":
        """Return the operations in ``[start, end)`` as a new circuit.

        Block annotations fully contained in the range are preserved
        (re-based to the new indices); partially covered blocks are
        dropped.  Useful for staged simulation — run a prefix exactly,
        then continue from its final state with a different strategy.
        """
        stop = len(self._operations) if end is None else end
        if not 0 <= start <= stop <= len(self._operations):
            raise ValueError(
                f"invalid range [{start}, {stop}) for {len(self)} operations"
            )
        piece = Circuit(
            self.num_qubits, name=f"{self.name}[{start}:{stop}]"
        )
        for operation in self._operations[start:stop]:
            piece.append(operation)
        for block in self._blocks:
            if start <= block.start and block.end <= stop:
                piece._blocks.append(
                    Block(block.name, block.start - start, block.end - start)
                )
        return piece

    def compose(self, other: "Circuit") -> "Circuit":
        """Return a new circuit running ``self`` then ``other``."""
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit-count mismatch in composition")
        combined = Circuit(self.num_qubits, name=f"{self.name}+{other.name}")
        for operation in self._operations:
            combined.append(operation)
        offset = len(self._operations)
        combined._blocks.extend(self._blocks)
        for operation in other._operations:
            combined.append(operation)
        for block in other._blocks:
            combined._blocks.append(
                Block(block.name, block.start + offset, block.end + offset)
            )
        return combined

    def gate_counts(self) -> dict[str, int]:
        """Histogram of gate names (controls folded into the name)."""
        counts: dict[str, int] = {}
        for operation in self._operations:
            key = "c" * len(operation.controls) + operation.gate
            counts[key] = counts.get(key, 0) + 1
        return counts

    def depth(self) -> int:
        """Schedule depth: number of layers of non-overlapping operations."""
        busy_until = [0] * self.num_qubits
        depth = 0
        for operation in self._operations:
            touched = list(operation.targets) + list(operation.controls)
            layer = max(busy_until[q] for q in touched) + 1
            for q in touched:
                busy_until[q] = layer
            depth = max(depth, layer)
        return depth

    def two_qubit_gate_count(self) -> int:
        """Number of operations touching two or more qubits."""
        return sum(
            1 for op in self._operations if op.num_qubits_touched >= 2
        )

    def describe(self) -> str:
        """Multi-line human-readable listing with block annotations."""
        lines = [f"circuit {self.name!r}: {self.num_qubits} qubits, "
                 f"{len(self)} operations"]
        block_starts = {block.start: block.name for block in self._blocks}
        block_ends = {block.end for block in self._blocks}
        for index, operation in enumerate(self._operations):
            if index in block_starts:
                lines.append(f"-- block {block_starts[index]!r} --")
            lines.append(f"  [{index:4d}] {operation.describe()}")
        if len(self._operations) in block_ends:
            lines.append("-- end --")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Circuit({self.name!r}, num_qubits={self.num_qubits}, "
            f"operations={len(self)})"
        )
