"""High-level wrapper for quantum states represented as decision diagrams.

:class:`StateDD` is the user-facing handle on a vector decision diagram.
It is an immutable value object: every operation returns a new wrapper that
shares structure with its inputs through the package's unique tables.

Index convention: basis-state index ``i`` has qubit ``k`` in the bit
``(i >> k) & 1``, i.e. qubit 0 is the least-significant bit and lives at the
*bottom* of the diagram.  ``StateDD.from_amplitudes`` and ``to_amplitudes``
follow this convention, which matches the standard little-endian layout of
statevector simulators.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from . import ctable
from .node import VEdge, VNode, zero_vedge
from .package import Package, default_package


def _vedge_from_amplitudes(
    segment: np.ndarray, level: int, package: Package
) -> VEdge:
    """Diagram of the amplitude ``segment`` spanning levels ``<= level``."""
    if level < 0:
        value = complex(segment[0])
        return (value, None) if not ctable.is_zero(value) else zero_vedge()
    half = segment.size // 2
    child0 = _vedge_from_amplitudes(segment[:half], level - 1, package)
    child1 = _vedge_from_amplitudes(segment[half:], level - 1, package)
    return package.make_vedge(level, child0, child1)


def _fill_amplitudes(
    out: np.ndarray, edge: VEdge, level: int, offset: int, factor: complex
) -> None:
    """Write the amplitudes below ``edge`` into ``out`` from ``offset``."""
    weight, node = edge
    if ctable.is_zero(weight):
        return
    value = factor * weight
    if level < 0:
        out[offset] = value
        return
    half = 1 << level
    _fill_amplitudes(out, node.edges[0], level - 1, offset, value)
    _fill_amplitudes(out, node.edges[1], level - 1, offset + half, value)


class StateDD:
    """An ``n``-qubit quantum state stored as a vector decision diagram.

    Attributes:
        edge: The root edge of the diagram.
        num_qubits: Number of qubits (diagram levels).
        package: The owning :class:`repro.dd.package.Package`.
    """

    __slots__ = ("edge", "num_qubits", "package")

    def __init__(self, edge: VEdge, num_qubits: int, package: Package):
        self.edge = edge
        self.num_qubits = num_qubits
        self.package = package

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def basis_state(
        cls, num_qubits: int, index: int = 0, package: Package | None = None
    ) -> "StateDD":
        """Build the computational basis state :math:`|index\\rangle`.

        Args:
            num_qubits: Number of qubits; must be positive.
            index: Basis-state index in ``[0, 2**num_qubits)``.
            package: DD package to build in (defaults to the global one).
        """
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        if not 0 <= index < (1 << num_qubits):
            raise ValueError(
                f"index {index} out of range for {num_qubits} qubits"
            )
        pkg = package or default_package()
        edge: VEdge = (complex(1.0), None)
        for level in range(num_qubits):
            if (index >> level) & 1:
                edge = pkg.make_vedge(level, zero_vedge(), edge)
            else:
                edge = pkg.make_vedge(level, edge, zero_vedge())
        return cls(edge, num_qubits, pkg)

    @classmethod
    def plus_state(
        cls, num_qubits: int, package: Package | None = None
    ) -> "StateDD":
        """Build the uniform superposition :math:`|+\\rangle^{\\otimes n}`."""
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        pkg = package or default_package()
        edge: VEdge = (complex(1.0), None)
        for level in range(num_qubits):
            edge = pkg.make_vedge(level, edge, edge)
        # Each stacking step contributes sqrt(2) to the root weight;
        # rescale so the wrapper represents a unit-norm state.
        weight, node = edge
        return cls((weight / abs(weight), node), num_qubits, pkg)

    @classmethod
    def from_amplitudes(
        cls,
        amplitudes: Sequence[complex] | np.ndarray,
        package: Package | None = None,
        normalize: bool = False,
    ) -> "StateDD":
        """Build a state diagram from a dense amplitude vector.

        Args:
            amplitudes: Length must be a power of two (``2**n``).
            package: DD package to build in.
            normalize: If True, rescale the vector to unit norm first;
                otherwise a non-normalized vector raises ``ValueError``.
        """
        vec = np.asarray(amplitudes, dtype=complex)
        if vec.ndim != 1 or vec.size == 0 or vec.size & (vec.size - 1):
            raise ValueError("amplitude vector length must be a power of two")
        num_qubits = vec.size.bit_length() - 1
        if num_qubits == 0:
            raise ValueError("at least one qubit is required")
        norm = float(np.linalg.norm(vec))
        if normalize:
            if norm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            vec = vec / norm
        elif abs(norm - 1.0) > 1e-6:
            raise ValueError(
                f"amplitude vector is not normalized (norm={norm}); "
                "pass normalize=True to rescale"
            )
        pkg = package or default_package()
        edge = _vedge_from_amplitudes(vec, num_qubits - 1, pkg)
        return cls(edge, num_qubits, pkg)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def to_amplitudes(self) -> np.ndarray:
        """Materialize the dense amplitude vector (``O(2**n)``; small ``n`` only)."""
        size = 1 << self.num_qubits
        out = np.zeros(size, dtype=complex)
        _fill_amplitudes(out, self.edge, self.num_qubits - 1, 0, complex(1.0))
        return out

    def amplitude(self, index: int) -> complex:
        """Return the amplitude of basis state ``index`` by path traversal."""
        if not 0 <= index < (1 << self.num_qubits):
            raise ValueError(f"index {index} out of range")
        weight, node = self.edge
        for level in range(self.num_qubits - 1, -1, -1):
            if weight == 0.0:
                return complex(0.0)
            weight_k, node = node.edges[(index >> level) & 1]
            weight *= weight_k
        return weight

    def probability(self, index: int) -> float:
        """Return the measurement probability of basis state ``index``."""
        return abs(self.amplitude(index)) ** 2

    def norm(self) -> float:
        """Return the 2-norm of the represented vector."""
        return abs(self.edge[0])

    def node_count(self) -> int:
        """Return the number of (non-terminal) nodes in the diagram.

        This is the paper's notion of DD *size*, reported as "Max. DD Size"
        in Table I when tracked over a simulation run.  Delegated to the
        backend, which may accelerate the sweep (the arena uses visit
        stamps instead of an ``id()`` set).
        """
        return self.package.node_count(self.edge)

    def nodes(self) -> list[VNode]:
        """Return all distinct nodes of the diagram (top-down level order).

        The within-level order is pinned by the backend interface
        contract (approximation tie-breaking depends on it), so all
        backends return the identical sequence.
        """
        return self.package.vnodes(self.edge)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def inner_product(self, other: "StateDD") -> complex:
        """Return :math:`\\langle self | other \\rangle`."""
        self._check_compatible(other)
        return self.package.inner_product(
            self.edge, other.edge, self.num_qubits - 1
        )

    def fidelity(self, other: "StateDD") -> float:
        """Return the fidelity with another state (Definition 1 of the paper)."""
        self._check_compatible(other)
        return self.package.fidelity(self.edge, other.edge, self.num_qubits - 1)

    def renormalized(self) -> "StateDD":
        """Return the same state with its root weight rescaled to unit norm.

        The direction (global phase) of the root weight is preserved.
        """
        weight, node = self.edge
        magnitude = abs(weight)
        if ctable.is_zero(weight):
            raise ValueError("cannot renormalize the zero state")
        return StateDD((weight / magnitude, node), self.num_qubits, self.package)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def sample(
        self, shots: int, rng: np.random.Generator | None = None
    ) -> dict[int, int]:
        """Sample measurement outcomes of all qubits.

        Thanks to the norm-preserving node normalization, the conditional
        probability of branching to qubit value 0 at any node is exactly
        ``|w0|**2``; sampling is a top-down descent per shot.

        Args:
            shots: Number of measurement repetitions.
            rng: NumPy random generator (a fresh default one if omitted).

        Returns:
            Mapping from basis-state index to observed count.
        """
        if shots <= 0:
            raise ValueError("shots must be positive")
        generator = rng if rng is not None else np.random.default_rng()
        counts: dict[int, int] = {}
        randoms = generator.random((shots, self.num_qubits))
        for shot in range(shots):
            index = 0
            _weight, node = self.edge
            for level in range(self.num_qubits - 1, -1, -1):
                p0 = abs(node.edges[0][0]) ** 2
                if randoms[shot, self.num_qubits - 1 - level] < p0:
                    node = node.edges[0][1]
                else:
                    index |= 1 << level
                    node = node.edges[1][1]
            counts[index] = counts.get(index, 0) + 1
        return counts

    def measure_qubit_probability(self, qubit: int) -> float:
        """Return the probability that measuring ``qubit`` yields 1.

        Computed by an upper-path-probability sweep: accumulate the squared
        magnitude of path prefixes down to the qubit's level, then weigh the
        1-branches.  Runs in time linear in the diagram size.
        """
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        top_prob = abs(self.edge[0]) ** 2
        mass: dict[int, float] = {id(self.edge[1]): top_prob}
        by_id = {id(self.edge[1]): self.edge[1]}
        prob_one = 0.0
        for level in range(self.num_qubits - 1, qubit - 1, -1):
            next_mass: dict[int, float] = {}
            next_by_id: dict[int, VNode] = {}
            for node_id, probability in mass.items():
                node = by_id[node_id]
                if node is None or node.level != level:
                    continue
                for bit, (weight, child) in enumerate(node.edges):
                    if ctable.is_zero(weight):
                        continue
                    branch_probability = probability * abs(weight) ** 2
                    if level == qubit:
                        if bit == 1:
                            prob_one += branch_probability
                    else:
                        key = id(child)
                        next_mass[key] = next_mass.get(key, 0.0) + branch_probability
                        next_by_id[key] = child
            if level == qubit:
                break
            mass = next_mass
            by_id = next_by_id
        return min(1.0, prob_one)

    # ------------------------------------------------------------------

    def _check_compatible(self, other: "StateDD") -> None:
        if self.num_qubits != other.num_qubits:
            raise ValueError(
                f"qubit-count mismatch: {self.num_qubits} vs {other.num_qubits}"
            )
        if self.package is not other.package:
            raise ValueError("states belong to different DD packages")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StateDD(num_qubits={self.num_qubits}, "
            f"nodes={self.node_count()}, norm={self.norm():.6f})"
        )
