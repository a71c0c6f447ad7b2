"""High-level wrapper for quantum operations represented as decision diagrams.

:class:`OperatorDD` wraps a matrix decision diagram over ``n`` qubits.  Like
:class:`repro.dd.vector.StateDD` it is an immutable value object; composing
and applying operators returns fresh wrappers sharing structure via the
package's unique tables.

Matrix element ``M[row, col]`` is found by descending the diagram choosing
edge ``row_bit * 2 + col_bit`` at each level (row/column bits taken from the
most-significant qubit downwards), and multiplying the edge weights.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import ctable
from .node import MEdge, zero_medge
from .package import Package, default_package
from .vector import StateDD


def _medge_from_matrix(
    block: np.ndarray, level: int, package: Package
) -> MEdge:
    """Diagram of the square matrix ``block`` spanning levels ``<= level``."""
    if level < 0:
        value = complex(block[0, 0])
        return (value, None) if not ctable.is_zero(value) else zero_medge()
    half = block.shape[0] // 2
    quadrants = (
        _medge_from_matrix(block[:half, :half], level - 1, package),
        _medge_from_matrix(block[:half, half:], level - 1, package),
        _medge_from_matrix(block[half:, :half], level - 1, package),
        _medge_from_matrix(block[half:, half:], level - 1, package),
    )
    return package.make_medge(level, quadrants)


def _fill_matrix(
    out: np.ndarray,
    edge: MEdge,
    level: int,
    row: int,
    col: int,
    factor: complex,
) -> None:
    """Write the elements below ``edge`` into ``out`` from ``(row, col)``."""
    weight, node = edge
    if ctable.is_zero(weight):
        return
    value = factor * weight
    if level < 0:
        out[row, col] = value
        return
    half = 1 << level
    _fill_matrix(out, node.edges[0], level - 1, row, col, value)
    _fill_matrix(out, node.edges[1], level - 1, row, col + half, value)
    _fill_matrix(out, node.edges[2], level - 1, row + half, col, value)
    _fill_matrix(out, node.edges[3], level - 1, row + half, col + half, value)


class OperatorDD:
    """An ``n``-qubit quantum operation stored as a matrix decision diagram.

    Attributes:
        edge: The root edge of the diagram.
        num_qubits: Number of qubits (diagram levels).
        package: The owning :class:`repro.dd.package.Package`.
    """

    __slots__ = ("edge", "num_qubits", "package")

    def __init__(self, edge: MEdge, num_qubits: int, package: Package):
        self.edge = edge
        self.num_qubits = num_qubits
        self.package = package

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def identity(
        cls, num_qubits: int, package: Package | None = None
    ) -> "OperatorDD":
        """Return the identity operator on ``num_qubits`` qubits."""
        pkg = package or default_package()
        return cls(pkg.identity(num_qubits), num_qubits, pkg)

    @classmethod
    def from_matrix(
        cls,
        matrix: Sequence[Sequence[complex]] | np.ndarray,
        package: Package | None = None,
    ) -> "OperatorDD":
        """Build an operator diagram from a dense ``2**n x 2**n`` matrix."""
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        size = mat.shape[0]
        if size < 2 or size & (size - 1):
            raise ValueError("matrix dimension must be a power of two >= 2")
        num_qubits = size.bit_length() - 1
        pkg = package or default_package()
        edge = _medge_from_matrix(mat, num_qubits - 1, pkg)
        return cls(edge, num_qubits, pkg)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Materialize the dense matrix (``O(4**n)``; small ``n`` only)."""
        size = 1 << self.num_qubits
        out = np.zeros((size, size), dtype=complex)
        _fill_matrix(out, self.edge, self.num_qubits - 1, 0, 0, complex(1.0))
        return out

    def element(self, row: int, col: int) -> complex:
        """Return matrix element ``(row, col)`` by path traversal."""
        size = 1 << self.num_qubits
        if not (0 <= row < size and 0 <= col < size):
            raise ValueError("matrix index out of range")
        weight, node = self.edge
        for level in range(self.num_qubits - 1, -1, -1):
            if weight == 0.0:
                return complex(0.0)
            selector = ((row >> level) & 1) * 2 + ((col >> level) & 1)
            weight_k, node = node.edges[selector]
            weight *= weight_k
        return weight

    def node_count(self) -> int:
        """Return the number of (non-terminal) nodes in the diagram."""
        _weight, root = self.edge
        if root is None:
            return 0
        seen: set[int] = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            for _w, child in node.edges:
                if child is not None and id(child) not in seen:
                    stack.append(child)
        return len(seen)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def apply(self, state: StateDD) -> StateDD:
        """Apply this operator to a state (matrix–vector multiplication)."""
        if state.num_qubits != self.num_qubits:
            raise ValueError(
                f"qubit-count mismatch: operator {self.num_qubits}, "
                f"state {state.num_qubits}"
            )
        if state.package is not self.package:
            raise ValueError("operator and state belong to different packages")
        edge = self.package.multiply_mv(
            self.edge, state.edge, self.num_qubits - 1
        )
        return StateDD(edge, self.num_qubits, self.package)

    def compose(self, other: "OperatorDD") -> "OperatorDD":
        """Return ``self @ other`` — apply ``other`` first, then ``self``."""
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit-count mismatch in composition")
        if other.package is not self.package:
            raise ValueError("operators belong to different packages")
        edge = self.package.multiply_mm(
            self.edge, other.edge, self.num_qubits - 1
        )
        return OperatorDD(edge, self.num_qubits, self.package)

    def dagger(self) -> "OperatorDD":
        """Return the conjugate transpose of this operator."""
        edge = self.package.conjugate_transpose(self.edge, self.num_qubits - 1)
        return OperatorDD(edge, self.num_qubits, self.package)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OperatorDD(num_qubits={self.num_qubits}, "
            f"nodes={self.node_count()})"
        )
