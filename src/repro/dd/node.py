"""Decision-diagram node types.

Quantum states are represented by binary decision diagrams over amplitude
vectors: each :class:`VNode` at level ``l`` has two outgoing edges selecting
the value of qubit ``l`` (edge 0 for :math:`|0\\rangle`, edge 1 for
:math:`|1\\rangle`).  Quantum operations are represented by :class:`MNode`
with four outgoing edges addressing the quadrants of the matrix in row-major
order (``row bit * 2 + column bit``).

Edges are plain ``(weight, node)`` tuples, where ``weight`` is a complex
number and ``node`` is either a child node or ``None`` — the shared terminal.
The amplitude of a basis state is the product of edge weights along the
corresponding root-to-terminal path (see Fig. 1 of the paper).

Levels are numbered from the bottom: qubit 0 (the least-significant bit of a
basis-state index) lives at level 0, and the root of an ``n``-qubit diagram
sits at level ``n - 1``.  Every path from root to terminal visits all levels;
edges with weight zero point directly at the terminal and act as annihilators
in all arithmetic.

Nodes are *hash-consed*: they are only ever created through a
:class:`repro.dd.package.Package`, which guarantees that structurally equal
nodes are the same Python object.  Node equality is therefore identity, and
the default ``object`` hash applies.
"""

from __future__ import annotations


#: Type alias for edges: a complex weight paired with a child node
#: (``None`` denotes the shared terminal).
VEdge = tuple[complex, "VNode | None"]
MEdge = tuple[complex, "MNode | None"]

#: The canonical zero edge shared by vector and matrix diagrams.
ZERO_WEIGHT = complex(0.0, 0.0)


class VNode:
    """A vector decision-diagram node (one qubit decision).

    Attributes:
        level: The qubit index this node decides (0 = least significant).
        edges: ``(edge0, edge1)`` — successors for qubit values 0 and 1.
            Under the norm-preserving normalization enforced by the package,
            ``|w0|**2 + |w1|**2 == 1`` and the first nonzero weight is real
            and positive.
    """

    __slots__ = ("level", "edges", "index", "__weakref__")

    def __init__(self, level: int, edges: tuple[VEdge, VEdge]):
        self.level = level
        self.edges = edges
        # Arena slot id; always -1 here: the arena backend's vector
        # nodes are its own read-only ``ArenaVNode`` type.
        self.index = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        (w0, n0), (w1, n1) = self.edges
        return (
            f"VNode(q{self.level}, "
            f"0:{w0:.4g}->{'T' if n0 is None else f'q{n0.level}'}, "
            f"1:{w1:.4g}->{'T' if n1 is None else f'q{n1.level}'})"
        )


class MNode:
    """A matrix decision-diagram node (one qubit of rows and columns).

    Attributes:
        level: The qubit index this node decides.
        edges: ``(e00, e01, e10, e11)`` — the four matrix quadrants in
            row-major order, i.e. ``edges[row_bit * 2 + column_bit]``.
            Under the package normalization, the largest-magnitude weight
            equals 1 (ties broken towards the lowest index).
    """

    __slots__ = ("level", "edges", "index", "__weakref__")

    def __init__(self, level: int, edges: tuple[MEdge, MEdge, MEdge, MEdge]):
        self.level = level
        self.edges = edges
        # Arena slot id; -1 outside an arena backend (see VNode.index).
        self.index = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{idx}:{w:.4g}" for idx, (w, _child) in enumerate(self.edges)
        )
        return f"MNode(q{self.level}, {parts})"


def is_terminal(node: VNode | MNode | None) -> bool:
    """Return True for the shared terminal (represented by ``None``)."""
    return node is None


def zero_vedge() -> VEdge:
    """Return the canonical zero vector edge."""
    return (ZERO_WEIGHT, None)


def zero_medge() -> MEdge:
    """Return the canonical zero matrix edge."""
    return (ZERO_WEIGHT, None)
