"""The :class:`DDBackend` interface: everything an engine must provide.

A backend owns the *unique tables* that hash-cons vector and matrix
nodes, the *compute caches* that memoize DD arithmetic, and the sweep
primitives (:meth:`DDBackend.node_count`, :meth:`DDBackend.vnodes`,
:meth:`DDBackend.norm_contributions`) that the simulator, the
approximation strategies, and the analysis tooling build on.  The
:class:`repro.dd.package.Package` facade delegates every operation to a
backend, so ``core.simulator``, ``core.strategies``, ``dd.vector``, and
``dd.matrix`` run unchanged on any implementation.

Two implementations ship with the repo (see docs/BACKENDS.md):

* :class:`repro.dd.backends.reference.ReferenceBackend` — the original
  hash-consed object engine (weak-reference unique tables, tuple keys).
* :class:`repro.dd.backends.arena.ArenaBackend` — nodes addressed by
  dense integer ids, with its tables, caches and arithmetic in a C
  extension.

The **semantic contract** between backends is strict: for the same
sequence of calls both must produce states with equal amplitudes within
:func:`repro.dd.ctable.tolerance`, equal node counts, and identical
Lemma-1 fidelity accounting (``tests/backends`` pins this
differentially).  Normalization formulas, tolerance bucketing, snap
targets, and cache-flush policy are therefore part of this interface,
not an implementation detail — see the method docstrings.

Serialization goes through two entries with one byte-level contract:
:meth:`DDBackend.state_table` writes the packed node table of
:mod:`repro.dd.serialize`, and :meth:`DDBackend.intern_state_table`
checks one and interns its nodes verbatim, so states round-trip across
backends bit for bit.
"""

from __future__ import annotations

import math
import operator
import struct
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Hashable, Mapping, Sequence

from .. import ctable
from ..node import MEdge, MNode, VEdge, VNode, zero_medge, zero_vedge

if TYPE_CHECKING:
    from ...obs import Recorder

#: Default upper bound on compute-cache entries before a cache is flushed.
DEFAULT_CACHE_LIMIT = 1 << 19

#: Names of the compute caches, as reported by :meth:`DDBackend.cache_stats`.
CACHE_NAMES = ("vadd", "madd", "mv", "mm", "inner")

#: Slack on the removal budget of :meth:`DDBackend.approximate_round`: an
#: exact-boundary removal (budget 0.2 against a contribution of 0.2) is
#: not rejected by floating-point rounding.
ROUND_SLACK = 1e-12

#: Highest level of :meth:`DDBackend.permutation_block`: its ``2 ** 62``
#: rows are more than any list holds.
MAX_PERMUTATION_LEVEL = 61

#: The factor at a control: the projector onto |1>, row-major.
_PROJ_ONE = (complex(0.0), complex(0.0), complex(0.0), complex(1.0))


class DDBackend(ABC):
    """Abstract decision-diagram engine.

    Subclasses must populate, in ``__init__`` after calling ``super()``:

    * ``_vtable`` / ``_mtable`` — the unique tables (anything with
      ``len`` and ``items()``; key layout is backend-private).
    * ``_compute_caches`` — mapping from :data:`CACHE_NAMES` entries to
      the backing caches (anything with ``len`` and ``clear``), used by
      the shared cache plumbing.

    Args:
        cache_limit: Maximum number of entries per compute cache.  When
            a cache exceeds this bound it is flushed wholesale (the
            classic DD-package strategy; correctness is unaffected).
    """

    #: Registry name of the backend (``"reference"``, ``"arena"``).
    name = "abstract"

    _vtable: Mapping[Any, VNode]
    _mtable: Mapping[Any, MNode]
    _compute_caches: dict[str, dict[Any, Any]]

    def __init__(self, cache_limit: int = DEFAULT_CACHE_LIMIT) -> None:
        self.cache_limit = cache_limit
        #: Operation counters, useful for performance diagnostics.
        self.stats: dict[str, int] = {
            "vnodes_created": 0,
            "mnodes_created": 0,
            "cache_flushes": 0,
        }
        # Observability: hit/miss counting is gated behind one boolean so
        # the uninstrumented hot path pays a single attribute check (the
        # <5% guard bench_dd_operations enforces).  Flush counting is
        # always on — flushes are rare and previously invisible.
        self._counting = False
        self._recorder: "Recorder | None" = None
        self._cache_counts: dict[str, list[int]] = {
            name: [0, 0, 0] for name in CACHE_NAMES  # [hits, misses, flushes]
        }
        self._identity_cache: dict[int, MEdge] = {}
        #: Optional memo of lowered full-register gate diagrams, consulted
        #: by :func:`repro.circuits.lowering.operation_to_medge`.  ``None``
        #: disables gate memoization (the reference backend, which must
        #: reproduce the seed's behavior exactly); backends that enable it
        #: rely on hash-consing making repeated lowerings return the
        #: identical edge, so memoization changes no computed value and
        #: inserts nothing into the compute caches.
        self.gate_cache: dict[Hashable, MEdge] | None = None

    # ------------------------------------------------------------------
    # Node construction (normalizing, hash-consing) — backend-specific
    # ------------------------------------------------------------------

    @abstractmethod
    def make_vedge(self, level: int, e0: VEdge, e1: VEdge) -> VEdge:
        """Create a normalized, hash-consed vector edge above two children.

        Contract (identical across backends, bit-for-bit): children with
        magnitude at most the tolerance are clamped to zero edges; the
        top weight is ``sqrt(|w0|² + |w1|²) · (w_first / |w_first|)``;
        child weights are divided by the top weight and snapped via
        :func:`repro.dd.ctable.snap`; interning buckets weights with
        :func:`repro.dd.ctable.weight_key` semantics.
        """

    @abstractmethod
    def make_medge(
        self, level: int, edges: tuple[MEdge, MEdge, MEdge, MEdge]
    ) -> MEdge:
        """Create a normalized, hash-consed matrix edge above four children.

        Contract: weights within tolerance of zero are clamped; the
        divisor is the largest-magnitude weight with ties (within
        tolerance) broken towards the lowest index; surviving weights
        are snapped after division.
        """

    # ------------------------------------------------------------------
    # Arithmetic — backend-specific hot paths
    # ------------------------------------------------------------------

    @abstractmethod
    def vadd(self, e1: VEdge, e2: VEdge, level: int) -> VEdge:
        """Add two state edges rooted at the same level.

        Contract: memoized on ``(n1, n2, bucket(w2/w1))`` — the ratio is
        tolerance-bucketed, so cache hits may legally differ from a
        fresh computation at tolerance level.  Both backends must key
        and flush identically so their hit/miss sequences coincide.
        """

    @abstractmethod
    def madd(self, e1: MEdge, e2: MEdge, level: int) -> MEdge:
        """Add two matrix edges rooted at the same level (vadd contract)."""

    @abstractmethod
    def multiply_mv(self, me: MEdge, ve: VEdge, level: int) -> VEdge:
        """Apply a matrix edge to a state edge (matrix–vector product).

        Contract: memoized on the exact node pair, so hits are
        bit-identical to fresh computation.
        """

    @abstractmethod
    def multiply_mm(self, ae: MEdge, be: MEdge, level: int) -> MEdge:
        """Multiply two matrix edges: result applies ``be`` first."""

    @abstractmethod
    def _inner_nodes(
        self, n1: VNode | None, n2: VNode | None, level: int
    ) -> complex:
        """Inner product of two unit sub-diagrams (first conjugated)."""

    def inner_product(self, e1: VEdge, e2: VEdge, level: int) -> complex:
        """Return :math:`\\langle e_1 | e_2 \\rangle` (first argument conjugated)."""
        w1, n1 = e1
        w2, n2 = e2
        if w1 == 0.0 or w2 == 0.0:
            return complex(0.0)
        scale = w1.conjugate() * w2
        return scale * self._inner_nodes(n1, n2, level)

    def fidelity(self, e1: VEdge, e2: VEdge, level: int) -> float:
        """Return the fidelity :math:`|\\langle e_1|e_2\\rangle|^2` (Definition 1)."""
        return abs(self.inner_product(e1, e2, level)) ** 2

    # ------------------------------------------------------------------
    # Derived constructions (cold paths, shared across backends)
    # ------------------------------------------------------------------

    def vkron(self, top: VEdge, bottom: VEdge) -> VEdge:
        """Kronecker product placing ``top`` above ``bottom``.

        The ``top`` diagram must already be built over levels strictly above
        every level of ``bottom`` (callers construct it with an offset);
        its terminal edges are spliced onto ``bottom``.
        """
        w_top, n_top = top
        if w_top == 0.0 or bottom[0] == 0.0:
            return (complex(0.0), None)
        if n_top is None:
            return (w_top * bottom[0], bottom[1])
        child0 = self.vkron(n_top.edges[0], bottom)
        child1 = self.vkron(n_top.edges[1], bottom)
        result = self.make_vedge(n_top.level, child0, child1)
        return (result[0] * w_top, result[1])

    def mkron(self, top: MEdge, bottom: MEdge) -> MEdge:
        """Kronecker product of matrix diagrams (``top`` above ``bottom``)."""
        w_top, n_top = top
        if w_top == 0.0 or bottom[0] == 0.0:
            return zero_medge()
        if n_top is None:
            return (w_top * bottom[0], bottom[1])
        children = tuple(self.mkron(edge, bottom) for edge in n_top.edges)
        result = self.make_medge(n_top.level, children)  # type: ignore[arg-type]
        return (result[0] * w_top, result[1])

    def identity(self, num_qubits: int) -> MEdge:
        """Return the identity operator diagram over ``num_qubits`` qubits."""
        if num_qubits <= 0:
            raise ValueError("identity requires at least one qubit")
        cached = self._identity_cache.get(num_qubits)
        if cached is not None:
            return cached
        edge: MEdge = (complex(1.0), None)
        for level in range(num_qubits):
            edge = self.make_medge(
                level, (edge, zero_medge(), zero_medge(), edge)
            )
            self._identity_cache[level + 1] = edge
        return edge

    # ------------------------------------------------------------------
    # Gate lowering: A + (I - P) and the permutation block
    # ------------------------------------------------------------------

    def controlled_medge(
        self,
        num_qubits: int,
        factors: Mapping[int, Sequence[complex]],
        controls: Sequence[int],
        bottom: MEdge = (complex(1.0), None),
        bottom_levels: int = 0,
    ) -> MEdge:
        """The full-register diagram ``A + (I - P)`` of one gate.

        ``A`` is the chain of ``factors`` (level to four row-major
        entries), a :math:`|1\\rangle\\langle 1|` at each control and
        identity elsewhere, above ``bottom``, a diagram over the lowest
        ``bottom_levels`` levels.  ``P`` is the same chain with identity
        in place of ``factors`` and ``bottom``.  Without controls the
        result is ``A``.  Levels run bottom up, each one
        :meth:`make_medge` call, ``A`` first, then
        ``identity(bottom_levels)``, ``P``, ``identity(num_qubits)``,
        ``madd(A, -P)`` and ``madd(A - P, I)``.  A factor entry is
        ``entry * weight`` of the edge below, or a zero edge when either
        is zero.  Every backend must make the same calls in that order,
        so node ids, ``mnodes_created`` and the madd counters agree.

        Raises:
            TypeError: When a level is not an int, ``factors`` is not a
                dict, a factor is not four complex or float numbers, or
                ``bottom`` is not a matrix edge.
            ValueError: When ``num_qubits`` is below 1, ``bottom_levels``
                is not in ``[0, num_qubits]``, a factor or control level
                is not in ``[bottom_levels, num_qubits)``, a control is
                also a factor level, or ``bottom`` is not an edge of this
                backend rooted at level ``bottom_levels - 1``.
        """
        active, projector = _gate_levels(num_qubits, factors, controls, bottom_levels)
        node = _matrix_edge(bottom)[1]
        if node is not None and not self._owns_mnode(node):
            raise ValueError("bottom is not a matrix edge of this backend")
        if (-1 if node is None else node.level) != bottom_levels - 1:
            raise ValueError(f"bottom is not rooted at level {bottom_levels - 1}")
        chain = _kron_chain(self, num_qubits, active, bottom, bottom_levels)
        if not projector:
            return chain
        identity_bottom = (
            self.identity(bottom_levels) if bottom_levels > 0 else (complex(1.0), None)
        )
        minus = _kron_chain(self, num_qubits, projector, identity_bottom, bottom_levels)
        identity_total = self.identity(num_qubits)
        top = num_qubits - 1
        result = self.madd(chain, (-minus[0], minus[1]), top)
        return self.madd(result, identity_total, top)

    def permutation_block(self, level: int, rows: Sequence[int]) -> MEdge:
        """The permutation matrix with a one at ``(rows[col], col)`` for
        every column, over levels ``level`` down to 0.

        Splits the ``(row, col)`` ones by the row and column bits of each
        level into the four quadrants, in pair order, and builds them
        depth-first, quadrant 0 to 3, one :meth:`make_medge` per
        non-empty block.  Every backend must make the same calls in that
        order.

        Raises:
            TypeError: When ``level`` or a row is not an int, or ``rows``
                is not iterable.
            ValueError: When ``level`` is not in ``[-1,
                MAX_PERMUTATION_LEVEL]`` or ``rows`` is not a permutation
                of ``range(2 ** (level + 1))``.
        """
        level = operator.index(level)
        rows = list(rows)
        if not all(isinstance(row, int) for row in rows):
            raise TypeError("rows must be ints")
        if not -1 <= level <= MAX_PERMUTATION_LEVEL:
            raise ValueError(f"permutation level {level} is out of range")
        size = 1 << (level + 1)
        if len(rows) != size or sorted(rows) != list(range(size)):
            raise ValueError(f"rows must be a permutation of range({size})")
        pairs = [(row, col) for col, row in enumerate(rows)]
        return _permutation_block(self, level, pairs)

    def _owns_mnode(self, node: MNode) -> bool:
        """Whether ``node`` is a matrix node interned by this backend."""
        raise NotImplementedError

    def conjugate_transpose(self, me: MEdge, level: int) -> MEdge:
        """Return the conjugate transpose (dagger) of a matrix edge."""
        w, n = me
        if w == 0.0:
            return zero_medge()
        if level < 0:
            return (w.conjugate(), None)
        e00, e01, e10, e11 = n.edges  # type: ignore[union-attr]
        sub = level - 1
        children = (
            self.conjugate_transpose(e00, sub),
            self.conjugate_transpose(e10, sub),
            self.conjugate_transpose(e01, sub),
            self.conjugate_transpose(e11, sub),
        )
        result = self.make_medge(level, children)
        return (result[0] * w.conjugate(), result[1])

    # ------------------------------------------------------------------
    # Whole-diagram sweeps
    # ------------------------------------------------------------------

    def node_count(self, edge: VEdge) -> int:
        """Number of distinct (non-terminal) nodes reachable from ``edge``.

        This is the paper's notion of DD *size*, reported as "Max. DD
        Size" in Table I when tracked over a simulation run.
        """
        _weight, root = edge
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

    def vnodes(self, edge: VEdge) -> list[VNode]:
        """All distinct nodes reachable from ``edge``, top-down level order.

        The within-level order (discovery order of the traversal) is part
        of the interface contract: approximation tie-breaking depends on
        it, so every backend must produce the identical sequence.
        """
        _weight, root = edge
        if root is None:
            return []
        seen: set[int] = set()
        collected: list[VNode] = []
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            collected.append(node)
            for _w, child in node.edges:
                if child is not None and id(child) not in seen:
                    stack.append(child)
        collected.sort(key=lambda n: -n.level)
        return collected

    def norm_contributions(self, edge: VEdge) -> dict[VNode, float]:
        """Norm contribution of every reachable node (Definition 2).

        Thanks to the norm-preserving normalization (every sub-diagram
        has unit norm) this is a single top-down sweep:
        ``c(root) = |w_root|²`` and
        ``c(v) = Σ_{(p,w) ∈ in-edges(v)} c(p)·|w|²``.

        The returned dict's *insertion order* (root first, then children
        in sweep-encounter order) is part of the contract — the greedy
        removal selection uses it to break ties between equal
        contributions, so all backends must reproduce it exactly.
        """
        weight, root = edge
        if root is None:
            return {}
        contributions: dict[VNode, float] = {root: abs(weight) ** 2}
        # ``vnodes`` returns distinct nodes sorted by descending level, so
        # every parent is processed before any of its children.
        for node in self.vnodes(edge):
            incoming = contributions.get(node, 0.0)
            if incoming == 0.0:
                continue
            for edge_weight, child in node.edges:
                if child is None or edge_weight == 0.0:
                    continue
                contributions[child] = (
                    contributions.get(child, 0.0)
                    + incoming * abs(edge_weight) ** 2
                )
        return contributions

    def rebuild_without(
        self, edge: VEdge, level: int, removed: set[VNode]
    ) -> VEdge:
        """Rebuild ``edge`` with every edge into a node of ``removed`` zeroed.

        The rebuild of an approximation round (§IV-A), unnormalized.
        Each surviving node is rebuilt once, child 0 before child 1,
        through :meth:`make_vedge`; that order fixes the unique table's
        contents and ``vnodes_created``, so every backend must keep it.

        Raises:
            ValueError: When ``level`` is not the root's level (see
                :func:`check_root_level`).
        """
        check_root_level(edge, level)
        return self._rebuild_without(edge, level, removed, {})

    def _rebuild_without(
        self,
        edge: VEdge,
        level: int,
        removed: set[VNode],
        memo: dict[VNode, VEdge],
    ) -> VEdge:
        weight, node = edge
        if weight == 0.0:
            return zero_vedge()
        if level < 0:
            return edge
        if node is None:
            raise TypeError("rebuild_without reached a terminal above level 0")
        if node in removed:
            return zero_vedge()
        cached = memo.get(node)  # type: ignore[arg-type]
        if cached is None:
            child0 = self._rebuild_without(
                node.edges[0], level - 1, removed, memo  # type: ignore[union-attr]
            )
            child1 = self._rebuild_without(
                node.edges[1], level - 1, removed, memo  # type: ignore[union-attr]
            )
            cached = self.make_vedge(level, child0, child1)
            memo[node] = cached  # type: ignore[index]
        return (cached[0] * weight, cached[1])

    def approximate_round(
        self, edge: VEdge, level: int, budget: float, max_removed: int
    ) -> tuple[VEdge, float, int]:
        """One node-removal round of §IV-A, unnormalized.

        Takes the :meth:`norm_contributions` of ``edge``, selects the
        nodes to remove with :func:`select_removal` (at most
        ``max_removed`` of them, within ``budget`` of contribution) and
        runs :meth:`rebuild_without`.  Returns the rebuilt edge, the
        removed contribution summed in removal order and the number of
        removed nodes; the input edge with ``(0.0, 0)`` when nothing is
        taken.  Every backend must remove the same nodes and return the
        same bits.

        Raises:
            ValueError: When ``level`` is not the root's level (see
                :func:`check_root_level`), ``budget`` is negative or NaN,
                or ``max_removed`` is negative.
            TypeError: When ``budget`` is not a real number or
                ``max_removed`` not an integer.
        """
        # In the core's order, so every mix of bad arguments raises the
        # same exception type on every backend.
        if not budget >= 0.0:
            raise ValueError(f"budget must be a non-negative number, not {budget}")
        if operator.index(max_removed) < 0:
            raise ValueError(f"max_removed must be non-negative, not {max_removed}")
        check_root_level(edge, level)
        removed, spent = select_removal(
            self.norm_contributions(edge), edge[1], budget, max_removed
        )
        if not removed:
            return edge, 0.0, 0
        return self.rebuild_without(edge, level, removed), spent, len(removed)

    # ------------------------------------------------------------------
    # Stored states: the packed node table of repro-dd-state version 2
    # ------------------------------------------------------------------

    def state_table(self, edge: VEdge) -> tuple[bytes, bytes]:
        """The packed node table of the diagram below ``edge``.

        Returns ``(ints, doubles)``: per node three little-endian int32
        (level, child 0 and child 1 positions, ``-1`` for the terminal)
        and four little-endian float64 (re and im of weight 0, then of
        weight 1), the weights' exact bits.  Nodes run in ascending
        level order, each level in :meth:`vnodes` order, so children
        precede parents and the root comes last.  Both backends must
        produce the identical bytes.
        """
        nodes = self.vnodes(edge)
        nodes.sort(key=lambda node: node.level)
        position = {id(node): index for index, node in enumerate(nodes)}
        ints: list[int] = []
        doubles: list[float] = []
        for node in nodes:
            (w0, n0), (w1, n1) = node.edges
            ints += (
                node.level,
                -1 if n0 is None else position[id(n0)],
                -1 if n1 is None else position[id(n1)],
            )
            doubles += (w0.real, w0.imag, w1.real, w1.imag)
        return (
            struct.pack(f"<{len(ints)}i", *ints),
            struct.pack(f"<{len(doubles)}d", *doubles),
        )

    def intern_state_table(
        self, num_qubits: int, ints: bytes, doubles: bytes, root: int
    ) -> VNode:
        """Check a packed node table, then intern its nodes verbatim.

        The inverse of :meth:`state_table`: every stored node is
        interned with its stored weights, in table order, with no
        renormalisation (a node already interned under the same
        unique-table key is used as it is).  Returns the node at
        position ``root``.  Nothing is interned unless every check
        passes.

        Raises:
            ValueError: When the buffers hold no whole number of nodes;
                a child position is outside ``[-1, position)`` or not
                one level below; a weight is not finite; an edge above
                level 0 is zero but not terminal or terminal but not
                zero; the first non-zero weight is not real and positive,
                or ``|w0|² + |w1|²`` is not 1, within
                :data:`~repro.dd.ctable.TOLERANCE_SLACK` tolerances; or
                the root is the terminal, unknown, or not at level
                ``num_qubits - 1``.
        """
        count = len(ints) // 12
        if len(ints) != 12 * count or len(doubles) != 32 * count:
            raise ValueError(
                f"node table buffers of {len(ints)} and {len(doubles)} "
                "bytes hold no whole number of nodes"
            )
        table = struct.unpack(f"<{3 * count}i", ints)
        weights = struct.unpack(f"<{4 * count}d", doubles)
        slack = ctable.TOLERANCE_SLACK * ctable.tolerance()
        for position in range(count):
            _check_table_node(table, weights, position, slack)
        if root == -1:
            raise ValueError("state root cannot be the terminal")
        if not 0 <= root < count:
            raise ValueError(f"root references unknown node {root}")
        if table[3 * root] != num_qubits - 1:
            raise ValueError(
                f"root level {table[3 * root]} is not num_qubits - 1 "
                f"({num_qubits - 1})"
            )
        nodes: list[VNode] = []
        for position in range(count):
            level, child0, child1 = table[3 * position : 3 * position + 3]
            re0, im0, re1, im1 = weights[4 * position : 4 * position + 4]
            nodes.append(
                self._intern_vnode(
                    level,
                    (complex(re0, im0), None if child0 < 0 else nodes[child0]),
                    (complex(re1, im1), None if child1 < 0 else nodes[child1]),
                )
            )
        return nodes[root]

    def _intern_vnode(self, level: int, e0: VEdge, e1: VEdge) -> VNode:
        """The node above normalized ``e0``/``e1``: the one the unique
        table holds under their key, else a new interned node (the tail
        of :meth:`make_vedge`).  Backends whose
        :meth:`intern_state_table` runs this body implement it."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Cache plumbing (shared)
    # ------------------------------------------------------------------

    def _checked_insert(
        self, cache: dict[Any, Any], key: Hashable, value: Any, name: str
    ) -> None:
        if len(cache) >= self.cache_limit:
            entries = len(cache)
            cache.clear()
            self._cache_flushed(name, entries)
        cache[key] = value

    def _cache_flushed(self, name: str, entries: int) -> None:
        """Account for a wholesale flush of cache ``name`` (``entries`` long).

        Called right after the flush and before the insert that caused
        it; the arena's C core calls it too.
        """
        self.stats["cache_flushes"] += 1
        self._cache_counts[name][2] += 1
        recorder = self._recorder
        if recorder is not None and recorder.enabled:
            recorder.count(f"dd.cache.{name}.flush")
            recorder.event(
                "cache_flush",
                cache=name,
                entries=entries,
                limit=self.cache_limit,
            )

    def clear_caches(self) -> None:
        """Flush all compute caches (unique tables are left intact)."""
        for cache in self._compute_caches.values():
            cache.clear()
        if self.gate_cache is not None:
            self.gate_cache.clear()

    def unique_table_sizes(self) -> dict[str, int]:
        """Return the current live-node counts of both unique tables."""
        return {"vector": len(self._vtable), "matrix": len(self._mtable)}

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def enable_metrics(self, enabled: bool = True) -> None:
        """Turn per-cache hit/miss counting on or off.

        Off by default: counting costs one guarded increment per cache
        lookup, which the micro-benchmarks must not pay silently.
        """
        self._counting = enabled

    def attach_recorder(self, recorder: "Recorder | None") -> None:
        """Attach a :class:`repro.obs.Recorder` and enable counting.

        The recorder receives ``cache_flush`` trace events and
        ``dd.cache.<name>.flush`` counters; hit/miss tallies stay in the
        backend (read them via :meth:`cache_stats`) so the hot path never
        constructs event objects.  Passing None detaches (counting stays
        at its current setting).
        """
        self._recorder = recorder
        if recorder is not None:
            self._counting = True

    def _cache_sizes(self) -> dict[str, int]:
        return {
            name: len(cache) for name, cache in self._compute_caches.items()
        }

    def cache_stats(self) -> dict[str, Any]:
        """Per-compute-cache statistics document.

        Returns a dict keyed by cache name (:data:`CACHE_NAMES`), each
        value holding ``hits`` / ``misses`` / ``flushes`` / ``size`` /
        ``hit_rate``, plus a ``counting`` flag recording whether hit/miss
        tallies were being collected (flush counts are always live) and
        the ``backend`` name.
        """
        sizes = self._cache_sizes()
        caches = {}
        for name in CACHE_NAMES:
            hits, misses, flushes = self._cache_counts[name]
            lookups = hits + misses
            caches[name] = {
                "hits": hits,
                "misses": misses,
                "flushes": flushes,
                "size": sizes[name],
                "hit_rate": hits / lookups if lookups else 0.0,
            }
        return {
            "counting": self._counting,
            "backend": self.name,
            "caches": caches,
        }

    # ------------------------------------------------------------------
    # Integrity auditing (DDSan)
    # ------------------------------------------------------------------

    @abstractmethod
    def integrity_problems(self, check_caches: bool = True) -> list[str]:
        """Audit the backend's storage; return human-readable findings.

        The storage-level companion of
        :func:`repro.dd.validate.collect_violations`: unique-table
        entries must resolve back to the node that produced their key
        (a mismatch is the signature of a node mutated after interning),
        no two entries may recompute to the same key (a hash-consing
        failure), and — when ``check_caches`` is set — cached result
        edges must reference canonical (interned) nodes.  Backends with
        additional storage (the arena's id-indexed node lists) audit it
        here too.  DDSan (:mod:`repro.analysis.ddsan`) calls this after every
        instrumented operation.
        """


def check_root_level(edge: VEdge, level: int) -> None:
    """Raise ValueError unless ``level`` is the level of ``edge``'s root
    node; a terminal edge has no level to check.

    :meth:`DDBackend.rebuild_without` and
    :meth:`DDBackend.approximate_round` run this check before any work.
    """
    node = edge[1]
    if node is not None and node.level != level:
        raise ValueError(f"level {level} is not the root's level {node.level}")


def select_removal(
    contributions: dict[VNode, float],
    root: VNode | None,
    budget: float,
    max_removed: int,
) -> tuple[set[VNode], float]:
    """The node selection of one removal round.

    Takes every node of ``contributions`` but ``root`` in ascending
    contribution order, ties broken by position in the dict's insertion
    order (the sweep).  Stops at the first node that would take the
    running sum past ``budget`` (plus :data:`ROUND_SLACK`), or once
    ``max_removed`` nodes are taken.  Returns the removal set and its
    contribution, summed in removal order.
    """
    order = sorted(
        (value, index, node)
        for index, (node, value) in enumerate(contributions.items())
        if node is not root
    )
    limit = budget + ROUND_SLACK
    removed: set[VNode] = set()
    spent = 0.0
    # Indices are unique, so the sort never compares two nodes.
    for value, _index, node in order[:max_removed]:
        if spent + value > limit:
            break
        removed.add(node)
        spent += value
    return removed, spent


def _gate_levels(
    num_qubits: int,
    factors: Mapping[int, Sequence[complex]],
    controls: Sequence[int],
    bottom_levels: int,
) -> tuple[dict[int, tuple[complex, ...]], dict[int, tuple[complex, ...]]]:
    """The checked factor levels of :meth:`DDBackend.controlled_medge`:
    ``A``'s (factors and controls) and ``P``'s (controls only)."""
    num_qubits = operator.index(num_qubits)
    bottom_levels = operator.index(bottom_levels)
    if num_qubits < 1:
        raise ValueError("a gate needs at least one qubit")
    if not 0 <= bottom_levels <= num_qubits:
        raise ValueError(f"bottom_levels {bottom_levels} is out of range")
    if not isinstance(factors, dict):
        raise TypeError(f"factors must be a dict, not {type(factors).__name__}")
    active: dict[int, tuple[complex, ...]] = {}
    for level, factor in factors.items():
        level = operator.index(level)
        if not bottom_levels <= level < num_qubits:
            raise ValueError(f"factor level {level} is out of range")
        entries = tuple(factor)
        if len(entries) != 4 or not all(
            isinstance(entry, (complex, float)) for entry in entries
        ):
            raise TypeError("a factor must be four complex numbers")
        active[level] = entries
    projector: dict[int, tuple[complex, ...]] = {}
    for level in controls:
        level = operator.index(level)
        if not bottom_levels <= level < num_qubits:
            raise ValueError(f"control level {level} is out of range")
        if level in active:
            raise ValueError(f"level {level} cannot be both target and control")
        projector[level] = _PROJ_ONE
    active.update(projector)
    return active, projector


def _matrix_edge(edge: Any) -> MEdge:
    """``edge``, checked to be a ``(weight, MNode or None)`` tuple."""
    if not (
        isinstance(edge, tuple)
        and len(edge) == 2
        and isinstance(edge[0], (complex, float))
        and (edge[1] is None or type(edge[1]) is MNode)
    ):
        raise TypeError("a matrix edge must be a (weight, MNode or None) tuple")
    return edge  # type: ignore[return-value]


def _kron_chain(
    backend: DDBackend,
    num_qubits: int,
    factors: dict[int, tuple[complex, ...]],
    bottom: MEdge,
    bottom_levels: int,
) -> MEdge:
    """``(⊗ factors) ⊗ bottom``, identity at the levels without a factor."""
    edge = bottom
    for level in range(bottom_levels, num_qubits):
        factor = factors.get(level)
        if factor is None:
            edge = backend.make_medge(level, (edge, zero_medge(), zero_medge(), edge))
            continue
        weight, node = edge
        # Row-major, as the quadrants of a matrix node.
        children = tuple(
            zero_medge() if entry == 0.0 or weight == 0.0 else (entry * weight, node)
            for entry in factor
        )
        edge = backend.make_medge(level, children)  # type: ignore[arg-type]
    return edge


def _permutation_block(
    backend: DDBackend, level: int, pairs: list[tuple[int, int]]
) -> MEdge:
    """Diagram of the ``(row, col)`` ones below ``level``."""
    if not pairs:
        return zero_medge()
    if level < 0:
        return (complex(1.0), None)
    groups: tuple[list[tuple[int, int]], ...] = ([], [], [], [])
    for row, col in pairs:
        selector = ((row >> level) & 1) * 2 + ((col >> level) & 1)
        groups[selector].append((row, col))
    children = tuple(_permutation_block(backend, level - 1, group) for group in groups)
    return backend.make_medge(level, children)  # type: ignore[arg-type]


def _check_table_node(
    table: tuple[int, ...],
    weights: tuple[float, ...],
    position: int,
    slack: float,
) -> None:
    """The checks :meth:`DDBackend.intern_state_table` runs on one node."""
    level = table[3 * position]
    if level < 0:
        raise ValueError(f"node {position} has negative level {level}")
    edges = []
    for k in range(2):
        child = table[3 * position + 1 + k]
        weight = complex(*weights[4 * position + 2 * k : 4 * position + 2 * k + 2])
        if not -1 <= child < position:
            raise ValueError(
                f"node {position} references forward/unknown child {child}"
            )
        if not (math.isfinite(weight.real) and math.isfinite(weight.imag)):
            raise ValueError(f"node {position} has a non-finite weight")
        if child >= 0 and table[3 * child] != level - 1:
            raise ValueError(
                f"node {position} at level {level} references child "
                f"{child} at level {table[3 * child]}"
            )
        if child >= 0 and weight == 0:
            raise ValueError(f"node {position} has a zero edge into node {child}")
        if child < 0 and level > 0 and weight != 0:
            raise ValueError(
                f"node {position} at level {level} has a non-zero edge "
                "into the terminal"
            )
        edges.append(weight)
    w0, w1 = edges
    first = w1 if w0 == 0 else w0
    if not first.real > 0.0 or abs(first.imag) > slack:
        raise ValueError(
            f"node {position}'s first non-zero weight is not real and "
            "positive"
        )
    norm = (w0.real * w0.real + w0.imag * w0.imag) + (
        w1.real * w1.real + w1.imag * w1.imag
    )
    if abs(norm - 1.0) > slack:
        raise ValueError(f"node {position} is not normalized")
