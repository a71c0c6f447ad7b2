"""The arena backend: integer-id node storage with a native core.

Same semantics as the reference backend, different storage.  Every node
is assigned a dense integer id (``node.index``): its slot in the arena's
node list (appended at interning, compacted by a reclaim).  The hot data
structures are built around those ids and live in the C extension
``_arena_core.c`` (built on first use by :mod:`.native`), held by one
state object, ``_state``:

* **Unique tables** (``_vtable``, ``_mtable``) are open-addressing hash
  tables whose entries hold the key inline: the level, the weight
  buckets of :func:`repro.dd.ctable.weight_key` (``round(component *
  inv_tolerance)``, kept as integral doubles) and the child node
  pointers, hashed and compared by identity, so a reclaim's renumbering
  leaves the keys valid.
* **Compute caches** are tables of the same kind keyed on node ids:
  vadd/madd on ``(id1, id2)`` plus the two ratio buckets, mv/mm/inner
  on ``(id1, id2)``; wholesale-flushed exactly like the reference
  caches.

Python sees each table only through ``len``, ``clear`` and ``items()``,
which rebuilds the key tuples the pure-Python engine used to store
(``(level, re, im, child, ...)``, ``(id1, id2, re, im)``, ``(id1, id2)``),
so the DDSan audit, :meth:`~DDBackend.cache_stats`,
:meth:`~DDBackend.clear_caches` and :meth:`~DDBackend.unique_table_sizes`
read them unchanged.  Key equality is the tuples' equality, so hit/miss
sequences, node counts and results are those of the dict engine.

**The arithmetic is native.**  ``make_vedge``, ``vadd``, the
``multiply_mv`` recursion, the inner product, the node-removal round
every approximation policy runs (``approximate_round``: contributions,
selection and rebuild), the sweeps ``node_count``, ``vnodes`` and
``norm_contributions``, the stored-state entries ``state_table`` and
``intern_state_table``, on the matrix side ``make_medge``, ``madd`` and
the ``multiply_mm`` recursion, gate lowering (``controlled_medge`` and
``permutation_block``), and the reclaim run in the core; the methods
here are thin calls into it.  ``rebuild_without`` of a given removal
set is the base body.  Every complex operation in the core calls
CPython's own complex arithmetic, so results are
*bit-for-bit identical* to the reference backend and cache keys bucket
identically, making hit/miss sequences coincide.  See docs/BACKENDS.md.

**The record.**  ``_v_record`` is a bytearray with one 48-byte entry per
``_v_nodes`` slot: the node's level and its two children's ids as
native int32 (``-1`` for the terminal, ``-2`` for a child that is not a
slot of this arena), a zero pad, and the two edge weights as native
complex doubles, bit for bit as interned.  The core appends an entry
whenever it interns a node and renumbers it with the node list at a
reclaim.  The sweeps and the recursions read these entries instead of
node objects.  A sweep that meets a foreign child gets ``None`` from the
core and runs the generic traversal.

**A vector node is its record.**  Each ``_v_nodes`` slot holds one
``ArenaVNode`` (a C type of the core): its slot, the record and its two
children, nothing else.  ``level``, ``index`` and ``edges`` are
read-only; ``edges`` builds the ``(weight, child)`` tuples from the
record on each access, with the children's own node objects, so
identity stays the equality rule.  A node holds its children and its
record but never the arena's tables, so ownership stays acyclic and a
dropped package is freed by reference counting alone; a node kept past
its package still reads its level and edges.  Hand-built
:class:`~repro.dd.node.VNode` objects (and the reference engine's) keep
the object path.  Matrix nodes are :class:`~repro.dd.node.MNode`
objects, so every consumer that traverses ``.edges`` / ``.level``
(simulator, strategies, serialization, DDSan) works unchanged.

**Reclaim at cache flushes.**  ``_v_nodes`` / ``_m_nodes`` hold strong
references, so between reclaims the arena keeps nodes the reference
engine's weak unique tables would already have dropped (harmless: a
retained node is only ever re-interned with identical contents).  In
practice the reference frees almost nothing between flushes either,
because its compute caches pin every node they name.  A cache flush
only *marks* a reclaim as pending -- the recursion that triggered it
still holds raw ids in its in-flight cache keys -- and
:meth:`ArenaBackend._reclaim` runs at the next safe point: entry to the
public :meth:`ArenaBackend.multiply_mv` (the core's recursion never
re-enters it) and :meth:`ArenaBackend.clear_caches`.  It keeps exactly
the nodes the reference would still hold -- those referenced from Python
(caller states, cache values, ``gate_cache``, the identity cache) or
named by a surviving compute-cache key -- and renumbers the survivors
densely in their old order.
"""

from __future__ import annotations

import struct
from typing import Any, Mapping, Sequence

from .. import ctable
from ..node import MEdge, MNode, VEdge, VNode
from . import native
from .base import DEFAULT_CACHE_LIMIT, DDBackend

#: The C core (None when it could not be built; construction then raises).
_core: Any = native.load()[0]

#: One ``_v_record`` entry: level, child ids, pad, then re and im of
#: both edge weights, in native byte order.
_RECORD = struct.Struct("4i4d")


class ArenaBackend(DDBackend):
    """Integer-id arena engine with vectorized sweeps."""

    name = "arena"

    def __init__(self, cache_limit: int = DEFAULT_CACHE_LIMIT) -> None:
        native.require()
        # Node arenas: slot ``i`` holds the node whose ``index`` is ``i``.
        self._v_nodes: list[VNode] = []
        self._m_nodes: list[MNode] = []
        # Per-slot (level, child0 id, child1 id) of ``_v_nodes``, int32
        # each; owned by the C core (see the module docstring).
        self._v_record = bytearray()
        # The core's state: the lists above, the seven hash tables, the
        # cache limit and the counting flag.  It exists before the base
        # initializer sets the last two through the properties below.
        self._state = _core.State(self._v_nodes, self._v_record, self._m_nodes)
        super().__init__(cache_limit)
        # node_count memo keyed by root id.  Safe because diagrams are
        # immutable after interning and an id names one node until the
        # next reclaim, which renumbers and so clears the memo; the
        # simulator asks for the same root's count more than once per
        # gate (stats tracking plus strategy hooks).
        self._vcount_cache: dict[int, int] = {}
        # Set by a cache flush; the reclaim runs at the next safe point.
        self._reclaim_pending = False
        state = self._state
        self._vtable = state.vtable
        self._mtable = state.mtable
        self._vadd_cache = state.vadd
        self._madd_cache = state.madd
        self._mv_cache = state.mv
        self._mm_cache = state.mm
        self._inner_cache = state.inner
        self._compute_caches = {
            "vadd": self._vadd_cache,
            "madd": self._madd_cache,
            "mv": self._mv_cache,
            "mm": self._mm_cache,
            "inner": self._inner_cache,
        }
        # Lowered-gate memo (see DDBackend.gate_cache): safe here because
        # hash-consing makes a repeated lowering return the identical
        # edge, so a hit changes no computed value and no cache contents.
        self.gate_cache: dict[Any, MEdge] = {}

    # The core reads both on every top-level call from the state.

    @property
    def cache_limit(self) -> int:
        """Entries per compute cache before it is flushed."""
        return int(self._state.cache_limit)

    @cache_limit.setter
    def cache_limit(self, value: int) -> None:
        self._state.cache_limit = value

    @property
    def _counting(self) -> bool:
        return bool(self._state.counting)

    @_counting.setter
    def _counting(self, value: bool) -> None:
        self._state.counting = bool(value)

    # ------------------------------------------------------------------
    # Node construction (normalizing, hash-consing)
    # ------------------------------------------------------------------

    def make_vedge(self, level: int, e0: VEdge, e1: VEdge) -> VEdge:
        """Create a normalized, hash-consed vector edge above two children."""
        return _core.make_vedge(self, level, e0, e1)

    def make_medge(
        self, level: int, edges: tuple[MEdge, MEdge, MEdge, MEdge]
    ) -> MEdge:
        """Create a normalized, hash-consed matrix edge above four children."""
        return _core.make_medge(self, level, edges)

    def _owns_mnode(self, node: MNode) -> bool:
        index = node.index
        nodes = self._m_nodes
        return 0 <= index < len(nodes) and nodes[index] is node

    # ------------------------------------------------------------------
    # Vector arithmetic
    # ------------------------------------------------------------------

    def vadd(self, e1: VEdge, e2: VEdge, level: int) -> VEdge:
        """Add two state edges rooted at the same level."""
        return _core.vadd(self, e1, e2, level)

    def multiply_mv(self, me: MEdge, ve: VEdge, level: int) -> VEdge:
        """Apply a matrix edge to a state edge (matrix–vector product).

        This entry is never reached from inside a recursion, which makes
        it the safe point for a reclaim left pending by a cache flush.
        """
        if self._reclaim_pending:
            self._reclaim()
        return _core.multiply_mv(self, me, ve, level)

    def _inner_nodes(
        self, n1: VNode | None, n2: VNode | None, level: int
    ) -> complex:
        return _core.inner_nodes(self, n1, n2, level)

    # ------------------------------------------------------------------
    # Matrix arithmetic
    # ------------------------------------------------------------------

    def madd(self, e1: MEdge, e2: MEdge, level: int) -> MEdge:
        """Add two matrix edges rooted at the same level."""
        return _core.madd(self, e1, e2, level)

    def multiply_mm(self, ae: MEdge, be: MEdge, level: int) -> MEdge:
        """Multiply two matrix edges: result applies ``be`` first, ``ae`` second."""
        return _core.multiply_mm(self, ae, be, level)

    # ------------------------------------------------------------------
    # Gate lowering (see the base for the call-order contract)
    # ------------------------------------------------------------------

    def controlled_medge(
        self,
        num_qubits: int,
        factors: Mapping[int, Sequence[complex]],
        controls: Sequence[int],
        bottom: MEdge = (complex(1.0), None),
        bottom_levels: int = 0,
    ) -> MEdge:
        """The base's ``A + (I - P)`` in the core: same checks, same calls."""
        return _core.controlled_medge(
            self, num_qubits, factors, controls, bottom, bottom_levels
        )

    def permutation_block(self, level: int, rows: Sequence[int]) -> MEdge:
        """The base's permutation block in the core: same checks, same calls."""
        return _core.permutation_block(self, level, rows)

    # ------------------------------------------------------------------
    # Reclaim (see the module docstring for the safe-point rule)
    # ------------------------------------------------------------------

    def _cache_flushed(self, name: str, entries: int) -> None:
        # The flush unpinned nodes, but the recursion above still holds
        # raw ids: reclaim at the next safe point, not here.
        self._reclaim_pending = True
        super()._cache_flushed(name, entries)

    def clear_caches(self) -> None:
        """Flush all compute caches, then reclaim what they pinned."""
        super().clear_caches()
        self._reclaim()

    def _reclaim(self) -> None:
        """Drop the nodes the reference engine would have freed; renumber.

        The core keeps the nodes referenced from outside the arena and
        those a compute-cache key names, frees the rest, compacts the
        node lists and the record in place (survivors keep their order,
        so children still precede parents) and renames the cache keys.
        The ``node_count`` memo is keyed by old ids and is dropped.
        """
        self._reclaim_pending = False
        self._state.reclaim()
        self._vcount_cache.clear()

    # ------------------------------------------------------------------
    # Whole-diagram sweeps
    # ------------------------------------------------------------------

    # The core walks the record.  It returns None when the diagram holds a
    # node that is not a live slot of this arena (hand-built, or another
    # package's), or a root whose edges no longer match its record entry;
    # the generic traversal of DDBackend handles those.

    def node_count(self, edge: VEdge) -> int:
        """Reachable-node count, walked and memoized by the C core."""
        count = _core.node_count(self, edge)
        return super().node_count(edge) if count is None else count

    def vnodes(self, edge: VEdge) -> list[VNode]:
        """Reachable nodes in the interface-contract order (see the base).

        The core replicates the base traversal exactly (mark-on-pop,
        push-if-unmarked, stable sort by descending level), so the
        within-level order — and therefore approximation tie-breaking —
        is identical across backends.
        """
        nodes = _core.vnodes(self, edge)
        return super().vnodes(edge) if nodes is None else nodes

    def norm_contributions(self, edge: VEdge) -> dict[VNode, float]:
        """Norm contributions (see the base): same dict, same order, same bits."""
        contributions = _core.norm_contributions(self, edge)
        if contributions is None:
            return super().norm_contributions(edge)
        return contributions

    def approximate_round(
        self, edge: VEdge, level: int, budget: float, max_removed: int
    ) -> tuple[VEdge, float, int]:
        """The base round in the C core: contributions, selection and
        rebuild over the record, with the same removals and bits."""
        result = _core.approximate_round(self, edge, level, budget, max_removed)
        if result is None:
            return super().approximate_round(edge, level, budget, max_removed)
        return result

    # ------------------------------------------------------------------
    # Stored states (see the base for the packed node table)
    # ------------------------------------------------------------------

    def state_table(self, edge: VEdge) -> tuple[bytes, bytes]:
        """The packed node table, written by the core in one record walk."""
        table = _core.state_table(self, edge)
        return super().state_table(edge) if table is None else table

    def intern_state_table(
        self, num_qubits: int, ints: bytes, doubles: bytes, root: int
    ) -> VNode:
        """The base's checks and verbatim interning, in the core."""
        return _core.intern_state_table(
            self,
            num_qubits,
            ints,
            doubles,
            root,
            ctable.TOLERANCE_SLACK * ctable.tolerance(),
        )

    # ------------------------------------------------------------------
    # Integrity auditing (DDSan)
    # ------------------------------------------------------------------

    def _vnode_table_key(self, node: VNode) -> tuple[Any, ...]:
        inv = ctable._inv_tolerance
        (w0, n0), (w1, n1) = node.edges
        return (
            node.level,
            round(w0.real * inv),
            round(w0.imag * inv),
            n0,
            round(w1.real * inv),
            round(w1.imag * inv),
            n1,
        )

    def _mnode_table_key(self, node: MNode) -> tuple[Any, ...]:
        inv = ctable._inv_tolerance
        key: list[Any] = [node.level]
        for w, n in node.edges:
            key.append(round(w.real * inv))
            key.append(round(w.imag * inv))
            key.append(n)
        return tuple(key)

    def _record_entry(self, node: VNode) -> tuple[int, int, int]:
        """The record entry ``node`` should have: level and child ids."""
        (_w0, child0), (_w1, child1) = node.edges
        return (node.level, self._record_id(child0), self._record_id(child1))

    def _record_id(self, child: VNode | None) -> int:
        if child is None:
            return -1
        index = child.index
        nodes = self._v_nodes
        return index if 0 <= index < len(nodes) and nodes[index] is child else -2

    def _record_problems(self) -> list[str]:
        record = bytes(self._v_record)
        nodes = self._v_nodes
        if len(record) != _RECORD.size * len(nodes):
            return [
                f"vector arena record holds {len(record) / _RECORD.size:g} entries "
                f"for {len(nodes)} nodes"
            ]
        inv = ctable._inv_tolerance
        keys = {id(node): key for key, node in self._vtable.items()}
        problems = []
        for index, entry in enumerate(_RECORD.iter_unpack(record)):
            node = nodes[index]
            stored = entry[:3]
            expected = self._record_entry(node)
            if stored != expected:
                problems.append(
                    f"vector arena record slot {index} reads {stored}, "
                    f"its node is {expected} (level, child ids)"
                )
            key = keys.get(id(node))
            buckets = tuple(round(part * inv) for part in entry[4:])
            if key is not None and buckets != key[1:3] + key[4:6]:
                problems.append(
                    f"vector arena record slot {index} holds weights "
                    "outside its unique-table key buckets"
                )
        return problems

    def integrity_problems(self, check_caches: bool = True) -> list[str]:
        """Audit the node arenas, unique tables, and compute caches.

        Beyond the reference checks (stale/duplicate table entries,
        non-canonical cached nodes), the arena verifies that every
        node's ``index`` round-trips through ``_v_nodes`` / ``_m_nodes``
        and that every record entry matches its node's level and edges.
        """
        problems: list[str] = []
        for kind, nodes in (("vector", self._v_nodes), ("matrix", self._m_nodes)):
            for index, node in enumerate(nodes):
                if node.index != index:
                    problems.append(
                        f"{kind} arena slot {index} holds a node whose "
                        f"index is {node.index}"
                    )
        problems.extend(self._record_problems())

        # Unique tables: stale entries and hash-consing duplicates.
        for table_name, table, key_of in (
            ("vector", self._vtable, self._vnode_table_key),
            ("matrix", self._mtable, self._mnode_table_key),
        ):
            recomputed: dict[tuple[int, ...], tuple[int, ...]] = {}
            for key, node in table.items():
                actual = key_of(node)  # type: ignore[operator]
                if actual != key:
                    problems.append(
                        f"stale {table_name} unique-table entry at level "
                        f"{node.level}: stored key does not match node "
                        "contents (node mutated after interning?)"
                    )
                if actual in recomputed:
                    problems.append(
                        f"duplicate {table_name} unique-table entries for "
                        f"one structural node at level {node.level}"
                    )
                recomputed[actual] = key

        if check_caches:
            vtable = dict(self._vtable.items())
            mtable = dict(self._mtable.items())
            for cache_name, cache, table, key_of in (
                ("vadd", self._vadd_cache, vtable, self._vnode_table_key),
                ("mv", self._mv_cache, vtable, self._vnode_table_key),
                ("madd", self._madd_cache, mtable, self._mnode_table_key),
                ("mm", self._mm_cache, mtable, self._mnode_table_key),
            ):
                for _key, (_weight, node) in cache.items():
                    if node is None:
                        continue
                    if table.get(key_of(node)) is not node:  # type: ignore[operator, arg-type]
                        problems.append(
                            f"compute cache {cache_name!r} holds a "
                            f"non-canonical node at level {node.level} "
                            "(not interned, or mutated after caching)"
                        )
                        break  # one finding per cache keeps reports readable

        return problems
