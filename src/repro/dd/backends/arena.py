"""The arena backend: integer-id node storage with a native vector core.

Same semantics as the reference backend, different storage.  Every node
is assigned a dense integer id (``node.index``): its slot in the arena's
node list (appended at interning, compacted by a reclaim).  The hot data
structures are built around those ids:

* **Unique tables** are plain dicts keyed on flat tuples
  ``(level, re_bucket, im_bucket, child, ...)`` — the children are the
  node objects themselves, hashed by identity, so a reclaim's
  renumbering leaves the keys valid — with the weight quantization of
  :func:`repro.dd.ctable.weight_key` inlined
  (``round(component * inv_tolerance)``): no nested tuples, no weak
  references, no ``WeakValueDictionary`` machinery.
* **Compute caches** are dicts keyed on small integer tuples (vadd/madd:
  ``(id1, id2, ratio_buckets)``) or single packed integers (mv/mm/inner:
  ``id_a * 2**32 + id_b``), wholesale-flushed exactly like the
  reference caches.

**The vector hot path is native.**  ``make_vedge``, ``vadd``, the
``multiply_mv`` recursion and ``node_count`` run in the C extension
``_arena_core.c`` (built on first use by :mod:`.native`).  It works on
the structures above directly, with the same key and value objects, so
the reclaim, the DDSan audit, serialization and every other Python
consumer read them unchanged; the methods here are thin calls into it.
Every complex operation in the core calls CPython's own complex
arithmetic, so results are *bit-for-bit identical* to the reference
backend and cache keys bucket identically, making hit/miss sequences
coincide.  The matrix operations, the inner product and the whole-diagram
sweeps other than ``node_count`` stay in Python.  See docs/BACKENDS.md.

Edge *handles* are real :class:`~repro.dd.node.VNode` /
:class:`~repro.dd.node.MNode` objects, so every consumer that traverses
``.edges`` / ``.level`` (simulator, strategies, serialization, DDSan)
works unchanged.

**Reclaim at cache flushes.**  ``_v_nodes`` / ``_m_nodes`` hold strong
references, so between reclaims the arena keeps nodes the reference
engine's weak unique tables would already have dropped (harmless: a
retained node is only ever re-interned with identical contents).  In
practice the reference frees almost nothing between flushes either,
because its compute caches pin every node they name.  A cache flush
only *marks* a reclaim as pending — the recursion that triggered it
still holds raw ids in its in-flight cache keys — and
:meth:`ArenaBackend._reclaim` runs at the next safe point: entry to the
public :meth:`ArenaBackend.multiply_mv` (the core's recursion never
re-enters it) and :meth:`ArenaBackend.clear_caches`.  It keeps exactly
the nodes the reference would still hold — those referenced from Python
(caller states, cache values, ``gate_cache``, the identity cache) or
named by a surviving compute-cache key — and renumbers the survivors
densely in their old order.
"""

from __future__ import annotations

from collections.abc import Callable
from sys import getrefcount
from typing import Any

from .. import ctable
from ..ctable import snap_boxed as _snap_boxed
from ..node import MEdge, MNode, VEdge, VNode, zero_medge
from . import native
from .base import DEFAULT_CACHE_LIMIT, DDBackend

#: The C core (None when it could not be built; construction then raises).
_core: Any = native.load()[0]

#: Packing base for two-id cache keys.  Arena ids are dense counters and
#: stay far below 2**32, so ``a * _PAIR_SHIFT + b`` is collision-free.
_PAIR_BITS = 32
_PAIR_SHIFT = 1 << _PAIR_BITS
_PAIR_MASK = _PAIR_SHIFT - 1

# Shared zero edge returned by the matrix recursions' annihilation
# shortcuts.  Value-identical to a fresh zero_medge() tuple (tuples are
# immutable, so sharing one instance is observationally equivalent).
_ZERO_M: MEdge = zero_medge()


def _release_unreferenced(
    nodes: list[Any],
    table: dict[tuple[Any, ...], Any],
    key_of: Callable[[Any], tuple[Any, ...]],
    keep: bytearray,
) -> None:
    """Free every node of ``nodes`` that nothing outside the arena holds.

    Inside the arena a node is referenced by its ``nodes`` slot, its
    unique-table entry, and the edge tuples and table keys of its
    parents; everything else (caller states, compute-cache values,
    ``gate_cache``, the identity cache) is outside.  Ids run
    children-before-parents, so a sweep from the highest id down decides
    every parent before its children: a node is kept when ``keep``
    already names it (a kept parent or a cache key does), or when its
    reference count shows a holder outside the arena.  Anything else
    loses its table entry and then its slot, and Python frees it on the
    spot — releasing its children for the rest of the sweep, the same
    cascade the reference's weak tables see.  On return ``keep`` is the
    survivor mask.
    """
    # One slot reference plus the call's own argument, measured the same
    # way as _unreferenced measures each node.
    probe = [object()]
    floor = getrefcount(probe[0])
    for index in range(len(nodes) - 1, -1, -1):
        if not keep[index] and _unreferenced(nodes, index, table, key_of, floor):
            nodes[index] = None
        else:
            keep[index] = 1
            # (The loop variable outlives the loop, but only ever names
            # a node that is already marked kept.)
            for _weight, child in nodes[index].edges:
                if child is not None:
                    keep[child.index] = 1


def _unreferenced(
    nodes: list[Any],
    index: int,
    table: dict[tuple[Any, ...], Any],
    key_of: Callable[[Any], tuple[Any, ...]],
    floor: int,
) -> bool:
    """True, with the table entry dropped, when only the arena holds it.

    A function of its own so that the key (which references the
    children) is gone before the sweep reaches them.
    """
    key = key_of(nodes[index])
    interned = table.get(key) is nodes[index]
    if getrefcount(nodes[index]) > floor + interned:
        return False
    if interned:
        del table[key]
    return True


def _compact(
    nodes: list[Any],
    table: dict[tuple[Any, ...], Any],
    keep: bytearray,
    key_of: Callable[[Any], tuple[Any, ...]],
) -> list[int]:
    """Reclaim one node kind in place; return the old-to-new id map.

    The unique table keys on child *objects*, so renumbering leaves the
    surviving entries as they are.  Unmapped ids map to ``-1``.
    """
    _release_unreferenced(nodes, table, key_of, keep)
    id_map = [-1] * len(nodes)
    new = 0
    for old, node in enumerate(nodes):
        if node is not None:
            id_map[old] = new
            node.index = new
            nodes[new] = node
            new += 1
    del nodes[new:]
    return id_map


# The compute caches move to new dicts under renumbered keys.  Popping as
# they go frees each old key before the next new one is built, so a
# re-key costs a second table, not a second set of keys; the reversed
# order is invisible to a wholesale-flushed memo.


def _rekeyed_adds(
    cache: dict[tuple[int, int, int, int], Any], ids: list[int]
) -> dict[tuple[int, int, int, int], Any]:
    """Re-key a vadd/madd cache: ``(id1, id2, re, im)``."""
    fresh = {}
    pop = cache.popitem
    for _ in range(len(cache)):
        (a, b, re, im), value = pop()
        fresh[ids[a], ids[b], re, im] = value
    return fresh


def _rekeyed_pairs(
    cache: dict[int, Any], high: list[int], low: list[int]
) -> dict[int, Any]:
    """Re-key an mv/mm/inner cache: ``high_id * 2**32 + low_id``."""
    fresh = {}
    pop = cache.popitem
    for _ in range(len(cache)):
        key, value = pop()
        fresh[high[key >> _PAIR_BITS] * _PAIR_SHIFT + low[key & _PAIR_MASK]] = value
    return fresh


class ArenaBackend(DDBackend):
    """Integer-id arena engine with vectorized sweeps."""

    name = "arena"

    def __init__(self, cache_limit: int = DEFAULT_CACHE_LIMIT) -> None:
        native.require()
        super().__init__(cache_limit)
        # Node arenas: slot ``i`` holds the node whose ``index`` is ``i``.
        self._v_nodes: list[VNode] = []
        self._m_nodes: list[MNode] = []
        # node_count memo keyed by root id.  Safe because diagrams are
        # immutable after interning and an id names one node until the
        # next reclaim, which renumbers and so clears the memo; the
        # simulator asks for the same root's count more than once per
        # gate (stats tracking plus strategy hooks).
        self._vcount_cache: dict[int, int] = {}
        # Set by a cache flush; the reclaim runs at the next safe point.
        self._reclaim_pending = False
        # Unique tables: plain dicts on flat (level, buckets, child...) keys.
        self._vtable: dict[tuple[Any, ...], VNode] = {}
        self._mtable: dict[tuple[Any, ...], MNode] = {}
        # Compute caches: int-tuple / packed-int keys, flushed wholesale.
        self._vadd_cache: dict[tuple[int, int, int, int], VEdge] = {}
        self._madd_cache: dict[tuple[int, int, int, int], MEdge] = {}
        self._mv_cache: dict[int, VEdge] = {}
        self._mm_cache: dict[int, MEdge] = {}
        self._inner_cache: dict[int, complex] = {}
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
        tol = ctable._tolerance
        cleaned = []
        max_mag = 0.0
        max_idx = -1
        for idx, (w, n) in enumerate(edges):
            mag = abs(w)
            if mag <= tol:
                cleaned.append((complex(0.0), None))
            else:
                cleaned.append((w, n))
                if mag > max_mag + tol:
                    max_mag = mag
                    max_idx = idx
                elif max_idx < 0:
                    max_mag = mag
                    max_idx = idx
        if max_idx < 0:
            return _ZERO_M

        divisor = cleaned[max_idx][0]
        normalized = []
        inv = ctable._inv_tolerance
        key_parts: list[Any] = [level]
        for w, n in cleaned:
            if w != 0.0:
                w = _snap_boxed(w / divisor, tol)
            normalized.append((w, n))
            key_parts.append(round(w.real * inv))
            key_parts.append(round(w.imag * inv))
            key_parts.append(n)
        key = tuple(key_parts)
        mtable = self._mtable
        node = mtable.get(key)
        if node is None:
            node = MNode(level, tuple(normalized))  # type: ignore[arg-type]
            nodes = self._m_nodes
            node.index = len(nodes)
            nodes.append(node)
            mtable[key] = node
            self.stats["mnodes_created"] += 1
        return (divisor, node)

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
        if level < 0:
            return complex(1.0)
        key = n1.index * _PAIR_SHIFT + n2.index  # type: ignore[union-attr]
        cache = self._inner_cache
        cached = cache.get(key)
        if cached is not None:
            if self._counting:
                self._cache_counts["inner"][0] += 1
            return cached
        if self._counting:
            self._cache_counts["inner"][1] += 1
        edges1 = n1.edges  # type: ignore[union-attr]
        edges2 = n2.edges  # type: ignore[union-attr]
        sub = level - 1
        total = complex(0.0)
        w1k, c1 = edges1[0]
        w2k, c2 = edges2[0]
        if w1k != 0.0 and w2k != 0.0:
            total += w1k.conjugate() * w2k * self._inner_nodes(c1, c2, sub)
        w1k, c1 = edges1[1]
        w2k, c2 = edges2[1]
        if w1k != 0.0 and w2k != 0.0:
            total += w1k.conjugate() * w2k * self._inner_nodes(c1, c2, sub)
        if len(cache) < self.cache_limit:
            cache[key] = total
        else:
            self._checked_insert(cache, key, total, "inner")
        return total

    # ------------------------------------------------------------------
    # Matrix arithmetic
    # ------------------------------------------------------------------

    def madd(self, e1: MEdge, e2: MEdge, level: int) -> MEdge:
        """Add two matrix edges rooted at the same level."""
        w1, n1 = e1
        w2, n2 = e2
        if w1 == 0.0:
            return e2
        if w2 == 0.0:
            return e1
        if level < 0:
            total = w1 + w2
            tol = ctable._tolerance
            if abs(total.real) <= tol and abs(total.imag) <= tol:
                return _ZERO_M
            return (total, None)
        if n1 is n2:
            total = w1 + w2
            tol = ctable._tolerance
            if abs(total.real) <= tol and abs(total.imag) <= tol:
                return _ZERO_M
            return (total, n1)

        ratio = w2 / w1
        inv = ctable._inv_tolerance
        key = (
            n1.index,  # type: ignore[union-attr]
            n2.index,  # type: ignore[union-attr]
            round(ratio.real * inv),
            round(ratio.imag * inv),
        )
        cache = self._madd_cache
        cached = cache.get(key)
        if cached is not None:
            if self._counting:
                self._cache_counts["madd"][0] += 1
            rw, rn = cached
            return (rw * w1, rn)
        if self._counting:
            self._cache_counts["madd"][1] += 1

        edges1 = n1.edges  # type: ignore[union-attr]
        edges2 = n2.edges  # type: ignore[union-attr]
        sub = level - 1
        children = []
        for k in range(4):
            e1k = edges1[k]
            w2k, n2k = edges2[k]
            rk = ratio * w2k
            if e1k[0] == 0.0:
                children.append((rk, n2k))
            elif rk == 0.0:
                children.append(e1k)
            else:
                children.append(self.madd(e1k, (rk, n2k), sub))
        result = self.make_medge(level, tuple(children))  # type: ignore[arg-type]
        if len(cache) < self.cache_limit:
            cache[key] = result
        else:
            self._checked_insert(cache, key, result, "madd")
        return (result[0] * w1, result[1])

    def multiply_mm(self, ae: MEdge, be: MEdge, level: int) -> MEdge:
        """Multiply two matrix edges: result applies ``be`` first, ``ae`` second."""
        wa, a = ae
        wb, b = be
        if wa == 0.0 or wb == 0.0:
            return _ZERO_M
        if level < 0:
            return (wa * wb, None)

        key = a.index * _PAIR_SHIFT + b.index  # type: ignore[union-attr]
        cache = self._mm_cache
        cached = cache.get(key)
        if cached is not None:
            if self._counting:
                self._cache_counts["mm"][0] += 1
            rw, rn = cached
            return (rw * wa * wb, rn)
        if self._counting:
            self._cache_counts["mm"][1] += 1

        aedges = a.edges  # type: ignore[union-attr]
        bedges = b.edges  # type: ignore[union-attr]
        sub = level - 1
        mm = self.multiply_mm
        children = []
        for row in (0, 1):
            a0 = aedges[row * 2]
            a1 = aedges[row * 2 + 1]
            for col in (0, 1):
                b0 = bedges[col]
                b1 = bedges[2 + col]
                first = (
                    _ZERO_M
                    if a0[0] == 0.0 or b0[0] == 0.0
                    else mm(a0, b0, sub)
                )
                second = (
                    _ZERO_M
                    if a1[0] == 0.0 or b1[0] == 0.0
                    else mm(a1, b1, sub)
                )
                if first[0] == 0.0:
                    acc = second
                elif second[0] == 0.0:
                    acc = first
                else:
                    acc = self.madd(first, second, sub)
                children.append(acc)
        result = self.make_medge(level, tuple(children))  # type: ignore[arg-type]
        if len(cache) < self.cache_limit:
            cache[key] = result
        else:
            self._checked_insert(cache, key, result, "mm")
        return (result[0] * wa * wb, result[1])

    # ------------------------------------------------------------------
    # Reclaim (see the module docstring for the safe-point rule)
    # ------------------------------------------------------------------

    def _checked_insert(
        self, cache: dict[Any, Any], key: Any, value: Any, name: str
    ) -> None:
        if len(cache) >= self.cache_limit:
            # The flush unpins nodes, but the recursion above still holds
            # raw ids: reclaim at the next safe point, not here.
            self._reclaim_pending = True
        super()._checked_insert(cache, key, value, name)

    def clear_caches(self) -> None:
        """Flush all compute caches, then reclaim what they pinned."""
        super().clear_caches()
        self._reclaim()

    def _reclaim(self) -> None:
        """Drop the nodes the reference engine would have freed; renumber.

        Survivors keep their relative order, so children still precede
        parents.  The node lists are compacted in place, the compute
        caches are re-keyed, and the ``node_count`` memo is dropped.
        """
        self._reclaim_pending = False
        # Keep flags per id, seeded with the ids that surviving cache
        # keys name: dropping one would change later cache hits.
        v_keep = bytearray(len(self._v_nodes))
        m_keep = bytearray(len(self._m_nodes))
        for a, b, _re, _im in self._vadd_cache:
            v_keep[a] = v_keep[b] = 1
        for a, b, _re, _im in self._madd_cache:
            m_keep[a] = m_keep[b] = 1
        for key in self._inner_cache:
            v_keep[key >> _PAIR_BITS] = v_keep[key & _PAIR_MASK] = 1
        for key in self._mm_cache:
            m_keep[key >> _PAIR_BITS] = m_keep[key & _PAIR_MASK] = 1
        for key in self._mv_cache:
            m_keep[key >> _PAIR_BITS] = v_keep[key & _PAIR_MASK] = 1

        v_map = _compact(self._v_nodes, self._vtable, v_keep, self._vnode_table_key)
        m_map = _compact(self._m_nodes, self._mtable, m_keep, self._mnode_table_key)
        self._vcount_cache.clear()

        caches = self._compute_caches
        caches["vadd"] = self._vadd_cache = _rekeyed_adds(caches["vadd"], v_map)
        caches["madd"] = self._madd_cache = _rekeyed_adds(caches["madd"], m_map)
        caches["mv"] = self._mv_cache = _rekeyed_pairs(caches["mv"], m_map, v_map)
        caches["mm"] = self._mm_cache = _rekeyed_pairs(caches["mm"], m_map, m_map)
        caches["inner"] = self._inner_cache = _rekeyed_pairs(
            caches["inner"], v_map, v_map
        )

    # ------------------------------------------------------------------
    # Whole-diagram sweeps
    # ------------------------------------------------------------------

    def _owns(self, node: VNode) -> bool:
        """True when ``node`` is a live slot of *this* arena.

        Diagrams normally contain only arena-built nodes, but corruption
        tests (and misuse) can graft hand-constructed nodes
        (``index == -1``) or nodes of another package; sweeps detect
        them and fall back to the generic ``id()``-based traversal,
        which is storage-agnostic.
        """
        index = node.index
        nodes = self._v_nodes
        return 0 <= index < len(nodes) and nodes[index] is node

    def node_count(self, edge: VEdge) -> int:
        """Reachable-node count, walked and memoized by the C core.

        The core returns None when the diagram holds a node that is not
        a live slot of this arena; the generic traversal counts it then.
        """
        count = _core.node_count(self, edge)
        return super().node_count(edge) if count is None else count

    def vnodes(self, edge: VEdge) -> list[VNode]:
        """Reachable nodes in the interface-contract order.

        Replicates the base traversal exactly (mark-on-pop, push-if-
        unmarked, stable sort by descending level) so the within-level
        order — and therefore approximation tie-breaking — is identical
        across backends; only the dedup structure differs (a set of
        dense integer ids instead of an ``id()`` hash set).
        """
        _weight, root = edge
        if root is None:
            return []
        if not self._owns(root):
            return super().vnodes(edge)
        seen: set[int] = set()
        collected: list[VNode] = []
        stack = [root]
        while stack:
            node = stack.pop()
            index = node.index
            if index in seen:
                continue
            seen.add(index)
            collected.append(node)
            for _w, child in node.edges:
                if child is not None:
                    if not self._owns(child):
                        return super().vnodes(edge)
                    if child.index not in seen:
                        stack.append(child)
        collected.sort(key=lambda n: -n.level)
        return collected

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

    def integrity_problems(self, check_caches: bool = True) -> list[str]:
        """Audit the node arenas, unique tables, and compute caches.

        Beyond the reference checks (stale/duplicate table entries,
        non-canonical cached nodes), the arena verifies that every
        node's ``index`` round-trips through ``_v_nodes`` / ``_m_nodes``.
        """
        problems: list[str] = []
        for kind, nodes in (("vector", self._v_nodes), ("matrix", self._m_nodes)):
            for index, node in enumerate(nodes):
                if node.index != index:
                    problems.append(
                        f"{kind} arena slot {index} holds a node whose "
                        f"index is {node.index}"
                    )

        # Unique tables: stale entries and hash-consing duplicates.
        for table_name, table, key_of in (
            ("vector", self._vtable, self._vnode_table_key),
            ("matrix", self._mtable, self._mnode_table_key),
        ):
            recomputed: dict[tuple[int, ...], tuple[int, ...]] = {}
            for key, node in list(table.items()):
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
            for cache_name, cache, table, key_of in (
                ("vadd", self._vadd_cache, self._vtable,
                 self._vnode_table_key),
                ("mv", self._mv_cache, self._vtable, self._vnode_table_key),
                ("madd", self._madd_cache, self._mtable,
                 self._mnode_table_key),
                ("mm", self._mm_cache, self._mtable, self._mnode_table_key),
            ):
                for _key, (_weight, node) in list(cache.items()):
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
