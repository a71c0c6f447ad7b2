"""The arena backend: integer-id node storage with numpy mirrors.

Same semantics as the reference backend, different storage.  Every node
is assigned a dense integer id (``node.index``): its slot in the arena's
node list (appended at interning, compacted by a reclaim) and its row in
numpy mirrors of its level, child ids, and edge weights.  The hot data
structures are rebuilt around those ids:

* **Unique tables** are plain dicts keyed on flat tuples
  ``(level, re_bucket, im_bucket, child, ...)`` — the children are the
  node objects themselves, hashed by identity, so a reclaim's
  renumbering leaves the keys valid — with the weight
  quantization of :func:`repro.dd.ctable.weight_key` inlined
  (``round(component * inv_tolerance)``) — no nested tuples, no weak
  references, no per-lookup Python-level ``WeakValueDictionary``
  machinery.
* **Compute caches** are dicts keyed on small integer tuples (vadd/madd:
  ``(id1, id2, ratio_buckets)``) or single packed integers (mv/mm/inner:
  ``id_a * 2**32 + id_b``), wholesale-flushed exactly like the
  reference caches.
* **Whole-diagram sweeps** run on the numpy mirrors:
  reachability is a vectorized frontier walk over the child-id array
  with an int64 visit-stamp array (no hashing, no Python recursion),
  and the norm-contribution sweep fetches all edge weights in one
  fancy-indexed gather from the weight mirror.

Registration is deliberately cheap: interning a node only appends it to
the node list.  The numpy mirror arrays are synced lazily —
:meth:`ArenaBackend._sync_v_mirror` bulk-converts the unsynced tail of
nodes right before a sweep, gather, or audit needs them — so the gate
recursions never pay per-node numpy scalar writes.

Edge *handles* are still real :class:`~repro.dd.node.VNode` /
:class:`~repro.dd.node.MNode` objects, so every consumer that traverses
``.edges`` / ``.level`` (simulator, strategies, serialization, DDSan)
works unchanged — the arrays are a mirror, not a replacement, and the
arena audits their consistency in :meth:`ArenaBackend.integrity_problems`.

Numerical behavior is *bit-for-bit identical* to the reference backend:
normalization uses the same float operations in the same order, the
inlined bucketing computes the same integers as
:func:`repro.dd.ctable.weight_key`, and cache keys bucket identically so
hit/miss sequences coincide.  The recursions additionally inline the
*zero-operand* shortcuts of their callees (the exact comparisons the
callee would perform first) — branches, not arithmetic, so no float
result can change.  Vectorized *float* math is confined to places where
it provably cannot change a bit: ``np.abs`` on complex128 uses a
different hypot than CPython's ``abs`` (1-ulp divergence on roughly a
third of inputs), so magnitude math always happens on exact Python
complexes gathered via ``.tolist()``.  See docs/BACKENDS.md.

**Reclaim at cache flushes.**  ``_v_nodes`` / ``_m_nodes`` hold strong
references, so between reclaims the arena keeps nodes the reference
engine's weak unique tables would already have dropped (harmless: a
retained node is only ever re-interned with identical contents).  In
practice the reference frees almost nothing between flushes either,
because its compute caches pin every node they name.  A cache flush
only *marks* a reclaim as pending — the recursion that triggered it
still holds raw ids in its in-flight cache keys — and
:meth:`ArenaBackend._reclaim` runs at the next safe point: entry to the
public :meth:`ArenaBackend.multiply_mv` (the recursion itself calls
``_multiply_mv``) and :meth:`ArenaBackend.clear_caches`.  It
keeps exactly the nodes the reference would still hold — those
referenced from Python (caller states, cache values, ``gate_cache``, the
identity cache) or named by a surviving compute-cache key — and
renumbers the survivors densely in their old order.
"""

from __future__ import annotations

from collections.abc import Callable
from math import sqrt
from sys import getrefcount
from typing import Any

import numpy as np

from .. import ctable
from ..ctable import snap_boxed as _snap_boxed
from ..node import MEdge, MNode, VEdge, VNode, zero_medge, zero_vedge
from .base import DEFAULT_CACHE_LIMIT, DDBackend

#: Initial numpy mirror capacity (rows); doubled on exhaustion.
_INITIAL_CAPACITY = 1 << 10

#: Rows converted per step of a mirror sync.  A full resync after a
#: reclaim would otherwise build list and array temporaries the size of
#: the whole arena at once.
_SYNC_CHUNK = 1 << 16

#: Packing base for two-id cache keys.  Arena ids are dense counters and
#: stay far below 2**32 (the arrays would not fit in memory otherwise),
#: so ``a * _PAIR_SHIFT + b`` is collision-free.
_PAIR_BITS = 32
_PAIR_SHIFT = 1 << _PAIR_BITS
_PAIR_MASK = _PAIR_SHIFT - 1

# Shared zero edges returned by the recursions' annihilation shortcuts.
# Value-identical to fresh zero_vedge()/zero_medge() tuples (tuples are
# immutable, so sharing one instance is observationally equivalent);
# avoids a function call plus a tuple allocation on ~half of all
# multiply_mv invocations.
_ZERO_V: VEdge = zero_vedge()
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
        super().__init__(cache_limit)
        # Vector-node arena.  Registration appends the node (cheap); the
        # numpy mirrors below are bulk-synced from the nodes on demand.
        self._v_nodes: list[VNode] = []
        # Numpy mirrors of the nodes above, valid up to ``_v_synced``.
        self._v_level = np.zeros(_INITIAL_CAPACITY, dtype=np.int32)
        self._v_child = np.full((_INITIAL_CAPACITY, 2), -1, dtype=np.int64)
        self._v_weight = np.zeros((_INITIAL_CAPACITY, 2), dtype=np.complex128)
        self._v_stamp = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._v_synced = 0
        self._visit = 0
        # Matrix-node arena (4-wide), same layout.
        self._m_nodes: list[MNode] = []
        self._m_level = np.zeros(_INITIAL_CAPACITY, dtype=np.int32)
        self._m_child = np.full((_INITIAL_CAPACITY, 4), -1, dtype=np.int64)
        self._m_weight = np.zeros((_INITIAL_CAPACITY, 4), dtype=np.complex128)
        self._m_synced = 0
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
    # Mirror sync (registration itself is inlined into make_vedge /
    # make_medge — it is the hottest allocation site)
    # ------------------------------------------------------------------

    def _sync_v_mirror(self) -> None:
        """Bulk-convert unsynced vector nodes into the numpy mirrors."""
        count = len(self._v_nodes)
        start = self._v_synced
        if start == count:
            return
        capacity = self._v_level.shape[0]
        if count > capacity:
            while capacity < count:
                capacity *= 2
            level = np.zeros(capacity, dtype=np.int32)
            level[:start] = self._v_level[:start]
            self._v_level = level
            child = np.full((capacity, 2), -1, dtype=np.int64)
            child[:start] = self._v_child[:start]
            self._v_child = child
            weight = np.zeros((capacity, 2), dtype=np.complex128)
            weight[:start] = self._v_weight[:start]
            self._v_weight = weight
            stamp = np.zeros(capacity, dtype=np.int64)
            stamp[:start] = self._v_stamp[:start]
            self._v_stamp = stamp
        for lo in range(start, count, _SYNC_CHUNK):
            hi = min(lo + _SYNC_CHUNK, count)
            chunk = self._v_nodes[lo:hi]
            self._v_level[lo:hi] = [node.level for node in chunk]
            edges = [node.edges for node in chunk]
            self._v_child[lo:hi] = [
                (-1 if n0 is None else n0.index, -1 if n1 is None else n1.index)
                for (_w0, n0), (_w1, n1) in edges
            ]
            self._v_weight[lo:hi] = [(w0, w1) for (w0, _n0), (w1, _n1) in edges]
        self._v_synced = count

    def _sync_m_mirror(self) -> None:
        """Bulk-convert unsynced matrix nodes into the numpy mirrors."""
        count = len(self._m_nodes)
        start = self._m_synced
        if start == count:
            return
        capacity = self._m_level.shape[0]
        if count > capacity:
            while capacity < count:
                capacity *= 2
            level = np.zeros(capacity, dtype=np.int32)
            level[:start] = self._m_level[:start]
            self._m_level = level
            child = np.full((capacity, 4), -1, dtype=np.int64)
            child[:start] = self._m_child[:start]
            self._m_child = child
            weight = np.zeros((capacity, 4), dtype=np.complex128)
            weight[:start] = self._m_weight[:start]
            self._m_weight = weight
        for lo in range(start, count, _SYNC_CHUNK):
            hi = min(lo + _SYNC_CHUNK, count)
            chunk = self._m_nodes[lo:hi]
            self._m_level[lo:hi] = [node.level for node in chunk]
            edges = [node.edges for node in chunk]
            self._m_child[lo:hi] = [
                [-1 if n is None else n.index for _w, n in quad] for quad in edges
            ]
            self._m_weight[lo:hi] = [[w for w, _n in quad] for quad in edges]
        self._m_synced = count

    # ------------------------------------------------------------------
    # Node construction (normalizing, hash-consing)
    # ------------------------------------------------------------------

    def make_vedge(self, level: int, e0: VEdge, e1: VEdge) -> VEdge:
        """Create a normalized, hash-consed vector edge above two children.

        Float-operation order matches the reference backend exactly; the
        interning key inlines :func:`repro.dd.ctable.weight_key` and the
        snapping loop of :func:`repro.dd.ctable.snap` over flat locals.
        """
        tol = ctable._tolerance
        w0, n0 = e0
        w1, n1 = e1
        a0 = abs(w0)
        a1 = abs(w1)
        if a0 <= tol:
            if a1 <= tol:
                return _ZERO_V
            w0, n0, a0 = complex(0.0), None, 0.0
        elif a1 <= tol:
            w1, n1, a1 = complex(0.0), None, 0.0

        norm = sqrt(a0 * a0 + a1 * a1)
        if a0 > 0.0:
            phase = w0 / a0
        else:
            phase = w1 / a1
        top_weight = norm * phase
        w0n = _snap_boxed(w0 / top_weight, tol)
        w1n = _snap_boxed(w1 / top_weight, tol)

        inv = ctable._inv_tolerance
        key = (
            level,
            round(w0n.real * inv),
            round(w0n.imag * inv),
            n0,
            round(w1n.real * inv),
            round(w1n.imag * inv),
            n1,
        )
        vtable = self._vtable
        node = vtable.get(key)
        if node is None:
            # Registration inlined (this is the hottest allocation site):
            # append the node; the numpy mirrors sync lazily.
            node = VNode(level, ((w0n, n0), (w1n, n1)))
            nodes = self._v_nodes
            node.index = len(nodes)
            nodes.append(node)
            vtable[key] = node
            self.stats["vnodes_created"] += 1
        return (top_weight, node)

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
        """Add two state edges rooted at the same level.

        The recursion inlines the zero-operand shortcut of the callee
        (the exact first comparisons a recursive call would perform), so
        roughly half of the recursive calls are skipped outright without
        changing any computed value.
        """
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
                return _ZERO_V
            return (total, None)
        if n1 is n2:
            total = w1 + w2
            tol = ctable._tolerance
            if abs(total.real) <= tol and abs(total.imag) <= tol:
                return _ZERO_V
            return (total, n1)

        ratio = w2 / w1
        inv = ctable._inv_tolerance
        key = (
            n1.index,  # type: ignore[union-attr]
            n2.index,  # type: ignore[union-attr]
            round(ratio.real * inv),
            round(ratio.imag * inv),
        )
        cache = self._vadd_cache
        cached = cache.get(key)
        if cached is not None:
            if self._counting:
                self._cache_counts["vadd"][0] += 1
            rw, rn = cached
            return (rw * w1, rn)
        if self._counting:
            self._cache_counts["vadd"][1] += 1

        (a0w, a0n), (a1w, a1n) = n1.edges  # type: ignore[union-attr]
        (b0w, b0n), (b1w, b1n) = n2.edges  # type: ignore[union-attr]
        sub = level - 1
        rb0 = ratio * b0w
        if a0w == 0.0:
            child0 = (rb0, b0n)
        elif rb0 == 0.0:
            child0 = (a0w, a0n)
        else:
            child0 = self.vadd((a0w, a0n), (rb0, b0n), sub)
        rb1 = ratio * b1w
        if a1w == 0.0:
            child1 = (rb1, b1n)
        elif rb1 == 0.0:
            child1 = (a1w, a1n)
        else:
            child1 = self.vadd((a1w, a1n), (rb1, b1n), sub)
        result = self.make_vedge(level, child0, child1)
        if len(cache) < self.cache_limit:
            cache[key] = result
        else:
            self._checked_insert(cache, key, result, "vadd")
        return (result[0] * w1, result[1])

    def multiply_mv(self, me: MEdge, ve: VEdge, level: int) -> VEdge:
        """Apply a matrix edge to a state edge (matrix–vector product).

        This entry is never reached from inside a recursion, which makes
        it the safe point for a reclaim left pending by a cache flush.
        """
        if self._reclaim_pending:
            self._reclaim()
        return self._multiply_mv(me, ve, level)

    def _multiply_mv(self, me: MEdge, ve: VEdge, level: int) -> VEdge:
        """Depth-first ``multiply_mv`` recursion.

        Zero-operand products and additions short-circuit at the call
        site (same comparisons the callees perform first; no float
        operation is added, removed, or reordered).
        """
        wm, m = me
        wv, v = ve
        if wm == 0.0 or wv == 0.0:
            return _ZERO_V
        if level < 0:
            return (wm * wv, None)

        key = m.index * _PAIR_SHIFT + v.index  # type: ignore[union-attr]
        cache = self._mv_cache
        cached = cache.get(key)
        if cached is not None:
            if self._counting:
                self._cache_counts["mv"][0] += 1
            rw, rn = cached
            return (rw * wm * wv, rn)
        if self._counting:
            self._cache_counts["mv"][1] += 1

        m00, m01, m10, m11 = m.edges  # type: ignore[union-attr]
        v0, v1 = v.edges  # type: ignore[union-attr]
        sub = level - 1
        mv = self._multiply_mv
        v0w = v0[0]
        v1w = v1[0]
        p0 = _ZERO_V if m00[0] == 0.0 or v0w == 0.0 else mv(m00, v0, sub)
        p1 = _ZERO_V if m01[0] == 0.0 or v1w == 0.0 else mv(m01, v1, sub)
        if p0[0] == 0.0:
            child0 = p1
        elif p1[0] == 0.0:
            child0 = p0
        else:
            child0 = self.vadd(p0, p1, sub)
        p0 = _ZERO_V if m10[0] == 0.0 or v0w == 0.0 else mv(m10, v0, sub)
        p1 = _ZERO_V if m11[0] == 0.0 or v1w == 0.0 else mv(m11, v1, sub)
        if p0[0] == 0.0:
            child1 = p1
        elif p1[0] == 0.0:
            child1 = p0
        else:
            child1 = self.vadd(p0, p1, sub)
        result = self.make_vedge(level, child0, child1)
        if len(cache) < self.cache_limit:
            cache[key] = result
        else:
            self._checked_insert(cache, key, result, "mv")
        return (result[0] * wm * wv, result[1])

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
        caches are re-keyed, the numpy mirrors resync from scratch, and
        the ``node_count`` memo is dropped.
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
        self._v_synced = 0
        self._m_synced = 0
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
    # Whole-diagram sweeps (arena-accelerated)
    # ------------------------------------------------------------------

    def _owns(self, node: VNode) -> bool:
        """True when ``node`` is a live slot of *this* arena.

        Diagrams normally contain only arena-built nodes, but corruption
        tests (and misuse) can graft hand-constructed nodes
        (``index == -1``) or nodes of another package; sweeps detect
        them and fall back to the generic ``id()``-based traversal,
        which is storage-agnostic.  Ownership is closed under children
        for *interned* nodes: ``make_vedge`` registers children before
        parents and nodes are immutable after interning, so an owned
        root implies an owned (and mirror-consistent) reachable set.
        """
        index = node.index
        nodes = self._v_nodes
        return 0 <= index < len(nodes) and nodes[index] is node

    def node_count(self, edge: VEdge) -> int:
        """Reachable-node count as a vectorized frontier walk.

        Runs on the child-id mirror: each iteration gathers the children
        of the whole frontier in one fancy-indexed read, drops terminals,
        dedups (`np.unique`), and filters already-visited ids through an
        int64 stamp array.  Iteration count is bounded by the longest
        root-to-terminal path (≤ qubit count), so Python-level overhead
        is per *level*, not per node — this sweep runs after every gate
        in the simulator loop and dominated shor-class profiles when it
        was a per-node Python traversal.
        """
        _weight, root = edge
        if root is None:
            return 0
        if not self._owns(root):
            return super().node_count(edge)
        root_index = root.index
        cached = self._vcount_cache.get(root_index)
        if cached is not None:
            return cached
        self._sync_v_mirror()
        stamp = self._visit = self._visit + 1
        stamps = self._v_stamp
        child = self._v_child
        frontier = np.array([root_index], dtype=np.int64)
        stamps[frontier] = stamp
        count = 0
        while frontier.size:
            count += int(frontier.size)
            # Children of the whole frontier in one gather; sort-based
            # dedup (np.unique's Python wrapper is slow on small
            # arrays).  Terminals (-1) sort to the front and are cut
            # off with a searchsorted.
            kids = child[frontier].reshape(-1)
            kids.sort()
            kids = kids[kids.searchsorted(0) :]
            if kids.size == 0:
                break
            keep = np.empty(kids.size, dtype=bool)
            keep[0] = True
            np.not_equal(kids[1:], kids[:-1], out=keep[1:])
            kids = kids[keep]
            kids = kids[stamps[kids] != stamp]
            stamps[kids] = stamp
            frontier = kids
        self._vcount_cache[root_index] = count
        return count

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

    def norm_contributions(self, edge: VEdge) -> dict[VNode, float]:
        """Norm-contribution sweep with vectorized magnitude gather.

        The edge weights of every reachable node are fetched in one
        fancy-indexed gather from the weight mirror; ``tolist`` converts
        them back to exact Python complexes, and the magnitudes are then
        squared with the *same* Python operations the reference uses.
        (``np.abs`` on complex128 is deliberately avoided: its hypot
        differs from CPython's by 1 ulp on ~a third of inputs, which
        would break the bit-for-bit Lemma-1 parity the differential
        tests pin.)  The accumulation replays the reference sweep in the
        same order, preserving the insertion-order contract.
        """
        weight, root = edge
        if root is None:
            return {}
        ordered = self.vnodes(edge)
        if not all(self._owns(node) for node in ordered):
            return super().norm_contributions(edge)
        self._sync_v_mirror()
        indices = np.fromiter(
            (node.index for node in ordered),
            dtype=np.int64,
            count=len(ordered),
        )
        squared = [
            (abs(w0) ** 2, abs(w1) ** 2)
            for w0, w1 in self._v_weight[indices].tolist()
        ]
        contributions: dict[VNode, float] = {root: abs(weight) ** 2}
        for row, node in enumerate(ordered):
            incoming = contributions.get(node, 0.0)
            if incoming == 0.0:
                continue
            magnitudes = squared[row]
            for k, (edge_weight, child) in enumerate(node.edges):
                if child is None or edge_weight == 0.0:
                    continue
                contributions[child] = (
                    contributions.get(child, 0.0) + incoming * magnitudes[k]
                )
        return contributions

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
        """Audit unique tables, compute caches, and the array mirrors.

        Beyond the reference checks (stale/duplicate table entries,
        non-canonical cached nodes), the arena verifies that every
        node's mirror row — level, child ids, weights — matches the
        node object, and that ``node.index`` round-trips through
        ``_v_nodes`` / ``_m_nodes``.  Mirrors are synced first, so the
        audit always sees the complete arena.
        """
        problems: list[str] = []
        self._sync_v_mirror()
        self._sync_m_mirror()

        # Mirror consistency: the arrays must agree with the objects.
        for kind, nodes, levels, children, weights in (
            ("vector", self._v_nodes, self._v_level, self._v_child,
             self._v_weight),
            ("matrix", self._m_nodes, self._m_level, self._m_child,
             self._m_weight),
        ):
            for index, node in enumerate(nodes):
                if node.index != index:
                    problems.append(
                        f"{kind} arena slot {index} holds a node whose "
                        f"index is {node.index}"
                    )
                    continue
                if int(levels[index]) != node.level:
                    problems.append(
                        f"{kind} arena level mirror out of sync at slot "
                        f"{index}: {int(levels[index])} != {node.level}"
                    )
                for k, (w, child) in enumerate(node.edges):
                    child_id = -1 if child is None else child.index
                    if int(children[index, k]) != child_id:
                        problems.append(
                            f"{kind} arena child mirror out of sync at "
                            f"slot {index} edge {k}"
                        )
                    if complex(weights[index, k]) != w:
                        problems.append(
                            f"{kind} arena weight mirror out of sync at "
                            f"slot {index} edge {k}"
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
