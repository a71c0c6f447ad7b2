"""The reference backend: hash-consed object nodes, weak unique tables.

This is the original :class:`repro.dd.package.Package` engine moved
behind the :class:`repro.dd.backends.base.DDBackend` interface,
unchanged: nodes are Python objects interned in
``weakref.WeakValueDictionary`` unique tables keyed on
``(level, weight_key(...), child, ...)`` tuples, and compute caches are
plain dicts keyed on node objects.  Sub-diagrams that become
unreachable are reclaimed by Python's reference counting — the analogue
of the reference-counted garbage collection in C++ DD packages.

It is the semantic baseline the arena backend is differentially tested
against (``tests/backends``), and must stay importable without numpy.

Canonicity guarantees enforced here:

* **Vector nodes** are normalized so that the two outgoing edge weights
  satisfy ``|w0|**2 + |w1|**2 == 1`` and the first nonzero weight is real
  and positive.  Consequently every sub-diagram represents a *unit-norm*
  subvector, which is what makes the paper's node *norm contributions*
  (Definition 2) computable by a single top-down sweep, and makes
  measurement sampling a simple descent.

* **Matrix nodes** are normalized by their largest-magnitude edge weight
  (ties broken towards the lowest edge index), which is numerically stable
  for long gate products.

* Structurally equal nodes (same level, same children, weights equal within
  the global tolerance of :mod:`repro.dd.ctable`) are the same Python
  object.
"""

from __future__ import annotations

import math
import weakref
from typing import Any

from .. import ctable
from ..node import MEdge, MNode, VEdge, VNode, zero_medge, zero_vedge
from .base import DEFAULT_CACHE_LIMIT, DDBackend


def _vnode_key(node: VNode) -> tuple[Any, ...]:
    """Recompute a vector node's unique-table key from its contents."""
    (w0, n0), (w1, n1) = node.edges
    return (
        node.level,
        ctable.weight_key(w0),
        n0,
        ctable.weight_key(w1),
        n1,
    )


def _mnode_key(node: MNode) -> tuple[Any, ...]:
    """Recompute a matrix node's unique-table key from its contents."""
    key: list[Any] = [node.level]
    for weight, child in node.edges:
        key.append(ctable.weight_key(weight))
        key.append(child)
    return tuple(key)


class ReferenceBackend(DDBackend):
    """Hash-consed object engine with weak-reference unique tables."""

    name = "reference"

    def __init__(self, cache_limit: int = DEFAULT_CACHE_LIMIT) -> None:
        super().__init__(cache_limit)
        self._vtable: "weakref.WeakValueDictionary[tuple, VNode]" = (
            weakref.WeakValueDictionary()
        )
        self._mtable: "weakref.WeakValueDictionary[tuple, MNode]" = (
            weakref.WeakValueDictionary()
        )
        self._vadd_cache: dict[tuple, VEdge] = {}
        self._madd_cache: dict[tuple, MEdge] = {}
        self._mv_cache: dict[tuple, VEdge] = {}
        self._mm_cache: dict[tuple, MEdge] = {}
        self._inner_cache: dict[tuple, complex] = {}
        self._compute_caches = {
            "vadd": self._vadd_cache,
            "madd": self._madd_cache,
            "mv": self._mv_cache,
            "mm": self._mm_cache,
            "inner": self._inner_cache,
        }

    # ------------------------------------------------------------------
    # Node construction (normalizing, hash-consing)
    # ------------------------------------------------------------------

    def make_vedge(self, level: int, e0: VEdge, e1: VEdge) -> VEdge:
        """Create a normalized, hash-consed vector edge above two children.

        The returned edge carries the norm and phase factored out of the
        children so that the node below it is canonical.  If both children
        are zero the canonical zero edge is returned.

        Args:
            level: Qubit level of the new node.
            e0: Edge for qubit value 0 (child must live at ``level - 1``
                or be a zero edge / terminal).
            e1: Edge for qubit value 1.
        """
        tol = ctable.tolerance()
        w0, n0 = e0
        w1, n1 = e1
        a0 = abs(w0)
        a1 = abs(w1)
        if a0 <= tol:
            if a1 <= tol:
                return zero_vedge()
            w0, n0, a0 = complex(0.0), None, 0.0
        elif a1 <= tol:
            w1, n1, a1 = complex(0.0), None, 0.0

        norm = math.sqrt(a0 * a0 + a1 * a1)
        if a0 > 0.0:
            phase = w0 / a0
        else:
            phase = w1 / a1
        top_weight = norm * phase
        w0n = ctable.snap(w0 / top_weight)
        w1n = ctable.snap(w1 / top_weight)
        return (top_weight, self._intern_vnode(level, (w0n, n0), (w1n, n1)))

    def _intern_vnode(self, level: int, e0: VEdge, e1: VEdge) -> VNode:
        (w0, n0), (w1, n1) = e0, e1
        key = (
            level,
            ctable.weight_key(w0),
            n0,
            ctable.weight_key(w1),
            n1,
        )
        node = self._vtable.get(key)
        if node is None:
            node = VNode(level, (e0, e1))
            self._vtable[key] = node
            self.stats["vnodes_created"] += 1
        return node

    def make_medge(
        self, level: int, edges: tuple[MEdge, MEdge, MEdge, MEdge]
    ) -> MEdge:
        """Create a normalized, hash-consed matrix edge above four children.

        Normalization divides all weights by the largest-magnitude weight
        (lowest index on ties); a matrix whose quadrants are all zero
        collapses to the canonical zero edge.
        """
        tol = ctable.tolerance()
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
            return zero_medge()

        divisor = cleaned[max_idx][0]
        normalized = tuple(
            (ctable.snap(w / divisor), n) if w != 0.0 else (w, n)
            for (w, n) in cleaned
        )
        key = (
            level,
            ctable.weight_key(normalized[0][0]),
            normalized[0][1],
            ctable.weight_key(normalized[1][0]),
            normalized[1][1],
            ctable.weight_key(normalized[2][0]),
            normalized[2][1],
            ctable.weight_key(normalized[3][0]),
            normalized[3][1],
        )
        node = self._mtable.get(key)
        if node is None:
            node = MNode(level, normalized)  # type: ignore[arg-type]
            self._mtable[key] = node
            self.stats["mnodes_created"] += 1
        return (divisor, node)

    def _owns_mnode(self, node: MNode) -> bool:
        return self._mtable.get(_mnode_key(node)) is node

    # ------------------------------------------------------------------
    # Vector arithmetic
    # ------------------------------------------------------------------

    def vadd(self, e1: VEdge, e2: VEdge, level: int) -> VEdge:
        """Add two state edges rooted at the same level."""
        w1, n1 = e1
        w2, n2 = e2
        if w1 == 0.0:
            return e2
        if w2 == 0.0:
            return e1
        if level < 0:
            total = w1 + w2
            return (total, None) if not ctable.is_zero(total) else zero_vedge()
        if n1 is n2:
            total = w1 + w2
            return (total, n1) if not ctable.is_zero(total) else zero_vedge()

        ratio = w2 / w1
        key = (n1, n2, ctable.weight_key(ratio))
        cached = self._vadd_cache.get(key)
        if cached is not None:
            if self._counting:
                self._cache_counts["vadd"][0] += 1
            rw, rn = cached
            return (rw * w1, rn)
        if self._counting:
            self._cache_counts["vadd"][1] += 1

        (a0w, a0n), (a1w, a1n) = n1.edges
        (b0w, b0n), (b1w, b1n) = n2.edges
        child0 = self.vadd((a0w, a0n), (ratio * b0w, b0n), level - 1)
        child1 = self.vadd((a1w, a1n), (ratio * b1w, b1n), level - 1)
        result = self.make_vedge(level, child0, child1)
        self._checked_insert(self._vadd_cache, key, result, "vadd")
        return (result[0] * w1, result[1])

    def multiply_mv(self, me: MEdge, ve: VEdge, level: int) -> VEdge:
        """Apply a matrix edge to a state edge (matrix–vector product)."""
        wm, m = me
        wv, v = ve
        if wm == 0.0 or wv == 0.0:
            return zero_vedge()
        if level < 0:
            return (wm * wv, None)

        key = (m, v)
        cached = self._mv_cache.get(key)
        if cached is not None:
            if self._counting:
                self._cache_counts["mv"][0] += 1
            rw, rn = cached
            return (rw * wm * wv, rn)
        if self._counting:
            self._cache_counts["mv"][1] += 1

        m00, m01, m10, m11 = m.edges
        v0, v1 = v.edges
        sub = level - 1
        child0 = self.vadd(
            self.multiply_mv(m00, v0, sub),
            self.multiply_mv(m01, v1, sub),
            sub,
        )
        child1 = self.vadd(
            self.multiply_mv(m10, v0, sub),
            self.multiply_mv(m11, v1, sub),
            sub,
        )
        result = self.make_vedge(level, child0, child1)
        self._checked_insert(self._mv_cache, key, result, "mv")
        return (result[0] * wm * wv, result[1])

    def _inner_nodes(
        self, n1: VNode | None, n2: VNode | None, level: int
    ) -> complex:
        if level < 0:
            return complex(1.0)
        key = (n1, n2)
        cached = self._inner_cache.get(key)
        if cached is not None:
            if self._counting:
                self._cache_counts["inner"][0] += 1
            return cached
        if self._counting:
            self._cache_counts["inner"][1] += 1
        total = complex(0.0)
        for k in (0, 1):
            w1k, c1 = n1.edges[k]  # type: ignore[union-attr]
            w2k, c2 = n2.edges[k]  # type: ignore[union-attr]
            if w1k != 0.0 and w2k != 0.0:
                total += w1k.conjugate() * w2k * self._inner_nodes(c1, c2, level - 1)
        self._checked_insert(self._inner_cache, key, total, "inner")
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
            return (total, None) if not ctable.is_zero(total) else zero_medge()
        if n1 is n2:
            total = w1 + w2
            return (total, n1) if not ctable.is_zero(total) else zero_medge()

        ratio = w2 / w1
        key = (n1, n2, ctable.weight_key(ratio))
        cached = self._madd_cache.get(key)
        if cached is not None:
            if self._counting:
                self._cache_counts["madd"][0] += 1
            rw, rn = cached
            return (rw * w1, rn)
        if self._counting:
            self._cache_counts["madd"][1] += 1

        children = tuple(
            self.madd(
                n1.edges[k],
                (ratio * n2.edges[k][0], n2.edges[k][1]),
                level - 1,
            )
            for k in range(4)
        )
        result = self.make_medge(level, children)  # type: ignore[arg-type]
        self._checked_insert(self._madd_cache, key, result, "madd")
        return (result[0] * w1, result[1])

    def multiply_mm(self, ae: MEdge, be: MEdge, level: int) -> MEdge:
        """Multiply two matrix edges: result applies ``be`` first, ``ae`` second."""
        wa, a = ae
        wb, b = be
        if wa == 0.0 or wb == 0.0:
            return zero_medge()
        if level < 0:
            return (wa * wb, None)

        key = (a, b)
        cached = self._mm_cache.get(key)
        if cached is not None:
            if self._counting:
                self._cache_counts["mm"][0] += 1
            rw, rn = cached
            return (rw * wa * wb, rn)
        if self._counting:
            self._cache_counts["mm"][1] += 1

        sub = level - 1
        children = []
        for row in (0, 1):
            for col in (0, 1):
                acc = self.multiply_mm(a.edges[row * 2], b.edges[col], sub)
                acc = self.madd(
                    acc,
                    self.multiply_mm(a.edges[row * 2 + 1], b.edges[2 + col], sub),
                    sub,
                )
                children.append(acc)
        result = self.make_medge(level, tuple(children))  # type: ignore[arg-type]
        self._checked_insert(self._mm_cache, key, result, "mm")
        return (result[0] * wa * wb, result[1])

    # ------------------------------------------------------------------
    # Integrity auditing (DDSan)
    # ------------------------------------------------------------------

    def integrity_problems(self, check_caches: bool = True) -> list[str]:
        """Audit the unique tables and compute caches.

        Unique tables: every entry's key must equal the key recomputed
        from the node it maps to — a mismatch is a *stale entry*, the
        signature of a node mutated after interning (or interned under a
        forged key).  Two entries recomputing to the same key are
        *duplicates* — a hash-consing failure.

        Compute caches: every cached result edge must reference a
        canonical node, i.e. one the unique table resolves its own key
        back to.
        """
        problems: list[str] = []

        for table_name, table, key_of in (
            ("vector", self._vtable, _vnode_key),
            ("matrix", self._mtable, _mnode_key),
        ):
            recomputed: dict[tuple, tuple] = {}
            for key, node in list(table.items()):
                actual = key_of(node)
                if actual != key:
                    problems.append(
                        f"stale {table_name} unique-table entry at level "
                        f"{node.level}: stored key does not match node "
                        "contents (node mutated after interning?)"
                    )
                if actual in recomputed:
                    problems.append(
                        f"duplicate {table_name} unique-table entries for one "
                        f"structural node at level {node.level}"
                    )
                recomputed[actual] = key

        if check_caches:
            for cache_name, cache, table, key_of in (
                ("vadd", self._vadd_cache, self._vtable, _vnode_key),
                ("mv", self._mv_cache, self._vtable, _vnode_key),
                ("madd", self._madd_cache, self._mtable, _mnode_key),
                ("mm", self._mm_cache, self._mtable, _mnode_key),
            ):
                for _key, (_weight, node) in list(cache.items()):
                    if node is None:
                        continue
                    if table.get(key_of(node)) is not node:
                        problems.append(
                            f"compute cache {cache_name!r} holds a "
                            f"non-canonical node at level {node.level} "
                            "(not interned, or mutated after caching)"
                        )
                        break  # one finding per cache keeps reports readable

        return problems
