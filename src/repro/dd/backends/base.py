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
  dense integer ids, with flat table/cache keys and the vector hot path
  in a C extension.

The **semantic contract** between backends is strict: for the same
sequence of calls both must produce states with equal amplitudes within
:func:`repro.dd.ctable.tolerance`, equal node counts, and identical
Lemma-1 fidelity accounting (``tests/backends`` pins this
differentially).  Normalization formulas, tolerance bucketing, snap
targets, and cache-flush policy are therefore part of this interface,
not an implementation detail — see the method docstrings.

Serialization is backend-neutral by construction:
:mod:`repro.dd.serialize` rebuilds diagrams exclusively through
:meth:`make_vedge`, so states round-trip across backends.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Hashable, Mapping

from ..node import MEdge, MNode, VEdge, VNode, zero_medge

if TYPE_CHECKING:
    from ...obs import Recorder

#: Default upper bound on compute-cache entries before a cache is flushed.
DEFAULT_CACHE_LIMIT = 1 << 19

#: Names of the compute caches, as reported by :meth:`DDBackend.cache_stats`.
CACHE_NAMES = ("vadd", "madd", "mv", "mm", "inner")


class DDBackend(ABC):
    """Abstract decision-diagram engine.

    Subclasses must populate, in ``__init__`` after calling ``super()``:

    * ``_vtable`` / ``_mtable`` — the unique tables (any mapping with
      ``len``; key layout is backend-private).
    * ``_compute_caches`` — mapping from :data:`CACHE_NAMES` entries to
      the backing cache dict, used by the shared cache plumbing.

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

    # ------------------------------------------------------------------
    # Cache plumbing (shared)
    # ------------------------------------------------------------------

    def _checked_insert(
        self, cache: dict[Any, Any], key: Hashable, value: Any, name: str
    ) -> None:
        if len(cache) >= self.cache_limit:
            entries = len(cache)
            cache.clear()
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
        cache[key] = value

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
