"""The decision-diagram package: a facade over pluggable backends.

A :class:`Package` owns one :class:`repro.dd.backends.DDBackend` — the
engine holding the unique tables that hash-cons vector and matrix nodes
and the compute caches that memoize arithmetic (addition,
matrix–vector and matrix–matrix multiplication, inner products,
Kronecker products).  This mirrors the architecture of classical
decision-diagram libraries and of the JKQ/MQT quantum DD package the
paper builds on.

Two engines are available (selection precedence and contract in
docs/BACKENDS.md):

* ``reference`` — hash-consed Python objects in weak unique tables
  (:mod:`repro.dd.backends.reference`), the semantic baseline;
* ``arena`` — integer-id arena storage with a native C vector core
  (:mod:`repro.dd.backends.arena`).

Canonicity guarantees — enforced identically by every backend:

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

All arithmetic operates on edges — ``(weight, node)`` tuples — and returns
edges.  Zero edges ``(0j, None)`` annihilate everywhere.

The hot operations are bound as *instance attributes* pointing straight
at the backend's bound methods, so the facade adds zero per-call
indirection on the simulation path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable

from .backends import (
    CACHE_NAMES,
    DEFAULT_CACHE_LIMIT,
    DDBackend,
    create_backend,
    default_backend_name,
    set_backend_override,
)
from .node import MEdge, VEdge, VNode

if TYPE_CHECKING:
    from ..obs import Recorder

__all__ = [
    "CACHE_NAMES",
    "DEFAULT_CACHE_LIMIT",
    "Package",
    "default_package",
    "reset_default_package",
    "set_default_backend",
]


class Package:
    """Facade owning one DD backend and exposing its operations.

    Most applications use the process-wide :func:`default_package`; tests
    and long-running services may create isolated instances.

    Args:
        cache_limit: Maximum number of entries per compute cache.  When a
            cache exceeds this bound it is flushed wholesale (the classic
            DD-package strategy; correctness is unaffected).
        backend: Backend name (``"reference"`` / ``"arena"``), an already
            constructed :class:`~repro.dd.backends.DDBackend` instance,
            or None to use the resolved default (CLI/env override aware —
            see :mod:`repro.dd.backends`).
    """

    # Hot operations are rebound per instance (zero facade indirection);
    # the annotations keep the public surface typed.
    make_vedge: Callable[[int, VEdge, VEdge], VEdge]
    make_medge: Callable[[int, tuple[MEdge, MEdge, MEdge, MEdge]], MEdge]
    vadd: Callable[[VEdge, VEdge, int], VEdge]
    madd: Callable[[MEdge, MEdge, int], MEdge]
    multiply_mv: Callable[[MEdge, VEdge, int], VEdge]
    multiply_mm: Callable[[MEdge, MEdge, int], MEdge]
    inner_product: Callable[[VEdge, VEdge, int], complex]
    fidelity: Callable[[VEdge, VEdge, int], float]
    vkron: Callable[[VEdge, VEdge], VEdge]
    mkron: Callable[[MEdge, MEdge], MEdge]
    identity: Callable[[int], MEdge]
    conjugate_transpose: Callable[[MEdge, int], MEdge]
    node_count: Callable[[VEdge], int]
    vnodes: Callable[[VEdge], list[VNode]]
    norm_contributions: Callable[[VEdge], dict[VNode, float]]

    def __init__(
        self,
        cache_limit: int = DEFAULT_CACHE_LIMIT,
        backend: str | DDBackend | None = None,
    ):
        if isinstance(backend, DDBackend):
            impl = backend
        else:
            impl = create_backend(backend, cache_limit=cache_limit)
        self._backend = impl
        #: Registry name of the engine in use (result/obs metadata).
        self.backend_name = impl.name
        #: Operation counters, useful for performance diagnostics
        #: (shared dict with the backend).
        self.stats = impl.stats
        #: Lowered-gate memo consulted by the circuit lowering layer
        #: (None on backends that disable gate memoization).
        self.gate_cache: dict[Hashable, MEdge] | None = impl.gate_cache
        # Hot-path bindings: straight to the backend's bound methods.
        self.make_vedge = impl.make_vedge
        self.make_medge = impl.make_medge
        self.vadd = impl.vadd
        self.madd = impl.madd
        self.multiply_mv = impl.multiply_mv
        self.multiply_mm = impl.multiply_mm
        self.inner_product = impl.inner_product
        self.fidelity = impl.fidelity
        self.vkron = impl.vkron
        self.mkron = impl.mkron
        self.identity = impl.identity
        self.conjugate_transpose = impl.conjugate_transpose
        self.node_count = impl.node_count
        self.vnodes = impl.vnodes
        self.norm_contributions = impl.norm_contributions

    @property
    def backend(self) -> DDBackend:
        """The engine behind this facade."""
        return self._backend

    @property
    def cache_limit(self) -> int:
        """Per-compute-cache entry bound (flush threshold)."""
        return self._backend.cache_limit

    @cache_limit.setter
    def cache_limit(self, value: int) -> None:
        self._backend.cache_limit = value

    # ------------------------------------------------------------------
    # Cold paths: explicit delegation
    # ------------------------------------------------------------------

    def clear_caches(self) -> None:
        """Flush all compute caches (unique tables are left intact)."""
        self._backend.clear_caches()

    def unique_table_sizes(self) -> dict[str, int]:
        """Return the current live-node counts of both unique tables."""
        return self._backend.unique_table_sizes()

    def enable_metrics(self, enabled: bool = True) -> None:
        """Turn per-cache hit/miss counting on or off."""
        self._backend.enable_metrics(enabled)

    def attach_recorder(self, recorder: "Recorder | None") -> None:
        """Attach a :class:`repro.obs.Recorder` and enable counting."""
        self._backend.attach_recorder(recorder)

    def cache_stats(self) -> dict[str, Any]:
        """Per-compute-cache statistics document (see the backend docs)."""
        return self._backend.cache_stats()

    def integrity_problems(self, check_caches: bool = True) -> list[str]:
        """Audit the backend's storage; see
        :meth:`repro.dd.backends.DDBackend.integrity_problems`."""
        return self._backend.integrity_problems(check_caches=check_caches)

    def __getattr__(self, name: str) -> Any:
        # Unknown attributes fall through to the backend.  This keeps
        # privileged friends (DDSan, white-box tests) working against
        # backend internals without widening the facade; ordinary code
        # must not rely on it (ddlint rule DD006).
        backend = self.__dict__.get("_backend")
        if backend is None:
            raise AttributeError(name)
        return getattr(backend, name)


_DEFAULT_PACKAGE: Package | None = None


def default_package() -> Package:
    """Return the process-wide default :class:`Package`, creating it lazily.

    The default is rebuilt when the resolved backend selection (CLI
    override or ``REPRO_DD_BACKEND``) no longer matches the existing
    instance's backend, so a backend choice made before first use — or
    between uses — is always respected.
    """
    global _DEFAULT_PACKAGE
    wanted = default_backend_name()
    if _DEFAULT_PACKAGE is None or _DEFAULT_PACKAGE.backend_name != wanted:
        _DEFAULT_PACKAGE = Package()
    return _DEFAULT_PACKAGE


def reset_default_package() -> None:
    """Drop the process-wide default package; the next use gets a fresh one.

    Used by tests that need a clean unique table, and called on entry by
    forked workers so a parent-initialized default (and its interned
    nodes) never leaks into a worker process.  The replacement is built
    lazily by :func:`default_package` so the reset itself never touches
    backend resolution (cheap in fork workers, and a misconfigured
    ``REPRO_DD_BACKEND`` only fails where a package is actually used).
    """
    global _DEFAULT_PACKAGE
    _DEFAULT_PACKAGE = None


def set_default_backend(name: str | None) -> None:
    """Select the backend for subsequently created packages.

    Thin wrapper over
    :func:`repro.dd.backends.set_backend_override` (None clears the
    override); :func:`default_package` picks the change up on its next
    call without an explicit reset.

    Raises:
        ValueError: For an unknown backend name.
    """
    set_backend_override(name)
