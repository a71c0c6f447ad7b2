"""Backend registry: names, selection precedence, lazy construction.

Two backends are registered (see docs/BACKENDS.md):

* ``arena`` — the production engine: integer-id arena storage whose
  vector hot path is a C extension built on first use
  (:mod:`repro.dd.backends.arena`, :mod:`repro.dd.backends.native`);
  imported lazily, on first construction.
* ``reference`` — the original hash-consed object engine
  (:mod:`repro.dd.backends.reference`), kept as the differential oracle
  the arena is pinned against; importable without numpy.

Selection precedence, strongest first:

1. Explicit ``Package(backend=...)`` argument.
2. The process-wide override set by :func:`set_backend_override`
   (the CLI ``--backend`` flag lands here; forked workers inherit it).
3. The ``REPRO_DD_BACKEND`` environment variable.
4. The default: ``arena`` when its C core loads, else ``reference``.

Backend identity is *observability metadata only*: it is recorded in
result stats and obs counters but deliberately excluded from the
:class:`repro.service.jobs.JobSpec` content hash, because the
differential tests (``tests/backends``) pin both backends to identical
results — cached artifacts stay shared across backends.
"""

from __future__ import annotations

import os

from .base import CACHE_NAMES, DEFAULT_CACHE_LIMIT, DDBackend

__all__ = [
    "BACKEND_NAMES",
    "CACHE_NAMES",
    "DDBackend",
    "DEFAULT_CACHE_LIMIT",
    "ENV_VAR",
    "backend_override",
    "create_backend",
    "default_backend_name",
    "normalize_backend_name",
    "set_backend_override",
]

#: Registered backend names, in selection-menu order.
BACKEND_NAMES = ("reference", "arena")

#: Environment variable consulted when no override is set.
ENV_VAR = "REPRO_DD_BACKEND"

_override: str | None = None


def normalize_backend_name(name: str) -> str:
    """Validate and canonicalize a backend name.

    Raises:
        ValueError: For names not in :data:`BACKEND_NAMES`.
    """
    canonical = name.strip().lower()
    if canonical not in BACKEND_NAMES:
        raise ValueError(
            f"unknown DD backend {name!r}; "
            f"expected one of {', '.join(BACKEND_NAMES)}"
        )
    return canonical


def set_backend_override(name: str | None) -> None:
    """Set (or clear, with None) the process-wide backend override.

    This is how the CLI ``--backend`` flag flows into every
    subsequently created :class:`~repro.dd.package.Package` — including
    the process-global default and, because workers are forked, the
    packages built inside worker processes.

    Raises:
        ValueError: For an unknown backend name.
    """
    global _override
    _override = None if name is None else normalize_backend_name(name)


def backend_override() -> str | None:
    """Return the current process-wide override (None when unset)."""
    return _override


def default_backend_name(environ: dict[str, str] | None = None) -> str:
    """Resolve the backend used when construction passes none explicitly.

    Precedence: :func:`set_backend_override` > ``REPRO_DD_BACKEND`` >
    ``"arena"`` when its C core loads, ``"reference"`` otherwise.  The
    first default resolution in a process therefore builds the core if
    no cached build exists (see :mod:`repro.dd.backends.native`).

    Raises:
        ValueError: When the environment variable names an unknown
            backend (a silent fallback would mask typos).
    """
    if _override is not None:
        return _override
    env = os.environ if environ is None else environ
    from_env = env.get(ENV_VAR, "").strip()
    if from_env:
        return normalize_backend_name(from_env)
    from .native import load

    return "arena" if load()[0] is not None else "reference"


def create_backend(
    name: str | None = None, cache_limit: int = DEFAULT_CACHE_LIMIT
) -> DDBackend:
    """Instantiate a backend by name (None = resolved default).

    Both engine modules are imported lazily, so ``import repro.dd``
    loads neither, and the reference path never pulls in numpy.

    Raises:
        ValueError: For an unknown backend name.
        repro.dd.backends.native.NativeCoreUnavailable: For ``arena``
            when its C core cannot be built (a ``ValueError``).
    """
    canonical = (
        default_backend_name() if name is None else normalize_backend_name(name)
    )
    if canonical == "arena":
        from .arena import ArenaBackend

        return ArenaBackend(cache_limit=cache_limit)
    from .reference import ReferenceBackend

    return ReferenceBackend(cache_limit=cache_limit)
