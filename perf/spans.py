"""Outside-in layer tracing: timing shims on the package's public entry points.

A :class:`Tracer` keeps spans in memory as ``(name, start, end, parent)``
rows.  :func:`shims` installs wrappers on module attributes, class
attributes and object attributes, and restores every original on exit, so
nothing is left patched once the traced operation ends.  A layer's self
time is its span's duration minus the part of that interval its child
spans cover (:func:`self_times`).

:class:`LayerTrace` puts shims on every layer entry point for the length
of a ``with`` block.  Only the traced child process (``perf/child.py``)
enters one; the timed, untraced runs never patch anything.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections.abc import Callable, Iterable, Iterator
from typing import Any

#: Span row: (name, start, end, parent index or -1).
Span = tuple[str, float, float, int]

#: Shim target: set ``obj.attribute = wrapper`` while tracing.
Target = tuple[Any, str, Callable[..., Any]]

#: Module-attribute entry points, as ``(module, attribute, span name)``.
#: Each is the name a caller inside the package looks up at call time,
#: so wrapping the attribute catches every call on the production path.
MODULE_ENTRY_POINTS = (
    ("repro.core.simulator", "operation_to_medge", "circuits.lower"),
    ("repro.core.strategies", "approximate_state", "core.approx.round"),
    ("repro.core.simulator", "approximate_state", "core.approx.round"),
    ("repro.core.approximation", "node_contributions",
     "core.approx.contributions"),
    ("repro.core.approximation", "select_nodes_for_removal",
     "core.approx.select"),
    ("repro.core.approximation", "rebuild_without", "core.approx.rebuild"),
    ("repro.service.checkpoint", "state_to_dict", "dd.serialize.checkpoint"),
    ("repro.service.engine", "state_to_dict", "dd.serialize.result"),
)

#: Class-attribute entry points: every simulation, whether started by
#: ``simulate()`` or by the service engine, runs ``DDSimulator.run``, and
#: every periodic checkpoint goes through ``CheckpointWriter.__call__``.
CLASS_ENTRY_POINTS = (
    ("repro.core.simulator", "DDSimulator", "run", "core.simulate"),
    ("repro.service.checkpoint", "CheckpointWriter", "__call__",
     "service.checkpoint"),
)

#: ``Package`` instance attributes.  The facade binds its hot operations
#: per instance, so they are wrapped on each package the trace sees.
PACKAGE_ENTRY_POINTS = (
    ("multiply_mv", "dd.multiply_mv"),
    ("node_count", "dd.node_count"),
    ("fidelity", "core.approx.fidelity"),
)

#: ``ArtifactStore`` methods, wrapped on the replay's store instance.
STORE_ENTRY_POINTS = (
    "save_checkpoint",
    "put_result",
    "load_result",
    "clear_checkpoint",
)

#: Compute caches whose hit rates the trace reports.
TRACED_CACHES = ("mv", "vadd", "inner")


def empty_dd_counters() -> dict:
    """Zeroed DD counters; ``cache`` maps a cache to ``[hits, misses]``."""
    return {
        "vnodes_created": 0,
        "unique_vnodes_end": 0,
        "cache_flushes": 0,
        "cache": {name: [0, 0] for name in TRACED_CACHES},
    }


class Tracer:
    """In-memory span recorder for one traced operation."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._rows: list[list[Any]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """Return ``function`` wrapped so each call records a span."""
        rows = self._rows
        stack = self._stack
        clock = self.clock

        def shim(*args: Any, **kwargs: Any) -> Any:
            row = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(rows))
            rows.append(row)
            row[1] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        shim.__wrapped__ = function  # type: ignore[attr-defined]
        return shim

    def spans(self) -> list[Span]:
        """Every span recorded so far, in start order."""
        return [(row[0], row[1], row[2], row[3]) for row in self._rows]


def self_times(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Aggregate spans by name into ``self_s``, ``total_s`` and ``calls``.

    Self time is each span's duration minus the union of its children's
    intervals, clipped to the span, so overlapping children count once.
    """
    rows = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent in rows:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    table: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _parent) in enumerate(rows):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = table.setdefault(
            name, {"self_s": 0.0, "total_s": 0.0, "calls": 0}
        )
        entry["self_s"] += (end - start) - covered
        entry["total_s"] += end - start
        entry["calls"] += 1
    return table


@contextlib.contextmanager
def shims(targets: Iterable[Target]) -> Iterator[None]:
    """Set ``obj.attribute = wrapper`` for each target; restore all on exit.

    An attribute the object did not hold in its own ``__dict__`` (a
    method found on its class) is deleted again rather than re-set, so
    the object is left exactly as it was.
    """
    saved: list[tuple[Any, str, bool, Any]] = []
    try:
        for obj, attribute, wrapper in targets:
            own = attribute in vars(obj)
            saved.append((obj, attribute, own, vars(obj).get(attribute)))
            setattr(obj, attribute, wrapper)
        yield
    finally:
        for obj, attribute, own, original in reversed(saved):
            if own:
                setattr(obj, attribute, original)
            else:
                delattr(obj, attribute)


class LayerTrace:
    """Shims on every layer entry point for the length of a ``with`` block.

    Args:
        package: A ``Package`` the caller already built (the simulation
            workloads); packages the service engine builds inside a job
            are picked up through a wrapped constructor.
        store: The ``ArtifactStore`` a job replay writes to.

    Packages seen by the trace get per-cache hit counting turned on.  Each
    ``execute_job`` call ends by folding its packages' DD counters into
    :attr:`dd` and dropping them (:meth:`harvest`), so a long replay does
    not keep every job's diagram alive; a caller-built package is
    harvested on exit.
    """

    def __init__(self, package: Any = None, store: Any = None) -> None:
        self.tracer = Tracer()
        self.dd = empty_dd_counters()
        self._package = package
        self._store = store
        self._adopted: list[tuple[Any, contextlib.ExitStack]] = []
        self._stack = contextlib.ExitStack()

    def __enter__(self) -> "LayerTrace":
        wrap = self.tracer.wrap
        targets: list[Target] = []
        for module_name, attribute, name in MODULE_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            targets.append((module, attribute, wrap(name, getattr(module, attribute))))
        for module_name, class_name, attribute, name in CLASS_ENTRY_POINTS:
            cls = getattr(importlib.import_module(module_name), class_name)
            targets.append((cls, attribute, wrap(name, vars(cls)[attribute])))
        engine = importlib.import_module("repro.service.engine")
        construct = engine.Package
        execute = engine.execute_job

        def traced_package(*args: Any, **kwargs: Any) -> Any:
            return self.adopt(construct(*args, **kwargs))

        def execute_and_harvest(*args: Any, **kwargs: Any) -> Any:
            # Harvest inside the job's span: dropping the job's package
            # frees its diagram there, as it does untraced.
            try:
                return execute(*args, **kwargs)
            finally:
                self.harvest()

        targets.append((engine, "Package", traced_package))
        targets.append(
            (engine, "execute_job", wrap("service.execute_job", execute_and_harvest))
        )
        if self._store is not None:
            targets.extend(
                (self._store, method,
                 wrap(f"service.store.{method}", getattr(self._store, method)))
                for method in STORE_ENTRY_POINTS
            )
        self._stack.enter_context(shims(targets))
        if self._package is not None:
            self.adopt(self._package)
        return self

    def __exit__(self, *exc: object) -> None:
        try:
            self.harvest()
        finally:
            self._stack.close()

    def adopt(self, package: Any) -> Any:
        """Wrap ``package``'s hot operations and count its cache hits."""
        package.enable_metrics()
        stack = contextlib.ExitStack()
        stack.enter_context(shims(
            (package, attribute, self.tracer.wrap(name, getattr(package, attribute)))
            for attribute, name in PACKAGE_ENTRY_POINTS
        ))
        self._adopted.append((package, stack))
        return package

    def harvest(self) -> None:
        """Fold adopted packages' counters into :attr:`dd`; restore them."""
        while self._adopted:
            package, stack = self._adopted.pop()
            stack.callback(package.enable_metrics, False)
            with stack:
                self.dd["vnodes_created"] += package.stats["vnodes_created"]
                self.dd["unique_vnodes_end"] += package.unique_table_sizes()["vector"]
                caches = package.cache_stats()["caches"]
                self.dd["cache_flushes"] += sum(
                    entry["flushes"] for entry in caches.values()
                )
                for name in TRACED_CACHES:
                    self.dd["cache"][name][0] += caches[name]["hits"]
                    self.dd["cache"][name][1] += caches[name]["misses"]

    def layers(self) -> dict[str, dict[str, float]]:
        """Self time, total time and calls per span name."""
        return self_times(self.tracer.spans())
