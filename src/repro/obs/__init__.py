"""Observability: counters, timers, and structured trace events.

``repro.obs`` is the zero-dependency instrumentation layer threaded
through the hot paths of the simulator stack:

* :mod:`repro.dd.package` — unique-table sizes, per-compute-cache
  hit/miss/flush counts (see :meth:`repro.dd.package.Package.cache_stats`);
* :mod:`repro.core.simulator` — per-gate wall time and the node-count
  trajectory;
* :mod:`repro.core.strategies` — threshold doublings and per-round
  fidelity spent;
* :mod:`repro.service.engine` — job lifecycle events (queued, started,
  cached, resumed, retried).

The central object is the :class:`Recorder`.  A *disabled* recorder is a
true no-op — every method early-returns after one attribute check — so
instrumented code can call it unconditionally without measurable cost
(guarded to <5 % on ``bench_dd_operations``).  The process-wide active
recorder is managed with :func:`get_recorder` / :func:`set_recorder` /
:func:`recording`.

See ``docs/OBSERVABILITY.md`` for the metric-name registry and the
JSONL trace event schema.
"""

from .recorder import (
    NULL_RECORDER,
    Recorder,
    TimerStat,
    get_recorder,
    recording,
    set_recorder,
)
from .report import metrics_report
from .trace import (
    TRACE_SCHEMA_VERSION,
    read_trace,
    summarize_trace,
    validate_event,
    write_trace,
)

__all__ = [
    "NULL_RECORDER",
    "Recorder",
    "TimerStat",
    "TRACE_SCHEMA_VERSION",
    "get_recorder",
    "metrics_report",
    "read_trace",
    "recording",
    "set_recorder",
    "summarize_trace",
    "validate_event",
    "write_trace",
]
