"""Deterministic fault injection and the failure taxonomy.

The paper's memory-driven strategy (§IV-B) is a graceful-degradation
mechanism: approximate instead of exhausting memory.  ``repro.faults``
extends that stance to the whole runtime — every recovery path
(retry, checkpoint/resume, quarantine-and-recompute, emergency
approximation) is exercisable on demand under a seeded, replayable
:class:`FaultPlan`:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultRule`,
  the JSON scenario format with deterministic triggers (site, op index,
  hit counts, seeded probability) and the site/kind registries.
* :mod:`repro.faults.injector` — :class:`FaultInjector` plus the
  process-wide arming API (:func:`arm`, :func:`disarm`,
  :func:`get_injector`, :func:`inject`).  Disarmed sites cost one
  global read and a ``None`` check; the CI ``bench`` job times them on
  every change, since ``perf/`` runs with no plan armed.
* :mod:`repro.faults.errors` — the :class:`TransientFault` /
  :class:`PermanentFault` taxonomy, integrity errors, and
  :func:`classify_exception`, which the job engine uses to retry only
  what a retry can fix.

Arm via the ``REPRO_FAULTS=<plan.json>`` environment variable or the
CLI's ``--fault-plan``; see ``docs/FAULTS.md`` for a worked example.
"""

from .errors import (
    PERMANENT,
    TRANSIENT,
    ArtifactIntegrityError,
    CheckpointIntegrityError,
    LeaseIntegrityError,
    MemoryBudgetExceeded,
    PartialWriteFault,
    PermanentFault,
    TransientFault,
    classify_exception,
)
from .injector import (
    ENV_PLAN,
    FaultInjector,
    InjectedFault,
    arm,
    arm_from_path,
    disarm,
    get_injector,
    inject,
)
from .plan import KINDS, SITES, FaultPlan, FaultRule

__all__ = [
    "ENV_PLAN",
    "KINDS",
    "PERMANENT",
    "SITES",
    "TRANSIENT",
    "ArtifactIntegrityError",
    "CheckpointIntegrityError",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "LeaseIntegrityError",
    "MemoryBudgetExceeded",
    "PartialWriteFault",
    "PermanentFault",
    "TransientFault",
    "arm",
    "arm_from_path",
    "classify_exception",
    "disarm",
    "get_injector",
    "inject",
]
