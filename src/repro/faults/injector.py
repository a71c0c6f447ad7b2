"""The fault injector: armed plans, site firing, and fault execution.

The runtime threads named injection sites through its choke points
(artifact writes, checkpoint persistence, worker entry, the gate loop).
Each site is one call to :func:`inject`:

* **Disarmed** (the default): :func:`inject` is a module-global read
  plus a ``None`` check — no allocation, no dict lookup, no clock read.
  Hot loops additionally resolve :func:`get_injector` once and guard on
  the local, making the per-gate cost a single ``is None`` branch.
* **Armed** (``REPRO_FAULTS=<plan.json>`` or an explicit
  :func:`arm` / ``--fault-plan``): every visit is matched against the
  plan's rules; a firing rule raises the configured exception, kills
  the process, or corrupts the file named by the site's context.

Arming is process-wide and inherited by forked pool workers, so one
plan drives a whole :class:`~repro.service.engine.JobEngine` batch.
Hit counters are per-process unless the plan names a ``state_dir``,
in which case counts persist across process boundaries (a ``kill``
rule with ``max_hits: 1`` then fires exactly once per chaos run).
"""

from __future__ import annotations

import errno
import os
import signal
import time
from dataclasses import dataclass

from ..obs import get_recorder
from .errors import (
    PartialWriteFault,
    PermanentFault,
    StaleReplicaFault,
    TransientFault,
)
from .plan import FILE_KINDS, FaultPlan, FaultRule

ENV_PLAN = "REPRO_FAULTS"


@dataclass
class InjectedFault:
    """Record of one fired rule (for reporting and tests).

    Attributes:
        site: Site that fired.
        kind: Fault kind executed.
        rule_index: Index of the rule in the plan.
        visit: 1-based matching-visit number that triggered it.
        context: The site context at firing time (path, op_index, ...).
    """

    site: str
    kind: str
    rule_index: int
    visit: int
    context: dict


class FaultInjector:
    """Executes an armed :class:`FaultPlan` against site visits.

    Args:
        plan: The plan to execute.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._visits: list[int] = [0] * len(plan.rules)
        self.fired: list[InjectedFault] = []

    # ------------------------------------------------------------------
    # Cross-process hit accounting
    # ------------------------------------------------------------------

    def _counter_path(self, rule_index: int) -> str:
        assert self.plan.state_dir is not None
        return os.path.join(
            self.plan.state_dir, f"rule-{rule_index}.visits"
        )

    def _next_visit(self, rule_index: int) -> int:
        """Count one matching visit; returns the 1-based visit number.

        With a ``state_dir`` the count is a file that grows one byte per
        visit, so forked/restarted workers share one monotonic stream.
        The visit number is the file offset right after this process's
        own ``O_APPEND`` write, so concurrent visitors never share one.
        """
        if self.plan.state_dir is None:
            self._visits[rule_index] += 1
            return self._visits[rule_index]
        os.makedirs(self.plan.state_dir, exist_ok=True)
        path = self._counter_path(rule_index)
        descriptor = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(descriptor, b".")
            return os.lseek(descriptor, 0, os.SEEK_CUR)
        finally:
            os.close(descriptor)

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------

    def fire(self, site: str, **context: object) -> None:
        """Visit ``site``; execute the first matching rule that triggers.

        Raises whatever the matched rule's kind dictates (or kills the
        process / corrupts the context file).  Returns normally when no
        rule fires.
        """
        for rule_index, rule in enumerate(self.plan.rules):
            if rule.site != site:
                continue
            if rule.at_op is not None and context.get("op_index") != rule.at_op:
                continue
            if any(
                context.get(key) != value
                for key, value in rule.match.items()
            ):
                continue
            visit = self._next_visit(rule_index)
            if visit <= rule.after_hits:
                continue
            if (
                rule.max_hits is not None
                and visit > rule.after_hits + rule.max_hits
            ):
                continue
            if not self.plan.decides_to_fire(rule_index, visit):
                continue
            self._execute(rule, rule_index, visit, dict(context))

    def _execute(
        self, rule: FaultRule, rule_index: int, visit: int, context: dict
    ) -> None:
        """Carry out one fired rule."""
        record = InjectedFault(
            site=rule.site,
            kind=rule.kind,
            rule_index=rule_index,
            visit=visit,
            context=context,
        )
        self.fired.append(record)
        obs = get_recorder()
        if obs.enabled:
            obs.count("faults.injected")
            obs.event(
                "fault",
                site=rule.site,
                fault_kind=rule.kind,
                rule=rule_index,
                visit=visit,
                op_index=context.get("op_index"),
            )
        where = f"{rule.site} (rule {rule_index}, visit {visit})"
        if rule.kind == "io_error":
            raise OSError(f"injected I/O fault at {where}")
        if rule.kind == "memory_error":
            raise MemoryError(f"injected memory pressure at {where}")
        if rule.kind == "transient":
            raise TransientFault(f"injected transient fault at {where}")
        if rule.kind == "permanent":
            raise PermanentFault(f"injected permanent fault at {where}")
        if rule.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("unreachable: SIGKILL returned")
        if rule.kind == "conn_refused":
            raise ConnectionRefusedError(
                f"injected connection refused at {where}"
            )
        if rule.kind == "partial_write":
            raise PartialWriteFault(f"injected partial write at {where}")
        if rule.kind == "enospc":
            raise OSError(
                errno.ENOSPC, f"injected disk-full fault at {where}"
            )
        if rule.kind == "replica_down":
            raise OSError(
                errno.EHOSTUNREACH,
                f"injected unreachable replica at {where}",
            )
        if rule.kind == "stale_replica":
            raise StaleReplicaFault(
                f"injected lying fsync (acked, dropped) at {where}"
            )
        if rule.kind == "slow":
            delay = rule.args.get("delay_seconds", 0.05)
            time.sleep(max(0.0, float(delay)))  # type: ignore[arg-type]
            return
        if rule.kind in FILE_KINDS:
            path = context.get("path")
            if not isinstance(path, str) or not os.path.exists(path):
                return  # nothing on disk to damage at this visit
            _damage_file(path, rule)
            return
        raise ValueError(f"unhandled fault kind {rule.kind!r}")


def _damage_file(path: str, rule: FaultRule) -> None:
    """Apply a ``truncate`` or ``corrupt`` rule to the file in place."""
    size = os.path.getsize(path)
    if size == 0:
        return
    if rule.kind == "truncate":
        keep_raw = rule.args.get("keep_bytes", size // 2)
        keep = max(0, min(size - 1, int(keep_raw)))  # type: ignore[call-overload]
        with open(path, "r+b") as handle:
            handle.truncate(keep)
        return
    # corrupt: flip every bit of one byte (deterministic offset).
    offset_raw = rule.args.get("offset", size // 2)
    offset = max(0, min(size - 1, int(offset_raw)))  # type: ignore[call-overload]
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


# ----------------------------------------------------------------------
# Process-wide arming
# ----------------------------------------------------------------------

_INJECTOR: FaultInjector | None = None
_env_checked = False


def arm(plan: FaultPlan) -> FaultInjector:
    """Install ``plan`` as the process-wide armed fault plan."""
    global _INJECTOR
    _INJECTOR = FaultInjector(plan)
    return _INJECTOR


def arm_from_path(path: str) -> FaultInjector:
    """Load a plan file and arm it (the ``--fault-plan`` entry point)."""
    return arm(FaultPlan.load(path))


def disarm() -> None:
    """Remove the armed plan; every site becomes a no-op again."""
    global _INJECTOR, _env_checked
    _INJECTOR = None
    _env_checked = True  # an explicit disarm beats the environment


def get_injector() -> FaultInjector | None:
    """The armed injector, or None.

    On first call, consults the :data:`ENV_PLAN` environment variable;
    afterwards this is one global read and a ``None`` check.
    """
    global _env_checked, _INJECTOR
    if _INJECTOR is None and not _env_checked:
        _env_checked = True
        path = os.environ.get(ENV_PLAN)
        if path:
            _INJECTOR = FaultInjector(FaultPlan.load(path))
    return _INJECTOR


def inject(site: str, **context: object) -> None:
    """Fire ``site`` against the armed plan; free when disarmed."""
    injector = get_injector()
    if injector is not None:
        injector.fire(site, **context)
