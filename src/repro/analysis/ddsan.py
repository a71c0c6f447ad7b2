"""DDSan — a runtime sanitizer for decision-diagram invariants.

Where :mod:`repro.analysis.ddlint` rejects code *shapes* that can break
the DD representation, DDSan verifies at runtime that they actually
held: after every gate application and every approximation round of an
instrumented simulation it re-checks

* the **state diagram** invariants of :mod:`repro.dd.validate`
  (level discipline, norm normalization, phase canonicality,
  hash-consed uniqueness, unit root norm);
* the analogous **matrix diagram** invariants (level discipline,
  largest-weight-one normalization, hash-consed uniqueness) via
  :func:`collect_operator_violations`;
* **unique-table integrity**: every interned node's recomputed key must
  still map to that node — a mismatch means a hash-consed node was
  mutated after interning (a stale entry), the exact corruption ddlint
  rule DD003 exists to prevent;
* **compute-cache integrity**: cached result edges must reference
  *canonical* (interned) nodes, otherwise cache hits resurrect
  un-normalized structure.

Like ASan, the mode is opt-in and deliberately thorough rather than
fast: table and cache audits are linear in the live-node and cache
population and run after every operation.  Enable it with
``REPRO_DDSAN=1`` in the environment or ``repro-sim run --ddsan``; the
first violation aborts the run with the offending operation index,
gate name, and approximation round.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..dd import ctable
from ..dd.matrix import OperatorDD
from ..dd.node import MNode
from ..dd.package import Package
from ..dd.validate import InvariantViolation, collect_violations
from ..dd.vector import StateDD

__all__ = [
    "SanitizerError",
    "Sanitizer",
    "audit_package",
    "check_operator_invariants",
    "collect_operator_violations",
    "ddsan_enabled",
]

#: Environment variable that switches the sanitizer on globally.
ENV_FLAG = "REPRO_DDSAN"

#: Multiples of the ctable tolerance granted to *derived* quantities
#: (norms, magnitudes): snapping may move each weight by up to one
#: tolerance, so products and sums of two weights can drift by a few.
_SLACK = 16.0


def ddsan_enabled(environ: dict[str, str] | None = None) -> bool:
    """True when ``REPRO_DDSAN`` requests sanitized execution."""
    env = os.environ if environ is None else environ
    return env.get(ENV_FLAG, "").strip().lower() in ("1", "true", "on", "yes")


class SanitizerError(InvariantViolation):
    """A DD invariant violated during a sanitized run.

    Attributes:
        problems: All findings from the failing check.
        op_index: Index of the operation after which the check ran
            (None for standalone checks).
        gate: Name of that operation's gate, when known.
        round_index: Index of the approximation round just applied,
            when the check ran after a round.
    """

    def __init__(
        self,
        problems: list[str],
        op_index: int | None = None,
        gate: str | None = None,
        round_index: int | None = None,
    ):
        context = []
        if op_index is not None:
            context.append(f"after operation {op_index}")
        if gate is not None:
            context.append(f"gate {gate!r}")
        if round_index is not None:
            context.append(f"approximation round {round_index}")
        where = " (" + ", ".join(context) + ")" if context else ""
        head = problems[0] if problems else "unknown violation"
        more = f" [+{len(problems) - 1} more]" if len(problems) > 1 else ""
        super().__init__(f"DDSan: {head}{where}{more}")
        self.problems = problems
        self.op_index = op_index
        self.gate = gate
        self.round_index = round_index


# ----------------------------------------------------------------------
# Matrix-diagram invariants (the validate.py counterpart for MNodes)
# ----------------------------------------------------------------------


def _operator_nodes(operator: OperatorDD) -> list[MNode]:
    """All distinct nodes of a matrix diagram (top-down level order)."""
    _weight, root = operator.edge
    if root is None:
        return []
    seen: set[int] = set()
    collected: list[MNode] = []
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


def collect_operator_violations(operator: OperatorDD) -> list[str]:
    """Return all invariant violations of a matrix decision diagram.

    Checked invariants (mirroring :func:`repro.dd.validate.collect_violations`
    for states, adapted to the matrix normalization of
    :meth:`repro.dd.package.Package.make_medge`):

    1. **Level discipline** — children live one level down (or at the
       terminal for level 0); zero-weight edges point at the terminal.
    2. **Largest-weight normalization** — no edge weight exceeds
       magnitude 1 (within slack) and the first maximal-magnitude edge
       carries weight exactly 1.
    3. **Hash-consing** — no two distinct node objects are structurally
       identical within tolerance.
    """
    tolerance = ctable.tolerance()
    slack = _SLACK * tolerance
    problems: list[str] = []

    _weight, root = operator.edge
    if root is None:
        return problems
    if root.level != operator.num_qubits - 1:
        problems.append(
            f"root level {root.level} != num_qubits-1 "
            f"({operator.num_qubits - 1})"
        )

    seen_keys: dict[tuple, MNode] = {}
    for node in _operator_nodes(operator):
        magnitudes = []
        for index, (weight, child) in enumerate(node.edges):
            magnitude = abs(weight)
            magnitudes.append(magnitude)
            # 1. level discipline
            if ctable.is_zero(weight):
                if child is not None:
                    problems.append(
                        f"zero edge {index} at level {node.level} does not "
                        "point at the terminal"
                    )
            elif node.level == 0:
                if child is not None:
                    problems.append(
                        f"level-0 edge {index} does not reach the terminal"
                    )
            elif child is None:
                problems.append(
                    f"nonzero edge {index} at level {node.level} skips to "
                    "the terminal"
                )
            elif child.level != node.level - 1:
                problems.append(
                    f"level skip on edge {index}: "
                    f"{node.level} -> {child.level}"
                )
            # 2a. no edge may exceed unit magnitude
            if magnitude > 1.0 + slack:
                problems.append(
                    f"edge {index} at level {node.level} has magnitude "
                    f"{magnitude:.6f} > 1"
                )
        # 2b. the first maximal-magnitude edge is exactly 1
        peak = max(magnitudes)
        if peak <= slack:
            problems.append(
                f"node at level {node.level} has all-zero edges (should "
                "have collapsed to the zero edge)"
            )
        else:
            leader = next(
                index
                for index, magnitude in enumerate(magnitudes)
                if magnitude >= peak - slack
            )
            if abs(node.edges[leader][0] - 1.0) > slack:
                problems.append(
                    f"node at level {node.level} normalization leader "
                    f"(edge {leader}) is {node.edges[leader][0]:.6g}, "
                    "expected 1"
                )
        # 3. hash consing
        key = (node.level,) + tuple(
            item
            for weight, child in node.edges
            for item in (ctable.weight_key(weight), id(child))
        )
        if key in seen_keys:
            problems.append(
                f"duplicate structural node at level {node.level}"
            )
        seen_keys[key] = node

    return problems


def check_operator_invariants(operator: OperatorDD) -> None:
    """Raise :class:`SanitizerError` on the first matrix-DD violation."""
    problems = collect_operator_violations(operator)
    if problems:
        raise SanitizerError(problems)


# ----------------------------------------------------------------------
# Package integrity audits (unique tables, compute caches)
# ----------------------------------------------------------------------


def audit_package(
    package: Package, check_caches: bool = True
) -> list[str]:
    """Audit a package's unique tables, compute caches, and backend storage.

    Delegates to the backend's
    :meth:`repro.dd.backends.DDBackend.integrity_problems` — each engine
    audits its own storage layout (the reference backend checks its weak
    tables and object-keyed caches, the arena additionally verifies that
    every node's id round-trips through its slot).  The common contract:

    Unique tables: every entry's key must equal the key recomputed from
    the node it maps to — a mismatch is a *stale entry*, the signature
    of a node mutated after interning (or interned under a forged key).
    Two entries recomputing to the same key are *duplicates* — a
    hash-consing failure.

    Compute caches: every cached result edge must reference a canonical
    node, i.e. one the unique table resolves its own key back to.
    """
    return package.integrity_problems(check_caches=check_caches)


# ----------------------------------------------------------------------
# The simulation-time sanitizer
# ----------------------------------------------------------------------


@dataclass
class Sanitizer:
    """Invariant checker invoked by the simulator during sanitized runs.

    Attributes:
        package: The DD package under audit.
        check_state: Verify state-diagram invariants after each step.
        check_tables: Audit unique tables after each step.
        check_caches: Audit compute caches after each step.
        checks_run: Number of checkpoints executed (for reporting).
    """

    package: Package
    check_state: bool = True
    check_tables: bool = True
    check_caches: bool = True
    checks_run: int = field(default=0, init=False)

    def _collect(self, state: StateDD | None) -> list[str]:
        problems: list[str] = []
        if self.check_state and state is not None:
            problems.extend(collect_violations(state))
        if self.check_tables or self.check_caches:
            table_problems = audit_package(
                self.package, check_caches=self.check_caches
            )
            if not self.check_tables:
                table_problems = [
                    problem
                    for problem in table_problems
                    if "compute cache" in problem
                ]
            problems.extend(table_problems)
        return problems

    def check_after_operation(
        self, state: StateDD, op_index: int, gate: str | None = None
    ) -> None:
        """Verify invariants after a gate application.

        Raises:
            SanitizerError: On the first violated invariant, tagged with
                the operation index and gate name.
        """
        self.checks_run += 1
        problems = self._collect(state)
        if problems:
            raise SanitizerError(problems, op_index=op_index, gate=gate)

    def check_after_round(
        self, state: StateDD, op_index: int, round_index: int
    ) -> None:
        """Verify invariants after an approximation round.

        Raises:
            SanitizerError: Tagged with both the operation index and the
                approximation-round index.
        """
        self.checks_run += 1
        problems = self._collect(state)
        if problems:
            raise SanitizerError(
                problems, op_index=op_index, round_index=round_index
            )

    def check_operator(
        self, operator: OperatorDD, op_index: int | None = None
    ) -> None:
        """Verify matrix-diagram invariants (matrix-matrix simulation).

        Raises:
            SanitizerError: On the first violated invariant.
        """
        self.checks_run += 1
        problems = collect_operator_violations(operator)
        if self.check_tables or self.check_caches:
            problems.extend(
                audit_package(self.package, check_caches=self.check_caches)
            )
        if problems:
            raise SanitizerError(problems, op_index=op_index)
