"""Structural invariant checking for decision diagrams.

A debugging companion for engine development and a safety net for the
test suite: verifies the representation invariants that every
:class:`repro.dd.vector.StateDD` produced through the package must hold.

Checked invariants (see docs/THEORY.md §1):

1. **Level discipline** — a node at level ``l`` has children at level
   ``l - 1`` (or the terminal when ``l == 0``); zero-weight edges point
   at the terminal.
2. **Norm normalization** — every node's outgoing weights satisfy
   ``|w0|² + |w1|² = 1`` within tolerance.
3. **Phase canonicality** — the first nonzero weight of every node is
   real and non-negative.
4. **Hash-consing** — no two distinct node objects are structurally
   identical (level, children, weights within tolerance).
5. **Unit norm** (optional) — the root weight has magnitude 1.

All comparisons go through the global tolerance of
:mod:`repro.dd.ctable` rather than exact float equality or hardcoded
epsilons, so tightening or loosening the interning tolerance tightens
or loosens validation with it.  *Derived* quantities (norms, products
of weights) are granted a small multiple of the tolerance
(:data:`repro.dd.ctable.TOLERANCE_SLACK`): snapping may legally move
each stored weight by up to one tolerance, so sums of squared
magnitudes drift by a few.
"""

from __future__ import annotations

from .node import VNode
from . import ctable
from .package import Package
from .vector import StateDD


class InvariantViolation(AssertionError):
    """Raised when a diagram violates a representation invariant."""


def check_state_invariants(
    state: StateDD, require_unit_norm: bool = True
) -> None:
    """Verify all structural invariants of a state diagram.

    Args:
        state: The diagram to check.
        require_unit_norm: Also require the root weight to have
            magnitude 1 (disable for intentionally unnormalized edges).

    Raises:
        InvariantViolation: Describing the first violated invariant.
    """
    problems = collect_violations(state, require_unit_norm)
    if problems:
        raise InvariantViolation("; ".join(problems))


def collect_violations(
    state: StateDD, require_unit_norm: bool = True
) -> list[str]:
    """Like :func:`check_state_invariants` but returns all findings."""
    slack = ctable.TOLERANCE_SLACK * ctable.tolerance()
    problems: list[str] = []

    weight, root = state.edge
    if root is None:
        if not ctable.is_zero(weight):
            problems.append("terminal root with nonzero weight")
        return problems
    if require_unit_norm and abs(abs(weight) - 1.0) > slack:
        problems.append(
            f"root weight magnitude {abs(weight):.3g} is not 1"
        )
    if root.level != state.num_qubits - 1:
        problems.append(
            f"root level {root.level} != num_qubits-1 "
            f"({state.num_qubits - 1})"
        )

    seen_keys: dict[tuple, VNode] = {}
    for node in state.nodes():
        (w0, c0), (w1, c1) = node.edges

        # 1. level discipline
        for weight_k, child in ((w0, c0), (w1, c1)):
            if ctable.is_zero(weight_k):
                if child is not None:
                    problems.append(
                        f"zero edge at level {node.level} does not point "
                        "at the terminal"
                    )
            elif node.level == 0:
                if child is not None:
                    problems.append("level-0 edge does not reach terminal")
            elif child is None:
                problems.append(
                    f"nonzero edge at level {node.level} skips to terminal"
                )
            elif child.level != node.level - 1:
                problems.append(
                    f"level skip: {node.level} -> {child.level}"
                )

        # 2. norm normalization
        norm_sq = abs(w0) ** 2 + abs(w1) ** 2
        if abs(norm_sq - 1.0) > slack:
            problems.append(
                f"node at level {node.level} has edge-norm² {norm_sq:.6f}"
            )

        # 3. phase canonicality
        first = w1 if ctable.is_zero(w0) else w0
        if abs(first.imag) > slack or first.real < -slack:
            problems.append(
                f"node at level {node.level} first weight {first:.3g} "
                "is not real non-negative"
            )

        # 4. hash consing
        key = (
            node.level,
            ctable.weight_key(w0),
            id(c0),
            ctable.weight_key(w1),
            id(c1),
        )
        if key in seen_keys:
            problems.append(
                f"duplicate structural node at level {node.level}"
            )
        seen_keys[key] = node

    return problems


def collect_backend_violations(
    package: "Package", check_caches: bool = True
) -> list[str]:
    """Audit a package's *storage* (unique tables, caches, arena slots).

    The storage-level companion of :func:`collect_violations`: where that
    function checks the invariants of one state diagram, this one checks
    the engine underneath — delegated to the backend's
    :meth:`repro.dd.backends.DDBackend.integrity_problems`, so each
    engine audits its own layout (the arena additionally verifies that
    every node's id round-trips through its slot).

    Args:
        package: The package whose backend storage to audit.
        check_caches: Also audit compute-cache canonicality.

    Returns:
        Human-readable findings; empty when the storage is consistent.
    """
    return package.integrity_problems(check_caches=check_caches)
