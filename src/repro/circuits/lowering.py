"""Lowering circuit operations to matrix decision diagrams.

Gate application in DD-based simulation multiplies the state diagram by a
matrix diagram of the whole register.  This module builds those per-gate
matrix diagrams in ``O(num_qubits)`` nodes using the Kronecker-sum
construction:

.. math::

    M \\;=\\; A + (I - P), \\qquad
    A = \\bigotimes_q a_q, \\quad P = \\bigotimes_q p_q,

where ``a_q`` is the gate matrix at the target, :math:`|1\\rangle\\langle 1|`
at each control, and identity elsewhere; ``p_q`` equals ``a_q`` except for
identity at the target.  ``P`` projects onto the control-satisfied subspace,
so ``I - P`` contributes identity exactly on the paths where the controls
fail.  This handles any control/target layout — including controls below
the target — with three sparse diagrams and one addition pass.

Shor's modular-multiplication blocks (``cmodmul``) use the same scheme with
the bottom of the ``A`` chain replaced by a *permutation diagram* encoding
:math:`|x\\rangle \\mapsto |a \\cdot x \\bmod N\\rangle`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from ..dd.matrix import OperatorDD
from ..dd.node import MEdge, zero_medge
from ..dd.package import Package, default_package
from .circuit import Circuit, Operation
from .gates import gate_matrix

#: Projector onto |1> — the factor placed at control qubits.
_PROJ_ONE = np.array([[0, 0], [0, 1]], dtype=complex)


def _kron_chain(
    package: Package,
    num_qubits: int,
    factors: dict[int, np.ndarray],
    bottom: MEdge = (complex(1.0), None),
    bottom_levels: int = 0,
) -> MEdge:
    """Build ``(⊗ factors) ⊗ bottom`` as a matrix edge.

    Args:
        package: DD package to build in.
        num_qubits: Total number of levels in the result.
        factors: Map from level to a 2x2 factor; missing levels are identity.
        bottom: Pre-built edge occupying the lowest ``bottom_levels`` levels.
        bottom_levels: Number of levels covered by ``bottom``.
    """
    edge = bottom
    for level in range(bottom_levels, num_qubits):
        factor = factors.get(level)
        if factor is None:
            edge = package.make_medge(
                level, (edge, zero_medge(), zero_medge(), edge)
            )
            continue
        weight, node = edge
        # Row-major, as the quadrants of a matrix node.
        children = tuple(
            zero_medge() if entry == 0.0 or weight == 0.0 else (entry * weight, node)
            for entry in factor.ravel().tolist()
        )
        edge = package.make_medge(level, children)  # type: ignore[arg-type]
    return edge


def _permutation_block(
    package: Package, level: int, pairs: Sequence[tuple[int, int]]
) -> MEdge:
    """Diagram of the ``(row, col)`` ones below ``level``."""
    if not pairs:
        return zero_medge()
    if level < 0:
        return (complex(1.0), None)
    groups: tuple[list, list, list, list] = ([], [], [], [])
    for row, col in pairs:
        selector = ((row >> level) & 1) * 2 + ((col >> level) & 1)
        groups[selector].append((row, col))
    children = tuple(
        _permutation_block(package, level - 1, group) for group in groups
    )
    return package.make_medge(level, children)  # type: ignore[arg-type]


def permutation_medge(
    package: Package, num_qubits: int, mapping: dict[int, int]
) -> MEdge:
    """Build the permutation matrix diagram for ``column -> row`` pairs.

    Args:
        package: DD package to build in.
        num_qubits: Register width; ``mapping`` must be a permutation of
            ``range(2**num_qubits)``.
        mapping: ``mapping[x] = y`` places a 1 at matrix position
            ``(y, x)``, i.e. maps basis state ``|x>`` to ``|y>``.

    Raises:
        ValueError: If ``mapping`` is not a permutation of the full range.
    """
    size = 1 << num_qubits
    if len(mapping) != size or set(mapping) != set(mapping.values()) or set(
        mapping
    ) != set(range(size)):
        raise ValueError(
            f"mapping must be a permutation of range({size})"
        )
    pairs = [(row, col) for col, row in mapping.items()]
    return _permutation_block(package, num_qubits - 1, pairs)


def modular_multiplication_mapping(
    multiplier: int, modulus: int, num_bits: int
) -> dict[int, int]:
    """Return the permutation of ``|x>`` to ``|a*x mod N>``.

    Values ``x >= modulus`` are fixed points, keeping the map a bijection
    over the whole register (the standard embedding used in Shor circuit
    constructions).
    """
    size = 1 << num_bits
    if size < modulus:
        raise ValueError(
            f"{num_bits} bits cannot represent values modulo {modulus}"
        )
    mapping = {}
    for x in range(size):
        mapping[x] = (multiplier * x) % modulus if x < modulus else x
    return mapping


def _controlled_medge(
    package: Package,
    num_qubits: int,
    factors: dict[int, np.ndarray],
    controls: Sequence[int],
    bottom: MEdge = (complex(1.0), None),
    bottom_levels: int = 0,
) -> MEdge:
    """Assemble ``A + (I - P)`` from the active factors and a bottom block.

    ``A`` places ``factors`` and a :math:`|1\\rangle\\langle 1|` at each
    control above ``bottom``; ``P`` is the same chain with identity in
    place of ``factors`` and ``bottom``.
    """
    control_factors = {level: _PROJ_ONE for level in controls}
    active = _kron_chain(
        package, num_qubits, {**factors, **control_factors}, bottom, bottom_levels
    )
    if not controls:
        return active
    identity_bottom = (
        package.identity(bottom_levels)
        if bottom_levels > 0
        else (complex(1.0), None)
    )
    projector = _kron_chain(
        package, num_qubits, control_factors, identity_bottom, bottom_levels
    )
    identity_total = package.identity(num_qubits)
    top = num_qubits - 1
    result = package.madd(active, (-projector[0], projector[1]), top)
    return package.madd(result, identity_total, top)


def single_qubit_medge(
    package: Package,
    num_qubits: int,
    target: int,
    matrix: np.ndarray,
    controls: Sequence[int] = (),
) -> MEdge:
    """Build the full-register diagram of a (controlled) single-qubit gate."""
    if not 0 <= target < num_qubits:
        raise ValueError(f"target {target} out of range")
    if target in controls:
        raise ValueError("target cannot also be a control")
    factors = {target: np.asarray(matrix, dtype=complex)}
    return _controlled_medge(package, num_qubits, factors, controls)


def operation_to_medge(
    operation: Operation, num_qubits: int, package: Package
) -> MEdge:
    """Lower one IR operation to a full-register matrix edge.

    When the package's backend enables its ``gate_cache``, the lowered
    diagram is memoized per ``(register size, gate, targets, controls,
    params)``.  This is observationally transparent: hash-consing makes
    a repeated lowering return the identical interned edge anyway, so a
    hit changes no computed value, inserts nothing into the compute
    caches, and bumps no creation counters — it only skips the
    per-operation rebuild of the full-register diagram.
    """
    gate_cache = package.gate_cache
    if gate_cache is not None:
        cache_key = (
            num_qubits,
            operation.gate,
            tuple(operation.targets),
            tuple(operation.controls),
            tuple(operation.params),
        )
        cached = gate_cache.get(cache_key)
        if cached is not None:
            return cached
        result = _build_operation_medge(operation, num_qubits, package)
        gate_cache[cache_key] = result
        return result
    return _build_operation_medge(operation, num_qubits, package)


def _build_operation_medge(
    operation: Operation, num_qubits: int, package: Package
) -> MEdge:
    """Uncached lowering of one IR operation (see ``operation_to_medge``)."""
    if operation.gate == "swap":
        q1, q2 = operation.targets
        if operation.controls:
            raise ValueError("controlled swap is not supported; decompose it")
        step1 = single_qubit_medge(package, num_qubits, q2, gate_matrix("x"), (q1,))
        step2 = single_qubit_medge(package, num_qubits, q1, gate_matrix("x"), (q2,))
        top = num_qubits - 1
        product = package.multiply_mm(step2, step1, top)
        return package.multiply_mm(step1, product, top)
    if operation.gate == "cmodmul":
        multiplier, modulus = int(operation.params[0]), int(operation.params[1])
        work_bits = len(operation.targets)
        mapping = modular_multiplication_mapping(multiplier, modulus, work_bits)
        perm = permutation_medge(package, work_bits, mapping)
        return _controlled_medge(
            package, num_qubits, {}, operation.controls, perm, work_bits
        )
    matrix = gate_matrix(operation.gate, operation.params)
    return single_qubit_medge(
        package, num_qubits, operation.targets[0], matrix, operation.controls
    )


def operation_to_operator(
    operation: Operation,
    num_qubits: int,
    package: Package | None = None,
) -> OperatorDD:
    """Lower one IR operation to an :class:`OperatorDD`."""
    pkg = package or default_package()
    return OperatorDD(
        operation_to_medge(operation, num_qubits, pkg), num_qubits, pkg
    )


def circuit_operators(
    circuit: Circuit, package: Package | None = None
) -> Iterator[OperatorDD]:
    """Yield the operator diagram of each operation, in circuit order."""
    pkg = package or default_package()
    for operation in circuit:
        yield operation_to_operator(operation, circuit.num_qubits, pkg)


def circuit_unitary(
    circuit: Circuit, package: Package | None = None
) -> OperatorDD:
    """Multiply out the whole circuit into a single operator diagram.

    Exponential in the worst case — intended for verification on small
    circuits (this is the matrix–matrix approach of reference [31]).
    """
    pkg = package or default_package()
    result = OperatorDD.identity(circuit.num_qubits, pkg)
    for operator in circuit_operators(circuit, pkg):
        result = operator.compose(result)
    return result
