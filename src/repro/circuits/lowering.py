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

The construction itself is a backend entry: this module turns an
operation into factor entries, control levels and permutation rows, and
calls :meth:`~repro.dd.package.Package.controlled_medge` and
:meth:`~repro.dd.package.Package.permutation_block`.  Their Python bodies
in :class:`~repro.dd.backends.base.DDBackend` are the oracle, run by the
reference engine; the arena runs the same ``make_medge``/``madd`` calls,
in the same order, in its C core (docs/BACKENDS.md).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from ..dd.matrix import OperatorDD
from ..dd.node import MEdge
from ..dd.package import Package, default_package
from .circuit import Circuit, Operation
from .gates import gate_matrix


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
    if len(mapping) != size or set(mapping) != set(range(size)):
        raise ValueError(f"mapping must be a permutation of range({size})")
    return package.permutation_block(
        num_qubits - 1, [mapping[col] for col in range(size)]
    )


def _modular_rows(multiplier: int, modulus: int, num_bits: int) -> list[int]:
    """``rows[x]``: the image of ``|x>`` under ``|x> -> |a*x mod N>``."""
    size = 1 << num_bits
    if size < modulus:
        raise ValueError(
            f"{num_bits} bits cannot represent values modulo {modulus}"
        )
    return [
        (multiplier * x) % modulus if x < modulus else x for x in range(size)
    ]


def modular_multiplication_mapping(
    multiplier: int, modulus: int, num_bits: int
) -> dict[int, int]:
    """Return the permutation of ``|x>`` to ``|a*x mod N>``.

    Values ``x >= modulus`` are fixed points, keeping the map a bijection
    over the whole register (the standard embedding used in Shor circuit
    constructions).
    """
    return dict(enumerate(_modular_rows(multiplier, modulus, num_bits)))


def single_qubit_medge(
    package: Package,
    num_qubits: int,
    target: int,
    matrix: np.ndarray,
    controls: Sequence[int] = (),
) -> MEdge:
    """Build the full-register diagram of a (controlled) single-qubit gate.

    Raises:
        ValueError: If ``target`` or a control is out of range, or a
            control is the target.
    """
    # The factor is the matrix's four entries, row-major.
    entries = tuple(np.asarray(matrix, dtype=complex).ravel().tolist())
    return package.controlled_medge(num_qubits, {target: entries}, controls)


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
        rows = _modular_rows(multiplier, modulus, work_bits)
        perm = package.permutation_block(work_bits - 1, rows)
        return package.controlled_medge(
            num_qubits, {}, operation.controls, perm, work_bits
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
