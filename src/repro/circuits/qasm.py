"""OpenQASM 2.0 subset parser and emitter.

Supports the gate vocabulary of :mod:`repro.circuits.gates` plus ``cx``,
``cz``, ``cy``, ``ch``, ``cp``/``cu1``, ``crz``, ``ccx``, ``swap``,
user ``gate`` definitions (expanded as macros, including nested calls),
and the structural statements ``OPENQASM``, ``include``, ``qreg``,
``creg``, ``barrier`` (ignored), ``measure`` (ignored — DD simulation
samples the final state), and ``//`` comments.  Parameter expressions may
use ``pi``, numeric literals, formal gate parameters, and ``+ - * / ( )``.

This covers the circuits exchanged by DD-simulation toolchains for the
paper's workloads; the ``cmodmul`` pseudo-gate is a simulator-level
primitive and intentionally has no QASM form.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from dataclasses import dataclass
from collections.abc import Sequence

from .circuit import Circuit, Operation

_HEADER_RE = re.compile(r"OPENQASM\s+2(\.\d+)?\s*;")
_QREG_RE = re.compile(r"qreg\s+(?P<name>\w+)\s*\[\s*(?P<size>\d+)\s*\]\s*;")
_CREG_RE = re.compile(r"creg\s+\w+\s*\[\s*\d+\s*\]\s*;")
_GATE_DEF_RE = re.compile(
    r"gate\s+(?P<name>[a-zA-Z_]\w*)\s*"
    r"(?:\(\s*(?P<params>[^)]*)\s*\))?\s*"
    r"(?P<qubits>[\w\s,]+?)\s*\{(?P<body>[^}]*)\}"
)
_GATE_RE = re.compile(
    r"(?P<name>[a-zA-Z_][\w]*)\s*"
    r"(?:\(\s*(?P<params>[^)]*)\s*\))?\s*"
    r"(?P<args>[^;]+);"
)
_ARG_RE = re.compile(r"(?P<reg>\w+)\s*\[\s*(?P<index>\d+)\s*\]")

#: QASM names mapped to (gate, number-of-controls).
_CONTROLLED_ALIASES = {
    "cx": ("x", 1),
    "cnot": ("x", 1),
    "cy": ("y", 1),
    "cz": ("z", 1),
    "ch": ("h", 1),
    "cp": ("p", 1),
    "cu1": ("p", 1),
    "crz": ("rz", 1),
    "ccx": ("x", 2),
    "toffoli": ("x", 2),
    "ccz": ("z", 2),
}

#: Plain gates accepted verbatim (aliases normalized).
_PLAIN_ALIASES = {
    "u1": "p",
    "phase": "p",
    "u3": "u",
}

_SAFE_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.USub: operator.neg,
    ast.UAdd: operator.pos,
}

#: Recursion limit for nested user-gate expansion.
_MAX_EXPANSION_DEPTH = 32


class QasmError(ValueError):
    """Raised on malformed or unsupported QASM input/output."""


@dataclass(frozen=True)
class GateDefinition:
    """A user ``gate`` declaration, expanded as a macro at call sites.

    Attributes:
        name: Gate name.
        params: Formal parameter names.
        qubits: Formal qubit argument names.
        body: Raw body statements (semicolon-terminated gate calls).
    """

    name: str
    params: tuple[str, ...]
    qubits: tuple[str, ...]
    body: str


def _evaluate_parameter(
    expression: str, environment: dict | None = None
) -> float:
    """Safely evaluate a QASM parameter expression.

    Supports ``pi``, numeric literals, ``+ - * / ( )``, and names bound in
    ``environment`` (the formal parameters of a user gate definition).
    """
    try:
        tree = ast.parse(expression.strip(), mode="eval")
    except SyntaxError as exc:
        raise QasmError(f"bad parameter expression {expression!r}") from exc
    return _evaluate_node(tree, environment or {}, expression)


def _evaluate_node(node: ast.AST, env: dict, expression: str) -> float:
    """Evaluate one node of a parsed parameter ``expression``."""
    if isinstance(node, ast.Expression):
        return _evaluate_node(node.body, env, expression)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    if isinstance(node, ast.Name):
        if node.id == "pi":
            return math.pi
        if node.id in env:
            return float(env[node.id])
        raise QasmError(f"unknown name {node.id!r} in {expression!r}")
    if isinstance(node, ast.BinOp) and type(node.op) in _SAFE_OPERATORS:
        return _SAFE_OPERATORS[type(node.op)](
            _evaluate_node(node.left, env, expression),
            _evaluate_node(node.right, env, expression),
        )
    if isinstance(node, ast.UnaryOp) and type(node.op) in _SAFE_OPERATORS:
        return _SAFE_OPERATORS[type(node.op)](
            _evaluate_node(node.operand, env, expression)
        )
    raise QasmError(f"unsupported construct in {expression!r}")


def _emit_call(
    circuit: Circuit,
    name: str,
    params: Sequence[float],
    qubits: Sequence[int],
    definitions: dict[str, GateDefinition],
    depth: int = 0,
) -> None:
    """Append one (possibly user-defined) gate call to ``circuit``."""
    if depth > _MAX_EXPANSION_DEPTH:
        raise QasmError(f"gate expansion too deep at {name!r}")
    if name in definitions:
        definition = definitions[name]
        if len(params) != len(definition.params):
            raise QasmError(
                f"gate {name!r} expects {len(definition.params)} "
                f"parameters, got {len(params)}"
            )
        if len(qubits) != len(definition.qubits):
            raise QasmError(
                f"gate {name!r} expects {len(definition.qubits)} qubits, "
                f"got {len(qubits)}"
            )
        parameter_env = dict(zip(definition.params, params, strict=True))
        qubit_env = dict(zip(definition.qubits, qubits, strict=True))
        for statement in definition.body.split(";"):
            statement = statement.strip()
            if not statement:
                continue
            match = _GATE_RE.match(statement + ";")
            if match is None:
                raise QasmError(
                    f"cannot parse body statement {statement!r} "
                    f"of gate {name!r}"
                )
            inner_name = match.group("name").lower()
            if inner_name == "barrier":
                continue
            inner_params = tuple(
                _evaluate_parameter(p, parameter_env)
                for p in (match.group("params") or "").split(",")
                if p.strip()
            )
            inner_qubits = []
            for token in match.group("args").split(","):
                token = token.strip()
                if token not in qubit_env:
                    raise QasmError(
                        f"unknown qubit argument {token!r} in gate "
                        f"{name!r}"
                    )
                inner_qubits.append(qubit_env[token])
            _emit_call(
                circuit,
                inner_name,
                inner_params,
                inner_qubits,
                definitions,
                depth + 1,
            )
        return

    if name == "swap":
        if len(qubits) != 2:
            raise QasmError("swap needs two qubits")
        circuit.swap(qubits[0], qubits[1])
        return
    if name in _CONTROLLED_ALIASES:
        base, num_controls = _CONTROLLED_ALIASES[name]
        if len(qubits) != num_controls + 1:
            raise QasmError(
                f"{name} expects {num_controls + 1} qubits, "
                f"got {len(qubits)}"
            )
        circuit.append(
            Operation(base, (qubits[-1],), tuple(qubits[:-1]), tuple(params))
        )
        return
    base = _PLAIN_ALIASES.get(name, name)
    if len(qubits) != 1:
        raise QasmError(f"gate {base!r} expects one qubit, got {len(qubits)}")
    circuit.append(Operation(base, (qubits[0],), (), tuple(params)))


def parse_qasm(text: str, name: str = "qasm") -> Circuit:
    """Parse an OpenQASM 2.0 document into a :class:`Circuit`.

    Args:
        text: The QASM source.
        name: Name given to the resulting circuit.

    Raises:
        QasmError: On syntax errors, unknown gates, or missing ``qreg``.
    """
    stripped_lines: list[str] = []
    for raw_line in text.splitlines():
        line = raw_line.split("//", 1)[0].strip()
        if line:
            stripped_lines.append(line)
    source = " ".join(stripped_lines)

    circuit: Circuit | None = None
    register: str | None = None
    definitions: dict[str, GateDefinition] = {}
    position = 0
    header = _HEADER_RE.match(source)
    if header:
        position = header.end()

    while position < len(source):
        chunk = source[position:].lstrip()
        offset = len(source) - len(chunk)
        if not chunk:
            break
        if chunk.startswith("include"):
            end = chunk.index(";") + 1
            position = offset + end
            continue
        if chunk.startswith("gate "):
            definition_match = _GATE_DEF_RE.match(chunk)
            if definition_match is None:
                raise QasmError(
                    f"cannot parse gate definition near: {chunk[:60]!r}"
                )
            gate_name = definition_match.group("name").lower()
            formal_params = tuple(
                p.strip()
                for p in (definition_match.group("params") or "").split(",")
                if p.strip()
            )
            formal_qubits = tuple(
                q.strip()
                for q in definition_match.group("qubits").split(",")
                if q.strip()
            )
            definitions[gate_name] = GateDefinition(
                gate_name,
                formal_params,
                formal_qubits,
                definition_match.group("body"),
            )
            position = offset + definition_match.end()
            continue
        qreg = _QREG_RE.match(chunk)
        if qreg:
            if circuit is not None:
                raise QasmError("multiple qreg declarations are not supported")
            register = qreg.group("name")
            circuit = Circuit(int(qreg.group("size")), name=name)
            position = offset + qreg.end()
            continue
        creg = _CREG_RE.match(chunk)
        if creg:
            position = offset + creg.end()
            continue
        gate = _GATE_RE.match(chunk)
        if gate is None:
            raise QasmError(f"cannot parse near: {chunk[:60]!r}")
        position = offset + gate.end()
        gate_name = gate.group("name").lower()
        if gate_name in ("barrier", "measure", "reset"):
            continue
        if circuit is None or register is None:
            raise QasmError("gate before qreg declaration")

        params = tuple(
            _evaluate_parameter(p)
            for p in (gate.group("params") or "").split(",")
            if p.strip()
        )
        qubits = []
        for match in _ARG_RE.finditer(gate.group("args")):
            if match.group("reg") != register:
                raise QasmError(f"unknown register {match.group('reg')!r}")
            qubits.append(int(match.group("index")))
        if not qubits:
            raise QasmError(f"gate {gate_name!r} without qubit arguments")
        _emit_call(circuit, gate_name, params, qubits, definitions)
    if circuit is None:
        raise QasmError("no qreg declaration found")
    return circuit


def emit_qasm(circuit: Circuit) -> str:
    """Serialize a circuit to OpenQASM 2.0.

    Raises:
        QasmError: If the circuit contains ``cmodmul`` (a simulator-level
            primitive with no QASM encoding) or more than two controls.
    """
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    for operation in circuit:
        if operation.gate == "cmodmul":
            raise QasmError(
                "cmodmul cannot be serialized to QASM; "
                "export the surrounding circuit without it"
            )
        params = (
            "(" + ",".join(f"{p!r}" for p in operation.params) + ")"
            if operation.params
            else ""
        )
        if operation.gate == "swap":
            q1, q2 = operation.targets
            lines.append(f"swap q[{q1}],q[{q2}];")
            continue
        controls = operation.controls
        target = operation.targets[0]
        if not controls:
            lines.append(f"{operation.gate}{params} q[{target}];")
        elif len(controls) == 1:
            prefix = {"p": "cp", "rz": "crz"}.get(
                operation.gate, "c" + operation.gate
            )
            lines.append(
                f"{prefix}{params} q[{controls[0]}],q[{target}];"
            )
        elif len(controls) == 2 and operation.gate in ("x", "z"):
            lines.append(
                f"cc{operation.gate} q[{controls[0]}],"
                f"q[{controls[1]}],q[{target}];"
            )
        else:
            raise QasmError(
                f"cannot serialize {operation.describe()!r} to QASM 2.0"
            )
    return "\n".join(lines) + "\n"
