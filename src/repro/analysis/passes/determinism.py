"""Float-determinism passes: DD007 (banned ufuncs) and DD008 (complex ops).

The arena engine must stay bit-for-bit identical to the reference
engine (docs/BACKENDS.md, "The ulp contract").  Every complex operation
it performs runs either on Python complexes or, in its C core, through
CPython's own ``_Py_c_*`` helpers, so each result rounds exactly like
the reference's scalar arithmetic.  numpy complex arithmetic would not:
``np.abs``/``np.hypot`` use a different (and platform-varying)
magnitude algorithm than CPython's ``abs(complex)``, ``np.divide``
differs from CPython's complex division, and native ``complex128``
array multiplies may FMA-contract.  These passes keep that arithmetic
out of engine code with real resolution: any spelling of a banned
ufunc (aliased import, ``from numpy import hypot as h``, helper
function indirection) is caught anywhere in code *reachable from*
``repro.dd.backends.*`` through the project call graph.
"""

from __future__ import annotations

import ast

from ..dataflow import (
    CallSite,
    FunctionScope,
    ProjectIndex,
    iter_scope_nodes,
)
from ..ddlint import Violation

__all__ = ["check_determinism"]

#: The engine package every reachability search starts from.
_ENGINE_PACKAGE = "repro.dd.backends"

#: numpy ufuncs whose results are not bit-identical to CPython floats.
_BANNED_UFUNCS: dict[str, str] = {
    "numpy.abs": "abs(complex) in CPython uses a different magnitude "
    "algorithm; call abs() on Python complexes",
    "numpy.absolute": "alias of numpy.abs; same divergence",
    "numpy.hypot": "numpy's hypot is not bit-identical to math.hypot "
    "across platforms",
    "numpy.divide": "numpy complex/float division differs from CPython "
    "division in the last ulp",
    "numpy.true_divide": "alias of numpy.divide; same divergence",
}

_MAX_TRACE_HOPS = 12


def _span(node: ast.AST) -> tuple[int, int]:
    line = getattr(node, "lineno", 1)
    return (line, getattr(node, "end_lineno", None) or line)


def check_determinism(project: ProjectIndex) -> list[Violation]:
    """Run DD007 and DD008 over the indexed project."""
    findings = _check_banned_ufuncs(project)
    findings.extend(_check_complex_ops(project))
    return findings


# ----------------------------------------------------------------------
# DD007 — banned ufuncs reachable from engine code
# ----------------------------------------------------------------------


def _banned_sites(scope: FunctionScope) -> list[CallSite]:
    return [
        site
        for site in scope.calls
        if site.dotted is not None and site.dotted in _BANNED_UFUNCS
    ]


def _check_banned_ufuncs(project: ProjectIndex) -> list[Violation]:
    findings: list[Violation] = []
    reported: set[tuple[str, int]] = set()
    entries = sorted(
        project.scopes_in_package(_ENGINE_PACKAGE),
        key=lambda scope: scope.qualname,
    )
    for entry in entries:
        # Depth-first walk of the call graph rooted at the engine
        # entry, carrying the call chain for the dataflow trace.
        stack: list[
            tuple[FunctionScope, tuple[tuple[FunctionScope, CallSite], ...]]
        ] = [(entry, ())]
        seen = {entry.qualname}
        while stack:
            scope, chain = stack.pop()
            for site in _banned_sites(scope):
                key = (scope.path, site.line)
                if key in reported:
                    continue
                reported.add(key)
                findings.append(
                    _ufunc_violation(entry, scope, site, chain)
                )
            if len(chain) >= _MAX_TRACE_HOPS:
                continue
            for site in scope.calls:
                callee = project.callee_scope(site)
                if callee is not None and callee.qualname not in seen:
                    seen.add(callee.qualname)
                    stack.append((callee, chain + ((scope, site),)))
    return findings


def _ufunc_violation(
    entry: FunctionScope,
    scope: FunctionScope,
    site: CallSite,
    chain: tuple[tuple[FunctionScope, CallSite], ...],
) -> Violation:
    dotted = site.dotted or "<ufunc>"
    trace = [
        f"{entry.path}:{_span(entry.node)[0]} engine entry "
        f"{entry.display_name} (module {entry.module})"
    ]
    for caller, hop in chain:
        trace.append(
            f"{caller.path}:{hop.line} {caller.display_name} calls "
            f"{hop.target or hop.dotted or '<call>'}"
        )
    trace.append(
        f"{scope.path}:{site.line} {scope.display_name} calls {dotted}"
    )
    return Violation(
        rule="DD007",
        path=scope.path,
        line=site.line,
        col=site.node.col_offset,
        message=(
            f"banned nondeterministic ufunc {dotted}() reachable from "
            f"engine code ({entry.display_name}): "
            f"{_BANNED_UFUNCS[dotted]}"
        ),
        trace=tuple(trace),
        span=_span(site.node),
    )


# ----------------------------------------------------------------------
# DD008 — native complex multiplies/divides in engine modules
# ----------------------------------------------------------------------


def _check_complex_ops(project: ProjectIndex) -> list[Violation]:
    findings: list[Violation] = []
    for scope in project.scopes_in_package(_ENGINE_PACKAGE):
        for node in iter_scope_nodes(scope):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Mult, ast.Div)
            ):
                side = _complex_operand(project, scope, node)
                if side is not None:
                    findings.append(
                        _complex_violation(scope, node, side)
                    )
            elif isinstance(node, ast.Call):
                finding = _complex_ufunc_call(project, scope, node)
                if finding is not None:
                    findings.append(finding)
    return findings


def _complex_operand(
    project: ProjectIndex, scope: FunctionScope, node: ast.BinOp
) -> str | None:
    for label, operand in (("left", node.left), ("right", node.right)):
        origin = project.resolve_expr(operand, scope)
        if origin is not None and origin.kind == "complex_array":
            return label
    return None


def _complex_violation(
    scope: FunctionScope, node: ast.BinOp, side: str
) -> Violation:
    symbol = "*" if isinstance(node.op, ast.Mult) else "/"
    return Violation(
        rule="DD008",
        path=scope.path,
        line=node.lineno,
        col=node.col_offset,
        message=(
            f"native complex128 array {symbol} in engine code; numpy "
            "may FMA-contract and is not bit-equal to CPython — "
            "compute on Python complexes"
        ),
        trace=(
            f"{scope.path}:{node.lineno} {scope.display_name}: "
            f"{side} operand resolves to a complex-dtype numpy array",
        ),
        span=_span(node),
    )


def _complex_ufunc_call(
    project: ProjectIndex, scope: FunctionScope, node: ast.Call
) -> Violation | None:
    func = node.func
    dotted: str | None = None
    for site in scope.calls:
        if site.node is node:
            dotted = site.dotted
            break
    if dotted != "numpy.multiply":
        return None
    for arg in node.args:
        origin = project.resolve_expr(arg, scope)
        if origin is not None and origin.kind == "complex_array":
            return Violation(
                rule="DD008",
                path=scope.path,
                line=node.lineno,
                col=func.col_offset,
                message=(
                    "numpy.multiply on a complex-dtype array in engine "
                    "code; multiply Python complexes to keep the ulp "
                    "contract"
                ),
                trace=(
                    f"{scope.path}:{node.lineno} {scope.display_name}: "
                    "numpy.multiply argument resolves to a complex-dtype "
                    "numpy array",
                ),
                span=_span(node),
            )
    return None
