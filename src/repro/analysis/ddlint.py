"""ddlint — domain-aware static analysis for the DD engine.

A self-contained AST linter that enforces the *representation invariants*
the paper's correctness arguments silently assume: norm contributions
(Definition 2, §IV-A) and the multiplicative fidelity composition of
Lemma 1 (§V) are only exact while nodes stay hash-consed, normalized,
and compared through the tolerance-bucketed complex table of
:mod:`repro.dd.ctable`.  Generic linters cannot see those rules; ddlint
encodes them directly:

========  ============================================================
Rule      What it forbids
========  ============================================================
DD001     Constructing ``VNode``/``MNode`` outside ``repro.dd.package``
          and ``repro.dd.node`` — bypasses hash-consing, so node
          identity (and with it every unique-table and compute-cache
          lookup) silently breaks.
DD002     Exact ``==`` / ``!=`` comparisons against float or complex
          literals outside ``repro.dd.ctable`` — amplitude math must go
          through the tolerance helpers (``is_zero``, ``approx_equal``,
          ``tolerance``), or rounding noise flips branches.
DD003     Assigning to the ``level`` / ``edges`` attributes of node
          objects outside the DD package — hash-consed nodes are
          immutable by contract; mutation corrupts every diagram that
          shares the node.
DD004     Public functions in ``repro.dd`` / ``repro.core`` without
          complete type annotations — the mypy strict ratchet only
          bites where annotations exist.
DD005     ``time.time()`` anywhere in the engine — duration measurement
          must use ``time.perf_counter()`` (monotonic, higher
          resolution), which is what the ``repro.obs`` timers consume.
          Wall-clock *timestamping* sites carry an inline suppression.
DD006     Touching unique-table / compute-cache internals (``_vtable``,
          ``_vadd_cache``, …) outside ``repro.dd.backends.*`` — storage
          layout is backend-private; callers must use the ``DDBackend``
          interface (``integrity_problems``, ``cache_stats``,
          ``unique_table_sizes``) so every backend stays swappable.
DD013     ``open()`` / ``os.replace()`` / ``os.rename()`` on artifact-
          store paths outside ``repro.service.{store,replication,
          lease}`` — direct file access bypasses integrity blocks,
          atomic promotion, quorum replication, and lease fencing; go
          through the :class:`~repro.service.store.ArtifactStore` API.
DD014     A nested function in ``repro.dd`` / ``repro.core`` /
          ``repro.circuits`` that refers to itself by name — the
          function and its own closure cell form a reference cycle that
          pins the closure (and any memo it holds) until the cyclic
          collector runs, which the simulator pauses.
========  ============================================================

Rules DD007 — DD012 are *dataflow-aware passes* — float determinism
(DD007/DD008), concurrency discipline (DD009/DD010/DD011), and Lemma-1
soundness (DD012) — implemented in :mod:`repro.analysis.passes` on the
shared project index of :mod:`repro.analysis.dataflow`.  They run
whenever files are linted together (``lint_paths`` / ``lint_modules``)
and report findings with a dataflow trace.

Suppressions: ``# ddlint: ignore[DD002]`` (comma separate several
codes, ``# ddlint: ignore[DD002, DD007]``) silences a finding with an
auditable marker; the comment may sit on any line of the offending
statement, including decorator lines and continuation lines of
multi-line statements.  Everything else goes through the baseline
ratchet of :mod:`repro.analysis.baseline`: pre-existing findings are
grandfathered, new ones fail, and fixes shrink the committed baseline.

The linter depends only on the standard library so it can run before the
package itself imports (and in CI before any dependency install).
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

__all__ = [
    "LintError",
    "Rule",
    "RULES",
    "Violation",
    "lint_file",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "module_name_for",
]


class LintError(ValueError):
    """Raised when a source file cannot be linted (syntax error)."""


@dataclass(frozen=True)
class Violation:
    """One finding: a rule broken at a specific source location.

    Attributes:
        rule: Rule code (``DD001`` … ``DD014``).
        path: Repo-relative POSIX path of the offending file.
        line: 1-based source line.
        col: 0-based column offset.
        message: Human-readable description of the finding.
        trace: Dataflow trace (one human-readable step per entry) for
            findings produced by the project-wide passes; empty for the
            single-module syntactic rules.
        span: Inclusive ``(first, last)`` line range of the offending
            statement; an inline suppression anywhere in the span
            silences the finding (decorated and multi-line statements
            included).  ``None`` means "the anchor line only".
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    trace: tuple[str, ...] = ()
    span: tuple[int, int] | None = None

    def format(self) -> str:
        """Render as a conventional ``path:line:col: CODE message`` line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def format_verbose(self) -> str:
        """Render with the dataflow trace (if any) indented beneath."""
        lines = [self.format()]
        lines.extend(f"    | {step}" for step in self.trace)
        return "\n".join(lines)


@dataclass(frozen=True)
class Rule:
    """A lint rule's metadata (the catalog shown by ``lint --list-rules``)."""

    code: str
    summary: str
    rationale: str


RULES: dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule(
            "DD001",
            "no VNode/MNode construction outside repro.dd.{package,node}",
            "direct construction bypasses hash-consing; node equality is "
            "identity, so un-interned nodes break unique-table and "
            "compute-cache lookups",
        ),
        Rule(
            "DD002",
            "no exact ==/!= against float or complex literals "
            "(outside repro.dd.ctable)",
            "amplitude comparisons must use the ctable tolerance helpers; "
            "exact equality flips on rounding noise",
        ),
        Rule(
            "DD003",
            "no assignment to node attributes (level/edges) outside "
            "repro.dd.{package,node}",
            "hash-consed nodes are shared and immutable by contract; "
            "mutating one corrupts every diagram that references it",
        ),
        Rule(
            "DD004",
            "public functions in repro.dd / repro.core must be fully "
            "type-annotated",
            "the mypy strict ratchet for the engine packages only checks "
            "what is annotated",
        ),
        Rule(
            "DD005",
            "no time.time() in engine code (use time.perf_counter())",
            "durations feed repro.obs timers and the perf/ benchmark; "
            "time.time() is neither monotonic nor high-resolution",
        ),
        Rule(
            "DD006",
            "no unique-table/compute-cache internals access outside "
            "repro.dd.backends.*",
            "storage layout (_vtable, _vadd_cache, ...) is backend-"
            "private; going through the DDBackend interface keeps every "
            "backend swappable and the differential guarantees intact",
        ),
        Rule(
            "DD007",
            "no nondeterministic numpy ufuncs (np.abs/np.hypot/"
            "np.divide) reachable from engine code in "
            "repro.dd.backends.*",
            "the arena must match the reference bit for bit, so its "
            "complex operations run only on Python complexes or, in "
            "the C core, through CPython's own _Py_c_* helpers; these "
            "ufuncs use different algorithms in the last ulp — "
            "resolution-aware, so aliased imports and helper "
            "indirection are caught",
        ),
        Rule(
            "DD008",
            "no native complex128 array multiply/divide in engine "
            "code (compute on Python complexes)",
            "numpy may FMA-contract complex products, diverging from "
            "CPython's complex arithmetic; the ulp contract "
            "(docs/BACKENDS.md) allows complex operations only on "
            "Python complexes or via CPython's _Py_c_* helpers",
        ),
        Rule(
            "DD009",
            "no blocking calls (file/socket I/O, un-timed-out waits) "
            "while a threading lock/condition is held",
            "the serve daemon's latency guarantees assume every lock "
            "region is O(state update); blocking under the state lock "
            "stalls admission, heartbeats, and deadline enforcement — "
            "checked transitively through the call graph",
        ),
        Rule(
            "DD010",
            "fork/signal discipline: no threads/sockets created before "
            "a fork-context spawn; no non-reentrant work in signal "
            "handlers",
            "a forked child inherits threads mid-state, held locks, "
            "and open sockets; signal handlers interrupt arbitrary "
            "bytecode, so print/logging/locks there can self-deadlock",
        ),
        Rule(
            "DD011",
            "no cross-process shared-state writes in fork workers "
            "outside sanctioned channels (queue/event/shared value "
            "parameters)",
            "a write to module-level state in a Process target lands "
            "in the child's copy-on-write page and is silently lost to "
            "the parent — results must travel through the supervisor's "
            "channels",
        ),
        Rule(
            "DD012",
            "no mutation of edge weights, node children, or Lemma-1 "
            "fidelity accumulators outside repro.dd.* / repro.core.*",
            "Lemma 1's multiplicative fidelity composition is only "
            "sound while DD structure and the round ledger change "
            "through the sanctioned Package/backend/strategy APIs "
            "(compile-time counterpart of the DDSan runtime audit)",
        ),
        Rule(
            "DD013",
            "no direct open()/os.replace()/os.rename() on artifact-"
            "store paths outside repro.service.{store,replication,"
            "lease}",
            "direct file access bypasses integrity blocks, atomic "
            "staging promotion, quorum replication, and lease fencing; "
            "a file written next to the store API is invisible to "
            "replicas and the scrubber — use ArtifactStore methods "
            "(park_jobs, append_ownership, save_checkpoint, ...)",
        ),
        Rule(
            "DD014",
            "no self-recursive nested functions in repro.dd / repro.core "
            "/ repro.circuits",
            "a nested function that names itself closes over its own "
            "cell, a function <-> cell cycle that pins the closure's "
            "memo and diagrams until the cyclic collector runs; the "
            "simulator pauses that collector, so recurse through a "
            "module-level helper that takes its state as arguments",
        ),
    )
}

#: Modules allowed to construct and mutate nodes (the hash-consing core).
#: Backend engines are the hash-consing implementation, hence privileged.
_NODE_PRIVILEGED = ("repro.dd.package", "repro.dd.node", "repro.dd.backends")

#: Package whose modules may touch backend storage internals (DD006).
_BACKEND_PRIVILEGED = "repro.dd.backends"

#: Attribute names identifying backend storage internals (DD006).
_BACKEND_INTERNALS = frozenset(
    {
        "_vtable",
        "_mtable",
        "_vadd_cache",
        "_madd_cache",
        "_mv_cache",
        "_mm_cache",
        "_inner_cache",
        "_identity_cache",
        "_compute_caches",
        "_cache_counts",
        "_checked_insert",
    }
)

#: Module allowed to compare floats exactly (it defines the tolerance).
_CTABLE = "repro.dd.ctable"

#: Modules that implement the artifact store and may touch its files
#: directly (DD013): the store itself, the replication layer over it,
#: and the lease primitives.
_STORE_PRIVILEGED = (
    "repro.service.store",
    "repro.service.replication",
    "repro.service.lease",
)

#: ArtifactStore methods that return paths *inside* the store; passing
#: one to open()/os.replace() is direct store-file access (DD013).
_STORE_PATH_METHODS = frozenset(
    {
        "result_dir",
        "checkpoint_dir",
        "lease_path",
        "parked_jobs_path",
        "ownership_log_path",
        "quarantine_root",
    }
)

#: Packages whose public API must be fully annotated (DD004).
_ANNOTATED_PACKAGES = ("repro.dd", "repro.core")

#: Packages that run inside the simulator's collector pause (DD014).
_ACYCLIC_PACKAGES = ("repro.dd", "repro.core", "repro.circuits")

#: Attribute names that identify a hash-consed node mutation (DD003).
_NODE_ATTRS = frozenset({"level", "edges"})

_SUPPRESS_RE = re.compile(r"ddlint:\s*ignore\[([A-Z0-9,\s]+)\]")


def module_name_for(path: str) -> str:
    """Derive the dotted module name from a repo-relative file path.

    ``src/repro/dd/package.py`` → ``repro.dd.package``;  paths outside a
    ``repro`` tree are returned with slashes replaced by dots (good
    enough for exemption matching, which only targets ``repro.*``).
    """
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _suppressed_codes(source: str) -> dict[int, set[str]]:
    """Map line numbers to rule codes suppressed by inline comments."""
    suppressed: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            codes = {
                code.strip()
                for code in match.group(1).split(",")
                if code.strip()
            }
            suppressed.setdefault(token.start[0], set()).update(codes)
    except tokenize.TokenizeError:  # pragma: no cover - ast parsed already
        pass
    return suppressed


def _is_float_or_complex_literal(node: ast.expr) -> bool:
    """True for literals like ``0.0``, ``1e-6``, ``1j``, ``-0.5``.

    Complex literals spelled as arithmetic on numeric constants
    (``1 + 0j``, ``-1 - 0j``) count too: Python has no single-token
    complex literal with a real part, so that spelling is the idiom.
    """
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.UAdd, ast.USub)
    ):
        node = node.operand
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub)
    ):
        return _is_numeric_literal(node.left) and _is_float_or_complex_literal(
            node.right
        )
    return isinstance(node, ast.Constant) and isinstance(
        node.value, (float, complex)
    ) and not isinstance(node.value, bool)


def _is_numeric_literal(node: ast.expr) -> bool:
    """True for any int/float/complex constant (sign included)."""
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.UAdd, ast.USub)
    ):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(
        node.value, (int, float, complex)
    ) and not isinstance(node.value, bool)


def _call_target_name(node: ast.Call) -> str | None:
    """Return the bare callee name for ``Name(...)`` / ``mod.Name(...)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _names_store(node: ast.expr) -> bool:
    """True when the expression is an identifier that *is* a store
    (``store``, ``self.store``, ``self._store``, ``replica``, ...)."""
    if isinstance(node, ast.Name):
        identifier = node.id
    elif isinstance(node, ast.Attribute):
        identifier = node.attr
    else:
        return False
    lowered = identifier.lower()
    return "store" in lowered or "replica" in lowered


def _is_store_path_expr(node: ast.expr) -> bool:
    """True when any subexpression names a path inside an artifact
    store: ``<store>.root`` or a call to a store path method
    (``result_dir``, ``lease_path``, ...)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            if sub.attr == "root" and _names_store(sub.value):
                return True
            if sub.attr in _STORE_PATH_METHODS and isinstance(
                sub.value, (ast.Name, ast.Attribute)
            ):
                return True
    return False


class _Checker(ast.NodeVisitor):
    """Single-pass visitor collecting violations for one module."""

    def __init__(self, path: str, module: str):
        self.path = path
        self.module = module
        self.violations: list[Violation] = []
        self._node_privileged = any(
            module == exempt or module.startswith(exempt + ".")
            for exempt in _NODE_PRIVILEGED
        )
        self._ctable_exempt = module == _CTABLE
        self._backend_privileged = (
            module == _BACKEND_PRIVILEGED
            or module.startswith(_BACKEND_PRIVILEGED + ".")
        )
        self._wants_annotations = any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in _ANNOTATED_PACKAGES
        )
        self._bans_recursive_closures = any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in _ACYCLIC_PACKAGES
        )
        self._store_privileged = any(
            module == exempt or module.startswith(exempt + ".")
            for exempt in _STORE_PRIVILEGED
        )
        self._depth = 0  # function-nesting depth, for DD004 scoping

    # -- helpers -----------------------------------------------------------

    def _report(
        self,
        rule: str,
        node: ast.AST,
        message: str,
        span: tuple[int, int] | None = None,
    ) -> None:
        line = getattr(node, "lineno", 1)
        if span is None:
            span = (line, getattr(node, "end_lineno", None) or line)
        self.violations.append(
            Violation(
                rule=rule,
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                message=message,
                span=span,
            )
        )

    # -- DD001: node construction -----------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if not self._node_privileged:
            name = _call_target_name(node)
            if name in ("VNode", "MNode"):
                self._report(
                    "DD001",
                    node,
                    f"direct {name}(...) construction bypasses hash-consing; "
                    "build nodes through Package.make_vedge/make_medge",
                )
        # DD005: time.time() calls
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            self._report(
                "DD005",
                node,
                "time.time() is not monotonic; use time.perf_counter() "
                "for durations (repro.obs timers expect it)",
            )
        # DD013: direct file access on artifact-store paths
        if not self._store_privileged:
            is_open = isinstance(func, ast.Name) and func.id == "open"
            is_os_move = (
                isinstance(func, ast.Attribute)
                and func.attr in ("replace", "rename")
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"
            )
            if is_open or is_os_move:
                arguments = list(node.args) + [
                    keyword.value for keyword in node.keywords
                ]
                if any(_is_store_path_expr(arg) for arg in arguments):
                    verb = (
                        "open()" if is_open else f"os.{func.attr}()"
                    )
                    self._report(
                        "DD013",
                        node,
                        f"{verb} on an artifact-store path bypasses "
                        "integrity blocks, atomic promotion, quorum "
                        "replication, and lease fencing; use the "
                        "ArtifactStore API (park_jobs, save_checkpoint, "
                        "append_ownership, ...)",
                    )
        self.generic_visit(node)

    # -- DD002: exact float/complex comparison ----------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if not self._ctable_exempt:
            operands = [node.left, *node.comparators]
            for op, left, right in zip(
                node.ops, operands[:-1], operands[1:]
            ):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_or_complex_literal(
                    left
                ) or _is_float_or_complex_literal(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    self._report(
                        "DD002",
                        node,
                        f"exact {symbol} against a float/complex literal; "
                        "use repro.dd.ctable helpers (is_zero, approx_equal) "
                        "or an explicit tolerance",
                    )
                    break
        self.generic_visit(node)

    # -- DD006: backend storage internals ---------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not self._backend_privileged and node.attr in _BACKEND_INTERNALS:
            self._report(
                "DD006",
                node,
                f"access to backend storage internal .{node.attr}; use the "
                "DDBackend interface (cache_stats, unique_table_sizes, "
                "integrity_problems) — storage layout is backend-private",
            )
        self.generic_visit(node)

    # -- DD003: node attribute mutation -----------------------------------

    def _check_attr_targets(self, node: ast.AST, targets: list[ast.expr]) -> None:
        if self._node_privileged:
            return
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr in _NODE_ATTRS
            ):
                self._report(
                    "DD003",
                    node,
                    f"assignment to .{target.attr} mutates a hash-consed "
                    "node; diagrams sharing it are corrupted — rebuild "
                    "through the package instead",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_attr_targets(node, node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_attr_targets(node, [node.target])
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_attr_targets(node, [node.target])
        self.generic_visit(node)

    # -- DD004: public annotation coverage --------------------------------

    def _check_signature(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        if (
            not self._wants_annotations
            or self._depth > 0  # nested helpers are implementation detail
            or node.name.startswith("_")
        ):
            return
        # The suppressible span covers the decorators and the (possibly
        # multi-line) signature, but not the function body.
        first = min(
            [dec.lineno for dec in node.decorator_list] + [node.lineno]
        )
        last = node.lineno
        if node.body:
            body_line = node.body[0].lineno
            if body_line > node.lineno:
                last = body_line - 1
        sig_span = (first, max(first, last))
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        # `self` / `cls` never need annotations.
        if positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        missing = [
            arg.arg
            for arg in (
                positional
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            )
            if arg.annotation is None
        ]
        if missing:
            self._report(
                "DD004",
                node,
                f"public function {node.name!r} has unannotated "
                f"parameter(s): {', '.join(missing)}",
                span=sig_span,
            )
        if node.returns is None:
            self._report(
                "DD004",
                node,
                f"public function {node.name!r} has no return annotation",
                span=sig_span,
            )

    # -- DD014: self-recursive closures -----------------------------------

    def _check_recursive_closure(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        if not self._bans_recursive_closures or self._depth == 0:
            return
        for statement in node.body:
            for sub in ast.walk(statement):
                if (
                    isinstance(sub, ast.Name)
                    and sub.id == node.name
                    and isinstance(sub.ctx, ast.Load)
                ):
                    self._report(
                        "DD014",
                        node,
                        f"nested function {node.name!r} refers to itself: "
                        "the function and its closure cell form a cycle "
                        "only the (paused) cyclic collector frees; lift it "
                        "to a module-level helper taking its state as "
                        "arguments",
                        span=(node.lineno, node.lineno),
                    )
                    return

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_signature(node)
        self._check_recursive_closure(node)
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_signature(node)
        self._check_recursive_closure(node)
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Methods of a top-level class are public API: do not bump depth
        # for the class body itself (only for nested defs inside methods).
        self.generic_visit(node)


def _is_suppressed(
    violation: Violation, suppressed: dict[int, set[str]]
) -> bool:
    """An inline marker anywhere in the violation's span silences it."""
    first, last = violation.span or (violation.line, violation.line)
    return any(
        violation.rule in suppressed.get(line, ())
        for line in range(first, last + 1)
    )


def lint_modules(sources: list[tuple[str, str]]) -> list[Violation]:
    """Lint a set of modules together (syntactic rules + dataflow passes).

    The single-module rules (DD001 — DD006) run per file; the
    project-wide passes (DD007 — DD012, :mod:`repro.analysis.passes`)
    run over the whole set at once, so cross-module facts (call graph,
    aliased imports) resolve.  Inline suppressions apply to both.

    Args:
        sources: ``(repo-relative path, source text)`` pairs.

    Returns:
        All non-suppressed violations, sorted by path then position.

    Raises:
        LintError: If any source does not parse.
    """
    # Imported here: passes depend on Violation, so a module-level
    # import would be circular.
    from .passes import build_project, run_passes

    parsed: list[tuple[str, str, ast.Module]] = []
    violations: list[Violation] = []
    suppressions: dict[str, dict[int, set[str]]] = {}
    for path, source in sources:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            raise LintError(f"{path}: {error}") from error
        module = module_name_for(path)
        checker = _Checker(path, module)
        checker.visit(tree)
        violations.extend(checker.violations)
        parsed.append((path, module, tree))
        suppressions[path] = _suppressed_codes(source)
    violations.extend(run_passes(build_project(parsed)))
    findings = [
        violation
        for violation in violations
        if not _is_suppressed(violation, suppressions.get(violation.path, {}))
    ]
    findings.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return findings


def lint_source(source: str, path: str) -> list[Violation]:
    """Lint one module's source text (single-module convenience).

    The dataflow passes run too, but with only this module in the
    project index — cross-module reachability reduces to local facts.

    Args:
        source: The module's source code.
        path: Repo-relative POSIX path (used for messages and for the
            module-based rule exemptions).

    Returns:
        All non-suppressed violations, ordered by position.

    Raises:
        LintError: If the source does not parse.
    """
    return lint_modules([(path, source)])


def lint_file(file_path: Path, root: Path) -> list[Violation]:
    """Lint one file, reporting paths relative to ``root``."""
    relative = file_path.resolve().relative_to(root.resolve()).as_posix()
    return lint_source(file_path.read_text(encoding="utf-8"), relative)


def lint_paths(
    paths: list[Path] | tuple[Path, ...], root: Path | None = None
) -> list[Violation]:
    """Lint every ``.py`` file under the given paths.

    All files are linted as one project so the dataflow passes can
    resolve cross-module call chains and aliases.

    Args:
        paths: Files or directories to lint (directories recurse).
        root: Directory violations are reported relative to (defaults to
            the current working directory).

    Returns:
        All violations, sorted by path then position.
    """
    base = (root or Path.cwd()).resolve()
    files: list[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    sources = [
        (
            file_path.resolve().relative_to(base).as_posix(),
            file_path.read_text(encoding="utf-8"),
        )
        for file_path in files
    ]
    return lint_modules(sources)
