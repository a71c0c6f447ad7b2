"""Concurrency-discipline passes: DD009, DD010, DD011.

The serve daemon (docs/SERVE.md) holds a single state lock around every
tick; its latency guarantees (bounded admission p99, prompt heartbeat
supervision) die the moment anything blocking runs under that lock.
Fork-context workers inherit the parent's threads, locks, and sockets
at fork time, and signal handlers interrupt arbitrary bytecode — both
are classic sources of rare, unreproducible deadlocks.  These passes
encode the discipline statically:

* **DD009** — blocking calls (file/socket I/O, ``Queue.get`` without a
  timeout, subprocess waits, ``time.sleep``, bare ``acquire()``) while
  a ``threading`` lock/condition is held, found transitively through
  the project call graph.
* **DD010** — (i) non-reentrant work (``print``, logging, blocking
  I/O, lock acquisition) reachable from a registered signal handler;
  (ii) threads started or sockets opened *before* a fork-context
  process spawn in the same function body.
* **DD011** — writes to module-level state from fork-worker entry
  functions (``Process(target=...)``): the child's copy-on-write page
  diverges silently, so results must travel through sanctioned
  channels (queues, events, shared values) passed as parameters.
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

__all__ = ["check_concurrency"]

_MAX_DEPTH = 10

#: Dotted callables that block (or may block arbitrarily long).
_BLOCKING_DOTTED: dict[str, str] = {
    "open": "file I/O via open()",
    "json.dump": "file I/O via json.dump()",
    "json.load": "file I/O via json.load()",
    "pickle.dump": "file I/O via pickle.dump()",
    "pickle.load": "file I/O via pickle.load()",
    "time.sleep": "time.sleep()",
    "subprocess.run": "subprocess.run() waits for the child",
    "subprocess.call": "subprocess.call() waits for the child",
    "subprocess.check_call": "subprocess.check_call() waits",
    "subprocess.check_output": "subprocess.check_output() waits",
    "socket.create_connection": "socket connect",
    "shutil.copy": "file I/O via shutil.copy()",
    "shutil.copytree": "file I/O via shutil.copytree()",
    "shutil.rmtree": "file I/O via shutil.rmtree()",
    "shutil.move": "file I/O via shutil.move()",
}

#: Socket methods that block regardless of arguments.
_SOCKET_BLOCKING = frozenset(
    {"accept", "recv", "recvfrom", "recv_into", "sendall", "connect",
     "makefile"}
)

#: threading-module constructors that are hazardous to create before a
#: fork (multiprocessing primitives are fork-aware and stay sanctioned).
_FORK_HAZARD_CTORS: dict[str, str] = {
    "threading.Lock": "a threading.Lock",
    "threading.RLock": "a threading.RLock",
    "threading.Condition": "a threading.Condition",
    "threading.Semaphore": "a threading.Semaphore",
    "threading.BoundedSemaphore": "a threading.BoundedSemaphore",
    "socket.socket": "an open socket",
    "socket.create_connection": "an open socket",
}

#: Container-mutating method names (for DD011 module-state writes).
_MUTATOR_METHODS = frozenset(
    {"append", "extend", "insert", "add", "update", "setdefault",
     "clear", "pop", "popitem", "remove"}
)


def _span(node: ast.AST) -> tuple[int, int]:
    line = getattr(node, "lineno", 1)
    return (line, getattr(node, "end_lineno", None) or line)


def check_concurrency(project: ProjectIndex) -> list[Violation]:
    """Run DD009, DD010, and DD011 over the indexed project."""
    findings = _check_lock_regions(project)
    findings.extend(_check_signal_handlers(project))
    findings.extend(_check_fork_order(project))
    findings.extend(_check_worker_writes(project))
    return findings


# ----------------------------------------------------------------------
# Blocking-call classification (shared by DD009 and DD010)
# ----------------------------------------------------------------------


def _has_timeout(call: ast.Call) -> bool:
    """True when a wait-style call passes a timeout (positionally or
    as ``timeout=``)."""
    if call.args:
        return True
    return any(kw.arg == "timeout" for kw in call.keywords)


def _nonblocking_acquire(call: ast.Call) -> bool:
    if call.args and isinstance(call.args[0], ast.Constant):
        if call.args[0].value is False:
            return True
    for kw in call.keywords:
        if kw.arg == "blocking" and isinstance(kw.value, ast.Constant):
            if kw.value.value is False:
                return True
        if kw.arg == "timeout":
            return True
    return False


def _blocking_reason(site: CallSite) -> str | None:
    """Why this call may block indefinitely, or ``None`` if it cannot."""
    if site.dotted is not None and site.dotted in _BLOCKING_DOTTED:
        return _BLOCKING_DOTTED[site.dotted]
    kind, method = site.recv_kind, site.method
    if kind is None or method is None:
        return None
    call = site.node
    if kind == "queue" and method in ("get", "join"):
        if method == "get" and _has_timeout(call):
            return None
        if any(
            kw.arg == "block"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
            for kw in call.keywords
        ):
            return None
        if method == "get" and call.args:
            return None
        return f"Queue.{method}() without a timeout"
    if kind in ("thread", "process", "process_fork", "popen"):
        if method in ("join", "wait", "communicate") and not _has_timeout(
            call
        ):
            return f"{method}() on a thread/process without a timeout"
    if kind in ("condition", "event") and method == "wait":
        if not _has_timeout(call):
            return f"{kind}.wait() without a timeout"
    if kind == "lock" and method == "acquire":
        if not _nonblocking_acquire(call):
            return "nested lock acquire() without blocking=False"
    if kind == "socket" and method in _SOCKET_BLOCKING:
        return f"socket.{method}()"
    return None


def _nowait_methods(site: CallSite) -> bool:
    return site.method in ("get_nowait", "put_nowait")


# ----------------------------------------------------------------------
# DD009 — blocking calls while a state lock is held
# ----------------------------------------------------------------------


def _lock_items(
    project: ProjectIndex, scope: FunctionScope, node: ast.With | ast.AsyncWith
) -> list[ast.expr]:
    held: list[ast.expr] = []
    for item in node.items:
        origin = project.resolve_expr(item.context_expr, scope)
        if origin is not None and origin.kind in ("lock", "condition"):
            held.append(item.context_expr)
    return held


def _calls_within(
    scope: FunctionScope, region: ast.AST
) -> list[CallSite]:
    inner: set[int] = set()

    def walk(node: ast.AST) -> None:
        inner.add(id(node))
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            walk(child)

    walk(region)
    return [site for site in scope.calls if id(site.node) in inner]


def _check_lock_regions(project: ProjectIndex) -> list[Violation]:
    findings: list[Violation] = []
    for scope in sorted(
        project.functions.values(), key=lambda s: (s.path, s.qualname)
    ):
        for node in iter_scope_nodes(scope):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            held = _lock_items(project, scope, node)
            if not held:
                continue
            lock_desc = ast.unparse(held[0])
            findings.extend(
                _scan_region(project, scope, node, lock_desc)
            )
    return findings


def _scan_region(
    project: ProjectIndex,
    scope: FunctionScope,
    region: ast.With | ast.AsyncWith,
    lock_desc: str,
) -> list[Violation]:
    findings: list[Violation] = []
    reported: set[tuple[str, int]] = set()
    base_trace = (
        f"{scope.path}:{region.lineno} {scope.display_name}: "
        f"with {lock_desc}: acquires the lock",
    )
    for site in _calls_within(scope, region):
        reason = _blocking_reason(site)
        if reason is not None:
            key = (scope.path, site.line)
            if key not in reported:
                reported.add(key)
                findings.append(
                    _lock_violation(
                        scope, site, reason, lock_desc, base_trace
                    )
                )
            continue
        callee = project.callee_scope(site)
        if callee is None or site.method == "<target>":
            continue
        chain = base_trace + (
            f"{scope.path}:{site.line} {scope.display_name} calls "
            f"{callee.display_name}",
        )
        findings.extend(
            _scan_callee(
                project, callee, lock_desc, chain, {scope.qualname},
                reported, 1,
            )
        )
    return findings


def _scan_callee(
    project: ProjectIndex,
    scope: FunctionScope,
    lock_desc: str,
    chain: tuple[str, ...],
    visited: set[str],
    reported: set[tuple[str, int]],
    depth: int,
) -> list[Violation]:
    if scope.qualname in visited or depth > _MAX_DEPTH:
        return []
    visited.add(scope.qualname)
    findings: list[Violation] = []
    for site in scope.calls:
        reason = _blocking_reason(site)
        if reason is not None:
            key = (scope.path, site.line)
            if key in reported:
                continue
            reported.add(key)
            findings.append(
                _lock_violation(scope, site, reason, lock_desc, chain)
            )
            continue
        callee = project.callee_scope(site)
        if callee is None or site.method == "<target>":
            continue
        findings.extend(
            _scan_callee(
                project,
                callee,
                lock_desc,
                chain
                + (
                    f"{scope.path}:{site.line} {scope.display_name} "
                    f"calls {callee.display_name}",
                ),
                visited,
                reported,
                depth + 1,
            )
        )
    return findings


def _lock_violation(
    scope: FunctionScope,
    site: CallSite,
    reason: str,
    lock_desc: str,
    chain: tuple[str, ...],
) -> Violation:
    return Violation(
        rule="DD009",
        path=scope.path,
        line=site.line,
        col=site.node.col_offset,
        message=(
            f"{reason} while the state lock ({lock_desc}) is held; "
            "move the blocking work outside the lock region "
            "(collect under the lock, perform after release)"
        ),
        trace=chain
        + (
            f"{scope.path}:{site.line} {scope.display_name}: {reason} "
            "blocks while the lock is held",
        ),
        span=_span(site.node),
    )


# ----------------------------------------------------------------------
# DD010 (i) — non-reentrant work in signal handlers
# ----------------------------------------------------------------------


def _handler_hazard(site: CallSite) -> str | None:
    if site.dotted == "print":
        return (
            "print() re-enters a buffered stream (RuntimeError or "
            "deadlock if the signal lands mid-write); use os.write()"
        )
    if site.dotted is not None and site.dotted.startswith("logging."):
        return "logging acquires module locks and is not reentrant"
    if site.recv_kind == "lock" and site.method == "acquire":
        return "lock acquire() in a signal handler can self-deadlock"
    if site.recv_kind == "queue" and site.method in ("get", "put"):
        return "queue operations take internal locks"
    reason = _blocking_reason(site)
    if reason is not None:
        return f"{reason} is not async-signal-safe"
    return None


def _check_signal_handlers(project: ProjectIndex) -> list[Violation]:
    findings: list[Violation] = []
    reported: set[tuple[str, int]] = set()
    for scope in sorted(
        project.functions.values(), key=lambda s: (s.path, s.qualname)
    ):
        for site in scope.calls:
            if site.dotted != "signal.signal":
                continue
            args = site.node.args
            if len(args) < 2:
                continue
            origin = project.resolve_expr(args[1], scope)
            handler = project.function_for_origin(origin)
            if handler is None:
                continue
            registration = (
                f"{scope.path}:{site.line} {scope.display_name} "
                f"registers {handler.display_name} as a signal handler"
            )
            findings.extend(
                _scan_handler(
                    project, handler, registration, set(), reported, 0
                )
            )
    return findings


def _scan_handler(
    project: ProjectIndex,
    scope: FunctionScope,
    registration: str,
    visited: set[str],
    reported: set[tuple[str, int]],
    depth: int,
) -> list[Violation]:
    if scope.qualname in visited or depth > _MAX_DEPTH:
        return []
    visited.add(scope.qualname)
    findings: list[Violation] = []
    for site in scope.calls:
        hazard = _handler_hazard(site)
        if hazard is not None:
            key = (scope.path, site.line)
            if key in reported:
                continue
            reported.add(key)
            findings.append(
                Violation(
                    rule="DD010",
                    path=scope.path,
                    line=site.line,
                    col=site.node.col_offset,
                    message=(
                        f"non-reentrant work in a signal handler: {hazard}"
                    ),
                    trace=(
                        registration,
                        f"{scope.path}:{site.line} "
                        f"{scope.display_name}: {hazard}",
                    ),
                    span=_span(site.node),
                )
            )
            continue
        callee = project.callee_scope(site)
        if callee is not None:
            findings.extend(
                _scan_handler(
                    project, callee, registration, visited, reported,
                    depth + 1,
                )
            )
    return findings


# ----------------------------------------------------------------------
# DD010 (ii) — threads/sockets created before a fork-context spawn
# ----------------------------------------------------------------------


def _check_fork_order(project: ProjectIndex) -> list[Violation]:
    findings: list[Violation] = []
    for scope in sorted(
        project.functions.values(), key=lambda s: (s.path, s.qualname)
    ):
        hazards: list[tuple[int, str]] = []
        for site in scope.calls:
            if site.method == "<target>":
                continue
            if site.recv_kind == "thread" and site.method == "start":
                hazards.append(
                    (site.line, "a thread is started here")
                )
            elif (
                site.dotted is not None
                and site.dotted in _FORK_HAZARD_CTORS
            ):
                hazards.append(
                    (
                        site.line,
                        f"{_FORK_HAZARD_CTORS[site.dotted]} is created "
                        "here",
                    )
                )
        if not hazards:
            continue
        for site in scope.calls:
            spawn = _fork_spawn(site)
            if spawn is None:
                continue
            before = [h for h in hazards if h[0] < site.line]
            if not before:
                continue
            trace = [
                f"{scope.path}:{line} {scope.display_name}: {what}"
                for line, what in before
            ]
            trace.append(
                f"{scope.path}:{site.line} {scope.display_name}: "
                f"{spawn} — the child inherits the state above"
            )
            findings.append(
                Violation(
                    rule="DD010",
                    path=scope.path,
                    line=site.line,
                    col=site.node.col_offset,
                    message=(
                        f"fork-context spawn after a fork hazard at "
                        f"line {before[0][0]} ({before[0][1]}); a "
                        "forked child inherits threads mid-state, held "
                        "locks, and open sockets — spawn workers first "
                        "or use multiprocessing primitives"
                    ),
                    trace=tuple(trace),
                    span=_span(site.node),
                )
            )
    return findings


def _fork_spawn(site: CallSite) -> str | None:
    if site.method == "<target>":
        return None
    if site.recv_kind == "process_fork" and site.method == "start":
        return "a fork-context Process is started"
    return None


# ----------------------------------------------------------------------
# DD011 — cross-process shared-state writes in fork workers
# ----------------------------------------------------------------------


def _worker_entries(project: ProjectIndex) -> list[FunctionScope]:
    entries: dict[str, FunctionScope] = {}
    for scope in project.functions.values():
        for site in scope.calls:
            if (
                site.method == "<target>"
                and site.recv_kind in ("process", "process_fork")
                and site.target is not None
            ):
                worker = project.functions.get(site.target)
                if worker is not None:
                    entries[worker.qualname] = worker
    return sorted(entries.values(), key=lambda s: s.qualname)


def _is_module_level_name(
    project: ProjectIndex, scope: FunctionScope, name: str
) -> bool:
    walk: FunctionScope | None = scope
    while walk is not None:
        if (
            name in walk.params
            or name in walk.assigns
            or name in walk.nested
        ):
            return False
        walk = walk.parent
    mod = project.modules.get(scope.module)
    if mod is None:
        return False
    return (
        name in mod.assigns
        or name in mod.imports
        or name in mod.top_classes
        or name in mod.top_funcs
    )


def _check_worker_writes(project: ProjectIndex) -> list[Violation]:
    findings: list[Violation] = []
    reported: set[tuple[str, int]] = set()
    for worker in _worker_entries(project):
        findings.extend(
            _scan_worker(project, worker, worker, set(), reported, 0)
        )
    return findings


def _scan_worker(
    project: ProjectIndex,
    scope: FunctionScope,
    worker: FunctionScope,
    visited: set[str],
    reported: set[tuple[str, int]],
    depth: int,
) -> list[Violation]:
    if scope.qualname in visited or depth > _MAX_DEPTH:
        return []
    visited.add(scope.qualname)
    findings: list[Violation] = []
    globals_declared: set[str] = set()
    for node in iter_scope_nodes(scope):
        if isinstance(node, ast.Global):
            globals_declared.update(node.names)
    for node in iter_scope_nodes(scope):
        hazard = _worker_write_hazard(
            project, scope, node, globals_declared
        )
        if hazard is None:
            continue
        line = getattr(node, "lineno", 1)
        key = (scope.path, line)
        if key in reported:
            continue
        reported.add(key)
        findings.append(
            Violation(
                rule="DD011",
                path=scope.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                message=(
                    f"{hazard} in a fork-worker: the write lands in the "
                    "child's copy-on-write page and is lost to the "
                    "parent — send results through the sanctioned "
                    "channels (queue/event/shared value parameters)"
                ),
                trace=(
                    f"{worker.path}:{_span(worker.node)[0]} "
                    f"{worker.display_name} runs in a forked worker "
                    "process (Process target)",
                    f"{scope.path}:{line} {scope.display_name}: {hazard}",
                ),
                span=_span(node),
            )
        )
    for site in scope.calls:
        callee = project.callee_scope(site)
        if callee is not None and callee.module == scope.module:
            findings.extend(
                _scan_worker(
                    project, callee, worker, visited, reported, depth + 1
                )
            )
    # Thread targets started inside the worker run in-process too.
    for site in scope.calls:
        if site.method == "<target>" and site.target is not None:
            callee = project.functions.get(site.target)
            if callee is not None:
                findings.extend(
                    _scan_worker(
                        project, callee, worker, visited, reported,
                        depth + 1,
                    )
                )
    return findings


def _worker_write_hazard(
    project: ProjectIndex,
    scope: FunctionScope,
    node: ast.AST,
    globals_declared: set[str],
) -> str | None:
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        else:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id in (
                globals_declared
            ):
                return f"assignment to global {target.id!r}"
            base = target
            if isinstance(base, (ast.Attribute, ast.Subscript)):
                root = base.value
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    root = root.value
                if isinstance(
                    root, ast.Name
                ) and _is_module_level_name(project, scope, root.id):
                    kind = (
                        "attribute write"
                        if isinstance(base, ast.Attribute)
                        else "item write"
                    )
                    return (
                        f"{kind} to module-level object {root.id!r}"
                    )
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATOR_METHODS
        ):
            root = func.value
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name) and _is_module_level_name(
                project, scope, root.id
            ):
                return (
                    f".{func.attr}() on module-level object {root.id!r}"
                )
    return None
