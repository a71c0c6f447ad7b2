"""Build-on-first-use loader for the arena engine's C core.

``_arena_core.c`` is compiled with the interpreter's own compiler
(``sysconfig``) into this package's ``__pycache__``, under a name that
hashes the source, the flags and ``sys.version``, so an edit, a flag
change or another interpreter builds a fresh file and every later load
reuses it without calling the compiler.  The compiler writes to a
temporary name in the same directory and the result is moved into
place with ``os.replace``, so processes building at once (serve
workers) never load a half-written file.

A failed build is not an error here: :func:`load` reports it, the
default engine falls back to ``reference`` and asking for ``arena``
explicitly raises :class:`NativeCoreUnavailable`.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import sys
from pathlib import Path
from types import ModuleType

SOURCE = Path(__file__).with_name("_arena_core.c")

#: Where builds are cached: this package's ``__pycache__``.
CACHE_DIR = Path(__file__).with_name("__pycache__")

#: Bit parity with the reference engine needs unfused, IEEE-ordered
#: float arithmetic: no FMA contraction and no fast-math.
FLAGS = ("-O2", "-ffp-contract=off", "-fno-strict-aliasing", "-fPIC", "-shared")

_loaded: tuple[ModuleType | None, str | None] | None = None


class NativeCoreUnavailable(ValueError):
    """The arena engine was requested but its C core could not be built."""

    def __init__(self, reason: str) -> None:
        super().__init__(f"the arena engine's C core is unavailable: {reason}")
        self.reason = reason


def compile_command(target: Path) -> list[str]:
    """The compiler invocation that builds the core into ``target``."""
    # Build-only imports live in the build path: loading a cached build
    # happens in every fresh interpreter and must stay cheap.
    import shlex
    import sysconfig

    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    extra = ["-undefined", "dynamic_lookup"] if sys.platform == "darwin" else []
    include = sysconfig.get_paths()["include"]
    return [*compiler, *FLAGS, *extra, f"-I{include}", str(SOURCE), "-o", str(target)]


def _build(target: Path) -> None:
    """Compile to a temporary name beside ``target``, then move it in."""
    import subprocess
    import tempfile

    handle, temporary = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    os.close(handle)
    try:
        done = subprocess.run(
            compile_command(Path(temporary)), capture_output=True, text=True
        )
        if done.returncode != 0:
            raise RuntimeError(done.stderr.strip()[-2000:] or "compiler failed")
        os.replace(temporary, target)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)


def target_path(directory: Path) -> Path:
    """Where the core built from this source, flags and interpreter lives."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(" ".join(FLAGS).encode())
    digest.update(sys.version.encode())
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    return directory / f"_arena_core.{digest.hexdigest()[:16]}{suffix}"


def _load_from(directory: Path) -> ModuleType:
    """Import the core from ``directory``, building it there if missing."""
    target = target_path(directory)
    if not target.exists():
        directory.mkdir(parents=True, exist_ok=True)
        _build(target)
    spec = importlib.util.spec_from_file_location(f"{__package__}._arena_core", target)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load() -> tuple[ModuleType | None, str | None]:
    """The core module and None, or None and why it could not be built.

    The outcome is cached for the life of the process.
    """
    global _loaded
    if _loaded is None:
        try:
            _loaded = (_load_from(CACHE_DIR), None)
        except Exception as exc:  # any failure means "fall back"
            _loaded = (None, str(exc) or type(exc).__name__)
    return _loaded


def require() -> ModuleType:
    """The core module; raises :class:`NativeCoreUnavailable` otherwise."""
    module, reason = load()
    if module is None:
        raise NativeCoreUnavailable(reason or "unknown failure")
    return module
