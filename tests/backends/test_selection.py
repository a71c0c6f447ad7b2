"""Backend selection: flag > environment > default, lazy arena import."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro

from repro.dd.backends import (
    BACKEND_NAMES,
    ENV_VAR,
    create_backend,
    default_backend_name,
    normalize_backend_name,
    set_backend_override,
)
from repro.dd.package import (
    Package,
    default_package,
    reset_default_package,
    set_default_backend,
)


@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    """Isolate override and environment state per test."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    set_backend_override(None)
    reset_default_package()
    yield
    set_backend_override(None)
    reset_default_package()


class TestNames:
    def test_known_names(self):
        assert BACKEND_NAMES == ("reference", "arena")

    def test_normalize_strips_and_lowers(self):
        assert normalize_backend_name("  Arena ") == "arena"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown DD backend"):
            normalize_backend_name("gpu")

    def test_package_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            Package(backend="gpu")


class TestPrecedence:
    def test_default_is_arena(self):
        assert default_backend_name() == "arena"
        assert Package().backend_name == "arena"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        assert default_backend_name() == "reference"
        assert Package().backend_name == "reference"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "arena")
        set_backend_override("reference")
        assert default_backend_name() == "reference"

    def test_explicit_argument_beats_override(self):
        set_backend_override("arena")
        assert Package(backend="reference").backend_name == "reference"

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "nope")
        with pytest.raises(ValueError):
            default_backend_name()


class TestDefaultPackage:
    def test_default_package_respects_override(self):
        assert default_package().backend_name == "arena"
        set_default_backend("reference")
        # The singleton is rebuilt on first use after the choice changes
        # (the pre-existing default must not shadow it).
        assert default_package().backend_name == "reference"
        set_default_backend(None)
        assert default_package().backend_name == "arena"

    def test_default_package_respects_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        assert default_package().backend_name == "reference"

    def test_singleton_is_stable_without_changes(self):
        assert default_package() is default_package()


def _run_isolated(script: str) -> None:
    """Run ``script`` in a fresh interpreter with no ``REPRO_*`` settings."""
    src_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = (
        src_root + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=False,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


class TestLazyArenaImport:
    def test_reference_does_not_import_arena(self):
        # The arena module (and its numpy arrays) must only load when
        # requested: the reference path stays importable without it.
        _run_isolated(
            "import sys\n"
            "from repro.dd.backends import create_backend\n"
            "backend = create_backend('reference')\n"
            "assert backend.name == 'reference'\n"
            "assert 'repro.dd.backends.arena' not in sys.modules, (\n"
            "    'arena imported eagerly')\n"
            "print('ok')\n"
        )

    def test_create_backend_arena(self):
        assert create_backend("arena").name == "arena"


class TestRootLevelCheck:
    """``approximate_round`` and ``rebuild_without`` reject a level that is
    not the root's with the same ValueError on both engines, before any
    work."""

    @staticmethod
    def _outcomes(backend: str, level: int) -> tuple:
        from repro.dd.vector import StateDD

        package = Package(backend=backend)
        state = StateDD.from_amplitudes([0.8**0.5, 0, 0, 0.2**0.5], package)
        before = dict(package.stats)
        found = []
        for call, args in (
            (package.approximate_round, (state.edge, level, 0.2, 4)),
            (package.rebuild_without, (state.edge, level, {state.edge[1]})),
        ):
            with pytest.raises(ValueError) as info:
                call(*args)
            found.append(str(info.value))
        assert package.stats == before
        return tuple(found)

    @pytest.mark.parametrize("level", [5, 2, 0, -1])
    def test_both_engines_raise_the_same_value_error(self, level):
        outcomes = [self._outcomes(backend, level) for backend in BACKEND_NAMES]
        assert outcomes[0] == outcomes[1]
        assert f"level {level} is not the root's level 1" in outcomes[0][0]

    def test_a_terminal_above_level_0_is_a_type_error_on_both_engines(self):
        found = []
        for backend in BACKEND_NAMES:
            with pytest.raises(TypeError) as info:
                Package(backend=backend).rebuild_without((1 + 0j, None), 1, set())
            found.append(str(info.value))
        assert found[0] == found[1]
