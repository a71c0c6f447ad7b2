"""The arena's C core: build-once loader, fallback selection, crash safety.

Everything that could crash the interpreter runs in a fresh subprocess,
so a segfault fails one test instead of killing the whole session.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.dd.backends import ENV_VAR, default_backend_name, native, set_backend_override
from repro.dd.package import Package

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _environment() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = (SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")).rstrip(
        os.pathsep
    )
    return env


def _start(script: str) -> subprocess.Popen[str]:
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_environment(),
    )


def _run_isolated(script: str) -> None:
    """Run ``script`` in a fresh interpreter; it must exit 0 printing ok."""
    process = _start(script)
    stdout, stderr = process.communicate(timeout=300)
    assert process.returncode == 0, f"exit {process.returncode}: {stderr}"
    assert stdout.strip() == "ok", stdout + stderr


@pytest.fixture
def core():
    module, reason = native.load()
    assert module is not None, reason
    return module


class TestLoader:
    def test_build_flags_keep_float_ops_unfused(self, core, tmp_path):
        command = native.compile_command(tmp_path / "out.so")
        assert "-ffp-contract=off" in command
        assert not any("fast-math" in flag or flag == "-Ofast" for flag in command)

    def test_second_load_does_not_call_the_compiler(self, core):
        # The session's own load built or found the cached file.
        _run_isolated(
            """
            import subprocess
            from repro.dd.backends import native

            def refuse(*args, **kwargs):
                raise AssertionError("the compiler was called")

            subprocess.run = refuse
            native._build = refuse
            module, reason = native.load()
            assert module is not None, reason
            print("ok")
            """
        )

    def test_concurrent_builds_install_one_working_file(self, core, tmp_path):
        script = f"""
            from pathlib import Path
            from repro.dd.backends import native
            from repro.dd.backends.arena import ArenaBackend

            module = native._load_from(Path({str(tmp_path)!r}))
            backend = ArenaBackend()
            weight, node = module.make_vedge(backend, 0, (1 + 0j, None), (0j, None))
            assert weight == 1 and node.index == 0 and backend._v_nodes == [node]
            print("ok")
            """
        processes = [_start(script) for _ in range(2)]
        for process in processes:
            stdout, stderr = process.communicate(timeout=300)
            assert process.returncode == 0, stderr
            assert stdout.strip() == "ok"
        assert [path.name.startswith("_arena_core.") for path in tmp_path.iterdir()] == [
            True
        ]
        assert not list(tmp_path.glob("*.tmp"))


class TestFallback:
    def test_failed_build_selects_reference_and_types_the_error(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.delenv(ENV_VAR, raising=False)
        set_backend_override(None)
        failing = [
            sys.executable,
            "-c",
            "import sys; sys.stderr.write('fakecc: error: no such compiler'); sys.exit(1)",
        ]
        monkeypatch.setattr(native, "_loaded", None)
        monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
        monkeypatch.setattr(native, "compile_command", lambda target: failing)

        assert default_backend_name() == "reference"
        assert Package().backend_name == "reference"
        with pytest.raises(native.NativeCoreUnavailable, match="no such compiler") as info:
            Package(backend="arena")
        assert isinstance(info.value, ValueError)
        assert "no such compiler" in info.value.reason
        assert list(tmp_path.iterdir()) == []


#: Malformed edges: bad shapes first, then a matrix node where a vector
#: node belongs, then vector nodes whose own edges are malformed.
MALFORMED_EDGES = [
    "[1 + 0j, None]",
    "'edge'",
    "None",
    "(1 + 0j,)",
    "(1 + 0j, None, None)",
    "('w', None)",
    "(None, None)",
    "(1, None)",
    "(1 + 0j, 'node')",
    "(1 + 0j, MNode(0, ((1 + 0j, None),) * 4))",
    "(1 + 0j, VNode(0, ((1 + 0j, None),)))",
    "(1 + 0j, VNode(0, 'edges'))",
    "(1 + 0j, VNode(0, ((1 + 0j, None), ('w', None))))",
]

_PRELUDE = f"""
from repro.dd.node import MNode, VNode
from repro.dd.package import Package
from repro.dd.vector import StateDD
from repro.circuits.circuit import Operation
from repro.circuits.lowering import operation_to_medge

package = Package(backend="arena")
state = StateDD.plus_state(2, package)
gate = operation_to_medge(Operation("h", (0,)), 2, package)
malformed = [{", ".join(MALFORMED_EDGES)}]

def expect_type_error(call, *args):
    try:
        call(*args)
    except TypeError:
        return
    raise AssertionError(f"no TypeError from {{call.__name__}}, {{len(args)}} args")
"""


class TestCrashSafety:
    """Malformed edges raise TypeError from every entry of the core."""

    @pytest.mark.parametrize(
        "calls",
        [
            pytest.param(
                """
                for bad in malformed[:10]:
                    expect_type_error(package.make_vedge, 1, bad, state.edge[1].edges[0])
                    expect_type_error(package.make_vedge, 1, state.edge[1].edges[0], bad)
                """,
                id="make_vedge",
            ),
            pytest.param(
                """
                child = state.edge[1].edges[0]
                for bad in malformed:
                    expect_type_error(package.vadd, bad, child, 0)
                    expect_type_error(package.vadd, child, bad, 0)
                # A zero operand returns the other edge without reading
                # its node, so only the edge itself is checked.
                for bad in malformed[:10]:
                    expect_type_error(package.vadd, (0j, None), bad, 0)
                """,
                id="vadd",
            ),
            pytest.param(
                """
                for bad in malformed:
                    expect_type_error(package.multiply_mv, bad, state.edge, 1)
                    expect_type_error(package.multiply_mv, gate, bad, 1)
                for bad in malformed[:10]:
                    expect_type_error(package.multiply_mv, (0j, None), bad, 1)
                expect_type_error(package.multiply_mv, state.edge, state.edge, 1)
                expect_type_error(package.multiply_mv, gate, (1 + 0j, None), 1)
                """,
                id="multiply_mv",
            ),
            pytest.param(
                """
                for bad in malformed[:10]:
                    expect_type_error(package.node_count, bad)
                root = state.edge[1]
                root.edges = (root.edges[0],)
                expect_type_error(package.node_count, state.edge)
                """,
                id="node_count",
            ),
        ],
    )
    def test_malformed_edges_raise_type_error(self, calls):
        _run_isolated(_PRELUDE + textwrap.dedent(calls) + "print('ok')\n")

    @pytest.mark.parametrize("graft", ["hand_built", "other_package"])
    def test_node_count_on_grafted_root_matches_base_traversal(self, graft):
        _run_isolated(
            f"""
            from repro.dd.backends.base import DDBackend
            from repro.dd.node import VNode
            from repro.dd.package import Package
            from repro.dd.vector import StateDD

            package = Package(backend="arena")
            state = StateDD.plus_state(3, package)
            if {graft!r} == "hand_built":
                stranger = VNode(1, ((1 + 0j, None), (0j, None)))
                assert stranger.index == -1
            else:
                other = Package(backend="arena")
                stranger = StateDD.basis_state(2, 1, other).edge[1]
                # Its id names a live slot here too, holding another node.
                assert package.backend._v_nodes[stranger.index] is not stranger
            root = state.edge[1]
            root.edges = ((root.edges[0][0], stranger), root.edges[1])
            expected = DDBackend.node_count(package.backend, state.edge)
            assert expected == 3 + (2 if {graft!r} == "other_package" else 1)
            assert package.node_count(state.edge) == expected
            print("ok")
            """
        )
