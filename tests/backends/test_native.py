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
            from repro.dd.backends import arena, native

            module = native._load_from(Path({str(tmp_path)!r}))
            # A backend's state is an object of the core that made it.
            arena._core = module
            backend = arena.ArenaBackend()
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

#: Malformed matrix edges: bad shapes and weights, a vector node where a
#: matrix node belongs, then matrix nodes whose own edges are malformed.
MALFORMED_MEDGES = [
    "[1 + 0j, None]",
    "'edge'",
    "None",
    "(1 + 0j,)",
    "(1 + 0j, None, None)",
    "('w', None)",
    "(None, None)",
    "(1, None)",
    "(1 + 0j, 'node')",
    "(1 + 0j, VNode(0, ((1 + 0j, None),) * 2))",
    "(1 + 0j, MNode(0, ((1 + 0j, None),) * 2))",
    "(1 + 0j, MNode(0, ((1 + 0j, None),) * 3))",
    "(1 + 0j, MNode(0, ((1 + 0j, None),) * 3 + (('w', None),)))",
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
identity = package.identity(2)
malformed = [{", ".join(MALFORMED_EDGES)}]
malformed_m = [{", ".join(MALFORMED_MEDGES)}]

def expect_type_error(call, *args):
    try:
        call(*args)
    except TypeError:
        return
    raise AssertionError(f"no TypeError from {{call.__name__}}, {{len(args)}} args")

def outcome(call, *args):
    try:
        return call(*args)
    except Exception as error:
        return type(error)

def expect_type_error_or_generic(call, generic, *args):
    # TypeError, or whatever the generic traversal gives (it falls back).
    found = outcome(call, *args)
    assert found is TypeError or found == outcome(generic, package.backend, *args), (
        call.__name__, found
    )
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
                quadrants = gate[1].edges
                # The core reads the four quadrant edges, not their nodes.
                for bad in malformed_m[:10]:
                    for k in range(4):
                        edges = quadrants[:k] + (bad,) + quadrants[k + 1 :]
                        expect_type_error(package.make_medge, 1, edges)
                for edges in (quadrants[:2], quadrants[:3], list(quadrants), None):
                    expect_type_error(package.make_medge, 1, edges)
                expect_type_error(package.make_medge, "1", quadrants)
                """,
                id="make_medge",
            ),
            pytest.param(
                """
                for bad in malformed_m:
                    expect_type_error(package.madd, bad, gate, 1)
                    expect_type_error(package.madd, gate, bad, 1)
                # A zero operand returns the other edge without reading
                # its node, so only the edge itself is checked.
                for bad in malformed_m[:10]:
                    expect_type_error(package.madd, (0j, None), bad, 1)
                expect_type_error(package.madd, gate, (1 + 0j, None), 1)
                expect_type_error(package.madd, gate, identity, "1")
                """,
                id="madd",
            ),
            pytest.param(
                """
                for bad in malformed_m:
                    expect_type_error(package.multiply_mm, bad, gate, 1)
                    expect_type_error(package.multiply_mm, gate, bad, 1)
                for bad in malformed_m[:10]:
                    expect_type_error(package.multiply_mm, (0j, None), bad, 1)
                expect_type_error(package.multiply_mm, gate, (1 + 0j, None), 1)
                expect_type_error(package.multiply_mm, gate, identity, "1")
                """,
                id="multiply_mm",
            ),
            pytest.param(
                """
                for bad in malformed[:10]:
                    expect_type_error(package.node_count, bad)
                # Arena nodes are read-only: a malformed root is hand-built
                # above arena nodes, and the generic traversal takes it.
                from repro.dd.backends.base import DDBackend

                root = VNode(2, (state.edge[1].edges[0],))
                expect_type_error_or_generic(
                    package.node_count, DDBackend.node_count, (1 + 0j, root)
                )
                """,
                id="node_count",
            ),
            pytest.param(
                """
                from repro.dd.backends.base import DDBackend

                for bad in malformed[:10]:
                    expect_type_error(package.vnodes, bad)
                    expect_type_error(package.norm_contributions, bad)
                # Vector nodes that are no arena slot: the generic sweeps.
                for bad in malformed[10:]:
                    expect_type_error_or_generic(package.vnodes, DDBackend.vnodes, bad)
                    expect_type_error_or_generic(
                        package.norm_contributions, DDBackend.norm_contributions, bad
                    )
                """,
                id="sweeps",
            ),
            pytest.param(
                """
                from repro.dd.backends.base import DDBackend

                # The DDBackend body on both engines.
                assert package.rebuild_without.__func__ is DDBackend.rebuild_without
                # A level that is not the root's is checked before any work.
                assert outcome(package.rebuild_without, state.edge, 5, set()) is ValueError
                expect_type_error(package.rebuild_without, (1 + 0j, None), 1, set())
                root = state.edge[1]
                assert package.rebuild_without(state.edge, 1, {root}) == (0j, None)
                """,
                id="rebuild_without",
            ),
            pytest.param(
                """
                from repro.dd.backends.base import DDBackend

                round_ = package.approximate_round
                for bad in malformed[:10]:
                    expect_type_error(round_, bad, 1, 0.5, 4)
                for bad in malformed[10:]:
                    for level in (0, 1):
                        expect_type_error_or_generic(
                            round_, DDBackend.approximate_round, bad, level, 0.5, 4
                        )
                reference = Package(backend="reference")
                plus = StateDD.plus_state(2, reference)
                # Each bad budget or count: the same exception on both engines.
                for budget, max_removed in (
                    ("0.5", 4), (None, 4), (0.5j, 4), ([0.5], 4),
                    (-0.5, 4), (float("nan"), 4), (-float("inf"), 4),
                    (0.5, 1.5), (0.5, "4"), (0.5, None), (0.5, -1),
                ):
                    found = outcome(round_, state.edge, 1, budget, max_removed)
                    assert found in (TypeError, ValueError), found
                    assert found is outcome(
                        reference.approximate_round, plus.edge, 1, budget, max_removed
                    ), (budget, max_removed)
                expect_type_error(round_, state.edge, "1", 0.5, 4)
                expect_type_error(package.backend.approximate_round, state.edge, 1, 0.5)
                # A level that is not the root's is checked before any work.
                skewed = StateDD.from_amplitudes([0.8**0.5, 0, 0, 0.2**0.5], package)
                assert outcome(round_, skewed.edge, 5, 0.2, 4) is ValueError
                assert round_(skewed.edge, 1, 0.2, 4)[2] == 1
                assert round_(skewed.edge, 1, 0.2, 0) == (skewed.edge, 0.0, 0)
                assert round_(state.edge, 1, 0.5, 4) == (state.edge, 0.0, 0)
                """,
                id="approximate_round",
            ),
            pytest.param(
                """
                reference = Package(backend="reference")
                h = (0.5**0.5 + 0j, 0.5**0.5 + 0j, 0.5**0.5 + 0j, -(0.5**0.5) + 0j)

                def same_error(name, *args):
                    # The exception type both engines raise, checked equal.
                    found = [
                        outcome(getattr(engine, name), *args)
                        for engine in (package, reference)
                    ]
                    assert isinstance(found[0], type) and found[0] is found[1], (
                        name, args, found
                    )
                    return found[0]

                lower = "controlled_medge"
                for factor in ((1j, 0j, 0j), (1j,) * 5, ("a", 0j, 0j, 1j), 5, None,
                               (1, 0, 0, 1), (True, 0j, 0j, 1j), "abcd"):
                    assert same_error(lower, 2, {0: factor}, ()) is TypeError
                for factors in ([(0, h)], None, ((0, h),)):
                    assert same_error(lower, 2, factors, ()) is TypeError
                for num_qubits in (0, -1, -(2**70)):
                    assert same_error(lower, num_qubits, {}, ()) is ValueError
                for args in (
                    (2, {2: h}, ()), (2, {-1: h}, ()), (2, {0: h}, (2,)),
                    (2, {0: h}, (-1,)), (2, {1: h}, (2**70,)),
                    (2, {0: h}, (0,)), (3, {1: h}, (0, 1)),
                ):
                    assert same_error(lower, *args) is ValueError
                for bad in ("1", 1.0, None):
                    assert same_error(lower, bad, {0: h}, ()) is TypeError
                    assert same_error(lower, 2, {bad: h}, ()) is TypeError
                    assert same_error(lower, 2, {0: h}, (bad,)) is TypeError
                assert same_error(lower, 2, {0: h}, 1) is TypeError
                # bottom_levels out of range, then bottoms of the wrong
                # level, kind or package.
                one = (1 + 0j, None)
                for levels in (-1, 3, 2**70):
                    assert same_error(lower, 2, {}, (), one, levels) is ValueError
                assert same_error(lower, 2, {}, (), one, "1") is TypeError
                for bad in malformed_m[:10]:
                    assert same_error(lower, 2, {}, (1,), bad, 1) is TypeError
                vector_bottom = (1 + 0j, VNode(0, ((1 + 0j, None),) * 2))
                assert same_error(lower, 2, {}, (1,), vector_bottom, 1) is TypeError
                for bottom, levels in (
                    (lambda engine: engine.identity(2), 1),
                    (lambda engine: engine.identity(1), 2),
                    (lambda engine: (1 + 0j, None), 1),
                    (lambda engine: engine.identity(1), 0),
                    (lambda engine: Package(backend=engine.backend_name).identity(1), 1),
                    (lambda engine: (1 + 0j, MNode(0, ((1 + 0j, None),) * 4)), 1),
                ):
                    found = [
                        outcome(engine.controlled_medge, 2, {}, (1,), bottom(engine), levels)
                        for engine in (package, reference)
                    ]
                    assert found == [ValueError, ValueError], (levels, found)

                block = "permutation_block"
                for rows in ([0, 0, 2, 3], [0, 1], [0, 1, 2, 4], [-1, 0, 1, 2],
                             [0, 1, 2, 3, 4], [], [2**70, 0, 1, 2]):
                    assert same_error(block, 1, rows) is ValueError
                for level in (-2, 61, 62, 2**70, -(2**70)):
                    assert same_error(block, level, [0]) is ValueError
                for rows in (None, 5, [0, 1, "2", 3], [0.0, 1, 2, 3]):
                    assert same_error(block, 1, rows) is TypeError
                assert same_error(block, "1", [0, 1, 2, 3]) is TypeError
                assert package.permutation_block(-1, [0]) == (1, None)
                assert package.permutation_block(0, (True, False))[1].level == 0
                """,
                id="lowering",
            ),
            pytest.param(
                """
                root = state.edge[1]
                inner = package.backend._inner_nodes
                bad_nodes = [
                    "node", 1, MNode(0, ((1 + 0j, None),) * 4),
                    VNode(0, ((1 + 0j, None),)), VNode(0, "edges"),
                    VNode(0, ((1 + 0j, None), ("w", None))),
                ]
                for bad in bad_nodes:
                    expect_type_error(inner, bad, root, 1)
                    expect_type_error(inner, root, bad, 1)
                expect_type_error(inner, None, root, 1)
                expect_type_error(inner, root, root, "1")
                assert inner(root, root, 1) == 1
                """,
                id="inner_nodes",
            ),
            pytest.param(
                """
                from repro.dd.backends.base import DDBackend

                for bad in malformed[:10]:
                    expect_type_error(package.state_table, bad)
                for bad in malformed[10:]:
                    expect_type_error_or_generic(
                        package.state_table, DDBackend.state_table, bad
                    )
                """,
                id="state_table",
            ),
            pytest.param(
                """
                import struct

                ints, doubles = package.state_table(state.edge)
                intern = package.intern_state_table
                for bad in ("text", None, bytearray(ints), 12):
                    expect_type_error(intern, 2, bad, doubles, 1)
                    expect_type_error(intern, 2, ints, bad, 1)
                expect_type_error(intern, "2", ints, doubles, 1)
                expect_type_error(intern, 2, ints, doubles, "1")
                # Out-of-range positions, levels and sizes raise, never read
                # out of bounds.
                for child in (10**6, -7, -(2**31), 2**31 - 1, 1):
                    table = struct.pack("<6i", 0, -1, -1, 1, child, 0)
                    try:
                        intern(2, table, doubles, 1)
                    except ValueError:
                        pass
                    else:
                        raise AssertionError(child)
                for root in (2, -2, 10**6, 2**40):
                    try:
                        intern(2, ints, doubles, root)
                    except (ValueError, OverflowError):
                        pass
                    else:
                        raise AssertionError(root)
                assert intern(2, ints, doubles, 1) is state.edge[1]
                """,
                id="intern_state_table",
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
            # Arena nodes are read-only: graft onto a hand-built copy of the root.
            root = state.edge[1]
            root = VNode(2, ((root.edges[0][0], stranger), root.edges[1]))
            edge = (state.edge[0], root)
            expected = DDBackend.node_count(package.backend, edge)
            assert expected == 3 + (2 if {graft!r} == "other_package" else 1)
            assert package.node_count(edge) == expected
            print("ok")
            """
        )


@pytest.mark.parametrize("graft", ["hand_built", "other_package"])
@pytest.mark.parametrize("how", ["interned_above", "root_mutated"])
def test_sweeps_over_a_foreign_child_match_the_base_traversal(graft, how):
    """A diagram holding a node that is no slot of the arena: every record
    walk falls back to the generic traversal and agrees with it."""
    _run_isolated(
        f"""
        from repro.dd.backends.base import DDBackend
        from repro.dd.node import VNode
        from repro.dd.package import Package
        from repro.dd.vector import StateDD

        package = Package(backend="arena")
        backend = package.backend
        if {graft!r} == "hand_built":
            stranger = VNode(0, ((0.6 + 0j, None), (0.8 + 0j, None)))
        else:
            stranger = StateDD.plus_state(1, Package(backend="arena")).edge[1]
        half = 2 ** -0.5 + 0j
        if {how!r} == "interned_above":
            below = package.make_vedge(1, (half, stranger), (half, stranger))
            edge = package.make_vedge(2, below, (0j, None))
        else:
            # Arena nodes are read-only: a hand-built root takes the graft.
            edge = StateDD.plus_state(3, package).edge
            root = edge[1]
            above = VNode(1, ((half, stranger), (half, stranger)))
            edge = (edge[0], VNode(2, (root.edges[0], (root.edges[1][0], above))))
        assert package.node_count(edge) == DDBackend.node_count(backend, edge)
        assert package.vnodes(edge) == DDBackend.vnodes(backend, edge)
        contributions = package.norm_contributions(edge)
        generic = DDBackend.norm_contributions(backend, edge)
        assert list(contributions.items()) == list(generic.items())
        for budget in (0.6, 0.5, 0.0):
            for max_removed in (0, 1, 10):
                assert package.approximate_round(edge, 2, budget, max_removed) == (
                    DDBackend.approximate_round(backend, edge, 2, budget, max_removed)
                )
        assert package.state_table(edge) == DDBackend.state_table(backend, edge)
        print("ok")
        """
    )


def test_record_walks_reject_a_corrupt_record():
    """A record slot naming a child at or above itself raises, not crashes."""
    _run_isolated(
        """
        import struct
        from repro.dd.package import Package
        from repro.dd.vector import StateDD

        package = Package(backend="arena")
        state = StateDD.plus_state(3, package)
        backend = package.backend
        middle = state.edge[1].edges[0][1]
        for child in (middle.index, 10**6, -7):
            struct.pack_into("3i", backend._v_record, 48 * middle.index,
                             middle.level, child, child)
            for sweep in (
                package.vnodes, package.norm_contributions, package.state_table
            ):
                try:
                    sweep(state.edge)
                except RuntimeError:
                    pass
                else:
                    raise AssertionError(sweep.__name__)
        assert backend.integrity_problems()
        print("ok")
        """
    )
