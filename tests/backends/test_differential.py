"""Differential tests: reference vs arena backend, same inputs.

Both backends are driven through *identical* gate and approximation
sequences and must agree on everything observable:

* final amplitudes within ``ctable.tolerance()``;
* the achieved fidelity of every approximation round — **bit for bit**,
  because both backends execute the same float operations in the same
  order (the interface contract pinned in docs/BACKENDS.md);
* the Lemma-1 fidelity product (``stats.fidelity_estimate``);
* diagram node counts after every round.

These invariants are what lets the arena backend claim "as accurate as
the reference, just faster": any divergence here is a correctness bug,
not a performance tradeoff.
"""

from __future__ import annotations

import functools
import gc
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Operation
from repro.circuits.gates import GATE_REGISTRY, gate_matrix
from repro.circuits.lowering import operation_to_medge, single_qubit_medge
from repro.circuits.randomcirc import random_circuit
from repro.core import DDSimulator, MemoryDrivenStrategy, NoApproximation, simulate
from repro.core.approximation import approximate_state, select_nodes_for_removal
from repro.dd import ctable
from repro.dd.backends.arena import ArenaBackend
from repro.dd.backends.base import DDBackend
from repro.dd.node import MEdge, VEdge
from repro.dd.package import Package
from repro.dd.vector import StateDD
from repro.service.jobs import build_builtin_circuit

BACKENDS = ("reference", "arena")


def _apply_circuit(circuit, package: Package) -> StateDD:
    """Lower and apply every operation of ``circuit`` to |0...0>."""
    state = StateDD.basis_state(circuit.num_qubits, 0, package)
    top = circuit.num_qubits - 1
    for operation in circuit:
        medge = operation_to_medge(operation, circuit.num_qubits, package)
        state = StateDD(
            package.multiply_mv(medge, state.edge, top),
            circuit.num_qubits,
            package,
        )
    return state


class TestGateParity:
    """Same circuit, both backends: identical states."""

    @settings(max_examples=25, deadline=None)
    @given(
        num_qubits=st.integers(min_value=2, max_value=4),
        num_operations=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_amplitudes_match(self, num_qubits, num_operations, seed):
        circuit = random_circuit(num_qubits, num_operations, seed=seed)
        amplitudes = {}
        counts = {}
        for backend in BACKENDS:
            state = _apply_circuit(circuit, Package(backend=backend))
            amplitudes[backend] = state.to_amplitudes()
            counts[backend] = state.node_count()
        for backend in BACKENDS[1:]:
            np.testing.assert_allclose(
                amplitudes[backend],
                amplitudes["reference"],
                atol=ctable.tolerance(),
                rtol=0.0,
            )
            assert counts[backend] == counts["reference"]

    @settings(max_examples=25, deadline=None)
    @given(
        num_qubits=st.integers(min_value=2, max_value=5),
        num_operations=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        round_fidelity=st.floats(min_value=0.5, max_value=0.999),
    )
    def test_state_tables_match(
        self, num_qubits, num_operations, seed, round_fidelity
    ):
        """The packed node table is the same bytes on both engines, for
        the gate-built state and for its approximation, and each engine
        interns the other's table back to the same table."""
        circuit = random_circuit(num_qubits, num_operations, seed=seed)
        tables = {}
        for backend in BACKENDS:
            package = Package(backend=backend)
            state = _apply_circuit(circuit, package)
            approximated = approximate_state(state, round_fidelity).state
            tables[backend] = [
                package.state_table(s.edge) for s in (state, approximated)
            ]
        assert tables["arena"] == tables["reference"]
        for backend in BACKENDS:
            for ints, doubles in tables["reference"]:
                package = Package(backend=backend)
                root = package.intern_state_table(
                    num_qubits, ints, doubles, len(ints) // 12 - 1
                )
                assert package.state_table((complex(1.0), root)) == (
                    ints,
                    doubles,
                )

    @settings(max_examples=25, deadline=None)
    @given(
        num_qubits=st.integers(min_value=2, max_value=4),
        num_operations=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        round_fidelity=st.floats(min_value=0.5, max_value=0.999),
    )
    # A weight magnitude x with x ** 2 != x * x: contributions must square
    # with libm's pow, as float.__pow__ does.
    @example(num_qubits=4, num_operations=18, seed=661, round_fidelity=0.5)
    def test_norm_contributions_match(
        self, num_qubits, num_operations, seed, round_fidelity
    ):
        circuit = random_circuit(num_qubits, num_operations, seed=seed)
        sweeps = {}
        for backend in BACKENDS:
            package = Package(backend=backend)
            state = _apply_circuit(circuit, package)
            contributions = package.norm_contributions(state.edge)
            removed, _spent = select_nodes_for_removal(state, round_fidelity)
            sweeps[backend] = (
                # Insertion order breaks selection ties, so it is compared
                # along with the values, bit for bit.
                [(node.level, value) for node, value in contributions.items()],
                [node.level for node in package.vnodes(state.edge)],
                [
                    (node.level, value)
                    for node, value in contributions.items()
                    if node in removed
                ],
            )
        for backend in BACKENDS[1:]:
            assert sweeps[backend] == sweeps["reference"]


class TestApproximationParity:
    """Interleaved approximation rounds: identical Lemma-1 accounting."""

    @settings(max_examples=20, deadline=None)
    @given(
        num_qubits=st.integers(min_value=2, max_value=4),
        num_operations=st.integers(min_value=4, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        round_fidelity=st.floats(min_value=0.6, max_value=0.999),
        stride=st.integers(min_value=2, max_value=6),
    )
    def test_round_accounting_matches(
        self, num_qubits, num_operations, seed, round_fidelity, stride
    ):
        circuit = random_circuit(num_qubits, num_operations, seed=seed)
        rounds: dict[str, list[tuple]] = {}
        for backend in BACKENDS:
            package = Package(backend=backend)
            state = StateDD.basis_state(circuit.num_qubits, 0, package)
            top = circuit.num_qubits - 1
            records = []
            for index, operation in enumerate(circuit):
                medge = operation_to_medge(
                    operation, circuit.num_qubits, package
                )
                state = StateDD(
                    package.multiply_mv(medge, state.edge, top),
                    circuit.num_qubits,
                    package,
                )
                if (index + 1) % stride == 0:
                    result = approximate_state(state, round_fidelity)
                    state = result.state
                    records.append(
                        (
                            result.achieved_fidelity,
                            result.removed_contribution,
                            result.nodes_before,
                            result.nodes_after,
                            result.removed_nodes,
                        )
                    )
            rounds[backend] = records
        # Bit-for-bit: same removal selections, same measured fidelity.
        for backend in BACKENDS[1:]:
            assert rounds[backend] == rounds["reference"]


def _round_outcomes(
    build, budget: float, max_removed: int | None = None
) -> dict[str, tuple]:
    """``build(package)`` -> StateDD on each engine, then one
    ``approximate_round`` on it, as ``(state table, spent, count)``.

    ``max_removed`` defaults to the state's node count, which no round
    reaches.  On each engine the round equals the ``DDBackend`` body run
    in a fresh package on a fresh copy of the state, down to the number
    of nodes the rebuild creates.  That count is not compared across
    engines: the arena still holds nodes a build dropped, which the
    reference's weak unique table recreates.
    """
    outcomes = {}
    for backend in BACKENDS:
        package = Package(backend=backend)
        state = build(package)
        level = state.num_qubits - 1
        count_cap = state.node_count() if max_removed is None else max_removed
        rebuilt, spent, count = package.approximate_round(
            state.edge, level, budget, count_cap
        )
        outcome = (package.state_table(rebuilt), spent, count)
        if count == 0:
            assert rebuilt is state.edge

        oracle = Package(backend=backend)
        state = build(oracle)
        oracle_rebuilt, oracle_spent, oracle_count = DDBackend.approximate_round(
            oracle.backend, state.edge, level, budget, count_cap
        )
        assert outcome == (
            oracle.state_table(oracle_rebuilt), oracle_spent, oracle_count
        )
        assert package.stats["vnodes_created"] == oracle.stats["vnodes_created"]
        outcomes[backend] = outcome
    return outcomes


def _assert_round_parity(
    build, budget: float, max_removed: int | None = None
) -> tuple:
    outcomes = _round_outcomes(build, budget, max_removed)
    for backend in BACKENDS[1:]:
        assert outcomes[backend] == outcomes["reference"]
    return outcomes["reference"]


def _amplitudes(*pairs: tuple[int, float], num_qubits: int):
    """A ``build`` for the state with amplitude ``value`` at ``index``."""
    vector = np.zeros(2**num_qubits, dtype=complex)
    for index, value in pairs:
        vector[index] = value
    return lambda package: StateDD.from_amplitudes(
        vector, package, normalize=True
    )


def _random_dense(num_qubits: int, seed: int):
    """A ``build`` for a random state with every amplitude nonzero: one
    node per subvector, with many small contributions."""
    rng = np.random.default_rng(seed)
    vector = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return lambda package: StateDD.from_amplitudes(
        vector, package, normalize=True
    )


def _fading_chain(num_qubits: int, small: float):
    """A ``build`` whose contributions shrink by ``small ** 2`` per level
    down one path, so the deepest ones underflow to 0.0."""
    large = (1.0 - small * small) ** 0.5

    def build(package: Package) -> StateDD:
        zero_path = package.make_vedge(0, (1 + 0j, None), (0j, None))
        fading = package.make_vedge(
            0, (complex(large), None), (complex(small), None)
        )
        for level in range(1, num_qubits):
            fading = package.make_vedge(
                level, (complex(large), zero_path[1]), (complex(small), fading[1])
            )
            zero_path = package.make_vedge(level, zero_path, (0j, None))
        return StateDD(fading, num_qubits, package)

    return build


class TestApproximateRoundParity:
    """``approximate_round``: the same removals and bits on both engines,
    and the same as the ``DDBackend`` body."""

    @settings(max_examples=25, deadline=None)
    @given(
        num_qubits=st.integers(min_value=2, max_value=5),
        num_operations=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        round_fidelity=st.floats(min_value=0.3, max_value=1.0),
        max_removed=st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    )
    @example(
        num_qubits=4, num_operations=18, seed=661, round_fidelity=0.5,
        max_removed=None,
    )
    def test_random_circuits(
        self, num_qubits, num_operations, seed, round_fidelity, max_removed
    ):
        circuit = random_circuit(num_qubits, num_operations, seed=seed)
        _assert_round_parity(
            lambda package: _apply_circuit(circuit, package),
            1.0 - round_fidelity,
            max_removed,
        )

    def test_count_stops_the_round(self):
        build = _random_dense(6, seed=7)
        _table, full_spent, full = _assert_round_parity(build, 0.5)
        assert full > 2
        for max_removed in (0, 1, full // 2, full - 1, full, full + 1, 10**30):
            _table, spent, count = _assert_round_parity(build, 0.5, max_removed)
            assert count == min(full, max_removed)
            assert spent <= full_spent

    def test_unbounded_budget_takes_the_count(self):
        build = _random_dense(6, seed=7)
        reference = Package(backend="reference")
        candidates = build(reference).node_count() - 1
        assert candidates > 4
        for max_removed in (0, 1, candidates // 2, candidates - 1):
            _table, _spent, count = _assert_round_parity(
                build, math.inf, max_removed
            )
            assert count == max_removed
        # Every node but the root: nothing of the state is left.
        for max_removed in (candidates, candidates + 1):
            table, _spent, count = _assert_round_parity(
                build, math.inf, max_removed
            )
            assert count == candidates
            assert table == reference.state_table((0j, None))

    def test_equal_contributions_break_by_index(self):
        # GHZ: two nodes of contribution 0.5 on every level below the
        # root.  A budget of one of them removes exactly the first one
        # in insertion order.
        ghz = _amplitudes((0, 1.0), (15, 1.0), num_qubits=4)
        _table, spent, count = _assert_round_parity(ghz, 1.0 - 0.5)
        assert count == 1
        assert spent == pytest.approx(0.5)
        # Four equal branches: ties on two levels at once.
        uniform = _amplitudes(
            (1, 1.0), (6, 1.0), (10, 1.0), (13, 1.0), num_qubits=4
        )
        for round_fidelity in (0.5, 0.74, 0.75, 0.9):
            _assert_round_parity(uniform, 1.0 - round_fidelity)
        # Under a count stop the tie still goes to the first in order.
        for max_removed in (1, 2, 3):
            _assert_round_parity(uniform, math.inf, max_removed)

    def test_budget_equal_to_one_contribution_is_spent(self):
        # 1 - 0.8 rounds below the 0.2 contribution: only the slack
        # admits the removal.
        state = _amplitudes((0, 0.8**0.5), (3, 0.2**0.5), num_qubits=2)
        package = Package(backend="reference")
        contributions = package.norm_contributions(state(package).edge)
        assert sorted(contributions.values())[0] > 1.0 - 0.8
        _table, spent, count = _assert_round_parity(state, 1.0 - 0.8)
        assert count == 1
        assert spent == sorted(contributions.values())[0]

    def test_full_fidelity_removes_nothing(self):
        ghz = _amplitudes((0, 1.0), (7, 1.0), num_qubits=3)
        _table, spent, count = _assert_round_parity(ghz, 0.0)
        assert (spent, count) == (0.0, 0)

    def test_root_only_diagram(self):
        single = _amplitudes((0, 0.6), (1, 0.8), num_qubits=1)
        for budget in (0.9, 0.0, math.inf):
            _table, spent, count = _assert_round_parity(single, budget)
            assert (spent, count) == (0.0, 0)
        for backend in BACKENDS:
            terminal = (0j, None)
            assert Package(backend=backend).approximate_round(
                terminal, 0, 0.5, 1
            ) == (terminal, 0.0, 0)

    def test_contributions_that_underflow_to_zero(self):
        build = _fading_chain(64, 1e-3)
        package = Package(backend="reference")
        contributions = package.norm_contributions(build(package).edge)
        assert 0.0 in contributions.values()
        for round_fidelity in (1.0, 0.999999, 0.9):
            _table, _spent, count = _assert_round_parity(
                build, 1.0 - round_fidelity
            )
            assert count > 0

    def test_bad_round_fidelity_raises(self):
        for backend in BACKENDS:
            state = StateDD.plus_state(2, Package(backend=backend))
            for round_fidelity in (0.0, -0.5, 1.5, float("nan")):
                with pytest.raises(ValueError, match="round_fidelity"):
                    approximate_state(state, round_fidelity)

    def test_bad_budget_or_count_raises(self):
        # (exception, level, budget, max_removed); the root is at level 1.
        bad = [
            (ValueError, 1, -0.5, 1),
            (ValueError, 1, -math.inf, 1),
            (ValueError, 1, math.nan, 1),
            (ValueError, 1, 0.5, -1),
            (TypeError, 1, "0.5", 1),
            (TypeError, 1, None, 1),
            (TypeError, 1, 0.5j, 1),
            (TypeError, 1, 0.5, 1.0),
            (TypeError, 1, 0.5, "1"),
            (TypeError, 1, 0.5, None),
            # Several bad arguments: the first in the checks' order wins.
            (ValueError, 1, -0.5, 1.5),
            (TypeError, 5, "0.5", 1),
            (TypeError, 5, 0.5, None),
            (ValueError, 5, -0.5, 1),
            (ValueError, 5, 0.5, -1),
        ]
        for backend in BACKENDS:
            package = Package(backend=backend)
            edge = StateDD.plus_state(2, package).edge
            for error, level, budget, max_removed in bad:
                for call in (
                    package.approximate_round,
                    functools.partial(DDBackend.approximate_round, package.backend),
                ):
                    # Never the level check: it comes last.
                    with pytest.raises(error, match="^(?!level )"):
                        call(edge, level, budget, max_removed)


SMOKE_WORKLOADS = [
    ("qsup_2x2_8_0", NoApproximation),
    (
        "qsup_3x3_12_0",
        lambda: MemoryDrivenStrategy(threshold=64, round_fidelity=0.975),
    ),
    ("shor_15_2", NoApproximation),
]


@pytest.mark.parametrize("workload, strategy_factory", SMOKE_WORKLOADS)
def test_builtin_workload_parity(workload, strategy_factory):
    """Full simulator runs on Table-1-style workloads agree exactly."""
    outcomes = {}
    for backend in BACKENDS:
        outcomes[backend] = simulate(
            build_builtin_circuit(workload),
            strategy_factory(),
            package=Package(backend=backend),
        )
    reference = outcomes["reference"]
    for backend in BACKENDS[1:]:
        other = outcomes[backend]
        assert (
            other.stats.fidelity_estimate == reference.stats.fidelity_estimate
        )
        assert [r.achieved_fidelity for r in other.stats.rounds] == [
            r.achieved_fidelity for r in reference.stats.rounds
        ]
        assert other.stats.max_nodes == reference.stats.max_nodes
        assert other.stats.final_nodes == reference.stats.final_nodes
        np.testing.assert_allclose(
            other.state.to_amplitudes(),
            reference.state.to_amplitudes(),
            atol=ctable.tolerance(),
            rtol=0.0,
        )
        assert other.stats.dd_backend == "arena"
        assert other.state.package.state_table(other.state.edge) == (
            reference.state.package.state_table(reference.state.edge)
        )
    assert reference.stats.dd_backend == "reference"


@pytest.mark.parametrize("workload, strategy_factory", SMOKE_WORKLOADS)
def test_reclaim_parity_under_constant_flushing(workload, strategy_factory):
    """A 64-entry cache limit makes every engine flush many times, so the
    arena reclaims again and again; results stay bit-equal, every
    reclaim leaves the arena audit-clean (its renumbered record
    included), and once the caches are cleared both engines hold
    exactly the same live nodes."""
    outcomes = {}
    live = {}
    for backend in BACKENDS:
        package = Package(backend=backend, cache_limit=64)
        engine = package._backend
        audits: list[list[str]] = []
        if isinstance(engine, ArenaBackend):
            reclaim = engine._reclaim

            def audited_reclaim(reclaim=reclaim, engine=engine):
                reclaim()
                audits.append(engine.integrity_problems())

            engine._reclaim = audited_reclaim
        outcome = simulate(
            build_builtin_circuit(workload),
            strategy_factory(),
            package=package,
        )
        if isinstance(engine, ArenaBackend):
            assert audits, "the arena never reclaimed"
            assert all(found == [] for found in audits)
        assert package.stats["cache_flushes"] >= 1
        state = outcome.state
        outcomes[backend] = (
            outcome.stats,
            state.to_amplitudes(),
            state.node_count(),
        )
        del outcome
        gc.collect()
        package.clear_caches()
        gc.collect()
        live[backend] = package.unique_table_sizes()
        assert package.integrity_problems() == []
        del state

    ref_stats, ref_amplitudes, ref_nodes = outcomes["reference"]
    for backend in BACKENDS[1:]:
        stats, amplitudes, nodes = outcomes[backend]
        assert stats.fidelity_estimate == ref_stats.fidelity_estimate
        assert stats.rounds == ref_stats.rounds
        assert stats.max_nodes == ref_stats.max_nodes
        assert stats.final_nodes == ref_stats.final_nodes
        assert nodes == ref_nodes
        assert np.array_equal(amplitudes, ref_amplitudes)
        assert live[backend] == live["reference"]


def _assert_same_diagram(left: MEdge | VEdge, right: MEdge | VEdge) -> None:
    """Node-for-node identical diagrams: the same shared structure, levels
    and edge order, and every weight equal with ``==`` (no tolerance)."""
    forward: dict[int, object] = {}
    backward: dict[int, object] = {}
    stack = [(left, right)]
    while stack:
        (w_left, n_left), (w_right, n_right) = stack.pop()
        assert w_left == w_right
        if n_left is None or n_right is None:
            assert n_left is n_right
            continue
        if id(n_left) in forward or id(n_right) in backward:
            assert forward.get(id(n_left)) is n_right
            assert backward.get(id(n_right)) is n_left
            continue
        forward[id(n_left)] = n_right
        backward[id(n_right)] = n_left
        assert n_left.level == n_right.level
        assert len(n_left.edges) == len(n_right.edges)
        stack.extend(zip(n_left.edges, n_right.edges, strict=True))


@st.composite
def _controlled_gates(draw, num_qubits=None):
    """A single-qubit gate with up to three controls on either side."""
    if num_qubits is None:
        num_qubits = draw(st.integers(min_value=1, max_value=6))
    target = draw(st.integers(min_value=0, max_value=num_qubits - 1))
    others = [q for q in range(num_qubits) if q != target]
    controls = draw(
        st.lists(st.sampled_from(others), unique=True, max_size=3)
        if others
        else st.just([])
    )
    name = draw(st.sampled_from(sorted(GATE_REGISTRY)))
    angle = st.floats(min_value=-7.0, max_value=7.0, allow_nan=False)
    params = tuple(draw(angle) for _ in range(GATE_REGISTRY[name].num_params))
    return num_qubits, target, tuple(controls), name, params


class TestMatrixParity:
    """Both engines lower, add and multiply matrices to node-for-node
    identical diagrams."""

    @pytest.mark.parametrize(
        "workload", [name for name, _ in SMOKE_WORKLOADS] + ["shor_21_2"]
    )
    def test_workload_operations_lower_identically(self, workload):
        circuit = build_builtin_circuit(workload)
        packages = [Package(backend=backend) for backend in BACKENDS]
        for operation in circuit:
            reference, arena = (
                operation_to_medge(operation, circuit.num_qubits, package)
                for package in packages
            )
            _assert_same_diagram(reference, arena)

    def test_workloads_cover_the_matrix_recursions(self):
        """shor_21_2 brings cmodmul (madd), swap (multiply_mm) and
        controlled phases."""
        kinds = {
            (operation.gate, bool(operation.controls))
            for operation in build_builtin_circuit("shor_21_2")
        }
        assert {("cmodmul", True), ("swap", False), ("p", True)} <= kinds

    @settings(max_examples=60, deadline=None)
    @given(gate=_controlled_gates())
    @example(gate=(3, 2, (0,), "h", ()))
    @example(gate=(4, 1, (0, 3), "u", (0.3, -1.2, 2.5)))
    def test_controlled_single_qubit_gates_lower_identically(self, gate):
        num_qubits, target, controls, name, params = gate
        matrix = gate_matrix(name, params)
        reference, arena = (
            single_qubit_medge(
                Package(backend=backend), num_qubits, target, matrix, controls
            )
            for backend in BACKENDS
        )
        _assert_same_diagram(reference, arena)

    @settings(max_examples=30, deadline=None)
    @given(
        gates=st.integers(min_value=2, max_value=4).flatmap(
            lambda num_qubits: st.lists(
                _controlled_gates(num_qubits), min_size=1, max_size=8
            )
        )
    )
    # Reached by mm-cache hits whose weights are not exact: (rw * wa) * wb
    # and rw * (wa * wb) differ in the last bits here.
    @example(
        gates=[
            (2, 1, (), "u", (-2.1, 1.3, -0.4)),
            (2, 0, (), "u", (-2.1, 1.9, 1.7)),
            (2, 1, (0,), "u", (-2.5, -0.3, 1.8)),
        ]
    )
    def test_gate_products_match(self, gates):
        """multiply_mm accumulates arbitrary gates to identical diagrams."""
        num_qubits = gates[0][0]
        packages = [Package(backend=backend) for backend in BACKENDS]
        products = [package.identity(num_qubits) for package in packages]
        for _, target, controls, name, params in gates:
            matrix = gate_matrix(name, params)
            products = [
                package.multiply_mm(
                    single_qubit_medge(package, num_qubits, target, matrix, controls),
                    product,
                    num_qubits - 1,
                )
                for package, product in zip(packages, products, strict=True)
            ]
            _assert_same_diagram(*products)

    def test_run_matrix_matrix_matches(self):
        circuit = random_circuit(4, 20, seed=5)
        outcomes = [
            DDSimulator(Package(backend=backend)).run_matrix_matrix(
                circuit, record_trajectory=True
            )
            for backend in BACKENDS
        ]
        reference, arena = outcomes
        assert arena.stats.trajectory == reference.stats.trajectory
        assert arena.stats.final_nodes == reference.stats.final_nodes
        _assert_same_diagram(reference.state.edge, arena.state.edge)

    def test_flushes_mid_recursion_keep_diagrams_and_arena_sound(self):
        """At a 64-entry cache limit the madd and mm caches flush inside
        the recursions of cmodmul and swap lowerings; the diagrams stay
        node-for-node identical and every reclaim leaves the arena
        audit-clean."""
        circuit = build_builtin_circuit("shor_15_2")
        num_qubits = circuit.num_qubits
        packages = [Package(backend=backend, cache_limit=64) for backend in BACKENDS]
        engine = packages[1]._backend
        assert isinstance(engine, ArenaBackend)
        audits: list[list[str]] = []
        reclaim = engine._reclaim

        def audited_reclaim():
            reclaim()
            audits.append(engine.integrity_problems())

        engine._reclaim = audited_reclaim
        # A flush followed by more inserts before the top-level call
        # returns happened inside the recursion, not at its last insert.
        flushes: list[str] = []
        cache_flushed = engine._cache_flushed

        def recording_flush(name, entries):
            flushes.append(name)
            cache_flushed(name, entries)

        engine._cache_flushed = recording_flush
        mid_recursion: set[str] = set()
        # The madd cache fills inside a gate's A + (I - P) assembly.
        for entry, name in (("controlled_medge", "madd"), ("multiply_mm", "mm")):

            def watched(*args, call=getattr(packages[1], entry), name=name):
                seen = len(flushes)
                result = call(*args)
                if name in flushes[seen:] and len(engine._compute_caches[name]) > 1:
                    mid_recursion.add(name)
                return result

            setattr(packages[1], entry, watched)
        states = [StateDD.basis_state(num_qubits, 0, package) for package in packages]
        for operation in circuit:
            gates = [
                operation_to_medge(operation, num_qubits, package)
                for package in packages
            ]
            _assert_same_diagram(*gates)
            states = [
                StateDD(
                    package.multiply_mv(gate, state.edge, num_qubits - 1),
                    num_qubits,
                    package,
                )
                for package, gate, state in zip(packages, gates, states, strict=True)
            ]
            _assert_same_diagram(states[0].edge, states[1].edge)
        packages[1].clear_caches()
        assert mid_recursion == {"madd", "mm"}
        assert audits, "the arena never reclaimed"
        assert all(found == [] for found in audits)


def _oracle_package() -> Package:
    """A fresh arena package whose lowering entries run the
    :class:`DDBackend` bodies (the oracle) instead of the core's."""
    package = Package(backend="arena")
    package.enable_metrics()
    package.controlled_medge = functools.partial(
        DDBackend.controlled_medge, package.backend
    )
    package.permutation_block = functools.partial(
        DDBackend.permutation_block, package.backend
    )
    return package


def _arena_record(package: Package) -> tuple:
    """Everything the lowering left in an arena: every matrix node in
    creation order (level, weights and child ids), ``mnodes_created`` and
    the madd (hits, misses)."""
    nodes = tuple(
        (
            node.level,
            tuple(weight for weight, _ in node.edges),
            tuple(-1 if child is None else child.index for _, child in node.edges),
        )
        for node in package.backend._m_nodes
    )
    madd = package.cache_stats()["caches"]["madd"]
    return nodes, package.stats["mnodes_created"], madd["hits"], madd["misses"]


#: Moduli of the cmodmul cases, each with the multipliers coprime to it.
_MODULI = {
    modulus: [a for a in range(1, modulus) if math.gcd(a, modulus) == 1]
    for modulus in (3, 5, 7, 9, 15, 21, 33)
}


@st.composite
def _lowered_operations(draw):
    """``(num_qubits, operation)``: a registered gate with controls on
    either side of its target, a swap, or a controlled cmodmul whose work
    register may be narrower than the register."""
    kind = draw(st.sampled_from(["gate", "swap", "cmodmul"]))
    if kind == "gate":
        num_qubits, target, controls, name, params = draw(
            _controlled_gates(draw(st.integers(min_value=1, max_value=10)))
        )
        return num_qubits, Operation(name, (target,), controls, params)
    if kind == "swap":
        num_qubits = draw(st.integers(min_value=2, max_value=10))
        pair = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_qubits - 1),
                min_size=2,
                max_size=2,
                unique=True,
            )
        )
        return num_qubits, Operation("swap", tuple(pair))
    modulus = draw(st.sampled_from(sorted(_MODULI)))
    multiplier = draw(st.sampled_from(_MODULI[modulus]))
    work_bits = modulus.bit_length() + draw(st.integers(min_value=0, max_value=1))
    num_qubits = work_bits + draw(st.integers(min_value=0, max_value=3))
    controls = draw(
        st.lists(
            st.sampled_from(range(work_bits, num_qubits)), unique=True, max_size=2
        )
        if num_qubits > work_bits
        else st.just([])
    )
    return num_qubits, Operation(
        "cmodmul", tuple(range(work_bits)), tuple(controls), (multiplier, modulus)
    )


class TestLoweringEntries:
    """``controlled_medge`` and ``permutation_block``: the arena's core
    entries make the calls of the :class:`DDBackend` bodies, in their
    order, and the reference engine lowers to the same diagrams."""

    @staticmethod
    def _check(operations) -> None:
        core, oracle, reference = (
            Package(backend="arena"),
            _oracle_package(),
            Package(backend="reference"),
        )
        core.enable_metrics()
        for num_qubits, operation in operations:
            edges = [
                operation_to_medge(operation, num_qubits, package)
                for package in (core, oracle, reference)
            ]
            _assert_same_diagram(edges[0], edges[1])
            _assert_same_diagram(edges[2], edges[0])
            assert _arena_record(core) == _arena_record(oracle)

    @settings(max_examples=80, deadline=None)
    @given(operations=st.lists(_lowered_operations(), min_size=1, max_size=3))
    @example(operations=[(6, Operation("cmodmul", (0, 1, 2, 3), (5,), (7, 15)))])
    @example(operations=[(10, Operation("swap", (9, 0)))])
    def test_lowerings_match_the_oracle(self, operations):
        self._check(operations)

    @pytest.mark.parametrize("name", sorted(GATE_REGISTRY))
    def test_every_registered_gate(self, name):
        params = tuple(0.7 - 1.3 * k for k in range(GATE_REGISTRY[name].num_params))
        self._check(
            [
                (5, Operation(name, (2,), (), params)),
                (5, Operation(name, (2,), (0, 4), params)),
                (5, Operation(name, (4,), (1,), params)),
                (5, Operation(name, (0,), (3,), params)),
            ]
        )


#: The arena's (hits, misses, flushes) of the mv, vadd, inner, madd and mm
#: caches and its ``vnodes_created`` and ``mnodes_created`` on
#: SMOKE_WORKLOADS, by cache limit.  The mv and vadd columns were recorded
#: from the pure-Python arena recursion the native core replaced, the
#: inner column from the pure-Python inner product, and the madd, mm and
#: ``mnodes_created`` columns from the pure-Python ``make_medge``, ``madd``
#: and ``multiply_mm`` of the arena before the matrix side moved into the
#: core.  The traced benchmark's ``dd.cache.*.hit_rate`` and
#: ``dd.vnodes_created`` keep their meaning only while these hold.  (The
#: reference is no yardstick here: its weak tables may free and re-intern
#: nodes.)
ARENA_COUNTERS = {
    (None, "qsup_2x2_8_0"): (
        (61, 76, 0), (4, 18, 0), (0, 0, 0), (9, 19, 0), (0, 0, 0), 73, 67
    ),
    (None, "qsup_3x3_12_0"): (
        (1839, 7539, 0), (90, 4360, 0), (87, 751, 0), (88, 116, 0), (0, 0, 0),
        6788, 396,
    ),
    (None, "shor_15_2"): (
        (617, 886, 0), (42, 120, 0), (0, 0, 0), (270, 398, 0), (193, 219, 0),
        383, 685,
    ),
    (64, "qsup_2x2_8_0"): (
        (61, 76, 1), (4, 18, 0), (0, 0, 0), (9, 19, 0), (0, 0, 0), 73, 67
    ),
    (64, "qsup_3x3_12_0"): (
        (1214, 11581, 180), (81, 4761, 74), (39, 1341, 20), (86, 118, 1),
        (0, 0, 0), 7026, 407,
    ),
    (64, "shor_15_2"): (
        (597, 1339, 20), (42, 120, 1), (0, 0, 0), (270, 398, 6), (202, 234, 3),
        399, 760,
    ),
}


@pytest.mark.parametrize("cache_limit", [None, 64])
@pytest.mark.parametrize("workload, strategy_factory", SMOKE_WORKLOADS)
def test_arena_counters_match_pinned_values(workload, strategy_factory, cache_limit):
    package = (
        Package(backend="arena")
        if cache_limit is None
        else Package(backend="arena", cache_limit=cache_limit)
    )
    package.enable_metrics()
    simulate(build_builtin_circuit(workload), strategy_factory(), package=package)
    caches = package.cache_stats()["caches"]
    observed = tuple(
        (caches[name]["hits"], caches[name]["misses"], caches[name]["flushes"])
        for name in ("mv", "vadd", "inner", "madd", "mm")
    ) + (package.stats["vnodes_created"], package.stats["mnodes_created"])
    assert observed == ARENA_COUNTERS[cache_limit, workload]
