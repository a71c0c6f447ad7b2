"""Tests for decision-diagram serialization."""

from __future__ import annotations

import base64
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import DDSimulator, FidelityDrivenStrategy, MemoryDrivenStrategy
from repro.dd.package import Package
from repro.dd.serialize import (
    load_state,
    save_state,
    state_from_dict,
    state_to_dict,
)
from repro.dd.vector import StateDD
from repro.service.jobs import build_builtin_circuit
from tests.helpers import (
    random_sparse_state_vector,
    random_state_vector,
    v1_state_document,
)

BACKENDS = ("reference", "arena")


def _table(data: dict) -> tuple[list[int], list[float]]:
    """The decoded ``children`` and ``weights`` of a version 2 document."""
    ints = base64.b64decode(data["children"])
    doubles = base64.b64decode(data["weights"])
    return (
        list(struct.unpack(f"<{len(ints) // 4}i", ints)),
        list(struct.unpack(f"<{len(doubles) // 8}d", doubles)),
    )


def _with_table(data: dict, ints: list[int], doubles: list[float]) -> dict:
    """``data`` with its node table replaced by ``ints``/``doubles``."""
    return {
        **data,
        "children": base64.b64encode(
            struct.pack(f"<{len(ints)}i", *ints)
        ).decode(),
        "weights": base64.b64encode(
            struct.pack(f"<{len(doubles)}d", *doubles)
        ).decode(),
    }


def _assert_same_state(left: StateDD, right: StateDD) -> None:
    """Node-for-node identical diagrams: the same shared structure and
    levels, and every weight, the root weight included, equal with
    ``==`` (no tolerance)."""
    assert left.num_qubits == right.num_qubits
    pairs: dict[int, object] = {}
    stack = [(left.edge, right.edge)]
    while stack:
        (w_left, n_left), (w_right, n_right) = stack.pop()
        assert w_left == w_right
        if n_left is None or n_right is None:
            assert n_left is n_right
            continue
        if id(n_left) in pairs:
            assert pairs[id(n_left)] is n_right
            continue
        pairs[id(n_left)] = n_right
        assert n_left.level == n_right.level
        stack.extend(zip(n_left.edges, n_right.edges, strict=True))
    assert len(set(map(id, pairs.values()))) == len(pairs)


class TestRoundtrip:
    @given(st.integers(0, 10_000), st.integers(min_value=1, max_value=6))
    def test_random_states(self, seed, num_qubits):
        vector = random_state_vector(num_qubits, np.random.default_rng(seed))
        state = StateDD.from_amplitudes(vector, Package())
        loaded = state_from_dict(state_to_dict(state), Package())
        np.testing.assert_allclose(
            loaded.to_amplitudes(), vector, atol=1e-9
        )
        _assert_same_state(loaded, state)

    @given(st.integers(0, 10_000))
    def test_sparse_states(self, seed):
        vector = random_sparse_state_vector(5, np.random.default_rng(seed))
        state = StateDD.from_amplitudes(vector, Package())
        loaded = state_from_dict(state_to_dict(state), Package())
        np.testing.assert_allclose(loaded.to_amplitudes(), vector, atol=1e-9)
        _assert_same_state(loaded, state)

    def test_ghz_preserves_sharing(self):
        state = StateDD.from_amplitudes(
            np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2), Package()
        )
        data = state_to_dict(state)
        ints, doubles = _table(data)
        assert len(ints) == 3 * 5  # distinct nodes only
        assert len(doubles) == 4 * 5
        loaded = state_from_dict(data, Package())
        assert loaded.node_count() == 5

    def test_json_serializable(self, rng):
        package = Package()
        state = StateDD.from_amplitudes(random_state_vector(4, rng), package)
        text = json.dumps(state_to_dict(state))
        loaded = state_from_dict(json.loads(text), package)
        assert loaded.fidelity(state) == pytest.approx(1.0)

    def test_file_roundtrip(self, tmp_path, rng):
        package = Package()
        state = StateDD.from_amplitudes(random_state_vector(4, rng), package)
        path = tmp_path / "state.json"
        save_state(state, str(path))
        loaded = load_state(str(path), package)
        assert loaded.fidelity(state) == pytest.approx(1.0)

    def test_cross_package_roundtrip(self, rng):
        """Loading into a different package yields the same diagram."""
        state = StateDD.from_amplitudes(random_state_vector(5, rng), Package())
        other = Package()
        loaded = state_from_dict(state_to_dict(state), other)
        assert loaded.package is other
        assert loaded.node_count() == state.node_count()
        _assert_same_state(loaded, state)

    @pytest.mark.parametrize("source", BACKENDS)
    @pytest.mark.parametrize("target", BACKENDS)
    def test_cross_backend_roundtrip_is_verbatim(self, source, target, rng):
        state = StateDD.from_amplitudes(
            random_state_vector(5, rng), Package(backend=source)
        )
        data = state_to_dict(state)
        loaded = state_from_dict(data, Package(backend=target))
        _assert_same_state(loaded, state)
        assert state_to_dict(loaded) == data


class TestFormatStructure:
    def test_header_fields(self):
        data = state_to_dict(StateDD.plus_state(3, Package()))
        assert data["format"] == "repro-dd-state"
        assert data["version"] == 2
        assert data["num_qubits"] == 3
        assert set(data) == {
            "format", "version", "num_qubits", "root", "children", "weights"
        }

    def test_children_precede_parents(self, rng):
        state = StateDD.from_amplitudes(random_state_vector(5, rng), Package())
        data = state_to_dict(state)
        ints, _doubles = _table(data)
        levels = ints[0::3]
        assert levels == sorted(levels)
        for position in range(len(levels)):
            for child in ints[3 * position + 1 : 3 * position + 3]:
                assert -1 <= child < position
        assert data["root"]["node"] == len(levels) - 1

    def test_v1_order_and_bits(self, rng):
        """Position i of the table is index i of the version 1 node list,
        and the weights are the nodes' exact bits."""
        state = StateDD.from_amplitudes(random_state_vector(4, rng), Package())
        ints, doubles = _table(state_to_dict(state))
        v1 = v1_state_document(state)
        for position, node in enumerate(v1["nodes"]):
            (w0, c0), (w1, c1) = node["edges"]
            assert ints[3 * position : 3 * position + 3] == [
                node["level"], c0, c1
            ]
            assert doubles[4 * position : 4 * position + 4] == [*w0, *w1]

    def test_weights_are_little_endian_float64(self):
        data = state_to_dict(StateDD.basis_state(1, 1, Package()))
        assert base64.b64decode(data["weights"]) == struct.pack(
            "<4d", 0.0, 0.0, 1.0, 0.0
        )
        assert base64.b64decode(data["children"]) == struct.pack(
            "<3i", 0, -1, -1
        )


class TestVersion1:
    def test_v1_document_is_rejected(self):
        """Only version 2 is read: a version 1 document is damage to the
        store, which quarantines it and recomputes."""
        data = v1_state_document(StateDD.plus_state(2, Package()))
        for backend in BACKENDS:
            _reject(data, backend, "unsupported version 1")


def _reject(data: dict, backend: str, match: str) -> None:
    """Loading ``data`` raises ValueError and interns nothing."""
    package = Package(backend=backend)
    with pytest.raises(ValueError, match=match):
        state_from_dict(data, package)
    assert package.unique_table_sizes()["vector"] == 0


def _ghz() -> dict:
    """The document of the 3-qubit GHZ state: five nodes, root last."""
    return state_to_dict(
        StateDD.from_amplitudes(
            np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2), Package()
        )
    )


class TestValidation:
    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            state_from_dict({"format": "other", "version": 1})

    def test_wrong_version_rejected(self):
        data = state_to_dict(StateDD.plus_state(2, Package()))
        data["version"] = 99
        for backend in BACKENDS:
            _reject(data, backend, "unsupported version")

    def test_forward_reference_rejected(self):
        data = _ghz()
        ints, doubles = _table(data)
        ints[1] = 3  # node 0 (level 0) names a later node
        for backend in BACKENDS:
            _reject(_with_table(data, ints, doubles), backend, "forward")

    def test_terminal_root_rejected(self):
        data = state_to_dict(StateDD.plus_state(2, Package()))
        data["root"]["node"] = -1
        for backend in BACKENDS:
            _reject(data, backend, "terminal")


@pytest.mark.parametrize("backend", BACKENDS)
class TestTableChecks:
    """Every damaged node table raises ValueError and interns nothing."""

    def test_unknown_root_rejected(self, backend):
        data = state_to_dict(StateDD.plus_state(2, Package()))
        data["root"]["node"] = 7
        _reject(data, backend, "unknown node")

    def test_root_below_the_top_level_rejected(self, backend):
        data = state_to_dict(StateDD.plus_state(2, Package()))
        data["root"]["node"] = 0
        _reject(data, backend, "num_qubits")

    def test_truncated_buffer_rejected(self, backend):
        data = _ghz()
        ints = base64.b64decode(data["children"])
        data["children"] = base64.b64encode(ints[:-4]).decode()
        _reject(data, backend, "whole number")

    def test_short_weights_rejected(self, backend):
        data = _ghz()
        doubles = base64.b64decode(data["weights"])
        data["weights"] = base64.b64encode(doubles[:-32]).decode()
        _reject(data, backend, "whole number")

    def test_nan_weight_rejected(self, backend):
        data = _ghz()
        ints, doubles = _table(data)
        doubles[4 * 4] = math.nan
        _reject(_with_table(data, ints, doubles), backend, "finite")

    def test_denormalised_node_rejected(self, backend):
        data = _ghz()
        ints, doubles = _table(data)
        doubles[4 * 4] *= 1.5  # the root's first weight
        _reject(_with_table(data, ints, doubles), backend, "normalized")

    def test_complex_first_weight_rejected(self, backend):
        data = _ghz()
        ints, doubles = _table(data)
        doubles[4 * 4 : 4 * 4 + 2] = [0.0, 1.0 / math.sqrt(2)]
        _reject(
            _with_table(data, ints, doubles), backend, "real and positive"
        )

    def test_level_skip_rejected(self, backend):
        data = _ghz()
        ints, doubles = _table(data)
        ints[3 * 4 + 1] = 0  # the root (level 2) names a level-0 node
        _reject(_with_table(data, ints, doubles), backend, "at level 0")

    def test_zero_edge_into_a_node_rejected(self, backend):
        data = _ghz()
        ints, doubles = _table(data)
        doubles[4 * 4 : 4 * 4 + 4] = [1.0, 0.0, 0.0, 0.0]
        _reject(_with_table(data, ints, doubles), backend, "zero edge")

    def test_nonzero_edge_into_the_terminal_rejected(self, backend):
        data = _ghz()
        ints, doubles = _table(data)
        ints[3 * 4 + 2] = -1
        _reject(_with_table(data, ints, doubles), backend, "terminal")

    def test_malformed_base64_rejected(self, backend):
        data = _ghz()
        data["weights"] = "not base64!"
        _reject(data, backend, "malformed")

    def test_nan_root_weight_rejected(self, backend):
        data = _ghz()
        data["root"]["weight"] = [math.nan, 0.0]
        _reject(data, backend, "root weight")


#: The resume rows of the roadmap: (workload, strategy factory).
RESUME_ROWS = [
    ("shor_21_2", lambda: FidelityDrivenStrategy(0.5, 0.9)),
    ("shor_55_2", lambda: FidelityDrivenStrategy(0.5, 0.9)),
    ("shor_35_2", lambda: MemoryDrivenStrategy(32000, 0.8)),
    ("qsup_3x4_10_0", lambda: MemoryDrivenStrategy(128, 0.975)),
]


class TestVerbatimLoad:
    @pytest.mark.parametrize("workload, strategy", RESUME_ROWS)
    def test_every_checkpoint_decodes_to_its_source(self, workload, strategy):
        """At each 10-op checkpoint, the stored document decodes into a
        fresh package as the very diagram it was written from, and
        writes back to the same document."""
        points: list[tuple[StateDD, dict]] = []

        def checkpoint(point) -> None:
            points.append((point.state, state_to_dict(point.state)))

        DDSimulator(Package()).run(
            build_builtin_circuit(workload),
            strategy(),
            checkpoint_interval=10,
            checkpoint_callback=checkpoint,
        )
        assert points
        for state, data in points:
            loaded = state_from_dict(json.loads(json.dumps(data)), Package())
            _assert_same_state(loaded, state)
            assert state_to_dict(loaded) == data


class TestApproximateStatePersistence:
    def test_approximated_state_roundtrip(self, rng):
        """The intended workflow: approximate once, persist, resample."""
        from repro.core import approximate_state

        package = Package()
        state = StateDD.from_amplitudes(random_state_vector(6, rng), package)
        result = approximate_state(state, 0.8)
        loaded = state_from_dict(state_to_dict(result.state), package)
        assert loaded.fidelity(result.state) == pytest.approx(1.0)
        counts_a = result.state.sample(200, np.random.default_rng(3))
        counts_b = loaded.sample(200, np.random.default_rng(3))
        assert counts_a == counts_b

    @given(
        st.integers(0, 10_000),
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.5, max_value=0.99),
    )
    def test_truncated_states_roundtrip_exactly(
        self, seed, num_qubits, round_fidelity
    ):
        """Post-truncation states — the artifacts the job store persists —
        survive serialization bit-for-bit: same amplitudes, same node
        structure, same fidelity against the pre-truncation state."""
        from repro.core import approximate_state

        package = Package()
        original = StateDD.from_amplitudes(
            random_state_vector(num_qubits, np.random.default_rng(seed)),
            package,
        )
        truncated = approximate_state(original, round_fidelity).state
        loaded = state_from_dict(state_to_dict(truncated), Package())
        _assert_same_state(loaded, truncated)
        assert np.array_equal(loaded.to_amplitudes(), truncated.to_amplitudes())

    @given(st.integers(0, 10_000), st.floats(min_value=0.0, max_value=0.2))
    def test_contribution_cut_states_roundtrip(self, seed, epsilon):
        """The threshold-cut variant also persists losslessly, including
        through a JSON text round trip (how the store writes state.json)."""
        from repro.core import approximate_below_contribution

        package = Package()
        state = StateDD.from_amplitudes(
            random_sparse_state_vector(6, np.random.default_rng(seed)),
            package,
        )
        cut = approximate_below_contribution(state, epsilon).state
        text = json.dumps(state_to_dict(cut))
        loaded = state_from_dict(json.loads(text), Package())
        _assert_same_state(loaded, cut)

    @given(st.integers(0, 10_000), st.integers(min_value=6, max_value=40))
    def test_size_capped_states_roundtrip(self, seed, max_nodes):
        """Size-capped states keep their (possibly shrunken) structure."""
        from repro.core import approximate_to_size

        package = Package()
        state = StateDD.from_amplitudes(
            random_state_vector(6, np.random.default_rng(seed)), package
        )
        result = approximate_to_size(state, max_nodes)
        loaded = state_from_dict(state_to_dict(result.state), package)
        assert loaded.node_count() == result.state.node_count()
        assert loaded.fidelity(result.state) == pytest.approx(1.0)
