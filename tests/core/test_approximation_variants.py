"""Tests for the additional approximation policies."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.circuits.shor import shor_circuit
from repro.core import (
    approximate_below_contribution,
    approximate_state,
    approximate_to_size,
    node_contributions,
    round_edge_weights,
    simulate,
)
from repro.dd.package import Package
from repro.dd.vector import StateDD
from tests.helpers import random_sparse_state_vector, random_state_vector


class TestBelowContribution:
    def test_removes_only_small_nodes(self, rng):
        vector = random_state_vector(6, rng)
        state = StateDD.from_amplitudes(vector, Package())
        epsilon = 0.01
        result = approximate_below_contribution(state, epsilon)
        if result.removed_nodes:
            # Every surviving non-root node contributes more than epsilon.
            contributions = node_contributions(result.state)
            _w, root = result.state.edge
            small_survivors = [
                v
                for node, v in contributions.items()
                if node is not root and v <= epsilon * 0.5
            ]
            # (Renormalization scales contributions up, so use a margin.)
            assert not small_survivors

    def test_zero_epsilon_removes_nothing_significant(self, rng):
        vector = random_state_vector(5, rng)
        state = StateDD.from_amplitudes(vector, Package())
        result = approximate_below_contribution(state, 0.0)
        assert result.achieved_fidelity == pytest.approx(1.0)

    @given(st.integers(0, 3_000))
    def test_fidelity_at_least_one_minus_spent(self, seed):
        vector = random_sparse_state_vector(6, np.random.default_rng(seed))
        state = StateDD.from_amplitudes(vector, Package())
        result = approximate_below_contribution(state, 0.05)
        assert (
            result.achieved_fidelity
            >= 1.0 - result.removed_contribution - 1e-9
        )

    def test_removed_contribution_summed_in_sweep_order(self, rng):
        """The total must not depend on how a set of nodes iterates."""
        vector = random_state_vector(8, rng)
        state = StateDD.from_amplitudes(vector, Package())
        epsilon = 0.002
        _w, root = state.edge
        expected = 0.0
        for node, value in node_contributions(state).items():
            if node is not root and value <= epsilon:
                expected += value
        result = approximate_below_contribution(state, epsilon)
        assert result.removed_nodes > 1
        assert result.removed_contribution == expected

    def test_invalid_epsilon(self):
        state = StateDD.plus_state(3)
        with pytest.raises(ValueError):
            approximate_below_contribution(state, -0.1)
        with pytest.raises(ValueError):
            approximate_below_contribution(state, 1.0)

    def test_degenerate_cut_is_refused(self):
        """If the cut would erase ~everything, the state is kept."""
        state = StateDD.plus_state(4)
        # Every node contributes 1.0 > 0.9?? — nothing below threshold.
        result = approximate_below_contribution(state, 0.9)
        assert result.removed_nodes == 0
        assert result.state is state


class TestToSize:
    @given(st.integers(0, 2_000))
    def test_reaches_target_or_stops_sanely(self, seed):
        vector = random_state_vector(6, np.random.default_rng(seed))
        state = StateDD.from_amplitudes(vector, Package())
        result = approximate_to_size(state, 12)
        assert result.nodes_after <= max(12, result.nodes_before)
        assert result.state.norm() == pytest.approx(1.0)

    def test_typically_hits_target(self, rng):
        vector = random_state_vector(7, rng)
        state = StateDD.from_amplitudes(vector, Package())
        result = approximate_to_size(state, 20)
        assert result.nodes_after <= 20

    def test_fidelity_floor_wins_over_size(self, rng):
        vector = random_state_vector(6, rng)
        state = StateDD.from_amplitudes(vector, Package())
        result = approximate_to_size(state, 8, fidelity_floor=0.9)
        assert result.achieved_fidelity >= 0.9 - 1e-6

    def test_already_small_is_noop(self):
        state = StateDD.plus_state(5)
        result = approximate_to_size(state, 100)
        assert result.state is state or result.nodes_after == 5
        assert result.achieved_fidelity == pytest.approx(1.0)

    def test_rejects_impossible_target(self):
        state = StateDD.plus_state(5)
        with pytest.raises(ValueError):
            approximate_to_size(state, 3)

    @pytest.mark.parametrize("floor", [-0.1, 1.5, math.nan])
    def test_rejects_floor_outside_unit_interval(self, floor):
        # A floor above 1 would ask the round for a negative mass.
        state = StateDD.plus_state(3)
        with pytest.raises(ValueError, match="fidelity_floor"):
            approximate_to_size(state, 3, fidelity_floor=floor)

    def test_survives_hostile_uniform_contributions(self):
        """Supremacy-like states (uniform contributions) must not crash."""
        from repro.circuits.supremacy import supremacy_circuit
        from tests.helpers import run_circuit_dd

        state = run_circuit_dd(supremacy_circuit(3, 3, 10, seed=0), Package())
        result = approximate_to_size(state, 64)
        assert result.nodes_after < result.nodes_before
        assert result.state.norm() == pytest.approx(1.0)


def _ablation_state(backend: str) -> StateDD:
    """shor_33_5 after 60 % of its inverse QFT: the 16,105-node state of
    benchmarks/bench_ablation_policies.py."""
    full = shor_circuit(33, 5)
    iqft = next(b for b in full.blocks if b.name == "inverse_qft")
    prefix = Circuit(full.num_qubits)
    for operation in list(full)[: iqft.start + int(0.6 * (iqft.end - iqft.start))]:
        prefix.append(operation)
    return simulate(prefix, package=Package(backend=backend)).state


#: Records of the removal policies on the ablation state, as ``(requested,
#: achieved, removed_contribution, nodes_before, nodes_after,
#: removed_nodes)``; every engine must keep these bits.
ABLATION_RECORDS = {
    "budget 0.9": (
        0.9, 0.9781134167664656, 0.09999026847876673, 16105, 2743, 12766,
    ),
    "budget 0.5": (
        0.5, 0.891855119838486, 0.4997655259091021, 16105, 911, 15056,
    ),
    "to-size 1000": (
        0.0, 0.8856048165411643, 0.5414352642921814, 16105, 836, 15105,
    ),
    "to-size 1000 floor 0.5": (
        0.5, 0.891855119838486, 0.4997655259091021, 16105, 911, 15056,
    ),
    "threshold 1e-4": (
        0.8282335629958051, 0.9640864124253595, 0.17176643700419492,
        16105, 1867, 13882,
    ),
    "threshold 1e-3": (
        0.4196698519475607, 0.8846789729354374, 0.5803301480524393,
        16105, 822, 15148,
    ),
    # Refused: the nodes at or below 1e-2 hold more than all the mass.
    "threshold 1e-2": (1.0, 1.0, 0.0, 16105, 16105, 0),
}

ABLATION_POLICIES = {
    "budget 0.9": lambda s: approximate_state(s, 0.9),
    "budget 0.5": lambda s: approximate_state(s, 0.5),
    "to-size 1000": lambda s: approximate_to_size(s, 1000),
    "to-size 1000 floor 0.5": (
        lambda s: approximate_to_size(s, 1000, fidelity_floor=0.5)
    ),
    "threshold 1e-4": lambda s: approximate_below_contribution(s, 1e-4),
    "threshold 1e-3": lambda s: approximate_below_contribution(s, 1e-3),
    "threshold 1e-2": lambda s: approximate_below_contribution(s, 1e-2),
}


@pytest.mark.parametrize("backend", ["reference", "arena"])
def test_removal_policies_keep_their_records(backend):
    state = _ablation_state(backend)
    for name, apply in ABLATION_POLICIES.items():
        result = apply(state)
        record = (
            result.requested_fidelity,
            result.achieved_fidelity,
            result.removed_contribution,
            result.nodes_before,
            result.nodes_after,
            result.removed_nodes,
        )
        assert record == ABLATION_RECORDS[name], name


class TestRoundEdgeWeights:
    def test_fine_precision_is_lossless(self, rng):
        vector = random_state_vector(5, rng)
        state = StateDD.from_amplitudes(vector, Package())
        result = round_edge_weights(state, 1e-9)
        assert result.achieved_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_coarse_precision_merges_near_duplicates(self):
        # Two subvectors differing by 1e-3 merge on a 1/16 grid.
        base = np.array([0.5, 0.5, 0.5 + 1e-3, 0.5 - 1e-3])
        state = StateDD.from_amplitudes(base / np.linalg.norm(base), Package())
        assert state.node_count() == 3
        result = round_edge_weights(state, 1 / 16)
        assert result.nodes_after == 2
        assert result.achieved_fidelity > 0.999

    @given(st.integers(0, 2_000))
    def test_fidelity_reported_correctly(self, seed):
        vector = random_state_vector(5, np.random.default_rng(seed))
        state = StateDD.from_amplitudes(vector, Package())
        result = round_edge_weights(state, 1 / 32)
        assert result.achieved_fidelity == pytest.approx(
            state.fidelity(result.state), abs=1e-10
        )
        assert result.achieved_fidelity > 0.9

    def test_invalid_precision(self):
        state = StateDD.plus_state(2)
        with pytest.raises(ValueError):
            round_edge_weights(state, 0.0)
        with pytest.raises(ValueError):
            round_edge_weights(state, 0.7)

    def test_plus_state_is_fixed_point(self):
        state = StateDD.plus_state(4)
        result = round_edge_weights(state, 1 / 8)
        assert result.nodes_after == 4
        assert result.achieved_fidelity == pytest.approx(1.0, abs=1e-6)
