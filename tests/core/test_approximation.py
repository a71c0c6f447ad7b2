"""Tests for fidelity-budgeted node removal (§IV-A)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    approximate_state,
    node_contributions,
    rebuild_without,
    select_nodes_for_removal,
)
from repro.dd.package import Package
from repro.dd.vector import StateDD
from tests.helpers import random_sparse_state_vector, random_state_vector

FIG1 = np.array([1, 0, 0, -1, 2, 0, 0, 2]) / math.sqrt(10)


class TestSelection:
    def test_budget_never_exceeded(self, rng):
        vector = random_state_vector(5, rng)
        state = StateDD.from_amplitudes(vector, Package())
        removed, spent = select_nodes_for_removal(state, 0.9)
        assert spent <= 0.1 + 1e-9

    def test_root_never_selected(self):
        state = StateDD.plus_state(3)
        removed, _spent = select_nodes_for_removal(state, 0.01)
        _weight, root = state.edge
        assert root not in removed

    def test_fidelity_one_removes_nothing(self, rng):
        vector = random_state_vector(4, rng)
        state = StateDD.from_amplitudes(vector, Package())
        removed, spent = select_nodes_for_removal(state, 1.0)
        assert not removed
        assert spent == 0.0

    def test_invalid_fidelity(self):
        state = StateDD.plus_state(2)
        with pytest.raises(ValueError):
            select_nodes_for_removal(state, 0.0)
        with pytest.raises(ValueError):
            select_nodes_for_removal(state, 1.5)

    def test_greedy_prefers_small_contributions(self):
        state = StateDD.from_amplitudes(FIG1 + 0j)
        removed, spent = select_nodes_for_removal(state, 0.8)
        contributions = node_contributions(state)
        assert spent == pytest.approx(0.2)
        assert any(
            contributions[node] == pytest.approx(0.2) for node in removed
        )


class TestRebuild:
    def test_removing_nothing_preserves_state(self, rng):
        vector = random_state_vector(4, rng)
        state = StateDD.from_amplitudes(vector, Package())
        rebuilt = rebuild_without(state, set())
        assert rebuilt.fidelity(state) == pytest.approx(1.0)

    def test_removing_everything_raises(self):
        state = StateDD.plus_state(3)
        all_nodes = set(state.nodes())
        with pytest.raises(ValueError):
            rebuild_without(state, all_nodes)

    def test_result_is_unit_norm(self, rng):
        vector = random_state_vector(5, rng)
        state = StateDD.from_amplitudes(vector, Package())
        removed, _spent = select_nodes_for_removal(state, 0.7)
        if removed:
            rebuilt = rebuild_without(state, removed)
            assert rebuilt.norm() == pytest.approx(1.0)

    def test_removed_amplitudes_are_zero(self):
        """Example 8: removing the 0.2 node empties the |0xx> half."""
        state = StateDD.from_amplitudes(FIG1 + 0j)
        contributions = node_contributions(state)
        target = next(
            node
            for node, value in contributions.items()
            if node.level == 1 and value == pytest.approx(0.2)
        )
        rebuilt = rebuild_without(state, {target})
        amplitudes = rebuilt.to_amplitudes()
        np.testing.assert_allclose(amplitudes[:4], 0.0, atol=1e-12)
        np.testing.assert_allclose(
            np.abs(amplitudes[np.abs(amplitudes) > 0]),
            1 / math.sqrt(2),
            atol=1e-10,
        )


class TestApproximateState:
    def test_example8_fidelity(self):
        """Example 8: fidelity 0.8 with a more compact diagram."""
        state = StateDD.from_amplitudes(FIG1 + 0j)
        result = approximate_state(state, round_fidelity=0.8)
        assert result.achieved_fidelity == pytest.approx(0.8)
        assert result.nodes_after < result.nodes_before

    @given(
        st.integers(0, 5_000),
        st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]),
    )
    def test_fidelity_lower_bound_holds(self, seed, round_fidelity):
        """The paper's guarantee: achieved fidelity >= f_round."""
        vector = random_state_vector(6, np.random.default_rng(seed))
        state = StateDD.from_amplitudes(vector, Package())
        result = approximate_state(state, round_fidelity)
        assert result.achieved_fidelity >= round_fidelity - 1e-9

    @given(st.integers(0, 5_000))
    def test_sparse_states_bound(self, seed):
        vector = random_sparse_state_vector(6, np.random.default_rng(seed))
        state = StateDD.from_amplitudes(vector, Package())
        result = approximate_state(state, 0.9)
        assert result.achieved_fidelity >= 0.9 - 1e-9

    def test_achieved_matches_exact_dd_fidelity(self, rng):
        vector = random_state_vector(6, rng)
        state = StateDD.from_amplitudes(vector, Package())
        result = approximate_state(state, 0.8)
        assert result.achieved_fidelity == pytest.approx(
            state.fidelity(result.state), abs=1e-10
        )

    def test_achieved_at_least_bound_from_contributions(self, rng):
        """Overlapping removals only help: achieved >= 1 - spent."""
        vector = random_state_vector(6, rng)
        state = StateDD.from_amplitudes(vector, Package())
        result = approximate_state(state, 0.7)
        assert (
            result.achieved_fidelity
            >= 1.0 - result.removed_contribution - 1e-9
        )

    def test_noop_round(self):
        state = StateDD.basis_state(4, 3)
        result = approximate_state(state, 0.9)
        assert result.removed_nodes == 0
        assert result.achieved_fidelity == 1.0
        assert result.state is state

    def test_size_reduction_property(self, rng):
        vector = random_state_vector(6, rng)
        state = StateDD.from_amplitudes(vector, Package())
        result = approximate_state(state, 0.6)
        assert 0.0 <= result.size_reduction < 1.0

    def test_result_amplitudes_subset_of_original_support(self, rng):
        """Truncation only zeroes amplitudes; survivors are rescaled."""
        vector = random_sparse_state_vector(5, rng)
        state = StateDD.from_amplitudes(vector, Package())
        result = approximate_state(state, 0.8)
        original = state.to_amplitudes()
        approximated = result.state.to_amplitudes()
        for index in range(32):
            if abs(original[index]) < 1e-12:
                assert abs(approximated[index]) < 1e-10

    def test_truncation_preserves_relative_phases(self, rng):
        vector = random_state_vector(4, rng)
        state = StateDD.from_amplitudes(vector, Package())
        result = approximate_state(state, 0.7)
        original = state.to_amplitudes()
        approximated = result.state.to_amplitudes()
        survivors = np.abs(approximated) > 1e-12
        if survivors.sum() >= 2:
            ratio = approximated[survivors] / original[survivors]
            np.testing.assert_allclose(
                ratio, ratio[0], atol=1e-8
            )


class TestRepeatedRounds:
    def test_three_rounds_compose_multiplicatively(self, rng):
        """Lemma 1 on the DD implementation directly."""
        vector = random_state_vector(6, rng)
        state = StateDD.from_amplitudes(vector, Package())
        current = state
        product = 1.0
        for round_fidelity in (0.95, 0.9, 0.85):
            result = approximate_state(current, round_fidelity)
            product *= result.achieved_fidelity
            current = result.state
        assert state.fidelity(current) == pytest.approx(product, abs=1e-9)

    def test_rounds_monotonically_shrink(self, rng):
        vector = random_state_vector(7, rng)
        state = StateDD.from_amplitudes(vector, Package())
        sizes = [state.node_count()]
        current = state
        for _ in range(3):
            current = approximate_state(current, 0.9).state
            sizes.append(current.node_count())
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))
