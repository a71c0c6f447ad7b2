"""Tests for the guarded size-cap strategy."""

from __future__ import annotations

import pytest

from repro.circuits.shor import shor_circuit
from repro.circuits.supremacy import supremacy_circuit
from repro.core import SizeCapStrategy, simulate
from repro.dd.package import Package
from repro.service.jobs import build_builtin_circuit


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SizeCapStrategy(max_nodes=1)
        with pytest.raises(ValueError):
            SizeCapStrategy(max_nodes=100, final_fidelity=0.0)
        with pytest.raises(ValueError):
            SizeCapStrategy(max_nodes=100, final_fidelity=1.5)

    def test_describe(self):
        text = SizeCapStrategy(4096, 0.5).describe()
        assert "4096" in text and "0.5" in text


class TestCapBehaviour:
    def test_caps_shor_diagram(self):
        package = Package()
        circuit = shor_circuit(33, 5)
        cap = 2000
        outcome = simulate(
            circuit, SizeCapStrategy(cap, final_fidelity=0.3), package=package
        )
        # The cap may be transiently exceeded between rounds, but every
        # round pulls the size back down near the target.
        for record in outcome.stats.rounds:
            assert record.nodes_after <= cap * 1.1
        assert outcome.stats.fidelity_estimate >= 0.3 - 1e-6

    def test_fidelity_floor_respected(self):
        package = Package()
        circuit = shor_circuit(33, 5)
        exact = simulate(circuit, package=package)
        guarded = simulate(
            circuit,
            SizeCapStrategy(max_nodes=500, final_fidelity=0.6),
            package=package,
        )
        true_fidelity = exact.state.fidelity(guarded.state)
        assert true_fidelity >= 0.6 - 1e-6

    def test_budget_exhaustion_stops_rounds(self):
        """Once the floor is hit the strategy must stop destroying."""
        package = Package()
        circuit = supremacy_circuit(3, 3, 12, seed=0)
        strategy = SizeCapStrategy(max_nodes=32, final_fidelity=0.9)
        outcome = simulate(circuit, strategy, package=package)
        assert outcome.stats.fidelity_estimate >= 0.9 - 1e-6

    def test_plan_resets_budget(self):
        package = Package()
        circuit = shor_circuit(21, 2)
        strategy = SizeCapStrategy(max_nodes=200, final_fidelity=0.5)
        simulate(circuit, strategy, package=package)
        first_budget = strategy.remaining_fidelity
        simulate(circuit, strategy, package=package)
        assert strategy.remaining_fidelity == pytest.approx(
            first_budget, abs=1e-9
        )

    def test_large_cap_is_exact(self):
        package = Package()
        circuit = shor_circuit(15, 2)
        outcome = simulate(
            circuit, SizeCapStrategy(10**6), package=package
        )
        assert outcome.stats.num_rounds == 0
        assert outcome.stats.fidelity_estimate == 1.0


#: Round records of SizeCapStrategy runs, as ``(op_index, nodes_before,
#: nodes_after, requested, achieved, removed_contribution,
#: removed_nodes)``, and the run's fidelity estimate.  Each round is one
#: ``approximate_to_size`` call; every engine must keep these bits.
PINNED_RUNS = {
    ("shor_33_5", 2000, 0.3): (
        [
            (46, 2124, 1897, 0.3, 0.9928084994311854, 0.010260076738542205, 124),
            (51, 3182, 1761, 0.30217307786132014, 0.9825473941747594,
             0.04813442061748152, 1182),
            (52, 2137, 1941, 0.30754046029007587, 0.9961948732968439,
             0.007658955239424545, 137),
            (58, 2932, 1808, 0.308715160591311, 0.9961318709836724,
             0.013261790068037621, 932),
            (59, 2287, 1922, 0.30991394772507097, 0.9962409886461895,
             0.010820501030979184, 287),
            (66, 3020, 1861, 0.31108331343224377, 0.9993595579455988,
             0.002492693643051777, 1020),
            (67, 2186, 1960, 0.31128267194616444, 0.9994946578269552,
             0.0015215611697724325, 186),
            (75, 2674, 1786, 0.31144005574070566, 0.9997945136540335,
             0.0006325615476655086, 674),
            (85, 2005, 1998, 0.31150406557289395, 0.9999998924146627,
             1.699504806730544e-07, 5),
            (96, 2125, 1915, 0.3115040990861675, 0.9999942482464221,
             8.988151711911501e-06, 125),
            (108, 3435, 1736, 0.3115058907912894, 0.9999047198179907,
             0.0003233637219364891, 1435),
        ],
        0.9629718885360651,
    ),
    ("qsup_3x3_12_0", 32, 0.9): (
        [
            (28, 38, 37, 0.9, 0.9374999999999926, 0.062499999999999535, 1),
            (35, 55, 53, 0.9600000000000076, 0.9603553390593239,
             0.0396446609406725, 2),
            (37, 262, 261, 0.9996299921030644, 0.9998796965441628,
             0.00012030345583532091, 1),
            (38, 507, 506, 0.9997502655149799, 0.9997897860541198,
             0.0002102139458789724, 1),
        ],
        0.9000355773701221,
    ),
}


@pytest.mark.parametrize("backend", ["reference", "arena"])
@pytest.mark.parametrize("run", list(PINNED_RUNS), ids=lambda run: run[0])
def test_round_records_are_pinned(backend, run):
    name, cap, floor = run
    outcome = simulate(
        build_builtin_circuit(name),
        SizeCapStrategy(cap, final_fidelity=floor),
        package=Package(backend=backend),
    )
    records = [
        (
            r.op_index, r.nodes_before, r.nodes_after, r.requested_fidelity,
            r.achieved_fidelity, r.removed_contribution, r.removed_nodes,
        )
        for r in outcome.stats.rounds
    ]
    assert not any(r.emergency for r in outcome.stats.rounds)
    assert (records, outcome.stats.fidelity_estimate) == PINNED_RUNS[run]
