"""Tests for cooperative cancellation (deadlines/drains) in the core.

The serving layer cancels runs by polling a :class:`CancellationToken`
at two deterministic, Lemma-1-consistent cut points per operation:
*before* applying a gate, and *after* the operation's approximation
round has spent its fidelity.  With a counting clock the poll sequence
is fully deterministic — pre-op polls are the odd calls, post-round
polls the even ones — so every test below pins the exact boundary the
cancellation lands on and proves that the resume point the stop carries
resumes, in the same package, to the uninterrupted result bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.qft import qft_circuit
from repro.circuits.shor import shor_circuit
from repro.core.simulator import (
    CancellationToken,
    DDSimulator,
    MemoryWatchdog,
    SimulationTimeout,
)
from repro.core.strategies import (
    AdaptiveStrategy,
    FidelityDrivenStrategy,
    MemoryDrivenStrategy,
    NoApproximation,
    SizeCapStrategy,
)
from repro.dd.package import Package
from repro.service.jobs import build_builtin_circuit
from tests.helpers import CountingClock


class SetEvent:
    def is_set(self) -> bool:
        return True


class ClearEvent:
    def is_set(self) -> bool:
        return False


def _token(deadline: float) -> CancellationToken:
    return CancellationToken(
        soft_deadline=deadline, clock=CountingClock()
    )


class TestToken:
    def test_no_triggers_means_no_reason(self):
        assert CancellationToken().reason() is None
        assert CancellationToken(event=ClearEvent()).reason() is None

    def test_deadline_fires_when_clock_reaches_it(self):
        token = _token(2.0)
        assert token.reason() is None  # clock -> 1.0
        assert token.reason() == "deadline"  # clock -> 2.0

    def test_event_wins_over_an_elapsed_deadline(self):
        token = CancellationToken(
            soft_deadline=0.0, event=SetEvent(), clock=CountingClock()
        )
        assert token.reason() == "drain"


class TestCancellationBoundaries:
    """Pre-op polls are odd clock calls; post-round polls are even."""

    def test_fires_before_the_first_operation(self):
        package = Package()
        circuit = qft_circuit(4)
        with pytest.raises(SimulationTimeout) as excinfo:
            DDSimulator(package).run(circuit, cancel=_token(1.0))
        cancelled = excinfo.value
        assert cancelled.reason == "deadline"
        assert cancelled.op_index == 0
        assert cancelled.stats.rounds == []
        # The carried state is the untouched initial state.
        assert cancelled.resume_point.state.package is package
        assert cancelled.resume_point.state.to_amplitudes()[0] == 1.0

    @pytest.mark.parametrize("op_k", [1, 3])
    def test_pre_op_cancellation_lands_on_the_gate_boundary(self, op_k):
        """Deadline at clock ``2k+1`` cancels *before* operation k."""
        package = Package()
        circuit = qft_circuit(4)
        with pytest.raises(SimulationTimeout) as excinfo:
            DDSimulator(package).run(
                circuit, cancel=_token(2.0 * op_k + 1.0)
            )
        cancelled = excinfo.value
        assert cancelled.op_index == op_k
        resumed = DDSimulator(package).run(
            circuit, initial_state=cancelled.resume_point
        )
        reference = DDSimulator(Package()).run(qft_circuit(4))
        assert np.array_equal(
            resumed.state.to_amplitudes(), reference.state.to_amplitudes()
        )

    def test_event_cancellation_reports_drain(self):
        class Toggle:
            def __init__(self) -> None:
                self.checks = 0

            def is_set(self) -> bool:
                self.checks += 1
                return self.checks >= 4

        circuit = qft_circuit(4)
        with pytest.raises(SimulationTimeout) as excinfo:
            DDSimulator(Package()).run(
                circuit, cancel=CancellationToken(event=Toggle())
            )
        assert excinfo.value.reason == "drain"
        # 4th poll = the even (post-round) poll after operation 1.
        assert excinfo.value.op_index == 2

    def test_no_post_poll_after_the_final_operation(self):
        """A deadline only reachable by the final op's post-poll never
        fires — completed work is returned, not thrown away."""
        circuit = qft_circuit(3)
        # Polls: 2 * len - 1 (the last op has no post-poll).
        outcome = DDSimulator(Package()).run(
            circuit, cancel=_token(2.0 * len(circuit))
        )
        assert outcome.stats.num_operations == len(circuit)


class TestMidRoundCancellation:
    def test_post_round_checkpoint_is_lemma1_consistent(self):
        """Cancel on the *post-round* poll of the op that ran an
        approximation round: the checkpoint must include that round, and
        resuming from it reproduces the uninterrupted fidelity product
        exactly (Lemma 1)."""
        package = Package()
        circuit = shor_circuit(21, 2)

        def strategy() -> FidelityDrivenStrategy:
            return FidelityDrivenStrategy(
                0.5, 0.9, placement="block:inverse_qft"
            )

        full = DDSimulator(Package()).run(circuit, strategy())
        assert full.stats.num_rounds >= 1
        round_op = full.stats.rounds[0].op_index
        assert round_op + 1 < len(circuit)

        with pytest.raises(SimulationTimeout) as excinfo:
            DDSimulator(package).run(
                circuit,
                strategy(),
                cancel=_token(2.0 * round_op + 2.0),
            )
        cancelled = excinfo.value
        # The cut lands after the round's op, with the round recorded:
        # the resume point is a consistent Lemma-1 snapshot.
        assert cancelled.op_index == round_op + 1
        assert len(cancelled.stats.rounds) == 1
        assert cancelled.stats.rounds[0].op_index == round_op
        spent = cancelled.stats.rounds[0].achieved_fidelity
        assert cancelled.stats.fidelity_estimate == spent

        resumed = DDSimulator(package).run(
            circuit, strategy(), initial_state=cancelled.resume_point
        )
        _assert_same_run(resumed, full)


def _row(workload, label, strategy, cut, watchdog=None):
    return pytest.param(
        workload, strategy, watchdog, cut, id=f"{workload}-{label}-{cut}"
    )


#: One cut per strategy (and one for the watchdog's rescues).  While
#: the resume state was the round ledger alone, four rows resumed with
#: a different schedule: the memory rows at cuts 34 and 40 with a lower
#: threshold (an attempt that removes nothing leaves no record but
#: still doubles it), the adaptive row with a reset growth baseline,
#: the watchdog row with its rescue floor back at 0.
EXACT_RESUME_ROWS = [
    _row("qsup_3x4_10_0", "memory", lambda: MemoryDrivenStrategy(128, 0.975), 40),
    _row("shor_35_2", "memory", lambda: MemoryDrivenStrategy(32000, 0.8), 32),
    _row("qsup_3x3_8_0", "memory", lambda: MemoryDrivenStrategy(8, 0.99), 34),
    _row("qsup_3x3_10_1", "memory", lambda: MemoryDrivenStrategy(16, 0.99), 40),
    _row("shor_21_2", "adaptive", lambda: AdaptiveStrategy(0.5, 0.9), 40),
    _row("shor_33_5", "size_cap", lambda: SizeCapStrategy(2000, 0.3), 50),
    _row("shor_21_2", "fidelity", lambda: FidelityDrivenStrategy(0.5, 0.9), 60),
    _row(
        "qsup_3x3_10_1",
        "watchdog",
        NoApproximation,
        39,
        MemoryWatchdog(node_ceiling=150),
    ),
]


class TestExactInProcessResume:
    """Cut a run with a counting-clock deadline and resume from the
    :class:`ResumePoint` the stop carries, in the same package: the
    result equals an uninterrupted run in its own package, bit for bit.
    The first two cuts are where a resume through
    ``state_from_dict(state_to_dict(state))`` drifts (by 2e-3 in
    fidelity on the supremacy row, in the round records on both)."""

    @pytest.mark.parametrize(
        ("workload", "strategy", "watchdog", "cut"), EXACT_RESUME_ROWS
    )
    def test_resume_from_the_stop_state_is_exact(
        self, workload, strategy, watchdog, cut
    ):
        circuit = build_builtin_circuit(workload)
        full = DDSimulator(Package()).run(
            circuit, strategy(), watchdog=watchdog
        )
        package = Package()
        with pytest.raises(SimulationTimeout) as excinfo:
            DDSimulator(package).run(
                circuit,
                strategy(),
                watchdog=watchdog,
                cancel=_token(2.0 * cut + 1.0),
            )
        stopped = excinfo.value
        assert (stopped.reason, stopped.op_index) == ("deadline", cut)

        resumed = DDSimulator(package).run(
            circuit,
            strategy(),
            initial_state=stopped.resume_point,
            watchdog=watchdog,
        )
        _assert_same_run(resumed, full)
        assert resumed.stats.max_nodes == full.stats.max_nodes


def _assert_same_run(resumed, full) -> None:
    """The resumed run equals the uninterrupted one bit for bit."""
    assert resumed.stats.fidelity_estimate == full.stats.fidelity_estimate
    assert resumed.stats.rounds == full.stats.rounds
    assert resumed.stats.final_nodes == full.stats.final_nodes
    assert np.array_equal(
        resumed.state.to_amplitudes(), full.state.to_amplitudes()
    )


class TestServiceResume:
    def test_deadline_job_resumes_to_the_reference_result(self, tmp_path):
        """Full-stack: a daemon-style deadline mid-job leaves a
        checkpoint that a later execution of the same spec resumes
        from, matching an uninterrupted reference run."""
        from repro.service.engine import execute_job
        from repro.service.jobs import JobSpec
        from repro.service.store import ArtifactStore

        spec = JobSpec(circuit="builtin:shor_15_2")
        store = ArtifactStore(str(tmp_path / "store"))

        cancel = CancellationToken(
            soft_deadline=31.0, clock=CountingClock()
        )
        interrupted = execute_job(spec, store, cancel=cancel)
        assert interrupted.status == "deadline"
        cut = interrupted.stats["next_op_index"]
        assert cut == 15  # clock 31 = pre-op poll of operation 15
        assert store.load_checkpoint(spec.content_hash()) is not None

        resumed = execute_job(spec, store)
        assert resumed.status == "completed"
        assert resumed.resumed_at == cut

        reference = execute_job(
            spec, ArtifactStore(str(tmp_path / "reference"))
        )
        assert resumed.stats["fidelity_estimate"] == (
            reference.stats["fidelity_estimate"]
        )
        assert resumed.stats["num_operations"] == (
            reference.stats["num_operations"]
        )

    def test_stored_checkpoint_resumes_to_the_reference_result(
        self, tmp_path
    ):
        """The memory strategy's threshold survives the store: a stop
        before operation 34 leaves a checkpoint whose resume places the
        reference run's two rounds, not three."""
        from repro.service.engine import execute_job
        from repro.service.jobs import JobSpec
        from repro.service.store import ArtifactStore

        spec = JobSpec(
            "builtin:qsup_3x3_8_0",
            "memory",
            (("threshold", 8), ("round_fidelity", 0.99)),
        )
        store = ArtifactStore(str(tmp_path / "store"))
        cancel = CancellationToken(soft_deadline=69.0, clock=CountingClock())
        interrupted = execute_job(spec, store, cancel=cancel)
        assert interrupted.status == "deadline"
        assert interrupted.stats["next_op_index"] == 34

        resumed = execute_job(spec, store)
        assert resumed.status == "completed"
        assert resumed.resumed_at == 34
        reference = execute_job(
            spec, ArtifactStore(str(tmp_path / "reference"))
        )
        assert reference.stats["num_rounds"] == 2
        for key in ("fidelity_estimate", "rounds", "max_nodes"):
            assert resumed.stats[key] == reference.stats[key]

    def test_drain_event_yields_drained_status(self, tmp_path):
        from repro.service.engine import execute_job
        from repro.service.jobs import JobSpec
        from repro.service.store import ArtifactStore

        spec = JobSpec(circuit="builtin:shor_15_2")
        store = ArtifactStore(str(tmp_path / "store"))
        result = execute_job(
            spec, store, cancel=CancellationToken(event=SetEvent())
        )
        assert result.status == "drained"


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1b: the vadd cache keys and the unique table "
    "remember history, so a fresh package moves later bits",
)
def test_resume_into_a_fresh_package_is_exact():
    """Resume ``qsup_3x4_10_0`` (memory 128/0.975) from its op-50 stop
    through ``state_from_dict(state_to_dict(...))`` into a fresh package:
    the result should equal the uninterrupted run bit for bit."""
    from dataclasses import replace

    from repro.dd.serialize import state_from_dict, state_to_dict

    circuit = build_builtin_circuit("qsup_3x4_10_0")

    def strategy():
        return MemoryDrivenStrategy(threshold=128, round_fidelity=0.975)

    full = DDSimulator(Package()).run(circuit, strategy())
    with pytest.raises(SimulationTimeout) as excinfo:
        DDSimulator(Package()).run(circuit, strategy(), cancel=_token(101.0))
    point = excinfo.value.resume_point
    assert point.op_index == 50
    fresh = Package()
    moved = replace(point, state=state_from_dict(state_to_dict(point.state), fresh))
    resumed = DDSimulator(fresh).run(circuit, strategy(), initial_state=moved)
    _assert_same_run(resumed, full)
