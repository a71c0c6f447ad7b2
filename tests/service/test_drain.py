"""Graceful-drain tests: the engine, and `repro-sim batch` end to end.

The invariant under test is ISSUE-5's: a drain never silently loses an
accepted job — every spec comes back as ``completed`` (finished before
the drain) or ``drained`` (not started / checkpointed), never missing.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.service.engine import JobEngine
from repro.service.jobs import JobSpec
from repro.service.store import ArtifactStore

SPECS = [
    dict(circuit="builtin:shor_15_2"),
    # Seconds of work: keeps the batch alive while the CLI drain test
    # below delivers its SIGTERM.  The engine drain tests never reach
    # it (they drain after the first job).
    dict(circuit="builtin:shor_33_5"),
    dict(circuit="builtin:shor_21_2"),
]

#: Two checkpointing jobs of a few seconds each, one approximation
#: round apiece: both are still in flight one second into a
#: ``workers=2`` batch.
LONG_SPECS = [
    dict(
        circuit=f"builtin:{name}",
        strategy="memory",
        strategy_args={"round_fidelity": 0.8, "threshold": 32000},
        checkpoint_interval=10,
    )
    for name in ("shor_33_5", "shor_35_2")
]


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def _specs() -> list[JobSpec]:
    return [JobSpec(**doc) for doc in SPECS]


class TestEngineDrain:
    def test_drained_engine_does_not_start_new_jobs(self, store):
        engine = JobEngine(store)
        engine.request_drain()
        result = engine.run(_specs()[0])
        assert result.status == "drained"
        assert result.attempts == 0
        # Nothing executed: the store has no artifacts.
        assert not store.has_result(result.job_hash)

    def test_serial_batch_drain_loses_no_job(self, store):
        engine = JobEngine(store, workers=1)
        seen: list[str] = []

        def progress(result) -> None:
            seen.append(result.status)
            engine.request_drain()  # drain right after the first job

        results = engine.run_batch(_specs(), progress=progress)
        assert len(results) == len(SPECS)  # every job accounted for
        assert results[0].status == "completed"
        assert [r.status for r in results[1:]] == ["drained", "drained"]
        assert len(seen) == len(SPECS)

    def test_pool_batch_drain_loses_no_job(self, store):
        engine = JobEngine(store, workers=2)
        engine.request_drain()

        results = engine.run_batch(_specs())
        # Drain before the pool spun up: everything is accounted for
        # and nothing ran to a partial, unreported state.
        assert len(results) == len(SPECS)
        assert all(
            r.status in ("completed", "drained") for r in results
        )
        assert engine.draining

    def test_pool_drain_checkpoints_in_flight_jobs(self, store, tmp_path):
        specs = [JobSpec.from_dict(doc) for doc in LONG_SPECS]
        engine = JobEngine(store, workers=2)
        timer = threading.Timer(1.0, engine.request_drain)
        started = time.monotonic()
        timer.start()
        try:
            results = engine.run_batch(specs)
        finally:
            timer.cancel()
        # Workers stop at their next gate instead of finishing the run.
        assert time.monotonic() - started < 4.0
        assert [r.status for r in results] == ["drained", "drained"]
        for result in results:
            assert store.load_checkpoint(result.job_hash) is not None

        resumed = JobEngine(store, workers=2).run_batch(specs)
        reference = JobEngine(
            ArtifactStore(str(tmp_path / "reference")), workers=2
        ).run_batch(specs)
        for rerun, uninterrupted in zip(resumed, reference, strict=True):
            assert rerun.status == "completed"
            assert rerun.resumed_at and rerun.resumed_at > 0
            assert (
                rerun.stats["num_rounds"]
                == uninterrupted.stats["num_rounds"]
            )
            assert rerun.fidelity_estimate == pytest.approx(
                uninterrupted.fidelity_estimate, abs=1e-12
            )

    def test_drained_jobs_complete_on_rerun(self, store):
        engine = JobEngine(store)
        engine.request_drain()
        first = engine.run_batch(_specs()[:1])
        assert first[0].status == "drained"
        rerun = JobEngine(store).run_batch(_specs()[:1])
        assert rerun[0].status == "completed"


class TestBatchCliDrain:
    """`repro-sim batch` under SIGTERM: exit code 5, no lost jobs."""

    @pytest.mark.skipif(
        not hasattr(signal, "SIGTERM"), reason="POSIX signals required"
    )
    def test_sigterm_drains_with_exit_code_5(self, tmp_path):
        batch_file = tmp_path / "batch.json"
        batch_file.write_text(json.dumps({"jobs": SPECS}))
        repo_src = os.path.join(
            os.path.dirname(
                os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            ),
            "src",
        )
        env = dict(os.environ, PYTHONPATH=repo_src, PYTHONUNBUFFERED="1")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "batch",
                str(batch_file),
                "--store",
                str(tmp_path / "store"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        # Wait for the first job's progress line — the drain handler is
        # guaranteed installed by then — and ask for a graceful drain
        # while the second (multi-second) job is in flight.
        first_line = process.stdout.readline()
        assert "shor_15_2" in first_line, first_line
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=120)
        assert process.returncode == 5, output
        assert "drain requested" in output
        assert "drained" in output
        # The summary accounts for every accepted job.
        summary = next(
            line for line in output.splitlines()
            if line.startswith("batch:")
        )
        assert f"/{len(SPECS)} completed" in summary

    @pytest.mark.skipif(
        not hasattr(signal, "SIGTERM"), reason="POSIX signals required"
    )
    def test_sigterm_drains_a_worker_pool_batch(self, tmp_path):
        """The same drain through ``--workers 2``: the job in flight on
        a worker checkpoints and reports drained."""
        batch_file = tmp_path / "batch.json"
        batch_file.write_text(json.dumps({"jobs": SPECS}))
        repo = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(repo, "src"),
            PYTHONUNBUFFERED="1",
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "batch", str(batch_file),
                "--store", str(tmp_path / "store"), "--workers", "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        first_line = process.stdout.readline()
        assert "shor_15_2" in first_line, first_line
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=120)
        assert process.returncode == 5, output
        assert "shor_33_5: DRAINED at op" in output
        summary = next(
            line for line in output.splitlines()
            if line.startswith("batch:")
        )
        assert f"/{len(SPECS)} completed" in summary
