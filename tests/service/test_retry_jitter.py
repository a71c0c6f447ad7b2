"""Tests for decorrelated-jitter retry backoff in the job engine."""

from __future__ import annotations

from repro.service.engine import JobEngine
from repro.service.store import ArtifactStore


def _engine(tmp_path, **kwargs) -> JobEngine:
    defaults = dict(retry_backoff=0.25)
    defaults.update(kwargs)
    return JobEngine(ArtifactStore(str(tmp_path / "store")), **defaults)


class TestJitterBackoff:
    def test_sleeps_stay_within_the_envelope(self, tmp_path):
        engine = _engine(tmp_path, jitter_seed=42)
        for attempt in range(1, 8):
            cap = 0.25 * 2 ** (attempt - 1)
            sleep = engine._backoff_seconds(attempt)
            # Never below the base, never above twice the exponential
            # envelope — worst-case growth matches the plain schedule.
            assert 0.25 <= sleep <= 2.0 * cap

    def test_seed_makes_the_schedule_reproducible(self, tmp_path):
        first = _engine(tmp_path, jitter_seed=7)
        second = _engine(tmp_path, jitter_seed=7)
        schedule = [first._backoff_seconds(n) for n in (1, 2, 3, 4)]
        assert schedule == [
            second._backoff_seconds(n) for n in (1, 2, 3, 4)
        ]

    def test_different_seeds_decorrelate(self, tmp_path):
        a = _engine(tmp_path, jitter_seed=1)
        b = _engine(tmp_path, jitter_seed=2)
        schedule_a = [a._backoff_seconds(n) for n in (1, 2, 3, 4)]
        schedule_b = [b._backoff_seconds(n) for n in (1, 2, 3, 4)]
        assert schedule_a != schedule_b

    def test_jitter_is_decorrelated_not_constant(self, tmp_path):
        engine = _engine(tmp_path, jitter_seed=3)
        schedule = [engine._backoff_seconds(n) for n in (1, 2, 3, 4, 5)]
        assert len(set(schedule)) > 1
