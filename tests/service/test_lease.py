"""Tests for store-backed ownership leases and epoch fencing."""

from __future__ import annotations

import pytest

from repro.faults.errors import StaleLeaseError
from repro.service.lease import DEFAULT_LEASE_TTL, Lease, LeaseHeld, LeaseManager
from repro.service.store import ArtifactStore
from tests.helpers import make_checkpoint

HASH_A = "a" * 64


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(str(tmp_path / "store"))


@pytest.fixture
def leases(store) -> LeaseManager:
    return LeaseManager(store, owner="s0", ttl_seconds=30.0)


class TestAcquire:
    def test_fresh_acquire_starts_at_epoch_one(self, leases):
        lease = leases.acquire(HASH_A)
        assert lease.owner == "s0"
        assert lease.epoch == 1
        assert not lease.expired()

    def test_reacquire_by_owner_is_a_renewal(self, leases):
        first = leases.acquire(HASH_A)
        second = leases.acquire(HASH_A)
        assert second.epoch == first.epoch
        assert second.expires_at >= first.expires_at

    def test_live_foreign_lease_raises_lease_held(self, store, leases):
        leases.acquire(HASH_A)
        other = LeaseManager(store, owner="s1", ttl_seconds=30.0)
        with pytest.raises(LeaseHeld) as info:
            other.acquire(HASH_A)
        assert info.value.lease.owner == "s0"

    def test_takeover_of_expired_lease_bumps_epoch(self, store, leases):
        lease = leases.acquire(HASH_A)
        # Force expiry by rewriting the document with a past expiry.
        store.write_lease(
            HASH_A,
            Lease(HASH_A, "s0", lease.epoch, expires_at=0.0).to_dict(),
        )
        other = LeaseManager(store, owner="s1", ttl_seconds=30.0)
        taken = other.acquire(HASH_A)
        assert taken.owner == "s1"
        assert taken.epoch == lease.epoch + 1

    def test_forced_takeover_of_live_lease_bumps_epoch(self, store, leases):
        lease = leases.acquire(HASH_A)
        other = LeaseManager(store, owner="s1", ttl_seconds=30.0)
        taken = other.acquire(HASH_A, force=True)
        assert taken.epoch == lease.epoch + 1

    def test_explicit_owner_overrides_manager_identity(self, leases):
        lease = leases.acquire(HASH_A, owner="s7")
        assert lease.owner == "s7"


class TestRenewRelease:
    def test_renew_extends_expiry(self, leases):
        lease = leases.acquire(HASH_A)
        refreshed = leases.renew(lease)
        assert refreshed is not None
        assert refreshed.epoch == lease.epoch
        assert refreshed.expires_at >= lease.expires_at

    def test_renew_after_takeover_returns_none(self, store, leases):
        lease = leases.acquire(HASH_A)
        other = LeaseManager(store, owner="s1", ttl_seconds=30.0)
        other.acquire(HASH_A, force=True)
        assert leases.renew(lease) is None

    def test_release_keeps_the_document_for_fencing(self, store, leases):
        lease = leases.acquire(HASH_A)
        leases.release(lease)
        recorded = leases.current(HASH_A)
        assert recorded is not None
        assert recorded.epoch == lease.epoch
        assert recorded.expired()
        # The next claimant still bumps the epoch past the released one.
        other = LeaseManager(store, owner="s1", ttl_seconds=30.0)
        assert other.acquire(HASH_A).epoch == lease.epoch + 1

    def test_release_after_takeover_is_a_noop(self, store, leases):
        lease = leases.acquire(HASH_A)
        other = LeaseManager(store, owner="s1", ttl_seconds=30.0)
        taken = other.acquire(HASH_A, force=True)
        leases.release(lease)
        recorded = other.current(HASH_A)
        assert recorded is not None
        assert recorded.owner == "s1"
        assert not recorded.expired()
        assert recorded.epoch == taken.epoch


class TestFencing:
    def test_stale_epoch_checkpoint_write_is_rejected(self, store, leases):
        old = leases.acquire(HASH_A)
        other = LeaseManager(store, owner="s1", ttl_seconds=30.0)
        other.acquire(HASH_A, force=True)
        with pytest.raises(StaleLeaseError):
            store.save_checkpoint(
                HASH_A, make_checkpoint(HASH_A, 1), fence=old.fence
            )
        assert store.load_checkpoint(HASH_A) is None

    def test_same_epoch_different_owner_is_rejected(self, store, leases):
        leases.acquire(HASH_A)
        with pytest.raises(StaleLeaseError):
            store.save_checkpoint(
                HASH_A,
                make_checkpoint(HASH_A, 1),
                fence={"owner": "impostor", "epoch": 1},
            )

    def test_current_fence_is_accepted(self, store, leases):
        lease = leases.acquire(HASH_A)
        store.save_checkpoint(
            HASH_A, make_checkpoint(HASH_A, 2), fence=lease.fence
        )
        assert store.load_checkpoint(HASH_A) == make_checkpoint(HASH_A, 2)

    def test_unfenced_write_passes(self, store, leases):
        # Plain (non-serve) engines write without a token; fencing only
        # constrains writers that claim an epoch.
        leases.acquire(HASH_A)
        store.save_checkpoint(HASH_A, make_checkpoint(HASH_A, 3))
        assert store.load_checkpoint(HASH_A) == make_checkpoint(HASH_A, 3)

    def test_unleased_job_accepts_any_fence(self, store):
        store.save_checkpoint(
            HASH_A,
            make_checkpoint(HASH_A, 1),
            fence={"owner": "s0", "epoch": 5},
        )
        assert store.load_checkpoint(HASH_A) == make_checkpoint(HASH_A, 1)

    def test_clear_checkpoint_is_fenced_too(self, store, leases):
        lease = leases.acquire(HASH_A)
        store.save_checkpoint(
            HASH_A, make_checkpoint(HASH_A, 2), fence=lease.fence
        )
        other = LeaseManager(store, owner="s1", ttl_seconds=30.0)
        other.acquire(HASH_A, force=True)
        with pytest.raises(StaleLeaseError):
            store.clear_checkpoint(HASH_A, fence=lease.fence)
        assert store.load_checkpoint(HASH_A) == make_checkpoint(HASH_A, 2)


class TestDefaults:
    def test_default_ttl_is_positive(self):
        assert DEFAULT_LEASE_TTL > 0
