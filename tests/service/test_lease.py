"""Tests for store-backed ownership leases and epoch fencing."""

from __future__ import annotations

import json
import os

import pytest

from repro.faults.errors import LeaseIntegrityError, StaleLeaseError
from repro.service.lease import DEFAULT_LEASE_TTL, Lease, LeaseHeld, LeaseManager
from repro.service.store import ArtifactStore
from tests.helpers import make_checkpoint

HASH_A = "a" * 64
HASH_B = "b" * 64


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
        store.write_lease(Lease(HASH_A, "s0", lease.epoch, expires_at=0.0))
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

    def test_lost_lease_fences_a_higher_epoch_token(self, store, leases):
        # A lease at epoch 3 loses its only copy to a flipped bit; the new
        # owner's forced acquire restarts at epoch 1.  An ex-owner's token
        # from epoch 2 must not pass for being "newer" than epoch 1.
        leases.acquire(HASH_A)
        for owner in ("s1", "s2"):
            LeaseManager(store, owner=owner, ttl_seconds=30.0).acquire(
                HASH_A, force=True
            )
        assert store.read_lease(HASH_A).epoch == 3
        path = store.lease_path(HASH_A)
        with open(path, "r+b") as handle:
            handle.seek(20)
            byte = handle.read(1)
            handle.seek(20)
            handle.write(bytes([byte[0] ^ 0x01]))
        fresh = LeaseManager(store, owner="s3", ttl_seconds=30.0)
        assert fresh.acquire(HASH_A, force=True).epoch == 1
        with pytest.raises(StaleLeaseError):
            store.save_checkpoint(
                HASH_A,
                make_checkpoint(HASH_A, 1),
                fence={"owner": "s1", "epoch": 2},
            )
        assert store.load_checkpoint(HASH_A) is None

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


class TestLeaseDocument:
    def test_stored_form_is_one_checksummed_sorted_dump(self, store):
        lease = Lease(HASH_A, "s0", 2, 12.5)
        store.write_lease(lease)
        with open(store.lease_path(HASH_A), encoding="utf-8") as handle:
            text = handle.read()
        document = json.loads(text)
        assert text == json.dumps(
            document, sort_keys=True, separators=(",", ":")
        )
        assert text.startswith('{"checksum":"')
        assert (document["format"], document["version"]) == ("repro-lease", 1)
        assert store.read_lease(HASH_A) == lease

    def test_damaged_lease_raises_and_current_quarantines_it(
        self, store, leases
    ):
        leases.acquire(HASH_A)
        path = store.lease_path(HASH_A)
        with open(path, "r+b") as handle:
            handle.seek(20)
            byte = handle.read(1)
            handle.seek(20)
            handle.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(LeaseIntegrityError):
            store.read_lease(HASH_A)
        assert leases.current(HASH_A) is None
        assert not os.path.exists(path)
        (entry,) = store.quarantine_report()
        assert entry["name"] == f"lease-{HASH_A[:12]}-0"
        assert "SHA-256" in entry["reason"]

    def test_iter_leases_yields_only_verified_leases(self, store):
        store.write_lease(Lease(HASH_A, "s0", 1, 0.0))
        store.write_lease(Lease(HASH_B, "s1", 2, 0.0))
        with open(store.lease_path(HASH_B), "a", encoding="utf-8") as handle:
            handle.write(" ")  # still JSON; the checksum still holds
        with open(store.lease_path(HASH_A), "r+b") as handle:
            handle.truncate(10)
        assert list(store.iter_leases()) == [Lease(HASH_B, "s1", 2, 0.0)]

    def test_lease_recorded_for_another_job_is_stale(self, store):
        store.write_lease(Lease(HASH_B, "s0", 1, 0.0))
        os.makedirs(os.path.dirname(store.lease_path(HASH_A)), exist_ok=True)
        os.replace(store.lease_path(HASH_B), store.lease_path(HASH_A))
        with pytest.raises(LeaseIntegrityError, match="stale"):
            store.read_lease(HASH_A)


class TestDefaults:
    def test_default_ttl_is_positive(self):
        assert DEFAULT_LEASE_TTL > 0
