"""Property tests: single-replica damage never changes what a read returns.

The replicated store's checkpoint read is read-ALL-pick-newest; this
suite drives the property the design exists for — whatever single
replica loses its checkpoint copy to bitrot, a single flipped bit or
truncation, ``load_checkpoint`` returns a checkpoint equal to the
undamaged store's, and resuming from it spends exactly the fidelity budget of
the uninterrupted (damage-free) reference resume.  Bit-equal, not
approximately: the Lemma-1 ledger replays the same rounds in the same
order, so replication must contribute zero float drift.  The lease read
shares that read, so the same damage to one replica's lease must leave
``read_lease`` returning the healthy lease and every replica byte-equal.
A stored result (its document, state and journal) is read the same way:
damage to one replica's copy of any of its files leaves ``load_result``,
``load_state`` and ``read_journal`` returning the undamaged values.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.fidelity import composed_fidelity  # noqa: E402
from repro.dd.package import Package  # noqa: E402
from repro.faults.injector import arm, disarm  # noqa: E402
from repro.faults.plan import FaultPlan, FaultRule  # noqa: E402
from repro.service.engine import execute_job  # noqa: E402
from repro.service.jobs import JobSpec  # noqa: E402
from repro.service.lease import Lease  # noqa: E402
from repro.service.replication import ReplicatedStore  # noqa: E402
from repro.service.store import (  # noqa: E402
    CHECKPOINT_FILE,
    JOURNAL_FILE,
    RESULT_FILE,
    STATE_FILE,
)

SPEC = JobSpec(
    circuit="builtin:shor_21_2",
    strategy="fidelity",
    strategy_args=(
        ("final_fidelity", 0.5),
        ("round_fidelity", 0.9),
    ),
    max_seconds=0.05,
    checkpoint_interval=20,
)


def _finish_uninterrupted(store):
    """Resume from the stored checkpoint and run to completion in one
    go (no further timeouts): the resumed trajectory is then purely a
    function of the checkpoint document, so fidelity is bit-stable."""
    return execute_job(SPEC.with_overrides(max_seconds=None), store)


def _resume(template_root: str):
    """Drive a throwaway copy of the template store to completion."""
    scratch = tempfile.mkdtemp(prefix="replica-rt-")
    root = os.path.join(scratch, "store")
    shutil.copytree(template_root, root)
    return scratch, root


def _damage(path: str, damage: str, offset: int, bit: int) -> None:
    """Apply one damage input to the file at ``path``."""
    size = os.path.getsize(path)
    assert size > 0
    if damage in ("bitrot", "bitflip"):
        mask = 0xFF if damage == "bitrot" else 1 << bit
        position = offset % size
        with open(path, "r+b") as handle:
            handle.seek(position)
            byte = handle.read(1)
            handle.seek(position)
            handle.write(bytes([byte[0] ^ mask]))
    else:
        with open(path, "r+b") as handle:
            handle.truncate(offset % size)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """One expensive setup: a timed-out replicated store (holding a
    live checkpoint on every replica) plus the damage-free reference
    resume.  Each hypothesis example works on a throwaway copy."""
    base = tmp_path_factory.mktemp("replica-roundtrip")
    store = ReplicatedStore.create(
        str(base / "template"), replicas=3, write_quorum=2
    )
    # The whole run can fit the budget on a fast host: gate 40 is
    # slowed past it, so the first attempt times out.
    arm(
        FaultPlan(
            rules=(
                FaultRule(
                    site="simulator.gate",
                    kind="slow",
                    at_op=40,
                    args={"delay_seconds": 0.1},
                ),
            )
        )
    )
    try:
        first = execute_job(SPEC, store)
    finally:
        disarm()
    assert first.status == "timeout", "spec must time out to checkpoint"
    for replica in store.replicas:
        assert replica.load_checkpoint(first.job_hash) is not None
    checkpoint = store.load_checkpoint(first.job_hash)
    # The undamaged resume: what every damaged resume must reproduce.
    scratch, root = _resume(store.root)
    reference = _finish_uninterrupted(ReplicatedStore(root))
    shutil.rmtree(scratch, ignore_errors=True)
    assert reference.status == "completed"
    return store.root, first.job_hash, checkpoint, reference.stats


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    replica=st.integers(min_value=0, max_value=2),
    damage=st.sampled_from(["bitrot", "bitflip", "truncate"]),
    offset=st.integers(min_value=0, max_value=4096),
    bit=st.integers(min_value=0, max_value=7),
)
# One bit of a digit near the head of replica 0's copy: the JSON stays
# valid, so only the checksum can tell the copy from a healthy one.
@example(replica=0, damage="bitflip", offset=100, bit=0)
def test_single_replica_checkpoint_damage_round_trip(
    template, replica, damage, offset, bit
):
    template_root, job_hash, reference, reference_stats = template
    scratch, root = _resume(template_root)
    try:
        victim = os.path.join(
            root,
            f"replica-{replica}",
            "checkpoints",
            job_hash,
            CHECKPOINT_FILE,
        )
        _damage(victim, damage, offset, bit)

        store = ReplicatedStore(root)
        # load_checkpoint ignores the damaged copy and returns a
        # checkpoint equal to the undamaged store's ...
        checkpoint = store.load_checkpoint(job_hash)
        assert checkpoint == reference
        # ... whose recorded fidelity ledger composes identically ...
        assert composed_fidelity(
            [row["achieved_fidelity"] for row in checkpoint.rounds]
        ) == composed_fidelity(
            [row["achieved_fidelity"] for row in reference.rounds]
        )
        # ... and the resumed run spends exactly the reference budget.
        result = _finish_uninterrupted(store)
        assert result.status == "completed"
        assert (
            result.stats["fidelity_estimate"]
            == reference_stats["fidelity_estimate"]
        )
        assert result.stats["num_rounds"] == reference_stats["num_rounds"]
        stored = store.load_result(job_hash)
        assert (
            stored["stats"]["fidelity_estimate"]
            == result.stats["fidelity_estimate"]
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


LEASE = Lease("c" * 64, "s0", 1, 1760000000.25)

#: Offset of the epoch digit in the stored lease: ``{"checksum":"``,
#: 64 hex digits, ``",`` and ``"epoch":`` come first.
EPOCH_DIGIT = 87


@settings(max_examples=30, deadline=None)
@given(
    replica=st.integers(min_value=0, max_value=2),
    damage=st.sampled_from(["bitrot", "bitflip", "truncate"]),
    offset=st.integers(min_value=0, max_value=4096),
    bit=st.integers(min_value=0, max_value=7),
)
# Epoch 1 reads as 9 on replica 0: valid JSON, the highest epoch, and
# only the checksum can tell the copy from a healthy one.
@example(replica=0, damage="bitflip", offset=EPOCH_DIGIT, bit=3)
def test_single_replica_lease_damage_round_trip(replica, damage, offset, bit):
    scratch = tempfile.mkdtemp(prefix="lease-rt-")
    try:
        store = ReplicatedStore.create(
            os.path.join(scratch, "store"), replicas=3, write_quorum=2
        )
        store.write_lease(LEASE)
        paths = [
            replica_store.lease_path(LEASE.job_hash)
            for replica_store in store.replicas
        ]
        healthy = _read_bytes(paths[0])
        assert healthy[EPOCH_DIGIT : EPOCH_DIGIT + 1] == b"1"
        _damage(paths[replica], damage, offset, bit)
        # The read returns the healthy lease and repairs the damaged
        # copy: every replica ends byte-equal.
        assert ReplicatedStore(store.root).read_lease(LEASE.job_hash) == LEASE
        assert [_read_bytes(path) for path in paths] == [healthy] * 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _strip_integrity(data: bytes) -> bytes:
    """The document without its integrity block and with f_final raised."""
    document = json.loads(data)
    del document["integrity"]
    document["stats"]["fidelity_estimate"] = 1.0
    return json.dumps(document, sort_keys=True, indent=2).encode()


#: Whole-file edits no byte-level draw is likely to make; pinned below.
EDITS = {
    "strip-integrity": _strip_integrity,
    # A round's fidelity 0.9 -> 0.1: valid JSON, a different ledger.
    "0.9->0.1": lambda data: data.replace(b"0.9", b"0.1", 1),
}


def _stored(store, job_hash: str):
    """What a live read of the result returns (state as amplitudes)."""
    return (
        store.load_result(job_hash),
        store.load_state(job_hash, Package()).to_amplitudes(),
        store.read_journal(job_hash),
    )


@pytest.fixture(scope="module")
def result_template(tmp_path_factory):
    """A completed result on every replica of a 3-replica store."""
    base = tmp_path_factory.mktemp("result-roundtrip")
    store = ReplicatedStore.create(
        str(base / "template"), replicas=3, write_quorum=2
    )
    result = execute_job(SPEC.with_overrides(max_seconds=None), store)
    assert result.status == "completed"
    reference = _stored(store, result.job_hash)
    assert b"0.9" in _read_bytes(
        os.path.join(store.replicas[0].result_dir(result.job_hash), JOURNAL_FILE)
    )
    return store.root, result.job_hash, reference


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    replica=st.integers(min_value=0, max_value=2),
    name=st.sampled_from([RESULT_FILE, STATE_FILE, JOURNAL_FILE]),
    damage=st.sampled_from(["bitrot", "bitflip", "truncate"]),
    offset=st.integers(min_value=0, max_value=1 << 15),
    bit=st.integers(min_value=0, max_value=7),
)
# Without its integrity block the document would switch its own checks
# off; an edited journal row still parses.  Only the recorded CRC and
# SHA-256 can tell either copy from a healthy one.
@example(replica=0, name=RESULT_FILE, damage="strip-integrity", offset=0, bit=0)
@example(replica=0, name=JOURNAL_FILE, damage="0.9->0.1", offset=0, bit=0)
def test_single_replica_result_damage_round_trip(
    result_template, replica, name, damage, offset, bit
):
    template_root, job_hash, reference = result_template
    scratch, root = _resume(template_root)
    try:
        store = ReplicatedStore(root)
        paths = {
            file: [
                os.path.join(replica_store.result_dir(job_hash), file)
                for replica_store in store.replicas
            ]
            for file in (RESULT_FILE, STATE_FILE, JOURNAL_FILE)
        }
        healthy = {file: _read_bytes(files[0]) for file, files in paths.items()}
        victim = paths[name][replica]
        if damage in EDITS:
            with open(victim, "wb") as handle:
                handle.write(EDITS[damage](healthy[name]))
        else:
            _damage(victim, damage, offset, bit)
        assert _read_bytes(victim) != healthy[name]

        document, amplitudes, journal = _stored(store, job_hash)
        assert document == reference[0]
        assert np.array_equal(amplitudes, reference[1])
        assert journal == reference[2]
        for file, files in paths.items():
            assert [_read_bytes(path) for path in files] == [healthy[file]] * 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
