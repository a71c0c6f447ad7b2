#!/usr/bin/env python
"""Soak test for the replicated artifact store — CI's ``store-chaos``
acceptance for the durability tier (docs/SERVICE.md, "Replication &
durability").

Runs a real 3-shard cluster over a 3-replica ``ReplicatedStore``
(write quorum 2) through mixed-tenant traffic while a seeded fault
plan bitrot-corrupts result writes on replica 1 and declares replica 2
unreachable mid-soak — and the soak wipes replica 2's directory to
model the dead disk being swapped for a blank one.  Then asserts the
replication invariants from docs/SERVICE.md:

* **Zero lost jobs** — every admitted job reaches a final state; a
  write quorum of 2/3 holds throughout, so no work is refused or lost
  to the degraded replicas.
* **Store visibility** — the router's ``metrics`` op carries the
  ``store:`` section (replication factor, quorum, per-replica state).
* **Scrub heals both replicas** — one ``scrub --repair`` pass after
  the soak re-replicates every artifact back to full replication
  factor: zero lost objects, every result object (document, state and
  journal) byte-identical on every replica, read-only mode off.
* **Resumed fidelity is bit-equal** — a checkpoint-resumed run on the
  scrubbed store, with one bit of replica 0's recorded
  ``next_op_index`` flipped so that the damaged copy reads as the
  newest, reports a fidelity estimate bit-equal to an uninterrupted
  reference resume: the checksum rejects the copy before it can be
  picked or replicated (Lemma 1 replays the same ledger; replication
  adds zero float drift).
* **Stale-epoch fencing** — after a forced lease takeover, a write
  carrying the fenced ex-owner's epoch is rejected at the store layer
  (``StaleLeaseError``), and the new owner's token is accepted — still
  after one bit of replica 0's lease ``epoch`` is flipped so it reads
  higher: the checksum rejects that copy, and the healthy copies keep
  their bytes.
* **Clean drain** — a cluster-wide drain ends every shard with exit
  code 5 (``EXIT_DRAINED``, docs/SERVE.md).

Exit code 0 when every assertion holds; 1 otherwise (router and shard
log tails are printed for the CI failure artifact).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import threading
import time

from repro.faults import FaultPlan, FaultRule, arm, disarm
from repro.faults.errors import StaleLeaseError
from repro.serve import ServeClient, ServeCluster, ServeError
from repro.service.checkpoint import Checkpoint
from repro.service.engine import execute_job
from repro.service.jobs import JobSpec
from repro.service.lease import LeaseManager
from repro.service.replication import ReplicatedStore
from repro.service.store import (
    CHECKPOINT_FILE,
    JOURNAL_FILE,
    RESULT_FILE,
    STATE_FILE,
    ArtifactStore,
)

CIRCUITS = (
    "builtin:shor_15_2",
    "builtin:qsup_2x2_4_0",
    "builtin:qsup_3x3_8_0",
    "builtin:qsup_3x3_12_0",
)

TENANTS = ("acme", "globex", "initech")

#: Final states that count as "not lost" for an admitted job.
ACCEPTABLE_FINAL = {"completed", "deadline"}

#: Rejections that are legitimate, typed back-pressure (retryable).
RETRYABLE = {"shed", "quota", "rate_limited", "store_degraded"}

EXIT_DRAINED = 5

#: The files of a stored result object.
RESULT_FILES = (RESULT_FILE, STATE_FILE, JOURNAL_FILE)

#: The replica the fault plan bitrots and the one it takes down.
BITROT_REPLICA = 1
DOWN_REPLICA = 2


def _spec(index: int) -> JobSpec:
    """A unique-per-index spec (distinct content hash → no cache hits)."""
    return JobSpec(
        circuit=CIRCUITS[index % len(CIRCUITS)],
        strategy="fidelity",
        strategy_args=(
            ("final_fidelity", round(0.9999 - index * 1e-5, 7)),
            ("round_fidelity", 0.999),
        ),
        checkpoint_interval=5,
    )


def _replica_plan(workdir: str) -> FaultPlan:
    """Seeded replica chaos at site ``store.replica``.

    Deterministic by hit count: after a short warmup, four result
    writes on replica 1 are bitrot-corrupted right after their fsync,
    and replica 2 stops acking anything (``replica_down``) for the
    rest of the soak.  ``state_dir`` shares the visit counters across
    the router process and every shard daemon + forked worker, so the
    windows are cluster-wide, not per-process.
    """
    return FaultPlan(
        rules=(
            FaultRule(
                site="store.replica",
                kind="bitrot",
                match={"replica": BITROT_REPLICA, "op": "put_result"},
                after_hits=2,
                max_hits=4,
                args={"offset": 12},
            ),
            FaultRule(
                site="store.replica",
                kind="replica_down",
                match={"replica": DOWN_REPLICA},
                after_hits=25,
                max_hits=None,
            ),
        ),
        seed=11,
        state_dir=os.path.join(workdir, "fault-counters"),
    )


def _raise_number(path: str, key: str) -> None:
    """Flip one bit of the document's integer ``key`` so it reads higher.

    Sets a clear low bit of the lowest digit that stays a digit (e.g.
    56 -> 57); only a number made of 7s and 9s falls back to clearing
    the last digit's low bit, which lowers it.
    """
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    field = f'"{key}":'.encode()
    start = data.index(field) + len(field)
    end = start
    while chr(data[end]).isdigit():
        end += 1
    raising = [
        (position, bit)
        for position in range(end - 1, start - 1, -1)
        for bit in (1, 2, 4)
        if not data[position] & bit and data[position] | bit <= ord("9")
    ]
    position, bit = raising[0] if raising else (end - 1, 1)
    data[position] ^= bit
    with open(path, "r+b") as handle:
        handle.write(data)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _read_or_none(path: str) -> bytes | None:
    try:
        return _read_bytes(path)
    except FileNotFoundError:
        return None


def _tail(path: str, lines: int = 30) -> None:
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle.readlines()[-lines:]:
                print(f"  {line.rstrip()}")
    except OSError as error:
        print(f"  (unreadable: {error})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--requests", type=int, default=30)
    parser.add_argument("--replicas", type=int, default=3)
    parser.add_argument("--write-quorum", type=int, default=2)
    parser.add_argument("--wipe-after", type=int, default=12,
                        help="wipe the down replica's directory after "
                        "this many submits (its disk dies mid-soak)")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--queue-capacity", type=int, default=16)
    parser.add_argument("--parity-sample", type=int, default=4,
                        help="completed jobs to re-run against a "
                        "pristine store for bit-equality")
    parser.add_argument(
        "--workdir",
        default="",
        help="artifact directory (default: fresh tempdir, removed on "
        "success; an explicit path is always kept for CI upload)",
    )
    args = parser.parse_args()

    keep_workdir = bool(args.workdir)
    workdir = args.workdir or tempfile.mkdtemp(prefix="store-chaos-")
    os.makedirs(workdir, exist_ok=True)
    router_log_path = os.path.join(workdir, "router.log")
    failures: list[str] = []

    def check(ok: bool, label: str) -> None:
        print(f"  {'ok ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    store = ReplicatedStore.create(
        os.path.join(workdir, "store"),
        replicas=args.replicas,
        write_quorum=args.write_quorum,
    )
    plan = _replica_plan(workdir)
    plan_path = os.path.join(workdir, "fault-plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan.to_dict(), handle)
    # Armed here for the in-process router; the shards arm the same
    # plan (same cross-process counters) via --fault-plan.
    arm(plan)
    router_log = open(router_log_path, "w", encoding="utf-8")
    cluster = ServeCluster(
        store,
        shards=args.shards,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        quotas={"acme": 10},
        rate_limits={"globex": (50.0, 25.0)},
        log=router_log,
        shard_args=["--fault-plan", plan_path],
    )
    print(
        f"soak: {args.requests} mixed-tenant requests over "
        f"{args.shards} shard(s), store replicas={args.replicas} "
        f"W={args.write_quorum}; bitrot on replica {BITROT_REPLICA}, "
        f"replica {DOWN_REPLICA} down + wiped mid-soak"
    )
    cluster.start()
    supervisor = threading.Thread(target=cluster.serve_forever, daemon=True)
    supervisor.start()
    client = ServeClient(
        socket_path=cluster.router.socket_path, timeout=120.0
    )

    try:
        accepted: dict[str, dict] = {}
        rejections: dict[str, int] = {}
        backlog: list[tuple[int, float]] = []

        def submit_one(index: int) -> None:
            spec = _spec(index)
            try:
                response = client.submit(
                    spec,
                    priority=index % 3,
                    tenant=TENANTS[index % len(TENANTS)],
                )
            except ServeError as error:
                if error.error not in RETRYABLE:
                    failures.append(
                        f"unexpected rejection: {error.error}"
                    )
                    return
                rejections[error.error] = rejections.get(error.error, 0) + 1
                backlog.append((index, error.retry_after or 0.1))
            else:
                response["spec"] = spec
                accepted[response["job_id"]] = response

        wiped = False
        for index in range(args.requests):
            if index == args.wipe_after and accepted:
                # Make sure at least one finished result predates the
                # wipe, so the scrub provably has bytes to rebuild.
                first_id = sorted(accepted)[0]
                client.wait(first_id, timeout=180.0)
                victim_root = store.replicas[DOWN_REPLICA].root
                print(f"  -- wiping replica {DOWN_REPLICA} "
                      f"({victim_root})")
                shutil.rmtree(victim_root, ignore_errors=True)
                wiped = True
            submit_one(index)

        check(wiped, "the down replica's disk was wiped mid-load")

        # Retry rejected submissions until admitted (bounded patience).
        retry_deadline = time.monotonic() + 120.0
        while backlog and time.monotonic() < retry_deadline:
            index, retry_after = backlog.pop(0)
            time.sleep(min(retry_after, 1.0))
            submit_one(index)
        check(not backlog, "every rejected submission eventually admitted")
        print(
            f"  -- {len(accepted)} admitted; typed rejections: "
            f"{rejections or '{}'}"
        )

        lost: list[str] = []
        statuses: dict[str, int] = {}
        finished: dict[str, dict] = {}
        for job_id in sorted(accepted):
            try:
                job = client.wait(job_id, timeout=180.0)["job"]
            except (ServeError, OSError) as error:
                lost.append(f"{job_id}: {error}")
                continue
            finished[job_id] = job
            statuses[job["status"]] = statuses.get(job["status"], 0) + 1
            if job["status"] not in ACCEPTABLE_FINAL:
                lost.append(
                    f"{job_id}: {job['status']} ({job.get('error')})"
                )
        check(not lost, f"zero lost admitted jobs {statuses}")
        for line in lost[:10]:
            print(f"       lost: {line}")

        # The router's metrics op surfaces store health (ISSUE: the
        # same section `repro-sim cluster status` renders).
        metrics = client.metrics()
        store_section = metrics.get("store") or {}
        check(
            store_section.get("replicated") is True
            and store_section.get("replication_factor") == args.replicas
            and store_section.get("write_quorum") == args.write_quorum
            and len(store_section.get("replicas") or []) == args.replicas,
            f"metrics carry the store section "
            f"(RF={store_section.get('replication_factor')} "
            f"W={store_section.get('write_quorum')})",
        )
        with open(
            os.path.join(workdir, "metrics.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)

        # Cluster-wide drain before touching the store directly: every
        # shard exits EXIT_DRAINED (none was killed — only a replica).
        cluster.request_drain()
        supervisor.join(timeout=120.0)
        check(not supervisor.is_alive(), "cluster drain completed")
        check(
            all(
                cluster.shard_returncodes.get(shard_id) == EXIT_DRAINED
                for shard_id in cluster.shard_ids
            ),
            f"all shards exited {EXIT_DRAINED} "
            f"(EXIT_DRAINED): {cluster.shard_returncodes}",
        )

        # Chaos over: verify the damage is healable, not survivable-
        # by-luck.  (Injected faults never fire during scrub anyway —
        # the repair tool is not the system under test.)
        disarm()

        report = store.scrub(repair=True)
        check(
            report["lost"] == 0,
            f"scrub lost no objects "
            f"(checked {report['results_checked']} results)",
        )
        check(
            report["repaired"] >= 1,
            f"scrub repaired the damaged replicas "
            f"(repaired={report['repaired']} "
            f"quarantined={report['quarantined']})",
        )
        status = store.status()
        check(
            status.get("read_only") is False,
            "store is writable after the repair scrub",
        )
        check(
            all(
                replica.get("state") == "ok"
                for replica in status.get("replicas", [])
            ),
            f"every replica healthy after scrub "
            f"({[r.get('state') for r in status.get('replicas', [])]})",
        )

        # Full replication factor: every completed job's result object
        # (document, state and journal) is byte-identical on every
        # replica (including the wiped one), and its copies verify.
        # Bytes first: the verifying read would read-repair a copy.
        divergent: list[str] = []
        completed_hashes = sorted(
            {
                job["job_hash"]
                for job in finished.values()
                if job["status"] == "completed" and job.get("job_hash")
            }
        )
        for job_hash in completed_hashes:
            copies = [
                [
                    _read_or_none(os.path.join(replica.result_dir(job_hash), name))
                    for name in RESULT_FILES
                ]
                for replica in store.replicas
            ]
            for index, copy in enumerate(copies):
                for name, data, first in zip(
                    RESULT_FILES, copy, copies[0], strict=True
                ):
                    if data != first:
                        divergent.append(
                            f"{job_hash[:12]} replica {index}: {name} "
                            f"differs from replica 0"
                        )
            try:
                store.load_result(job_hash)  # verifies every copy
            except Exception as error:  # noqa: BLE001 - report all
                divergent.append(f"{job_hash[:12]}: {error}")
        check(
            not divergent,
            f"every result at full replication factor "
            f"({len(completed_hashes)} job(s) x {args.replicas} "
            f"replicas)",
        )
        for line in divergent[:10]:
            print(f"       divergent: {line}")

        # Fidelity parity: completed soak jobs (never interrupted —
        # replica faults act below the engine) are bit-equal to an
        # uninterrupted run against a pristine unreplicated store.
        ref_store = ArtifactStore(os.path.join(workdir, "refstore"))
        parity_bad: list[str] = []
        parity_checked = 0
        for job_id, job in sorted(finished.items()):
            if parity_checked >= args.parity_sample:
                break
            if job["status"] != "completed" or job.get("degraded"):
                continue
            achieved = (job.get("result") or {}).get("stats", {}).get(
                "fidelity_estimate"
            )
            reference = execute_job(accepted[job_id]["spec"], ref_store)
            if achieved != reference.fidelity_estimate:
                parity_bad.append(
                    f"{job_id}: soak={achieved!r} "
                    f"reference={reference.fidelity_estimate!r}"
                )
            parity_checked += 1
        check(
            not parity_bad,
            f"soak fidelity bit-equal to pristine reference "
            f"({parity_checked} job(s) checked)",
        )
        for line in parity_bad[:10]:
            print(f"       parity: {line}")

        # Resume round trip: time out a job on the replicated store,
        # flip one bit of replica 0's op index so its copy reads as the
        # newest, resume — the fidelity estimate must be bit-equal to
        # an undamaged reference resume.
        rt_spec = JobSpec(
            circuit="builtin:shor_21_2",
            strategy="fidelity",
            strategy_args=(
                ("final_fidelity", 0.5),
                ("round_fidelity", 0.9),
            ),
            max_seconds=0.05,
            checkpoint_interval=20,
        )
        # The whole run can fit the budget on a fast host: gate 40 is
        # slowed past it, so this first attempt times out.
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
            first = execute_job(rt_spec, store)
        finally:
            disarm()
        check(
            first.status == "timeout",
            f"round-trip job checkpointed ({first.status})",
        )
        ref_root = os.path.join(workdir, "rt-reference")
        shutil.copytree(store.root, ref_root)
        reference = execute_job(
            rt_spec.with_overrides(max_seconds=None),
            ReplicatedStore(ref_root),
        )
        victim = os.path.join(
            store.replicas[0].root,
            "checkpoints",
            first.job_hash,
            CHECKPOINT_FILE,
        )
        _raise_number(victim, "next_op_index")
        resumed = execute_job(
            rt_spec.with_overrides(max_seconds=None), store
        )
        check(
            resumed.status == "completed"
            and reference.status == "completed"
            and resumed.stats["fidelity_estimate"]
            == reference.stats["fidelity_estimate"]
            and resumed.stats["num_rounds"]
            == reference.stats["num_rounds"],
            f"resumed fidelity bit-equal despite a one-bit op index flip "
            f"({resumed.stats.get('fidelity_estimate')!r} == "
            f"{reference.stats.get('fidelity_estimate')!r})",
        )

        # Lease fencing: after a forced takeover the ex-owner's epoch
        # is rejected at the store layer; the new owner's is accepted.
        fence_hash = first.job_hash
        old_lease = LeaseManager(
            store, owner="s0", ttl_seconds=60.0
        ).acquire(fence_hash)
        new_lease = LeaseManager(
            store, owner="s1", ttl_seconds=60.0
        ).acquire(fence_hash, force=True)
        check(
            new_lease.epoch == old_lease.epoch + 1,
            f"forced takeover bumped the lease epoch "
            f"({old_lease.epoch} -> {new_lease.epoch})",
        )
        probe = Checkpoint(
            job_hash=fence_hash,
            next_op_index=0,
            state={},
            rounds=[],
            max_nodes=0,
            elapsed_seconds=0.0,
            schedule={},
        )
        try:
            store.save_checkpoint(fence_hash, probe, fence=old_lease.fence)
        except StaleLeaseError as error:
            check(True, f"stale-epoch write rejected ({error})")
        else:
            check(False, "stale-epoch write rejected")
        try:
            store.save_checkpoint(fence_hash, probe, fence=new_lease.fence)
        except StaleLeaseError as error:
            check(False, f"current-epoch write accepted ({error})")
        else:
            check(True, "current-epoch write accepted")
            store.clear_checkpoint(fence_hash, fence=new_lease.fence)

        # Lease damage: one bit that raises replica 0's epoch makes that
        # copy fail its checksum, so it can neither win the read nor be
        # repaired onto the healthy replicas and fence out the owner.
        lease_paths = [
            replica.lease_path(fence_hash) for replica in store.replicas
        ]
        healthy = [_read_bytes(path) for path in lease_paths[1:]]
        _raise_number(lease_paths[0], "epoch")
        try:
            store.save_checkpoint(fence_hash, probe, fence=new_lease.fence)
        except StaleLeaseError as error:
            check(
                False,
                f"owner's write accepted after a one-bit epoch raise "
                f"on replica 0 ({error})",
            )
        else:
            check(
                True,
                "owner's write accepted after a one-bit epoch raise on "
                "replica 0",
            )
            store.clear_checkpoint(fence_hash, fence=new_lease.fence)
        check(
            [_read_bytes(path) for path in lease_paths[1:]] == healthy,
            "healthy lease copies kept their bytes",
        )
    finally:
        disarm()
        if supervisor.is_alive():
            cluster.shutdown()
            supervisor.join(timeout=30.0)
        router_log.close()
        if failures:
            print("---- router log tail ----")
            _tail(router_log_path)
            log_dir = os.path.join(store.root, "serve", "logs")
            if os.path.isdir(log_dir):
                for name in sorted(os.listdir(log_dir)):
                    print(f"---- {name} tail ----")
                    _tail(os.path.join(log_dir, name))
        elif not keep_workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    if failures:
        print(f"soak: FAILED ({len(failures)} assertion(s))")
        return 1
    print("soak: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
