"""The job engine: cache-first, checkpointed, multi-process execution.

Execution path for one :class:`~repro.service.jobs.JobSpec`:

1. **Cache check** — if the artifact store already holds a result for the
   spec's content hash, return it without simulating (rehydrating the
   stored state diagram for fresh sampling when ``shots`` is requested).
2. **Resume check** — if a checkpoint exists, rehydrate its state diagram
   and continue from its operation index, seeding the statistics and the
   strategy with the rounds already performed (sound by Lemma 1 — the
   fidelity product composes multiplicatively across the interruption).
3. **Simulate** — run :class:`repro.core.simulator.DDSimulator` with the
   spec's time budget; periodically persist checkpoints.
4. **Persist** — on success write ``result.json`` + ``state.json`` +
   ``journal.jsonl`` and delete the checkpoint; on timeout persist the
   final checkpoint so the next attempt resumes instead of restarting.

:class:`JobEngine` deduplicates identical specs within a batch and fans
them out over the supervised worker pool
(:class:`~repro.service.supervisor.WorkerSupervisor`, the pool the serve
daemon runs on).  A job whose worker died or wedged is requeued alone,
after a jittered backoff; the other in-flight jobs keep running.  A
drain or Ctrl-C cancels in-flight jobs cooperatively, so they
checkpoint at the next gate and a rerun resumes them.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np

from ..core.simulator import (
    CancellationToken,
    DDSimulator,
    SimulationCancelled,
    SimulationTimeout,
)
from ..dd.package import Package
from ..dd.serialize import state_from_dict, state_to_dict
from ..faults.errors import (
    TRANSIENT,
    ArtifactIntegrityError,
    CheckpointIntegrityError,
    QuorumLost,
    StaleLeaseError,
    classify_exception,
)
from ..faults.injector import inject
from ..obs import get_recorder
from .checkpoint import (
    Checkpoint,
    CheckpointWriter,
    checkpoint_from_timeout,
    rounds_to_dicts,
)
from .jobs import JobSpec
from .replication import open_store
from .store import ArtifactStore

RESULT_FORMAT = "repro-job-result"
RESULT_VERSION = 1


@dataclass
class JobResult:
    """Outcome of one job submission.

    Attributes:
        spec: The submitted specification.
        job_hash: Its content hash (the artifact store key).
        status: ``"completed"``, ``"timeout"``, ``"deadline"`` (a
            request deadline cancelled the run mid-flight; a checkpoint
            holds the partial work and its fidelity spend),
            ``"drained"`` (a graceful shutdown stopped the job before
            or during execution), or ``"error"``.
        cached: True when served from the store without simulating.
        resumed_at: Operation index this execution resumed from (None
            when it started from scratch).
        stats: Table-I-style statistics document (see ``result.json``).
        counts: Sampled measurement outcomes (when ``spec.shots`` > 0 and
            a final state was available).
        error: Diagnostic message for ``status == "error"``.
        error_kind: ``"transient"`` or ``"permanent"``
            (:func:`repro.faults.errors.classify_exception`) for
            ``status == "error"``; the engine retries only transient
            failures.  Empty otherwise.
        attempts: Worker attempts consumed (retries included).
    """

    spec: JobSpec
    job_hash: str
    status: str
    cached: bool = False
    resumed_at: int | None = None
    stats: dict | None = None
    counts: dict[int, int] | None = None
    error: str = ""
    error_kind: str = ""
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """True when the job has a complete result."""
        return self.status == "completed"

    @property
    def fidelity_estimate(self) -> float | None:
        """End-to-end fidelity estimate, when statistics exist."""
        if self.stats is None:
            return None
        return self.stats.get("fidelity_estimate")

    @property
    def runtime_seconds(self) -> float | None:
        """Total simulate time (across resumed attempts), when known."""
        if self.stats is None:
            return None
        return self.stats.get("runtime_seconds")

    def summary(self) -> str:
        """One-line human-readable summary."""
        name = self.spec.display_name
        if self.status == "error":
            return f"{name}: ERROR {self.error}"
        if self.status in ("timeout", "deadline", "drained"):
            at = self.stats.get("next_op_index") if self.stats else None
            label = self.status.upper()
            if at is None:
                return f"{name}: {label} (not started; rerun to retry)"
            return (
                f"{name}: {label} at op {at} "
                f"(checkpointed; rerun to resume)"
            )
        stats = self.stats or {}
        origin = "cache" if self.cached else (
            f"resumed@{self.resumed_at}" if self.resumed_at else "fresh"
        )
        return (
            f"{name}: f_final={stats.get('fidelity_estimate', 1.0):.3f} "
            f"max_dd={stats.get('max_nodes', 0)} "
            f"rounds={stats.get('num_rounds', 0)} "
            f"time={stats.get('runtime_seconds', 0.0):.2f}s [{origin}]"
        )


def _stats_doc(stats, total_runtime: float, prior_max_nodes: int = 0) -> dict:
    """Convert :class:`SimulationStats` into the persisted stats shape."""
    return {
        "circuit_name": stats.circuit_name,
        "strategy": stats.strategy,
        "num_qubits": stats.num_qubits,
        "num_operations": stats.num_operations,
        "max_nodes": max(prior_max_nodes, stats.max_nodes),
        "final_nodes": stats.final_nodes,
        "num_rounds": stats.num_rounds,
        "rounds": rounds_to_dicts(stats.rounds),
        "runtime_seconds": total_runtime,
        "fidelity_estimate": stats.fidelity_estimate,
        # Observability only: excluded from the JobSpec content hash, so
        # cached artifacts stay shared across backends.
        "dd_backend": stats.dd_backend,
    }


def _journal_rows(
    stats, start_op_index: int, resumed: bool
) -> list[dict]:
    """Build the JSONL journal: per-op sizes plus round records."""
    rows: list[dict] = []
    if resumed:
        rows.append({"event": "resume", "at": start_op_index})
    trajectory = stats.trajectory or []
    for offset, nodes in enumerate(trajectory):
        rows.append(
            {"event": "op", "index": start_op_index + offset, "nodes": nodes}
        )
    for record in rounds_to_dicts(stats.rounds):
        rows.append({"event": "round", **record})
    rows.append(
        {
            "event": "completed",
            "runtime_seconds": stats.runtime_seconds,
            "fidelity_estimate": stats.fidelity_estimate,
            "max_nodes": stats.max_nodes,
            "final_nodes": stats.final_nodes,
        }
    )
    return rows


def _sample(state, shots: int, seed: int) -> dict[int, int]:
    return state.sample(shots, np.random.default_rng(seed))


def _error_result(
    spec: JobSpec, job_hash: str, error: BaseException, obs
) -> JobResult:
    """Build a classified ``status="error"`` result and record it."""
    kind = classify_exception(error)
    if obs.enabled:
        obs.count("jobs.error")
        obs.event(
            "job", phase="error", job=job_hash[:12],
            name=spec.display_name, error=type(error).__name__,
            error_kind=kind,
        )
    return JobResult(
        spec=spec,
        job_hash=job_hash,
        status="error",
        error=f"{type(error).__name__}: {error}",
        error_kind=kind,
    )


def _record_retry(spec: JobSpec, attempt: int, error: str) -> None:
    """Count and trace one retry of ``spec``."""
    obs = get_recorder()
    if obs.enabled:
        obs.count("jobs.retried")
        obs.event(
            "job", phase="retried", job=spec.content_hash()[:12],
            name=spec.display_name, attempt=attempt, error=error,
        )


def _quarantine_checkpoint(
    store: ArtifactStore, job_hash: str, reason: str, obs
) -> None:
    """Move a bad checkpoint aside and record the event."""
    store.quarantine_checkpoint(job_hash, reason)
    if obs.enabled:
        obs.count("jobs.checkpoint_quarantined")
        obs.event(
            "job", phase="checkpoint_quarantined", job=job_hash[:12],
            error=reason,
        )


def _validated_checkpoint(
    store: ArtifactStore, job_hash: str, document: dict, obs
) -> Checkpoint | None:
    """Parse and validate a checkpoint document, or quarantine it.

    Returns None (fresh start) when the document is malformed, fails
    its checksum, or is *stale* — recorded for a different job hash
    than the spec resolves to (e.g. a hand-edited spec reusing an old
    store key).  Resuming from a stale snapshot would splice another
    job's state into this one, so it is quarantined instead.
    """
    try:
        checkpoint = Checkpoint.from_dict(document)
    except (
        CheckpointIntegrityError,
        KeyError,
        TypeError,
        ValueError,
    ) as error:
        _quarantine_checkpoint(
            store, job_hash, f"{type(error).__name__}: {error}", obs
        )
        return None
    if checkpoint.job_hash != job_hash:
        _quarantine_checkpoint(
            store,
            job_hash,
            (
                "stale checkpoint: recorded for job "
                f"{checkpoint.job_hash[:12]} but the spec hashes to "
                f"{job_hash[:12]}"
            ),
            obs,
        )
        return None
    return checkpoint


def execute_job(
    spec: JobSpec,
    store: ArtifactStore,
    use_cache: bool = True,
    cancel: CancellationToken | None = None,
    fence: dict | None = None,
) -> JobResult:
    """Execute one job in the current process (the worker entry point).

    Follows the cache → resume → simulate → persist path described in the
    module docstring.  Never raises for simulation-level failures; they
    are reported as ``status="error"`` results tagged with the
    transient/permanent classification.  (Infrastructure-level failures
    — a killed process — surface in :class:`JobEngine`, which retries.)

    ``cancel`` propagates a request deadline or a drain signal into the
    simulator (see :class:`repro.core.simulator.CancellationToken`);
    a fired token yields ``status="deadline"`` or ``status="drained"``
    with a checkpoint persisted exactly as for a timeout, so the next
    attempt resumes with the Lemma-1 fidelity budget already spent.

    ``fence`` is the ownership-lease token (``{"owner", "epoch"}``) the
    serve tier hands its workers: every checkpoint write carries it, so
    the store layer rejects a fenced-out ex-owner's writes with
    :class:`~repro.faults.errors.StaleLeaseError` — classified
    permanent, because the job now belongs to another shard.

    Recovery behaviors:

    * A cached artifact that fails its integrity check is quarantined
      and the job is recomputed — corruption never surfaces as an error.
    * A corrupt, truncated, or *stale* checkpoint (its ``job_hash``
      disagrees with the spec's) is quarantined and the job restarts
      from scratch — sound, since a fresh run spends its own Lemma-1
      budget from 1.0.
    """
    job_hash = spec.content_hash()
    obs = get_recorder()
    try:
        # Worker-entry injection site ("engine.job"): kill/transient
        # rules here simulate a worker dying before any real work.
        inject("engine.job", job=job_hash, name=spec.display_name)
    except Exception as error:  # noqa: BLE001 - injected by plan
        return _error_result(spec, job_hash, error, obs)

    if use_cache and store.has_result(job_hash):
        try:
            document = store.load_result(job_hash)
            counts = None
            if spec.shots:
                try:
                    state = store.load_state(job_hash, Package())
                    counts = _sample(state, spec.shots, spec.seed)
                except KeyError:
                    counts = None
            if obs.enabled:
                obs.count("jobs.cached")
                obs.event(
                    "job", phase="cached", job=job_hash[:12],
                    name=spec.display_name,
                )
            return JobResult(
                spec=spec,
                job_hash=job_hash,
                status="completed",
                cached=True,
                stats=document.get("stats"),
                counts=counts,
            )
        except ArtifactIntegrityError as error:
            # Corrupt cache entry: move it aside and recompute.
            store.quarantine_result(job_hash, str(error))
            if obs.enabled:
                obs.count("jobs.cache_corrupt")
                obs.event(
                    "job", phase="cache_quarantined", job=job_hash[:12],
                    name=spec.display_name, error=str(error),
                )
        except OSError as error:
            # Unreadable cache entry (I/O trouble): recompute rather
            # than fail the job on a read path.
            if obs.enabled:
                obs.count("jobs.cache_unreadable")
                obs.event(
                    "job", phase="cache_unreadable", job=job_hash[:12],
                    name=spec.display_name, error=str(error),
                )

    try:
        checkpoint_doc = store.load_checkpoint(job_hash)
    except CheckpointIntegrityError as error:
        checkpoint_doc = None
        _quarantine_checkpoint(store, job_hash, str(error), obs)
    package = Package()
    try:
        circuit = spec.build_circuit()
        strategy = spec.build_strategy()

        start_op_index = 0
        prior_rounds = None
        prior_elapsed = 0.0
        prior_max_nodes = 0
        initial_state: "int | object" = 0
        if checkpoint_doc is not None:
            checkpoint = _validated_checkpoint(
                store, job_hash, checkpoint_doc, obs
            )
        else:
            checkpoint = None
        if checkpoint is not None:
            start_op_index = checkpoint.next_op_index
            prior_rounds = checkpoint.round_records()
            prior_elapsed = checkpoint.elapsed_seconds
            prior_max_nodes = checkpoint.max_nodes
            initial_state = state_from_dict(checkpoint.state, package)

        writer = None
        if spec.checkpoint_interval:
            writer = CheckpointWriter(
                store, job_hash, prior_elapsed, prior_max_nodes,
                fence=fence,
            )

        if obs.enabled:
            phase = "resumed" if checkpoint is not None else "started"
            obs.count(f"jobs.{phase}")
            obs.event(
                "job", phase=phase, job=job_hash[:12],
                name=spec.display_name, op_index=start_op_index,
            )
        simulator = DDSimulator(package)
        try:
            outcome = simulator.run(
                circuit,
                strategy,
                initial_state=initial_state,
                record_trajectory=True,
                max_seconds=spec.max_seconds,
                start_op_index=start_op_index,
                prior_rounds=prior_rounds,
                checkpoint_interval=spec.checkpoint_interval or None,
                checkpoint_callback=writer,
                cancel=cancel,
            )
        except SimulationTimeout as timeout:
            if isinstance(timeout, SimulationCancelled):
                status = (
                    "drained" if timeout.reason == "drain" else "deadline"
                )
            else:
                status = "timeout"
            rescue = checkpoint_from_timeout(
                job_hash, timeout, prior_elapsed, prior_max_nodes
            )
            if rescue is not None:
                store.save_checkpoint(
                    job_hash, rescue.to_dict(), fence=fence
                )
            partial = _stats_doc(
                timeout.stats,
                prior_elapsed + timeout.stats.runtime_seconds,
                prior_max_nodes,
            )
            partial["next_op_index"] = timeout.op_index
            if obs.enabled:
                obs.count(f"jobs.{status}")
                obs.event(
                    "job", phase=status, job=job_hash[:12],
                    name=spec.display_name, op_index=timeout.op_index,
                )
            return JobResult(
                spec=spec,
                job_hash=job_hash,
                status=status,
                resumed_at=start_op_index or None,
                stats=partial,
            )
    except Exception as error:  # noqa: BLE001 - reported, not swallowed
        return _error_result(spec, job_hash, error, obs)

    stats = outcome.stats
    total_runtime = prior_elapsed + stats.runtime_seconds
    stats_document = _stats_doc(stats, total_runtime, prior_max_nodes)
    result_document = {
        "format": RESULT_FORMAT,
        "version": RESULT_VERSION,
        "job_hash": job_hash,
        "spec": spec.to_dict(),
        "stats": stats_document,
        "resumed_at": start_op_index or None,
    }
    try:
        store.put_result(
            job_hash,
            result_document,
            state_doc=state_to_dict(outcome.state),
            journal_rows=_journal_rows(
                stats, start_op_index, resumed=start_op_index > 0
            ),
        )
        try:
            store.clear_checkpoint(job_hash, fence=fence)
        except StaleLeaseError:
            # Fenced out between the (unfenced, content-addressed,
            # idempotent) result put and the checkpoint clear: the new
            # owner resumes, hits the cache, and clears its own
            # checkpoint.  The result we just wrote is still correct.
            pass
    except (OSError, QuorumLost) as error:
        # The simulation finished but its artifacts could not be
        # persisted (store I/O failure or a lost write quorum — both
        # classified transient).  The checkpoint survives, so a retry
        # resumes instead of redoing the whole run.
        return _error_result(spec, job_hash, error, obs)
    if obs.enabled:
        obs.count("jobs.completed")
        obs.event(
            "job", phase="completed", job=job_hash[:12],
            name=spec.display_name,
            runtime_seconds=total_runtime,
            max_nodes=stats_document["max_nodes"],
        )

    counts = _sample(outcome.state, spec.shots, spec.seed) if spec.shots else None
    return JobResult(
        spec=spec,
        job_hash=job_hash,
        status="completed",
        resumed_at=start_op_index or None,
        stats=stats_document,
        counts=counts,
    )


class JobEngine:
    """Persistent job executor over an artifact store.

    Args:
        store: An :class:`ArtifactStore` or a store root path.
        workers: Worker processes
            (:class:`~repro.service.supervisor.WorkerSupervisor`);
            ``<= 1`` executes serially in-process (deterministic,
            debugger-friendly).
        max_retries: Extra attempts per job when its *worker* dies or
            its failure classifies as transient
            (:func:`repro.faults.errors.classify_exception` — I/O
            hiccups, memory pressure).  Permanent failures (malformed
            specs, exhausted fidelity budgets) are deterministic and
            never retried.
        retry_backoff: Base sleep before a retry.  Backoff uses
            *decorrelated jitter* (sleep drawn uniformly from
            ``[base, 3 * previous]``, capped at an exponential
            envelope) so jobs that failed together do not retry
            against the artifact store in lockstep.
        use_cache: Serve stored results without re-simulating.
        jitter_seed: Seed for the jitter RNG — chaos tests pin it so
            retry schedules are reproducible across runs.
    """

    def __init__(
        self,
        store: "ArtifactStore | str",
        workers: int = 1,
        max_retries: int = 2,
        retry_backoff: float = 0.25,
        use_cache: bool = True,
        jitter_seed: int | None = None,
    ):
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.store = (
            store if isinstance(store, ArtifactStore) else open_store(store)
        )
        self.workers = workers
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.use_cache = use_cache
        self._jitter_rng = random.Random(jitter_seed)
        self._prev_backoff = retry_backoff
        self._drain = threading.Event()

    # ------------------------------------------------------------------
    # Drain support (SIGTERM/SIGINT graceful shutdown).

    def request_drain(self) -> None:
        """Ask the engine to stop admitting work and wind down.

        Safe to call from a signal handler or another thread.  Jobs not
        yet started come back as ``status="drained"``; in-flight jobs
        (serial or on workers) see the drain through their cancellation
        token and checkpoint at the next gate boundary.
        """
        self._drain.set()

    @property
    def draining(self) -> bool:
        """True once a drain has been requested."""
        return self._drain.is_set()

    # ------------------------------------------------------------------
    # Retry backoff with decorrelated jitter.

    def _backoff_seconds(self, attempts: int) -> float:
        """Sleep before retry ``attempts`` (1-based count of tries so
        far).  Decorrelated jitter (uniform over ``[base, 3 * prev]``)
        bounded by the deterministic exponential envelope, so worst-case
        growth matches the un-jittered schedule."""
        cap = self.retry_backoff * (2 ** (attempts - 1))
        upper = max(self.retry_backoff, self._prev_backoff * 3.0)
        sleep = self._jitter_rng.uniform(self.retry_backoff, upper)
        sleep = min(sleep, cap * 2.0)
        self._prev_backoff = sleep
        return sleep

    def run(self, spec: JobSpec) -> JobResult:
        """Execute one job in-process (cache-first).

        Transient failures are retried with exponential backoff up to
        ``max_retries`` extra attempts; a checkpoint left by a failed
        attempt makes the retry resume rather than restart.
        """
        attempts = 0
        cancel = CancellationToken(event=self._drain)
        while True:
            if self.draining:
                return JobResult(
                    spec=spec,
                    job_hash=spec.content_hash(),
                    status="drained",
                    attempts=attempts,
                )
            attempts += 1
            result = execute_job(
                spec, self.store, use_cache=self.use_cache, cancel=cancel
            )
            result.attempts = attempts
            if not self._should_retry(result, attempts):
                return result
            _record_retry(spec, attempts, result.error)
            time.sleep(self._backoff_seconds(attempts))

    def _should_retry(self, result: JobResult, attempts: int) -> bool:
        """Retry only failures a retry can fix, within the budget."""
        return (
            result.status == "error"
            and result.error_kind == TRANSIENT
            and attempts <= self.max_retries
        )

    def run_batch(
        self,
        specs: Sequence[JobSpec],
        progress: Callable[[JobResult], None] | None = None,
    ) -> list[JobResult]:
        """Execute a batch, preserving input order in the returned list.

        Identical specs (equal content hash, shots, and seed) are
        deduplicated: one execution serves every duplicate.  ``progress``
        is invoked once per *finished* unique job, in completion order.
        """
        if not specs:
            return []
        # Deduplicate within the batch so concurrent workers never race
        # to compute the same artifact.
        key_to_position: dict[tuple, int] = {}
        positions: list[int] = []
        unique_specs: list[JobSpec] = []
        for spec in specs:
            key = (spec.content_hash(), spec.shots, spec.seed)
            if key not in key_to_position:
                key_to_position[key] = len(unique_specs)
                unique_specs.append(spec)
            positions.append(key_to_position[key])
        obs = get_recorder()
        if obs.enabled:
            obs.count("jobs.queued", len(unique_specs))
            for spec in unique_specs:
                obs.event(
                    "job", phase="queued", job=spec.content_hash()[:12],
                    name=spec.display_name,
                )

        if self.workers <= 1 or len(unique_specs) == 1:
            unique_results = []
            for spec in unique_specs:
                result = self.run(spec)
                if progress is not None:
                    progress(result)
                unique_results.append(result)
        else:
            unique_results = self._run_pool(unique_specs, progress)
        return [unique_results[position] for position in positions]

    # ------------------------------------------------------------------

    def _run_pool(
        self,
        specs: Sequence[JobSpec],
        progress: Callable[[JobResult], None] | None,
    ) -> list[JobResult]:
        """Run jobs on supervised worker processes, retrying each alone."""
        # Imported here: supervisor.py imports this module at load time.
        from .supervisor import WorkerSupervisor

        results: list[JobResult | None] = [None] * len(specs)
        attempts = [0] * len(specs)
        # Index of each job waiting for a worker -> earliest dispatch.
        queued = dict.fromkeys(range(len(specs)), 0.0)
        supervisor = WorkerSupervisor(
            self.store.root,
            workers=min(self.workers, len(specs)),
            use_cache=self.use_cache,
        )

        def finish(index: int, result: JobResult) -> None:
            result.attempts = attempts[index]
            results[index] = result
            if progress is not None:
                progress(result)

        def not_run(index: int, status: str, error: str = "") -> JobResult:
            spec = specs[index]
            return JobResult(
                spec=spec,
                job_hash=spec.content_hash(),
                status=status,
                error=error,
            )

        try:
            supervisor.start()
            while any(result is None for result in results):
                if self.draining:
                    for index in list(queued):
                        del queued[index]
                        finish(index, not_run(index, "drained"))
                    # Every pass: a worker clears its cancel event when
                    # it takes a task, so a single call could be lost.
                    supervisor.cancel_all()
                now = time.monotonic()
                for index, ready_at in list(queued.items()):
                    if ready_at <= now and supervisor.submit(
                        str(index), specs[index], None
                    ):
                        del queued[index]
                        attempts[index] += 1
                for event in supervisor.poll(timeout=0.1) + supervisor.check():
                    if event.kind == "started" or event.job_id is None:
                        continue
                    index = int(event.job_id)
                    if results[index] is not None or index in queued:
                        continue  # stale message from a replaced worker
                    result = event.result
                    if result is None:  # the worker failed, died or wedged
                        error = event.error or f"worker {event.kind}"
                        if attempts[index] > self.max_retries:
                            finish(index, not_run(index, "error", (
                                f"worker failed after {attempts[index]} "
                                f"attempts: {error}"
                            )))
                            continue
                        # Requeue only this job; a checkpoint makes the
                        # retry resume.
                        delay = self._backoff_seconds(attempts[index])
                    elif (
                        self._should_retry(result, attempts[index])
                        and not self.draining
                    ):
                        # Transient in-worker failure (I/O hiccup,
                        # memory pressure): the worker is healthy, so
                        # resubmit at once.
                        error, delay = result.error, 0.0
                    else:
                        finish(index, result)
                        continue
                    _record_retry(specs[index], attempts[index], error)
                    queued[index] = time.monotonic() + delay
        except (KeyboardInterrupt, SystemExit):
            # In-flight jobs checkpoint while stop() waits for them.
            supervisor.cancel_all()
            raise
        finally:
            supervisor.stop()
        return results
