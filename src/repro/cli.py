"""Command-line interface: ``repro-sim``.

Subcommands:

* ``run`` — simulate a QASM file (or a built-in workload) under an
  approximation strategy and print the Table-I-style statistics;
  ``--metrics out.json`` additionally writes the full instrumentation
  report (cache hit rates, per-gate timings, node trajectory, per-round
  fidelity spent — see docs/OBSERVABILITY.md).
* ``analyze`` — simulate, then report entropy, dominant outcomes, and
  exact marginals of the final state.
* ``trace`` — record a JSONL trace of an instrumented run
  (``trace record``) or summarize an existing trace file
  (``trace summary``).
* ``lint`` — run the domain-aware ddlint rules (DD001–DD005) over the
  source tree and enforce the ``analysis/baseline.json`` ratchet:
  grandfathered findings pass, new findings fail, fixed findings
  require re-committing a smaller baseline (``--write-baseline``).
* ``shor`` — factor a number end to end (full circuit, or
  ``--semiclassical`` for the single-control-qubit formulation).
* ``equiv`` — DD-based unitary equivalence check of two circuits.
* ``optimize`` — peephole-optimize a circuit, optionally writing QASM.
* ``table1`` — regenerate the paper's Table I on the scaled workload
  suites (runs through the job engine: cached and resumable).
* ``batch`` — execute a JSON batch of job specs through the persistent
  job engine (content-addressed caching, checkpoint/resume).  SIGTERM
  or a first Ctrl-C triggers a graceful drain (exit 5): in-flight jobs
  finish or checkpoint, queued jobs are skipped as ``drained``.
* ``jobs`` — inspect and garbage-collect the artifact store
  (``ls`` / ``show`` / ``gc``, including the quarantine area).
* ``faults`` — fault-injection tooling (``sites`` lists injection
  sites and kinds, ``check`` validates a plan file — see
  docs/FAULTS.md).
* ``serve`` — run the persistent simulation daemon (supervised worker
  pool, bounded admission queue, per-request deadlines, fidelity-tier
  load shedding — see docs/SERVE.md); drains gracefully on SIGTERM.
* ``submit`` / ``status`` / ``drain`` — client commands against a
  running daemon (exit 6 when the daemon sheds the submission).

Examples::

    repro-sim run circuit.qasm --strategy memory --threshold 4096
    repro-sim run builtin:shor_15_2 --metrics out.json
    repro-sim run builtin:grover_7 --ddsan
    repro-sim lint && repro-sim lint --list-rules
    repro-sim trace record builtin:qsup_2x2_8_0 -o trace.jsonl
    repro-sim trace summary trace.jsonl
    repro-sim analyze builtin:qsup_3x3_12_0 --marginal 0,1,2
    repro-sim shor 1157 --base 8 --semiclassical
    repro-sim equiv before.qasm after.qasm
    repro-sim table1 --suite shor --timeout 60
    repro-sim batch jobs.json --workers 4 --store ~/.cache/repro-sim
    repro-sim jobs ls && repro-sim jobs show 3f2a && repro-sim jobs gc
    repro-sim faults sites && repro-sim faults check plan.json
    repro-sim run builtin:shor_15_2 --fault-plan plan.json \
        --node-ceiling 5000 --fidelity-floor 0.25
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .bench import (
    DEFAULT_SHOR_SUITE,
    DEFAULT_SUPREMACY_SUITE,
    format_table,
    paper_comparison,
)
from .bench.runner import ComparisonResult, RunRecord
from .circuits.qasm import parse_qasm
from .circuits.shor import shor_circuit, shor_layout
from .core import (
    FidelityDrivenStrategy,
    SimulationTimeout,
    simulate,
)
from .dd.backends import BACKEND_NAMES
from .dd.package import set_default_backend
from .obs import (
    Recorder,
    metrics_report,
    read_trace,
    recording,
    summarize_trace,
    write_trace,
)
from .postprocessing import postprocess_counts, shift_counts
from .service import (
    JobEngine,
    JobSpec,
    ReplicatedStore,
    build_builtin_circuit,
    build_strategy,
    load_job_specs,
    open_store,
)

#: Default artifact-store location for engine-backed subcommands.
DEFAULT_STORE = os.environ.get("REPRO_SIM_STORE", "~/.cache/repro-sim")

#: Exit codes beyond the usual 0/1/2 (see docs/SERVE.md § Exit codes):
#: 3 = DDSan sanitizer violation, 4 = memory budget exceeded,
#: 5 = graceful drain completed (SIGTERM/SIGINT or a drain request),
#: 6 = the daemon refused the submission (shed / breaker / draining).
EXIT_DRAINED = 5
EXIT_SHED = 6


def _default_socket(store: str) -> str:
    """Store-scoped default Unix socket path for serve/submit/etc."""
    root = os.path.abspath(os.path.expanduser(store))
    return os.path.join(root, "serve", "serve.sock")


def _package_version() -> str:
    """Resolve the installed package version, falling back to source."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from . import __version__

        return __version__


def _strategy_from_options(args: argparse.Namespace):
    """The strategy named by ``--strategy`` and its option flags."""
    options: dict = {}
    if args.strategy == "memory":
        options = {
            "threshold": args.threshold,
            "round_fidelity": args.round_fidelity,
        }
    elif args.strategy == "fidelity":
        options = {
            "final_fidelity": args.final_fidelity,
            "round_fidelity": args.round_fidelity,
            "placement": args.placement,
        }
    return build_strategy(args.strategy, options)


def _load_circuit(source: str):
    if source.startswith("builtin:"):
        try:
            return build_builtin_circuit(source[len("builtin:"):])
        except ValueError as error:
            raise SystemExit(str(error)) from error
    try:
        with open(source, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise SystemExit(
            f"cannot read circuit {source!r}: {error}"
        ) from error
    return parse_qasm(text, name=source)


def _instrumented_simulate(
    circuit, strategy, max_seconds=None, ddsan=None, watchdog=None
):
    """Simulate under a fresh recorder + metrics-counting package.

    Returns ``(outcome, recorder, package)``; used by ``run --metrics``
    and ``trace record``.
    """
    from .dd.package import Package

    package = Package()
    recorder = Recorder(enabled=True)
    package.attach_recorder(recorder)
    with recording(recorder):
        outcome = simulate(
            circuit,
            strategy,
            package=package,
            record_trajectory=True,
            max_seconds=max_seconds,
            recorder=recorder,
            ddsan=ddsan,
            watchdog=watchdog,
        )
    return outcome, recorder, package


def _arm_fault_plan(path: str | None) -> int:
    """Arm ``--fault-plan`` when given; returns an exit code (0 = ok)."""
    if not path:
        return 0
    from .faults import arm_from_path

    try:
        arm_from_path(path)
    except (OSError, ValueError) as error:
        print(f"error: cannot load fault plan: {error}", file=sys.stderr)
        return 2
    return 0


def _select_backend(args: argparse.Namespace) -> None:
    """Apply a ``--backend`` choice as the process-wide override.

    The flag outranks the ``REPRO_DD_BACKEND`` environment variable;
    when absent the environment (or the arena default) governs.
    Forked workers inherit the override, so one flag at the entry point
    covers batch/serve worker pools too.
    """
    backend = getattr(args, "backend", None)
    if backend:
        set_default_backend(backend)


def _build_watchdog(args: argparse.Namespace):
    """Build a :class:`MemoryWatchdog` from CLI knobs (None = default)."""
    from .core.simulator import MemoryWatchdog

    if (
        args.node_ceiling is None
        and args.rss_ceiling_mb is None
        and args.emergency_fidelity is None
        and args.fidelity_floor is None
    ):
        return None
    defaults = MemoryWatchdog()
    return MemoryWatchdog(
        node_ceiling=args.node_ceiling,
        rss_mb_ceiling=args.rss_ceiling_mb,
        emergency_fidelity=(
            args.emergency_fidelity
            if args.emergency_fidelity is not None
            else defaults.emergency_fidelity
        ),
        fidelity_floor=(
            args.fidelity_floor
            if args.fidelity_floor is not None
            else defaults.fidelity_floor
        ),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from .analysis import SanitizerError
    from .faults import MemoryBudgetExceeded

    _select_backend(args)
    exit_code = _arm_fault_plan(args.fault_plan)
    if exit_code:
        return exit_code
    circuit = _load_circuit(args.circuit)
    strategy = _strategy_from_options(args)
    ddsan = True if args.ddsan else None  # None defers to REPRO_DDSAN
    try:
        watchdog = _build_watchdog(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        if args.metrics:
            outcome, recorder, package = _instrumented_simulate(
                circuit,
                strategy,
                max_seconds=args.timeout or None,
                ddsan=ddsan,
                watchdog=watchdog,
            )
        else:
            outcome = simulate(
                circuit,
                strategy,
                max_seconds=args.timeout or None,
                ddsan=ddsan,
                watchdog=watchdog,
            )
    except SanitizerError as violation:
        print(f"DDSAN VIOLATION: {violation}", file=sys.stderr)
        for problem in violation.problems:
            print(f"  {problem}", file=sys.stderr)
        return 3
    except MemoryBudgetExceeded as exceeded:
        print(f"MEMORY BUDGET EXCEEDED: {exceeded}", file=sys.stderr)
        return 4
    except SimulationTimeout as timeout:
        print(f"TIMEOUT after {timeout.stats.runtime_seconds:.2f}s")
        print(timeout.stats.summary())
        return 1
    if args.metrics:
        report = metrics_report(outcome.stats, recorder, package)
        with open(args.metrics, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote metrics report to {args.metrics}")
    print(outcome.stats.summary())
    for record in outcome.stats.rounds:
        marker = " [emergency]" if record.emergency else ""
        print(
            f"  round @op {record.op_index}: "
            f"{record.nodes_before} -> {record.nodes_after} nodes, "
            f"fidelity {record.achieved_fidelity:.4f}{marker}"
        )
    if args.shots:
        counts = outcome.state.sample(
            args.shots, np.random.default_rng(args.seed)
        )
        top = sorted(counts.items(), key=lambda item: -item[1])[:10]
        print("top outcomes:")
        for index, frequency in top:
            bits = format(index, f"0{circuit.num_qubits}b")
            print(f"  |{bits}>: {frequency}")
    return 0


def _cmd_shor(args: argparse.Namespace) -> int:
    if args.semiclassical:
        from .core.semiclassical import semiclassical_shor_factor

        result, runs = semiclassical_shor_factor(
            args.modulus,
            args.base,
            attempts=25,
            rng=np.random.default_rng(args.seed),
        )
        for index, run in enumerate(runs):
            print(
                f"run {index}: y = {run.measured_value}, "
                f"max DD {run.max_nodes} nodes, "
                f"{run.runtime_seconds:.2f}s"
            )
        if result.succeeded:
            p, q = result.factors
            print(f"factors: {args.modulus} = {p} * {q}")
            return 0
        print("factoring failed — try a different base or more attempts")
        return 1

    layout = shor_layout(args.modulus, args.base)
    circuit = shor_circuit(args.modulus, args.base)
    strategy = FidelityDrivenStrategy(
        final_fidelity=args.final_fidelity,
        round_fidelity=args.round_fidelity,
        placement="block:inverse_qft",
    )
    print(
        f"factoring {args.modulus} with base {args.base} "
        f"({circuit.num_qubits} qubits, {len(circuit)} operations)"
    )
    outcome = simulate(circuit, strategy)
    print(outcome.stats.summary())
    counts = shift_counts(
        outcome.state.sample(args.shots, np.random.default_rng(args.seed)),
        layout.work_bits,
    )
    result = postprocess_counts(
        counts, layout.counting_bits, args.modulus, args.base
    )
    if result.succeeded:
        p, q = result.factors
        print(f"factors: {args.modulus} = {p} * {q} (period {result.period})")
        return 0
    print("factoring failed — try more shots or a different base")
    return 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .dd.analysis import (
        dominant_outcomes,
        marginal_probabilities,
        outcome_entropy,
    )
    from .dd.stats import state_stats

    circuit = _load_circuit(args.circuit)
    strategy = _strategy_from_options(args)
    outcome = simulate(circuit, strategy)
    state = outcome.state
    print(outcome.stats.summary())

    stats = state_stats(state)
    print(f"diagram: {stats.node_count} nodes, per level "
          f"{stats.nodes_per_level}, sharing {stats.sharing_factor:.1f}x")
    print(f"outcome entropy: {outcome_entropy(state):.4f} bits "
          f"(max {circuit.num_qubits})")

    peaks = dominant_outcomes(state, threshold=args.threshold_probability)
    if peaks:
        print(f"outcomes with probability >= {args.threshold_probability}:")
        for index, probability in peaks:
            bits = format(index, f"0{circuit.num_qubits}b")
            print(f"  |{bits}>: {probability:.4f}")
    else:
        print(f"no outcome reaches probability "
              f"{args.threshold_probability}")

    if args.marginal:
        qubits = [int(token) for token in args.marginal.split(",")]
        marginal = marginal_probabilities(state, qubits)
        print(f"marginal over qubits {qubits}:")
        for key in sorted(marginal):
            bits = format(key, f"0{len(qubits)}b")
            print(f"  |{bits}>: {marginal[key]:.4f}")
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    from .verify import circuits_equivalent

    first = _load_circuit(args.first)
    second = _load_circuit(args.second)
    if first.num_qubits != second.num_qubits:
        print(
            f"NOT EQUIVALENT (width {first.num_qubits} vs "
            f"{second.num_qubits})"
        )
        return 1
    result = circuits_equivalent(
        first,
        second,
        up_to_global_phase=not args.strict_phase,
    )
    if result.equivalent:
        phase = result.global_phase
        note = (
            ""
            if phase is None or abs(phase - 1.0) < 1e-9
            else f" (global phase {phase:.6g})"
        )
        print(f"EQUIVALENT{note}")
        return 0
    print(f"NOT EQUIVALENT (miter has {result.miter_nodes} nodes)")
    return 1


def _cmd_optimize(args: argparse.Namespace) -> int:
    from .circuits.optimize import optimize_circuit
    from .circuits.qasm import emit_qasm

    circuit = _load_circuit(args.circuit)
    optimized = optimize_circuit(circuit)
    print(
        f"{circuit.name}: {len(circuit)} -> {len(optimized)} operations "
        f"({len(circuit) - len(optimized)} removed)"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(emit_qasm(optimized))
        print(f"wrote {args.output}")
    return 0


def _record_from_result(result, round_fidelity=None) -> RunRecord:
    """Map an engine :class:`JobResult` onto a bench :class:`RunRecord`."""
    stats = result.stats or {}
    incomplete = result.status != "completed"
    return RunRecord(
        workload=stats.get("circuit_name", result.spec.display_name),
        strategy=stats.get("strategy", result.spec.strategy),
        qubits=int(stats.get("num_qubits", 0)),
        max_dd_size=int(stats.get("max_nodes", 0)),
        rounds=int(stats.get("num_rounds", 0)),
        round_fidelity=round_fidelity,
        runtime_seconds=(
            None if incomplete else stats.get("runtime_seconds")
        ),
        final_fidelity=float(stats.get("fidelity_estimate", 1.0)),
        timed_out=incomplete,
    )


def _cmd_table1(args: argparse.Namespace) -> int:
    """Regenerate Table I through the job engine.

    Every (workload, strategy) pair becomes a content-addressed job, so
    re-running the command serves completed rows from the artifact store
    and *resumes* rows whose previous attempt timed out mid-circuit.
    """
    timeout = args.timeout or None
    engine = JobEngine(args.store, workers=args.workers)
    interval = args.checkpoint_interval

    def job(workload, strategy="exact", strategy_args=()) -> JobSpec:
        return JobSpec(
            circuit=f"builtin:{workload.name}",
            strategy=strategy,
            strategy_args=strategy_args,
            max_seconds=timeout,
            checkpoint_interval=interval,
        )

    suites = []  # (title, round_fidelity, workloads, specs)
    if args.suite in ("shor", "all"):
        specs = []
        for workload in DEFAULT_SHOR_SUITE:
            specs.append(job(workload))
            specs.append(
                job(
                    workload,
                    "fidelity",
                    (
                        ("final_fidelity", 0.5),
                        ("round_fidelity", 0.9),
                        ("placement", "block:inverse_qft"),
                    ),
                )
            )
        suites.append(
            (
                "Table I (fidelity-driven, target 50%)",
                0.9,
                DEFAULT_SHOR_SUITE,
                specs,
            )
        )
    if args.suite in ("supremacy", "all"):
        specs = []
        for workload in DEFAULT_SUPREMACY_SUITE:
            specs.append(job(workload))
            specs.append(
                job(
                    workload,
                    "memory",
                    (
                        ("threshold", args.threshold),
                        ("round_fidelity", 0.975),
                    ),
                )
            )
        suites.append(
            ("Table I (memory-driven)", 0.975, DEFAULT_SUPREMACY_SUITE, specs)
        )

    failures = 0
    produced = False
    for title, round_fidelity, workloads, specs in suites:
        results = engine.run_batch(specs)
        comparisons = []
        for index, workload in enumerate(workloads):
            exact_result = results[2 * index]
            approx_result = results[2 * index + 1]
            for result in (exact_result, approx_result):
                if result.status == "error":
                    failures += 1
                    print(
                        f"error: {result.spec.display_name}: {result.error}",
                        file=sys.stderr,
                    )
            comparisons.append(
                ComparisonResult(
                    workload=workload,
                    exact=_record_from_result(exact_result),
                    approximate=[
                        _record_from_result(approx_result, round_fidelity)
                    ],
                )
            )
        print(format_table(comparisons, title))
        print()
        print(paper_comparison(comparisons))
        print()
        produced = True
    return 0 if produced and not failures else 1


def _print_counts(counts, num_qubits: int, limit: int = 10) -> None:
    top = sorted(counts.items(), key=lambda item: -item[1])[:limit]
    print("top outcomes:")
    for index, frequency in top:
        bits = format(index, f"0{num_qubits}b")
        print(f"  |{bits}>: {frequency}")


def _install_drain_signals(request_drain) -> "dict | None":
    """Route SIGTERM/SIGINT to a graceful drain (first signal) or a
    hard cancel (second signal).  Returns the previous handlers for
    restoration, or None when not in the main thread (tests)."""
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return None
    state = {"signals": 0}

    def _on_signal(signum, frame) -> None:
        state["signals"] += 1
        if state["signals"] == 1:
            # os.write is async-signal-safe; print() re-enters the
            # buffered stderr stream and can raise RuntimeError (or
            # deadlock) if the signal lands mid-write (DD010).
            os.write(
                2,
                b"drain requested: in-flight jobs finish or checkpoint, "
                b"queued jobs are skipped (signal again to abort hard)\n",
            )
            request_drain()
        else:
            raise KeyboardInterrupt

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _on_signal)
    return previous


def _restore_signals(previous: "dict | None") -> None:
    if previous is None:
        return
    import signal

    for signum, handler in previous.items():
        signal.signal(signum, handler)


def _cmd_batch(args: argparse.Namespace) -> int:
    _select_backend(args)
    exit_code = _arm_fault_plan(args.fault_plan)
    if exit_code:
        return exit_code
    try:
        specs = load_job_specs(args.jobs_file)
    except (OSError, ValueError) as error:
        print(f"error: cannot load batch: {error}", file=sys.stderr)
        return 2
    if not specs:
        print("error: batch file contains no jobs", file=sys.stderr)
        return 2
    engine = JobEngine(
        args.store, workers=args.workers, use_cache=not args.no_cache
    )
    previous = _install_drain_signals(engine.request_drain)
    try:
        results = engine.run_batch(
            specs, progress=lambda result: print(result.summary(), flush=True)
        )
    except KeyboardInterrupt:
        print("cancelled; completed jobs are cached, partial jobs "
              "checkpointed — rerun to resume", file=sys.stderr)
        return 130
    finally:
        _restore_signals(previous)
    statuses = [result.status for result in results]
    cached = sum(result.cached for result in results)
    drained = statuses.count("drained")
    print(
        f"batch: {statuses.count('completed')}/{len(results)} completed "
        f"({cached} from cache, {statuses.count('timeout')} timed out, "
        f"{drained} drained, {statuses.count('error')} errors)"
    )
    for result in results:
        print(f"  {result.job_hash[:12]}  {result.spec.display_name:24s} "
              f"{result.status}{' (cached)' if result.cached else ''}")
        if result.counts and result.stats:
            _print_counts(result.counts, int(result.stats["num_qubits"]))
    if engine.draining or drained:
        print(
            "drained; completed jobs are cached, interrupted jobs "
            "checkpointed — rerun to resume",
            file=sys.stderr,
        )
        return EXIT_DRAINED
    return 0 if all(status == "completed" for status in statuses) else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    store = open_store(args.store)
    if args.jobs_command == "ls":
        rows = list(store.iter_results())
        checkpointed = set(store.iter_checkpoints())
        if not rows and not checkpointed:
            print("store is empty")
            return 0
        for job_hash, document in rows:
            stats = document.get("stats", {})
            print(
                f"{job_hash[:12]}  {stats.get('circuit_name', '?'):24s} "
                f"{stats.get('strategy', '?'):40s} "
                f"f={stats.get('fidelity_estimate', 1.0):.3f} "
                f"t={stats.get('runtime_seconds', 0.0):.2f}s"
            )
        for job_hash in sorted(checkpointed - {h for h, _ in rows}):
            print(f"{job_hash[:12]}  <checkpoint only — resumable>")
        ownership = store.read_ownership_log()
        if ownership:
            # Group the cluster router's ownership events by job and
            # surface the shard chain — jobs that survived a failover
            # or a stealing move show every hop.
            chains: dict = {}
            for event in ownership:
                key = str(
                    event.get("cluster_job") or event.get("job_hash", "")
                )
                chains.setdefault(key, []).append(event)
            moved = {
                key: events
                for key, events in chains.items()
                if any(e.get("event") != "assigned" for e in events)
            }
            print(
                f"cluster: {len(chains)} routed job(s), "
                f"{len(moved)} moved by failover/stealing"
            )
            for key in sorted(moved):
                events = moved[key]
                hops = " -> ".join(
                    f"{e.get('shard', '?')}"
                    f"[{e.get('event', '?')}]"
                    for e in events
                )
                job_hash = str(events[0].get("job_hash", ""))[:12]
                print(f"  {key}  {job_hash}  {hops}")
        quarantined = store.quarantine_report()
        if quarantined:
            print(
                f"quarantine: {len(quarantined)} item(s) — inspect under "
                f"{store.quarantine_root()}, purge with "
                f"'jobs gc --quarantine'"
            )
            for entry in quarantined:
                # Half-written entries (crash mid-quarantine) are
                # reported, never allowed to crash the listing.
                detail = entry["reason"] or f"<{entry['error']}>"
                print(f"  {entry['name']}: {detail}")
        return 0
    if args.jobs_command == "show":
        from .faults import ArtifactIntegrityError

        try:
            job_hash = store.resolve_prefix(args.job_hash)
            document = store.load_result(job_hash)
            journal = store.read_journal(job_hash)
        except (KeyError, ArtifactIntegrityError) as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 1
        stats = document.get("stats", {})
        spec = document.get("spec", {})
        print(f"job      {job_hash}")
        print(f"circuit  {stats.get('circuit_name', '?')} "
              f"({stats.get('num_qubits', '?')} qubits, "
              f"{stats.get('num_operations', '?')} ops)")
        print(f"strategy {stats.get('strategy', spec.get('strategy', '?'))}")
        print(f"max DD   {stats.get('max_nodes', 0)} nodes "
              f"(final {stats.get('final_nodes', 0)})")
        print(f"rounds   {stats.get('num_rounds', 0)}")
        for record in stats.get("rounds", []):
            print(f"  @op {record['op_index']}: {record['nodes_before']} -> "
                  f"{record['nodes_after']} nodes, "
                  f"fidelity {record['achieved_fidelity']:.4f}")
        print(f"f_final  {stats.get('fidelity_estimate', 1.0):.4f}")
        print(f"runtime  {stats.get('runtime_seconds', 0.0):.2f}s")
        if document.get("resumed_at"):
            print(f"resumed  from op {document['resumed_at']}")
        if journal:
            ops = sum(1 for row in journal if row.get("event") == "op")
            print(f"journal  {len(journal)} rows ({ops} op records)")
        return 0
    if args.jobs_command == "gc":
        older = (
            args.older_than_days * 86400.0
            if args.older_than_days is not None
            else None
        )
        staging = (
            args.staging_older_than_hours * 3600.0
            if args.staging_older_than_hours is not None
            and args.staging_older_than_hours > 0
            else None  # 0 or negative disables staging reaping
        )
        removed = store.gc(
            older_than_seconds=older,
            remove_results=args.results,
            remove_quarantine=args.quarantine,
            staging_older_than_seconds=staging,
        )
        print(
            f"removed {removed['checkpoints']} stale checkpoint(s), "
            f"{removed['results']} result(s), "
            f"{removed['quarantined']} quarantined item(s), "
            f"{removed['staging']} abandoned staging dir(s)"
        )
        return 0
    print(f"error: unknown jobs command {args.jobs_command!r}",
          file=sys.stderr)
    return 2


def _cmd_faults(args: argparse.Namespace) -> int:
    from .faults import KINDS, SITES, FaultPlan

    if args.faults_command == "sites":
        print("injection sites:")
        for name in sorted(SITES):
            print(f"  {name:22s} {SITES[name]}")
        print("fault kinds:")
        for name in sorted(KINDS):
            print(f"  {name:22s} {KINDS[name]}")
        return 0
    if args.faults_command == "check":
        try:
            plan = FaultPlan.load(args.plan_file)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(
            f"ok: {len(plan.rules)} rule(s), seed={plan.seed}, "
            f"state_dir={plan.state_dir or '<per-process counters>'}"
        )
        for index, rule in enumerate(plan.rules):
            window = (
                "always"
                if rule.max_hits is None
                else f"visits {rule.after_hits + 1}.."
                f"{rule.after_hits + rule.max_hits}"
            )
            at = f" at op {rule.at_op}" if rule.at_op is not None else ""
            print(
                f"  [{index}] {rule.kind} @ {rule.site}{at} "
                f"({window}, p={rule.probability})"
            )
        return 0
    print(f"error: unknown faults command {args.faults_command!r}",
          file=sys.stderr)
    return 2


def _parse_ladder(text: str):
    """Parse ``--ladder "0.5:0.99,0.8:0.9"`` into a FidelityLadder."""
    from .serve import FidelityLadder

    if not text:
        return FidelityLadder()
    tiers = []
    for part in text.split(","):
        threshold_text, _, cap_text = part.partition(":")
        tiers.append((float(threshold_text), float(cap_text)))
    return FidelityLadder(tiers=tuple(tiers))


def _serve_client(args: argparse.Namespace):
    """Build a ServeClient from the shared endpoint options."""
    from .serve import ServeClient

    if args.port:
        return ServeClient(host=args.host, port=args.port)
    socket_path = args.socket or _default_socket(args.store)
    return ServeClient(socket_path=socket_path)


def _parse_quotas(pairs: "list[str] | None") -> dict:
    """Parse repeated ``--quota TENANT=N`` options."""
    quotas: dict = {}
    for pair in pairs or []:
        tenant, separator, value = pair.partition("=")
        if not separator:
            raise ValueError(f"--quota needs TENANT=N, got {pair!r}")
        quotas[tenant] = int(value)
    return quotas


def _parse_rate_limits(pairs: "list[str] | None") -> dict:
    """Parse repeated ``--rate-limit TENANT=RATE[:BURST]`` options."""
    limits: dict = {}
    for pair in pairs or []:
        tenant, separator, value = pair.partition("=")
        if not separator:
            raise ValueError(
                f"--rate-limit needs TENANT=RATE[:BURST], got {pair!r}"
            )
        rate_text, _, burst_text = value.partition(":")
        rate = float(rate_text)
        burst = float(burst_text) if burst_text else max(1.0, 2.0 * rate)
        limits[tenant] = (rate, burst)
    return limits


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    """``serve --cluster N``: shard daemons + router front door."""
    from .serve import ServeCluster

    try:
        quotas = _parse_quotas(args.quota)
        rate_limits = _parse_rate_limits(args.rate_limit)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    store = open_store(args.store)
    # The router takes the endpoint the CLI was given; shard sockets
    # live in their own short-path directory.
    shard_args: list[str] = []
    if args.fault_plan:
        shard_args += ["--fault-plan", args.fault_plan]
    if args.no_cache:
        shard_args += ["--no-cache"]
    if args.ladder:
        shard_args += ["--ladder", args.ladder]
    cluster = ServeCluster(
        store,
        shards=args.cluster,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        shard_args=shard_args,
        quotas=quotas,
        rate_limits=rate_limits,
        scrub_interval=args.scrub_interval or None,
    )
    if args.port:
        cluster.router.socket_path = None
        cluster.router.host = args.host
        cluster.router.port = args.port
    elif args.socket:
        cluster.router.socket_path = args.socket
        os.makedirs(os.path.dirname(args.socket) or ".", exist_ok=True)
    else:
        socket_path = _default_socket(args.store)
        os.makedirs(os.path.dirname(socket_path), exist_ok=True)
        cluster.router.socket_path = socket_path
    previous = _install_drain_signals(cluster.request_drain)
    try:
        cluster.serve_forever()
    except KeyboardInterrupt:
        print("aborted hard; draining was skipped", file=sys.stderr)
        cluster.shutdown()
        return 130
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        _restore_signals(previous)
    if args.metrics:
        snapshot = cluster.router.handle_request({"op": "metrics"})
        snapshot.pop("ok", None)
        with open(args.metrics, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
        print(f"wrote metrics to {args.metrics}", file=sys.stderr)
    return EXIT_DRAINED if cluster.draining else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.cluster:
        return _cmd_serve_cluster(args)
    _select_backend(args)
    exit_code = _arm_fault_plan(args.fault_plan)
    if exit_code:
        return exit_code
    from .serve import CircuitBreaker, SimDaemon

    try:
        ladder = _parse_ladder(args.ladder)
    except ValueError as error:
        print(f"error: bad --ladder: {error}", file=sys.stderr)
        return 2
    store = open_store(args.store)
    if args.port:
        socket_path = None
    else:
        socket_path = args.socket or _default_socket(args.store)
        os.makedirs(os.path.dirname(socket_path), exist_ok=True)
    daemon = SimDaemon(
        store,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        ladder=ladder,
        breaker=CircuitBreaker(
            failure_threshold=args.breaker_threshold,
            cooldown_seconds=args.breaker_cooldown,
        ),
        heartbeat_timeout=args.heartbeat_timeout,
        max_attempts=args.max_attempts,
        use_cache=not args.no_cache,
        shard_id=args.shard_id,
        socket_path=socket_path,
        host=args.host,
        port=args.port,
        log=sys.stderr,
    )
    recorder = Recorder(enabled=True)
    previous = _install_drain_signals(daemon.request_drain)
    try:
        with recording(recorder):
            daemon.serve_forever()
    except KeyboardInterrupt:
        print("aborted hard; draining was skipped", file=sys.stderr)
        return 130
    finally:
        _restore_signals(previous)
    if args.metrics:
        snapshot = daemon.handle_request({"op": "metrics"})
        snapshot.pop("ok", None)
        with open(args.metrics, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
        print(f"wrote metrics to {args.metrics}", file=sys.stderr)
    return EXIT_DRAINED if daemon.draining else 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .serve import ServeError

    strategy_args: dict = {}
    for pair in args.strategy_arg or []:
        name, separator, value = pair.partition("=")
        if not separator:
            print(
                f"error: --strategy-arg needs name=value, got {pair!r}",
                file=sys.stderr,
            )
            return 2
        try:
            strategy_args[name] = float(value)
        except ValueError:
            print(
                f"error: --strategy-arg {name!r} value {value!r} is not "
                "numeric",
                file=sys.stderr,
            )
            return 2
    try:
        spec = JobSpec.from_source(
            args.circuit,
            strategy=args.strategy,
            strategy_args=tuple(sorted(strategy_args.items())),
            shots=args.shots,
            seed=args.seed,
            checkpoint_interval=args.checkpoint_interval,
        )
    except ValueError as error:
        print(f"error: bad spec: {error}", file=sys.stderr)
        return 2
    client = _serve_client(args)
    try:
        response = client.submit(
            spec,
            priority=args.priority,
            tenant=args.tenant or None,
            soft_timeout=args.soft_timeout,
            hard_timeout=args.hard_timeout,
        )
    except ServeError as error:
        if error.error in (
            "shed",
            "breaker_open",
            "draining",
            "quota",
            "rate_limited",
        ):
            after = error.retry_after
            hint = f" (retry after ~{after}s)" if after else ""
            print(f"rejected: {error.error}{hint}", file=sys.stderr)
            return EXIT_SHED
        print(f"error: {error.error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: cannot reach daemon: {error}", file=sys.stderr)
        return 1
    job_id = response["job_id"]
    tier_note = (
        f" tier={response['tier']} (f_final capped at "
        f"{response['f_final_cap']})"
        if response.get("degraded")
        else ""
    )
    print(f"accepted {job_id} [{response['job_hash'][:12]}]{tier_note}")
    if not args.wait:
        return 0
    try:
        waited = client.wait(job_id, timeout=args.wait_timeout)
    except ServeError as error:
        job = error.response.get("job")
        status = job["status"] if isinstance(job, dict) else "unknown"
        print(
            f"{job_id}: still {status} after {args.wait_timeout}s",
            file=sys.stderr,
        )
        return 1
    except OSError as error:
        print(f"error: cannot reach daemon: {error}", file=sys.stderr)
        return 1
    job = waited["job"]
    print(json.dumps(job, indent=2, sort_keys=True))
    return 0 if job["status"] == "completed" else 1


def _cmd_status(args: argparse.Namespace) -> int:
    from .serve import ServeError

    client = _serve_client(args)
    try:
        if args.job_id:
            response = client.status(args.job_id)
            document = response["job"]
        else:
            response = client.metrics()
            document = {
                key: value
                for key, value in response.items()
                if key != "ok"
            }
    except ServeError as error:
        print(f"error: {error.error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: cannot reach daemon: {error}", file=sys.stderr)
        return 1
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    from .serve import ServeError

    client = _serve_client(args)
    try:
        client.drain(shard=args.shard or None)
    except ServeError as error:
        print(f"error: {error.error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: cannot reach daemon: {error}", file=sys.stderr)
        return 1
    if args.shard:
        print(f"drain requested for shard {args.shard}")
    else:
        print("drain requested")
    return 0


def _print_store_section(status: dict) -> None:
    """Render a store-health document (``cluster status`` / ``store
    status`` share this format)."""
    print("store:")
    if not status.get("replicated"):
        print("  plain (unreplicated) store")
        return
    mode = (
        "read-only (write quorum lost)"
        if status.get("read_only")
        else "read-write"
    )
    print(
        f"  replication_factor={status.get('replication_factor', '?')} "
        f"write_quorum={status.get('write_quorum', '?')} "
        f"mode={mode} read_repairs={status.get('repairs', 0)}"
    )
    for replica in status.get("replicas", []):
        print(
            f"  replica-{replica.get('index', '?')}: "
            f"{replica.get('state', '?')}"
        )
    last = status.get("last_scrub")
    if last is not None:
        age = max(0.0, time.time() - float(last))  # ddlint: ignore[DD005]
        print(f"  last_scrub: {age:.0f}s ago")
    else:
        print("  last_scrub: never")


def _cmd_store(args: argparse.Namespace) -> int:
    if args.store_command == "init":
        try:
            store = ReplicatedStore.create(
                args.store,
                replicas=args.replicas,
                write_quorum=args.write_quorum,
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(
            f"initialised replicated store at {store.root} "
            f"(replicas={store.replica_count}, "
            f"write_quorum={store.write_quorum})"
        )
        return 0
    store = open_store(args.store)
    if not isinstance(store, ReplicatedStore):
        if args.store_command == "status":
            _print_store_section({"replicated": False})
            return 0
        print(
            f"error: {store.root} is not a replicated store "
            "(initialise one with 'store init --replicas N')",
            file=sys.stderr,
        )
        return 2
    if args.store_command == "status":
        _print_store_section(store.status())
        return 0
    if args.store_command in ("scrub", "repair"):
        repair = args.store_command == "repair" or args.repair
        report = store.scrub(repair=repair)
        print(
            f"checked {report['results_checked']} result(s), "
            f"{report['checkpoints_checked']} checkpoint(s), "
            f"{report['leases_checked']} lease(s) in "
            f"{report['duration_seconds']:.2f}s"
        )
        print(
            f"repaired={report['repaired']} "
            f"quarantined={report['quarantined']} lost={report['lost']}"
        )
        for problem in report["problems"][:20]:
            print(f"  {problem}")
        if report["lost"]:
            # No healthy copy anywhere — recompute (the spec hash is
            # the identity, so resubmitting regenerates the artifact).
            return 1
        if not repair and report["problems"]:
            return 1  # problems found and left in place (detect-only)
        return 0
    print(
        f"error: unknown store command {args.store_command!r}",
        file=sys.stderr,
    )
    return 2


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .serve import ServeError

    client = _serve_client(args)
    try:
        metrics = client.metrics()
        listing = client.jobs() if args.jobs else None
    except ServeError as error:
        print(f"error: {error.error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: cannot reach router: {error}", file=sys.stderr)
        return 1
    if not metrics.get("cluster"):
        print(
            "error: endpoint is a single daemon, not a cluster router",
            file=sys.stderr,
        )
        return 1
    print(f"draining: {metrics.get('draining', False)}")
    _print_store_section(metrics.get("store") or {})
    print("shards:")
    for shard_id in sorted(metrics.get("shards", {})):
        shard = metrics["shards"][shard_id]
        print(
            f"  {shard_id:8s} {shard['state']:9s} "
            f"queue={shard['queue_depth']}/{shard['queue_capacity']} "
            f"running={shard['running']} "
            f"ladder_tier={shard['ladder_tier']} "
            f"breaker_open={shard['breaker_open']} "
            f"leases={shard.get('leases_held', 0)}"
        )
    tenants = metrics.get("tenants", {})
    if tenants:
        print("tenants:")
        for tenant in sorted(tenants):
            entry = tenants[tenant]
            quota = (
                f" quota={entry['quota']}" if "quota" in entry else ""
            )
            print(
                f"  {tenant:12s} queued={entry['queued']} "
                f"running={entry['running']} final={entry['final']} "
                f"readmissions={entry['readmissions']}{quota}"
            )
    statuses = metrics.get("jobs_by_status", {})
    if statuses:
        summary = ", ".join(
            f"{status}={count}"
            for status, count in sorted(statuses.items())
        )
        print(f"jobs: {summary}")
    if listing is not None:
        print("routed jobs:")
        for job in listing.get("jobs", []):
            moves = (
                f" ({job['readmissions']} move(s): "
                + "; ".join(job["history"])
                + ")"
                if job.get("readmissions")
                else ""
            )
            print(
                f"  {job['job_id']}  {job['job_hash'][:12]}  "
                f"{job['status']:10s} shard={job['shard'] or '-'} "
                f"tenant={job['tenant']}{moves}"
            )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "record":
        circuit = _load_circuit(args.circuit)
        strategy = _strategy_from_options(args)
        try:
            outcome, recorder, _package = _instrumented_simulate(
                circuit, strategy, max_seconds=args.timeout or None
            )
        except SimulationTimeout as timeout:
            print(f"TIMEOUT after {timeout.stats.runtime_seconds:.2f}s",
                  file=sys.stderr)
            return 1
        rows = write_trace(recorder.events, args.output)
        print(f"wrote {rows} trace events to {args.output}")
        print(outcome.stats.summary())
        return 0
    if args.trace_command == "summary":
        try:
            events = read_trace(args.trace_file)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        summary = summarize_trace(events)
        print(f"trace    {args.trace_file} ({len(events)} events)")
        for kind in sorted(summary["events_by_kind"]):
            print(f"  {kind:12s} {summary['events_by_kind'][kind]}")
        print(f"ops      {summary['num_operations']}")
        print(f"rounds   {summary['num_rounds']}")
        print(f"peak DD  {summary['peak_nodes']} nodes")
        print(f"f_final  {summary['fidelity_estimate']:.4f} "
              f"(spent {summary['fidelity_spent']:.4f})")
        print(f"span     {summary['span_seconds']:.3f}s")
        return 0
    print(f"error: unknown trace command {args.trace_command!r}",
          file=sys.stderr)
    return 2


def _lint_findings_document(violations, report=None, baseline_path=None):
    """Machine-readable lint result (the ``lint --format json`` shape)."""
    by_rule: dict[str, int] = {}
    for violation in violations:
        by_rule[violation.rule] = by_rule.get(violation.rule, 0) + 1
    document = {
        "version": 1,
        "findings": [
            {
                "rule": violation.rule,
                "path": violation.path,
                "line": violation.line,
                "col": violation.col,
                "message": violation.message,
                "trace": list(violation.trace),
            }
            for violation in violations
        ],
        "summary": {"total": len(violations), "by_rule": by_rule},
        "baseline": baseline_path,
        "ratchet": None,
    }
    if report is not None:
        document["ratchet"] = {
            "new": dict(report.new),
            "fixed": dict(report.fixed),
            "matched": report.matched,
            "clean": report.clean,
        }
    return document


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis import (
        RULES,
        LintError,
        compare_to_baseline,
        lint_paths,
        load_baseline,
        write_baseline,
    )
    from .analysis.baseline import baseline_key

    as_json = getattr(args, "format", "text") == "json"

    if args.list_rules:
        for code in sorted(RULES):
            rule = RULES[code]
            print(f"{code}  {rule.summary}")
            print(f"       {rule.rationale}")
        return 0

    paths = [Path(token) for token in (args.paths or ["src/repro"])]
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        print(
            f"error: no such path(s): {', '.join(missing)} "
            "(run from the repository root)",
            file=sys.stderr,
        )
        return 2
    try:
        violations = lint_paths(paths)
    except LintError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.write_baseline:
        counts = write_baseline(violations, Path(args.baseline))
        print(
            f"wrote {args.baseline}: {sum(counts.values())} grandfathered "
            f"finding(s) across {len(counts)} file/rule pair(s)"
        )
        return 0

    if args.no_ratchet:
        if as_json:
            print(json.dumps(_lint_findings_document(violations), indent=2))
        else:
            for violation in violations:
                print(violation.format_verbose())
            print(f"{len(violations)} finding(s)")
        return 1 if violations else 0

    try:
        baseline = load_baseline(Path(args.baseline))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = compare_to_baseline(violations, baseline)
    if as_json:
        print(
            json.dumps(
                _lint_findings_document(
                    violations, report, str(args.baseline)
                ),
                indent=2,
            )
        )
        if report.new:
            return 1
        return 1 if (report.fixed and args.strict) else 0
    if report.new:
        print("ddlint: new findings (not in the baseline):")
        for violation in violations:
            if baseline_key(violation) in report.new:
                for line in violation.format_verbose().splitlines():
                    print(f"  {line}")
    for line in report.describe():
        print(line, file=sys.stderr)
    if report.new:
        return 1
    if report.fixed:
        if args.strict:
            print(
                "ddlint: baseline is stale (findings were fixed) — "
                "re-commit it with 'repro-sim lint --write-baseline'",
                file=sys.stderr,
            )
            return 1
        print(
            f"ddlint: OK — {report.matched} grandfathered finding(s); "
            "baseline can shrink (see above)"
        )
        return 0
    print(
        f"ddlint: OK — {report.matched} grandfathered finding(s), "
        "0 new"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Approximation-aware DD-based quantum circuit simulation",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _strategy_options(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--strategy",
            choices=("exact", "memory", "fidelity"),
            default="exact",
        )
        subparser.add_argument("--threshold", type=int, default=4096)
        subparser.add_argument("--round-fidelity", type=float, default=0.975)
        subparser.add_argument("--final-fidelity", type=float, default=0.5)
        subparser.add_argument("--placement", default="even")

    def _backend_option(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--backend",
            choices=BACKEND_NAMES,
            default=None,
            help="DD engine backend (default: REPRO_DD_BACKEND or "
            "'arena'; 'reference' is the differential oracle; see "
            "docs/BACKENDS.md)",
        )

    run = sub.add_parser("run", help="simulate a QASM file or builtin")
    run.add_argument("circuit", help="path to .qasm or builtin:<name>")
    _strategy_options(run)
    _backend_option(run)
    run.add_argument("--timeout", type=float, default=0.0)
    run.add_argument("--shots", type=int, default=0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--metrics",
        default="",
        help="write the full instrumentation report (JSON) to this path",
    )
    run.add_argument(
        "--ddsan",
        action="store_true",
        help="run under the DDSan invariant sanitizer (slow; aborts on "
        "the first representation-invariant violation)",
    )
    run.add_argument(
        "--fault-plan",
        default="",
        help="arm a deterministic fault-injection plan (JSON; see "
        "docs/FAULTS.md) — equivalent to setting REPRO_FAULTS",
    )
    run.add_argument(
        "--node-ceiling",
        type=int,
        default=None,
        help="memory watchdog: force an emergency approximation round "
        "when the state diagram exceeds this many nodes",
    )
    run.add_argument(
        "--rss-ceiling-mb",
        type=float,
        default=None,
        help="memory watchdog: trigger emergency approximation when "
        "peak process RSS exceeds this many MiB",
    )
    run.add_argument(
        "--emergency-fidelity",
        type=float,
        default=None,
        help="per-emergency-round fidelity target (default 0.9)",
    )
    run.add_argument(
        "--fidelity-floor",
        type=float,
        default=None,
        help="fail (exit 4) instead of degrading the fidelity estimate "
        "below this floor (default 0.05)",
    )
    run.set_defaults(handler=_cmd_run)

    shor = sub.add_parser("shor", help="factor a number via Shor")
    shor.add_argument("modulus", type=int)
    shor.add_argument("--base", type=int, default=2)
    shor.add_argument("--final-fidelity", type=float, default=0.5)
    shor.add_argument("--round-fidelity", type=float, default=0.9)
    shor.add_argument("--shots", type=int, default=1000)
    shor.add_argument("--seed", type=int, default=0)
    shor.add_argument(
        "--semiclassical",
        action="store_true",
        help="use the single-control-qubit formulation (n+1 qubits)",
    )
    shor.set_defaults(handler=_cmd_shor)

    analyze = sub.add_parser(
        "analyze", help="simulate and analyze the final state exactly"
    )
    analyze.add_argument("circuit", help="path to .qasm or builtin:<name>")
    _strategy_options(analyze)
    analyze.add_argument(
        "--threshold-probability",
        type=float,
        default=0.01,
        help="report basis states at or above this probability",
    )
    analyze.add_argument(
        "--marginal",
        default="",
        help="comma-separated qubits to compute an exact marginal over",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    equiv = sub.add_parser(
        "equiv", help="check two circuits for unitary equivalence"
    )
    equiv.add_argument("first", help="path to .qasm or builtin:<name>")
    equiv.add_argument("second", help="path to .qasm or builtin:<name>")
    equiv.add_argument(
        "--strict-phase",
        action="store_true",
        help="require exact equality (no global-phase allowance)",
    )
    equiv.set_defaults(handler=_cmd_equiv)

    optimize = sub.add_parser(
        "optimize", help="run peephole optimization on a circuit"
    )
    optimize.add_argument("circuit", help="path to .qasm or builtin:<name>")
    optimize.add_argument(
        "-o", "--output", default="", help="write optimized QASM here"
    )
    optimize.set_defaults(handler=_cmd_optimize)

    trace = sub.add_parser(
        "trace", help="record or summarize JSONL instrumentation traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_record = trace_sub.add_parser(
        "record", help="simulate with full tracing, write a JSONL trace"
    )
    trace_record.add_argument(
        "circuit", help="path to .qasm or builtin:<name>"
    )
    _strategy_options(trace_record)
    trace_record.add_argument("--timeout", type=float, default=0.0)
    trace_record.add_argument(
        "-o", "--output", default="trace.jsonl",
        help="JSONL output path (default: %(default)s)",
    )
    trace_record.set_defaults(handler=_cmd_trace)
    trace_summary = trace_sub.add_parser(
        "summary", help="summarize an existing JSONL trace file"
    )
    trace_summary.add_argument("trace_file", help="path to a .jsonl trace")
    trace_summary.set_defaults(handler=_cmd_trace)

    lint = sub.add_parser(
        "lint",
        help="run the domain-aware ddlint rules with the baseline ratchet",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--baseline",
        default="analysis/baseline.json",
        help="ratchet baseline path (default: %(default)s)",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate the baseline from current findings and exit",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="also fail when the baseline is stale (findings were fixed "
        "but the baseline was not re-committed) — the CI mode",
    )
    lint.add_argument(
        "--no-ratchet",
        action="store_true",
        help="ignore the baseline: print every finding and fail if any",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format: human-readable text (default) or a "
        "machine-readable findings document (CI artifact)",
    )
    lint.set_defaults(handler=_cmd_lint)

    table1 = sub.add_parser(
        "table1",
        help="regenerate Table I (engine-backed: cached and resumable)",
    )
    table1.add_argument(
        "--suite", choices=("shor", "supremacy", "all"), default="all"
    )
    table1.add_argument("--threshold", type=int, default=256)
    table1.add_argument("--timeout", type=float, default=120.0)
    table1.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help="artifact store directory (default: %(default)s)",
    )
    table1.add_argument(
        "--workers", type=int, default=1, help="worker processes"
    )
    table1.add_argument(
        "--checkpoint-interval",
        type=int,
        default=100,
        help="operations between resume checkpoints (0 disables)",
    )
    table1.set_defaults(handler=_cmd_table1)

    batch = sub.add_parser(
        "batch", help="run a JSON batch of jobs through the job engine"
    )
    batch.add_argument(
        "jobs_file", help='JSON file: [{...}, ...] or {"jobs": [...]}'
    )
    batch.add_argument(
        "--workers", type=int, default=1, help="worker processes"
    )
    batch.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help="artifact store directory (default: %(default)s)",
    )
    batch.add_argument(
        "--no-cache",
        action="store_true",
        help="re-simulate even when a stored result exists",
    )
    batch.add_argument(
        "--fault-plan",
        default="",
        help="arm a deterministic fault-injection plan (JSON; see "
        "docs/FAULTS.md) — inherited by forked workers",
    )
    _backend_option(batch)
    batch.set_defaults(handler=_cmd_batch)

    jobs = sub.add_parser(
        "jobs", help="inspect / garbage-collect the artifact store"
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    def _store_option(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--store",
            default=DEFAULT_STORE,
            help="artifact store directory (default: %(default)s)",
        )

    jobs_ls = jobs_sub.add_parser("ls", help="list stored results")
    _store_option(jobs_ls)
    jobs_ls.set_defaults(handler=_cmd_jobs)
    jobs_show = jobs_sub.add_parser(
        "show", help="show one stored result in detail"
    )
    jobs_show.add_argument("job_hash", help="content hash (unique prefix ok)")
    _store_option(jobs_show)
    jobs_show.set_defaults(handler=_cmd_jobs)
    jobs_gc = jobs_sub.add_parser(
        "gc", help="remove stale checkpoints (and optionally results)"
    )
    jobs_gc.add_argument(
        "--results",
        action="store_true",
        help="also delete stored results",
    )
    jobs_gc.add_argument(
        "--older-than-days",
        type=float,
        default=None,
        help="with --results, only delete results older than this",
    )
    jobs_gc.add_argument(
        "--quarantine",
        action="store_true",
        help="also purge quarantined (corrupt) artifacts",
    )
    jobs_gc.add_argument(
        "--staging-older-than-hours",
        type=float,
        default=1.0,
        metavar="H",
        help="reap staging dirs abandoned by crashed writers once "
        "older than this (default: %(default)s; in-flight puts are "
        "younger and survive)",
    )
    _store_option(jobs_gc)
    jobs_gc.set_defaults(handler=_cmd_jobs)

    store_parser = sub.add_parser(
        "store",
        help="replicated artifact store: init, scrub, repair, status "
        "(docs/SERVICE.md § Replication & durability)",
    )
    store_sub = store_parser.add_subparsers(
        dest="store_command", required=True
    )
    store_init = store_sub.add_parser(
        "init", help="turn a store root into an N-replica replicated store"
    )
    store_init.add_argument(
        "--replicas",
        type=int,
        default=3,
        help="replica count N (default: %(default)s)",
    )
    store_init.add_argument(
        "--write-quorum",
        type=int,
        default=None,
        metavar="W",
        help="acks required per write (default: majority, N//2+1)",
    )
    _store_option(store_init)
    store_init.set_defaults(handler=_cmd_store)
    store_scrub = store_sub.add_parser(
        "scrub",
        help="verify every artifact copy on every replica (detect-only "
        "unless --repair; exit 1 when problems remain)",
    )
    store_scrub.add_argument(
        "--repair",
        action="store_true",
        help="also quarantine corrupt copies and re-replicate healthy "
        "bytes (same as 'store repair')",
    )
    _store_option(store_scrub)
    store_scrub.set_defaults(handler=_cmd_store)
    store_repair = store_sub.add_parser(
        "repair",
        help="scrub with repairs: quarantine corrupt copies and restore "
        "the replication factor from healthy ones",
    )
    _store_option(store_repair)
    store_repair.set_defaults(handler=_cmd_store)
    store_status = store_sub.add_parser(
        "status",
        help="replication factor, per-replica health, read-only mode, "
        "last scrub",
    )
    _store_option(store_status)
    store_status.set_defaults(handler=_cmd_store)

    faults = sub.add_parser(
        "faults", help="fault-injection plans: list sites, validate plans"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    faults_sites = faults_sub.add_parser(
        "sites", help="list known injection sites and fault kinds"
    )
    faults_sites.set_defaults(handler=_cmd_faults)
    faults_check = faults_sub.add_parser(
        "check", help="validate a fault plan file"
    )
    faults_check.add_argument("plan_file", help="path to a plan JSON file")
    faults_check.set_defaults(handler=_cmd_faults)

    def _endpoint_options(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--store",
            default=DEFAULT_STORE,
            help="artifact store directory; also determines the default "
            "socket path <store>/serve/serve.sock (default: %(default)s)",
        )
        subparser.add_argument(
            "--socket",
            default=os.environ.get("REPRO_SIM_SOCKET", ""),
            help="daemon Unix socket path (default: the store-scoped "
            "socket, or $REPRO_SIM_SOCKET)",
        )
        subparser.add_argument(
            "--host", default="127.0.0.1", help="TCP host (with --port)"
        )
        subparser.add_argument(
            "--port",
            type=int,
            default=0,
            help="listen/connect on TCP instead of the Unix socket",
        )

    serve = sub.add_parser(
        "serve",
        help="run the persistent simulation daemon (docs/SERVE.md)",
    )
    _endpoint_options(serve)
    serve.add_argument(
        "--workers", type=int, default=2, help="supervised worker processes"
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=16,
        help="bounded admission queue size; beyond it submissions shed",
    )
    serve.add_argument(
        "--ladder",
        default="",
        help='fidelity ladder tiers as "util:cap,..." '
        '(default "0.5:0.99,0.8:0.9")',
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="permanent failures per spec before fast rejection",
    )
    serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        help="seconds an open breaker waits before half-open probes",
    )
    serve.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=10.0,
        help="stale-heartbeat threshold for wedged-worker replacement",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="executions per job across worker deaths and hard kills",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="re-simulate even when a stored result exists",
    )
    serve.add_argument(
        "--metrics",
        default="",
        help="write a final metrics snapshot JSON here on exit",
    )
    serve.add_argument(
        "--fault-plan",
        default="",
        help="arm a deterministic fault-injection plan (JSON; inherited "
        "by forked workers — chaos testing)",
    )
    serve.add_argument(
        "--shard-id",
        default="",
        help="cluster shard name (namespaces the drained-queue file; "
        "set by 'serve --cluster' on each spawned shard)",
    )
    serve.add_argument(
        "--cluster",
        type=int,
        default=0,
        metavar="N",
        help="run a sharded tier: N shard daemons over the shared "
        "store plus a router front door on the endpoint above "
        "(docs/SERVE.md)",
    )
    serve.add_argument(
        "--quota",
        action="append",
        metavar="TENANT=N",
        help="cluster router: max in-flight jobs per tenant "
        "(repeatable; '*' sets the default for unlisted tenants)",
    )
    serve.add_argument(
        "--rate-limit",
        action="append",
        metavar="TENANT=RATE[:BURST]",
        help="cluster router: token-bucket admission rate per tenant "
        "in jobs/second (repeatable; '*' = default; burst defaults "
        "to 2x rate)",
    )
    serve.add_argument(
        "--scrub-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="cluster router: background anti-entropy scrub period for "
        "a replicated store (0 disables; see 'store scrub')",
    )
    _backend_option(serve)
    serve.set_defaults(handler=_cmd_serve)

    cluster = sub.add_parser(
        "cluster", help="inspect a running sharded tier (serve --cluster)"
    )
    cluster_sub = cluster.add_subparsers(
        dest="cluster_command", required=True
    )
    cluster_status = cluster_sub.add_parser(
        "status",
        help="per-shard health/load and per-tenant usage from the router",
    )
    _endpoint_options(cluster_status)
    cluster_status.add_argument(
        "--jobs",
        action="store_true",
        help="also list every routed job with its ownership history",
    )
    cluster_status.set_defaults(handler=_cmd_cluster)

    submit = sub.add_parser(
        "submit", help="submit one job to a running daemon"
    )
    _endpoint_options(submit)
    submit.add_argument(
        "circuit", help="builtin:<name> or a QASM file path"
    )
    submit.add_argument(
        "--strategy",
        default="exact",
        choices=["exact", "memory", "fidelity", "adaptive", "size_cap"],
        help="approximation strategy kind",
    )
    submit.add_argument(
        "--strategy-arg",
        action="append",
        metavar="NAME=VALUE",
        help="strategy constructor argument (repeatable), e.g. "
        "final_fidelity=0.999",
    )
    submit.add_argument("--shots", type=int, default=0)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--checkpoint-interval",
        type=int,
        default=0,
        help="checkpoint every N operations (enables deadline resume)",
    )
    submit.add_argument(
        "--priority", type=int, default=0, help="higher runs first"
    )
    submit.add_argument(
        "--tenant",
        default="",
        help="tenant label for cluster quotas/rate limits and metrics "
        "breakdowns (default: 'default')",
    )
    submit.add_argument(
        "--soft-timeout",
        type=float,
        default=None,
        help="per-attempt soft deadline (seconds): the job checkpoints "
        "and answers status=deadline with the fidelity spent so far",
    )
    submit.add_argument(
        "--hard-timeout",
        type=float,
        default=None,
        help="per-attempt hard deadline (seconds): the worker is killed "
        "and the job requeued or failed",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the job reaches a final state",
    )
    submit.add_argument(
        "--wait-timeout",
        type=float,
        default=300.0,
        help="give up waiting after this many seconds",
    )
    submit.set_defaults(handler=_cmd_submit)

    status = sub.add_parser(
        "status", help="query a job (or daemon metrics) as JSON"
    )
    _endpoint_options(status)
    status.add_argument(
        "job_id",
        nargs="?",
        default="",
        help="job id from submit; omit for daemon-wide metrics",
    )
    status.set_defaults(handler=_cmd_status)

    drain = sub.add_parser(
        "drain", help="ask a running daemon to drain and exit"
    )
    _endpoint_options(drain)
    drain.add_argument(
        "--shard",
        default="",
        help="cluster router: drain one shard, redistributing its "
        "queue to the others (default: drain the whole endpoint)",
    )
    drain.set_defaults(handler=_cmd_drain)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
