"""One measured operation in a fresh interpreter.

Started by the benchmark (``perf/run.py``) with one JSON config on stdin;
prints one JSON result line.  Two modes:

* ``sim`` — build a builtin circuit, its strategy and a fresh
  ``Package()``, then time one ``simulate()`` call.
* ``replay`` — run a list of job specs through
  ``repro.service.execute_job`` against one artifact store, in order.

With ``"traced": true`` the operation runs inside a
:class:`spans.LayerTrace` and the result carries per-layer times and DD
counters; otherwise nothing is patched.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time


def _maxrss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _trace(traced: bool, **kwargs):
    if not traced:
        return contextlib.nullcontext(None)
    from spans import LayerTrace

    return LayerTrace(**kwargs)


def _trace_doc(trace) -> dict:
    return {"layers": trace.layers(), "dd": trace.dd}


def run_sim(config: dict) -> dict:
    from repro.core import simulate
    from repro.dd.package import Package
    from repro.service import build_builtin_circuit, build_strategy
    from repro.service.checkpoint import rounds_to_dicts

    circuit = build_builtin_circuit(config["circuit"])
    strategy = build_strategy(config["strategy"], config["strategy_args"])
    package = Package()
    setup_s = time.monotonic() - config["spawned_at"]
    rss_ready = _maxrss_mb()
    with _trace(config["traced"], package=package) as trace:
        started = time.perf_counter()
        outcome = simulate(circuit, strategy, package=package)
        wall_s = time.perf_counter() - started
        rss_mb = _maxrss_mb()
        stats = outcome.stats
        result = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "rss_mb": rss_mb,
            "rss_growth_mb": rss_mb - rss_ready,
            "engine": package.backend_name,
            "max_nodes": stats.max_nodes,
            "final_nodes": stats.final_nodes,
            "fidelity_estimate": stats.fidelity_estimate,
            "rounds": rounds_to_dicts(stats.rounds),
        }
    if trace is not None:
        result.update(_trace_doc(trace))
    if config.get("shor"):
        result["factors"] = _shor_factors(outcome.state, *config["shor"], config["seed"])
    return result


def _shor_factors(state, modulus: int, base: int, seed: int) -> list[int] | None:
    """Factors recovered from 1000 shots of ``state`` (untimed check)."""
    import numpy as np

    from repro.circuits import shor_layout
    from repro.postprocessing import postprocess_counts, shift_counts

    layout = shor_layout(modulus, base)
    counts = shift_counts(
        state.sample(1000, np.random.default_rng(seed)), layout.work_bits
    )
    found = postprocess_counts(counts, layout.counting_bits, modulus, base)
    return sorted(found.factors) if found.succeeded else None


def run_replay(config: dict) -> dict:
    from repro.service import JobSpec, engine, open_store

    store = open_store(config["store"])
    specs = [JobSpec.from_dict(document) for document in config["jobs"]]
    budget = config.get("budget_s")
    jobs = []
    with _trace(config["traced"], store=store) as trace:
        started = time.perf_counter()
        for spec in specs:
            if budget is not None and time.perf_counter() - started >= budget:
                break
            outcome = engine.execute_job(spec, store)
            jobs.append(
                {"status": outcome.status, "cached": outcome.cached,
                 "stats": outcome.stats, "error": outcome.error}
            )
        wall_s = time.perf_counter() - started
    result = {"wall_s": wall_s, "jobs": jobs}
    if trace is not None:
        result.update(_trace_doc(trace))
    return result


def main() -> None:
    config = json.load(sys.stdin)
    run = {"sim": run_sim, "replay": run_replay}[config["mode"]]
    print(json.dumps(run(config)))


if __name__ == "__main__":
    main()
