"""Metric names, units and how each is computed from a run's samples.

Every workload reports the same end-to-end metrics (untraced runs) and
the same per-layer metrics (traced runs), as listed in ``BENCHMARK.json``.
An *operation* is one ``simulate()`` call in a fresh interpreter for the
simulation workloads and one request (submit → final status) for
``serve_mixed``; README.md defines each metric for both.

Every time is in seconds at the reference host speed: measured seconds
times the run's ``common.host_scale``.
Per-layer times are seconds per traced pass: one ``simulate()`` call for
the simulation workloads, the whole job replay for ``serve_mixed``.
Layers only the serving path reaches (service, store, serialisation,
daemon) are reported as shares of the traced wall time and as call
counts, so a workload that never reaches them reports an honest 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from spans import empty_dd_counters
from summary import median

#: Metric value paired with its unit.
Metric = tuple[float, str]

#: A traced run fails when its spans leave more of the wall than this
#: unexplained.
MAX_UNATTRIBUTED = 0.03


@dataclass
class RunResult:
    """What one benchmark run of one workload measured and checked."""

    metrics: dict[str, Metric]
    attempted: int
    failed: int
    problems: list[str]
    report: dict


def end_to_end(
    setup_s: float,
    wall_s: float,
    latency_p50_s: float,
    jobs_per_s: float,
    sim_rss_mb: float,
    peak_nodes: float,
    fidelity_estimate: float,
) -> dict[str, Metric]:
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "latency_p50_s": (latency_p50_s, "s"),
        "jobs_per_s": (jobs_per_s, "jobs/s"),
        "sim_rss_mb": (sim_rss_mb, "MiB"),
        "peak_nodes": (peak_nodes, "nodes"),
        "fidelity_estimate": (fidelity_estimate, "ratio"),
    }


@dataclass
class TracedPass:
    """Totals from the traced pass(es) of one run.

    Attributes:
        layers: Span table (``spans.self_times``) summed over passes.
        dd: DD counters (``spans.LayerTrace.dd``) summed over passes.
        passes: Number of traced passes summed (times are divided by it).
        wall_s: Traced wall time, summed.
        untraced_wall_s: Wall time of the same work untraced, summed.
        peak_nodes: Sum of the simulated runs' peak node counts.
        rounds: Approximation rounds of the simulated runs.
    """

    layers: dict = field(default_factory=dict)
    dd: dict = field(default_factory=empty_dd_counters)
    passes: int = 0
    wall_s: float = 0.0
    untraced_wall_s: float = 0.0
    peak_nodes: int = 0
    rounds: list = field(default_factory=list)

    def add(self, traced: dict, untraced_wall_s: float, stats: list[dict]) -> None:
        """Fold in one traced child result, the untraced wall time of the
        same work, and the stats of the simulations it ran."""
        for name, entry in traced["layers"].items():
            total = self.layers.setdefault(
                name, {"self_s": 0.0, "total_s": 0.0, "calls": 0}
            )
            for key in total:
                total[key] += entry[key]
        dd = traced["dd"]
        for key in ("vnodes_created", "unique_vnodes_end", "cache_flushes"):
            self.dd[key] += dd[key]
        for name, (hits, misses) in dd["cache"].items():
            self.dd["cache"][name][0] += hits
            self.dd["cache"][name][1] += misses
        self.passes += 1
        self.wall_s += traced["wall_s"]
        self.untraced_wall_s += untraced_wall_s
        for entry in stats:
            self.peak_nodes += entry["max_nodes"]
            self.rounds.extend(entry["rounds"])

    def get(self, name: str, key: str) -> float:
        return self.layers.get(name, {}).get(key, 0)

    def unattributed_frac(self) -> float:
        attributed = sum(entry["self_s"] for entry in self.layers.values())
        return (self.wall_s - attributed) / self.wall_s


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(
    trace: TracedPass, client: dict | None, scale: float
) -> dict[str, Metric]:
    """Per-layer metrics of a traced run whose host scale is ``scale``.

    ``client`` holds the serving client's per-request split
    (:func:`serving.client_breakdown`), or None for a workload that
    sends no requests.
    """
    passes = trace.passes

    def self_s(name: str) -> Metric:
        return (trace.get(name, "self_s") * scale / passes, "s")

    def calls(name: str) -> Metric:
        return (trace.get(name, "calls") / passes, "count")

    def share(name: str, key: str = "self_s") -> Metric:
        return (trace.get(name, key) / trace.wall_s, "fraction")

    dd = trace.dd
    cache = dd["cache"]
    client = client or {}
    metrics: dict[str, Metric] = {
        "circuits.lower.self_s": self_s("circuits.lower"),
        "circuits.lower.calls": calls("circuits.lower"),
        "dd.multiply_mv.self_s": self_s("dd.multiply_mv"),
        "dd.multiply_mv.calls": calls("dd.multiply_mv"),
        "dd.node_count.self_s": self_s("dd.node_count"),
        "dd.node_count.calls": calls("dd.node_count"),
        "dd.vnodes_created": (dd["vnodes_created"] / passes, "count"),
        "dd.unique_vnodes_end": (dd["unique_vnodes_end"] / passes, "count"),
        "dd.unique_over_peak": (
            dd["unique_vnodes_end"] / trace.peak_nodes, "ratio"
        ),
        "dd.cache.mv.hit_rate": (_rate(*cache["mv"]), "fraction"),
        "dd.cache.vadd.hit_rate": (_rate(*cache["vadd"]), "fraction"),
        "dd.cache.inner.hit_rate": (_rate(*cache["inner"]), "fraction"),
        "dd.cache.flushes": (dd["cache_flushes"] / passes, "count"),
        "core.simulate.self_s": self_s("core.simulate"),
        "core.approx.rounds": (len(trace.rounds) / passes, "count"),
        "core.approx.nodes_removed": (
            sum(entry["removed_nodes"] for entry in trace.rounds) / passes,
            "count",
        ),
        "core.approx.round.total_s": (
            trace.get("core.approx.round", "total_s") * scale / passes, "s"
        ),
        "core.approx.contributions.self_s": self_s("core.approx.contributions"),
        "core.approx.select.self_s": self_s("core.approx.select"),
        "core.approx.rebuild.self_s": self_s("core.approx.rebuild"),
        "core.approx.fidelity.self_s": self_s("core.approx.fidelity"),
        "service.execute_job.share": share("service.execute_job"),
        "service.simulate.share": share("core.simulate", "total_s"),
        "service.checkpoint.share": share("service.checkpoint"),
        "dd.serialize.checkpoint.share": share("dd.serialize.checkpoint"),
        "dd.serialize.result.share": share("dd.serialize.result"),
    }
    for method in ("save_checkpoint", "put_result", "load_result",
                   "clear_checkpoint"):
        name = f"service.store.{method}"
        metrics[f"{name}.share"] = share(name)
        metrics[f"{name}.calls"] = calls(name)
    metrics.update({
        "serve.admit.share": (client.get("admit_share", 0.0), "fraction"),
        "serve.run.share": (client.get("run_share", 0.0), "fraction"),
        "serve.overhead.share": (client.get("overhead_share", 0.0), "fraction"),
        "serve.cached_frac": (client.get("cached_frac", 0.0), "fraction"),
        "trace.unattributed_frac": (trace.unattributed_frac(), "fraction"),
        "trace.overhead_ratio": (
            trace.wall_s / trace.untraced_wall_s, "ratio"
        ),
    })
    return metrics


def layer_table(trace: TracedPass, scale: float) -> dict[str, dict[str, float]]:
    """Self and total seconds (scaled) and calls per span, per traced pass."""
    return {
        name: {
            "self_s": entry["self_s"] * scale / trace.passes,
            "total_s": entry["total_s"] * scale / trace.passes,
            "calls": entry["calls"] / trace.passes,
        }
        for name, entry in sorted(trace.layers.items())
    }


def sim_end_to_end(results: list[dict], scale: float) -> dict[str, Metric]:
    """End-to-end metrics over untraced simulation repeats."""
    latencies = [(entry["setup_s"] + entry["wall_s"]) * scale for entry in results]
    return end_to_end(
        setup_s=median([entry["setup_s"] for entry in results]) * scale,
        wall_s=median([entry["wall_s"] for entry in results]) * scale,
        latency_p50_s=median(latencies),
        jobs_per_s=len(results) / sum(latencies),
        sim_rss_mb=median([entry["rss_mb"] for entry in results]),
        peak_nodes=median([entry["max_nodes"] for entry in results]),
        fidelity_estimate=median(
            [entry["fidelity_estimate"] for entry in results]
        ),
    )
