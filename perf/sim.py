"""The simulation workloads: one paper Table I row each, ``simulate()`` timed.

Each repeat runs in a fresh interpreter (``perf/child.py``) with a fresh
``Package()``, one at a time, with a calibration (``common.calibrate``)
before the first and after every repeat; their median scales the run's
times to the reference host speed.
Untraced runs repeat until the run's time is used up (at least
:data:`MIN_REPEATS`); traced runs pair an untraced and a traced repeat of
the same circuit, so the trace can be checked for bit-equal results and
its overhead measured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import metrics
from common import calibrate, host_scale, run_child
from summary import median

#: Repeats behind every untraced median, however short the run.
MIN_REPEATS = 3

#: Relative tolerance on a pinned fidelity estimate.
FIDELITY_RTOL = 1e-12

#: Slack on "every round achieved at least its requested fidelity".
ROUND_SLACK = 1e-12


@dataclass(frozen=True)
class Pin:
    """Exact results of one circuit on the default engine."""

    max_nodes: int
    final_nodes: int
    rounds: int
    fidelity_estimate: float


@dataclass(frozen=True)
class SimWorkload:
    """A builtin circuit under one strategy.

    Attributes:
        circuit: Builtin circuit name; ``{seed}`` is replaced by the seed.
        strategy / strategy_args: As accepted by
            ``repro.service.build_strategy``.
        shor: ``(modulus, base)`` when factors must be recovered.
        factors: The factors those shots must yield.
        min_fidelity: Floor on the fidelity estimate for any seed.
        pins: Exact results per seed; key None applies to every seed.
    """

    name: str
    circuit: str
    strategy: str
    strategy_args: dict
    shor: tuple[int, int] | None = None
    factors: tuple[int, int] | None = None
    min_fidelity: float = 0.0
    pins: dict[int | None, Pin] = field(default_factory=dict)

    def circuit_for(self, seed: int) -> str:
        return self.circuit.format(seed=seed)

    def pin_for(self, seed: int) -> Pin | None:
        return self.pins.get(seed, self.pins.get(None))


WORKLOADS = {
    # Table I fidelity-driven row, verbatim: 21 qubits, rounds inside the
    # inverse QFT.  The circuit is fixed, so the seed only seeds sampling.
    "shor_fidelity": SimWorkload(
        name="shor_fidelity",
        circuit="shor_69_2",
        strategy="fidelity",
        strategy_args={
            "final_fidelity": 0.5,
            "round_fidelity": 0.9,
            "placement": "block:inverse_qft",
        },
        shor=(69, 2),
        factors=(3, 23),
        min_fidelity=0.5,
        pins={None: Pin(42397, 2107, 6, 0.7904409768641807)},
    ),
    # Memory-driven supremacy row: threshold 2^n / 4 as in
    # benchmarks/bench_table1_memory_driven.py.
    "supremacy_memory": SimWorkload(
        name="supremacy_memory",
        circuit="qsup_3x5_10_{seed}",
        strategy="memory",
        strategy_args={"threshold": 8192, "round_fidelity": 0.975},
        pins={0: Pin(16447, 16447, 2, 0.9523873247087908)},
    ),
}


def _config(workload: SimWorkload, seed: int, traced: bool) -> dict:
    return {
        "mode": "sim",
        "circuit": workload.circuit_for(seed),
        "strategy": workload.strategy,
        "strategy_args": workload.strategy_args,
        "shor": list(workload.shor) if workload.shor else None,
        "seed": seed,
        "traced": traced,
    }


def outcome_key(result: dict) -> tuple:
    """The results a repeat must reproduce bit for bit."""
    return (
        result["max_nodes"],
        result["final_nodes"],
        result["fidelity_estimate"],
        tuple(
            (entry["requested_fidelity"], entry["achieved_fidelity"])
            for entry in result["rounds"]
        ),
    )


def check(workload: SimWorkload, seed: int, engine: str, result: dict) -> list[str]:
    """Problems with one repeat's output (empty when correct)."""
    problems = []
    if result["engine"] != engine:
        problems.append(f"ran on {result['engine']}, default is {engine}")
    for index, entry in enumerate(result["rounds"]):
        if entry["achieved_fidelity"] < entry["requested_fidelity"] - ROUND_SLACK:
            problems.append(
                f"round {index} achieved {entry['achieved_fidelity']!r} "
                f"< requested {entry['requested_fidelity']!r}"
            )
    if result["fidelity_estimate"] < workload.min_fidelity:
        problems.append(
            f"fidelity {result['fidelity_estimate']!r} below "
            f"{workload.min_fidelity}"
        )
    pin = workload.pin_for(seed)
    if pin is not None:
        got = (result["max_nodes"], result["final_nodes"], len(result["rounds"]))
        if got != (pin.max_nodes, pin.final_nodes, pin.rounds):
            problems.append(
                f"(peak, final, rounds) {got} != pinned "
                f"{(pin.max_nodes, pin.final_nodes, pin.rounds)}"
            )
        drift = abs(result["fidelity_estimate"] - pin.fidelity_estimate)
        if drift > FIDELITY_RTOL * pin.fidelity_estimate:
            problems.append(
                f"fidelity {result['fidelity_estimate']!r} != pinned "
                f"{pin.fidelity_estimate!r}"
            )
    if workload.factors is not None and result.get("factors") != list(
        workload.factors
    ):
        problems.append(
            f"factors {result.get('factors')} != {list(workload.factors)}"
        )
    return problems


def measure(
    workload: SimWorkload,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    engine: str,
) -> metrics.RunResult:
    """One benchmark run: untraced repeats, or untraced/traced pairs."""
    problems: list[str] = []
    failed = 0
    first: list[tuple] = []

    def repeat(traced: bool) -> dict:
        nonlocal failed
        result = run_child(_config(workload, seed, traced), workdir)
        found = check(workload, seed, engine, result)
        first.append(outcome_key(result))
        if first[-1] != first[0]:
            found.append("result differs from the run's first repeat")
        problems.extend(found)
        failed += bool(found)
        return result

    plain: list[dict] = []
    traced_pass = metrics.TracedPass()
    calibrations = [calibrate()]
    durations: list[float] = []
    started = time.monotonic()
    while True:
        began = time.monotonic()
        result = repeat(False)
        traced = repeat(True) if trace else None
        calibrations.append(calibrate())
        plain.append(result)
        if traced is not None:
            traced_pass.add(traced, result["wall_s"], [traced])
        durations.append(time.monotonic() - began)
        enough = len(durations) >= (1 if trace else MIN_REPEATS)
        if enough and time.monotonic() - started + median(durations) > seconds:
            break
    report = {
        "repeats": len(plain),
        "raw_wall_s": [entry["wall_s"] for entry in plain],
        "rss_growth_mb": [entry["rss_growth_mb"] for entry in plain],
        "calibrations_s": calibrations,
        "factors": plain[0].get("factors"),
        "rounds": len(plain[0]["rounds"]),
        "final_nodes": plain[0]["final_nodes"],
    }
    scale = host_scale(calibrations)
    if trace:
        measured = metrics.per_layer(traced_pass, None, scale)
        report["layers"] = metrics.layer_table(traced_pass, scale)
    else:
        measured = metrics.sim_end_to_end(plain, scale)
    attempted = len(first)
    return metrics.RunResult(measured, attempted, failed, problems, report)
