"""Tiny runs of every workload emit exactly the metrics BENCHMARK.json lists."""

import dataclasses
import shutil
import subprocess
import sys

import pytest

import common
import serving
import sim

DEFINITION = common.load_benchmark()


def _expected(trace):
    section = DEFINITION["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def _check(result, trace):
    assert {name: unit for name, (_v, unit) in result.metrics.items()} == _expected(trace)
    assert result.problems == [] and result.failed == 0 and result.attempted > 0
    assert all(isinstance(value, (int, float)) for value, _unit in result.metrics.values())


@pytest.fixture(scope="module")
def engine():
    common.require_source()
    return common.stamp(0)["engine"]


TINY_SIM = [
    sim.SimWorkload(
        name="tiny_shor", circuit="shor_15_2", strategy="fidelity",
        strategy_args={"final_fidelity": 0.5, "round_fidelity": 0.9,
                       "placement": "block:inverse_qft"},
        shor=(15, 2), factors=(3, 5), min_fidelity=0.5,
    ),
    sim.SimWorkload(
        name="tiny_qsup", circuit="qsup_3x3_8_{seed}", strategy="memory",
        strategy_args={"threshold": 64, "round_fidelity": 0.975},
    ),
]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", TINY_SIM, ids=lambda w: w.name)
def test_tiny_simulation_run(workload, trace, engine, tmp_path):
    result = sim.measure(workload, 0, 0.0, trace, tmp_path, engine)
    _check(result, trace)
    if trace:
        assert result.metrics["trace.unattributed_frac"][0] < 0.03
        assert result.metrics["service.store.put_result.calls"][0] == 0


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_serving_run(trace, engine, tmp_path, monkeypatch):
    monkeypatch.chdir(common.ROOT)  # the daemon socket path is root-relative
    workload = dataclasses.replace(serving.WORKLOAD, max_requests=10)
    result = serving.measure(workload, 0, 60.0, trace, tmp_path, engine)
    _check(result, trace)
    if trace:
        assert result.metrics["service.store.put_result.calls"][0] > 0
        assert result.metrics["serve.cached_frac"][0] > 0
    else:
        assert result.report["requests"] == 10


def test_a_tree_without_the_package_source_refuses_to_run(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        common.ROOT / "perf", tmp_path / "perf",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "shor_fidelity",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
