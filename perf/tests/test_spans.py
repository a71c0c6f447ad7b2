"""Self-time arithmetic and shim installation/restoration."""

import types

import pytest

import spans
from spans import LayerTrace, Tracer, self_times, shims


def test_self_time_subtracts_nested_children():
    rows = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("b", 5.0, 7.0, 0),
        ("a", 8.0, 9.5, 0),
    ]
    table = self_times(rows)
    assert table["root"] == {"self_s": 10.0 - 3.0 - 2.0 - 1.5, "total_s": 10.0, "calls": 1}
    assert table["a"] == {"self_s": 2.0 + 1.5, "total_s": 4.5, "calls": 2}
    assert table["leaf"] == {"self_s": 1.0, "total_s": 1.0, "calls": 1}
    assert table["b"]["self_s"] == 2.0
    total_self = sum(entry["self_s"] for entry in table.values())
    assert total_self == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    rows = [
        ("root", 0.0, 10.0, -1),
        ("x", 1.0, 5.0, 0),
        ("y", 3.0, 6.0, 0),
        ("z", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(rows)["root"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_parents_from_call_nesting():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda value: value + 1)
    outer = tracer.wrap("outer", lambda value: inner(inner(value)))
    assert outer(1) == 3
    assert tracer.spans() == [
        ("outer", 0.0, 5.0, -1),
        ("inner", 1.0, 2.0, 0),
        ("inner", 3.0, 4.0, 0),
    ]


def test_tracer_closes_span_when_the_call_raises():
    tracer = Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("fail", fail)()
    ((name, start, end, parent),) = tracer.spans()
    assert (name, parent) == ("fail", -1) and end >= start
    assert tracer.wrap("after", lambda: None)() is None
    assert tracer.spans()[-1][3] == -1


class _Thing:
    def method(self):
        return "class"


def test_shims_restore_module_class_and_instance_attributes():
    module = types.ModuleType("fake")
    module.function = lambda: "module"
    thing = _Thing()
    thing.own = lambda: "instance"
    originals = (module.function, vars(_Thing)["method"], thing.own)
    with pytest.raises(RuntimeError):
        with shims([
            (module, "function", lambda: "shim"),
            (_Thing, "method", lambda self: "shim"),
            (thing, "own", lambda: "shim"),
            (thing, "method", lambda: "instance shim"),
        ]):
            assert module.function() == "shim"
            assert _Thing().method() == "shim"
            assert thing.own() == "shim" and thing.method() == "instance shim"
            raise RuntimeError("leave the block abnormally")
    assert (module.function, vars(_Thing)["method"], thing.own) == originals
    assert "method" not in vars(thing)
    assert thing.method() == "class"


def _entry_point_snapshot():
    import importlib

    snapshot = {}
    for module_name, attribute, _name in spans.MODULE_ENTRY_POINTS:
        module = importlib.import_module(module_name)
        snapshot[(module_name, attribute)] = getattr(module, attribute)
    for module_name, class_name, attribute, _name in spans.CLASS_ENTRY_POINTS:
        cls = getattr(importlib.import_module(module_name), class_name)
        snapshot[(class_name, attribute)] = vars(cls)[attribute]
    engine = importlib.import_module("repro.service.engine")
    snapshot[("engine", "Package")] = engine.Package
    snapshot[("engine", "execute_job")] = engine.execute_job
    return snapshot


def test_layer_trace_restores_every_entry_point(tmp_path):
    from repro.dd.package import Package
    from repro.service import ArtifactStore

    before = _entry_point_snapshot()
    package = Package()
    store = ArtifactStore(str(tmp_path / "store"))
    package_methods = {name: getattr(package, name) for name, _ in spans.PACKAGE_ENTRY_POINTS}
    with LayerTrace(package=package, store=store):
        during = _entry_point_snapshot()
        assert all(during[key] is not before[key] for key in before)
        assert "put_result" in vars(store)
    assert _entry_point_snapshot() == before
    assert {name: getattr(package, name) for name in package_methods} == package_methods
    assert package.cache_stats()["counting"] is False
    assert not set(vars(store)) & set(spans.STORE_ENTRY_POINTS)


def test_layer_trace_times_a_simulation_and_counts_dd_work():
    from repro.core import MemoryDrivenStrategy, simulate
    from repro.dd.package import Package
    from repro.service import build_builtin_circuit

    circuit = build_builtin_circuit("qsup_3x3_8_0")
    package = Package()
    with LayerTrace(package=package) as trace:
        outcome = simulate(circuit, MemoryDrivenStrategy(64, 0.975), package=package)
    layers = trace.layers()
    assert layers["core.simulate"]["calls"] == 1
    assert layers["circuits.lower"]["calls"] == len(circuit)
    assert layers["dd.multiply_mv"]["calls"] == len(circuit)
    assert layers["core.approx.round"]["calls"] == outcome.stats.num_rounds > 0
    assert trace.dd["vnodes_created"] > 0
    assert sum(trace.dd["cache"]["mv"]) > 0
