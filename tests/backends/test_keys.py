"""Table-key edge cases, pinned against the reference engine.

The arena's C tables hold each weight bucket as an integral double and
compare keys bytewise; the reference engine keys dicts on tuples of
Python ints.  These cases are where the two representations could part:
a bucket that rounds to ``-0.0``, a bucket that is not finite, and
tables large enough to be rebuilt several times while they grow.
"""

from __future__ import annotations

import math

import pytest

from repro.circuits.circuit import Operation
from repro.circuits.lowering import operation_to_medge
from repro.dd import ctable
from repro.dd.node import VNode
from repro.dd.package import Package

BACKENDS = ("reference", "arena")

#: A weight component well inside the tolerance: ``x * inv_tolerance``
#: rounds to zero, from below for ``-TINY``.
TINY = ctable.tolerance() / 100


@pytest.mark.parametrize("backend", BACKENDS)
def test_negative_zero_weight_bucket_interns_the_positive_zero_node(backend):
    package = Package(backend=backend)
    # The second child weights' imaginary parts bucket to round(0.01) and
    # round(-0.01): 0 and -0.0 before they become ints.
    _w, above = package.make_vedge(0, (0.6 + 0j, None), (complex(0.8, TINY), None))
    _w, below = package.make_vedge(0, (0.6 + 0j, None), (complex(0.8, -TINY), None))
    assert below is above
    assert package.stats["vnodes_created"] == 1
    assert package.unique_table_sizes()["vector"] == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_negative_zero_ratio_bucket_hits_the_positive_zero_entry(backend):
    package = Package(backend=backend)
    package.enable_metrics()
    plus = package.make_vedge(0, (1 + 0j, None), (1 + 0j, None))[1]
    one = package.make_vedge(0, (0j, None), (1 + 0j, None))[1]
    first = package.vadd((1 + 0j, plus), (complex(0.5, TINY), one), 0)
    second = package.vadd((1 + 0j, plus), (complex(0.5, -TINY), one), 0)
    vadd = package.cache_stats()["caches"]["vadd"]
    assert (vadd["hits"], vadd["misses"]) == (1, 1)
    assert second == first


def _vector_operands(package: Package):
    plus = package.make_vedge(0, (1 + 0j, None), (1 + 0j, None))[1]
    one = package.make_vedge(0, (0j, None), (1 + 0j, None))[1]
    return plus, one


def _matrix_operands(package: Package):
    identity = package.identity(1)[1]
    hadamard = operation_to_medge(Operation("h", (0,)), 1, package)[1]
    return identity, hadamard


def _raised(call, *args) -> type[BaseException] | None:
    try:
        call(*args)
    except Exception as error:  # the type is what is compared
        return type(error)
    return None


@pytest.mark.parametrize(
    "w1, w2",
    [
        (1e-300 + 0j, 1e300 + 0j),  # the ratio's real part overflows
        (1e-300 + 0j, 1e300j),  # its imaginary part does
        (1 + 0j, complex(math.nan, 0.0)),
        (1 + 0j, complex(0.0, math.nan)),
        # Dividing by a real weight leaves inf * 0.0 = NaN in the other
        # part: an infinity before a NaN, and a NaN before an infinity.
        (1 + 0j, complex(math.inf, 0.0)),
        (1 + 0j, complex(0.0, math.inf)),
    ],
)
@pytest.mark.parametrize("operation", ["vadd", "madd"])
def test_non_finite_ratio_bucket_raises_alike(operation, w1, w2):
    raised = {}
    for backend in BACKENDS:
        package = Package(backend=backend)
        if operation == "vadd":
            a, b = _vector_operands(package)
            call = package.vadd
        else:
            a, b = _matrix_operands(package)
            call = package.madd
        raised[backend] = _raised(call, (w1, a), (w2, b), 0)
    assert raised["reference"] in (OverflowError, ValueError)
    assert raised["arena"] is raised["reference"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_foreign_nodes_neither_hit_nor_fill_a_cache_entry(backend):
    # Two hand-built leaves outside any arena share the index -1, so an
    # id-keyed cache would serve the first sum for the second.
    package = Package(backend=backend)
    one = package.make_vedge(0, (0j, None), (1 + 0j, None))[1]
    zero = VNode(0, ((1 + 0j, None), (0j, None)))
    tilted = VNode(0, ((0.6 + 0j, None), (0.8 + 0j, None)))
    assert zero.index == tilted.index == -1
    first = package.vadd((1 + 0j, zero), (1 + 0j, one), 0)
    second = package.vadd((1 + 0j, tilted), (1 + 0j, one), 0)
    assert first[0] == pytest.approx(math.sqrt(2))
    assert first[1].edges[0][0] == pytest.approx(math.sqrt(0.5))
    assert second[0] == pytest.approx(math.sqrt(3.6))
    assert [w for w, _n in second[1].edges] == pytest.approx(
        [0.6 / math.sqrt(3.6), 1.8 / math.sqrt(3.6)]
    )


def _intern_leaves(package: Package, total: int, stride: int = 1):
    step = (math.pi / 2) / total
    return [
        package.make_vedge(
            0,
            (complex(math.cos(k * step), 0.0), None),
            (complex(math.sin(k * step), 0.0), None),
        )
        for k in range(0, total, stride)
    ]


def test_many_distinct_nodes_agree_across_engines():
    """100k+ leaves: the arena's tables grow through many rebuilds."""
    total = 100_003
    observed = {}
    for backend in BACKENDS:
        package = Package(backend=backend)
        held = _intern_leaves(package, total)
        created = package.stats["vnodes_created"]
        # Interning every seventh leaf again finds it in the grown table.
        again = _intern_leaves(package, total, stride=7)
        observed[backend] = (
            created,
            package.stats["vnodes_created"],
            package.unique_table_sizes(),
            package.integrity_problems(),
            all(a[1] is h[1] for a, h in zip(again, held[::7], strict=True)),
        )
    assert observed["arena"] == observed["reference"]
    created, recreated, sizes, problems, found = observed["arena"]
    assert created == recreated == sizes["vector"] > 100_000
    assert problems == []
    assert found
