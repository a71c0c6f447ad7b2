"""Tolerance-aware handling of complex edge weights.

Decision diagrams only stay compact if numerically-equal edge weights are
recognized as equal.  Following the complex-value table of Zulehner,
Hillmich, and Wille ("How to efficiently handle complex values?  Implementing
decision diagrams for quantum computing", ICCAD 2019), we bucket complex
values onto a tolerance grid before using them in hash keys.  Two weights
that fall into the same bucket are treated as identical for the purpose of
node unification, which keeps rounding noise from blowing up the diagram.

The module also provides *snapping*: pulling weights that are within
tolerance of the exact constants 0, 1, -1, i, and -i onto those constants.
Snapping keeps the most frequent weights bit-exact, which maximizes sharing
and keeps probabilities normalized over long gate sequences.
"""

from __future__ import annotations

import cmath

#: Default tolerance used to decide whether two edge weights are equal.
#: The value mirrors the default of the JKQ/MQT decision-diagram package.
DEFAULT_TOLERANCE = 1e-10

_tolerance = DEFAULT_TOLERANCE
_inv_tolerance = 1.0 / DEFAULT_TOLERANCE

#: Exact constants that weights are snapped to when within tolerance.
_SNAP_TARGETS = (
    complex(0.0, 0.0),
    complex(1.0, 0.0),
    complex(-1.0, 0.0),
    complex(0.0, 1.0),
    complex(0.0, -1.0),
)


def set_tolerance(tolerance: float) -> None:
    """Set the global weight tolerance.

    Args:
        tolerance: New tolerance; must be positive and sensibly small
            (values above 0.1 would merge genuinely distinct amplitudes).

    Raises:
        ValueError: If ``tolerance`` is not in ``(0, 0.1]``.
    """
    global _tolerance, _inv_tolerance
    if not 0.0 < tolerance <= 0.1:
        raise ValueError(f"tolerance must be in (0, 0.1], got {tolerance}")
    _tolerance = tolerance
    _inv_tolerance = 1.0 / tolerance


def tolerance() -> float:
    """Return the current global weight tolerance."""
    return _tolerance


def weight_key(weight: complex) -> tuple[int, int]:
    """Bucket a complex weight onto the tolerance grid for hashing.

    Weights whose real and imaginary parts round to the same grid cells
    receive identical keys.  Weights within tolerance of each other may
    still land in adjacent cells; this merely loses a little sharing and
    never produces incorrect results.
    """
    return (round(weight.real * _inv_tolerance), round(weight.imag * _inv_tolerance))


def approx_equal(a: complex, b: complex) -> bool:
    """Return True if two weights are equal within the global tolerance."""
    return abs(a - b) <= _tolerance


def is_zero(weight: complex) -> bool:
    """Return True if a weight is zero within the global tolerance."""
    return abs(weight.real) <= _tolerance and abs(weight.imag) <= _tolerance


def is_one(weight: complex) -> bool:
    """Return True if a weight is one within the global tolerance."""
    return abs(weight.real - 1.0) <= _tolerance and abs(weight.imag) <= _tolerance


def snap(weight: complex) -> complex:
    """Snap a weight to the nearest exact constant if within tolerance.

    Only the constants 0, ±1, and ±i are snapped; all other values are
    returned unchanged.  Snapping the high-traffic constants keeps them
    bit-exact across arithmetic, which is what makes unique-table hits
    reliable for the vast majority of edges in structured circuits.
    """
    for target in _SNAP_TARGETS:
        if abs(weight - target) <= _tolerance:
            return target
    return weight


_T_ZERO, _T_ONE, _T_NEG_ONE, _T_I, _T_NEG_I = _SNAP_TARGETS


def snap_boxed(w: complex, tol: float) -> complex:
    """:func:`snap` with cheap box prefilters (hot-path variant).

    ``snap`` compares ``abs(w - target)`` against the tolerance for all
    five targets — five complex subtractions and five hypots per
    weight, on *every* interned edge.  This version first runs per-axis
    interval tests on ``w.real`` / ``w.imag`` (plain float compares, no
    allocation); only a box hit falls through to the *same* complex
    comparison ``snap`` performs, so every snap decision is bit-for-bit
    identical.  Two facts make the restructuring safe:

    * the circle test implies the box test, so the prefilter never
      rejects a weight ``snap`` would have accepted;
    * targets are at least 1.0 apart and ``set_tolerance`` caps the
      tolerance at 0.1, so at most one target can match and the
      first-match order of ``_SNAP_TARGETS`` cannot matter.

    Non-snappable weights (the common case) exit after at most four
    float compares.  The tolerance is an explicit argument so backends
    can hoist the global lookup out of their hot loops.
    """
    im = w.imag
    if -tol <= im <= tol:
        re = w.real
        if -tol <= re <= tol:
            if abs(w - _T_ZERO) <= tol:
                return _T_ZERO
        elif 1.0 - tol <= re <= 1.0 + tol:
            if abs(w - _T_ONE) <= tol:
                return _T_ONE
        elif -1.0 - tol <= re <= -1.0 + tol:
            if abs(w - _T_NEG_ONE) <= tol:
                return _T_NEG_ONE
    else:
        re = w.real
        if -tol <= re <= tol:
            if 1.0 - tol <= im <= 1.0 + tol:
                if abs(w - _T_I) <= tol:
                    return _T_I
            elif -1.0 - tol <= im <= -1.0 + tol:
                if abs(w - _T_NEG_I) <= tol:
                    return _T_NEG_I
    return w


def phase_of(weight: complex) -> complex:
    """Return the unit-magnitude phase factor of a nonzero weight."""
    magnitude = abs(weight)
    if magnitude == 0.0:
        raise ValueError("phase of zero weight is undefined")
    return weight / magnitude


def polar_deg(weight: complex) -> tuple[float, float]:
    """Return ``(magnitude, phase-in-degrees)`` — used by the DOT export."""
    magnitude, phase = cmath.polar(weight)
    return magnitude, phase * 180.0 / cmath.pi
