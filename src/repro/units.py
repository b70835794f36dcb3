"""Unit conventions and helpers used throughout the package.

All *times* are expressed in **seconds** as floats (the paper's task
periods span 25 microseconds to 1 minute, comfortably inside double
precision).  All *costs* are **dollars** as floats.  All *memory* sizes
are **bytes** as ints, and hardware *areas* are **gate equivalents** as
ints.  FPGA capacities are expressed in programmable functional units
(PFUs); :data:`GATES_PER_PFU` converts between the two conventions.

A tiny epsilon-aware comparison helper is provided because schedule
arithmetic chains many float additions and exact comparisons against
deadlines would be brittle.
"""

from __future__ import annotations

import math
from typing import Iterable

#: Seconds in common engineering sub-units, for readable literals.
US = 1e-6
MS = 1e-3

#: Kilobyte / megabyte in bytes (binary convention, matching datasheets).
KB = 1024
MB = 1024 * 1024

#: Gate equivalents represented by one programmable functional unit.
#: Mid-1990s FPGA marketing counted roughly 8-12 usable gates per
#: logic cell; we fix 10 for determinism.
GATES_PER_PFU = 10

#: Absolute slack below which two times are considered equal.
TIME_EPS = 1e-12

#: Hours in 1e9 hours -- FIT rates are failures per 1e9 hours.
FIT_HOURS = 1e9

#: Minutes per year, used for unavailability requirements (min/year).
MINUTES_PER_YEAR = 365.25 * 24 * 60


def time_leq(a: float, b: float) -> bool:
    """Return True when time ``a`` is earlier than or equal to ``b``,
    tolerating accumulated floating-point error.
    """
    return a <= b + TIME_EPS


def time_lt(a: float, b: float) -> bool:
    """Return True when time ``a`` is strictly earlier than ``b``
    beyond floating-point noise.
    """
    return a < b - TIME_EPS


def time_eq(a: float, b: float) -> bool:
    """Return True when two times are equal within tolerance."""
    return abs(a - b) <= TIME_EPS


def lcm_of(values: Iterable[int]) -> int:
    """Least common multiple of an iterable of positive integers.

    Used for hyperperiod computation once periods have been quantized
    onto an integer tick grid.
    """
    result = 1
    for value in values:
        if value <= 0:
            raise ValueError("lcm_of requires positive integers, got %r" % (value,))
        result = result * value // math.gcd(result, value)
    return result


def quantize(seconds: float, tick: float = US) -> int:
    """Quantize a duration in seconds onto an integer grid of ``tick``
    seconds, rounding to nearest.

    Periods are quantized before the hyperperiod LCM is taken so that
    nearly-harmonic float periods do not explode the hyperperiod.
    """
    if seconds <= 0:
        raise ValueError("cannot quantize non-positive duration %r" % (seconds,))
    ticks = int(round(seconds / tick))
    return max(ticks, 1)


def fit_to_lambda(fit: float) -> float:
    """Convert a failure-in-time rate (failures per 1e9 hours) to a
    per-hour exponential failure rate ``lambda``.
    """
    if fit < 0:
        raise ValueError("FIT rate must be non-negative, got %r" % (fit,))
    return fit / FIT_HOURS


def unavailability_to_fraction(minutes_per_year: float) -> float:
    """Convert an unavailability requirement expressed as minutes of
    downtime per year into a unitless unavailability fraction.
    """
    if minutes_per_year < 0:
        raise ValueError(
            "unavailability must be non-negative, got %r" % (minutes_per_year,)
        )
    return minutes_per_year / MINUTES_PER_YEAR
