"""Closed-form per-user multiplexing-gain tradeoff curves.

Curves are functions of the normalized cache size x = mu/D, so the library
size never enters the evaluation. Breakpoints are kept in exact rational
arithmetic; floats appear only when sampling for export.

Every curve is min{2/3 + c*x, 1 + x}, with its corner at x = (1/3)/(c - 1):

Soft handoff:  achievable c = 3/2 (corner 2/3), upper bound c = 3;
               tight for x >= 2/3.
Full model:    achievable c = 4/3 (corner 1), upper bound c = 6;
               tight for x >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .model import SimError, Variant

Ratio = Union[int, float, Fraction]

ACHIEVABLE = "achievable"
UPPER_BOUND = "upper_bound"


class NegativeRatio(SimError):
    pass


def _ratio(x: Ratio) -> Fraction:
    try:
        f = Fraction(x)
    except (OverflowError, ValueError):  # inf and NaN have no ratio
        raise SimError(f"normalized cache size must be finite, got {x}") from None
    if f < 0:
        raise NegativeRatio(f"normalized cache size must be nonnegative, got {x}")
    return f


# the slope c of each curve's cache-limited piece, 2/3 + c*x
_SLOPES = {
    (Variant.SOFT_HANDOFF, ACHIEVABLE): Fraction(3, 2),
    (Variant.SOFT_HANDOFF, UPPER_BOUND): Fraction(3),
    (Variant.FULL, ACHIEVABLE): Fraction(4, 3),
    (Variant.FULL, UPPER_BOUND): Fraction(6),
}


def _mg(variant: Variant, kind: str, x: Ratio) -> Fraction:
    r = _ratio(x)
    return min(Fraction(2, 3) + _SLOPES[variant, kind] * r, 1 + r)


def achievable(variant: Variant, x: Ratio) -> Fraction:
    return _mg(variant, ACHIEVABLE, x)


def upper_bound(variant: Variant, x: Ratio) -> Fraction:
    return _mg(variant, UPPER_BOUND, x)


def empirical_mg(rate: float, power: float) -> float:
    """Per-user multiplexing gain of a rate at a finite power: R / (0.5*log2(1+P))."""
    if power <= 0:
        raise SimError(f"power must be positive, got {power}")
    return rate / (0.5 * math.log2(1.0 + power))


def breakpoints(variant: Variant, kind: str) -> tuple[tuple[Fraction, Fraction], ...]:
    """Exact (x, S) corners of the requested piecewise-linear curve."""
    if (variant, kind) not in _SLOPES:
        raise SimError(f"unknown curve kind {kind!r}")
    # the crossing of the two affine pieces: 2/3 + c*x = 1 + x
    corner = Fraction(1, 3) / (_SLOPES[variant, kind] - 1)
    return ((Fraction(0), Fraction(2, 3)), (corner, 1 + corner))


@dataclass(frozen=True)
class TradeoffCurve:
    variant: Variant
    kind: str
    samples: tuple[tuple[float, float], ...]  # (x, S), sorted by x

    def __post_init__(self) -> None:
        xs = [x for x, _ in self.samples]
        if xs != sorted(xs):
            raise SimError("curve samples must be sorted by x")


def curve(variant: Variant, kind: str, n_points: int, x_max: Ratio) -> TradeoffCurve:
    """Sample a curve on [0, x_max], always including its exact breakpoints."""
    if n_points < 2:
        raise SimError(f"need at least 2 sample points, got {n_points}")
    x_hi = _ratio(x_max)
    grid = {Fraction(i) * x_hi / (n_points - 1) for i in range(n_points)}
    grid.update(x for x, _ in breakpoints(variant, kind) if x <= x_hi)
    samples = tuple((float(x), float(_mg(variant, kind, x))) for x in sorted(grid))
    return TradeoffCurve(variant, kind, samples)
