"""Closed-form per-user multiplexing-gain tradeoff curves.

Curves are functions of the normalized cache size x = mu/D, so the library
size never enters the evaluation. Breakpoints are kept in exact rational
arithmetic; floats appear only when sampling for export.

Soft handoff:  achievable 2/3 + (3/2)x up to x = 2/3, then 1 + x;
               upper bound min{2/3 + 3x, 1 + x}; tight for x >= 2/3.
Full model:    achievable 2/3 + (4/3)x up to x = 1, then 1 + x;
               upper bound min{2/3 + 6x, 1 + x}; tight for x >= 1.
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


def s_soft_ach(x: Ratio) -> Fraction:
    r = _ratio(x)
    if r <= Fraction(2, 3):
        return Fraction(2, 3) + Fraction(3, 2) * r
    return 1 + r


def s_soft_ub(x: Ratio) -> Fraction:
    r = _ratio(x)
    return min(Fraction(2, 3) + 3 * r, 1 + r)


def s_full_ach(x: Ratio) -> Fraction:
    r = _ratio(x)
    if r <= 1:
        return Fraction(2, 3) + Fraction(4, 3) * r
    return 1 + r


def s_full_ub(x: Ratio) -> Fraction:
    r = _ratio(x)
    return min(Fraction(2, 3) + 6 * r, 1 + r)


def achievable(variant: Variant, x: Ratio) -> Fraction:
    return s_soft_ach(x) if variant is Variant.SOFT_HANDOFF else s_full_ach(x)


def upper_bound(variant: Variant, x: Ratio) -> Fraction:
    return s_soft_ub(x) if variant is Variant.SOFT_HANDOFF else s_full_ub(x)


def empirical_mg(rate: float, power: float) -> float:
    """Per-user multiplexing gain of a rate at a finite power: R / (0.5*log2(1+P))."""
    if power <= 0:
        raise SimError(f"power must be positive, got {power}")
    return rate / (0.5 * math.log2(1.0 + power))


def breakpoints(variant: Variant, kind: str) -> tuple[tuple[Fraction, Fraction], ...]:
    """Exact (x, S) corners of the requested piecewise-linear curve."""
    if kind == ACHIEVABLE:
        if variant is Variant.SOFT_HANDOFF:
            return ((Fraction(0), Fraction(2, 3)), (Fraction(2, 3), Fraction(5, 3)))
        return ((Fraction(0), Fraction(2, 3)), (Fraction(1), Fraction(2)))
    if kind == UPPER_BOUND:
        # The crossing of the two affine pieces: 2/3 + c*x = 1 + x.
        slope = 3 if variant is Variant.SOFT_HANDOFF else 6
        x_cross = Fraction(1, 3) / (slope - 1)
        return ((Fraction(0), Fraction(2, 3)), (x_cross, 1 + x_cross))
    raise SimError(f"unknown curve kind {kind!r}")


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
    fn = achievable if kind == ACHIEVABLE else upper_bound
    grid = {Fraction(i) * x_hi / (n_points - 1) for i in range(n_points)}
    grid.update(x for x, _ in breakpoints(variant, kind) if x <= x_hi)
    samples = tuple((float(x), float(fn(variant, x))) for x in sorted(grid))
    return TradeoffCurve(variant, kind, samples)
