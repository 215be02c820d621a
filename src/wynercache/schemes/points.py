"""Closed-form scheme rates, the Ideal rate check, and the paper's two
combinators on (rate, memory) points: universal extra caching (prop-1) and
time sharing.

All rates are per user in bits per channel use; memory is normalized the same
way (cache bits divided by the block length).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..codec import capacity
from ..model import NetworkConfig, SimError, Variant

if TYPE_CHECKING:
    from .pipeline import _Skeleton


def rate_soft(cfg: NetworkConfig, gain: float) -> float:
    """Per-user message rate of the soft-handoff scheme whose weakest scheduled link has ``gain``:
    (5/3) * 0.5*log2(1 + gain^2 * (P - eps)) - 5*eps."""
    snr = gain**2 * (cfg.power - cfg.epsilon)
    return float((5.0 / 3.0) * 0.5 * math.log2(1.0 + snr) - 5.0 * cfg.epsilon)


def rate_full(cfg: NetworkConfig) -> float:
    """Per-user message rate of the full-model scheme: 2*(0.5*log2(1+P-eps) - eps)."""
    return 2.0 * (0.5 * math.log2(1.0 + cfg.power - cfg.epsilon) - cfg.epsilon)


class InfeasibleRate(SimError):
    """Some Ideal link of the scheme fails at this power and epsilon."""


def check_ideal_rate(cfg: NetworkConfig, skel: _Skeleton) -> float:
    """The scheme's rate on the run's skeleton or plan ``skel``, or ``InfeasibleRate`` where an Ideal
    link fails. A link carries one of a payload's ``needed`` parts in one of ``base_periods`` periods,
    at periods * rate / needed, and hears its own Tx at gain 1 or, at a receiver in ``skel.heard``,
    the previous Tx at its cross gain: the weakest scheduled link sets the rate, not an unheard gain."""
    cross = [abs(cfg.gains[rx]) for rx in skel.heard]
    gain = min([1.0, *cross])
    rate = rate_soft(cfg, gain) if cfg.variant is Variant.SOFT_HANDOFF else rate_full(cfg)
    if rate >= 0 and skel.base_periods * rate / skel.needed < capacity(gain, cfg.power - cfg.epsilon):
        return rate
    at = f"{cfg.variant.value} scheme rate {rate:.6g} at P={cfg.power:g}, eps={cfg.epsilon:g}"
    if rate < 0:
        raise InfeasibleRate(f"{at} is negative; raise the power or lower epsilon")
    link = f"into receiver {skel.heard[cross.index(gain)] + 1} at gain {gain:g}" if gain < 1 else "at gain 1"
    raise InfeasibleRate(f"{at} puts its weakest link, {link}, at capacity: eps is lost to rounding")


@dataclass(frozen=True)
class SchemePoint:
    """An achievable (rate, memory) operating point, both per user."""

    rate: float
    memory: float

    def __post_init__(self) -> None:
        if self.rate < 0 or self.memory < 0:
            raise SimError(f"scheme point must be nonnegative, got ({self.rate}, {self.memory})")


def augment_prop1(base: SchemePoint, delta: float, num_files: int) -> SchemePoint:
    """Cache an extra rate-delta/D submessage of every file at every receiver:
    (R, M) becomes (R + delta/D, M + delta)."""
    if delta < 0:
        raise SimError(f"negative augmentation {delta}")
    return SchemePoint(base.rate + delta / num_files, base.memory + delta)


def time_share(a: SchemePoint, b: SchemePoint, lam: float) -> SchemePoint:
    """Convex combination of two operating points with weight ``lam`` on ``a``."""
    if not 0 <= lam <= 1:
        raise SimError(f"time-share fraction {lam} outside [0, 1]")
    return SchemePoint(lam * a.rate + (1 - lam) * b.rate, lam * a.memory + (1 - lam) * b.memory)
