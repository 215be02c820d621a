"""Closed-form scheme rates, the Ideal rate check, and the paper's two
combinators on (rate, memory) points: universal extra caching (prop-1) and
time sharing.

All rates are per user in bits per channel use; memory is normalized the same
way (cache bits divided by the block length).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..codec import capacity
from ..model import NetworkConfig, SimError, Variant
from .schedule import NEEDED, PERIODS


def rate_soft(cfg: NetworkConfig) -> float:
    """Per-user message rate of the soft-handoff scheme:
    (5/3) * 0.5*log2(1 + alpha_min^2 * (P - eps)) - 5*eps."""
    snr = cfg.alpha_min**2 * (cfg.power - cfg.epsilon)
    return (5.0 / 3.0) * 0.5 * math.log2(1.0 + snr) - 5.0 * cfg.epsilon


def rate_full(cfg: NetworkConfig) -> float:
    """Per-user message rate of the full-model scheme: 2*(0.5*log2(1+P-eps) - eps)."""
    return 2.0 * (0.5 * math.log2(1.0 + cfg.power - cfg.epsilon) - cfg.epsilon)


class InfeasibleRate(SimError):
    """Some Ideal link of the scheme fails at this power and epsilon."""


def check_ideal_rate(cfg: NetworkConfig) -> float:
    """Return the scheme's rate, or raise ``InfeasibleRate`` if an Ideal link would fail.
    Every link runs at periods * rate / needed, and the weakest has gain alpha_min
    (soft: each link has gain 1 or a cross gain alpha_rx) or 1 (full)."""
    soft = cfg.variant is Variant.SOFT_HANDOFF
    rate = rate_soft(cfg) if soft else rate_full(cfg)
    at = f"{cfg.variant.value} scheme rate {rate:.6g} at P={cfg.power:g}, eps={cfg.epsilon:g}"
    if rate < 0:
        raise InfeasibleRate(f"{at} is negative; raise the power or lower epsilon")
    link_rate = PERIODS[cfg.variant] * rate / NEEDED[cfg.variant]
    if not link_rate < capacity(cfg.alpha_min if soft else 1.0, cfg.power - cfg.epsilon):
        raise InfeasibleRate(f"{at} puts its weakest link at capacity: eps is lost to rounding")
    return rate


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
