"""Each receiver's cross gain and the Ideal rate check stated by model and by decode plan: the
oracles of ``points.check_ideal_rate``.

``ideal_rate`` is the check at a given weakest gain, with each model's periods and parts needed
read off tables and the closed forms in their float steps. ``by_model_check`` is the check
before the skeleton carried which gains its links hear: the weakest gain of a soft-handoff run
is min{1, |alpha_1|, ..., |alpha_K|}, every gain of the config, and that of a full-model run 1.
``scheduled_gain`` reads the weakest gain off a schedule's decode plans instead: min{1,
|alpha_rx|} over the receivers that decode a Tx other than their own. The two agree on every
config whose alpha_1 is not below min{1, |alpha_2|, ..., |alpha_K|}.
"""

import math

from wynercache.codec import capacity
from wynercache.model import NetworkConfig, Variant
from wynercache.schemes import DeliverySchedule, InfeasibleRate

PERIODS = {Variant.SOFT_HANDOFF: 3, Variant.FULL: 1}
NEEDED = {Variant.SOFT_HANDOFF: 5, Variant.FULL: 2}


def gain_at(cfg: NetworkConfig, rx: int) -> float:
    """Cross gain heard by receiver ``rx`` from its neighbours."""
    return cfg.gains[rx - 1] if cfg.variant is Variant.SOFT_HANDOFF else cfg.gains[0]


def alpha_min(cfg: NetworkConfig) -> float:
    """min{1, |alpha_1|, ..., |alpha_K|} over every cross gain of ``cfg``."""
    return min(1.0, min(abs(g) for g in cfg.gains))


def scheduled_gain(cfg: NetworkConfig, schedule: DeliverySchedule) -> float:
    """min{1, |alpha_rx|} over the receivers that a plan of ``schedule`` has decode another Tx."""
    return min([1.0] + [
        abs(gain_at(cfg, rx))
        for per in schedule.periods
        for rx, plan in per.rx_plans.items() if plan is not None and plan.source != rx
    ])


def ideal_rate(cfg: NetworkConfig, gain: float) -> float:
    """The scheme rate with its weakest link at ``gain``, or ``InfeasibleRate`` where that link
    runs at or above capacity."""
    if cfg.variant is Variant.SOFT_HANDOFF:
        snr = gain**2 * (cfg.power - cfg.epsilon)
        rate = (5.0 / 3.0) * 0.5 * math.log2(1.0 + snr) - 5.0 * cfg.epsilon
    else:
        rate = 2.0 * (0.5 * math.log2(1.0 + cfg.power - cfg.epsilon) - cfg.epsilon)
    if rate < 0:
        raise InfeasibleRate("negative rate")
    if not PERIODS[cfg.variant] * rate / NEEDED[cfg.variant] < capacity(gain, cfg.power - cfg.epsilon):
        raise InfeasibleRate("weakest link at capacity")
    return rate


def by_model_check(cfg: NetworkConfig) -> float:
    """The check that read the topology off the model: soft handoff's weakest gain over every alpha."""
    return ideal_rate(cfg, alpha_min(cfg) if cfg.variant is Variant.SOFT_HANDOFF else 1.0)
