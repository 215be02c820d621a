"""Cache-aided interference mitigation for circular Wyner cellular networks.

Exact protocol simulation of the receiver-caching schemes for the soft-handoff
and full interference models, plus closed-form evaluation of the achievable
and upper-bound per-user multiplexing-gain/memory tradeoff curves.
"""

from .model import (
    BadEpsilon,
    Bitstring,
    CachePlacement,
    ConfigError,
    DemandVector,
    LengthMismatch,
    MessageLibrary,
    NetworkConfig,
    NonPositivePower,
    OddKForFullModel,
    SimError,
    Variant,
    ZeroCrossGain,
    random_library,
    validate_config,
)
from .schemes import (
    Ideal,
    MonteCarlo,
    SchemePoint,
    SimResult,
    augment_prop1,
    rate_full,
    rate_soft,
    round_robin_soft,
    run_full,
    run_soft,
    run_soft_prop1,
    time_share,
    verify_schedule,
)
from .tradeoff import empirical_mg

__version__ = "0.1.0"

__all__ = [
    "BadEpsilon",
    "Bitstring",
    "CachePlacement",
    "ConfigError",
    "DemandVector",
    "Ideal",
    "LengthMismatch",
    "MessageLibrary",
    "MonteCarlo",
    "NetworkConfig",
    "NonPositivePower",
    "OddKForFullModel",
    "SchemePoint",
    "SimError",
    "SimResult",
    "Variant",
    "ZeroCrossGain",
    "augment_prop1",
    "empirical_mg",
    "random_library",
    "rate_full",
    "rate_soft",
    "round_robin_soft",
    "run_full",
    "run_soft",
    "run_soft_prop1",
    "time_share",
    "validate_config",
    "verify_schedule",
]
