"""Signal-level propagation for both circular network variants.

Receivers are indexed 1..K; arrays are 0-based internally. Circular wrap
conventions: X_0 = X_K (both variants) and X_{K+1} = X_1 (full variant).
Noise streams are derived per receiver from the given seed, so results do not
depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import LengthMismatch, SimError

Samples = np.ndarray


def _as_matrix(inputs: Sequence[Samples]) -> np.ndarray:
    lengths = {len(b) for b in inputs}
    if len(lengths) != 1:
        raise LengthMismatch(f"signal blocks have mixed lengths {sorted(lengths)}")
    return np.asarray(inputs, dtype=float)


def _noise(seed: int, k: int, n: int) -> np.ndarray:
    streams = np.random.SeedSequence(seed).spawn(k)
    return np.stack([np.random.default_rng(s).standard_normal(n) for s in streams])


def transmit_soft(
    inputs: Sequence[Samples],
    gains: Sequence[float],
    noise_seed: int = 0,
    noiseless: bool = False,
) -> list[Samples]:
    """Y_k = X_k + alpha_k * X_{k-1} + Z_k with circular wrap X_0 = X_K."""
    x = _as_matrix(inputs)
    k, n = x.shape
    if len(gains) != k:
        raise LengthMismatch(f"{len(gains)} gains for {k} transmitters")
    g = np.asarray(gains, dtype=float)
    y = x + g[:, None] * np.roll(x, 1, axis=0)
    if not noiseless:
        y = y + _noise(noise_seed, k, n)
    return list(y)


def transmit_full(
    inputs: Sequence[Samples],
    gain: float,
    noise_seed: int = 0,
    noiseless: bool = False,
) -> list[Samples]:
    """Y_k = X_k + alpha * (X_{k-1} + X_{k+1}) + Z_k with circular wrap."""
    x = _as_matrix(inputs)
    k, n = x.shape
    y = x + gain * (np.roll(x, 1, axis=0) + np.roll(x, -1, axis=0))
    if not noiseless:
        y = y + _noise(noise_seed, k, n)
    return list(y)


@dataclass(frozen=True)
class PowerCheck:
    ok: bool
    measured: float


def block_power(block: Samples) -> float:
    block = np.asarray(block, dtype=float)
    if block.size == 0:
        raise SimError("empty signal block")
    return float(np.mean(block**2))


def check_power(block: Samples, power: float) -> PowerCheck:
    """Average block-power test (1/n) sum x^2 <= P; violation is data, not an exception."""
    measured = block_power(block)
    return PowerCheck(measured <= power, measured)


def cancel_known(y: Samples, gain: float, known: Samples) -> Samples:
    """Subtract a known interferer's contribution: y - gain * known, elementwise."""
    y = np.asarray(y, dtype=float)
    known = np.asarray(known, dtype=float)
    if y.shape != known.shape:
        raise LengthMismatch(f"cancel shapes {y.shape} vs {known.shape}")
    return y - gain * known

