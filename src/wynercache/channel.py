"""Signal-level propagation for both circular network variants.

Receivers are indexed 1..K; arrays are 0-based internally. Circular wrap
conventions: X_0 = X_K (both variants) and X_{K+1} = X_1 (full variant).
The noise of all K receivers is one K x n block from one generator seeded
with the given seed: receiver k's noise is row k, whoever transmits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import LengthMismatch, SimError

Samples = np.ndarray


def _as_matrix(inputs: Sequence[Samples]) -> np.ndarray:
    if isinstance(inputs, np.ndarray) and inputs.dtype == float and inputs.ndim == 2 and len(inputs):
        return inputs  # a stack of blocks has one length
    lengths = {len(b) for b in inputs}
    if len(lengths) != 1:
        raise LengthMismatch(f"signal blocks have mixed lengths {sorted(lengths)}")
    return np.asarray(inputs, dtype=float)


def transmit_soft(inputs: Sequence[Samples], gains: Sequence[float], noise_seed: int = 0) -> np.ndarray:
    """Y_k = X_k + alpha_k * X_{k-1} + Z_k with circular wrap X_0 = X_K."""
    x = _as_matrix(inputs)
    k, n = x.shape
    if len(gains) != k:
        raise LengthMismatch(f"{len(gains)} gains for {k} transmitters")
    g = np.asarray(gains, dtype=float)
    y = x + g[:, None] * x[np.arange(-1, k - 1)]  # row k hears row k - 1
    y += np.random.default_rng(noise_seed).standard_normal((k, n))
    return y


def transmit_full(inputs: Sequence[Samples], gain: float, noise_seed: int = 0) -> np.ndarray:
    """Y_k = X_k + alpha * (X_{k-1} + X_{k+1}) + Z_k with circular wrap."""
    x = _as_matrix(inputs)
    k, n = x.shape
    y = x + gain * (x[np.arange(-1, k - 1)] + x[np.arange(1 - k, 1)])  # rows k - 1 and k + 1
    y += np.random.default_rng(noise_seed).standard_normal((k, n))
    return y


@dataclass(frozen=True)
class PowerCheck:
    ok: bool | np.ndarray  # one per row of a stack of blocks
    measured: float | np.ndarray


def block_power(block: Samples) -> float | np.ndarray:
    block = np.asarray(block, dtype=float)
    if block.size == 0:
        raise SimError("empty signal block")
    return np.add.reduce(block * block, axis=-1) / block.shape[-1]  # np.mean's sum and divide


def check_power(block: Samples, power: float) -> PowerCheck:
    """Average block-power test (1/n) sum x^2 <= P, per row of a stack; violation is data."""
    measured = block_power(block)
    return PowerCheck(measured <= power, measured)


def cancel_known(y: Samples, gain: float | np.ndarray, known: Samples) -> Samples:
    """Subtract known interference: y - gain * known, elementwise; ``gain`` may be one per row."""
    y = np.asarray(y, dtype=float)
    known = np.asarray(known, dtype=float)
    if y.shape != known.shape:
        raise LengthMismatch(f"cancel shapes {y.shape} vs {known.shape}")
    out = gain * known
    return np.subtract(y, out, out=out)

