"""Random Gaussian shell codebooks with nearest-neighbor decoding, plus the
ideal capacity-threshold link abstraction.

Shell codewords are rescaled to exact empirical power, so the block-power
constraint holds deterministically rather than just almost surely. The
rescale runs in place over blocks of rows, so its temporaries stay in cache;
it does the same arithmetic as ``np.linalg.norm``, and codewords are
bit-identical to a whole-matrix rescale.

Nearest-neighbor decoding screens, then rescores. Since
``||y - g c||^2 = ||y||^2 + g^2 ||c||^2 - 2g <c, y>``, one mat-vec against the
codebook's cached squared row norms scores every word up to the common
``||y||^2``. Every word whose score lies within a rigorous floating-point error
bound of the best score is a candidate, and only the candidates are rescored
with the exact distance expression. The bound covers the rounding of both the
screen and the exact expression, so the word that wins the exact comparison
over the whole codebook is always a candidate, and the decision, lowest-index
tie-break included, is the same as scoring every word exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import SimError

# Exhaustive nearest-neighbor decoding stays tractable at desk scale.
MAX_CODEBOOK_BITS = 20

# Rows normalised per step of draw_codebook: 256 rows of a few hundred uses
# keep the squared-row temporary within the L2 cache.
_NORM_BLOCK = 256

_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_TINY = np.finfo(float).smallest_normal
# Screening is only used while every intermediate stays far from overflow.
_SCREEN_MAX = 2.0**1000


class TooManyWords(SimError):
    pass


@dataclass(frozen=True, eq=False)
class Codebook:
    """2^L codewords indexed by L-bit integers, each with exact empirical power."""

    words: np.ndarray  # shape (num_words, n_uses)
    power: float

    @property
    def n_uses(self) -> int:
        return self.words.shape[1]

    @property
    def num_words(self) -> int:
        return self.words.shape[0]

    @functools.cached_property
    def sq_norms(self) -> np.ndarray:
        """Squared Euclidean norm of every codeword, computed once per codebook."""
        return np.einsum("ij,ij->i", self.words, self.words)


def draw_codebook(n_uses: int, bits: int, power: float, seed: int) -> Codebook:
    """Draw 2^bits Gaussian-direction vectors, each rescaled to empirical power ``power``."""
    if bits > MAX_CODEBOOK_BITS:
        raise TooManyWords(f"codebook of 2^{bits} words exceeds the 2^{MAX_CODEBOOK_BITS} cap")
    if n_uses < 1 or bits < 1:
        raise SimError(f"need n_uses >= 1 and bits >= 1, got {n_uses}, {bits}")
    if power < 0:
        raise SimError(f"negative codeword power {power}")
    rng = np.random.default_rng(seed)
    words = rng.standard_normal((1 << bits, n_uses))
    radius = math.sqrt(power * n_uses)
    for start in range(0, words.shape[0], _NORM_BLOCK):
        rows = words[start : start + _NORM_BLOCK]
        rows *= (radius / np.sqrt(np.add.reduce(rows * rows, axis=1)))[:, None]
    return Codebook(words=words, power=power)


def _distances(y: np.ndarray, words: np.ndarray, gain: float) -> np.ndarray:
    return np.sum((y[None, :] - gain * words) ** 2, axis=1)


def nn_decode(y: np.ndarray, cb: Codebook, gain: float) -> int:
    """argmin over codewords c of ||y - gain*c||^2; ties break to the lowest index."""
    y = np.asarray(y, dtype=float)
    if y.shape != (cb.n_uses,):
        raise SimError(f"received block of shape {y.shape}, codebook expects ({cb.n_uses},)")
    g = float(gain)
    max_sq_norm = float(cb.sq_norms.max())
    scale = float(y @ y) + g * g * max_sq_norm
    if not scale < _SCREEN_MAX:  # also catches NaN and inf
        return int(np.argmin(_distances(y, cb.words, gain)))
    scores = (g * g) * cb.sq_norms - (2.0 * g) * (cb.words @ y)
    # Each n-term sum, dot product and norm is off by at most gamma * (sum of
    # the magnitudes of its terms), whatever the summation order; both the
    # screen score and the exact distance of a word are then within
    # 4 * gamma * (||y||^2 + g^2 ||c||^2) of the true value. The factor 8
    # absorbs the rounding of the norms used here, and the _TINY term bounds
    # the absolute error of products that underflow.
    n = cb.n_uses
    gamma = (n + 8) * _UNIT_ROUNDOFF / (1.0 - (n + 8) * _UNIT_ROUNDOFF)
    slack = 8.0 * gamma * scale + (n + 8) * _TINY * (1.0 + abs(g)) ** 2 * (1.0 + max_sq_norm)
    candidates = np.flatnonzero(scores <= scores.min() + 2.0 * slack)
    return int(candidates[np.argmin(_distances(y, cb.words[candidates], gain))])


def capacity(gain: float, power: float) -> float:
    """Interference-free AWGN capacity 0.5 * log2(1 + gain^2 * power), unit noise."""
    if power < 0:
        raise SimError(f"negative power {power}")
    return 0.5 * math.log2(1.0 + gain * gain * power)


@dataclass(frozen=True)
class LinkBudget:
    gain: float
    rate: float  # bits per channel use attempted on the link
    power: float
    noise_var: float = 1.0

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise SimError(f"negative link rate {self.rate}")


def ideal_link(link: LinkBudget) -> bool:
    """Asymptotic link abstraction: success iff rate is strictly below capacity."""
    return link.rate < capacity(link.gain, link.power)
