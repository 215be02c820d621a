"""Random Gaussian shell codebooks with nearest-neighbor decoding, plus the
ideal capacity-threshold link abstraction.

A shell codebook holds 2^L words drawn independently and uniformly on the
sphere of radius sqrt(n P'). Only the sent word is an explicit n-vector: the
channel carries it and receivers cancel it from cache. Every other word is
independent of all that is received, and a nearest-neighbor decoder sees it
only through its inner products with the vectors y_r of the one or two
receivers that decode the codebook. In an orthonormal frame whose first
vectors span those y_r, such a word's first two coordinates are exactly
sqrt(n P') (a, b) / sqrt(a^2 + b^2 + chi^2) with a, b ~ N(0, 1) and
chi^2 ~ chi^2(n - 2) independent (sqrt(P') sign(a) for n = 1): three random
numbers per word instead of n, and the same joint law for every decision.
Each word keeps its index, so a wrong decision decodes a real index's bits.

``nn_decode`` takes the frame from a QR factorisation of (y_1, y_2): the
coordinates of y_r are column r of R. Every index is scored with the same
distance ||y||^2 + g^2 ||c||^2 - 2g <c, y>, the sent word with its explicit
inner product and norm; ties break to the lowest index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import check_power
from .model import SimError

# Drawing a codebook holds 3 * 2^L float64 values, 24 B per word (decoding
# adds two arrays of 2^L); a budget of 128 MiB per codebook allows
# 2^L <= 2^27 / 24, so L <= 22 (96 MiB).
MAX_CODEBOOK_BITS = 22


class TooManyWords(SimError):
    pass


@dataclass(frozen=True, eq=False)
class Codebook:
    """2^L shell codewords: the sent one explicit, every other one by its frame coordinates."""

    sent: int
    word: np.ndarray  # the sent codeword, shape (n_uses,)
    coords: np.ndarray  # shape (num_words, min(n_uses, 2)); row ``sent`` is not used
    sq_norm: float  # n_uses * power, the squared norm of every word not sent

    @property
    def n_uses(self) -> int:
        return self.word.shape[0]

    @property
    def num_words(self) -> int:
        return self.coords.shape[0]


def draw_codebook(
    n_uses: int, bits: int, power: float, seed: int, sent: int, cap: float
) -> Codebook:
    """Draw 2^bits shell codewords of power ``power``, of which word ``sent`` is explicit.

    The sent word's measured block power stays at most ``cap``: where rounding
    puts it above, its radius steps down one float at a time.
    """
    if bits > MAX_CODEBOOK_BITS:
        raise TooManyWords(f"codebook of 2^{bits} words exceeds the 2^{MAX_CODEBOOK_BITS} cap")
    if n_uses < 1 or bits < 1 or not 0 <= sent < 1 << bits:
        raise SimError(f"need n_uses, bits >= 1 and sent < 2^bits, got {n_uses}, {bits}, {sent}")
    if not 0 <= power <= cap:
        raise SimError(f"codeword power {power} outside [0, {cap}]")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(n_uses)
    direction /= math.sqrt(direction @ direction)
    radius = step = math.sqrt(n_uses * power)
    word = step * direction
    while not check_power(word, cap).ok:
        step = np.nextafter(step, 0.0)
        word = step * direction
    g = rng.standard_normal((1 << bits, min(n_uses, 2)))
    if n_uses == 1:
        coords = np.copysign(radius, g)
    else:
        chi2 = 2.0 * rng.standard_gamma((n_uses - 2) / 2, size=1 << bits)
        coords = g * (radius / np.sqrt(np.einsum("ij,ij->i", g, g) + chi2))[:, None]
    return Codebook(sent, word, coords, radius * radius)


def frame_inner(cb: Codebook, ys: np.ndarray) -> np.ndarray:
    """<c_j, y_r> for every word j (row ``sent`` aside) and every column y_r of ``ys``."""
    if ys.shape[0] != cb.n_uses or not 1 <= ys.shape[1] <= 2:
        raise SimError(f"received blocks of shape {ys.shape}, codebook expects ({cb.n_uses}, 1|2)")
    r = np.linalg.qr(ys, mode="r")
    return cb.coords[:, : r.shape[0]] @ r


def nn_decode(cb: Codebook, received: Sequence[np.ndarray], gains: Sequence[float]) -> list[int]:
    """Per receiver, argmin over codewords c of ||y - gain*c||^2; ties break to the lowest index.

    ``received`` holds the vector of every receiver that decodes ``cb``, in rx
    order, and ``gains`` their gains on it; together they fix the frame.
    """
    ys = np.stack([np.asarray(y, dtype=float) for y in received], axis=1)
    inner = frame_inner(cb, ys)
    guesses = []
    for col, g in enumerate(gains):
        y = ys[:, col]
        yy = float(y @ y)
        dist = (yy + g * g * cb.sq_norm) - (2.0 * g) * inner[:, col]
        dist[cb.sent] = yy + g * g * float(cb.word @ cb.word) - 2.0 * g * float(cb.word @ y)
        guesses.append(int(np.argmin(dist)))
    return guesses


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

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise SimError(f"negative link rate {self.rate}")


def ideal_link(link: LinkBudget) -> bool:
    """Asymptotic link abstraction: success iff rate is strictly below capacity."""
    return link.rate < capacity(link.gain, link.power)
