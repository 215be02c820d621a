"""Random Gaussian shell codebooks with nearest-neighbor decoding, plus the
interference-free capacity that the Ideal rate check compares link rates with.

A shell codebook holds 2^L words drawn independently and uniformly on the
sphere of radius sqrt(n P'), one per transmitter of a period from one
generator. Only the sent word is an explicit n-vector: the channel carries it
and receivers cancel it from cache. Every other word is independent of all
that is received, and a nearest-neighbor decoder sees it only through its
inner products with the vectors y_r of the one or two receivers that decode
the codebook. In an orthonormal frame whose first vectors span those y_r, such
a word's first two coordinates are exactly sqrt(n P') (a, b) / sqrt(a^2 + b^2
+ chi^2) with a, b ~ N(0, 1) and chi^2 ~ chi^2(n - 2) independent (sqrt(P')
sign(a) for n = 1): three random numbers per word instead of n, and the same
joint law for every decision, drawn by ``nn_decode`` as it scores a chunk of
codebooks. Each word keeps its index, so a wrong decision decodes a real
index's bits. The frame comes from a QR factorisation of (y_1, y_2): the
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

# Decoding a chunk of codebooks holds at most four float64 values per word at
# once, 32 B: two normals, chi^2 and a sum of squares while drawing, then two
# coordinates and one receiver's scores. A budget of 128 MiB per chunk allows
# 2^22 words: L <= 22, and a chunk of 2^(22 - L) codebooks.
MAX_CODEBOOK_BITS = 22


class TooManyWords(SimError):
    pass


class FloatOverflow(SimError):
    """A Monte-Carlo run whose codewords or decoder scores overflow float64."""


def check_codebook_bits(bits: int) -> None:
    """Raise ``TooManyWords`` for a codebook of more than 2^MAX_CODEBOOK_BITS words."""
    if bits > MAX_CODEBOOK_BITS:
        raise TooManyWords(f"codebook of 2^{bits} words exceeds the 2^{MAX_CODEBOOK_BITS} cap")


@dataclass(frozen=True, eq=False)
class Codebooks:
    """A shell codebook of 2^bits words per row, of which only the sent word is drawn yet."""

    sent: np.ndarray  # shape (rows,): the index of each row's sent word, -1 if silent
    word: np.ndarray  # shape (rows, n_uses): the sent codewords
    bits: int
    radius: float  # sqrt(n_uses * power), the norm of every word
    rng: np.random.Generator  # drew ``word``; draws the other words' coordinates

    @property
    def n_uses(self) -> int:
        return self.word.shape[1]

    @property
    def num_words(self) -> int:  # in all rows that send
        return int(np.count_nonzero(self.sent >= 0)) << self.bits


def draw_codebook(
    n_uses: int, bits: int, power: float, seed: int, sent: Sequence[int], cap: float
) -> Codebooks:
    """Draw a codebook of 2^bits shell codewords of power ``power`` per entry of ``sent``.

    Row i sends word ``sent[i]``, or zeros for -1, at a block power of at most
    ``cap``: where rounding puts it above, the radius steps down one float at a time. A radius
    past float64 raises ``FloatOverflow``.
    """
    sent = np.asarray(sent, dtype=np.int64)
    check_codebook_bits(bits)
    if n_uses < 1 or bits < 1 or sent.ndim != 1 or np.any((sent < -1) | (sent >> bits > 0)):
        raise SimError(f"need n_uses, bits >= 1 and sent < 2^bits, got {n_uses}, {bits}, {sent}")
    if not 0 <= power <= cap:
        raise SimError(f"codeword power {power} outside [0, {cap}]")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal((len(sent), n_uses))
    direction /= np.sqrt(np.einsum("ij,ij->i", direction, direction))[:, None]
    radius = math.sqrt(n_uses * power)
    if not math.isfinite(radius):
        raise FloatOverflow(f"codewords of power {power:g} over {n_uses} uses have a radius past float64")
    step = np.where(sent[:, None] < 0, 0.0, radius)
    word = step * direction
    while (over := ~check_power(word, cap).ok).any():
        step[over] = np.nextafter(step[over], 0.0)
        word = step * direction
    return Codebooks(sent, word, bits, radius, rng)


def _coords(cb: Codebooks, count: int) -> np.ndarray:
    """Frame coordinates of the words of ``count`` codebooks, shape (count, 2^bits, min(n, 2))."""
    g = cb.rng.standard_normal((count, 1 << cb.bits, min(cb.n_uses, 2)))
    if cb.n_uses == 1:
        return np.copysign(cb.radius, g)
    # chi^2 = 2 gamma((n - 2) / 2), plus g0^2 + g1^2: two floats per word besides g
    norm2 = g[..., 0] * g[..., 0]
    scale = g[..., 1] * g[..., 1]
    norm2 += scale
    cb.rng.standard_gamma((cb.n_uses - 2) / 2, out=scale)
    scale *= 2.0
    scale += norm2
    np.divide(cb.radius, np.sqrt(scale, out=scale), out=scale)
    g *= scale[..., None]
    return g


def nn_decode(
    cb: Codebooks, rows: Sequence[int], received: np.ndarray, gains: np.ndarray
) -> np.ndarray:
    """Per row and receiver, argmin over words c of ||y - gain*c||^2; ties go to the lowest index.

    ``received[i]`` holds the blocks of the one or two receivers that decode
    row ``rows[i]``, in rx order, and ``gains[i]`` their gains on it; together
    they fix the frame. Returns the guesses, shaped like ``gains``.
    """
    rows, g = np.asarray(rows, dtype=np.intp), np.asarray(gains, dtype=float)
    ys = np.asarray(received, dtype=float)
    if ys.ndim != 3 or ys.shape[::2] != (len(rows), cb.n_uses) or g.shape != ys.shape[:2]:
        raise SimError(f"blocks of shape {ys.shape} for {len(rows)} codebooks of {cb.n_uses} uses")
    if not 1 <= g.shape[1] <= 2:
        raise SimError(f"{g.shape[1]} receivers per codebook; a frame takes one or two")
    r = np.linalg.qr(ys.transpose(0, 2, 1), mode="r")
    yy = np.einsum("irn,irn->ir", ys, ys)
    word = cb.word[rows]
    ww, wy = np.einsum("in,in->i", word, word)[:, None], np.einsum("in,irn->ir", word, ys)
    sent_dist = yy + g * g * ww - 2.0 * g * wy
    base = yy + g * g * (cb.radius * cb.radius)
    guesses = np.empty(g.shape, dtype=np.int64)
    chunk = max(1, (1 << MAX_CODEBOOK_BITS) >> cb.bits)
    for at in range(0, len(rows), chunk):
        part = slice(at, at + chunk)
        coords = _coords(cb, len(rows[part]))[..., : r.shape[1]]
        for col in range(g.shape[1]):
            if r.shape[1] == 1:  # one frame axis: a product, not a (2^L x 1) @ (1 x 1) matmul
                dist = coords[..., 0] * r[part, 0, col, None]
            else:
                dist = (coords @ r[part, :, col, None])[..., 0]
            dist *= 2.0 * g[part, col, None]
            np.subtract(base[part, col, None], dist, out=dist)
            dist[np.arange(len(dist)), cb.sent[rows[part]]] = sent_dist[part, col]
            guesses[part, col] = np.argmin(dist, axis=1)
        del coords, dist  # before the next chunk is drawn
    return guesses


def capacity(gain: float, power: float) -> float:
    """Interference-free AWGN capacity 0.5 * log2(1 + gain^2 * power), unit noise."""
    if power < 0:
        raise SimError(f"negative power {power}")
    return 0.5 * math.log2(1.0 + gain * gain * power)

