"""Systematic (K, K-2) maximum-distance-separable erasure code over GF(256).

Coded part i (1-based) equals data part i for i <= K-2; part K-1 is the XOR
parity P and part K the weighted parity Q = sum g^(i-1) * d_i with generator
g = 2 (RAID-6's P+Q code). Any K-2 of the K coded parts reconstruct the data,
byte-wise. The weighted parity needs distinct generator powers per data part,
which caps the code at 255 data parts (K <= 257).

The decode is linear over GF(256), byte by byte, and fixed by the erasure
pattern alone, so it is stated once, in closed form, as a ``Recipe``: each
data part is one collected part or a GF(256) combination of them (``gf_dot``).
``decode_recipe`` builds the recipes of many patterns in one array step; round
robin fixes its receivers' at placement and applies them to every delivery,
and ``mds_decode`` applies one to ``Bitstring`` parts. The encode is one array
step too: ``mds_rows`` codes the byte rows of every file at once, and
``mds_encode`` codes ``Bitstring`` parts through it. ``gf_dot`` multiplies
whole arrays by one ``np.take`` on the flat 64 KiB ``_MUL``, a * b at a << 8 | b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..model import Bitstring, LengthMismatch, SimError

MAX_K = 257
_PRIMITIVE_POLY = 0x11D
_GENERATOR = 2

_EXP = np.zeros(512, dtype=np.uint8)
_LOG = np.zeros(256, dtype=np.int32)
_MUL = np.zeros((256, 256), dtype=np.uint8)  # _MUL[a][b] = a * b, flat at a << 8 | b


def _init_tables() -> None:
    x = 1
    for i in range(255):
        _EXP[i] = x
        _LOG[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _PRIMITIVE_POLY
    _EXP[255:510] = _EXP[:255]
    for a in range(1, 256):  # row by row: a 255 x 255 temporary of log sums raises peak RSS
        _MUL[a, 1:] = _EXP[_LOG[a] + _LOG[1:]]


_init_tables()


class TooFewParts(SimError):
    pass


def _gen_pow(exponent: int | np.ndarray) -> np.uint8 | np.ndarray:
    """g^exponent in GF(256), elementwise."""
    return _EXP[(_LOG[_GENERATOR] * exponent) % 255]


def gf_dot(coefficients: np.ndarray, rows: np.ndarray, axis: int) -> np.ndarray:
    """XOR along ``axis`` of coefficients * rows in GF(256), both uint8 and broadcast."""
    return np.bitwise_xor.reduce(np.take(_MUL, coefficients.astype(np.uint16) << 8 | rows), axis=axis)


def _as_byte_rows(parts: Sequence[Bitstring]) -> np.ndarray:
    lengths = {p.length for p in parts}
    if len(lengths) != 1:
        raise LengthMismatch(f"mixed part lengths {sorted(lengths)}")
    if next(iter(lengths)) % 8 != 0:
        raise LengthMismatch("parts must be byte aligned")
    return np.array([np.frombuffer(p.to_bytes(), dtype=np.uint8) for p in parts])


def mds_encode(data_parts: Sequence[Bitstring]) -> list[Bitstring]:
    """Append the two parity parts; returns K = len(data_parts) + 2 coded parts."""
    if len(data_parts) < 1:
        raise TooFewParts("need at least one data part")
    k_total = len(data_parts) + 2
    if k_total > MAX_K:
        raise SimError(f"K={k_total} exceeds the GF(256) limit of {MAX_K}")
    *_, p_parity, q_parity = mds_rows(_as_byte_rows(data_parts))
    return [*data_parts, Bitstring.from_bytes(p_parity.tobytes()), Bitstring.from_bytes(q_parity.tobytes())]


def mds_rows(data: np.ndarray) -> np.ndarray:
    """The K coded parts of (..., K - 2, bytes) uint8 data parts: the data, then P and Q."""
    p_parity = np.bitwise_xor.reduce(data, axis=-2)
    q_parity = gf_dot(_gen_pow(np.arange(data.shape[-2]))[:, None], data, axis=-2)
    return np.concatenate((data, p_parity[..., None, :], q_parity[..., None, :]), axis=-2)


@dataclass(frozen=True, eq=False)
class Recipe:
    """Each receiver's decode, fixed by the K - 2 coded parts it collects: receiver r's data part i
    is its collected part ``keep[i, r]``, except the data parts ``fix[:, r]``, which are GF(256)
    combinations ``coef[:, :, r]`` of all its collected parts. A receiver misses at most two data
    parts; one that misses fewer also rebuilds held data parts, whose rows are unit rows."""

    keep: np.ndarray  # (K - 2, receivers): the collected part each data part passes through from
    fix: np.ndarray  # (min(2, K - 2), receivers): its missing data parts, then its held ones
    coef: np.ndarray  # (K - 2, min(2, K - 2), receivers) uint8: collected part j's weight in fix row m

    def apply(self, parts: np.ndarray) -> np.ndarray:
        """The (..., K - 2, receivers, bytes) uint8 data parts of the collected coded parts, same shape."""
        rx = np.arange(parts.shape[-2])
        data = parts[..., self.keep, rx, :]
        data[..., self.fix, rx, :] = gf_dot(self.coef[..., None], parts[..., None, :, :], axis=-4)
        return data


def decode_recipe(collected: Sequence[Sequence[int]] | np.ndarray, k: int) -> Recipe:
    """The ``Recipe`` of each receiver's K - 2 collected coded parts (1-based, ascending).

    With P' and Q' the parities with the held data parts XORed out, a missing data part x is
    lambda_P * P' ^ lambda_Q * Q'. The weights are (1, 0) when Q is missing; otherwise they are
    s^-1 * (s ^ g_x, 1), where s is the XOR of the missing parts' weights g^(i-1), P's being 0.
    """
    labels, n = np.asarray(collected, dtype=np.intp), k - 2
    rx = np.arange(len(labels))[:, None]
    held = np.zeros((len(labels), k + 1), dtype=bool)
    held[rx, labels] = True
    in_p = (labels < k).astype(np.uint8)  # each collected part's weight in P' and in Q'
    in_q = np.where(labels <= n, _gen_pow(labels - 1), labels == k).astype(np.uint8)
    s = np.bitwise_xor.reduce(np.where(held[:, 1 : n + 1], 0, _gen_pow(np.arange(n))), axis=1, keepdims=True)
    s_inv = _EXP[255 - _LOG[s]]  # s = 0 only when no data part is missing, and then no fix row reads it
    fix = np.argsort(held[:, 1 : n + 1], axis=1, kind="stable")[:, :2]  # missing first, ascending
    q_missing = ~held[:, k:]
    lam_p = np.where(q_missing, 1, _MUL[s_inv, s ^ _gen_pow(fix)])
    lam_q = np.where(q_missing, 0, s_inv)
    coef = _MUL[lam_p[..., None], in_p[:, None]] ^ _MUL[lam_q[..., None], in_q[:, None]]
    coef = np.where(held[rx, fix + 1][..., None], labels[:, None] == fix[..., None] + 1, coef)  # held: unit rows
    keep = (held[:, 1 : n + 1].cumsum(axis=1) - 1).clip(0)
    return Recipe(keep.T.copy(), fix.T.copy(), coef.transpose(2, 1, 0).copy())


def mds_decode(available: Mapping[int, Bitstring], k_total: int) -> list[Bitstring]:
    """Recover the K-2 data parts from any K-2 coded parts (1-based indices); given more, from
    the K-2 lowest."""
    if not 3 <= k_total <= MAX_K:
        raise SimError(f"K={k_total} outside 3..{MAX_K}")
    n_data = k_total - 2
    if len(available) < n_data:
        raise TooFewParts(f"need {n_data} parts, got {len(available)}")
    if bad := [idx for idx in available if not 1 <= idx <= k_total]:
        raise SimError(f"part index {bad[0]} outside 1..{k_total}")
    order = sorted(available)[:n_data]
    data = decode_recipe([order], k_total).apply(_as_byte_rows([available[i] for i in order])[:, None])
    return [Bitstring.from_bytes(row.tobytes()) for row in data[:, 0]]
