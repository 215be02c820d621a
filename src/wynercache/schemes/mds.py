"""Systematic (K, K-2) maximum-distance-separable erasure code over GF(256).

Coded part i (1-based) equals data part i for i <= K-2; part K-1 is the XOR
parity P and part K the weighted parity Q = sum g^(i-1) * d_i with generator
g = 2. Any K-2 of the K coded parts reconstruct the data, byte-wise. The
weighted parity needs distinct generator powers per data part, which caps the
code at 255 data parts (K <= 257).

The decode is linear over GF(256), byte by byte, and fixed by the erasure
pattern alone: each data part is one available part or a GF(256) combination
of them (``gf_dot``). A caller whose patterns are known before the data, as
round robin's are at placement, can decode the identity once per pattern and
apply the resulting recipe to every later delivery.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..model import Bitstring, LengthMismatch, SimError

MAX_K = 257
_PRIMITIVE_POLY = 0x11D
_GENERATOR = 2

_EXP = np.zeros(512, dtype=np.uint8)
_LOG = np.zeros(256, dtype=np.int32)
_MUL = np.zeros((256, 256), dtype=np.uint8)  # _MUL[a][b] = a * b; _MUL[c][vec] scales a byte vector


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


def _gf_inv(c: int) -> int:
    if c == 0:
        raise SimError("inverse of 0 in GF(256)")
    return int(_EXP[255 - _LOG[c]])


def gf_dot(coefficients: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """XOR over j of coefficients[..., j] * rows[..., j, :] in GF(256), both uint8 and broadcast."""
    return np.bitwise_xor.reduce(_MUL[coefficients[..., None], rows], axis=-2)


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
    rows = _as_byte_rows(data_parts)
    p_parity = np.bitwise_xor.reduce(rows, axis=0)
    weights = _gen_pow(np.arange(len(rows)))
    q_parity = gf_dot(weights, rows)
    return [*data_parts, Bitstring.from_bytes(p_parity.tobytes()), Bitstring.from_bytes(q_parity.tobytes())]


def mds_decode(available: Mapping[int, Bitstring], k_total: int) -> list[Bitstring]:
    """Recover the K-2 data parts from any K-2 coded parts (1-based indices)."""
    if not 3 <= k_total <= MAX_K:
        raise SimError(f"K={k_total} outside 3..{MAX_K}")
    n_data = k_total - 2
    if len(available) < n_data:
        raise TooFewParts(f"need {n_data} parts, got {len(available)}")
    for idx in available:
        if not 1 <= idx <= k_total:
            raise SimError(f"part index {idx} outside 1..{k_total}")

    missing_data = [i for i in range(1, n_data + 1) if i not in available]
    if not missing_data:
        return [available[i] for i in range(1, n_data + 1)]

    order = sorted(available)
    labels, rows = np.array(order), _as_byte_rows([available[i] for i in order])
    data = labels <= n_data
    # with the known data parts XORed out: P' = XOR of the missing data parts and
    # Q' = sum of g^(i-1) d_i over the missing i
    p_acc = np.bitwise_xor.reduce(rows[data | (labels == k_total - 1)], axis=0)
    weights = np.where(data, _gen_pow(labels - 1), labels == k_total)
    q_acc = gf_dot(weights, rows)

    if len(missing_data) == 1:
        (a,) = missing_data
        if k_total - 1 in available:
            d_a = p_acc
        else:
            d_a = _MUL[_gf_inv(int(_gen_pow(a - 1)))][q_acc]
        recovered = {a: d_a}
    else:
        a, b = missing_data
        # solve P' = d_a ^ d_b and Q' = g^(a-1) d_a ^ g^(b-1) d_b
        g_a = int(_gen_pow(a - 1))
        g_b = int(_gen_pow(b - 1))
        d_b = _MUL[_gf_inv(g_a ^ g_b)][_MUL[g_a][p_acc] ^ q_acc]
        d_a = p_acc ^ d_b
        recovered = {a: d_a, b: d_b}

    part_bits = 8 * rows.shape[1]
    out = []
    for i in range(1, n_data + 1):
        if i in available:
            out.append(available[i])
        else:
            out.append(Bitstring.from_bytes(recovered[i].tobytes()))
        if out[-1].length != part_bits:
            raise LengthMismatch("inconsistent part lengths after decode")
    return out
