"""The (K, K-2) MDS decode solved part by part: the oracle of ``mds.decode_recipe``.

It strips the held data parts out of both parities and solves the at most two
missing data parts from the 2 x 2 system P' = d_a ^ d_b, Q' = g_a d_a ^ g_b d_b.
"""

import numpy as np

from wynercache.schemes import mds


def _inverse(c: int) -> int:
    """c^-1 in GF(256), read off the product table."""
    return int(np.flatnonzero(mds._MUL[c] == 1)[0])


def solve_decode(available: dict[int, np.ndarray], k: int) -> np.ndarray:
    """The (K - 2, bytes) uint8 data parts from coded parts {1-based label: byte row}, any K - 2
    or more of them; every part it is given enters the parities' strip."""
    n = k - 2
    missing = [i for i in range(1, n + 1) if i not in available]
    labels = np.array(sorted(available))
    rows = np.array([available[i] for i in labels], dtype=np.uint8)
    data = labels <= n
    # with the known data parts XORed out: P' = XOR of the missing data parts and
    # Q' = sum of g^(i-1) d_i over the missing i
    p_acc = np.bitwise_xor.reduce(rows[data | (labels == k - 1)], axis=0)
    weights = np.where(data, mds._gen_pow(labels - 1), labels == k).astype(np.uint8)
    q_acc = mds.gf_dot(weights[:, None], rows, axis=0)
    recovered = {}
    if len(missing) == 1:
        (a,) = missing
        if k - 1 in available:
            recovered[a] = p_acc
        else:
            recovered[a] = mds._MUL[_inverse(int(mds._gen_pow(a - 1)))][q_acc]
    elif len(missing) == 2:
        a, b = missing
        g_a, g_b = int(mds._gen_pow(a - 1)), int(mds._gen_pow(b - 1))
        recovered[b] = mds._MUL[_inverse(g_a ^ g_b)][mds._MUL[g_a][p_acc] ^ q_acc]
        recovered[a] = p_acc ^ recovered[b]
    return np.array([recovered[i] if i in recovered else available[i] for i in range(1, n + 1)], dtype=np.uint8)
