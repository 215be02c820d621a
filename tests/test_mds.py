import itertools

import numpy as np
import pytest

from randbits import random_bits
from wynercache.model import Bitstring, LengthMismatch
from wynercache.schemes import TooFewParts, mds, mds_decode, mds_encode


def _random_parts(count, bits, seed):
    rng = np.random.default_rng(seed)
    return [random_bits(bits, rng) for _ in range(count)]


def _gf_mul(a, b):
    """a * b in GF(256) modulo x^8 + x^4 + x^3 + x^2 + 1 (0x11D), by carry-less shift and add."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
    return product


def test_product_table_is_the_field_product():
    want = [[_gf_mul(a, b) for b in range(256)] for a in range(256)]
    assert mds._MUL.dtype == np.uint8
    assert mds._MUL.tolist() == want


class TestEncode:
    def test_zero_data_gives_zero_parities(self):
        data = [Bitstring.zeros(16) for _ in range(3)]
        coded = mds_encode(data)
        assert len(coded) == 5
        assert all(c == Bitstring.zeros(16) for c in coded)

    def test_systematic_prefix(self):
        data = _random_parts(5, 40, seed=0)
        coded = mds_encode(data)
        assert coded[:5] == data

    def test_mixed_lengths_rejected(self):
        with pytest.raises(LengthMismatch):
            mds_encode([Bitstring.zeros(8), Bitstring.zeros(16)])

    def test_unaligned_rejected(self):
        with pytest.raises(LengthMismatch):
            mds_encode([Bitstring.zeros(12), Bitstring.zeros(12)])

    def test_empty_rejected(self):
        with pytest.raises(TooFewParts):
            mds_encode([])


class TestDecode:
    def test_erase_two_specific(self):
        # K = 5: erase coded parts 1 and 4, recover the data
        data = _random_parts(3, 24, seed=1)
        coded = mds_encode(data)
        available = {i + 1: coded[i] for i in range(5) if i + 1 not in (1, 4)}
        assert mds_decode(available, 5) == data

    @pytest.mark.parametrize("k_total", [5, 7, 8])
    def test_all_two_erasure_patterns(self, k_total):
        data = _random_parts(k_total - 2, 40, seed=k_total)
        coded = mds_encode(data)
        for erased in itertools.combinations(range(1, k_total + 1), 2):
            available = {i: coded[i - 1] for i in range(1, k_total + 1) if i not in erased}
            assert mds_decode(available, k_total) == data

    def test_single_erasure_patterns(self):
        data = _random_parts(5, 16, seed=9)
        coded = mds_encode(data)
        for erased in range(1, 8):
            available = {i: coded[i - 1] for i in range(1, 8) if i != erased}
            assert mds_decode(available, 7) == data

    def test_no_erasures(self):
        data = _random_parts(4, 16, seed=3)
        coded = mds_encode(data)
        assert mds_decode({i + 1: c for i, c in enumerate(coded)}, 6) == data

    def test_too_few_parts(self):
        data = _random_parts(3, 16, seed=4)
        coded = mds_encode(data)
        with pytest.raises(TooFewParts):
            mds_decode({1: coded[0], 2: coded[1]}, 5)

    def test_bad_index(self):
        data = _random_parts(3, 16, seed=5)
        coded = mds_encode(data)
        available = {i + 1: coded[i] for i in range(3)}
        available[9] = coded[0]
        with pytest.raises(Exception):
            mds_decode(available, 5)
