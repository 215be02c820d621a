import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdsoracle import solve_decode
from randbits import random_bits
from wynercache.model import Bitstring, LengthMismatch, SimError
from wynercache.schemes import TooFewParts, mds, mds_decode, mds_encode
from wynercache.schemes.mds import MAX_K


def _random_parts(count, bits, seed):
    rng = np.random.default_rng(seed)
    return [random_bits(bits, rng) for _ in range(count)]


def _byte_rows(parts):
    return np.array([np.frombuffer(p.to_bytes(), np.uint8) for p in parts])


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

    def test_encode_k_within_the_field(self):
        with pytest.raises(SimError, match=f"^K={MAX_K + 1} exceeds the GF\\(256\\) limit of {MAX_K}$"):
            mds_encode([Bitstring.zeros(8)] * (MAX_K - 1))

    @pytest.mark.parametrize("k_total", [2, MAX_K + 1])
    def test_decode_k_within_the_field(self, k_total):
        with pytest.raises(SimError, match=f"^K={k_total} outside 3..{MAX_K}$"):
            mds_decode({1: Bitstring.zeros(8)}, k_total)

    def test_bad_index(self):
        data = _random_parts(3, 16, seed=5)
        coded = mds_encode(data)
        available = {i + 1: coded[i] for i in range(3)}
        available[9] = coded[0]
        with pytest.raises(Exception):
            mds_decode(available, 5)

    def test_no_erasure_still_checks_lengths(self):
        # every data part held: the parts are decoded, so mixed or unaligned lengths are rejected
        with pytest.raises(LengthMismatch):
            mds_decode({1: Bitstring.zeros(8), 2: Bitstring.zeros(16), 3: Bitstring.zeros(8)}, 5)
        with pytest.raises(LengthMismatch):
            mds_decode({i: Bitstring.zeros(12) for i in range(1, 6)}, 5)

    def test_more_parts_decode_from_the_lowest_labels(self):
        # data part 1 erased, Q wrong: the K - 2 lowest labels (2..K-1) use P alone
        data = _random_parts(4, 24, seed=6)
        coded = mds_encode(data)
        available = {i + 1: c for i, c in enumerate(coded) if i}
        available[6] = Bitstring.zeros(24)
        assert mds_decode(available, 6) == data


@st.composite
def _collections(draw):
    """K and the coded parts (1-based, ascending) collected: any K - 2 of them, or more."""
    k = draw(st.integers(3, 40))
    erased = draw(st.sets(st.integers(1, k), min_size=0, max_size=2))
    return k, tuple(i for i in range(1, k + 1) if i not in erased)


class TestDecodeMatchesTheSolve:
    """``mds_decode`` and the closed-form recipe decode what the part-by-part solve decodes."""

    @settings(max_examples=200, deadline=None)
    @given(_collections(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @example((MAX_K, tuple(range(3, MAX_K + 1))), 6, 0)  # two data parts missing
    @example((MAX_K, tuple(range(1, MAX_K - 1))), 1, 1)  # both parities missing
    @example((MAX_K, tuple(i for i in range(1, MAX_K + 1) if i not in (7, MAX_K))), 3, 2)  # Q missing
    @example((MAX_K, tuple(i for i in range(1, MAX_K + 1) if i not in (7, MAX_K - 1))), 2, 3)  # P missing
    @example((MAX_K, tuple(range(2, MAX_K + 1))), 4, 4)  # one more than K - 2
    @example((3, (3,)), 5, 5)  # K = 3: the one data part from Q
    def test_decodes_match(self, collection, part_bytes, seed):
        k, labels = collection
        data = _random_parts(k - 2, 8 * part_bytes, seed)
        coded = mds_encode(data)
        rows = _byte_rows(coded)
        want = solve_decode({i: rows[i - 1] for i in labels}, k)
        assert want.tolist() == _byte_rows(data).tolist()
        assert _byte_rows(mds_decode({i: coded[i - 1] for i in labels}, k)).tolist() == want.tolist()
        lowest = np.array(labels[: k - 2])
        got = mds.decode_recipe([lowest], k).apply(rows[lowest - 1][:, None])[:, 0]
        assert got.tolist() == want.tolist()
