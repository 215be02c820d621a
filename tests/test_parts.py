import numpy as np
import pytest

from randbits import random_bits
from test_model import from_bits, to_bits
from wynercache.model import Bitstring
from wynercache.schemes import (
    BadLength,
    WrongPartCount,
    reconstruct_five,
    split_full,
    split_soft,
)


class TestSplitSoft:
    def test_all_zero(self):
        pm = split_soft(Bitstring.zeros(20))
        assert len(pm) == 6
        assert all(p == Bitstring.zeros(4) for p in pm)

    def test_parity_is_xor_of_data(self):
        # part 1 = 1010, parts 2..5 zero => parity = 1010
        msg = from_bits("1010" + "0000" * 4)
        pm = split_soft(msg)
        assert to_bits(pm[0]) == "1010"
        assert to_bits(pm[5]) == "1010"

    def test_concat_recovers_message(self):
        rng = np.random.default_rng(0)
        msg = random_bits(40, rng)
        pm = split_soft(msg)
        assert Bitstring.concat_all(pm[:5]) == msg

    def test_bad_length(self):
        with pytest.raises(BadLength):
            split_soft(Bitstring.zeros(7))


class TestReconstructFive:
    def test_drop_any_label(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            msg = random_bits(30, rng)
            pm = split_soft(msg)
            labelled = {i: pm[i - 1] for i in range(1, 7)}
            for dropped in range(1, 7):
                subset = {i: b for i, b in labelled.items() if i != dropped}
                assert reconstruct_five(subset) == msg

    def test_missing_part_equals_xor_of_present(self):
        # a receiver holding parts {1,3,4,5,6} recovers part 2 as their xor
        rng = np.random.default_rng(2)
        msg = random_bits(30, rng)
        pm = split_soft(msg)
        present = {i: pm[i - 1] for i in (1, 3, 4, 5, 6)}
        expected_part2 = (
            pm[0] ^ pm[2] ^ pm[3] ^ pm[4] ^ pm[5]
        )
        assert expected_part2 == pm[1]
        assert reconstruct_five(present) == msg

    def test_all_zero_parts(self):
        parts = {i: Bitstring.zeros(4) for i in (1, 2, 3, 4, 5)}
        assert reconstruct_five(parts) == Bitstring.zeros(20)

    def test_wrong_part_count(self):
        parts = {i: Bitstring.zeros(4) for i in (1, 2, 3, 4)}
        with pytest.raises(WrongPartCount):
            reconstruct_five(parts)
        with pytest.raises(WrongPartCount):
            reconstruct_five({i: Bitstring.zeros(4) for i in range(1, 7)})

    def test_label_out_of_range(self):
        parts = {i: Bitstring.zeros(4) for i in (1, 2, 3, 4, 7)}
        with pytest.raises(WrongPartCount):
            reconstruct_five(parts)


class TestSplitFull:
    def test_two_halves(self):
        msg = from_bits("11110000")
        pm = split_full(msg)
        assert to_bits(pm[0]) == "1111"
        assert to_bits(pm[1]) == "0000"
        assert pm[0].concat(pm[1]) == msg

    def test_bad_length(self):
        with pytest.raises(BadLength):
            split_full(Bitstring.zeros(5))
