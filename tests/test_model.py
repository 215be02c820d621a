import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wynercache.model import (
    BadEpsilon,
    Bitstring,
    CachePlacement,
    ConfigError,
    DemandVector,
    LengthMismatch,
    MessageLibrary,
    NetworkConfig,
    NonPositivePower,
    OddKForFullModel,
    SimError,
    Variant,
    ZeroCrossGain,
    random_library,
    to_json,
    validate_config,
)


def from_bits(bits: str) -> Bitstring:
    """The bitstring written out in ``bits``, most significant bit first."""
    return Bitstring(len(bits), int(bits, 2) if bits else 0)


class TestValidateConfig:
    def test_valid_soft_config(self):
        cfg = NetworkConfig.soft_handoff(6, 1.0, 100.0, 0.05)
        validate_config(cfg)  # no exception

    def test_zero_cross_gain(self):
        gains = [1.0, 1.0, 0.0, 1.0, 1.0, 1.0]
        cfg = NetworkConfig.soft_handoff(6, gains, 100.0, 0.05)
        with pytest.raises(ZeroCrossGain):
            validate_config(cfg)

    def test_odd_k_for_full_model(self):
        cfg = NetworkConfig.full(7, 0.5, 100.0, 0.05)
        with pytest.raises(OddKForFullModel):
            validate_config(cfg)

    def test_non_positive_power(self):
        cfg = NetworkConfig.soft_handoff(6, 1.0, 0.0, 0.05)
        with pytest.raises(NonPositivePower):
            validate_config(cfg)

    def test_bad_epsilon(self):
        with pytest.raises(BadEpsilon):
            validate_config(NetworkConfig.soft_handoff(6, 1.0, 100.0, 1.5))
        with pytest.raises(BadEpsilon):
            validate_config(NetworkConfig.soft_handoff(6, 1.0, 0.04, 0.05))
        with pytest.raises(BadEpsilon):
            validate_config(NetworkConfig.soft_handoff(6, 1.0, 100.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_named(self, bad):
        cases = [
            (NetworkConfig.soft_handoff(6, [1, bad, 1, 1, 1, 1], 100.0), ConfigError, "alpha_2"),
            (NetworkConfig.full(6, bad, 100.0), ConfigError, "alpha_1"),
            (NetworkConfig.soft_handoff(6, 1.0, bad), ConfigError, "power"),
            (NetworkConfig.soft_handoff(6, 1.0, 100.0, bad), BadEpsilon, "eps"),
        ]
        for cfg, error, field in cases:
            with pytest.raises(error, match=field):
                validate_config(cfg)

    def test_k_too_small(self):
        with pytest.raises(ConfigError):
            validate_config(NetworkConfig.soft_handoff(2, 1.0, 100.0))

    def test_gain_count_must_match_variant(self):
        cfg = NetworkConfig(Variant.SOFT_HANDOFF, 6, (1.0, 1.0), 100.0, 0.05)
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_alpha_min(self):
        cfg = NetworkConfig.soft_handoff(4, [2.0, -0.5, 1.0, 3.0], 100.0)
        assert cfg.alpha_min == 0.5
        assert NetworkConfig.soft_handoff(4, 2.0, 100.0).alpha_min == 1.0


class TestRandomLibrary:
    def test_deterministic_given_seed(self):
        a = random_library(6, 40, seed=1)
        b = random_library(6, 40, seed=1)
        assert a.payloads == b.payloads

    def test_different_seeds_differ(self):
        a = random_library(6, 40, seed=1)
        b = random_library(6, 40, seed=2)
        assert a.payloads != b.payloads

    def test_shape(self):
        lib = random_library(2, 5 * 8, seed=7, allow_small_d=True)
        assert lib.num_files == 2
        assert all(p.length == 40 for p in lib)

    def test_small_library_gated(self):
        with pytest.raises(SimError):
            random_library(2, 40, seed=7)

    def test_bad_args(self):
        with pytest.raises(SimError):
            random_library(1, 40, seed=0, allow_small_d=True)
        with pytest.raises(SimError):
            random_library(6, 0, seed=0)

    def test_equal_libraries_hash_equal(self):
        # the hash is cached per library; equality still compares the payloads
        a = random_library(6, 40, seed=1)
        hash(a)
        b = MessageLibrary(tuple(Bitstring(p.length, p.value) for p in a))
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
        assert a != random_library(6, 40, seed=2)


class TestBitstring:
    def test_xor_self_inverse(self):
        s = from_bits("10110010")
        assert s ^ s == Bitstring.zeros(8)

    def test_xor_identity(self):
        s = from_bits("10110010")
        assert s ^ Bitstring.zeros(8) == s

    def test_xor_definition(self):
        assert (from_bits("1010") ^ from_bits("0110")).bits() == "1100"

    def test_xor_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            Bitstring.zeros(4) ^ Bitstring.zeros(5)

    @given(st.integers(1, 64), st.data())
    def test_xor_involution(self, length, data):
        a = Bitstring(length, data.draw(st.integers(0, 2**length - 1)))
        b = Bitstring(length, data.draw(st.integers(0, 2**length - 1)))
        assert a ^ b ^ b == a

    def test_split_concat_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = Bitstring.random(30, rng)
            assert Bitstring.concat_all(s.split(5)) == s

    def test_split_order_is_msb_first(self):
        s = from_bits("11110000")
        hi, lo = s.split(2)
        assert hi.bits() == "1111" and lo.bits() == "0000"

    def test_split_requires_divisibility(self):
        with pytest.raises(LengthMismatch):
            Bitstring.zeros(10).split(3)

    def test_hex_bytes_roundtrip(self):
        rng = np.random.default_rng(1)
        s = Bitstring.random(24, rng)
        assert Bitstring.from_bytes(s.to_bytes()) == s

    def test_value_out_of_range(self):
        with pytest.raises(SimError):
            Bitstring(3, 8)


class TestDemandVector:
    def test_checked_happy(self):
        d = DemandVector.checked([1, 2, 3], 3, 6)
        assert d.for_rx(2) == 2
        assert list(d) == [1, 2, 3]

    def test_checked_length(self):
        with pytest.raises(SimError):
            DemandVector.checked([1, 2], 3, 6)

    def test_checked_range(self):
        with pytest.raises(SimError):
            DemandVector.checked([1, 2, 7], 3, 6)


class TestCachePlacement:
    PARTS = {1: (Bitstring(8, 0), Bitstring(8, 0)), 3: (Bitstring(8, 0), Bitstring(8, 5))}

    def test_total_bits(self):
        placement = CachePlacement(self.PARTS, {1: (1,), 2: (2,)})
        assert placement.bits_per_receiver == 16

    def test_duplicate_entry_rejected(self):
        with pytest.raises(SimError):
            CachePlacement(self.PARTS, {1: (1, 1)})

    def test_asymmetric_memory_rejected(self):
        with pytest.raises(SimError):
            CachePlacement(self.PARTS, {1: (1,), 2: (1, 2)})

    @pytest.mark.parametrize("label", [0, 3])
    def test_label_outside_parts_rejected(self, label):
        with pytest.raises(SimError):
            CachePlacement(self.PARTS, {1: (1,), 2: (label,)})

    def test_lookup(self):
        placement = CachePlacement(self.PARTS, {1: (2,)})
        assert placement.lookup(1, 3, 2) == Bitstring(8, 5)
        assert placement.lookup(1, 3, 1) is None


class TestToJson:
    def test_record_fields_in_declaration_order(self):
        cfg = NetworkConfig.soft_handoff(5, (1.0, 0.5, 2.0, 0.8, 1.5), 10.0)
        assert list(to_json(cfg).items()) == [
            ("variant", "soft"),
            ("k", 5),
            ("gains", [1.0, 0.5, 2.0, 0.8, 1.5]),
            ("power", 10.0),
            ("epsilon", 0.05),
        ]

    def test_nested_records_tuples_and_none(self):
        placement = CachePlacement({2: (Bitstring(3, 5),)}, {1: (1,)})
        assert to_json(placement) == {
            "parts": {"2": [{"length": 3, "value": 5}]},
            "labels": {"1": [1]},
        }
        assert to_json(((1, 2), None, [Variant.FULL])) == [[1, 2], None, ["full"]]

    def test_int_keys_sorted_as_str(self):
        doc = to_json({10: 1.0, 2: (3,), 1: None})
        assert list(doc.items()) == [("1", None), ("2", [3]), ("10", 1.0)]

    def test_str_keys_keep_their_order(self):
        assert list(to_json({"b": 1, "a": (2,)}).items()) == [("b", 1), ("a", [2])]
