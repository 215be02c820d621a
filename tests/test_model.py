import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from randbits import random_bits
from wynercache import model
from wynercache.model import (
    BadEpsilon,
    Bitstring,
    CachePlacement,
    ConfigError,
    ConfigMismatch,
    DemandVector,
    LengthMismatch,
    MessageLibrary,
    NetworkConfig,
    NonPositivePower,
    OddKForFullModel,
    SimError,
    Variant,
    ZeroCrossGain,
    entropy_words,
    random_library,
    seed_states,
    to_json,
    validate_config,
)
from wynercache.harness import ExperimentSpec
from wynercache.schemes import InfeasibleRate, check_ideal_rate, rate_full, rate_soft, run_soft
from wynercache.schemes.pipeline import skeleton, slot_length


def from_bits(bits: str) -> Bitstring:
    """The bitstring written out in ``bits``, most significant bit first."""
    return Bitstring(len(bits), int(bits, 2) if bits else 0)


def to_bits(b: Bitstring) -> str:
    """``b`` written out, most significant bit first: the inverse of ``from_bits``."""
    return format(b.value, f"0{b.length}b") if b.length else ""


class TestValidateConfig:
    def test_valid_soft_config(self):
        cfg = NetworkConfig.soft_handoff(6, 1.0, 100.0, 0.05)
        validate_config(cfg)  # a built config passes again: no exception

    def test_zero_cross_gain(self):
        gains = [1.0, 1.0, 0.0, 1.0, 1.0, 1.0]
        with pytest.raises(ZeroCrossGain):
            NetworkConfig.soft_handoff(6, gains, 100.0, 0.05)

    def test_odd_k_for_full_model(self):
        # the channel is well defined on odd K; only the full scheme's caching needs an even K, and
        # the run's skeleton, which reads the cache labels, rejects it
        cfg = NetworkConfig.full(7, 0.5, 100.0, 0.05)
        validate_config(cfg)
        with pytest.raises(OddKForFullModel, match="^full-model caching needs even K, got 7: "):
            skeleton(cfg)

    def test_non_positive_power(self):
        with pytest.raises(NonPositivePower):
            NetworkConfig.soft_handoff(6, 1.0, 0.0, 0.05)

    def test_bad_epsilon(self):
        with pytest.raises(BadEpsilon):
            NetworkConfig.soft_handoff(6, 1.0, 100.0, 1.5)
        with pytest.raises(BadEpsilon):
            NetworkConfig.soft_handoff(6, 1.0, 0.04, 0.05)
        with pytest.raises(BadEpsilon):
            NetworkConfig.soft_handoff(6, 1.0, 100.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_named(self, bad):
        cases = [
            (lambda: NetworkConfig.soft_handoff(6, [1, bad, 1, 1, 1, 1], 100.0), ConfigError, "alpha_2"),
            (lambda: NetworkConfig.full(6, bad, 100.0), ConfigError, "alpha_1"),
            (lambda: NetworkConfig.soft_handoff(6, 1.0, bad), ConfigError, "power"),
            (lambda: NetworkConfig.soft_handoff(6, 1.0, 100.0, bad), BadEpsilon, "eps"),
        ]
        for build, error, field in cases:
            with pytest.raises(error, match=field):
                build()

    def test_alpha_is_the_full_variants(self):
        assert NetworkConfig.full(6, -0.5, 100.0).alpha == -0.5
        with pytest.raises(ConfigError, match="^alpha is only defined for the full variant$"):
            NetworkConfig.soft_handoff(6, 0.5, 100.0).alpha

    def test_k_too_small(self):
        with pytest.raises(ConfigError):
            NetworkConfig.soft_handoff(2, 1.0, 100.0)

    def test_gain_count_must_match_variant(self):
        with pytest.raises(ConfigError):
            NetworkConfig(Variant.SOFT_HANDOFF, 6, (1.0, 1.0), 100.0, 0.05)

    def test_alpha_min(self):
        # the weakest gain min{1, |alpha_rx|} is read by the rate check, over the receivers whose
        # cross gain a link hears (alpha_2..alpha_K in soft handoff), not kept on the config
        cfg = NetworkConfig.soft_handoff(6, [2.0, 3.0, -0.5, 1.0, 3.0, 2.0], 100.0)
        assert check_ideal_rate(cfg, skeleton(cfg)) == rate_soft(cfg, 0.5)
        strong = NetworkConfig.soft_handoff(6, 2.0, 100.0)
        assert check_ideal_rate(strong, skeleton(strong)) == rate_soft(strong, 1.0)
        # no field: equality, hash and JSON are those of a config never read
        assert set(vars(cfg)) == {f.name for f in dataclasses.fields(cfg)}
        fresh = NetworkConfig.soft_handoff(6, [2.0, 3.0, -0.5, 1.0, 3.0, 2.0], 100.0)
        assert cfg == fresh and hash(cfg) == hash(fresh) and to_json(cfg) == to_json(fresh)

    def test_a_built_config_is_checked_once(self, monkeypatch):
        # the rules run when a config is built: a spec and a run read no gain again, and a
        # dataclasses.replace or with_power copy is a new config, checked as it is built
        cfg = NetworkConfig.soft_handoff(60, 0.5, 1e4)
        seen, real = [], model._is_real
        monkeypatch.setattr(model, "_is_real", lambda value: seen.append(value) or real(value))
        spec = ExperimentSpec(config=cfg, num_files=60)
        spec.validate()
        run_soft(cfg, random_library(60, spec.payload_bits(), seed=0), DemandVector(tuple(range(1, 61))))
        assert seen == []
        dataclasses.replace(cfg, power=100.0)
        assert len(seen) == 60 + 2  # every gain, power and epsilon
        for copy in (lambda: dataclasses.replace(cfg, power=-1.0), lambda: cfg.with_power(-1.0)):
            with pytest.raises(NonPositivePower, match="^power must be positive, got -1.0$"):
                copy()
        # no record: equality, hash and JSON are those of the fields alone
        fresh = NetworkConfig.soft_handoff(60, 0.5, 1e4)
        assert set(vars(cfg)) == {f.name for f in dataclasses.fields(cfg)}
        assert cfg == fresh and hash(cfg) == hash(fresh) and to_json(cfg) == to_json(fresh)

    def test_list_gains_are_copied_at_construction(self):
        # a list can change after the config is built; the config keeps the tuple it checked
        gains = [1.0] * 6
        cfg = NetworkConfig(Variant.SOFT_HANDOFF, 6, gains, 1e4)
        gains[2] = 0.0
        assert cfg.gains == (1.0,) * 6 and type(cfg.gains) is tuple
        assert hash(cfg) == hash(NetworkConfig.soft_handoff(6, 1.0, 1e4))
        with pytest.raises(ZeroCrossGain, match="alpha_3"):
            NetworkConfig(Variant.SOFT_HANDOFF, 6, gains, 1e4)

    def test_a_failing_construction_fails_alike_every_time(self):
        errors = []
        for _ in range(3):
            with pytest.raises(BadEpsilon) as info:
                NetworkConfig.soft_handoff(6, 1.0, 1e4, 2.0)
            errors.append((type(info.value), str(info.value)))
        assert errors == errors[:1] * 3

    @pytest.mark.parametrize(
        "power, error, message",
        [
            (0.01, BadEpsilon, "epsilon must satisfy 0 < eps < min(P, 1), got eps=0.05, P=0.01"),
            (math.nan, ConfigError, "power must be finite, got nan"),
            (-1.0, NonPositivePower, "power must be positive, got -1.0"),
        ],
    )
    @pytest.mark.parametrize("variant", list(Variant))
    def test_every_way_of_building_checks(self, variant, power, error, message):
        # NetworkConfig(...), the variant's constructor, dataclasses.replace and with_power raise alike
        build = NetworkConfig.soft_handoff if variant is Variant.SOFT_HANDOFF else NetworkConfig.full
        cfg = build(6, 0.5, 1e4)
        attempts = [
            lambda: NetworkConfig(variant, 6, cfg.gains, power),
            lambda: build(6, 0.5, power),
            lambda: dataclasses.replace(cfg, power=power),
            lambda: cfg.with_power(power),
        ]
        for attempt in attempts:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                attempt()

    @pytest.mark.parametrize("gain", [2, 0.5, np.int64(2), np.float32(0.5), np.float64(0.5)])
    def test_any_real_scalar_gain_is_shared(self, gain):
        cfg = NetworkConfig.soft_handoff(6, gain, 100.0)
        assert cfg.gains == (float(gain),) * 6
        assert all(type(g) is float for g in cfg.gains)


    @pytest.mark.parametrize("model", ["soft", "full"])
    @pytest.mark.parametrize(
        "gain",
        [
            np.array(0.5), np.array(2), "111111", "0.5", b"123456", None, [None] * 6, 1 + 2j, [1 + 2j] * 6, ["1"] * 6,
            True, np.True_, [True] * 6, np.array(True), np.array(1 + 2j),
        ],
    )
    def test_gain_input_is_a_real_scalar_or_rejected(self, model, gain):
        # a 0-d real array is a scalar; a str or bytes is not a sequence of gains, nor None, a
        # complex number, a bool or a str a gain, alone or in a sequence
        build = NetworkConfig.soft_handoff if model == "soft" else NetworkConfig.full
        if isinstance(gain, np.ndarray) and gain.dtype.kind in "iuf":
            cfg = build(6, gain, 100.0)
            assert cfg.gains == (float(gain),) * (6 if model == "soft" else 1)
            assert all(type(g) is float for g in cfg.gains)
        else:
            with pytest.raises(ConfigError, match="cross gains"):
                build(6, gain, 100.0)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize(
        "attr, value", [("k", 6.0), ("k", True), ("k", "6"), ("power", True), ("power", "1e4"), ("epsilon", True)]
    )
    def test_field_types_named(self, variant, attr, value):
        # a bool is no number; K must be an int, and power and epsilon real
        gains = (0.5,) * (6 if variant is Variant.SOFT_HANDOFF else 1)
        with pytest.raises(ConfigError, match=f"^{'K' if attr == 'k' else attr} must be"):
            NetworkConfig(**{"variant": variant, "k": 6, "gains": gains, "power": 1e4, attr: value})

    @pytest.mark.parametrize("variant", ["soft", "full", None, 0])
    def test_variant_must_be_a_variant(self, variant):
        # a NetworkConfig built directly may carry any variant; "soft" is a str, not the enum
        with pytest.raises(ConfigError, match="^variant must be a Variant"):
            validate_config(NetworkConfig(variant, 6, (1.0,) * 6, 1e4))

    @pytest.mark.parametrize("k", [6.0, "6"])
    def test_soft_constructor_names_a_non_int_k(self, k):
        # sharing a scalar gain K times needs K; a float K used to fail there with a bare TypeError
        with pytest.raises(ConfigError, match="^K must be an integer"):
            NetworkConfig.soft_handoff(k, 1.0, 1e4)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("gains", [None, 1.0, np.ones(6)])
    def test_direct_gains_must_be_a_sequence(self, variant, gains):
        # a NetworkConfig built directly skips the constructors' gain rule; len() must not raise
        with pytest.raises(ConfigError, match="cross gains must be a sequence"):
            validate_config(NetworkConfig(variant, 6, gains, 1e4))


_SIGNED_GAIN = st.builds(lambda sign, e: sign * 2.0**e, st.sampled_from([1.0, -1.0]), st.floats(-45, 45))
_ODD_REAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, -1e-3])


class TestABuiltConfigRuns:
    """A config that constructs is one that every rate and pre-flight reader can take as it is."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_built_config_gives_a_number_or_a_named_error(self, data):
        variant = data.draw(st.sampled_from(list(Variant)))
        if variant is Variant.SOFT_HANDOFF:
            k = data.draw(st.integers(5, 64))
            gains = data.draw(st.lists(_SIGNED_GAIN, min_size=k, max_size=k))
        else:
            k, gains = data.draw(st.integers(2, 32)) * 2, data.draw(_SIGNED_GAIN)
        power = data.draw(_ODD_REAL | st.floats(1e-3, 1e300) | st.floats())
        epsilon = data.draw(_ODD_REAL | st.floats(1e-6, 0.99) | st.floats())
        build = NetworkConfig.soft_handoff if variant is Variant.SOFT_HANDOFF else NetworkConfig.full
        try:
            cfg = build(k, gains, power, epsilon)
        except ConfigError:
            return
        skel = skeleton(cfg)
        try:
            rate = check_ideal_rate(cfg, skel)
            assert math.isfinite(rate) and rate > 0
        except InfeasibleRate:
            pass
        if variant is Variant.FULL:
            assert math.isfinite(rate_full(cfg))
        try:
            assert slot_length(cfg, skel, 288) >= 1
        except SimError as exc:
            assert type(exc) is not SimError  # a named subclass


class TestRandomLibrary:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 61), st.integers(1, 300), st.integers(0, 2**64 - 1))
    @example(3, 5, 0)  # part of one byte, one uint32 word per file: files cross 64-bit outputs
    @example(5, 40, 1)  # whole bytes, two words per file
    @example(7, 65, 2)  # three words per file, the last holding one byte
    @example(9, 95, 3)  # 12 bytes: three full words, the last byte partly masked
    @example(2, 1000, 4)
    def test_files_are_successive_byte_draws(self, num_files, bits, seed):
        # file i is the i-th rng.bytes(ceil(bits / 8)) draw of the library's generator
        rng = np.random.default_rng(seed)
        want = tuple(random_bits(bits, rng) for _ in range(num_files))
        assert random_library(num_files, bits, seed, allow_small_d=True).payloads == want

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

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 20), st.integers(1, 200), st.integers(0, 2**64 - 1))
    @example(2, 8, 0)  # whole bytes: no pad bits
    @example(3, 1, 1)  # one bit per file, seven pad bits
    def test_rows_are_the_payloads(self, num_files, bits, seed):
        # a drawn library is its byte rows; built again from its payloads it is the same library
        lib = random_library(num_files, bits, seed, allow_small_d=True)
        rebuilt = MessageLibrary(lib.payloads)
        nb = -(-bits // 8)
        assert lib.rows.dtype == np.uint8 and lib.rows.shape == (num_files, nb)
        assert (lib.rows[:, 0] >> (bits - 8 * (nb - 1)) == 0).all()  # pad bits zero
        assert not lib.rows.flags.writeable
        assert (rebuilt.payload_bits, rebuilt.rows.tobytes()) == (lib.payload_bits, lib.rows.tobytes())
        assert lib == rebuilt and hash(lib) == hash(rebuilt) and {lib: 1}[rebuilt] == 1
        assert [lib.payload(f) for f in range(1, num_files + 1)] == list(rebuilt) == list(lib.payloads)

    def test_equal_libraries_hash_equal(self):
        # the hash is cached per library; equality still compares the payloads
        a = random_library(6, 40, seed=1)
        hash(a)
        b = MessageLibrary(tuple(Bitstring(p.length, p.value) for p in a))
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
        assert a != random_library(6, 40, seed=2)


class TestSeedStates:
    """``seed_states`` is numpy's ``SeedSequence`` hash and ``generate_state``, over columns
    of entropy that split into the same number of words."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 2**130), min_size=1, max_size=4),
        st.integers(1, 16),
        st.integers(1, 3),
    )
    @example([0], 4, 1)  # 0 is one word
    @example([2**32 - 1], 4, 2)
    @example([2**32], 4, 2)  # two words
    @example([2**64], 1, 1)
    @example([2**96, 2**96], 16, 3)  # 8 words: four mixed in past the pool
    @example([2**64, 0, 2**32 - 1], 5, 2)
    def test_matches_seed_sequence(self, entropy, n_words, columns):
        # column c flips the low bits of the first int: the same word count in every column
        tuples = [(entropy[0] ^ c, *entropy[1:]) for c in range(columns)]
        words = np.array([entropy_words(*e) for e in tuples], dtype=np.uint32).T
        got = seed_states(words, n_words)
        assert got.dtype == np.uint64 and got.shape == (columns, n_words)
        for row, e in zip(got, tuples):
            assert row.tolist() == np.random.SeedSequence(e).generate_state(n_words, np.uint64).tolist()
            # low word first in each uint64, as generate_state's uint32 output
            low_first = row.astype("<u8").view("<u4")
            assert low_first.tolist() == np.random.SeedSequence(e).generate_state(2 * n_words).tolist()

    def test_hash_constants_made_once_read_only(self):
        # every call shares one column per (init, mult, count); a caller cannot write into it
        const = model._hash_constants(model._INIT_B, model._MULT_B, 8)
        assert const is model._hash_constants(model._INIT_B, model._MULT_B, 8)
        with pytest.raises(ValueError, match="read-only"):
            const[0] = 0
        words = np.array([entropy_words(7, 0, 3)] * 2, dtype=np.uint32).T
        want = np.random.SeedSequence((7, 0, 3)).generate_state(4, np.uint64).tolist()
        assert seed_states(words, 4).tolist() == seed_states(words, 4).tolist() == [want] * 2


class TestBitstring:
    def test_xor_self_inverse(self):
        s = from_bits("10110010")
        assert s ^ s == Bitstring.zeros(8)

    def test_xor_identity(self):
        s = from_bits("10110010")
        assert s ^ Bitstring.zeros(8) == s

    def test_xor_definition(self):
        assert to_bits(from_bits("1010") ^ from_bits("0110")) == "1100"

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
            s = random_bits(30, rng)
            assert Bitstring.concat_all(s.split(5)) == s

    def test_split_order_is_msb_first(self):
        s = from_bits("11110000")
        hi, lo = s.split(2)
        assert to_bits(hi) == "1111" and to_bits(lo) == "0000"

    def test_split_requires_divisibility(self):
        with pytest.raises(LengthMismatch):
            Bitstring.zeros(10).split(3)

    def test_hex_bytes_roundtrip(self):
        rng = np.random.default_rng(1)
        s = random_bits(24, rng)
        assert Bitstring.from_bytes(s.to_bytes()) == s

    def test_value_out_of_range(self):
        with pytest.raises(SimError):
            Bitstring(3, 8)

    def test_negative_length(self):
        with pytest.raises(SimError, match="^negative bitstring length -1$"):
            Bitstring(-1, 0)

    def test_to_bytes_needs_whole_bytes(self):
        with pytest.raises(LengthMismatch, match="^length 12 is not byte aligned$"):
            Bitstring.zeros(12).to_bytes()


class TestMessageLibraryRules:
    def test_at_least_two_files(self):
        with pytest.raises(SimError, match="^library needs at least 2 files$"):
            MessageLibrary([Bitstring.zeros(8)])

    def test_one_payload_length(self):
        with pytest.raises(SimError, match=r"^library payloads have mixed lengths \[8, 16\]$"):
            MessageLibrary([Bitstring.zeros(16), Bitstring.zeros(8)])

    @pytest.mark.parametrize("index", [0, 3])
    def test_payload_index_in_range(self, index):
        library = MessageLibrary([Bitstring.zeros(8), Bitstring(8, 5)])
        assert library.payload(2) == Bitstring(8, 5)
        with pytest.raises(SimError, match=f"^file index {index} outside 1..2$"):
            library.payload(index)


class TestDemandVector:
    def test_checked_happy(self):
        d = DemandVector.checked([1, 2, 3], 3, 6)
        assert d.for_rx(2) == 2
        assert list(d) == [1, 2, 3]
        d = DemandVector.checked(np.array([3, 1, 2]), 3, 6)  # numpy integers, stored as ints
        assert d.entries == (3, 1, 2) and all(type(e) is int for e in d)

    def test_checked_length(self):
        with pytest.raises(SimError):
            DemandVector.checked([1, 2], 3, 6)

    def test_checked_range(self):
        with pytest.raises(SimError):
            DemandVector.checked([1, 2, 7], 3, 6)

    @pytest.mark.parametrize("bad", [1.7, 2.0, True, np.bool_(True), np.float64(2.0), "2"])
    def test_checked_rejects_what_is_not_an_integer(self, bad):
        # a (T, K) block takes integer dtypes only; one vector takes the same entries
        with pytest.raises(ConfigMismatch, match="is not an integer"):
            DemandVector.checked([1, bad, 3], 3, 6)


class TestCachePlacement:
    PARTS = {1: (Bitstring(8, 0), Bitstring(8, 0)), 3: (Bitstring(8, 0), Bitstring(8, 5))}

    def test_total_bits(self):
        placement = CachePlacement(self.PARTS, {1: (1,), 2: (2,)})
        assert placement.bits_per_receiver == 16

    def test_duplicate_entry_rejected(self):
        with pytest.raises(SimError):
            CachePlacement(self.PARTS, {1: (1, 1)})

    def test_part_lengths_differ_across_files_rejected(self):
        # the same labels at every receiver: only the files' layouts disagree
        parts = {1: (Bitstring(8, 0), Bitstring(8, 0)), 2: (Bitstring(8, 0), Bitstring(4, 0))}
        with pytest.raises(SimError, match=r"^files have mixed part lengths \[\(8, 4\), \(8, 8\)\]$"):
            CachePlacement(parts, {1: (1,), 2: (1,)})

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
