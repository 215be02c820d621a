import pytest

from wynercache.model import OddKForFullModel, Variant, random_library
from wynercache.schemes import cache_placement_full, cache_placement_soft
from wynercache.schemes.parts import split_full, split_soft
from wynercache.schemes.placement import cache_labels


def _cached(placement, rx):
    """(file, part) pairs that ``rx`` caches, over files 1..6 and part labels 1..6."""
    pairs = ((f, p) for f in range(1, 7) for p in range(1, 7))
    return {(f, p) for f, p in pairs if placement.lookup(rx, f, p) is not None}


class TestSoftPlacement:
    def test_mod3_part_classes(self):
        lib = random_library(6, 40, seed=0)
        placement = cache_placement_soft(6, lib)
        # rx 4 (4 mod 3 = 1) stores parts {1, 2} of every file
        assert _cached(placement, 4) == {(f, p) for f in range(1, 7) for p in (1, 2)}
        # rx 3 (3 mod 3 = 0) stores parts {5, 6}
        assert set(placement.labels[3]) == {5, 6}
        assert cache_labels(Variant.SOFT_HANDOFF, 6)[5] == (3, 4)

    def test_memory_is_two_parts_per_file(self):
        lib = random_library(6, 40, seed=0)  # L = 8
        placement = cache_placement_soft(6, lib)
        assert placement.bits_per_receiver == 2 * 6 * 8

    def test_cached_bits_match_library(self):
        lib = random_library(6, 40, seed=1)
        placement = cache_placement_soft(6, lib)
        for rx in range(1, 7):
            for f, p in _cached(placement, rx):
                expected = split_soft(lib.payload(f))[p - 1]
                assert placement.lookup(rx, f, p) == expected


class TestFullPlacement:
    def test_parity_classes(self):
        lib = random_library(6, 16, seed=2)
        placement = cache_placement_full(6, lib)
        # rx 5 is odd: part 1 of every file
        assert _cached(placement, 5) == {(f, 1) for f in range(1, 7)}
        assert cache_labels(Variant.FULL, 6)[4] == (2,)

    def test_memory_is_one_part_per_file(self):
        lib = random_library(6, 16, seed=2)  # L = 8
        placement = cache_placement_full(6, lib)
        assert placement.bits_per_receiver == 6 * 8

    def test_cached_bits_match_library(self):
        lib = random_library(6, 16, seed=3)
        placement = cache_placement_full(6, lib)
        for rx in (1, 2, 6):
            for f, p in _cached(placement, rx):
                assert placement.lookup(rx, f, p) == split_full(lib.payload(f))[p - 1]

    def test_odd_k_rejected(self):
        lib = random_library(6, 16, seed=2)
        with pytest.raises(OddKForFullModel):
            cache_placement_full(7, lib)

    def test_odd_k_breaks_neighbour_cancellation(self):
        # exhaustive walk of the circle: every receiver must hold the part its
        # neighbours transmit in order to cancel them; with odd K the wrap
        # pair (1, K) shares a parity and the rule fails exactly there. The odd/even rule is
        # written out here, since cache_labels refuses an odd K for this reason
        def uncancellable_pairs(k):
            bad = []
            for rx in range(1, k + 1):
                for tx in ((rx - 2) % k + 1, rx % k + 1):
                    sent = 2 if tx % 2 == 1 else 1  # part the neighbour transmits
                    if (1 if rx % 2 == 1 else 2,) != (sent,):
                        bad.append((rx, tx))
            return bad

        assert uncancellable_pairs(6) == []
        assert uncancellable_pairs(7) == [(1, 7), (7, 1)]
        assert all(cache_labels(Variant.FULL, 6)[rx] == (1 if rx % 2 == 1 else 2,) for rx in range(1, 7))
        with pytest.raises(OddKForFullModel, match="neighbours 7 and 1 cache the same half"):
            cache_labels(Variant.FULL, 7)
