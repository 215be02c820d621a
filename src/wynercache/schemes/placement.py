"""Demand-oblivious cache placements.

Soft handoff: receiver class k mod 3 stores two of the six parts of every
file (class 1: parts 1,2; class 2: parts 3,4; class 0: parts 5,6), for a
total of 2*D*L bits. Full model: odd receivers store part 1 of every file,
even receivers part 2, for D*L bits.
"""

from __future__ import annotations

from ..model import CachePlacement, MessageLibrary, OddKForFullModel
from .parts import split_full, split_soft

SOFT_CACHE_PARTS: dict[int, tuple[int, int]] = {1: (1, 2), 2: (3, 4), 0: (5, 6)}


def cached_parts_soft(rx: int) -> tuple[int, int]:
    return SOFT_CACHE_PARTS[rx % 3]


def cached_part_full(rx: int) -> int:
    return 1 if rx % 2 == 1 else 2


def cache_placement_soft(k: int, library: MessageLibrary) -> CachePlacement:
    files = range(1, library.num_files + 1)
    return CachePlacement(
        {f: split_soft(library.payload(f)) for f in files},
        {rx: cached_parts_soft(rx) for rx in range(1, k + 1)},
    )


def cache_placement_full(k: int, library: MessageLibrary) -> CachePlacement:
    if k % 2 != 0:
        raise OddKForFullModel(
            f"odd/even placement wraps inconsistently on a circle of K={k}"
        )
    files = range(1, library.num_files + 1)
    return CachePlacement(
        {f: split_full(library.payload(f)) for f in files},
        {rx: (cached_part_full(rx),) for rx in range(1, k + 1)},
    )
