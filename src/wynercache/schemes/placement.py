"""Demand-oblivious cache placements.

Soft handoff: receiver class k mod 3 stores two of the six parts of every
file (class 1: parts 1,2; class 2: parts 3,4; class 0: parts 5,6), for a
total of 2*D*L bits. Full model: odd receivers store part 1 of every file,
even receivers part 2, for D*L bits, on an even K. ``cache_labels`` states the
labels and that K rule once, without files; the skeleton, the full schedule, the
CLI's schedule check and both ``cache_placement_*`` read them from it.
"""

from __future__ import annotations

from ..model import CachePlacement, MessageLibrary, OddKForFullModel, Variant
from .parts import split_full, split_soft

SOFT_CACHE_PARTS: dict[int, tuple[int, int]] = {1: (1, 2), 2: (3, 4), 0: (5, 6)}


def cache_labels(variant: Variant, k: int) -> dict[int, tuple[int, ...]]:
    """The part labels receiver rx caches of every file, ``{rx: labels}`` for rx in 1..K. Full-model
    neighbours cache opposite halves, which an odd K cannot wrap: ``OddKForFullModel``."""
    if variant is Variant.SOFT_HANDOFF:
        return {rx: SOFT_CACHE_PARTS[rx % 3] for rx in range(1, k + 1)}
    if k % 2 != 0:
        raise OddKForFullModel(f"full-model caching needs even K, got {k}: neighbours {k} and 1 cache the same half")
    return {rx: (1 if rx % 2 == 1 else 2,) for rx in range(1, k + 1)}


def cache_placement_soft(k: int, library: MessageLibrary) -> CachePlacement:
    files = range(1, library.num_files + 1)
    return CachePlacement({f: split_soft(library.payload(f)) for f in files}, cache_labels(Variant.SOFT_HANDOFF, k))


def cache_placement_full(k: int, library: MessageLibrary) -> CachePlacement:
    labels, files = cache_labels(Variant.FULL, k), range(1, library.num_files + 1)  # labels first: no split on odd K
    return CachePlacement({f: split_full(library.payload(f)) for f in files}, labels)
