"""Random bitstrings for tests: the per-file oracle of ``model.random_library``."""

import numpy as np

from wynercache.model import Bitstring


def random_bits(length: int, rng: np.random.Generator) -> Bitstring:
    """``length`` uniform bits from one ``rng.bytes(ceil(length / 8))`` draw, read big-endian
    and masked to the low ``length`` bits; ``random_library`` draws file i as the i-th such call."""
    nbytes = (length + 7) // 8
    return Bitstring(length, int.from_bytes(rng.bytes(nbytes), "big") & ((1 << length) - 1))
