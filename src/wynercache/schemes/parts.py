"""Submessage splitting: five data parts plus one XOR parity part (soft handoff),
or a plain two-way split (full model). Any five of the six soft parts determine
the sixth."""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Mapping

from ..model import Bitstring, SimError

DATA_PARTS_SOFT = 5
TOTAL_PARTS_SOFT = 6
PARTS_FULL = 2


class BadLength(SimError):
    pass


class WrongPartCount(SimError):
    pass


class DuplicateLabel(SimError):
    pass


def split_soft(msg: Bitstring) -> tuple[Bitstring, ...]:
    """Five equal data parts plus the XOR parity part; parts 1..5 concatenate to ``msg``."""
    if msg.length % DATA_PARTS_SOFT != 0:
        raise BadLength(f"payload of {msg.length} bits is not divisible by {DATA_PARTS_SOFT}")
    data = msg.split(DATA_PARTS_SOFT)
    parity = reduce(Bitstring.xor, data)
    return data + (parity,)


def split_full(msg: Bitstring) -> tuple[Bitstring, ...]:
    if msg.length % PARTS_FULL != 0:
        raise BadLength(f"payload of {msg.length} bits is not divisible by {PARTS_FULL}")
    return msg.split(PARTS_FULL)


def reconstruct_five(
    parts: Mapping[int, Bitstring] | Iterable[tuple[int, Bitstring]],
) -> Bitstring:
    """Rebuild a message from any five distinctly-labelled parts of its six.

    The missing part equals the XOR of the five present ones; the result is the
    concatenation of parts 1..5.
    """
    labelled: dict[int, Bitstring] = {}
    items = parts.items() if isinstance(parts, Mapping) else parts
    for label, bits in items:
        if label in labelled:
            raise DuplicateLabel(f"part label {label} appears twice")
        if not 1 <= label <= TOTAL_PARTS_SOFT:
            raise WrongPartCount(f"part label {label} outside 1..{TOTAL_PARTS_SOFT}")
        labelled[label] = bits
    if len(labelled) != DATA_PARTS_SOFT:
        raise WrongPartCount(f"need exactly {DATA_PARTS_SOFT} parts, got {len(labelled)}")
    missing = next(p for p in range(1, TOTAL_PARTS_SOFT + 1) if p not in labelled)
    labelled[missing] = reduce(Bitstring.xor, labelled.values())
    return Bitstring.concat_all(labelled[p] for p in range(1, DATA_PARTS_SOFT + 1))
