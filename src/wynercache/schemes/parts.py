"""Submessage splitting: five data parts plus one XOR parity part (soft handoff),
or a plain two-way split (full model). Any five of the six soft parts determine
the sixth."""

from __future__ import annotations

from functools import reduce
from typing import Mapping

from ..model import Bitstring, SimError

DATA_PARTS_SOFT = 5
TOTAL_PARTS_SOFT = 6
PARTS_FULL = 2


class BadLength(SimError):
    pass


class WrongPartCount(SimError):
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


def reconstruct_five(parts: Mapping[int, Bitstring]) -> Bitstring:
    """Rebuild a message from any five of its six parts, keyed by part label.

    The missing part equals the XOR of the five present ones; the result is the
    concatenation of parts 1..5.
    """
    for label in parts:
        if not 1 <= label <= TOTAL_PARTS_SOFT:
            raise WrongPartCount(f"part label {label} outside 1..{TOTAL_PARTS_SOFT}")
    if len(parts) != DATA_PARTS_SOFT:
        raise WrongPartCount(f"need exactly {DATA_PARTS_SOFT} parts, got {len(parts)}")
    missing = next(p for p in range(1, TOTAL_PARTS_SOFT + 1) if p not in parts)
    labelled = {**parts, missing: reduce(Bitstring.xor, parts.values())}
    return Bitstring.concat_all(labelled[p] for p in range(1, DATA_PARTS_SOFT + 1))
