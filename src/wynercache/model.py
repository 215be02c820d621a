"""Core domain types: network configuration, message library, demands, caches, bitstrings.

Conventions used throughout the package:

* transmitters and receivers are numbered 1..K around the circle,
* files are numbered 1..D, message parts are 1-based,
* rates are in bits per channel use (log base 2),
* noise variance is 1, so the SNR is set entirely by the power P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

DEFAULT_EPSILON = 0.05
# Library sizes below this are rejected unless explicitly allowed; the schemes
# themselves operate for any D >= 2.
MIN_LIBRARY_FILES = 6


class SimError(ValueError):
    """Base class for domain errors; the subclass name identifies the violated rule."""


class ConfigError(SimError):
    pass


class ZeroCrossGain(ConfigError):
    pass


class NonPositivePower(ConfigError):
    pass


class BadEpsilon(ConfigError):
    pass


class OddKForFullModel(ConfigError):
    pass


class LengthMismatch(SimError):
    pass


class ConfigMismatch(SimError):
    pass


class Variant(Enum):
    """Interference topology: one-sided (soft handoff) or two-sided (full)."""

    SOFT_HANDOFF = "soft"
    FULL = "full"


@dataclass(frozen=True)
class NetworkConfig:
    """Physical setting of the circular network.

    ``gains`` holds the cross gains alpha_1..alpha_K for the soft-handoff
    variant and a single shared alpha for the full variant.
    """

    variant: Variant
    k: int
    gains: tuple[float, ...]
    power: float
    epsilon: float = DEFAULT_EPSILON

    @classmethod
    def soft_handoff(
        cls,
        k: int,
        gains: float | Iterable[float],
        power: float,
        epsilon: float = DEFAULT_EPSILON,
    ) -> "NetworkConfig":
        if isinstance(gains, (int, float)):
            gains = (float(gains),) * k
        return cls(Variant.SOFT_HANDOFF, k, tuple(float(g) for g in gains), power, epsilon)

    @classmethod
    def full(
        cls, k: int, alpha: float, power: float, epsilon: float = DEFAULT_EPSILON
    ) -> "NetworkConfig":
        return cls(Variant.FULL, k, (float(alpha),), power, epsilon)

    @property
    def alpha(self) -> float:
        """Shared cross gain of the full variant."""
        if self.variant is not Variant.FULL:
            raise ConfigError("alpha is only defined for the full variant")
        return self.gains[0]

    def gain_at(self, rx: int) -> float:
        """Cross gain heard by receiver ``rx`` from its neighbours."""
        if self.variant is Variant.SOFT_HANDOFF:
            return self.gains[rx - 1]
        return self.gains[0]

    @property
    def alpha_min(self) -> float:
        """min{1, |alpha_1|, ..., |alpha_K|}; the weakest link seen by any decoder."""
        return min(1.0, min(abs(g) for g in self.gains))

    def with_power(self, power: float) -> "NetworkConfig":
        return replace(self, power=power)


def validate_config(cfg: NetworkConfig) -> None:
    """Raise the named ConfigError for the first violated invariant."""
    if cfg.k < 3:
        raise ConfigError(f"K must be at least 3, got {cfg.k}")
    expected = cfg.k if cfg.variant is Variant.SOFT_HANDOFF else 1
    if len(cfg.gains) != expected:
        raise ConfigError(
            f"{cfg.variant.value} variant needs {expected} cross gain(s), got {len(cfg.gains)}"
        )
    for i, g in enumerate(cfg.gains, start=1):
        if not math.isfinite(g):
            raise ConfigError(f"cross gain alpha_{i} must be finite, got {g}")
        if g == 0:
            raise ZeroCrossGain(f"cross gain alpha_{i} must be nonzero")
    if not math.isfinite(cfg.power):
        raise ConfigError(f"power must be finite, got {cfg.power}")
    if cfg.power <= 0:
        raise NonPositivePower(f"power must be positive, got {cfg.power}")
    if not (0 < cfg.epsilon < cfg.power and cfg.epsilon < 1):
        raise BadEpsilon(
            f"epsilon must satisfy 0 < eps < min(P, 1), got eps={cfg.epsilon}, P={cfg.power}"
        )
    if cfg.variant is Variant.FULL and cfg.k % 2 != 0:
        raise OddKForFullModel(
            f"full variant requires an even K (odd/even caching is circularly "
            f"inconsistent for K={cfg.k})"
        )


@dataclass(frozen=True)
class Bitstring:
    """Immutable bit vector of a fixed length, stored MSB-first in an int."""

    length: int
    value: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise SimError(f"negative bitstring length {self.length}")
        if not 0 <= self.value < (1 << self.length):
            raise SimError("bitstring value out of range for its length")

    @classmethod
    def zeros(cls, length: int) -> "Bitstring":
        return cls(length, 0)

    @classmethod
    def random(cls, length: int, rng: np.random.Generator) -> "Bitstring":
        nbytes = (length + 7) // 8
        raw = int.from_bytes(rng.bytes(nbytes), "big") if nbytes else 0
        return cls(length, raw & ((1 << length) - 1) if length else 0)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitstring":
        return cls(8 * len(data), int.from_bytes(data, "big"))

    def bits(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def to_bytes(self) -> bytes:
        if self.length % 8 != 0:
            raise LengthMismatch(f"length {self.length} is not byte aligned")
        return self.value.to_bytes(self.length // 8, "big")

    def xor(self, other: "Bitstring") -> "Bitstring":
        if self.length != other.length:
            raise LengthMismatch(f"xor of lengths {self.length} and {other.length}")
        return Bitstring(self.length, self.value ^ other.value)

    __xor__ = xor

    def concat(self, other: "Bitstring") -> "Bitstring":
        return Bitstring(self.length + other.length, (self.value << other.length) | other.value)

    @classmethod
    def concat_all(cls, parts: Iterable["Bitstring"]) -> "Bitstring":
        out = cls.zeros(0)
        for p in parts:
            out = out.concat(p)
        return out

    def split(self, n_parts: int) -> tuple["Bitstring", ...]:
        """Split into ``n_parts`` equal chunks, part 1 holding the most significant bits."""
        if n_parts < 1 or self.length % n_parts != 0:
            raise LengthMismatch(f"cannot split {self.length} bits into {n_parts} equal parts")
        chunk = self.length // n_parts
        mask = (1 << chunk) - 1
        return tuple(
            Bitstring(chunk, (self.value >> ((n_parts - 1 - i) * chunk)) & mask)
            for i in range(n_parts)
        )


@dataclass(frozen=True)
class MessageLibrary:
    """The D file payloads, all of identical bit length."""

    payloads: tuple[Bitstring, ...]

    def __post_init__(self) -> None:
        if len(self.payloads) < 2:
            raise SimError("library needs at least 2 files")
        lengths = {p.length for p in self.payloads}
        if len(lengths) != 1:
            raise SimError(f"library payloads have mixed lengths {sorted(lengths)}")

    @property
    def num_files(self) -> int:
        return len(self.payloads)

    @property
    def payload_bits(self) -> int:
        return self.payloads[0].length

    def payload(self, file_index: int) -> Bitstring:
        """Payload of file ``file_index`` (1-based)."""
        if not 1 <= file_index <= self.num_files:
            raise SimError(f"file index {file_index} outside 1..{self.num_files}")
        return self.payloads[file_index - 1]

    def __iter__(self) -> Iterator[Bitstring]:
        return iter(self.payloads)

    @cached_property
    def _hash(self) -> int:
        return hash(self.payloads)

    def __hash__(self) -> int:
        # hashed once: the runners look their placement up by library on every delivery
        return self._hash


def derive_seed(*entropy: int) -> int:
    """64-bit seed of the stream keyed by ``entropy``; distinct tuples give independent streams."""
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def check_library_size(num_files: int, payload_bits: int, allow_small_d: bool) -> None:
    """Raise ``SimError`` for a library size that ``random_library`` must not draw."""
    if num_files < 2 or payload_bits < 1:
        raise SimError(f"need num_files >= 2 and payload_bits >= 1, got {num_files}, {payload_bits}")
    if num_files < MIN_LIBRARY_FILES and not allow_small_d:
        raise SimError(
            f"library size {num_files} < {MIN_LIBRARY_FILES}; pass allow_small_d=True to permit"
        )


def random_library(
    num_files: int, payload_bits: int, seed: int, *, allow_small_d: bool = False
) -> MessageLibrary:
    """Draw ``num_files`` uniform i.i.d. payloads of ``payload_bits`` bits each."""
    check_library_size(num_files, payload_bits, allow_small_d)
    rng = np.random.default_rng(seed)
    return MessageLibrary(tuple(Bitstring.random(payload_bits, rng) for _ in range(num_files)))


@dataclass(frozen=True)
class DemandVector:
    """One requested file index per receiver."""

    entries: tuple[int, ...]

    @classmethod
    def checked(cls, entries: Iterable[int], k: int, num_files: int) -> "DemandVector":
        d = cls(tuple(int(e) for e in entries))
        cls.check_block(np.array([d.entries], dtype=object), k, num_files)  # Python ints: any size
        return d

    @staticmethod
    def check_block(demands: np.ndarray, k: int, num_files: int) -> None:
        """Raise ``ConfigMismatch`` unless every row of the (T, K) array ``demands`` is a
        demand vector of K files in 1..num_files; the first bad entry in row order is named."""
        if demands.ndim != 2 or demands.shape[1] != k:
            raise ConfigMismatch(f"demand vector has {demands.shape[-1]} entries, expected K={k}")
        bad = np.flatnonzero((demands < 1) | (demands > num_files))
        if len(bad):
            raise ConfigMismatch(f"demand {demands.flat[bad[0]]} outside 1..{num_files}")

    def for_rx(self, rx: int) -> int:
        return self.entries[rx - 1]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)


@dataclass(frozen=True)
class CachePlacement:
    """Demand-free cache contents: each receiver stores the same part labels of every file.

    ``parts[f]`` holds the parts of file f, part label p at index p - 1, and
    ``labels[rx]`` the labels that receiver rx caches of every file.
    """

    parts: Mapping[int, tuple[Bitstring, ...]]
    labels: Mapping[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        for rx, labels in self.labels.items():
            if len(set(labels)) != len(labels):
                raise SimError(f"duplicate part label in the cache of receiver {rx}")
            if any(not 1 <= p <= len(parts) for parts in self.parts.values() for p in labels):
                raise SimError(f"receiver {rx} caches labels {labels} that some file lacks")
        totals = {self._bits(labels) for labels in self.labels.values()}
        if len(totals) > 1:
            raise SimError(f"asymmetric cache memory across receivers: {sorted(totals)}")

    def _bits(self, labels: tuple[int, ...]) -> int:
        return sum(parts[p - 1].length for parts in self.parts.values() for p in labels)

    @cached_property
    def bits_per_receiver(self) -> int:
        return self._bits(next(iter(self.labels.values()), ()))

    def lookup(self, rx: int, file: int, part: int) -> Bitstring | None:
        if file not in self.parts or part not in self.labels.get(rx, ()):
            return None
        return self.parts[file][part - 1]


# --- JSON serialization ------------------------------------------------------

def to_json(obj):
    """JSON-ready data of a record: the dataclass fields are the schema.

    Dataclasses become dicts of their fields in declaration order, preceded by
    a class-level ``kind`` tag where the class defines one; enums become their
    values and tuples lists; int-keyed dicts get str keys in ascending order,
    other dicts keep their own order. Anything else is returned as is.
    """
    if is_dataclass(obj):
        kind = getattr(type(obj), "kind", None)
        out = {"kind": kind} if isinstance(kind, str) else {}
        out.update((f.name, to_json(getattr(obj, f.name))) for f in fields(obj))
        return out
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (tuple, list)):
        return [to_json(v) for v in obj]
    if isinstance(obj, Mapping):
        items = obj.items()
        if all(isinstance(key, int) for key in obj):
            items = sorted(items)
        return {str(key): to_json(v) for key, v in items}
    return obj
