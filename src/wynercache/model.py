"""Core domain types: network configuration, message library, demands, caches, bitstrings.

A message library is its files' byte rows, one uint8 array from ``random_library``'s draw
to the part planes of the schemes; ``Bitstring`` payloads are built only where the API
hands them out.

Conventions used throughout the package:

* transmitters and receivers are numbered 1..K around the circle,
* files are numbered 1..D, message parts are 1-based,
* rates are in bits per channel use (log base 2),
* noise variance is 1, so the SNR is set entirely by the power P.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from functools import cache, cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

DEFAULT_EPSILON = 0.05
# Library sizes below this are rejected unless explicitly allowed; the schemes
# themselves operate for any D >= 2.
MIN_LIBRARY_FILES = 6
# A receiver cancels a cached codeword sent at cross gain alpha; the float64 residual, about
# |alpha| * 2^-53 of a codeword entry, stays below 2^-13 up to this bound.
MAX_CROSS_GAIN = 2.0**40


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

    def __post_init__(self) -> None:
        # a numpy integer K runs as the equal Python int; validate_config rejects every other non-int
        if isinstance(self.k, numbers.Integral) and not isinstance(self.k, bool):
            object.__setattr__(self, "k", int(self.k))

    @classmethod
    def soft_handoff(
        cls,
        k: int,
        gains: float | Iterable[float],
        power: float,
        epsilon: float = DEFAULT_EPSILON,
    ) -> "NetworkConfig":
        return cls(Variant.SOFT_HANDOFF, k, _real_gains(gains, k), power, epsilon)

    @classmethod
    def full(
        cls, k: int, alpha: float, power: float, epsilon: float = DEFAULT_EPSILON
    ) -> "NetworkConfig":
        return cls(Variant.FULL, k, _real_gains(alpha, 1), power, epsilon)

    @property
    def alpha(self) -> float:
        """Shared cross gain of the full variant."""
        if self.variant is not Variant.FULL:
            raise ConfigError("alpha is only defined for the full variant")
        return self.gains[0]

    def with_power(self, power: float) -> "NetworkConfig":
        return replace(self, power=power)


def _real_gains(gains, count: int) -> tuple[float, ...]:
    """The cross gains as floats; a real scalar, 0-d arrays included, is shared ``count`` times."""
    if _is_real(gains):
        if not isinstance(count, numbers.Integral):  # a soft K; validate_config rejects a bool one
            raise ConfigError(f"K must be an integer, got {count!r}")
        return (float(gains),) * count
    # a 0-d array that is no real scalar iterates no gains
    if isinstance(gains, Iterable) and not isinstance(gains, (str, bytes, bytearray)) and getattr(gains, "ndim", 1):
        gains = tuple(gains)
        if all(map(_is_real, gains)):
            return tuple(float(g) for g in gains)
    raise ConfigError(f"cross gains must be real numbers, got {gains!r}")


def _is_real(value) -> bool:
    # a plain float skips the ABC check, most of validate_config's time at large K; a bool is no number
    if type(value) is float:
        return True
    if isinstance(value, np.ndarray):
        return value.ndim == 0 and value.dtype.kind in "iuf"
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def validate_config(cfg: NetworkConfig) -> None:
    """Raise the named ConfigError for the first violated invariant of the config alone. A pass
    on tuple gains is recorded on the frozen config; list gains are checked on every call."""
    if "_valid" in vars(cfg):  # a later check reads no field
        return
    if not isinstance(cfg.variant, Variant):
        raise ConfigError(f"variant must be a Variant, got {cfg.variant!r}")
    if type(cfg.k) is not int:
        raise ConfigError(f"K must be an integer, got {cfg.k!r}")
    if cfg.k < 3:
        raise ConfigError(f"K must be at least 3, got {cfg.k}")
    if not isinstance(cfg.gains, Sequence):
        raise ConfigError(f"cross gains must be a sequence of real numbers, got {cfg.gains!r}")
    expected = cfg.k if cfg.variant is Variant.SOFT_HANDOFF else 1
    if len(cfg.gains) != expected:
        raise ConfigError(
            f"{cfg.variant.value} variant needs {expected} cross gain(s), got {len(cfg.gains)}"
        )
    for i, g in enumerate(cfg.gains, start=1):
        if not _is_real(g):
            raise ConfigError(f"cross gain alpha_{i} must be a real number, got {g!r}")
        if not math.isfinite(g):
            raise ConfigError(f"cross gain alpha_{i} must be finite, got {g}")
        if abs(g) > MAX_CROSS_GAIN:
            raise ConfigError(f"cross gain alpha_{i} = {g} exceeds 2^40, past which float64 cancellation fails")
        if g == 0:
            raise ZeroCrossGain(f"cross gain alpha_{i} must be nonzero")
    for name in ("power", "epsilon"):
        if not _is_real(value := getattr(cfg, name)):
            raise ConfigError(f"{name} must be a real number, got {value!r}")
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
    if type(cfg.gains) is tuple:
        vars(cfg)["_valid"] = True


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
    def from_bytes(cls, data: bytes) -> "Bitstring":
        return cls(8 * len(data), int.from_bytes(data, "big"))

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


class MessageLibrary:
    """The D file payloads of ``payload_bits`` bits each, as the read-only (D, ceil(L / 8)) uint8
    array ``rows``: file f is row f - 1, big-endian and right-aligned, its pad bits zero.

    ``MessageLibrary(payloads)`` builds one from ``Bitstring``s; ``random_library`` and the
    schemes work on the rows alone, and ``payloads`` are built on first use. Equality and the
    hash are those of (``payload_bits``, the rows' bytes), so a library drawn again from one
    seed looks its plan up as the first did.
    """

    def __init__(self, payloads: Iterable[Bitstring]) -> None:
        payloads = tuple(payloads)
        if len(payloads) < 2:
            raise SimError("library needs at least 2 files")
        if len(lengths := {p.length for p in payloads}) != 1:
            raise SimError(f"library payloads have mixed lengths {sorted(lengths)}")
        bits, nb = payloads[0].length, -(-payloads[0].length // 8)
        rows = np.frombuffer(b"".join(p.value.to_bytes(nb, "big") for p in payloads), np.uint8)
        self.rows, self.payload_bits, self.payloads = rows.reshape(len(payloads), nb), bits, payloads

    @classmethod
    def _of_rows(cls, rows: np.ndarray, payload_bits: int) -> "MessageLibrary":
        library = cls.__new__(cls)
        library.rows, library.payload_bits = rows, payload_bits
        return library

    @cached_property
    def payloads(self) -> tuple[Bitstring, ...]:
        return tuple(Bitstring(self.payload_bits, int.from_bytes(r.tobytes(), "big")) for r in self.rows)

    @property
    def num_files(self) -> int:
        return len(self.rows)

    def payload(self, file_index: int) -> Bitstring:
        """Payload of file ``file_index`` (1-based)."""
        if not 1 <= file_index <= self.num_files:
            raise SimError(f"file index {file_index} outside 1..{self.num_files}")
        return self.payloads[file_index - 1]

    def __iter__(self) -> Iterator[Bitstring]:
        return iter(self.payloads)

    @cached_property
    def _key(self) -> tuple[int, bytes]:
        # taken once: the runners look their plan up by library on every delivery
        return self.payload_bits, self.rows.tobytes()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MessageLibrary) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)  # a bytes object caches its hash


def derive_seed(*entropy: int) -> int:
    """64-bit seed of the stream keyed by ``entropy``; distinct tuples give independent streams."""
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


# numpy's SeedSequence hash: a pool of 4 uint32 words, and its multipliers
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def entropy_words(*entropy: int) -> list[int]:
    """The uint32 words ``SeedSequence(entropy)`` hashes: each int's little-endian 32-bit words,
    0 being one word."""
    return [v >> s & 0xFFFFFFFF for v in entropy for s in range(0, max(v.bit_length(), 1), 32)]


@cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^i mod 2^32 for i = 0..count, as a read-only uint32 column: a run of hash
    constants, made once per run length."""
    const = np.cumprod(np.array([init] + [mult] * count, np.uint32), dtype=np.uint32)[:, None]
    const.flags.writeable = False
    return const


def seed_states(words: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n_words, np.uint64)`` of every column of the (W, T)
    uint32 array ``words``, each column the ``entropy_words`` of its entropy, as (T, n_words)
    uint64 words. The hash constants do not depend on the data, so they are the same for every
    column and one pass hashes all T; the steps of one round that update different pool words
    run as one array step."""
    words = np.asarray(words, dtype=np.uint32)
    const, used = _hash_constants(_INIT_A, _MULT_A, _POOL * (_POOL + max(len(words) - _POOL, 0))), 0

    def hashmix(value: np.ndarray, count: int) -> np.ndarray:  # the next ``count`` hashes of value
        nonlocal used
        value = (value ^ const[used : used + count]) * const[used + 1 : used + count + 1]
        used += count
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = x * _MIX_L - y * _MIX_R
        return out ^ out >> 16

    pool = np.zeros((_POOL, words.shape[1]), np.uint32)  # entropy of fewer words is padded with 0
    pool[: len(words)] = words[:_POOL]
    pool = hashmix(pool, _POOL)
    for src in range(_POOL):  # every pool word into each of the others
        dst = np.arange(_POOL) != src
        pool[dst] = mix(pool[dst], hashmix(pool[src], _POOL - 1))
    for word in words[_POOL:]:  # each word past the pool into every pool word
        pool = mix(pool, hashmix(word, _POOL))
    const = _hash_constants(_INIT_B, _MULT_B, 2 * n_words)
    state = (pool[np.arange(2 * n_words) % _POOL] ^ const[:-1]) * const[1:]
    state ^= state >> 16
    # as numpy builds them: each column's uint32 words, little-endian pairs read as uint64
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


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
    """Draw ``num_files`` uniform payloads of ``payload_bits`` bits: file i is the big-endian i-th of
    successive ``rng.bytes(nbytes)`` of ``rng = default_rng(seed)``, masked; each takes
    ceil(nbytes / 4) little-endian uint32s. One draw of the generator's raw words gives every
    row of the library; no per-file object is built."""
    check_library_size(num_files, payload_bits, allow_small_d)
    nbytes, words = (payload_bits + 7) // 8, num_files * -(-payload_bits // 32)
    # default_rng(seed).integers(0, 2**32, words, np.uint32), as PCG64 makes it: the 64-bit
    # outputs' little-endian bytes, each output's low half first
    raw = np.random.PCG64(seed).random_raw(-(-words // 2)).astype("<u8").view(np.uint8)
    rows = raw[: 4 * words].reshape(num_files, -1)[:, :nbytes].copy()
    rows[:, 0] &= 0xFF >> (8 * nbytes - payload_bits)
    rows.flags.writeable = False
    return MessageLibrary._of_rows(rows, payload_bits)


@dataclass(frozen=True)
class DemandVector:
    """One requested file index per receiver."""

    entries: tuple[int, ...]

    @classmethod
    def checked(cls, entries: Iterable[int], k: int, num_files: int) -> "DemandVector":
        entries = tuple(entries)
        for e in entries:  # as ``check_block`` takes integer dtypes only: no float, no bool
            if not isinstance(e, numbers.Integral) or isinstance(e, bool):
                raise ConfigMismatch(f"demand {e!r} is not an integer")
        d = cls(tuple(int(e) for e in entries))
        cls._check_rows(np.array([d.entries], dtype=object), k, num_files)  # Python ints: any size
        return d

    @staticmethod
    def check_block(demands: np.ndarray, k: int, num_files: int) -> None:
        """Raise ``ConfigMismatch`` unless ``demands`` is a 2-D integer array of T >= 1 rows,
        each a demand vector of K files in 1..num_files; the first bad entry in row order is named."""
        if demands.dtype.kind not in "iu":
            raise ConfigMismatch(f"demand block has dtype {demands.dtype}, expected integers")
        if demands.ndim != 2 or not len(demands):
            raise ConfigMismatch(f"demand block has shape {demands.shape}, expected (T, K={k}) with T >= 1")
        DemandVector._check_rows(demands, k, num_files)

    @staticmethod
    def _check_rows(demands: np.ndarray, k: int, num_files: int) -> None:
        if demands.shape[1] != k:
            raise ConfigMismatch(f"demand vector has {demands.shape[1]} entries, expected K={k}")
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
    ``labels[rx]`` the labels that receiver rx caches of every file. All files share
    one layout of part lengths, so a receiver's memory is D times its labels' bits.
    """

    parts: Mapping[int, tuple[Bitstring, ...]]
    labels: Mapping[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        layouts = {tuple(p.length for p in parts) for parts in self.parts.values()}
        if len(layouts) > 1:
            raise SimError(f"files have mixed part lengths {sorted(layouts)}")
        for rx, labels in self.labels.items():
            if len(set(labels)) != len(labels):
                raise SimError(f"duplicate part label in the cache of receiver {rx}")
            if any(not 1 <= p <= len(self._lengths) for p in labels):
                raise SimError(f"receiver {rx} caches labels {labels} that the files lack")
        totals = {self._bits(labels) for labels in self.labels.values()}
        if len(totals) > 1:
            raise SimError(f"asymmetric cache memory across receivers: {sorted(totals)}")

    @cached_property
    def _lengths(self) -> tuple[int, ...]:
        return tuple(p.length for p in next(iter(self.parts.values()), ()))

    def _bits(self, labels: tuple[int, ...]) -> int:
        return len(self.parts) * sum(self._lengths[p - 1] for p in labels)

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
