"""End-to-end scheme execution in the paper's two phases.

* Placement, once per (config, library): ``_scheme`` builds the demand-free
  ``CachePlacement``, which splits every file once, and fixes the number of
  parts a receiver needs, the guaranteed receivers and the delivery schedule
  for the demand vector (1, ..., K). In that schedule file j stands for "the
  file receiver j demands". ``verify_schedule`` checks the schedule against the
  placement here, once: validity depends on the cached part labels only, never
  on the demands, and a broken schedule raises ``InvalidSchedule``. The
  ``_Scheme`` record compiles its schedule into a ``_Plan`` of index arrays:
  the parts each Tx action XORs, the Tx each link decodes and the cached part
  it strips, and the part labels each receiver combines into each data part.
  Round robin places its K rotated schemes over the MDS-coded sub-libraries
  (``_rotations``); prop-1 places the base scheme over the main payloads and
  keeps every file's cached tail (``_prop1``). Each of these records is
  memoised on its hashable frozen inputs and never mutated, so all trials of
  one experiment share it.
* Delivery, per demand vector: ``_deliver`` gathers the parts of each
  receiver's demanded file, maps them through the plan (``_links``), XORs each
  receiver's selected labels into its data parts and checks the payloads with
  ``_result``, which every runner shares. Only MC links fail here: an Ideal
  delivery runs at the rate ``check_ideal_rate`` passed once per placed scheme.

Two interchangeable backends drive the same schedules:

* ``Ideal`` treats every point-to-point hop as an erasure link that succeeds
  iff its attempted rate is strictly below the interference-free capacity.
  At the scheme rates every link succeeds; XOR and cancellation are bit-exact.
* ``MonteCarlo`` draws per period a fresh shell codebook for every transmitter
  and the noise of every receiver, each from one generator, runs the noisy
  channel, cancels known interferers from cache, and decodes each codebook by
  nearest neighbor at all its receivers at once, one batch per receiver count.

Receivers 2..K-1 are the soft-handoff scheme's guarantee; Rx 1 and Rx K only
collect one or two submessages each and are repaired by the round-robin
wrapper, which rotates all labels over K super-periods and erasure-codes each
message so that any K-2 of its K coded parts suffice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ..channel import cancel_known, check_power, transmit_full, transmit_soft
from ..codec import draw_codebook, nn_decode
from ..model import (
    Bitstring,
    CachePlacement,
    DemandVector,
    MessageLibrary,
    NetworkConfig,
    SimError,
    Variant,
    derive_seed,
    validate_config,
)
from .mds import mds_decode, mds_encode
from .parts import DATA_PARTS_SOFT, PARTS_FULL
from .parts import reconstruct_five, split_full, split_soft  # names perfbench/tracing.py wraps
from .placement import cache_placement_full, cache_placement_soft
from .points import check_ideal_rate
from .schedule import (
    DeliverySchedule,
    Direct,
    Silent,
    XorPair,
    delivery_schedule_full,
    delivery_schedule_soft,
    verify_schedule,
)

_SEED_CODEBOOK = 0xC0DE
_SEED_NOISE = 0x401E
_SEED_SUPER = 0x50BE


class PowerViolation(SimError):
    pass


class ConfigMismatch(SimError):
    pass


class InvalidSchedule(SimError):
    pass


@dataclass(frozen=True)
class Ideal:
    """Capacity-threshold links whose rate ``_deliver`` checks once; no block length involved."""


@dataclass(frozen=True)
class MonteCarlo:
    """Shell-codebook simulation over ``n`` channel uses split evenly across periods.

    Each (trial, period) draws a fresh codebook per transmitter, and the noise,
    from ``seed``, which the harness derives per trial. A sent word is an explicit
    n-vector; every other word is three numbers, its exact projection onto the
    frame of the received vectors that decode it (``codec``). Success rates are
    averages over the random-coding ensemble, as in the paper's achievability
    argument, not the error rate of one fixed code.
    """

    n: int
    seed: int = 0


Backend = Union[Ideal, MonteCarlo]


@dataclass(frozen=True)
class SimResult:
    """Outcome of one delivery run."""

    decoded: dict[int, Bitstring | None]  # per-receiver payload guess
    success: dict[int, bool]  # bit-exact match with the demanded file
    guaranteed: tuple[int, ...]  # receivers the scheme promises to serve
    links_total: int
    link_failures: int
    rate_per_user: float
    memory_bits_per_receiver: int

    def all_guaranteed_ok(self) -> bool:
        return all(self.success[rx] for rx in self.guaranteed)


@dataclass(frozen=True, eq=False)
class _Period:
    """One period of a compiled schedule: its slices of the plan and its MC decode layout."""

    index: int  # the schedule's period number, which keys its MC random streams
    txs: slice  # its K Tx actions, Tx 1..K, in the plan's tx arrays
    links: slice  # its links in the plan's link arrays
    known: np.ndarray  # (K, K) 0/1: receiver row cancels the sent word of Tx column
    batches: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]  # nn_decode (rows, rx, gains)


@dataclass(frozen=True, eq=False)
class _Plan:
    """A placed schedule as index arrays into each delivery's source vector.

    ``values`` holds part p of file f at [f - 1, p - 1] as a Python int, so any
    L takes one path, and 0 in a trailing column. The source vector is the row
    of each receiver's demand, flattened in rx order, followed by every link's
    decoded part: receiver j's part p is at (j - 1) * (parts + 1) + p - 1, and
    an absent XOR side or strip names the 0 of row 1.
    """

    values: np.ndarray  # (files, parts + 1), dtype object
    tx: np.ndarray  # (2, periods * K): source positions of both sides of each Tx action
    silent: np.ndarray  # (periods * K,)
    link_rx: np.ndarray  # (links,): 0-based receiver
    link_tx: np.ndarray  # (links,): its source's index in ``tx``
    link_strip: np.ndarray  # (links,): source position of the cached part it XORs out
    periods: tuple[_Period, ...]
    gain: np.ndarray  # (K, 1): each receiver's cross gain
    select: np.ndarray  # (K, needed, needed): source positions XORed into each data part
    served: np.ndarray  # (K,): the receiver holds ``needed`` part labels
    shifts: np.ndarray  # (needed,): each data part's offset in the payload, dtype object


@dataclass(frozen=True)
class _Scheme:
    """Placement-phase record of one scheme on one (config, library)."""

    cfg: NetworkConfig
    library: MessageLibrary
    placement: CachePlacement
    needed: int  # labelled parts a receiver combines into its file
    guaranteed: tuple[int, ...]
    schedule: DeliverySchedule  # file j in it is the file receiver j demands
    plan: _Plan = field(init=False, repr=False, compare=False)  # so replace() recompiles it

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan", _compile(self))

    @functools.cached_property
    def ideal_rate(self) -> float:
        return check_ideal_rate(self.cfg)


def _compile(scheme: _Scheme) -> _Plan:
    """Index arrays of ``scheme.schedule``, which depend on the placement alone."""
    cfg, k, needed, placement = scheme.cfg, scheme.cfg.k, scheme.needed, scheme.placement
    files = [placement.parts[f] for f in sorted(placement.parts)]
    cols = len(files[0]) + 1
    values = np.array([[p.value for p in parts] + [0] for parts in files], dtype=object)
    gain = np.array([[cfg.gain_at(rx)] for rx in range(1, k + 1)])
    at = lambda ref, part: (ref - 1) * cols + part - 1  # source position of a part
    zero = cols - 1
    # each receiver's part labels -> source position; cached parts first, links override
    held = {rx: {p: at(rx, p) for p in placement.labels.get(rx, ())} for rx in range(1, k + 1)}
    sides, silent, links, periods = [], [], [], []
    for per in scheme.schedule.periods:
        txs = slice(len(silent), len(silent) + k)
        for tx in range(1, k + 1):
            a = per.tx_actions[tx]
            silent.append(isinstance(a, Silent))
            if isinstance(a, XorPair):
                sides.append((at(a.file_a, a.part_a), at(a.file_b, a.part_b)))
            else:
                sides.append((at(a.file, a.part) if isinstance(a, Direct) else zero, zero))
        first = len(links)
        known = np.zeros((k, k))
        decoders: dict[int, list[int]] = {}
        for rx, plan in per.rx_plans.items():
            if plan is None:
                continue
            links.append((rx - 1, txs.start + plan.source - 1, at(*plan.strip) if plan.strip else zero))
            held[rx][plan.target[1]] = k * cols + len(links) - 1
            known[rx - 1, [tx - 1 for tx, _, _ in plan.cancel]] = 1.0
            decoders.setdefault(plan.source, []).append(rx)
        batches = []  # one nn_decode per receiver count, Tx in order of first decoding receiver
        for size in sorted({len(rxs) for rxs in decoders.values()}):
            src = np.array([tx for tx, rxs in decoders.items() if len(rxs) == size]) - 1
            rxs = np.array([decoders[tx + 1] for tx in src]) - 1
            batches.append((src, rxs, np.where(rxs == src[:, None], 1.0, gain[rxs, 0])))
        periods.append(_Period(per.index, txs, slice(first, len(links)), known, tuple(batches)))
    # data part s is its own label, or the XOR of the five labels held (soft parity repair)
    select = np.full((k, needed, needed), zero)
    served = np.zeros(k, dtype=bool)
    for rx in range(1, k + 1):
        chosen = dict(sorted(held[rx].items())[:needed])
        served[rx - 1] = len(chosen) == needed
        for s in range(1, needed + 1) if served[rx - 1] else ():
            picks = [chosen[s]] if s in chosen else list(chosen.values())
            select[rx - 1, s - 1, : len(picks)] = picks
    shifts = np.array([files[0][0].length * (needed - s) for s in range(1, needed + 1)], dtype=object)
    return _Plan(
        values, np.array(sides, dtype=np.intp).T, np.array(silent),
        *np.array(links, dtype=np.intp).reshape(-1, 3).T, tuple(periods), gain, select, served, shifts,
    )


def _checked(cfg: NetworkConfig, variant: Variant) -> NetworkConfig:
    validate_config(cfg)
    if cfg.variant is not variant:
        raise ConfigMismatch(f"config is {cfg.variant.value}, scheme needs {variant.value}")
    return cfg


def _check_demands(cfg: NetworkConfig, library: MessageLibrary, demands: DemandVector) -> None:
    if len(demands) != cfg.k:
        raise ConfigMismatch(f"demand vector length {len(demands)} != K={cfg.k}")
    for d in demands:
        if not 1 <= d <= library.num_files:
            raise ConfigMismatch(f"demand {d} outside library 1..{library.num_files}")


@functools.lru_cache(maxsize=1)
def _scheme(cfg: NetworkConfig, library: MessageLibrary) -> _Scheme:
    """Placement phase: everything about a run of ``cfg`` that the demands do not change."""
    soft = cfg.variant is Variant.SOFT_HANDOFF
    needed = DATA_PARTS_SOFT if soft else PARTS_FULL
    if library.payload_bits % needed != 0:
        raise ConfigMismatch(
            f"payload of {library.payload_bits} bits is not divisible by {needed}"
        )
    receivers = DemandVector(tuple(range(1, cfg.k + 1)))
    # every builder is looked up by name per call, so tracers see it
    placement = (cache_placement_soft if soft else cache_placement_full)(cfg.k, library)
    schedule = (delivery_schedule_soft if soft else delivery_schedule_full)(cfg.k, receivers)
    violations = verify_schedule(schedule, placement, receivers)
    if violations:
        first = violations[0]
        raise InvalidSchedule(f"{len(violations)} violation(s), first {first.kind}: {first.detail}")
    guaranteed = tuple(range(2, cfg.k)) if soft else receivers.entries
    return _Scheme(cfg, library, placement, needed, guaranteed, schedule)


def _links(
    scheme: _Scheme, own: np.ndarray, backend: Backend, bits: int, n_slot: int
) -> tuple[np.ndarray, int]:
    """Every link's decoded part, given the demanded rows ``own``, and the count of wrong links.

    ``_scheme`` verified the schedule at placement and ``_deliver`` the Ideal
    rate, so only an MC link can decode a wrong word.
    """
    cfg, plan = scheme.cfg, scheme.plan
    sent = own[plan.tx[0]] ^ own[plan.tx[1]]
    failures = 0
    if isinstance(backend, Ideal):
        guess = sent[plan.link_tx]
    else:
        rows = np.where(plan.silent, -1, sent).astype(np.int64)  # a silent Tx sends zeros
        guess = np.empty(len(plan.link_tx), dtype=object)
        for per in plan.periods:
            cb = draw_codebook(  # row tx - 1 is Tx tx's codebook
                n_slot,
                bits,
                cfg.power - cfg.epsilon,
                derive_seed(backend.seed, _SEED_CODEBOOK, per.index),
                rows[per.txs],
                cfg.power,
            )
            if not (pc := check_power(cb.word, cfg.power)).ok.all():
                i = int(np.argmin(pc.ok))
                raise PowerViolation(f"Tx {i + 1} block power {pc.measured[i]:.6g} exceeds P={cfg.power}")
            noise_seed = derive_seed(backend.seed, _SEED_NOISE, per.index)
            if cfg.variant is Variant.SOFT_HANDOFF:
                y = transmit_soft(cb.word, cfg.gains, noise_seed)
            else:
                y = transmit_full(cb.word, cfg.alpha, noise_seed)
            y = cancel_known(y, plan.gain, per.known @ cb.word)  # cancel keys are sent words
            guesses = np.zeros(cfg.k, dtype=np.int64)
            for src, rxs, gains in per.batches:
                guesses[rxs] = nn_decode(cb, src, y[rxs], gains)
            got = guesses[plan.link_rx[per.links]]
            failures += np.count_nonzero(got != rows[plan.link_tx[per.links]])
            guess[per.links] = got.tolist()
    return guess ^ own[plan.link_strip], int(failures)


def _result(
    library: MessageLibrary, demands: DemandVector, decoded: dict[int, Bitstring | None], **fields
) -> SimResult:
    """Check each receiver's decoded payload against its demanded file."""
    success = {rx: guess == library.payload(demands.for_rx(rx)) for rx, guess in decoded.items()}
    return SimResult(decoded=decoded, success=success, **fields)


def _deliver(scheme: _Scheme, demands: DemandVector, backend: Backend) -> SimResult:
    """Delivery phase: serve one demand vector with a placed scheme."""
    cfg, library, plan = scheme.cfg, scheme.library, scheme.plan
    _check_demands(cfg, library, demands)
    periods = len(plan.periods)
    if isinstance(backend, Ideal):
        rate, n_slot = scheme.ideal_rate, 0
    else:
        n_slot = backend.n // periods
        if n_slot < 1:
            raise ConfigMismatch(f"block length {backend.n} too short for the period count")
        rate = library.payload_bits / (periods * n_slot)

    own = plan.values[np.array(demands.entries) - 1].ravel()
    links, failures = _links(scheme, own, backend, library.payload_bits // scheme.needed, n_slot)
    data = np.bitwise_xor.reduce(np.concatenate((own, links))[plan.select], axis=-1)
    payloads = np.bitwise_or.reduce(data << plan.shifts, axis=-1).tolist()
    decoded = {
        rx: Bitstring(library.payload_bits, payloads[rx - 1]) if plan.served[rx - 1] else None
        for rx in range(1, cfg.k + 1)
    }
    return _result(
        library,
        demands,
        decoded,
        guaranteed=scheme.guaranteed,
        links_total=len(links),
        link_failures=failures,
        rate_per_user=rate,
        memory_bits_per_receiver=scheme.placement.bits_per_receiver,
    )


def run_soft(
    cfg: NetworkConfig,
    library: MessageLibrary,
    demands: DemandVector,
    backend: Backend = Ideal(),
) -> SimResult:
    """One delivery round of the soft-handoff scheme (interior receivers guaranteed)."""
    return _deliver(_scheme(_checked(cfg, Variant.SOFT_HANDOFF), library), demands, backend)


def run_full(
    cfg: NetworkConfig,
    library: MessageLibrary,
    demands: DemandVector,
    backend: Backend = Ideal(),
) -> SimResult:
    """One delivery round of the full-model scheme (all K receivers guaranteed)."""
    return _deliver(_scheme(_checked(cfg, Variant.FULL), library), demands, backend)


@functools.lru_cache(maxsize=1)
def _prop1(
    cfg: NetworkConfig, library: MessageLibrary, extra_bits: int
) -> tuple[_Scheme, tuple[Bitstring, ...]]:
    """Placement phase of prop-1: the base scheme over the main payloads, and every file's tail."""
    main_bits = library.payload_bits - extra_bits
    mains = tuple(Bitstring(main_bits, p.value >> extra_bits) for p in library)
    mask = (1 << extra_bits) - 1
    tails = tuple(Bitstring(extra_bits, p.value & mask) for p in library)
    return _scheme(cfg, MessageLibrary(mains)), tails


def run_soft_prop1(
    cfg: NetworkConfig,
    library: MessageLibrary,
    demands: DemandVector,
    extra_bits: int,
    backend: Backend = Ideal(),
) -> SimResult:
    """Soft-handoff run with an extra tail of every file cached at every receiver.

    Each payload is treated as (main || extra) with ``extra_bits`` trailing bits;
    the base scheme delivers the main piece and the extra piece is read from
    cache, lifting the operating point from (R, M) to (R + dR, M + D*dR).
    """
    if extra_bits < 0:
        raise ConfigMismatch(f"negative extra_bits {extra_bits}")
    if extra_bits == 0:
        return run_soft(cfg, library, demands, backend)
    main_bits = library.payload_bits - extra_bits
    if main_bits <= 0 or main_bits % DATA_PARTS_SOFT != 0:
        raise ConfigMismatch(
            f"main payload of {main_bits} bits is not divisible by {DATA_PARTS_SOFT}"
        )
    base, tails = _prop1(_checked(cfg, Variant.SOFT_HANDOFF), library, extra_bits)
    main = _deliver(base, demands, backend)
    decoded = {
        rx: None if guess is None else guess.concat(tails[demands.for_rx(rx) - 1])
        for rx, guess in main.decoded.items()
    }
    return _result(
        library,
        demands,
        decoded,
        guaranteed=main.guaranteed,
        links_total=main.links_total,
        link_failures=main.link_failures,
        rate_per_user=main.rate_per_user * (library.payload_bits / main_bits),
        memory_bits_per_receiver=main.memory_bits_per_receiver + library.num_files * extra_bits,
    )


def role_of(physical: int, super_period: int, k: int) -> int:
    """Role index of physical node ``physical`` in super-period ``super_period``."""
    return (physical - super_period - 1) % k + 1


def physical_of(role: int, super_period: int, k: int) -> int:
    return (role + super_period - 1) % k + 1


@functools.lru_cache(maxsize=1)
def _rotations(cfg: NetworkConfig, library: MessageLibrary) -> tuple[_Scheme, ...]:
    """Placement phase of round robin: the placed soft scheme of super-periods 1..K.

    Super-period l carries coded part l of every file, with the cross gains of
    the physical nodes that play each role in that super-period.
    """
    k = cfg.k
    chunk = library.payload_bits // (k - 2)
    if library.payload_bits % (k - 2) != 0 or chunk % 8 != 0 or chunk % DATA_PARTS_SOFT != 0:
        raise ConfigMismatch(
            f"round-robin needs the payload divisible into K-2={k - 2} byte-aligned "
            f"parts each divisible by {DATA_PARTS_SOFT}; got {library.payload_bits} bits"
        )
    coded = [mds_encode(list(p.split(k - 2))) for p in library]
    return tuple(
        _scheme(
            NetworkConfig.soft_handoff(
                k,
                tuple(cfg.gain_at(physical_of(r, ell, k)) for r in range(1, k + 1)),
                cfg.power,
                cfg.epsilon,
            ),
            MessageLibrary(tuple(parts[ell - 1] for parts in coded)),
        )
        for ell in range(1, k + 1)
    )


def round_robin_soft(
    cfg: NetworkConfig,
    library: MessageLibrary,
    demands: DemandVector,
    backend: Backend = Ideal(),
) -> SimResult:
    """Rotate the soft-handoff scheme over K super-periods so all K receivers decode.

    Each message is erasure-coded into K parts of which any K-2 reconstruct it;
    super-period l delivers coded part l with all labels shifted by l, so every
    receiver plays a bad edge role exactly twice and still collects K-2 parts.
    The per-user rate shrinks by the factor (K-2)/K.
    """
    _checked(cfg, Variant.SOFT_HANDOFF)
    _check_demands(cfg, library, demands)
    k = cfg.k
    rotations = _rotations(cfg, library)

    collected: dict[int, dict[int, Bitstring]] = {rx: {} for rx in range(1, k + 1)}
    failures = 0
    links = 0
    for ell, scheme in enumerate(rotations, start=1):
        sub_demands = DemandVector(
            tuple(demands.for_rx(physical_of(r, ell, k)) for r in range(1, k + 1))
        )
        sub_backend = backend
        if isinstance(backend, MonteCarlo):
            sub_backend = MonteCarlo(backend.n, derive_seed(backend.seed, _SEED_SUPER, ell))
        sub = _deliver(scheme, sub_demands, sub_backend)
        failures += sub.link_failures
        links += sub.links_total
        for rx in range(1, k + 1):
            role = role_of(rx, ell, k)
            if role in sub.guaranteed and sub.decoded[role] is not None:
                collected[rx][ell] = sub.decoded[role]

    decoded = {  # the K-2 lowest super-periods of each receiver
        rx: Bitstring.concat_all(mds_decode(dict(sorted(coded.items())[: k - 2]), k))
        if len(coded) >= k - 2
        else None
        for rx, coded in collected.items()
    }
    return _result(
        library,
        demands,
        decoded,
        guaranteed=tuple(range(1, k + 1)),
        links_total=links,
        link_failures=failures,
        rate_per_user=sub.rate_per_user * (k - 2) / k,
        memory_bits_per_receiver=sum(s.placement.bits_per_receiver for s in rotations),
    )
