"""End-to-end scheme execution in the paper's two phases.

* Placement, once per (config, library): ``_scheme`` builds the demand-free
  ``CachePlacement``, which splits every file once, and fixes the number of
  parts a receiver needs, the guaranteed receivers, the combine rule and the
  delivery schedule for the demand vector (1, ..., K). In that schedule file j
  stands for "the file receiver j demands". ``verify_schedule`` checks the
  schedule against the placement here, once: validity depends on the cached
  part labels only, never on the demands, and a broken schedule raises
  ``InvalidSchedule``.
  Round robin places its K rotated schemes over the MDS-coded sub-libraries
  (``_rotations``); prop-1 places the base scheme over the main payloads and
  keeps every file's cached tail (``_prop1``). Each of these records is
  memoised on its hashable frozen inputs and never mutated, so all trials of
  one experiment share it.
* Delivery, per demand vector: ``_deliver`` runs the placed schedule on a
  backend with ``_execute``, which maps every file reference j to the demand
  of receiver j and keys each receiver's decoded parts by part label, and
  assembles the ``SimResult`` with ``_result``, which every runner shares.
  Only MC links fail here: an Ideal delivery starts with ``check_ideal_rate``.

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
from dataclasses import dataclass
from typing import Callable, Union

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
from .parts import DATA_PARTS_SOFT, PARTS_FULL, reconstruct_five
from .parts import split_full, split_soft  # unused here; perfbench/tracing.py wraps these names
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


@dataclass(frozen=True)
class _Scheme:
    """Placement-phase record of one scheme on one (config, library)."""

    cfg: NetworkConfig
    library: MessageLibrary
    placement: CachePlacement
    needed: int  # labelled parts a receiver combines into its file
    guaranteed: tuple[int, ...]
    schedule: DeliverySchedule  # file j in it is the file receiver j demands
    combine: Callable[[dict[int, Bitstring]], Bitstring]


def _concat(parts: dict[int, Bitstring]) -> Bitstring:
    return Bitstring.concat_all(parts.values())


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
    scheme = _Scheme(
        cfg,
        library,
        (cache_placement_soft if soft else cache_placement_full)(cfg.k, library),
        needed,
        tuple(range(2, cfg.k)) if soft else receivers.entries,
        (delivery_schedule_soft if soft else delivery_schedule_full)(cfg.k, receivers),
        (lambda parts: reconstruct_five(parts)) if soft else _concat,
    )
    violations = verify_schedule(scheme.schedule, scheme.placement, receivers)
    if violations:
        first = violations[0]
        raise InvalidSchedule(f"{len(violations)} violation(s), first {first.kind}: {first.detail}")
    return scheme


def _execute(
    scheme: _Scheme,
    demands: DemandVector,
    backend: Backend,
    bits_per_part: int,
    n_slot: int,
) -> tuple[dict[int, dict[int, Bitstring]], int, int]:
    """Run the placed schedule for ``demands`` on ``n_slot`` channel uses per period.

    ``_scheme`` verified the schedule at placement and ``_deliver`` the Ideal
    rate, so only an MC link can fail here. Every plan targets a part of its
    receiver's own demand, so a part label alone names what it decodes.
    Returns (per-rx decoded part label -> bits, failures, links).
    """
    cfg, placement, d = scheme.cfg, scheme.placement, demands.for_rx
    decoded: dict[int, dict[int, Bitstring]] = {rx: {} for rx in range(1, cfg.k + 1)}
    failures = links = 0

    def sent(action) -> int:
        if isinstance(action, Direct):
            return placement.parts[d(action.file)][action.part - 1].value
        assert isinstance(action, XorPair)
        return (
            placement.parts[d(action.file_a)][action.part_a - 1].value
            ^ placement.parts[d(action.file_b)][action.part_b - 1].value
        )

    for per in scheme.schedule.periods:
        if isinstance(backend, MonteCarlo):
            plans = {rx: plan for rx, plan in per.rx_plans.items() if plan is not None}
            gain = np.array([cfg.gain_at(rx) for rx in range(1, cfg.k + 1)])
            cb = draw_codebook(  # row tx - 1 is Tx tx's codebook; a silent Tx sends zeros
                n_slot,
                bits_per_part,
                cfg.power - cfg.epsilon,
                derive_seed(backend.seed, _SEED_CODEBOOK, per.index),
                [-1 if isinstance(a, Silent) else sent(a) for a in per.tx_actions.values()],
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
            # cancel keys are sent words (verify_schedule); one nn_decode per receiver count
            known = np.zeros((cfg.k, cfg.k))
            decoders: dict[int, list[int]] = {}
            for rx, plan in plans.items():
                known[rx - 1, [tx - 1 for tx, _, _ in plan.cancel]] = 1.0
                decoders.setdefault(plan.source, []).append(rx)
            y = cancel_known(y, gain[:, None], known @ cb.word)
            guesses = np.zeros(cfg.k, dtype=np.int64)
            for size in sorted({len(rxs) for rxs in decoders.values()}):
                src = np.array([tx for tx, rxs in decoders.items() if len(rxs) == size]) - 1
                at = np.array([decoders[tx + 1] for tx in src]) - 1
                guesses[at] = nn_decode(cb, src, y[at], np.where(at == src[:, None], 1.0, gain[at]))

        for rx, plan in per.rx_plans.items():
            if plan is None:
                continue
            links += 1
            if isinstance(backend, Ideal):
                guess = sent(per.tx_actions[plan.source])
            else:
                guess = int(guesses[rx - 1])
                failures += guess != int(cb.sent[plan.source - 1])
            if plan.strip:
                guess ^= placement.lookup(rx, d(plan.strip[0]), plan.strip[1]).value
            decoded[rx][plan.target[1]] = Bitstring(bits_per_part, guess)
    return decoded, failures, links


def _result(
    library: MessageLibrary,
    demands: DemandVector,
    have: dict[int, dict[int, Bitstring]],
    needed: int,
    combine: Callable[[dict[int, Bitstring]], Bitstring],
    **fields,
) -> SimResult:
    """Combine each receiver's ``needed`` lowest-labelled parts and check its demanded file."""
    decoded = {
        rx: combine(dict(sorted(parts.items())[:needed])) if len(parts) >= needed else None
        for rx, parts in have.items()
    }
    success = {rx: guess == library.payload(demands.for_rx(rx)) for rx, guess in decoded.items()}
    return SimResult(decoded=decoded, success=success, **fields)


def _deliver(scheme: _Scheme, demands: DemandVector, backend: Backend) -> SimResult:
    """Delivery phase: serve one demand vector with a placed scheme."""
    cfg, library = scheme.cfg, scheme.library
    _check_demands(cfg, library, demands)
    periods = len(scheme.schedule.periods)
    bits_per_part = library.payload_bits // scheme.needed
    if isinstance(backend, Ideal):
        rate, n_slot = check_ideal_rate(cfg), 0
    else:
        n_slot = backend.n // periods
        if n_slot < 1:
            raise ConfigMismatch(f"block length {backend.n} too short for the period count")
        rate = library.payload_bits / (periods * n_slot)

    decoded, failures, links = _execute(scheme, demands, backend, bits_per_part, n_slot)
    have = {
        rx: {**scheme.placement.parts_of(rx, demands.for_rx(rx)), **got}
        for rx, got in decoded.items()
    }
    return _result(
        library,
        demands,
        have,
        scheme.needed,
        scheme.combine,
        guaranteed=scheme.guaranteed,
        links_total=links,
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
    have = {
        rx: {} if guess is None else {1: guess, 2: tails[demands.for_rx(rx) - 1]}
        for rx, guess in main.decoded.items()
    }
    return _result(
        library,
        demands,
        have,
        2,
        _concat,
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

    return _result(
        library,
        demands,
        collected,
        k - 2,
        lambda coded: Bitstring.concat_all(mds_decode(coded, k)),
        guaranteed=tuple(range(1, k + 1)),
        links_total=links,
        link_failures=failures,
        rate_per_user=sub.rate_per_user * (k - 2) / k,
        memory_bits_per_receiver=sum(s.placement.bits_per_receiver for s in rotations),
    )
