"""End-to-end scheme execution in the paper's two phases.

* Placement, once per (model, K, library): ``check_scheme`` holds every rule a
  run must pass before any demand is known; each runner calls it on the config
  it is handed, and ``ExperimentSpec.validate`` calls it too. ``_scheme`` builds
  the demand-free ``CachePlacement``, which splits every file once, and the
  delivery schedule for the demands (1, ..., K), in which file j stands for
  "the file receiver j demands"; ``verify_schedule`` checks it against the
  cached labels once, and a broken schedule raises ``InvalidSchedule``.
  ``_compile`` is the one place that turns these objects into a ``_Plan`` of
  arrays: index arrays over the sources, the plane of every part value as uint8
  bytes, ``want`` (each file's data parts as a delivery must decode them, read
  off the plane), the memory, and each period's MC decode layout. Two
  combinators reshape a compiled base plan into the other schemes.
  ``_cache_tail`` (prop-1) adds every file's tail to the plan of either model,
  as a label cached at every receiver. ``_rotate`` (round robin) keeps the soft
  plan placed over every MDS-coded part as it is and adds each receiver's K - 2
  pieces, the (rotation, role) pairs in which it plays a guaranteed role, with
  their MDS decode as a GF(256) ``Recipe`` that ``decode_recipe`` states in
  closed form for all receivers at once. A plan depends on the model, K and the
  library, not on the channel: it is memoised on them and shared by every trial
  and every SNR point of a sweep.
* Delivery, per block of demand vectors: ``_deliver`` serves a (T, K) array of
  them with any plan at once: it gathers each row's source vectors from the
  plane (``_sources``), decodes the links (``_links``: gathers and XORs, and for
  MC one codebook draw and decode per row and period, from that row's seed),
  XOR-reduces each receiver's selected labels into its data parts and compares
  them with ``want``. Round robin delivers trial t as K rows of its base plan:
  in rotation l the role played by node n demands coded part l of node n's
  file, hears node n's cross gain and draws from the seed keyed by
  (``_SEED_SUPER``, l). Each receiver's pieces are then gathered from its rows
  and decoded by its recipe, for every trial in one array step. No Python code
  runs per receiver or per Ideal trial. The MC links read power, epsilon and
  gains from the runner's config, and an Ideal delivery runs at the rate
  ``check_ideal_rate`` passes once per runner call, so only MC links fail here.
  The runners take a block and return its ``BlockResult``, or one
  ``DemandVector`` and return its ``SimResult``, the one-trial block with the
  decoded payloads (``_run``).

Two interchangeable backends drive the same plans:

* ``Ideal`` treats every point-to-point hop as an erasure link that succeeds
  iff its attempted rate is strictly below the interference-free capacity.
  At the scheme rates every link succeeds; XOR and cancellation are bit-exact.
* ``MonteCarlo`` draws per period a fresh shell codebook for every transmitter
  and the noise of every receiver, each from one generator, runs the noisy
  channel, cancels known interferers from cache, and decodes each codebook by
  nearest neighbor at all its receivers at once, one batch per receiver count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Sequence, Union

import numpy as np

from ..channel import cancel_known, check_power, transmit_full, transmit_soft
from ..codec import draw_codebook, nn_decode
from ..model import (
    Bitstring,
    CachePlacement,
    ConfigMismatch,
    DemandVector,
    MessageLibrary,
    NetworkConfig,
    SimError,
    Variant,
    derive_seed,
    validate_config,
)
from .mds import MAX_K, Recipe, decode_recipe, mds_encode
from .mds import mds_decode  # a name perfbench/tracing.py wraps
from .parts import reconstruct_five, split_full, split_soft  # names perfbench/tracing.py wraps
from .placement import cache_placement_full, cache_placement_soft
from .points import check_ideal_rate
from .schedule import (
    MIN_SOFT_K,
    NEEDED,
    DeliverySchedule,
    Direct,
    KTooSmall,
    Silent,
    XorPair,
    delivery_schedule_full,
    delivery_schedule_soft,
    guaranteed_receivers,
    verify_schedule,
)

_SEED_CODEBOOK = 0xC0DE
_SEED_NOISE = 0x401E
_SEED_SUPER = 0x50BE

# A delivery block's largest array gathers, per row and receiver, the picks of every data
# part: at most 6 parts x 5 picks of nb label bytes, and a round robin trial is K rows. A block
# of ``block_trials`` trials keeps it within 4 MiB; like codec's chunk, it bounds memory only.
BLOCK_BYTES = 1 << 22


class PowerViolation(SimError):
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
    from the trial's seed: ``seed`` for one delivery, and for a block the runner's
    ``seeds``, which the harness derives per trial. A sent word is an explicit
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
class BlockResult:
    """Outcome of a block of deliveries, one per row of its (T, K) demands."""

    success: np.ndarray  # (T, K) bool: receiver rx of trial t decoded its file bit-exactly at [t, rx - 1]
    guaranteed: tuple[int, ...]  # receivers the scheme promises to serve
    links_total: int  # over every trial of the block
    link_failures: int
    rate_per_user: float
    memory_bits_per_receiver: int


@dataclass(frozen=True, eq=False)
class _Period:
    """One period of a plan: its links and its MC decode layout. Period i owns Tx actions i * K
    to (i + 1) * K - 1; they, its link receivers, codebook rows and noise rows are in node
    order, node r at r - 1."""

    index: int  # the schedule's period number, which keys its MC random streams
    links: slice  # its links in the plan's link arrays
    cancel: np.ndarray  # (K, 2): the nodes whose sent words each receiver cancels; K, a zero row, pads
    batches: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]  # nn_decode (rows, rx, rx hears own Tx)


def _byte_rows(values: Sequence[int], nb: int) -> np.ndarray:
    """Each int as ``nb`` big-endian bytes, one uint8 row per int."""
    return np.frombuffer(b"".join(v.to_bytes(nb, "big") for v in values), np.uint8).reshape(len(values), nb)


@dataclass(frozen=True, eq=False)
class _Plan:
    """A placed scheme as index arrays into each delivery's source vectors; ``_deliver`` walks it.

    It depends on the model, K and the library; each delivery brings the channel. ``plane``
    holds label p of file f at [p - 1, f - 1] as nb big-endian bytes, right-aligned, nb
    fitting the widest label, so any L takes one path. A row's source vector is a 0, then
    each label's column of the receivers' demands, then every link's decoded part in
    reverse: receiver j's label p is at (p - 1) * K + j, link i at ~i, and an absent XOR
    side or strip names the 0, so a new label appends without moving a position. The data
    parts that ``select[rx - 1]`` XORs are receiver rx's payload cut into ``widths``. In
    round robin they are one coded part, its data labels joined byte by byte, and receiver
    rx's K - 2 ``pieces`` are the coded parts its ``recipe`` decodes into its payload.
    """

    library: MessageLibrary  # the files each receiver's payload is checked against
    guaranteed: tuple[int, ...]
    base_bits: int  # payload of one base delivery; MC rate base_bits / (base_periods * n_slot)
    base_periods: int  # periods of one base delivery, each n // base_periods channel uses
    part_bits: int  # bits per scheduled part, the MC codebook size
    plane: np.ndarray  # (labels, files, nb) uint8: every part value
    want: np.ndarray  # (files, data parts, bytes) uint8: each file's data parts as ``_deliver`` decodes them
    memory_bits: int  # cache bits per receiver
    tx: np.ndarray  # (2, periods * K): source positions of both sides of each Tx action
    silent: np.ndarray  # (periods * K,)
    link_rx: np.ndarray  # (links,): 0-based receiver role in its period
    link_tx: np.ndarray  # (links,): its source's index in ``tx``
    link_strip: np.ndarray  # (links,): source position of the cached part it XORs out
    periods: tuple[_Period, ...]
    select: np.ndarray  # (K, data parts, picks)
    served: np.ndarray  # (K,): the receiver holds every label its data parts (or pieces) need
    widths: tuple[int, ...]  # bits of each data part of a payload, the first the most significant
    scale: Callable[[float], float] = lambda rate: rate  # base rate -> reported rate
    pieces: np.ndarray | None = None  # round robin: (K, K - 2, 2) 0-based (rotation, role) of each piece
    recipe: Recipe | None = None  # round robin: each receiver's MDS decode of its pieces


def _compile(library: MessageLibrary, placement: CachePlacement, schedule: DeliverySchedule) -> _Plan:
    """A placed schedule as arrays, which depend on the placement alone: file j in ``schedule``
    is the file receiver j demands, and a receiver XORs ``NEEDED`` labels into it."""
    k, needed = schedule.k, NEEDED[schedule.variant]
    at = lambda ref, part: (part - 1) * k + ref  # source position of a part
    # each receiver's part labels -> source position; cached parts first, links override
    held = {rx: {p: at(rx, p) for p in placement.labels.get(rx, ())} for rx in range(1, k + 1)}
    sides, silent, links, periods = [], [], [], []
    for per in schedule.periods:
        tx0 = len(silent)
        for tx in range(1, k + 1):
            a = per.tx_actions[tx]
            silent.append(isinstance(a, Silent))
            if isinstance(a, XorPair):
                sides.append((at(a.file_a, a.part_a), at(a.file_b, a.part_b)))
            else:
                sides.append((at(a.file, a.part) if isinstance(a, Direct) else 0, 0))
        start, cancel, decoders = len(links), np.full((k, 2), k, dtype=np.intp), {}
        for rx, plan in per.rx_plans.items():
            if plan is not None:
                links.append((rx - 1, tx0 + plan.source - 1, at(*plan.strip) if plan.strip else 0))
                held[rx][plan.target[1]] = ~(len(links) - 1)
                cancel[rx - 1, : len(plan.cancel)] = [tx - 1 for tx, _, _ in plan.cancel]
                decoders.setdefault(plan.source, []).append(rx)
        batches = []  # one nn_decode per receiver count, Tx in order of first decoding receiver
        for size in sorted({len(rxs) for rxs in decoders.values()}):
            src = np.array([tx for tx, rxs in decoders.items() if len(rxs) == size]) - 1
            rxs = np.array([decoders[tx + 1] for tx in src]) - 1
            batches.append((src, rxs, rxs == src[:, None]))
        periods.append(_Period(per.index, slice(start, len(links)), cancel, tuple(batches)))
    # data part s is its own label, or the XOR of the five labels held (soft parity repair)
    select, served = np.zeros((k, needed, needed), dtype=np.intp), np.zeros(k, dtype=bool)
    for rx in range(1, k + 1):
        chosen = dict(sorted(held[rx].items())[:needed])
        served[rx - 1] = len(chosen) == needed
        for s in range(1, needed + 1) if served[rx - 1] else ():
            picks = [chosen[s]] if s in chosen else list(chosen.values())
            select[rx - 1, s - 1, : len(picks)] = picks
    files = [placement.parts[f] for f in sorted(placement.parts)]
    bits, nb = files[0][0].length, -(-max(p.length for p in files[0]) // 8)
    plane = _byte_rows([p.value for label in zip(*files) for p in label], nb).reshape(-1, len(files), nb)
    return _Plan(
        library, guaranteed_receivers(schedule.variant, k), library.payload_bits, len(periods), bits,
        plane, plane[:needed].swapaxes(0, 1), placement.bits_per_receiver,
        np.array(sides, dtype=np.intp).T, np.array(silent),
        *np.array(links, dtype=np.intp).reshape(-1, 3).T, tuple(periods), select, served, (bits,) * needed,
    )


@functools.lru_cache(maxsize=1)
def _rotate(variant: Variant, k: int, library: MessageLibrary) -> _Plan:
    """Round robin: the soft plan placed once over the MDS-coded library, file (f - 1) * K + l
    coded part l of file f, and delivered K times by ``_deliver``: in rotation l, 0-based node
    n plays 0-based role (n - l) mod K. Receiver rx plays a guaranteed role in K - 2
    rotations, fixed here as its pieces, and its ``decode_recipe`` row decodes the coded parts
    of its file that they carry."""
    coded = [mds_encode(list(p.split(k - 2))) for p in library]
    # placed uncached: the one-slot ``_scheme`` cache keeps the plans the runners deliver with
    plan = _scheme.__wrapped__(variant, k, MessageLibrary(tuple(part for parts in coded for part in parts)))
    role = lambda rx, ell: (rx - ell - 1) % k  # 0-based, played by node rx in rotation ell
    pieces = np.array([
        [(ell - 1, role(rx, ell)) for ell in range(1, k + 1) if role(rx, ell) + 1 in plan.guaranteed]
        for rx in range(1, k + 1)
    ])
    _, needed, nb = plan.want.shape
    return replace(
        plan, library=library, guaranteed=tuple(range(1, k + 1)),
        # the code is systematic: data part i is coded part i, its data labels joined
        want=plan.want.reshape(-1, k, needed * nb)[:, : k - 2], served=plan.served[pieces[..., 1]].all(axis=1),
        scale=lambda rate: rate * (k - 2) / k, widths=(library.payload_bits // (k - 2),) * (k - 2),
        pieces=pieces, recipe=decode_recipe(pieces[..., 0] + 1, k),
    )


@functools.lru_cache(maxsize=1)
def _cache_tail(variant: Variant, k: int, library: MessageLibrary, extra_bits: int) -> _Plan:
    """Prop-1: the plan of the leading bits of each file, plus one more label, the tail,
    cached at every receiver, never among the needed labels and appended to each payload."""
    mains = MessageLibrary(tuple(Bitstring(p.length - extra_bits, p.value >> extra_bits) for p in library))
    plan = _scheme.__wrapped__(variant, k, mains)  # uncached, as in ``_rotate``
    width, nb = len(plan.plane), max(plan.plane.shape[-1], -(-extra_bits // 8))
    tails = _byte_rows([p.value & ((1 << extra_bits) - 1) for p in library], nb)[:, None]  # (files, 1, nb)
    pad = lambda parts: np.pad(parts, ((0, 0), (0, 0), (nb - parts.shape[-1], 0)))
    tail = np.zeros((k, 1, plan.select.shape[-1]), dtype=np.intp)
    tail[:, 0, 0] = width * k + np.arange(1, k + 1)
    return replace(
        plan, library=library, plane=np.concatenate((pad(plan.plane), tails.swapaxes(0, 1))),
        want=np.concatenate((pad(plan.want), tails), axis=1),
        memory_bits=plan.memory_bits + library.num_files * extra_bits,
        scale=lambda rate: rate * (library.payload_bits / mains.payload_bits),
        select=np.concatenate((plan.select, tail), axis=-2), widths=(*plan.widths, extra_bits),
    )


def check_scheme(cfg: NetworkConfig, payload_bits: int, round_robin: bool = False, extra_bits: int = 0) -> None:
    """Raise the named ``SimError`` for the first placement rule that a run of ``cfg`` on
    ``payload_bits``-bit files breaks, round robin or with a prop-1 tail of ``extra_bits``."""
    validate_config(cfg)
    soft = cfg.variant is Variant.SOFT_HANDOFF
    if soft and cfg.k < MIN_SOFT_K:
        raise KTooSmall(f"soft-handoff schedule needs K >= {MIN_SOFT_K}, got {cfg.k}")
    if round_robin and not soft:
        raise ConfigMismatch("round robin applies to the soft-handoff scheme only")
    if extra_bits < 0:
        raise ConfigMismatch(f"negative prop1_extra_bits {extra_bits}")
    base = payload_bits - extra_bits  # the main part of prop-1, or one MDS part of round robin
    if round_robin:
        if cfg.k > MAX_K:
            raise ConfigMismatch(f"round robin's GF(256) MDS code allows K <= {MAX_K}, got K={cfg.k}")
        base, rest = divmod(payload_bits, cfg.k - 2)
        if rest or base % 8:  # the MDS code works byte-wise on each of the K-2 data parts
            raise ConfigMismatch(
                f"round robin needs the {payload_bits}-bit payload split into K-2={cfg.k - 2} "
                f"whole-byte MDS parts; use a multiple of 8 for bits"
            )
    if base <= 0 or base % NEEDED[cfg.variant]:
        raise ConfigMismatch(f"payload of {base} bits is not divisible into {NEEDED[cfg.variant]} parts")


def block_trials(cfg: NetworkConfig, payload_bits: int, round_robin: bool = False, extra_bits: int = 0) -> int:
    """Trials per delivery block of a run that ``check_scheme`` passes: its largest array fits
    ``BLOCK_BYTES``, and a block holds at least one trial. A round robin trial is K rows of
    its base plan, whose labels are those of one of the K - 2 MDS parts."""
    needed, pieces = NEEDED[cfg.variant], cfg.k - 2 if round_robin else 1
    nb = -(-max((payload_bits - extra_bits) // (needed * pieces), extra_bits) // 8)
    rows = cfg.k if round_robin else 1
    return max(1, BLOCK_BYTES // (rows * cfg.k * (needed + 1) * needed * nb))


def _checked(
    cfg: NetworkConfig, variant: Variant, library: MessageLibrary, round_robin: bool = False, extra_bits: int = 0
) -> tuple[Variant, int, MessageLibrary]:
    """The plan key (model, K, library) of a run of the ``variant`` scheme that passes every rule."""
    if cfg.variant is not variant:
        raise ConfigMismatch(f"config is {cfg.variant.value}, scheme needs {variant.value}")
    check_scheme(cfg, library.payload_bits, round_robin, extra_bits)
    return variant, cfg.k, library


@functools.lru_cache(maxsize=1)
def _scheme(variant: Variant, k: int, library: MessageLibrary) -> _Plan:
    """Placement phase: everything about a run of the ``variant`` scheme on K nodes that neither
    the demands nor the channel change. The caller has checked the run with ``check_scheme``."""
    soft = variant is Variant.SOFT_HANDOFF
    # every builder is looked up by name per call, so tracers see it
    placement = (cache_placement_soft if soft else cache_placement_full)(k, library)
    schedule = (delivery_schedule_soft if soft else delivery_schedule_full)(k, DemandVector(tuple(range(1, k + 1))))
    violations = verify_schedule(schedule, placement)
    if violations:
        first = violations[0]
        raise InvalidSchedule(f"{len(violations)} violation(s), first {first.kind}: {first.detail}")
    return _compile(library, placement, schedule)


def _sources(plan: _Plan, demands: np.ndarray) -> np.ndarray:
    """The (T, sources, nb) source vectors of the (T, K) ``demands``, without the links."""
    labels, t = plan.plane[:, demands - 1], len(demands)  # (labels, T, K, nb)
    nb = labels.shape[-1]
    return np.concatenate((np.zeros((t, 1, nb), np.uint8), labels.swapaxes(0, 1).reshape(t, -1, nb)), axis=1)


def _links(
    plan: _Plan, cfg: NetworkConfig, own: np.ndarray, backend: Backend, n_slot: int, seeds: Sequence[int],
    gains: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Every link's decoded part (T, links, nb), given the source vectors ``own``, and the count
    of wrong links. Row t's MC streams come from ``seeds[t]``, over the channel of ``cfg`` with
    the cross gains ``gains[t % len(gains)]``, one per receiver. The schedule was checked at
    placement and the Ideal rate by the runner: only an MC link can fail."""
    sent = own[:, plan.tx[0]] ^ own[:, plan.tx[1]]
    if isinstance(backend, Ideal):
        return sent[:, plan.link_tx] ^ own[:, plan.link_strip], 0
    failures = 0
    # a codeword index has at most MAX_CODEBOOK_BITS (22) bits, so its part's last bytes hold
    # it; draw_codebook rejects a longer part before it reads a word
    places = 8 * np.arange(min(own.shape[-1], 7))[::-1]
    words = (sent[..., -len(places):].astype(np.int64) << places).sum(axis=-1)
    rows = np.where(plan.silent, -1, words)  # a silent Tx sends zeros
    guess = np.empty((len(own), len(plan.link_tx)), dtype=np.int64)
    for t, seed in enumerate(seeds):
        gain = gains[t % len(gains)]
        for per, sends in zip(plan.periods, rows[t].reshape(-1, cfg.k)):
            cb = draw_codebook(  # row r - 1 is the codebook of Tx r
                n_slot, plan.part_bits, cfg.power - cfg.epsilon, derive_seed(seed, _SEED_CODEBOOK, per.index),
                sends, cfg.power,
            )
            if not (pc := check_power(cb.word, cfg.power)).ok.all():
                i = int(np.argmin(pc.ok))
                raise PowerViolation(f"Tx {i + 1} block power {pc.measured[i]:.6g} exceeds P={cfg.power}")
            noise_seed = derive_seed(seed, _SEED_NOISE, per.index)
            if cfg.variant is Variant.SOFT_HANDOFF:
                y = transmit_soft(cb.word, gain, noise_seed)
            else:
                y = transmit_full(cb.word, cfg.alpha, noise_seed)
            # cancel keys are sent words, at most two per receiver; row K, a zero word, pads
            word = np.concatenate((cb.word, np.zeros((1, n_slot))))
            y = cancel_known(y, gain[:, None], word[per.cancel[:, 0]] + word[per.cancel[:, 1]])
            guesses = np.zeros(cfg.k, dtype=np.int64)
            for src, rxs, own_tx in per.batches:
                guesses[rxs] = nn_decode(cb, src, y[rxs], np.where(own_tx, 1.0, gain[rxs]))
            guess[t, per.links] = got = guesses[plan.link_rx[per.links]]
            failures += np.count_nonzero(got != rows[t, plan.link_tx[per.links]])
    strip = own[:, plan.link_strip]
    decoded = np.zeros_like(strip)
    decoded[..., -len(places):] = (guess[..., None] >> places) & 0xFF
    return decoded ^ strip, int(failures)


def _deliver(
    plan: _Plan, cfg: NetworkConfig, demands: np.ndarray, backend: Backend, seeds: Sequence[int]
) -> tuple[BlockResult, np.ndarray]:
    """Delivery phase: serve a checked (T, K) block of demand vectors with a placed plan over the
    channel of ``cfg``; also returns every receiver's data parts, (T, K, data parts, bytes) uint8."""
    if isinstance(backend, Ideal):
        if len(seeds):
            raise ConfigMismatch(f"an Ideal delivery draws nothing; {len(seeds)} Monte-Carlo seed(s) given")
        rate, n_slot = plan.scale(check_ideal_rate(cfg)), 0
    else:
        n_slot = backend.n // plan.base_periods
        if n_slot < 1:
            raise ConfigMismatch(f"block length {backend.n} too short for the period count")
        if len(seeds) != len(demands):
            raise ConfigMismatch(f"{len(seeds)} Monte-Carlo seed(s) for {len(demands)} trial(s)")
        rate = plan.scale(plan.base_bits / (plan.base_periods * n_slot))
    # receiver rx's cross gain ``cfg.gain_at(rx)``: the full model's one gain is every receiver's
    rows, gains = demands, np.broadcast_to(np.array(cfg.gains), (1, cfg.k))
    if plan.pieces is not None:  # trial t's rotation l is row t * K + l - 1 of the base plan
        k, ell = cfg.k, np.arange(1, cfg.k + 1)[:, None]
        node = (np.arange(k) + ell) % k  # (rotation, role): the 0-based node playing the role
        rows, gains = ((demands[:, node] - 1) * k + ell).reshape(-1, k), gains[0, node]
        seeds = [derive_seed(seed, _SEED_SUPER, rotation) for seed in seeds for rotation in range(1, k + 1)]
    own = _sources(plan, rows)
    links, failures = _links(plan, cfg, own, backend, n_slot, seeds, gains)
    picks = np.concatenate((own, links[:, ::-1]), axis=1)[:, plan.select]
    data = np.bitwise_xor.reduce(picks, axis=-2)
    if plan.pieces is not None:  # any K-2 of a file's K coded parts give its K-2 data parts
        pieces = data.reshape(len(demands), cfg.k, *data.shape[1:])[:, plan.pieces[..., 0], plan.pieces[..., 1]]
        data = plan.recipe.apply(pieces.reshape(*pieces.shape[:3], -1))
    success = plan.served & (data == plan.want[demands - 1]).all(axis=(-2, -1))
    block = BlockResult(success, plan.guaranteed, len(rows) * len(plan.link_tx), failures, rate, plan.memory_bits)
    return block, data


def _run(
    cfg: NetworkConfig, plan: _Plan, demands: DemandVector | np.ndarray, backend: Backend, seeds: Sequence[int]
) -> SimResult | BlockResult:
    """A block of demand vectors with its per-trial MC ``seeds`` gives its ``BlockResult``; one
    ``DemandVector`` gives its ``SimResult``, the one-trial block at ``backend.seed`` with payloads."""
    library = plan.library
    if not isinstance(demands, DemandVector):
        DemandVector.check_block(demands, cfg.k, library.num_files)
        return _deliver(plan, cfg, demands, backend, seeds)[0]
    if len(seeds):
        raise ConfigMismatch(f"one DemandVector runs on backend.seed; {len(seeds)} seed(s) are for a (T, K) block")
    DemandVector.checked(demands, cfg.k, library.num_files)
    seeds = (backend.seed,) if isinstance(backend, MonteCarlo) else ()
    block, (data,) = _deliver(plan, cfg, np.array([demands.entries], dtype=np.intp), backend, seeds)
    decoded = {}
    for rx, (parts, served) in enumerate(zip(data, plan.served), start=1):
        value = 0
        for width, part in zip(plan.widths, parts):
            value = value << width | int.from_bytes(part.tobytes(), "big")
        decoded[rx] = Bitstring(library.payload_bits, value) if served else None
    return SimResult(decoded=decoded, **vars(block) | {"success": dict(enumerate(block.success[0].tolist(), 1))})


def run_soft(
    cfg: NetworkConfig,
    library: MessageLibrary,
    demands: DemandVector | np.ndarray,
    backend: Backend = Ideal(),
    seeds: Sequence[int] = (),
) -> SimResult | BlockResult:
    """One delivery round of the soft-handoff scheme (interior receivers guaranteed).

    Every runner takes one ``DemandVector`` and returns its ``SimResult``, or a (T, K)
    int array of demand vectors, with one MC seed per trial in ``seeds`` in place of
    ``backend.seed``, and returns their ``BlockResult``.
    """
    return _run(cfg, _scheme(*_checked(cfg, Variant.SOFT_HANDOFF, library)), demands, backend, seeds)


def run_full(
    cfg: NetworkConfig,
    library: MessageLibrary,
    demands: DemandVector | np.ndarray,
    backend: Backend = Ideal(),
    seeds: Sequence[int] = (),
) -> SimResult | BlockResult:
    """One delivery round of the full-model scheme (all K receivers guaranteed)."""
    return _run(cfg, _scheme(*_checked(cfg, Variant.FULL, library)), demands, backend, seeds)


def run_soft_prop1(
    cfg: NetworkConfig,
    library: MessageLibrary,
    demands: DemandVector | np.ndarray,
    extra_bits: int,
    backend: Backend = Ideal(),
    seeds: Sequence[int] = (),
) -> SimResult | BlockResult:
    """A run of either model with an extra tail of every file cached at every receiver.

    Each payload is (main || extra) with ``extra_bits`` trailing bits. The plan of
    ``cfg``'s model over the main pieces gains the tail as one more label per file
    (``_cache_tail``), lifting the operating point from (R, M) to (R + dR, M + D*dR).
    """
    key = _checked(cfg, cfg.variant, library, extra_bits=extra_bits)
    return _run(cfg, _cache_tail(*key, extra_bits) if extra_bits else _scheme(*key), demands, backend, seeds)


def round_robin_soft(
    cfg: NetworkConfig,
    library: MessageLibrary,
    demands: DemandVector | np.ndarray,
    backend: Backend = Ideal(),
    seeds: Sequence[int] = (),
) -> SimResult | BlockResult:
    """Rotate the soft-handoff scheme over K super-periods so all K receivers decode.

    Each message is erasure-coded into K parts of which any K-2 reconstruct it.
    Super-period l delivers coded part l with every role shifted by l (``_rotate``),
    so every receiver plays a bad edge role exactly twice and still collects K-2
    parts. The per-user rate shrinks by the factor (K-2)/K.
    """
    return _run(cfg, _rotate(*_checked(cfg, Variant.SOFT_HANDOFF, library, round_robin=True)), demands, backend, seeds)
