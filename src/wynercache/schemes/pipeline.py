"""End-to-end scheme execution in the paper's two phases.

* Placement, once per (config, library): ``check_scheme`` holds every rule a run
  must pass before any demand is known, and ``ExperimentSpec.validate`` calls it
  too. ``_scheme`` builds the demand-free
  ``CachePlacement``, which splits every file once, and the delivery schedule
  for the demands (1, ..., K), in which file j stands for "the file receiver j
  demands"; ``verify_schedule`` checks it against the cached labels once, and
  a broken schedule raises ``InvalidSchedule``. ``_compile`` turns the placed
  schedule into a ``_Plan`` of index arrays. Two combinators build the
  other schemes from compiled plans: ``_rotate`` (round robin) lays the K soft
  rotations over the MDS-coded sub-libraries side by side, each rotation's
  roles played by physical nodes, and ``_cache_tail`` (prop-1) adds every
  file's tail as a label cached at every receiver. Which K-2 coded parts a
  round robin receiver collects is fixed here too, so ``_rotate`` reads each
  receiver's MDS decode off ``mds_decode`` once, as a GF(256) ``_Recipe``.
  Each plan is memoised on its hashable frozen inputs and shared by all
  trials of one experiment. It also holds, built once, the plane of every
  part value as uint8 bytes and ``want``, each file's data parts as a
  delivery must decode them.
* Delivery, per block of demand vectors: ``_deliver`` serves a (T, K) array of
  them with any plan at once: it gathers each trial's source vectors from the
  plane (``_sources``), decodes the links (``_links``: gathers and XORs, and
  for MC one codebook draw and decode per trial and period, from that trial's
  seed), XOR-reduces each receiver's selected labels into its data parts,
  applies round robin's recipe to every trial's coded parts in one array step,
  and compares the data parts with ``want``. No Python code runs per receiver
  or per Ideal trial. Only MC links fail here: an Ideal delivery runs at the
  rate ``check_ideal_rate`` passed once per plan. The runners take a block and
  return its ``BlockResult``, or one ``DemandVector`` and return its
  ``SimResult``, the one-trial block with the decoded payloads (``_run``).

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
from .mds import MAX_K, gf_dot, mds_decode, mds_encode
from .parts import reconstruct_five, split_full, split_soft  # names perfbench/tracing.py wraps
from .placement import cache_placement_full, cache_placement_soft
from .points import check_ideal_rate
from .schedule import (
    MIN_SOFT_K,
    NEEDED,
    DeliverySchedule,
    Direct,
    KTooSmall,
    PeriodSchedule,
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

# A delivery block's largest array gathers, per trial and receiver, the picks of every data
# part: at most 6 parts x 5 picks of nb label bytes, K - 2 times over for round robin. A block
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
    """One period of a plan: its links, seed keys, gains and decode plans. Period i owns Tx actions
    i * K to (i + 1) * K - 1; they, its link receivers, codebook rows and noise rows are in its
    roles, r at r - 1."""

    index: int  # the schedule's period number, which keys its MC random streams
    keys: tuple[tuple[int, int], ...]  # derive_seed steps from the delivery seed to the period's
    links: slice  # its links in the plan's link arrays
    gain: np.ndarray  # (K, 1): the cross gain each role's receiver hears
    schedule: PeriodSchedule  # its decode plans, which the MC layout reads

    def seed(self, seed: int, stream: int) -> int:
        for key in self.keys:
            seed = derive_seed(seed, *key)
        return derive_seed(seed, stream, self.index)

    @functools.cached_property
    def layout(self) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]]:
        """MC decode layout, built on the first MC delivery: the (K, K) 0/1 matrix of the
        sent words each receiver row cancels, and the nn_decode (rows, rx, gains) batches."""
        known = np.zeros((len(self.gain),) * 2)
        decoders: dict[int, list[int]] = {}
        for rx, plan in self.schedule.rx_plans.items():
            if plan is not None:
                known[rx - 1, [tx - 1 for tx, _, _ in plan.cancel]] = 1.0
                decoders.setdefault(plan.source, []).append(rx)
        batches = []  # one nn_decode per receiver count, Tx in order of first decoding receiver
        for size in sorted({len(rxs) for rxs in decoders.values()}):
            src = np.array([tx for tx, rxs in decoders.items() if len(rxs) == size]) - 1
            rxs = np.array([decoders[tx + 1] for tx in src]) - 1
            batches.append((src, rxs, np.where(rxs == src[:, None], 1.0, self.gain[rxs, 0])))
        return known, tuple(batches)


@dataclass(frozen=True, eq=False)
class _Recipe:
    """Each receiver's MDS decode, fixed by the K - 2 coded parts it collects: its data part i is
    its collected part ``keep[r, i]``, except the two data parts ``fix[r]``, which are GF(256)
    combinations ``coef[r]`` of all its collected parts. A receiver misses at most two data
    parts; one that misses fewer also rebuilds collected data parts, whose rows are unit rows."""

    keep: np.ndarray  # (receivers, K - 2): the collected part each data part passes through from
    fix: np.ndarray  # (receivers, 2): the data parts ``coef`` rebuilds
    coef: np.ndarray  # (receivers, 2, K - 2), uint8

    def apply(self, parts: np.ndarray) -> np.ndarray:
        """The (..., receivers, K - 2, bytes) uint8 data parts of the collected coded parts, same shape."""
        rx = np.arange(len(self.keep))[:, None]
        data = parts[..., rx, self.keep, :]
        data[..., rx, self.fix, :] = gf_dot(self.coef, parts[..., None, :, :])
        return data


def _recipe(collected: Sequence[tuple[int, ...]], k: int) -> _Recipe:
    """The decode of each receiver's collected coded parts (1-based, ascending), read off
    ``mds_decode``, which is linear byte by byte: collected part j as the byte row e_j gives
    data part i with byte j equal to its coefficient on part j."""
    unit = [Bitstring(8 * (k - 2), 1 << 8 * (k - 3 - j)) for j in range(k - 2)]
    keep, fix, coef = [], [], []
    for parts in collected:
        rows = np.array([np.frombuffer(d.to_bytes(), np.uint8) for d in mds_decode(dict(zip(parts, unit)), k)])
        held = [i for i in range(k - 2) if i + 1 in parts]
        rebuilt = ([i for i in range(k - 2) if i + 1 not in parts] + held)[:2]
        keep.append(rows.argmax(axis=1))  # a held data part's row is the unit row of its position
        fix.append(rebuilt)
        coef.append(rows[rebuilt])
    return _Recipe(np.array(keep, dtype=np.intp), np.array(fix, dtype=np.intp), np.array(coef, dtype=np.uint8))


def _byte_rows(values: Sequence[int], nb: int) -> np.ndarray:
    """Each int as ``nb`` big-endian bytes, one uint8 row per int."""
    return np.frombuffer(b"".join(v.to_bytes(nb, "big") for v in values), np.uint8).reshape(len(values), nb)


@dataclass(frozen=True, eq=False)
class _Plan:
    """A placed scheme as index arrays into each delivery's source vectors; ``_deliver`` walks it.

    ``plane`` holds label p of file f of ``placement`` at [p - 1, f - 1] as nb big-endian
    bytes, right-aligned, nb fitting the widest label, so any L takes one path. A trial's
    source vector is a 0, then each label's column of the receivers' demands, then every
    link's decoded part in reverse: receiver j's label p is at (p - 1) * K + j, link i at
    ~i, and an absent XOR side or strip names the 0, so a new label appends without moving
    a position. The data parts that ``select[rx - 1]`` XORs are receiver rx's payload cut
    into ``widths``, or with ``recipe`` the K - 2 coded parts of its file that it collects,
    each its five data parts joined byte by byte, which the recipe decodes. ``want`` holds
    every file's data parts as a delivery must decode them.
    """

    cfg: NetworkConfig  # the physical network: K, the Ideal rate check and the MC channel
    library: MessageLibrary  # the files each receiver's payload is checked against
    placement: CachePlacement  # every label of every file; its bits give the memory
    guaranteed: tuple[int, ...]
    base_bits: int  # payload of one base delivery; MC rate base_bits / (base_periods * n_slot)
    base_periods: int  # periods of one base delivery, each n // base_periods channel uses
    part_bits: int  # bits per scheduled part, the MC codebook size
    tx: np.ndarray  # (2, periods * K): source positions of both sides of each Tx action
    silent: np.ndarray  # (periods * K,)
    link_rx: np.ndarray  # (links,): 0-based receiver role in its period
    link_tx: np.ndarray  # (links,): its source's index in ``tx``
    link_strip: np.ndarray  # (links,): source position of the cached part it XORs out
    periods: tuple[_Period, ...]
    select: np.ndarray  # (K, data parts, picks), with ``recipe`` (K, K - 2, data parts, picks)
    served: np.ndarray  # (K,): the receiver holds every label its pieces need
    widths: tuple[int, ...]  # bits of each data part of a payload, the first the most significant
    scale: Callable[[float], float] = lambda rate: rate  # base rate -> reported rate
    recipe: _Recipe | None = None  # round robin: each receiver's MDS decode of its collected parts

    @property
    def labels(self) -> int:
        return len(next(iter(self.placement.parts.values())))

    @functools.cached_property
    def plane(self) -> np.ndarray:
        """(labels, files, nb) uint8: every part value of ``placement``, built once per plan."""
        files = [self.placement.parts[f] for f in sorted(self.placement.parts)]
        nb = -(-max(p.length for p in files[0]) // 8)
        values = [p.value for label in zip(*files) for p in label]
        return _byte_rows(values, nb).reshape(self.labels, len(files), nb)

    @functools.cached_property
    def want(self) -> np.ndarray:
        """(files, data parts, bytes) uint8: each payload cut into ``widths``, as ``_deliver``'s
        data parts hold it: right-aligned in the plane's nb bytes, or B bytes per MDS part."""
        nb = self.plane.shape[-1] if self.recipe is None else self.widths[0] // 8
        cut = []
        for payload in self.library:
            value, parts = payload.value, []
            for width in reversed(self.widths):
                parts.append(value & ((1 << width) - 1))
                value >>= width
            cut += reversed(parts)
        return _byte_rows(cut, nb).reshape(self.library.num_files, len(self.widths), nb)

    @functools.cached_property
    def ideal_rate(self) -> float:
        return check_ideal_rate(self.cfg)


def _compile(
    cfg: NetworkConfig, library: MessageLibrary, placement: CachePlacement, guaranteed: tuple[int, ...],
    needed: int, schedule: DeliverySchedule,
) -> _Plan:
    """A placed schedule as index arrays, which depend on the placement alone: file j in
    ``schedule`` is the file receiver j demands, and a receiver XORs ``needed`` labels into it."""
    k = cfg.k
    at = lambda ref, part: (part - 1) * k + ref  # source position of a part
    gain = np.array([[cfg.gain_at(rx)] for rx in range(1, k + 1)])
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
        start = len(links)
        for rx, plan in per.rx_plans.items():
            if plan is not None:
                links.append((rx - 1, tx0 + plan.source - 1, at(*plan.strip) if plan.strip else 0))
                held[rx][plan.target[1]] = ~(len(links) - 1)
        periods.append(_Period(per.index, (), slice(start, len(links)), gain, per))
    # data part s is its own label, or the XOR of the five labels held (soft parity repair)
    select, served = np.zeros((k, needed, needed), dtype=np.intp), np.zeros(k, dtype=bool)
    for rx in range(1, k + 1):
        chosen = dict(sorted(held[rx].items())[:needed])
        served[rx - 1] = len(chosen) == needed
        for s in range(1, needed + 1) if served[rx - 1] else ():
            picks = [chosen[s]] if s in chosen else list(chosen.values())
            select[rx - 1, s - 1, : len(picks)] = picks
    bits = next(iter(placement.parts.values()))[0].length
    return _Plan(
        cfg, library, placement, guaranteed, library.payload_bits, len(periods),
        bits, np.array(sides, dtype=np.intp).T, np.array(silent),
        *np.array(links, dtype=np.intp).reshape(-1, 3).T, tuple(periods), select, served, (bits,) * needed,
    )


@functools.lru_cache(maxsize=1)
def _rotate(cfg: NetworkConfig, library: MessageLibrary) -> _Plan:
    """Round robin: the soft plans of the K MDS-coded sub-libraries side by side, rotation l
    with role r played by node r + l (mod K). Rotation l keeps its own label columns, and its
    periods hear the gains of the nodes playing each role and key their MC streams by
    (_SEED_SUPER, l). Receiver rx plays a guaranteed role in K - 2 rotations, fixed here, and
    ``_deliver`` decodes their pieces, coded parts of its file, with its ``_recipe``."""
    check_scheme(cfg, library.payload_bits, round_robin=True)
    k = cfg.k
    coded = [mds_encode(list(p.split(k - 2))) for p in library]
    rotations = [_scheme(cfg, MessageLibrary(tuple(c[ell] for c in coded))) for ell in range(k)]
    width = rotations[0].labels
    role = lambda rx, ell: (rx - ell - 1) % k + 1  # played by node rx in rotation ell
    remaps, arrays, periods, txs, links = [], [], [], 0, 0
    label, slot = np.divmod(np.arange(width * k), k)  # of each rotation's source position 1, 2, ...
    for ell, rot in enumerate(rotations, 1):
        rows = (np.arange(k) + ell) % k  # node of each role
        moved = ((ell - 1) * width + label) * k + rows[slot] + 1  # its labels, in its own columns
        remaps.append(m := np.concatenate(([0], moved, ~(links + np.arange(len(rot.link_tx)))[::-1])))
        arrays.append((m[rot.tx], rot.silent, rot.link_rx, rot.link_tx + txs, m[rot.link_strip]))
        periods += [
            replace(per, keys=((_SEED_SUPER, ell), *per.keys), gain=per.gain[rows],
                    links=slice(per.links.start + links, per.links.stop + links)) for per in rot.periods
        ]
        txs, links = txs + len(rot.silent), links + len(rot.link_tx)
    tx, silent, link_rx, link_tx, link_strip = (np.concatenate(a, axis=-1) for a in zip(*arrays))
    placed = [rot.placement for rot in rotations]
    placement = CachePlacement(
        {f: sum((p.parts[f] for p in placed), ()) for f in placed[0].parts},
        {rx: tuple(width * ell + p for ell in range(k) for p in placed[ell].labels[role(rx, ell + 1)])
         for rx in range(1, k + 1)},
    )
    chosen = [  # (rotation, 0-based role) of each piece of each receiver
        [(ell, role(rx, ell) - 1) for ell in range(1, k + 1) if role(rx, ell) in rotations[0].guaranteed]
        for rx in range(1, k + 1)
    ]
    return replace(
        rotations[0], cfg=cfg, library=library, placement=placement, guaranteed=tuple(range(1, k + 1)),
        scale=lambda rate: rate * (k - 2) / k, widths=(library.payload_bits // (k - 2),) * (k - 2),
        tx=tx, silent=silent, link_rx=link_rx, link_tx=link_tx, link_strip=link_strip, periods=tuple(periods),
        select=np.array([[remaps[ell - 1][rotations[ell - 1].select[r]] for ell, r in c] for c in chosen]),
        served=np.array([all(rotations[ell - 1].served[r] for ell, r in c) for c in chosen]),
        recipe=_recipe([tuple(ell for ell, _ in c) for c in chosen], k),
    )


@functools.lru_cache(maxsize=1)
def _cache_tail(cfg: NetworkConfig, library: MessageLibrary, extra_bits: int) -> _Plan:
    """Prop-1: the soft plan of the leading bits of each file, plus one more label, the tail,
    cached at every receiver, never among the needed labels and appended to each payload."""
    check_scheme(cfg, library.payload_bits, extra_bits=extra_bits)
    mains = MessageLibrary(tuple(Bitstring(p.length - extra_bits, p.value >> extra_bits) for p in library))
    plan = _scheme(cfg, mains)
    k, width = cfg.k, plan.labels
    placement = CachePlacement(
        {f: parts + (Bitstring(extra_bits, library.payload(f).value & ((1 << extra_bits) - 1)),)
         for f, parts in plan.placement.parts.items()},
        {rx: labels + (width + 1,) for rx, labels in plan.placement.labels.items()},
    )
    tail = np.zeros((k, 1, plan.select.shape[-1]), dtype=np.intp)
    tail[:, 0, 0] = width * k + np.arange(1, k + 1)
    return replace(
        plan, library=library, placement=placement,
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
    if (round_robin or extra_bits) and not soft:
        raise ConfigMismatch("round robin and the prop-1 tail apply to the soft-handoff scheme only")
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
    ``BLOCK_BYTES``, and a block holds at least one trial."""
    needed, pieces = NEEDED[cfg.variant], cfg.k - 2 if round_robin else 1
    nb = -(-max((payload_bits - extra_bits) // (needed * pieces), extra_bits) // 8)
    return max(1, BLOCK_BYTES // (cfg.k * pieces * (needed + 1) * needed * nb))


def _checked(cfg: NetworkConfig, variant: Variant) -> NetworkConfig:
    if cfg.variant is not variant:
        raise ConfigMismatch(f"config is {cfg.variant.value}, scheme needs {variant.value}")
    return cfg


@functools.lru_cache(maxsize=1)
def _scheme(cfg: NetworkConfig, library: MessageLibrary) -> _Plan:
    """Placement phase: everything about a run of ``cfg`` that the demands do not change."""
    check_scheme(cfg, library.payload_bits)
    soft, needed = cfg.variant is Variant.SOFT_HANDOFF, NEEDED[cfg.variant]
    receivers = DemandVector(tuple(range(1, cfg.k + 1)))
    # every builder is looked up by name per call, so tracers see it
    placement = (cache_placement_soft if soft else cache_placement_full)(cfg.k, library)
    schedule = (delivery_schedule_soft if soft else delivery_schedule_full)(cfg.k, receivers)
    violations = verify_schedule(schedule, placement)
    if violations:
        first = violations[0]
        raise InvalidSchedule(f"{len(violations)} violation(s), first {first.kind}: {first.detail}")
    guaranteed = guaranteed_receivers(cfg.variant, cfg.k)
    return _compile(cfg, library, placement, guaranteed, needed, schedule)


def _sources(plan: _Plan, demands: np.ndarray) -> np.ndarray:
    """The (T, sources, nb) source vectors of the (T, K) ``demands``, without the links."""
    labels, t = plan.plane[:, demands - 1], len(demands)  # (labels, T, K, nb)
    nb = labels.shape[-1]
    return np.concatenate((np.zeros((t, 1, nb), np.uint8), labels.swapaxes(0, 1).reshape(t, -1, nb)), axis=1)


def _links(
    plan: _Plan, own: np.ndarray, backend: Backend, n_slot: int, seeds: Sequence[int]
) -> tuple[np.ndarray, int]:
    """Every link's decoded part (T, links, nb), given the source vectors ``own``, and the count
    of wrong links. Trial t's MC streams come from ``seeds[t]``. The schedule and the Ideal rate
    were checked at placement: only an MC link can fail."""
    sent = own[:, plan.tx[0]] ^ own[:, plan.tx[1]]
    if isinstance(backend, Ideal):
        return sent[:, plan.link_tx] ^ own[:, plan.link_strip], 0
    cfg, failures = plan.cfg, 0
    # a codeword index has at most MAX_CODEBOOK_BITS (22) bits, so its part's last bytes hold
    # it; draw_codebook rejects a longer part before it reads a word
    places = 8 * np.arange(min(own.shape[-1], 7))[::-1]
    words = (sent[..., -len(places):].astype(np.int64) << places).sum(axis=-1)
    rows = np.where(plan.silent, -1, words)  # a silent Tx sends zeros
    guess = np.empty((len(own), len(plan.link_tx)), dtype=np.int64)
    for t, seed in enumerate(seeds):
        for per, sends in zip(plan.periods, rows[t].reshape(-1, cfg.k)):
            cb = draw_codebook(  # row r - 1 is the codebook of role r's Tx
                n_slot, plan.part_bits, cfg.power - cfg.epsilon, per.seed(seed, _SEED_CODEBOOK), sends, cfg.power,
            )
            if not (pc := check_power(cb.word, cfg.power)).ok.all():
                i = int(np.argmin(pc.ok))
                raise PowerViolation(f"Tx {i + 1} block power {pc.measured[i]:.6g} exceeds P={cfg.power}")
            noise_seed = per.seed(seed, _SEED_NOISE)
            if cfg.variant is Variant.SOFT_HANDOFF:
                y = transmit_soft(cb.word, per.gain[:, 0], noise_seed)
            else:
                y = transmit_full(cb.word, cfg.alpha, noise_seed)
            known, batches = per.layout
            y = cancel_known(y, per.gain, known @ cb.word)  # cancel keys are sent words
            guesses = np.zeros(cfg.k, dtype=np.int64)
            for src, rxs, gains in batches:
                guesses[rxs] = nn_decode(cb, src, y[rxs], gains)
            guess[t, per.links] = got = guesses[plan.link_rx[per.links]]
            failures += np.count_nonzero(got != rows[t, plan.link_tx[per.links]])
    strip = own[:, plan.link_strip]
    decoded = np.zeros_like(strip)
    decoded[..., -len(places):] = (guess[..., None] >> places) & 0xFF
    return decoded ^ strip, int(failures)


def _deliver(
    plan: _Plan, demands: np.ndarray, backend: Backend, seeds: Sequence[int]
) -> tuple[BlockResult, np.ndarray]:
    """Delivery phase: serve a checked (T, K) block of demand vectors with a placed plan; also
    returns every receiver's data parts, (T, K, data parts, bytes) uint8."""
    if isinstance(backend, Ideal):
        rate, n_slot = plan.scale(plan.ideal_rate), 0
    else:
        n_slot = backend.n // plan.base_periods
        if n_slot < 1:
            raise ConfigMismatch(f"block length {backend.n} too short for the period count")
        if len(seeds) != len(demands):
            raise ConfigMismatch(f"{len(seeds)} Monte-Carlo seed(s) for {len(demands)} trial(s)")
        rate = plan.scale(plan.base_bits / (plan.base_periods * n_slot))
    own = _sources(plan, demands)
    links, failures = _links(plan, own, backend, n_slot, seeds)
    picks = np.concatenate((own, links[:, ::-1]), axis=1)[:, plan.select]
    data = np.bitwise_xor.reduce(picks, axis=-2)
    if plan.recipe is not None:  # any K-2 of a file's K coded parts give its K-2 data parts
        data = plan.recipe.apply(data.reshape(*data.shape[:3], -1))
    success = plan.served & (data == plan.want[demands - 1]).all(axis=(-2, -1))
    block = BlockResult(
        success, plan.guaranteed, len(demands) * len(plan.link_tx), failures, rate,
        plan.placement.bits_per_receiver,
    )
    return block, data


def _run(
    plan: _Plan, demands: DemandVector | np.ndarray, backend: Backend, seeds: Sequence[int]
) -> SimResult | BlockResult:
    """A block of demand vectors with its per-trial MC ``seeds`` gives its ``BlockResult``; one
    ``DemandVector`` gives its ``SimResult``, the one-trial block with the decoded payloads."""
    cfg, library = plan.cfg, plan.library
    if not isinstance(demands, DemandVector):
        DemandVector.check_block(demands, cfg.k, library.num_files)
        return _deliver(plan, demands, backend, seeds)[0]
    DemandVector.checked(demands, cfg.k, library.num_files)
    seeds = (backend.seed,) if isinstance(backend, MonteCarlo) else ()
    block, (data,) = _deliver(plan, np.array([demands.entries], dtype=np.intp), backend, seeds)
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
    return _run(_scheme(_checked(cfg, Variant.SOFT_HANDOFF), library), demands, backend, seeds)


def run_full(
    cfg: NetworkConfig,
    library: MessageLibrary,
    demands: DemandVector | np.ndarray,
    backend: Backend = Ideal(),
    seeds: Sequence[int] = (),
) -> SimResult | BlockResult:
    """One delivery round of the full-model scheme (all K receivers guaranteed)."""
    return _run(_scheme(_checked(cfg, Variant.FULL), library), demands, backend, seeds)


def run_soft_prop1(
    cfg: NetworkConfig,
    library: MessageLibrary,
    demands: DemandVector | np.ndarray,
    extra_bits: int,
    backend: Backend = Ideal(),
    seeds: Sequence[int] = (),
) -> SimResult | BlockResult:
    """Soft-handoff run with an extra tail of every file cached at every receiver.

    Each payload is (main || extra) with ``extra_bits`` trailing bits. The soft plan
    of the main pieces gains the tail as one more label per file (``_cache_tail``),
    lifting the operating point from (R, M) to (R + dR, M + D*dR).
    """
    if extra_bits == 0:
        return run_soft(cfg, library, demands, backend, seeds)
    return _run(_cache_tail(_checked(cfg, Variant.SOFT_HANDOFF), library, extra_bits), demands, backend, seeds)


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
    return _run(_rotate(_checked(cfg, Variant.SOFT_HANDOFF), library), demands, backend, seeds)
