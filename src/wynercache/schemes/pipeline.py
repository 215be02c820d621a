"""End-to-end scheme execution in the paper's two phases.

* Placement, in two halves. The library-free half is the skeleton, built once per (model, K)
  in a process (``_skeleton``): the labels that each receiver caches and the delivery schedule
  for the demands (1, ..., K), in which file j stands for "the file receiver j demands",
  checked against each other once (``verify_labels``; a broken schedule raises
  ``InvalidSchedule``) and compiled into index arrays over the sources (``_compile``). Round
  robin (``_rotated``) keeps the soft skeleton and adds each receiver's K - 2 pieces, the
  (rotation, role) pairs in which it plays a guaranteed role, with their MDS decode as a
  GF(256) ``Recipe`` that ``decode_recipe`` states in closed form for all receivers at once.
  The per-library half (``placed``) is the plane of every part value as uint8 bytes, cut from
  the library's byte rows in array steps (``_place``: unpack the bits, split them, pad each
  part to whole bytes, pack), or from the MDS-coded rows (``mds_rows``) in round robin, with
  ``want`` and the memory; prop-1 cuts every file's tail as one more label, cached at every
  receiver. Each placement rule is stated once, in the step that needs it: the soft K in
  ``delivery_schedule_soft``, the full model's even K in ``cache_labels``, round robin's model
  and K in ``_rotated``, the tail and the payload split in ``layout``, which
  ``ExperimentSpec.validate`` runs too. ``placed`` memoises a plan on its skeleton, library
  and tail, not on the channel, so every trial and every SNR point of a sweep shares it; each
  runner reaches it through ``_plan``, which checks the config first.
* Delivery, per block of demand vectors: ``_deliver`` serves a (T, K) array of them with any
  plan at once, source-major: an array holds a source, link or data part per step of its
  leading axis and the block's delivery rows behind it, so a gather is one ``np.take`` of whole
  rows and an XOR reduce runs over a leading axis. It takes the rows' sources from the plane
  (``_sources``), decodes the links (``_links``: gathers and XORs, and for MC one codebook draw
  and decode per row and period, from that row's seed) and XORs each receiver's selected
  sources into its data parts, checked against ``want``. Round robin delivers rotation l of
  trial t as row (l - 1) * T + t of its base plan: the role played by node n demands coded part
  l of node n's file, hears node n's cross gain and draws from the seed keyed by
  (``_SEED_SUPER``, l). Each receiver's pieces are then gathered from those rows and decoded by
  its recipe, for every trial in one array step. No Python code runs per receiver or per Ideal
  trial. The MC links read power, epsilon and gains from the runner's config, and an Ideal
  delivery runs at the rate ``check_ideal_rate`` passes once per runner call, read off the
  plan's weakest scheduled link (``heard``), so only MC links fail here. The runners take a
  block and return its ``BlockResult``, or one ``DemandVector`` and return its ``SimResult``,
  the one-trial block with the decoded payloads (``_run``).

Two interchangeable backends drive the same plans:

* ``Ideal`` treats every point-to-point hop as an erasure link that succeeds
  iff its attempted rate is strictly below the interference-free capacity.
  At the scheme rates every link succeeds; XOR and cancellation are bit-exact.
* ``MonteCarlo`` draws per period a fresh shell codebook for every transmitter
  and the noise of every receiver, each from one generator, runs the noisy
  channel, cancels known interferers from cache, and decodes each codebook by
  nearest neighbor at all its receivers at once, one batch per receiver count.
  Its pre-flight, ``slot_length``, which ``ExperimentSpec.validate`` runs too,
  states its limits once: a period of at least one channel use, cross gains that
  float64 cancels (|alpha| <= 2^40), and finite codewords and decoder scores.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from ..channel import cancel_known, check_power, transmit_full, transmit_soft
from ..codec import FloatOverflow, draw_codebook, nn_decode
from ..model import (
    Bitstring,
    ConfigError,
    ConfigMismatch,
    DemandVector,
    MessageLibrary,
    NetworkConfig,
    SimError,
    Variant,
    derive_seed,
)
from .mds import MAX_K, Recipe, decode_recipe, mds_rows
from .mds import mds_decode, mds_encode  # names perfbench/tracing.py wraps
from .parts import reconstruct_five, split_full, split_soft  # names perfbench/tracing.py wraps
from .placement import cache_placement_full, cache_placement_soft  # names perfbench/tracing.py wraps
from .placement import cache_labels
from .points import check_ideal_rate
from .schedule import (
    LABELS,
    NEEDED,
    DeliverySchedule,
    Direct,
    Silent,
    XorPair,
    delivery_schedule_full,
    delivery_schedule_soft,
    guaranteed_receivers,
    verify_labels,
)

_SEED_CODEBOOK = 0xC0DE
_SEED_NOISE = 0x401E
_SEED_SUPER = 0x50BE

# A receiver cancels a cached codeword sent at cross gain alpha; the float64 residual, about
# |alpha| * 2^-53 of a codeword entry, stays below 2^-13 up to this bound.
MAX_CROSS_GAIN = 2.0**40

# A delivery block's largest array gathers, per row and receiver, the picks of every data
# part (``select``) of nb label bytes, and a round robin trial is K rows. A block of
# ``block_trials`` trials keeps it within 4 MiB; like codec's chunk, it bounds memory only.
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

    def __post_init__(self) -> None:
        ints = all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in (self.n, self.seed))
        if not ints or self.seed < 0:
            raise ConfigMismatch(f"MonteCarlo needs an integer n and a non-negative integer seed, got {self}")


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


@dataclass(frozen=True, eq=False)
class _Skeleton:
    """A placed scheme without its files: index arrays into a delivery's sources, which depend on
    the model and K alone. The sources of R delivery rows are one (sources, R, nb) array; along
    its leading axis come the 0, each label's K columns of the receivers' demands, then every
    link's decoded part in reverse: receiver j's label p is at (p - 1) * K + j, link i at ~i, and an
    absent XOR side or strip names the 0, so a new label appends without moving a position.
    Receiver rx's data parts are the XORs of the sources that ``select[:, :, rx - 1]`` picks; in
    round robin, its K - 2 ``pieces`` are the coded parts that its ``recipe`` decodes.
    """

    guaranteed: tuple[int, ...]
    labels: int  # part labels of a file: its data parts, then the soft parity
    needed: int  # data parts of a payload, each the XOR of the sources ``select`` picks
    cached: int  # labels that each receiver caches of every file
    base_periods: int  # periods of one base delivery, each n // base_periods channel uses
    tx: np.ndarray  # (2, periods * K): source positions of both sides of each Tx action
    silent: np.ndarray  # (periods * K,)
    link_rx: np.ndarray  # (links,): 0-based receiver role in its period
    link_tx: np.ndarray  # (links,): its source's index in ``tx``
    link_strip: np.ndarray  # (links,): source position of the cached part it XORs out
    heard: tuple[int, ...]  # 0-based receivers of a link from a Tx not their own, at their cross gain
    periods: tuple[_Period, ...]
    select: np.ndarray  # (picks, data parts, K)
    served: np.ndarray  # (K,): the receiver holds every label its data parts (or pieces) need
    pieces: np.ndarray | None = None  # round robin: (K, K - 2, 2) 0-based (rotation, role) of each piece
    recipe: Recipe | None = None  # round robin: each receiver's MDS decode of its pieces
    nodes: np.ndarray | None = None  # round robin: (K, K) 0-based node playing each (role, rotation)


@dataclass(frozen=True, eq=False, kw_only=True)
class _Plan(_Skeleton):
    """A skeleton placed over a library; ``_deliver`` walks it. ``plane`` holds label p of file f
    at [p - 1, f - 1] as nb big-endian bytes, right-aligned, nb fitting the widest label, so any
    L takes one path. The data parts that ``select[:, :, rx - 1]`` XORs are receiver rx's payload
    cut into ``widths``; in round robin each width is a coded part, its data labels' bytes in turn.
    """

    library: MessageLibrary  # the files each receiver's payload is checked against
    base_bits: int  # payload of one base delivery; MC rate base_bits / (base_periods * n_slot)
    part_bits: int  # bits per scheduled part, the MC codebook size
    plane: np.ndarray  # (labels, files, nb) uint8: every part value
    want: np.ndarray  # (data parts, files, bytes) uint8, round robin's (labels, K - 2, files, nb): as decoded
    memory_bits: int  # cache bits per receiver
    widths: tuple[int, ...]  # bits of each data part of a payload, the first the most significant
    scale: Callable[[float], float] = lambda rate: rate  # base rate -> reported rate


def _compile(labels: Mapping[int, tuple[int, ...]], schedule: DeliverySchedule) -> _Skeleton:
    """A schedule over the cache ``labels`` as index arrays: file j in ``schedule`` is the file
    receiver j demands, and a receiver XORs ``NEEDED`` labels into it."""
    k, needed = schedule.k, NEEDED[schedule.variant]
    at = lambda ref, part: (part - 1) * k + ref  # source position of a part
    # each receiver's part labels -> source position; cached parts first, links override
    held = {rx: {p: at(rx, p) for p in labels.get(rx, ())} for rx in range(1, k + 1)}
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
    select, served = np.zeros((needed, needed, k), dtype=np.intp), np.zeros(k, dtype=bool)
    for rx in range(1, k + 1):
        chosen = dict(sorted(held[rx].items())[:needed])
        served[rx - 1] = len(chosen) == needed
        for s in range(1, needed + 1) if served[rx - 1] else ():
            picks = [chosen[s]] if s in chosen else list(chosen.values())
            select[: len(picks), s - 1, rx - 1] = picks
    return _Skeleton(
        guaranteed_receivers(schedule.variant, k), LABELS[schedule.variant], needed, len(labels[1]), len(periods),
        np.array(sides, dtype=np.intp).T, np.array(silent), *np.array(links, dtype=np.intp).reshape(-1, 3).T,
        tuple(sorted({rx for rx, tx, _ in links if tx % k != rx})), tuple(periods), select, served,
    )


@functools.cache
def _skeleton(variant: Variant, k: int) -> _Skeleton:
    """Placement phase without the files, built once per (model, K) in a process: the cache
    labels and the schedule for the demands (1, ..., K), checked against each other once, as
    index arrays. A soft K below 5 raises ``KTooSmall`` from the soft schedule."""
    soft, labels = variant is Variant.SOFT_HANDOFF, cache_labels(variant, k)
    # every builder is looked up by name per call, so tracers see it
    schedule = (delivery_schedule_soft if soft else delivery_schedule_full)(k, DemandVector(tuple(range(1, k + 1))))
    violations = verify_labels(schedule, labels, LABELS[variant])
    if violations:
        first = violations[0]
        raise InvalidSchedule(f"{len(violations)} violation(s), first {first.kind}: {first.detail}")
    return _compile(labels, schedule)


@functools.cache
def _rotated(variant: Variant, k: int) -> _Skeleton:
    """Round robin's skeleton: the soft one, delivered K times. In rotation l, 0-based node n plays
    0-based role (n - l) mod K. Receiver rx plays a guaranteed role in K - 2 rotations, fixed here
    as its pieces, and its ``decode_recipe`` row decodes the coded parts of its file they carry."""
    if variant is not Variant.SOFT_HANDOFF:
        raise ConfigMismatch("round robin applies to the soft-handoff scheme only")
    if k > MAX_K:
        raise ConfigMismatch(f"round robin's GF(256) MDS code allows K <= {MAX_K}, got K={k}")
    base = _skeleton(variant, k)
    role = lambda rx, ell: (rx - ell - 1) % k  # 0-based, played by node rx in rotation ell
    pieces = np.array([
        [(ell - 1, role(rx, ell)) for ell in range(1, k + 1) if role(rx, ell) + 1 in base.guaranteed]
        for rx in range(1, k + 1)
    ])
    nodes = (np.arange(k)[:, None] + np.arange(1, k + 1)) % k  # role r in rotation l: node (r + l) mod K
    return replace(
        base, guaranteed=tuple(range(1, k + 1)), served=base.served[pieces[..., 1]].all(axis=1),
        pieces=pieces, recipe=decode_recipe(pieces[..., 0] + 1, k), nodes=nodes,
        heard=tuple(sorted(set(nodes[list(base.heard)].ravel().tolist()))),  # the nodes playing a heard role
    )


def skeleton(cfg: NetworkConfig, round_robin: bool = False) -> _Skeleton:
    """The skeleton of a run on ``cfg``, round robin's or its model's own; building it raises the
    named ``SimError`` of the first rule on the model and K that the run breaks."""
    return (_rotated if round_robin else _skeleton)(cfg.variant, cfg.k)


def layout(skel: _Skeleton, payload_bits: int, extra_bits: int) -> int:
    """The payload bits of one base delivery of ``skel`` on ``payload_bits``-bit files with a
    prop-1 tail of ``extra_bits``: a file's leading bits, or one of round robin's K - 2 MDS data
    parts. Raises the named ``ConfigMismatch`` where the payload does not split that way."""
    if not isinstance(extra_bits, numbers.Integral) or isinstance(extra_bits, bool):
        raise ConfigMismatch(f"prop1_extra_bits must be an int, got {extra_bits!r}")
    if extra_bits < 0:
        raise ConfigMismatch(f"negative prop1_extra_bits {extra_bits}")
    base, needed = payload_bits - extra_bits, skel.needed
    if skel.pieces is not None:
        base, rest = divmod(payload_bits, pieces := skel.pieces.shape[1])
        if rest or base % 8:  # the MDS code works byte-wise on each of the K-2 data parts
            raise ConfigMismatch(
                f"round robin needs the {payload_bits}-bit payload split into K-2={pieces} "
                f"whole-byte MDS parts; use a multiple of 8 for bits"
            )
    if base <= 0 or base % needed:
        raise ConfigMismatch(f"payload of {base} bits is not divisible into {needed} parts")
    return base


def _place(skel: _Skeleton, library: MessageLibrary, rows: np.ndarray, bits: int, extra_bits: int = 0) -> _Plan:
    """``skel`` placed over ``library``, whose files are the (files, bytes) uint8 ``rows`` of
    ``bits`` bits, big-endian and right-aligned, in array steps. The leading bits of a row split
    into the data parts, part 1 the most significant, followed by their XOR parity where the
    skeleton has one more label. With prop-1's ``extra_bits``, the trailing bits are one more
    label, the tail, cached at every receiver, never among the needed labels and appended to
    each payload."""
    k, needed, main = len(skel.served), skel.needed, bits - extra_bits
    part = main // needed
    nb = -(-max(part, extra_bits) // 8)
    # unpacked and packed flat: along an axis, numpy packs each row in a call of its own
    stream = np.unpackbits(rows).reshape(len(rows), -1)[:, rows.shape[1] * 8 - bits :]
    labels = np.zeros((skel.labels + (extra_bits > 0), len(rows), 8 * nb), np.uint8)
    labels[:needed, :, 8 * nb - part :] = stream[:, :main].reshape(len(rows), needed, part).swapaxes(0, 1)
    fields = {}
    if extra_bits:
        labels[-1, :, 8 * nb - extra_bits :] = stream[:, main:]
        tail = np.zeros((len(skel.select), 1, k), dtype=np.intp)
        tail[0, 0] = skel.labels * k + np.arange(1, k + 1)
        fields = dict(select=np.concatenate((skel.select, tail), axis=1), scale=lambda rate: rate * (bits / main))
    plane = np.packbits(labels).reshape(len(labels), len(rows), nb)
    if skel.labels > needed:  # the soft parity; a label's pad bits are zero, so its bytes XOR as its bits
        plane[needed] = np.bitwise_xor.reduce(plane[:needed])
    return _Plan(
        **vars(skel) | fields, library=library, base_bits=main, part_bits=part, plane=plane,
        want=np.concatenate((plane[:needed], plane[skel.labels :])),
        memory_bits=len(rows) * skel.cached * part + library.num_files * extra_bits,
        widths=(part,) * needed + (extra_bits,) * (extra_bits > 0),
    )


@functools.lru_cache(maxsize=3)
def placed(skel: _Skeleton, library: MessageLibrary, extra_bits: int) -> _Plan:
    """``skel`` placed over ``library`` with a prop-1 tail of ``extra_bits`` bits, once its
    ``layout`` holds; memoised on all three. Round robin's skeleton is placed over the MDS-coded
    library, file (f - 1) * K + l coded part l of file f, each coded part one whole-byte K - 2-th
    of the payload or a parity."""
    base = layout(skel, library.payload_bits, extra_bits)
    if skel.pieces is None:
        return _place(skel, library, library.rows, library.payload_bits, extra_bits)
    files, k = library.num_files, len(skel.pieces)
    coded = mds_rows(library.rows.reshape(files, k - 2, -1)).reshape(files * k, -1)
    plan = _place(skel, library, coded, base)
    needed, _, nb = plan.want.shape
    return replace(
        # the code is systematic: data part i is coded part i, its data labels in turn
        plan, want=plan.want.reshape(needed, files, k, nb)[:, :, : k - 2].transpose(0, 2, 1, 3).copy(),
        scale=lambda rate: rate * (k - 2) / k, widths=(base,) * (k - 2),
    )


def slot_length(cfg: NetworkConfig, skel: _Skeleton, n: int) -> int:
    """The MC pre-flight of ``skel`` on ``cfg`` in blocks of ``n``: the channel uses per period, at least
    one, or the named ``SimError`` of the first MC limit broken. Every gain cancels in float64, and the
    largest intermediate is finite: ||y||^2 <= n_slot P (1 + 2 max|alpha|)^2 up to the noise, a score
    ||y||^2 + alpha^2 ||c||^2 - 2 alpha <c, y> at most 9/4 of that, and four times it must be finite."""
    if (n_slot := n // skel.base_periods) < 1:
        raise ConfigMismatch(f"block length {n} too short for {skel.base_periods} period(s)")
    alphas = [abs(g) for g in cfg.gains]
    alpha = float(max(alphas))
    cancels = alpha <= MAX_CROSS_GAIN
    if not (cancels and math.isfinite(4.0 * n_slot * float(cfg.power) * (1.0 + 2.0 * alpha) ** 2)):
        if not cancels:
            i = alphas.index(alpha)
            at = f"cross gain alpha_{i + 1} = {cfg.gains[i]}"
            raise ConfigError(f"{at} exceeds 2^40, past which float64 cancellation fails")
        raise FloatOverflow(f"MC scores overflow float64 at P={cfg.power:g}, n={n} and max|alpha|={alpha:g}")
    return n_slot


def block_trials(plan: _Plan) -> int:
    """Trials per delivery block of ``plan``: its largest array, every row's picks of label bytes,
    fits ``BLOCK_BYTES``, and a block holds at least one trial. A round robin trial is K rows."""
    rows = 1 if plan.pieces is None else len(plan.pieces)
    return max(1, BLOCK_BYTES // (rows * plan.select.size * plan.plane.shape[-1]))


def _plan(
    cfg: NetworkConfig, variant: Variant, library: MessageLibrary, round_robin: bool = False, extra_bits: int = 0
) -> _Plan:
    """The plan of a run of the ``variant`` scheme on ``cfg``, or the named ``SimError`` of the
    first rule that the run breaks; a built ``NetworkConfig`` has passed the channel's rules."""
    if not isinstance(cfg, NetworkConfig):
        raise ConfigError(f"config must be a NetworkConfig, got {type(cfg).__name__}")
    if cfg.variant is not variant:
        raise ConfigMismatch(f"config is {cfg.variant.value}, scheme needs {variant.value}")
    return placed(skeleton(cfg, round_robin), library, extra_bits)


def _sources(plan: _Plan, columns: np.ndarray) -> np.ndarray:
    """The (sources, R, nb) sources of R demand rows, their (K, R) ``columns``, without the links."""
    labels = np.take(plan.plane, columns - 1, axis=1)  # (labels, K, R, nb)
    return np.concatenate((np.zeros((1, *labels.shape[2:]), np.uint8), labels.reshape(-1, *labels.shape[2:])))


def _links(
    plan: _Plan, cfg: NetworkConfig, own: np.ndarray, backend: Backend, n_slot: int, seeds: Sequence[int],
    gains: np.ndarray | None,
) -> tuple[np.ndarray, int]:
    """Every link's decoded part (links, R, nb), given the sources ``own``, and the count of wrong
    links. Row t's MC streams come from ``seeds[t]``, over the channel of ``cfg`` with the cross
    gains ``gains[t % len(gains)]``, one per receiver, None for Ideal. The schedule was checked at
    placement and the Ideal rate by the runner: only an MC link can fail."""
    sent = np.take(own, plan.tx[0], axis=0) ^ np.take(own, plan.tx[1], axis=0)  # (Tx actions, R, nb)
    strip = np.take(own, plan.link_strip, axis=0)
    if isinstance(backend, Ideal):
        return np.take(sent, plan.link_tx, axis=0) ^ strip, 0
    failures = 0
    # a codeword index has at most MAX_CODEBOOK_BITS (22) bits, so its part's last bytes hold
    # it; draw_codebook rejects a longer part before it reads a word
    places = 8 * np.arange(min(own.shape[-1], 7))[::-1]
    words = (sent[..., -len(places):].astype(np.int64) << places).sum(axis=-1)
    words[plan.silent] = -1  # a silent Tx sends zeros
    guess = np.empty((len(plan.link_tx), own.shape[1]), dtype=np.int64)
    for t, seed in enumerate(seeds):
        gain = gains[t % len(gains)]
        for per, sends in zip(plan.periods, words[:, t].reshape(-1, cfg.k)):
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
            guess[per.links, t] = got = guesses[plan.link_rx[per.links]]
            failures += np.count_nonzero(got != words[plan.link_tx[per.links], t])
    strip[..., -len(places):] ^= (guess[..., None] >> places & 0xFF).astype(np.uint8)
    return strip, int(failures)


def _deliver(
    plan: _Plan, cfg: NetworkConfig, demands: np.ndarray, backend: Backend, seeds: Sequence[int]
) -> tuple[BlockResult, np.ndarray]:
    """Delivery phase: serve a checked (T, K) block of demand vectors with a placed plan over the
    channel of ``cfg``; also returns the data parts, receiver rx's of trial t at [..., rx - 1, t, :]."""
    k, t, columns = cfg.k, len(demands), demands.T
    if isinstance(backend, Ideal):
        if len(seeds):
            raise ConfigMismatch(f"an Ideal delivery draws nothing; {len(seeds)} Monte-Carlo seed(s) given")
        rate, n_slot, gains = plan.scale(check_ideal_rate(cfg, plan)), 0, None  # Ideal links hear no channel
    elif not isinstance(backend, MonteCarlo):
        raise ConfigMismatch(f"backend must be Ideal() or MonteCarlo(n, seed), got {backend!r}")
    else:
        n_slot = slot_length(cfg, plan, backend.n)
        if len(seeds) != len(demands):
            raise ConfigMismatch(f"{len(seeds)} Monte-Carlo seed(s) for {len(demands)} trial(s)")
        for seed in seeds:  # each trial's seed, as the backend's own
            replace(backend, seed=seed)
        rate = plan.scale(plan.base_bits / (plan.base_periods * n_slot))
        # receiver rx's cross gain is ``cfg.gains[rx - 1]``; a rotation's row hears the nodes playing its roles
        row = np.broadcast_to(np.array(cfg.gains), k)  # the full model's one gain is every receiver's
        gains = row[None] if plan.pieces is None else np.repeat(row[plan.nodes.T], t, axis=0)
    if plan.pieces is not None:  # trial t's rotation l is row (l - 1) * T + t of the base plan
        columns = ((demands.T[plan.nodes] - 1) * k + np.arange(1, k + 1)[:, None]).reshape(k, -1)
        seeds = [derive_seed(seed, _SEED_SUPER, rotation) for rotation in range(1, k + 1) for seed in seeds]
    own = _sources(plan, columns)
    links, failures = _links(plan, cfg, own, backend, n_slot, seeds, gains)
    data = np.bitwise_xor.reduce(np.take(np.concatenate((own, links[::-1])), plan.select, axis=0))
    if plan.pieces is not None:  # any K-2 of a file's K coded parts give its K-2 data parts
        at = plan.pieces[..., 1].T * k + plan.pieces[..., 0].T  # (K - 2, K): (role, rotation) of each piece
        pieces = np.take(data.reshape(len(data), k * k, -1), at, axis=1)  # (labels, K - 2, K, T * nb)
        data = plan.recipe.apply(pieces).reshape(*pieces.shape[:3], t, -1)
    wrong = (data != np.take(plan.want, demands.T - 1, axis=-2)).reshape(-1, k, t, data.shape[-1]).any(axis=(0, 3))
    block = BlockResult(plan.served & ~wrong.T, plan.guaranteed, links[..., 0].size, failures, rate, plan.memory_bits)
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
    block, data = _deliver(plan, cfg, np.array([demands.entries], dtype=np.intp), backend, seeds)
    decoded = {}
    for rx, served in enumerate(plan.served, start=1):
        value, parts = 0, np.moveaxis(data[..., rx - 1, 0, :], 0, -2)  # round robin: (K - 2, labels, nb)
        for width, part in zip(plan.widths, parts.reshape(len(plan.widths), -1)):
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
    return _run(cfg, _plan(cfg, Variant.SOFT_HANDOFF, library), demands, backend, seeds)


def run_full(
    cfg: NetworkConfig,
    library: MessageLibrary,
    demands: DemandVector | np.ndarray,
    backend: Backend = Ideal(),
    seeds: Sequence[int] = (),
) -> SimResult | BlockResult:
    """One delivery round of the full-model scheme (all K receivers guaranteed)."""
    return _run(cfg, _plan(cfg, Variant.FULL, library), demands, backend, seeds)


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
    (``placed``), lifting the operating point from (R, M) to (R + dR, M + D*dR).
    """
    return _run(cfg, _plan(cfg, cfg.variant, library, extra_bits=extra_bits), demands, backend, seeds)


def round_robin_soft(
    cfg: NetworkConfig,
    library: MessageLibrary,
    demands: DemandVector | np.ndarray,
    backend: Backend = Ideal(),
    seeds: Sequence[int] = (),
) -> SimResult | BlockResult:
    """Rotate the soft-handoff scheme over K super-periods so all K receivers decode.

    Each message is erasure-coded into K parts of which any K-2 reconstruct it.
    Super-period l delivers coded part l with every role shifted by l (``_rotated``),
    so every receiver plays a bad edge role exactly twice and still collects K-2
    parts. The per-user rate shrinks by the factor (K-2)/K.
    """
    return _run(cfg, _plan(cfg, Variant.SOFT_HANDOFF, library, round_robin=True), demands, backend, seeds)
