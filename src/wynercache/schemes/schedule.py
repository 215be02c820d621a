"""Delivery schedules: per-period transmitter actions and receiver decode plans,
a mechanical validity checker, and each model's parts needed, part labels,
guaranteed receivers and topology (``NEEDED``, ``LABELS``,
``guaranteed_receivers``, ``HEARD``); a schedule's periods are its own.

A builder states what each transmitter sends per period; ``_decode_plans``
reads every receiver's plan off those actions and ``HEARD``, for both models.
A receiver whose own Tx is active decodes that Tx, cancels every other heard Tx
that sends a direct part, which it caches, and strips the side of an XOR meant
for the next receiver. A receiver whose own Tx is silent decodes its side of
the previous Tx's XOR, if that Tx sends one, and otherwise gets no plan.

Soft handoff runs three periods. In period p the transmitter class
(p - 1) mod 3 is silent, and Tx K is silent in every period, which cuts the
circle into non-interfering subnets of two active transmitters. Within each
subnet the first active transmitter sends one of its own submessage parts
directly and the second sends an XOR of a part of its own demand with a part
of the next receiver's demand. The part indices per period are pinned so that
every receiver class ends up with three decoded parts disjoint from its two
cached parts:

    period   silent class   direct part   xor (own, next)
      1           0              3            (6, 3)
      2           1              5            (1, 5)
      3           2              2            (4, 1)

The full model needs a single period: every transmitter sends the part its own
receiver's cache labels (``placement.cache_labels``, with the even-K rule) lack,
and each receiver cancels both neighbours from cache.
``verify_schedule`` reads the cache labels and the part count from the placement it
is given; ``verify_labels`` takes them as they are. The skeleton and ``wynercache
verify-schedule`` pass it ``placement.cache_labels`` and ``LABELS``: placement ignores the
demands, so a schedule's validity rests on K and the labels, and no file is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping, Union

from ..model import CachePlacement, DemandVector, SimError, Variant, to_json
from .parts import DATA_PARTS_SOFT, PARTS_FULL, TOTAL_PARTS_SOFT
from .placement import cache_labels

MIN_SOFT_K = 5
SOFT_PERIODS = 3
NEEDED = {Variant.SOFT_HANDOFF: DATA_PARTS_SOFT, Variant.FULL: PARTS_FULL}
LABELS = {Variant.SOFT_HANDOFF: TOTAL_PARTS_SOFT, Variant.FULL: PARTS_FULL}  # NEEDED, then the soft parity
# the transmitters each receiver hears, as offsets from its own at 0; a cognitive Tx
# knows the files of exactly the receivers that hear it
HEARD = {Variant.SOFT_HANDOFF: (-1, 0), Variant.FULL: (-1, 0, 1)}


def guaranteed_receivers(variant: Variant, k: int) -> tuple[int, ...]:
    """Soft handoff serves the interior receivers 2..K-1; the full model serves all K."""
    return tuple(range(2, k)) if variant is Variant.SOFT_HANDOFF else tuple(range(1, k + 1))


class KTooSmall(SimError):
    pass


@dataclass(frozen=True)
class Silent:
    kind: ClassVar[str] = "silent"

    def files(self) -> tuple[int, ...]:
        return ()


@dataclass(frozen=True)
class Direct:
    kind: ClassVar[str] = "direct"
    file: int
    part: int

    def files(self) -> tuple[int, ...]:
        return (self.file,)


@dataclass(frozen=True)
class XorPair:
    kind: ClassVar[str] = "xor"
    file_a: int
    part_a: int
    file_b: int
    part_b: int

    def files(self) -> tuple[int, ...]:
        return (self.file_a, self.file_b)

    def sides(self) -> set[tuple[int, int]]:
        return {(self.file_a, self.part_a), (self.file_b, self.part_b)}


TxAction = Union[Silent, Direct, XorPair]
SILENT = Silent()


@dataclass(frozen=True)
class DecodePlan:
    """How one receiver uses one period.

    ``source`` is the transmitter whose codeword is decoded; ``cancel`` lists
    (tx, file, part) interferers subtracted using cached bits; ``strip`` names
    the cached (file, part) xored out of an XOR codeword; ``target`` is the
    (file, part) obtained.
    """

    source: int
    cancel: tuple[tuple[int, int, int], ...]
    strip: tuple[int, int] | None
    target: tuple[int, int]


@dataclass(frozen=True)
class PeriodSchedule:
    index: int
    silent_class: int | None  # k mod 3 value muted this period; None for the full model
    tx_actions: dict[int, TxAction]
    rx_plans: dict[int, DecodePlan | None]


@dataclass(frozen=True)
class DeliverySchedule:
    variant: Variant
    k: int
    demands: DemandVector
    periods: tuple[PeriodSchedule, ...]

    def to_json(self) -> dict:
        return to_json(self) | {"demands": list(self.demands)}


# Part assignments per period (see module docstring).
DIRECT_PART = {1: 3, 2: 5, 3: 2}
XOR_OWN_PART = {1: 6, 2: 1, 3: 4}
XOR_NEXT_PART = {1: 3, 2: 5, 3: 1}


def _decode_plans(k: int, actions: dict[int, TxAction], heard: tuple[int, ...]) -> dict[int, DecodePlan | None]:
    """Each receiver's plan, read off its period's actions and the ``heard`` offsets. A receiver
    whose own Tx is active decodes it, cancels every other heard Tx that sends a direct part
    and strips the side of an XOR meant for the next receiver. A receiver whose own Tx is
    silent decodes its side of the previous Tx's XOR, and without one it gets nothing."""
    ring = lambda node: (node - 1) % k + 1
    plans: dict[int, DecodePlan | None] = {}
    for rx in range(1, k + 1):
        own, prev = actions[rx], ring(rx - 1)
        if isinstance(own, Silent):
            pair = actions[prev]
            xor = isinstance(pair, XorPair)
            plans[rx] = DecodePlan(prev, (), (pair.file_a, pair.part_a), (pair.file_b, pair.part_b)) if xor else None
            continue
        others = [(tx, actions[tx]) for tx in (ring(rx + off) for off in heard if off)]
        cancel = tuple((tx, a.file, a.part) for tx, a in others if isinstance(a, Direct))
        if isinstance(own, XorPair):
            plans[rx] = DecodePlan(rx, cancel, (own.file_b, own.part_b), (own.file_a, own.part_a))
        else:
            plans[rx] = DecodePlan(rx, cancel, None, (own.file, own.part))
    return plans


def delivery_schedule_soft(k: int, demands: DemandVector) -> DeliverySchedule:
    """Three-period schedule for the soft-handoff scheme; Tx K stays silent throughout."""
    if k < MIN_SOFT_K:
        raise KTooSmall(f"soft-handoff schedule needs K >= {MIN_SOFT_K}, got {k}")
    if len(demands) != k:
        raise SimError(f"demand vector length {len(demands)} != K={k}")
    d = demands.for_rx

    periods = []
    for p in range(1, SOFT_PERIODS + 1):
        silent = p - 1
        first = (silent + 1) % 3  # sends a direct part, decoded interference-free
        actions: dict[int, TxAction] = {}
        for tx in range(1, k + 1):
            if tx == k or tx % 3 == silent:
                actions[tx] = SILENT
            elif tx % 3 == first:
                actions[tx] = Direct(d(tx), DIRECT_PART[p])
            else:
                actions[tx] = XorPair(d(tx), XOR_OWN_PART[p], d(tx + 1), XOR_NEXT_PART[p])
        periods.append(PeriodSchedule(p, silent, actions, _decode_plans(k, actions, HEARD[Variant.SOFT_HANDOFF])))
    return DeliverySchedule(Variant.SOFT_HANDOFF, k, demands, tuple(periods))


def delivery_schedule_full(k: int, demands: DemandVector) -> DeliverySchedule:
    """Single-period schedule for the full model: each Tx sends the one part its receiver's cache
    labels lack, and every receiver cancels both neighbours. An odd K raises ``OddKForFullModel``."""
    labels = cache_labels(Variant.FULL, k)
    if len(demands) != k:
        raise SimError(f"demand vector length {len(demands)} != K={k}")
    d = demands.for_rx
    actions: dict[int, TxAction] = {
        tx: Direct(d(tx), *set(range(1, PARTS_FULL + 1)).difference(labels[tx])) for tx in range(1, k + 1)
    }
    period = PeriodSchedule(1, None, actions, _decode_plans(k, actions, HEARD[Variant.FULL]))
    return DeliverySchedule(Variant.FULL, k, demands, (period,))


@dataclass(frozen=True)
class Violation:
    kind: str  # knowledge | silent_class | cancel_key | extraction_key | part_count | interference
    period: int
    actor: int  # tx index for knowledge/silent_class, rx index otherwise
    detail: str


def verify_schedule(schedule: DeliverySchedule, placement: CachePlacement) -> list[Violation]:
    """Mechanically check a schedule against a placement; an empty list means it is valid.
    The check reads the placement's cache labels and its files' part count alone
    (``verify_labels``)."""
    return verify_labels(schedule, placement.labels, min(len(parts) for parts in placement.parts.values()))


def verify_labels(schedule: DeliverySchedule, labels: Mapping[int, tuple[int, ...]], parts: int) -> list[Violation]:
    """Check a schedule against the cache labels of files of ``parts`` labels each.

    Receiver rx caches ``labels[rx]`` of every file, and its decoded parts are those of
    its file in ``schedule.demands``. Each guaranteed receiver must end up holding exactly
    ``NEEDED`` distinct labels of its file, all in 1..parts: no label is decoded twice,
    and none is both cached and decoded.
    """
    k, demands, heard = schedule.k, schedule.demands, HEARD[schedule.variant]
    ring = lambda node: (node - 1) % k + 1
    if len(demands) != k:
        raise SimError(f"demand vector length {len(demands)} != K={k}")
    violations: list[Violation] = []
    flag = lambda *fields: violations.append(Violation(*fields))
    decoded_parts: dict[int, list[int]] = {rx: [] for rx in range(1, k + 1)}

    for per in schedule.periods:
        at, sends = per.index, per.tx_actions
        # (a) silence pattern and transmitter knowledge
        for tx, action in sends.items():
            if per.silent_class is not None:
                should_be_silent = tx == k or tx % 3 == per.silent_class
                if should_be_silent != isinstance(action, Silent):
                    state = "silent" if should_be_silent else "active"
                    flag("silent_class", at, tx, f"Tx {tx} must be {state} in period {at}")
            known = {demands.for_rx(ring(tx - off)) for off in heard}
            for f in action.files():
                if f not in known:
                    flag("knowledge", at, tx,
                         f"Tx {tx} references file {f} outside its download set {sorted(known)}")

        for rx, plan in per.rx_plans.items():
            if plan is None:
                continue
            cached = labels.get(rx, ())
            # (b) every cancellation key's label is cached and matches the interferer's action
            for tx, f, p in plan.cancel:
                action = sends.get(tx)
                if not (isinstance(action, Direct) and (action.file, action.part) == (f, p)):
                    flag("cancel_key", at, rx,
                         f"Rx {rx} cancels ({f}, {p}) from Tx {tx}, which sends {action}")
                if p not in cached:
                    flag("cancel_key", at, rx, f"Rx {rx} lacks cached ({f}, {p}) needed to cancel Tx {tx}")
            # extraction consistency: the source action must carry exactly
            # {target, strip} for XOR plans, or the target for direct plans
            source_action = sends.get(plan.source)
            if plan.strip is None:
                sent = isinstance(source_action, Direct) and (source_action.file, source_action.part)
                if sent != plan.target:
                    flag("extraction_key", at, rx, f"Rx {rx} expects direct {plan.target} "
                         f"from Tx {plan.source}, which sends {source_action}")
            else:
                wanted = {plan.target, plan.strip}
                if not (isinstance(source_action, XorPair) and source_action.sides() == wanted):
                    flag("extraction_key", at, rx, f"Rx {rx} expects xor of {sorted(wanted)} "
                         f"from Tx {plan.source}, which sends {source_action}")
                if plan.strip[1] not in cached:
                    flag("extraction_key", at, rx, f"Rx {rx} lacks cached {plan.strip} to strip the xor")
            # (d) no active transmitter is heard beyond the decode plan
            allowed = {plan.source} | {tx for tx, _, _ in plan.cancel}
            for tx in (ring(rx + off) for off in heard):
                if not isinstance(sends.get(tx), Silent) and tx not in allowed:
                    flag("interference", at, rx,
                         f"Rx {rx} hears active Tx {tx} not covered by its decode plan")
            if plan.target[0] == demands.for_rx(rx):
                decoded_parts[rx].append(plan.target[1])

    # (c) part accounting at the receivers the scheme guarantees; a label decoded twice,
    # or both cached and decoded, leaves fewer held labels than cached plus decoded
    needed = NEEDED[schedule.variant]
    for rx in guaranteed_receivers(schedule.variant, k):
        cached, decoded = set(labels.get(rx, ())), decoded_parts[rx]
        held = cached | set(decoded)
        if not len(held) == len(cached) + len(decoded) == needed or not held <= set(range(1, parts + 1)):
            flag("part_count", 0, rx, f"Rx {rx} decodes parts {sorted(decoded)} against cached "
                 f"{sorted(cached)}, needs {needed} distinct labels in 1..{parts}")
    return violations
