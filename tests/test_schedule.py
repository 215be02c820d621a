import copy
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gainoracle import PERIODS
from wynercache.model import CachePlacement, DemandVector, OddKForFullModel, SimError, Variant, random_library, to_json
from wynercache.schemes import (
    DecodePlan,
    DeliverySchedule,
    Direct,
    KTooSmall,
    PeriodSchedule,
    SILENT,
    Silent,
    Violation,
    XorPair,
    cache_placement_full,
    cache_placement_soft,
    delivery_schedule_full,
    delivery_schedule_soft,
    verify_schedule,
)
from wynercache.schemes.placement import cache_labels
from wynercache.schemes.schedule import (
    DIRECT_PART,
    LABELS,
    NEEDED,
    XOR_NEXT_PART,
    XOR_OWN_PART,
    guaranteed_receivers,
    verify_labels,
)


def _soft_setup(k, d_files=6, demands=None, seed=0):
    lib = random_library(d_files, 30, seed=seed, allow_small_d=True)
    if demands is None:
        demands = DemandVector(tuple((i % d_files) + 1 for i in range(k)))
    placement = cache_placement_soft(k, lib)
    schedule = delivery_schedule_soft(k, demands)
    return schedule, placement, demands


class TestCanonicalSoftSchedule:
    def test_period1_subnet1(self):
        d = DemandVector((1, 2, 3, 4, 5, 6))
        sched = delivery_schedule_soft(6, d)
        p1 = sched.periods[0]
        assert p1.tx_actions[1] == Direct(1, 3)
        assert p1.tx_actions[2] == XorPair(2, 6, 3, 3)
        assert isinstance(p1.tx_actions[3], Silent)
        assert isinstance(p1.tx_actions[6], Silent)

    def test_period2_direct(self):
        d = DemandVector((1, 2, 3, 4, 5, 6))
        sched = delivery_schedule_soft(6, d)
        assert sched.periods[1].tx_actions[2] == Direct(2, 5)

    def test_period3_xor(self):
        d = DemandVector((1, 2, 3, 4, 5, 6))
        sched = delivery_schedule_soft(6, d)
        assert sched.periods[2].tx_actions[1] == XorPair(1, 4, 2, 1)

    def test_tx_k_silent_every_period(self):
        for k in (5, 6, 7, 9):
            sched = delivery_schedule_soft(k, DemandVector((1,) * k))
            assert all(isinstance(per.tx_actions[k], Silent) for per in sched.periods)

    def test_rx2_decode_sequence(self):
        # the stated decode order at receiver 2: parity part, then 5, then 1
        d = DemandVector((1, 2, 3, 4, 5, 6))
        sched = delivery_schedule_soft(6, d)
        targets = [per.rx_plans[2].target for per in sched.periods]
        assert targets == [(2, 6), (2, 5), (2, 1)]

    def test_k_too_small(self):
        with pytest.raises(KTooSmall):
            delivery_schedule_soft(4, DemandVector((1, 1, 1, 1)))

    def test_json_structure(self):
        sched, _, _ = _soft_setup(6)
        doc = sched.to_json()
        assert doc["variant"] == "soft"
        assert len(doc["periods"]) == 3
        p1 = doc["periods"][0]
        assert p1["tx_actions"]["1"] == {"kind": "direct", "file": 1, "part": 3}
        assert p1["tx_actions"]["3"] == {"kind": "silent"}
        assert p1["rx_plans"]["2"]["cancel"] == [[1, 1, 3]]


class TestVerifySchedule:
    @pytest.mark.parametrize("k", range(5, 13))
    def test_canonical_passes_all_policies(self, k):
        d_files = max(6, k)
        lib = random_library(d_files, 30, seed=k)
        placement = cache_placement_soft(k, lib)
        rng = np.random.default_rng(k)
        policies = [
            DemandVector(tuple(range(1, k + 1))),  # distinct
            DemandVector((1,) * k),  # all equal
        ]
        policies += [
            DemandVector(tuple(int(x) for x in rng.integers(1, d_files + 1, size=k)))
            for _ in range(25)
        ]
        for demands in policies:
            schedule = delivery_schedule_soft(k, demands)
            assert verify_schedule(schedule, placement) == []

    @pytest.mark.parametrize("variant, k", [("soft", 12), ("full", 10)])
    def test_placed_template_passes_with_fewer_files_than_receivers(self, variant, k):
        # the template names file j for receiver j, so its file ids run up to K > D;
        # the cache checks test part labels, which every file shares
        receivers = DemandVector(tuple(range(1, k + 1)))
        if variant == "soft":
            lib = random_library(6, 30, seed=k)
            placement = cache_placement_soft(k, lib)
            schedule = delivery_schedule_soft(k, receivers)
        else:
            lib = random_library(6, 16, seed=k)
            placement = cache_placement_full(k, lib)
            schedule = delivery_schedule_full(k, receivers)
        assert verify_schedule(schedule, placement) == []

    def test_exhaustive_small(self):
        lib = random_library(2, 30, seed=1, allow_small_d=True)
        placement = cache_placement_soft(6, lib)
        for combo in itertools.product((1, 2), repeat=6):
            demands = DemandVector(combo)
            schedule = delivery_schedule_soft(6, demands)
            assert verify_schedule(schedule, placement) == []

    def test_knowledge_violation(self):
        demands = DemandVector((1, 2, 3, 4, 5, 6))
        sched, placement, _ = _soft_setup(6, demands=demands)
        mutated = copy.deepcopy(sched)
        # Tx 1 only downloads files d_1 and d_2; referencing d_4 is illegal
        mutated.periods[0].tx_actions[1] = Direct(4, 3)
        kinds = {v.kind for v in verify_schedule(mutated, placement)}
        assert "knowledge" in kinds

    def test_extraction_key_violation(self):
        # demands with d_1 == d_3 keep Tx 2's knowledge legal after the swap,
        # but receiver 3 can no longer strip the xor with its cached key
        demands = DemandVector((1, 2, 1, 2, 1, 2))
        sched, placement, _ = _soft_setup(6, d_files=2, demands=demands)
        mutated = copy.deepcopy(sched)
        original = mutated.periods[0].tx_actions[2]
        assert original == XorPair(2, 6, 1, 3)
        mutated.periods[0].tx_actions[2] = XorPair(1, 6, 1, 3)  # first file swapped to d_1
        violations = verify_schedule(mutated, placement)
        assert all(v.kind != "knowledge" for v in violations)
        assert any(v.kind == "extraction_key" and v.actor == 3 for v in violations)

    def test_silent_class_violation(self):
        demands = DemandVector((1, 2, 3, 4, 5, 6))
        sched, placement, _ = _soft_setup(6, demands=demands)
        mutated = copy.deepcopy(sched)
        mutated.periods[0].tx_actions[3] = Direct(3, 3)  # Tx 3 must be silent in period 1
        kinds = {v.kind for v in verify_schedule(mutated, placement)}
        assert "silent_class" in kinds

    def test_cancel_key_violation(self):
        demands = DemandVector((1, 2, 3, 4, 5, 6))
        sched, placement, _ = _soft_setup(6, demands=demands)
        mutated = copy.deepcopy(sched)
        plan = mutated.periods[0].rx_plans[2]
        mutated.periods[0].rx_plans[2] = type(plan)(
            source=plan.source, cancel=((1, 1, 5),), strip=plan.strip, target=plan.target
        )
        kinds = {v.kind for v in verify_schedule(mutated, placement)}
        assert "cancel_key" in kinds

    def test_violation_json(self):
        v = Violation("part_count", 0, 3, "Rx 3 decodes parts [1] against cached [2, 4]")
        assert list(to_json(v).items()) == [
            ("kind", "part_count"),
            ("period", 0),
            ("actor", 3),
            ("detail", v.detail),
        ]


class TestFullSchedule:
    def test_actions_by_parity(self):
        d = DemandVector((1, 2, 3, 4, 5, 6))
        sched = delivery_schedule_full(6, d)
        per = sched.periods[0]
        assert per.tx_actions[1] == Direct(1, 2)  # odd tx sends part 2
        assert per.tx_actions[2] == Direct(2, 1)
        plan = per.rx_plans[1]
        assert plan.cancel == ((6, 6, 1), (2, 2, 1))

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_odd_k_rejected(self, k):
        # the rule cache_labels states once, read by the builder before the demands
        with pytest.raises(OddKForFullModel, match=f"^full-model caching needs even K, got {k}: "):
            delivery_schedule_full(k, DemandVector((1,) * k))

    @pytest.mark.parametrize("variant", list(Variant))
    def test_demand_length_must_be_k(self, variant):
        build = delivery_schedule_soft if variant is Variant.SOFT_HANDOFF else delivery_schedule_full
        with pytest.raises(SimError, match="^demand vector length 5 != K=6$"):
            build(6, DemandVector((1,) * 5))
        schedule = dataclasses.replace(build(6, DemandVector((1,) * 6)), demands=DemandVector((1,) * 5))
        with pytest.raises(SimError, match="^demand vector length 5 != K=6$"):
            verify_labels(schedule, cache_labels(variant, 6), LABELS[variant])

    def test_verifier_passes(self):
        lib = random_library(6, 16, seed=4)
        for k in (4, 6, 8):
            placement = cache_placement_full(k, lib)
            demands = DemandVector(tuple((i % 6) + 1 for i in range(k)))
            schedule = delivery_schedule_full(k, demands)
            assert verify_schedule(schedule, placement) == []


def _per_model_part_count(variant, k, decoded):
    """The receivers flagged by the former part accounting, one rule per model against the
    canonical caches, whatever the placement: the oracle of the placement-driven rule."""
    flagged = set()
    if variant is Variant.SOFT_HANDOFF:
        for rx in range(2, k):
            cached, distinct = set(cache_labels(variant, k)[rx]), set(decoded[rx])
            if len(decoded[rx]) != 3 or len(distinct) != 3 or distinct & cached:
                flagged.add(rx)
            elif len(distinct | cached) < 5:
                flagged.add(rx)
    else:
        for rx in range(1, k + 1):
            if set(decoded[rx]) != {1, 2} - set(cache_labels(variant, k)[rx]):
                flagged.add(rx)
    return flagged


def _decoding(variant, k, decoded):
    """A schedule in which receiver rx decodes the labels ``decoded[rx]`` of its own file, one
    per period; only its part accounting is of interest."""
    receivers = DemandVector(tuple(range(1, k + 1)))
    periods = tuple(
        PeriodSchedule(i, None, {}, {
            rx: DecodePlan(rx, (), None, (rx, labels[i - 1])) if i <= len(labels) else None
            for rx, labels in decoded.items()
        })
        for i in range(1, max(map(len, decoded.values())) + 1)
    )
    return DeliverySchedule(variant, k, receivers, periods)


def _canonical(variant, k):
    """The canonical placement and the labels of its own file each receiver decodes."""
    receivers = DemandVector(tuple(range(1, k + 1)))
    if variant is Variant.SOFT_HANDOFF:
        placement = cache_placement_soft(k, random_library(6, 30, seed=k))
        schedule = delivery_schedule_soft(k, receivers)
    else:
        placement = cache_placement_full(k, random_library(6, 16, seed=k))
        schedule = delivery_schedule_full(k, receivers)
    decoded = {rx: [] for rx in range(1, k + 1)}
    for per in schedule.periods:
        for rx, plan in per.rx_plans.items():
            if plan is not None and plan.target[0] == rx:
                decoded[rx].append(plan.target[1])
    return placement, decoded


def _part_count(schedule, placement):
    return {v.actor for v in verify_schedule(schedule, placement) if v.kind == "part_count"}


@st.composite
def _decoded_labels(draw):
    variant = draw(st.sampled_from(Variant))
    soft = variant is Variant.SOFT_HANDOFF
    k = draw(st.integers(5, 12) if soft else st.integers(2, 6).map(lambda half: 2 * half))
    placement, canonical = _canonical(variant, k)
    top = 6 if soft else 2
    label = st.integers(0, top + 1)  # out of range at both ends
    decoded = {
        rx: draw(st.one_of(
            st.just(labels),
            st.lists(label, max_size=top),
            label.map(lambda extra, labels=labels: labels + [extra]),
            st.permutations(labels).map(lambda p: p[1:]),
        ))
        for rx, labels in canonical.items()
    }
    return variant, k, placement, decoded


class TestPartAccounting:
    @settings(max_examples=300, deadline=None)
    @given(_decoded_labels())
    def test_agrees_with_the_per_model_rules(self, case):
        # the one rule is stricter in two cases only: a soft label outside 1..6, and a
        # full label decoded twice; the per-model rules flag both other variants already
        variant, k, placement, decoded = case
        soft = variant is Variant.SOFT_HANDOFF
        top = 6 if soft else 2
        stricter = {
            rx for rx in (range(2, k) if soft else range(1, k + 1))
            if len(set(decoded[rx])) < len(decoded[rx]) or not all(1 <= p <= top for p in decoded[rx])
        }
        want = _per_model_part_count(variant, k, decoded) | stricter
        assert _part_count(_decoding(variant, k, decoded), placement) == want

    @pytest.mark.parametrize(
        "variant, k, rx, labels",
        [(Variant.SOFT_HANDOFF, 6, 4, [3, 4, 7]), (Variant.FULL, 6, 1, [2, 2])],
    )
    def test_stricter_cases(self, variant, k, rx, labels):
        placement, decoded = _canonical(variant, k)
        decoded[rx] = labels
        assert rx not in _per_model_part_count(variant, k, decoded)
        assert _part_count(_decoding(variant, k, decoded), placement) == {rx}

    @pytest.mark.parametrize("variant, k", [(Variant.SOFT_HANDOFF, 7), (Variant.FULL, 8)])
    def test_scheme_table_matches_the_schedules(self, variant, k):
        placement, decoded = _canonical(variant, k)
        build = delivery_schedule_soft if variant is Variant.SOFT_HANDOFF else delivery_schedule_full
        assert len(build(k, DemandVector(tuple(range(1, k + 1)))).periods) == PERIODS[variant]
        held = {rx: len(placement.labels[rx]) + len(set(decoded[rx])) for rx in decoded}
        assert guaranteed_receivers(variant, k) == tuple(rx for rx in held if held[rx] == NEEDED[variant])

    def test_canonical_decodes_pass(self):
        for variant, k in [(Variant.SOFT_HANDOFF, 7), (Variant.FULL, 8)]:
            placement, decoded = _canonical(variant, k)
            assert _part_count(_decoding(variant, k, decoded), placement) == set()

    def test_reads_the_placement_labels(self):
        # every receiver caches labels (1, 2): receivers 2, 3 and 5 then decode a cached
        # label, and receiver 4, whose canonical cache this is, still holds five labels
        sched, canonical, _ = _soft_setup(6)
        placement = CachePlacement(canonical.parts, {rx: (1, 2) for rx in range(1, 7)})
        assert _part_count(sched, placement) == {2, 3, 5}


def _knowledge_set(schedule, tx):
    """The files Tx ``tx`` knows, per variant: the former helper, now the oracle of ``HEARD``."""
    d = schedule.demands.for_rx
    nxt = tx + 1 if tx < schedule.k else 1
    if schedule.variant is Variant.SOFT_HANDOFF:
        return {d(tx), d(nxt)}
    prev = tx - 1 if tx > 1 else schedule.k
    return {d(prev), d(tx), d(nxt)}


def _heard_transmitters(schedule, rx):
    prev = rx - 1 if rx > 1 else schedule.k
    if schedule.variant is Variant.SOFT_HANDOFF:
        return (prev, rx)
    nxt = rx + 1 if rx < schedule.k else 1
    return (prev, rx, nxt)


class TestTopologyTable:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_same_violations_as_the_per_variant_helpers(self, data):
        variant = data.draw(st.sampled_from(Variant))
        soft = variant is Variant.SOFT_HANDOFF
        k = data.draw(st.integers(5, 10) if soft else st.integers(2, 5).map(lambda half: 2 * half))
        demands = DemandVector(tuple(data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))))
        lib = random_library(4, 30 if soft else 16, seed=k, allow_small_d=True)
        build, place = (
            (delivery_schedule_soft, cache_placement_soft) if soft else (delivery_schedule_full, cache_placement_full)
        )
        schedule = build(k, demands)
        file = st.integers(1, 4)
        action = st.one_of(
            st.just(SILENT), st.builds(Direct, file, st.just(1)), st.builds(XorPair, file, st.just(1), file, st.just(2))
        )
        for per in schedule.periods:  # rewire a few transmitters to reference any file
            for tx in data.draw(st.lists(st.integers(1, k), max_size=3)):
                per.tx_actions[tx] = data.draw(action)
        want = []
        for per in schedule.periods:
            for tx, sent in per.tx_actions.items():
                known = _knowledge_set(schedule, tx)
                want += [
                    ("knowledge", per.index, tx,
                     f"Tx {tx} references file {f} outside its download set {sorted(known)}")
                    for f in sent.files() if f not in known
                ]
            for rx, plan in per.rx_plans.items():
                allowed = plan and {plan.source} | {tx for tx, _, _ in plan.cancel}
                want += [
                    ("interference", per.index, rx, f"Rx {rx} hears active Tx {tx} not covered by its decode plan")
                    for tx in (_heard_transmitters(schedule, rx) if plan else ())
                    if not isinstance(per.tx_actions.get(tx), Silent) and tx not in allowed
                ]
        got = [
            (v.kind, v.period, v.actor, v.detail)
            for v in verify_schedule(schedule, place(k, lib)) if v.kind in ("knowledge", "interference")
        ]
        assert got == want


# --- oracle: each receiver's decode plan stated per receiver class ---------------
#
# The schedule builders read every receiver's plan off the transmit actions with one
# rule. These are the plans stated case by case, as the builders once did.


def _soft_plans_by_class(k, demands, p):
    """Soft period ``p``: the plan of each receiver class (silent, first active, second active)."""
    d, silent = demands.for_rx, p - 1
    first = (silent + 1) % 3
    plans = {}
    for rx in range(1, k + 1):
        cls = rx % 3
        prev = rx - 1 if rx > 1 else k
        if cls == silent:
            # hears only the previous transmitter's XOR codeword
            if prev == k:
                plans[rx] = None
            else:
                plans[rx] = DecodePlan(
                    source=prev, cancel=(), strip=(d(prev), XOR_OWN_PART[p]), target=(d(rx), XOR_NEXT_PART[p])
                )
        elif cls == first:
            plans[rx] = None if rx == k else DecodePlan(rx, (), None, (d(rx), DIRECT_PART[p]))
        elif rx == k:
            plans[rx] = None
        else:
            cancel = () if prev == k else ((prev, d(prev), DIRECT_PART[p]),)
            plans[rx] = DecodePlan(
                source=rx, cancel=cancel, strip=(d(rx + 1), XOR_NEXT_PART[p]), target=(d(rx), XOR_OWN_PART[p])
            )
    return plans


def _full_plans_by_receiver(k, demands):
    """The full model's one period: each receiver cancels both neighbours from its cache."""
    d = demands.for_rx
    plans = {}
    for rx in range(1, k + 1):
        prev = rx - 1 if rx > 1 else k
        nxt = rx + 1 if rx < k else 1
        (neighbour_part,) = cache_labels(Variant.FULL, k)[rx]  # neighbours have opposite parity
        plans[rx] = DecodePlan(
            source=rx,
            cancel=((prev, d(prev), neighbour_part), (nxt, d(nxt), neighbour_part)),
            strip=None,
            target=(d(rx), 2 if rx % 2 == 1 else 1),
        )
    return plans


@st.composite
def _schedules(draw):
    """A model, K and a demand vector over few files, so that files repeat."""
    soft = draw(st.booleans())
    k = draw(st.integers(5, 40)) if soft else 2 * draw(st.integers(2, 20))
    files = draw(st.integers(1, 4))
    demands = DemandVector(tuple(draw(st.lists(st.integers(1, files), min_size=k, max_size=k))))
    return soft, k, demands


class TestDecodeRule:
    """Both builders read each receiver's plan off the transmit actions with one rule, and the
    plans are those stated case by case per receiver class."""

    @settings(max_examples=150, deadline=None)
    @given(_schedules())
    def test_builders_match_the_per_class_plans(self, case):
        soft, k, demands = case
        if soft:
            schedule = delivery_schedule_soft(k, demands)
            want = [_soft_plans_by_class(k, demands, p) for p in (1, 2, 3)]
        else:
            schedule = delivery_schedule_full(k, demands)
            want = [_full_plans_by_receiver(k, demands)]
        assert [per.rx_plans for per in schedule.periods] == want
        assert list(schedule.periods[0].rx_plans) == list(range(1, k + 1))
