import copy
import itertools

import numpy as np
import pytest

from wynercache.model import DemandVector, random_library, to_json
from wynercache.schemes import (
    Direct,
    KTooSmall,
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
            assert verify_schedule(schedule, placement, demands) == []

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
        assert verify_schedule(schedule, placement, receivers) == []

    def test_exhaustive_small(self):
        lib = random_library(2, 30, seed=1, allow_small_d=True)
        placement = cache_placement_soft(6, lib)
        for combo in itertools.product((1, 2), repeat=6):
            demands = DemandVector(combo)
            schedule = delivery_schedule_soft(6, demands)
            assert verify_schedule(schedule, placement, demands) == []

    def test_knowledge_violation(self):
        demands = DemandVector((1, 2, 3, 4, 5, 6))
        sched, placement, _ = _soft_setup(6, demands=demands)
        mutated = copy.deepcopy(sched)
        # Tx 1 only downloads files d_1 and d_2; referencing d_4 is illegal
        mutated.periods[0].tx_actions[1] = Direct(4, 3)
        kinds = {v.kind for v in verify_schedule(mutated, placement, demands)}
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
        violations = verify_schedule(mutated, placement, demands)
        assert all(v.kind != "knowledge" for v in violations)
        assert any(v.kind == "extraction_key" and v.actor == 3 for v in violations)

    def test_silent_class_violation(self):
        demands = DemandVector((1, 2, 3, 4, 5, 6))
        sched, placement, _ = _soft_setup(6, demands=demands)
        mutated = copy.deepcopy(sched)
        mutated.periods[0].tx_actions[3] = Direct(3, 3)  # Tx 3 must be silent in period 1
        kinds = {v.kind for v in verify_schedule(mutated, placement, demands)}
        assert "silent_class" in kinds

    def test_cancel_key_violation(self):
        demands = DemandVector((1, 2, 3, 4, 5, 6))
        sched, placement, _ = _soft_setup(6, demands=demands)
        mutated = copy.deepcopy(sched)
        plan = mutated.periods[0].rx_plans[2]
        mutated.periods[0].rx_plans[2] = type(plan)(
            source=plan.source, cancel=((1, 1, 5),), strip=plan.strip, target=plan.target
        )
        kinds = {v.kind for v in verify_schedule(mutated, placement, demands)}
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

    def test_verifier_passes(self):
        lib = random_library(6, 16, seed=4)
        for k in (4, 6, 8):
            placement = cache_placement_full(k, lib)
            demands = DemandVector(tuple((i % 6) + 1 for i in range(k)))
            schedule = delivery_schedule_full(k, demands)
            assert verify_schedule(schedule, placement, demands) == []
