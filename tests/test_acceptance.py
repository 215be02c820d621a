"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from wynercache.model import (
    DemandVector,
    NetworkConfig,
    OddKForFullModel,
    random_library,
)
from wynercache.codec import capacity
from wynercache.harness import DemandPolicy, ExperimentSpec, run_experiment, sweep_snr
from wynercache.schemes import (
    Direct,
    MonteCarlo,
    SchemePoint,
    XorPair,
    augment_prop1,
    cache_placement_soft,
    delivery_schedule_soft,
    mds_decode,
    mds_encode,
    rate_full,
    rate_soft,
    round_robin_soft,
    run_full,
    run_soft,
    run_soft_prop1,
    time_share,
    verify_schedule,
)
from randbits import random_bits
from wynercache.tradeoff import s_full_ach, s_full_ub, s_soft_ach, s_soft_ub

EPS = 0.05


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_soft_exhaustive():
    started = time.perf_counter()
    failures = 0
    runs = 0

    # K = 6 base scheme, D = 2, every demand vector
    cfg6 = NetworkConfig.soft_handoff(6, 1.0, 1e4, EPS)
    lib2 = random_library(2, 40, seed=101, allow_small_d=True)
    for combo in itertools.product((1, 2), repeat=6):
        res = run_soft(cfg6, lib2, DemandVector(combo))
        runs += 1
        failures += not res.all_guaranteed_ok()

    # K = 7 with round-robin, D = 2, every demand vector; all receivers covered
    cfg7 = NetworkConfig.soft_handoff(7, 1.0, 1e4, EPS)
    lib2rr = random_library(2, 5 * 8 * 5, seed=102, allow_small_d=True)
    for combo in itertools.product((1, 2), repeat=7):
        res = round_robin_soft(cfg7, lib2rr, DemandVector(combo))
        runs += 1
        failures += not all(res.success.values())

    # D = 6: one thousand random vectors plus the all-equal vector, both setups
    rng = np.random.default_rng(103)
    lib6 = random_library(6, 40, seed=104)
    lib6rr = random_library(6, 5 * 8 * 5, seed=105)
    vectors = [tuple(int(x) for x in rng.integers(1, 7, size=7)) for _ in range(1000)]
    vectors.append((1,) * 7)
    for vec in vectors:
        res = run_soft(cfg6, lib6, DemandVector(vec[:6]))
        runs += 1
        failures += not res.all_guaranteed_ok()
        res = round_robin_soft(cfg7, lib6rr, DemandVector(vec))
        runs += 1
        failures += not all(res.success.values())

    elapsed = time.perf_counter() - started
    _report(
        1,
        failures == 0 and elapsed < 60,
        f"soft exhaustive: {runs} runs, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_2_full_exhaustive():
    started = time.perf_counter()
    failures = 0
    runs = 0
    for k in (4, 6):
        cfg = NetworkConfig.full(k, 0.7, 1e4, EPS)
        lib2 = random_library(2, 16, seed=200 + k, allow_small_d=True)
        for combo in itertools.product((1, 2), repeat=k):
            res = run_full(cfg, lib2, DemandVector(combo))
            runs += 1
            failures += not all(res.success.values())
        lib6 = random_library(6, 16, seed=210 + k)
        rng = np.random.default_rng(220 + k)
        for _ in range(300):
            vec = tuple(int(x) for x in rng.integers(1, 7, size=k))
            res = run_full(cfg, lib6, DemandVector(vec))
            runs += 1
            failures += not all(res.success.values())

    odd_rejected = False
    try:
        run_full(
            NetworkConfig.full(7, 0.7, 1e4, EPS),
            random_library(6, 16, seed=230),
            DemandVector((1,) * 7),
        )
    except OddKForFullModel:
        odd_rejected = True

    elapsed = time.perf_counter() - started
    _report(
        2,
        failures == 0 and odd_rejected and elapsed < 60,
        f"full exhaustive: {runs} runs, {failures} failures, odd-K rejected: "
        f"{odd_rejected}, {elapsed:.1f}s",
    )


def test_criterion_3_tradeoff_curves():
    started = time.perf_counter()
    exact = (
        s_soft_ach(0) == Fraction(2, 3)
        and s_soft_ach(Fraction(2, 3)) == Fraction(5, 3)
        and s_full_ach(1) == Fraction(2)
    )

    grid_ok = True
    denom = 2500  # 10^4 rational grid points on (0, 4]
    for i in range(1, 10001):
        x = Fraction(i, denom)
        for ach, ub, tight_from in (
            (s_soft_ach, s_soft_ub, Fraction(2, 3)),
            (s_full_ach, s_full_ub, Fraction(1)),
        ):
            gap = float(ub(x) - ach(x))
            if gap < -1e-12:
                grid_ok = False
            if x >= tight_from:
                grid_ok = grid_ok and abs(gap) <= 1e-12
            else:
                grid_ok = grid_ok and gap > 1e-12
    elapsed = time.perf_counter() - started
    _report(
        3,
        exact and grid_ok and elapsed < 1.0,
        f"curve reproduction exact: {exact}, grid ordering/tightness: {grid_ok}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_4_rate_memory_formulas():
    ok = True
    details = []
    lib = random_library(6, 40, seed=400)  # L = 8
    lib_full = random_library(6, 16, seed=401)
    for power in (1e2, 1e4, 1e8):
        for alpha_min in (0.5, 1.0):
            cfg = NetworkConfig.soft_handoff(6, alpha_min, power, EPS)
            res = run_soft(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6)))
            oracle = (5 / 3) * 0.5 * math.log2(1 + alpha_min**2 * (power - EPS)) - 5 * EPS
            ok &= abs(res.rate_per_user - oracle) <= 1e-12
            ok &= res.memory_bits_per_receiver == 2 * 6 * 8
        cfgf = NetworkConfig.full(6, 0.7, power, EPS)
        resf = run_full(cfgf, lib_full, DemandVector((1, 2, 3, 4, 5, 6)))
        oracle_full = 2 * (0.5 * math.log2(1 + power - EPS) - EPS)
        ok &= abs(resf.rate_per_user - oracle_full) <= 1e-12
        ok &= resf.memory_bits_per_receiver == 6 * 8
        details.append(f"P={power:g}")
    _report(4, ok, f"rate/memory formulas match at {', '.join(details)}")


def test_criterion_5_mg_convergence():
    started = time.perf_counter()
    grid = [20, 40, 60, 80]

    soft_spec = ExperimentSpec(
        config=NetworkConfig.soft_handoff(6, 1.0, 1e4, EPS),
        trials=1,
        demand_policy=DemandPolicy.DISTINCT,
    )
    soft_rows = sweep_snr(soft_spec, grid).rows
    soft_mgs = [r.empirical_mg for r in soft_rows]
    p_hi = 10.0**8
    u_hi = 0.5 * math.log2(1 + p_hi)
    soft_oracle = 5 / 3 - 5 * EPS / u_hi
    soft_ok = (
        soft_mgs == sorted(soft_mgs)
        and abs(soft_mgs[-1] - soft_oracle) <= 0.02
        and all(r.guaranteed_success == 1.0 for r in soft_rows)
    )

    full_spec = ExperimentSpec(
        config=NetworkConfig.full(6, 0.7, 1e4, EPS),
        trials=1,
        demand_policy=DemandPolicy.DISTINCT,
    )
    full_rows = sweep_snr(full_spec, grid).rows
    full_mgs = [r.empirical_mg for r in full_rows]
    full_oracle = 2 - 2 * EPS / u_hi
    full_ok = (
        full_mgs == sorted(full_mgs)
        and abs(full_mgs[-1] - full_oracle) <= 0.02
        and all(r.guaranteed_success == 1.0 for r in full_rows)
    )

    elapsed = time.perf_counter() - started
    _report(
        5,
        soft_ok and full_ok and elapsed < 10,
        f"MG sweep soft->{soft_mgs[-1]:.4f} (oracle {soft_oracle:.4f}), "
        f"full->{full_mgs[-1]:.4f} (oracle {full_oracle:.4f}), {elapsed:.1f}s",
    )


def test_criterion_6_prop1_and_time_sharing():
    d_files = 6
    # exact combinator arithmetic in rational form
    base = SchemePoint(Fraction(5, 3), Fraction(2, 3) * d_files)
    lifted = augment_prop1(base, Fraction(d_files, 3), d_files)
    arithmetic_ok = lifted.rate == Fraction(2) and lifted.memory == Fraction(d_files)

    # the simulated augmented scheme must still decode with the larger cache
    cfg = NetworkConfig.soft_handoff(6, 1.0, 1e4, EPS)
    lib = random_library(6, 40 + 10, seed=600)
    sim = run_soft_prop1(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6)), 10)
    sim_ok = sim.all_guaranteed_ok() and sim.memory_bits_per_receiver == 2 * 6 * 8 + 6 * 10

    # time-sharing anchors land on the achievable curves for a lambda grid
    share_ok = True
    no_cache = SchemePoint(Fraction(2, 3), Fraction(0))
    soft_anchor = SchemePoint(Fraction(5, 3), Fraction(2, 3) * d_files)
    full_anchor = SchemePoint(Fraction(2), Fraction(d_files))
    for lam in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        p = time_share(soft_anchor, no_cache, lam)
        share_ok &= abs(float(s_soft_ach(p.memory / d_files) - p.rate)) <= 1e-12
        q = time_share(full_anchor, no_cache, lam)
        share_ok &= abs(float(s_full_ach(q.memory / d_files) - q.rate)) <= 1e-12

    _report(
        6,
        arithmetic_ok and sim_ok and share_ok,
        f"prop1 exact: {arithmetic_ok}, simulated augmentation: {sim_ok}, "
        f"time-share on curve: {share_ok}",
    )


def test_criterion_7_monte_carlo_sanity():
    started = time.perf_counter()
    trials = 200
    bits, n = 8, 288  # n_slot = 96
    link_rate = bits / (n // 3)

    # below 0.8x the weakest-link capacity: block success must reach 98%
    cfg_good = NetworkConfig.soft_handoff(6, 1.0, 100.0, EPS)
    weakest = capacity(cfg_good.alpha_min, cfg_good.power - cfg_good.epsilon)
    assert link_rate <= 0.8 * weakest
    lib = random_library(6, 5 * bits, seed=700)
    rng = np.random.default_rng(701)
    good = 0
    for t in range(trials):
        demands = DemandVector(tuple(int(x) for x in rng.integers(1, 7, size=6)))
        res = run_soft(cfg_good, lib, demands, MonteCarlo(n=n, seed=t))
        good += res.all_guaranteed_ok()
    success_rate = good / trials

    # at 1.5x capacity and beyond: per-link errors must exceed 30%
    cfg_bad = NetworkConfig.soft_handoff(6, 1.0, 0.129, EPS)
    assert link_rate >= 1.5 * capacity(1.0, cfg_bad.power - cfg_bad.epsilon)
    links = failures = 0
    for t in range(trials):
        demands = DemandVector(tuple(int(x) for x in rng.integers(1, 7, size=6)))
        res = run_soft(cfg_bad, lib, demands, MonteCarlo(n=n, seed=t))
        links += res.links_total
        failures += res.link_failures
    error_rate = failures / links

    # the power constraint is hard-asserted inside the pipeline on every
    # transmitted block (a violation raises), so reaching here certifies it
    elapsed = time.perf_counter() - started
    _report(
        7,
        success_rate >= 0.98 and error_rate >= 0.30 and elapsed < 120,
        f"MC success {success_rate:.3f} (>=0.98), overload link-error "
        f"{error_rate:.3f} (>=0.30), power asserts held, {elapsed:.1f}s",
    )


def test_criterion_8_schedule_verifier():
    import copy

    all_ok = True
    for k in range(5, 13):
        d_files = max(6, k)
        lib = random_library(d_files, 30, seed=800 + k)
        placement = cache_placement_soft(k, lib)
        rng = np.random.default_rng(810 + k)
        policies = [
            DemandVector(tuple(range(1, k + 1))),
            DemandVector((1,) * k),
            DemandVector(tuple(int(x) for x in rng.integers(1, d_files + 1, size=k))),
            DemandVector(tuple((i % d_files) + 1 for i in range(k))),
        ]
        for demands in policies:
            schedule = delivery_schedule_soft(k, demands)
            all_ok &= verify_schedule(schedule, placement) == []

    # three hand-mutated schedules, each rejected with the right diagnostic
    lib = random_library(6, 30, seed=820)
    placement = cache_placement_soft(6, lib)

    demands = DemandVector((1, 2, 3, 4, 5, 6))
    knowledge = copy.deepcopy(delivery_schedule_soft(6, demands))
    knowledge.periods[0].tx_actions[1] = Direct(4, 3)
    got = {v.kind for v in verify_schedule(knowledge, placement)}
    knowledge_ok = "knowledge" in got

    demands_rep = DemandVector((1, 2, 1, 2, 1, 2))
    cachekey = copy.deepcopy(delivery_schedule_soft(6, demands_rep))
    cachekey.periods[0].tx_actions[2] = XorPair(1, 6, 1, 3)
    violations = verify_schedule(cachekey, placement)
    cachekey_ok = all(v.kind != "knowledge" for v in violations) and any(
        v.kind == "extraction_key" and v.actor == 3 for v in violations
    )

    silent = copy.deepcopy(delivery_schedule_soft(6, demands))
    silent.periods[0].tx_actions[3] = Direct(3, 3)
    silent_ok = "silent_class" in {v.kind for v in verify_schedule(silent, placement)}

    _report(
        8,
        all_ok and knowledge_ok and cachekey_ok and silent_ok,
        f"canonical K=5..12 pass: {all_ok}, mutations rejected: "
        f"knowledge={knowledge_ok}, extraction-key={cachekey_ok}, silent-class={silent_ok}",
    )


def test_criterion_9_mds_and_round_robin_rate():
    patterns_ok = True
    for k_total in (5, 7, 8):
        rng = np.random.default_rng(900 + k_total)
        data = [random_bits(40, rng) for _ in range(k_total - 2)]
        coded = mds_encode(data)
        for erased in itertools.combinations(range(1, k_total + 1), 2):
            available = {i: coded[i - 1] for i in range(1, k_total + 1) if i not in erased}
            patterns_ok &= mds_decode(available, k_total) == data

    k = 7
    cfg = NetworkConfig.soft_handoff(k, 1.0, 1e4, EPS)
    lib = random_library(6, 5 * 8 * (k - 2), seed=910)
    res = round_robin_soft(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6, 1)))
    rate_ok = res.rate_per_user == rate_soft(cfg) * (k - 2) / k

    _report(
        9,
        patterns_ok and rate_ok,
        f"all two-erasure patterns decode: {patterns_ok}, "
        f"round-robin rate factor exact: {rate_ok}",
    )
