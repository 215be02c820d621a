import copy
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import wynercache.schemes.pipeline as pipeline
import wynercache.schemes.placement as placement
import wynercache.schemes.points as points
from wynercache.harness import ExperimentSpec, run_experiment
from wynercache.model import (
    DemandVector,
    NetworkConfig,
    OddKForFullModel,
    Variant,
    random_library,
)
from wynercache.schemes import (
    ConfigMismatch,
    Ideal,
    InfeasibleRate,
    InvalidSchedule,
    MonteCarlo,
    PowerViolation,
    check_ideal_rate,
    rate_full,
    rate_soft,
    round_robin_soft,
    run_full,
    run_soft,
)
from wynercache.codec import LinkBudget, capacity, ideal_link
from wynercache.schemes.schedule import (
    DecodePlan,
    DeliverySchedule,
    Direct,
    PeriodSchedule,
    XorPair,
    delivery_schedule_full,
    delivery_schedule_soft,
)


def _soft_cfg(k=6, alpha=1.0, power=1e4, eps=0.05):
    return NetworkConfig.soft_handoff(k, alpha, power, eps)


def _rate_soft_oracle(alpha_min, power, eps):
    # independent evaluation of the scheme's configured rate
    return (5 / 3) * 0.5 * math.log2(1 + alpha_min**2 * (power - eps)) - 5 * eps


def _rate_full_oracle(power, eps):
    return 2 * (0.5 * math.log2(1 + power - eps) - eps)


class TestRunSoftIdeal:
    def test_distinct_demands(self):
        cfg = _soft_cfg()
        lib = random_library(6, 40, seed=1)
        res = run_soft(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6)))
        assert all(res.success[rx] for rx in range(2, 6))
        assert not res.success[1] and not res.success[6]
        assert res.guaranteed == (2, 3, 4, 5)
        assert res.link_failures == 0

    def test_rate_matches_formula(self):
        for alpha_min in (0.5, 1.0):
            for power in (1e2, 1e4, 1e8):
                cfg = _soft_cfg(alpha=alpha_min, power=power)
                lib = random_library(6, 40, seed=1)
                res = run_soft(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6)))
                assert res.rate_per_user == pytest.approx(
                    _rate_soft_oracle(alpha_min, power, 0.05), abs=1e-12
                )

    def test_memory_accounting(self):
        lib = random_library(6, 40, seed=1)  # L = 8
        res = run_soft(_soft_cfg(), lib, DemandVector((1,) * 6))
        assert res.memory_bits_per_receiver == 2 * 6 * 8

    def test_exhaustive_d2_k6(self):
        cfg = _soft_cfg()
        lib = random_library(2, 40, seed=7, allow_small_d=True)
        for combo in itertools.product((1, 2), repeat=6):
            res = run_soft(cfg, lib, DemandVector(combo))
            assert res.all_guaranteed_ok(), combo

    def test_all_equal_demands(self):
        cfg = _soft_cfg()
        lib = random_library(6, 40, seed=2)
        res = run_soft(cfg, lib, DemandVector((1,) * 6))
        assert res.all_guaranteed_ok()

    def test_k7_edge_receivers_fail(self):
        cfg = _soft_cfg(k=7)
        lib = random_library(6, 40, seed=3)
        res = run_soft(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6, 1)))
        assert all(res.success[rx] for rx in range(2, 7))
        assert not res.success[1] and not res.success[7]

    def test_decoded_payload_bit_exact(self):
        cfg = _soft_cfg()
        lib = random_library(6, 40, seed=4)
        d = DemandVector((3, 1, 4, 1, 5, 2))
        res = run_soft(cfg, lib, d)
        for rx in range(2, 6):
            assert res.decoded[rx] == lib.payload(d.for_rx(rx))


class TestRunFullIdeal:
    def test_all_receivers(self):
        cfg = NetworkConfig.full(6, 0.7, 1e4)
        lib = random_library(6, 16, seed=5)
        res = run_full(cfg, lib, DemandVector((2, 1, 4, 6, 3, 5)))
        assert all(res.success.values())
        assert res.guaranteed == (1, 2, 3, 4, 5, 6)

    def test_rate_matches_formula(self):
        for power in (1e2, 1e4, 1e8):
            cfg = NetworkConfig.full(6, 0.7, power)
            lib = random_library(6, 16, seed=5)
            res = run_full(cfg, lib, DemandVector((1,) * 6))
            assert res.rate_per_user == pytest.approx(_rate_full_oracle(power, 0.05), abs=1e-12)

    def test_memory_accounting(self):
        lib = random_library(6, 16, seed=5)  # L = 8
        res = run_full(NetworkConfig.full(6, 0.7, 1e4), lib, DemandVector((1,) * 6))
        assert res.memory_bits_per_receiver == 6 * 8

    @pytest.mark.parametrize("k", [4, 6])
    def test_exhaustive_d2(self, k):
        cfg = NetworkConfig.full(k, 0.5, 1e4)
        lib = random_library(2, 16, seed=6, allow_small_d=True)
        for combo in itertools.product((1, 2), repeat=k):
            res = run_full(cfg, lib, DemandVector(combo))
            assert all(res.success.values()), combo

    def test_odd_k_rejected(self):
        cfg = NetworkConfig.full(7, 0.5, 1e4)
        lib = random_library(6, 16, seed=6)
        with pytest.raises(OddKForFullModel):
            run_full(cfg, lib, DemandVector((1,) * 7))


class TestMonteCarlo:
    def test_soft_reproducible(self):
        cfg = _soft_cfg(power=100.0)
        lib = random_library(6, 40, seed=8)
        d = DemandVector((1, 2, 3, 4, 5, 6))
        a = run_soft(cfg, lib, d, MonteCarlo(n=288, seed=5))
        b = run_soft(cfg, lib, d, MonteCarlo(n=288, seed=5))
        assert a.decoded == b.decoded and a.link_failures == b.link_failures

    def test_soft_success_at_high_snr(self):
        cfg = _soft_cfg(power=100.0)
        lib = random_library(6, 40, seed=8)
        rng = np.random.default_rng(0)
        for t in range(20):
            d = DemandVector(tuple(int(x) for x in rng.integers(1, 7, size=6)))
            res = run_soft(cfg, lib, d, MonteCarlo(n=288, seed=t))
            assert res.all_guaranteed_ok()
            assert res.link_failures == 0

    def test_full_success_at_high_snr(self):
        cfg = NetworkConfig.full(6, 0.7, 100.0)
        lib = random_library(6, 16, seed=9)
        rng = np.random.default_rng(1)
        for t in range(20):
            d = DemandVector(tuple(int(x) for x in rng.integers(1, 7, size=6)))
            res = run_full(cfg, lib, d, MonteCarlo(n=128, seed=t))
            assert all(res.success.values())

    def test_reported_rate(self):
        cfg = _soft_cfg(power=100.0)
        lib = random_library(6, 40, seed=8)  # 5 parts of 8 bits
        res = run_soft(cfg, lib, DemandVector((1,) * 6), MonteCarlo(n=288, seed=0))
        assert res.rate_per_user == pytest.approx(40 / (3 * 96))

    def test_errors_above_capacity(self):
        # per-link rate 8/96; power set so the rate is >= 1.5x capacity
        power = 0.129
        cfg = _soft_cfg(power=power)
        rate = 8 / 96
        assert rate >= 1.5 * capacity(1.0, power - cfg.epsilon)
        lib = random_library(6, 40, seed=8)
        rng = np.random.default_rng(2)
        links = failures = 0
        for t in range(60):
            d = DemandVector(tuple(int(x) for x in rng.integers(1, 7, size=6)))
            res = run_soft(cfg, lib, d, MonteCarlo(n=288, seed=t))
            links += res.links_total
            failures += res.link_failures
        assert failures / links >= 0.3

    def test_power_violation_guard(self, monkeypatch):
        # force an over-power codebook through the pipeline's hard power assert
        real_draw = pipeline.draw_codebook

        def hot_draw(*args):
            cb = real_draw(*args)
            return dataclasses.replace(cb, word=cb.word * 10.0)

        monkeypatch.setattr(pipeline, "draw_codebook", hot_draw)
        cfg = _soft_cfg(power=100.0)
        lib = random_library(6, 40, seed=8)
        with pytest.raises(PowerViolation):
            run_soft(cfg, lib, DemandVector((1,) * 6), MonteCarlo(n=288, seed=0))

    def test_out_of_subnet_transmitter_is_irrelevant(self):
        # silencing a transmitter outside a receiver's subnet must not change
        # that receiver's decoded parts (same codebook and noise streams)
        import copy
        import dataclasses

        from wynercache.schemes.pipeline import _execute, _scheme
        from wynercache.schemes.schedule import SILENT

        cfg = _soft_cfg(power=100.0)
        lib = random_library(6, 40, seed=8)
        d = DemandVector((1, 2, 3, 4, 5, 6))
        scheme = _scheme(cfg, lib)
        backend = MonteCarlo(n=288, seed=3)

        base, _, _ = _execute(scheme, d, backend, 8, 96)
        muted = copy.deepcopy(scheme.schedule)
        # silence the whole second subnet of period 1 (tx 4 and 5 serve rx 4..6)
        muted.periods[0].tx_actions[4] = SILENT
        muted.periods[0].tx_actions[5] = SILENT
        for rx in (4, 5, 6):
            muted.periods[0].rx_plans[rx] = None
        alt, _, _ = _execute(dataclasses.replace(scheme, schedule=muted), d, backend, 8, 96)
        for rx in (1, 2, 3):
            assert base[rx] == alt[rx]


class TestInputValidation:
    def test_wrong_variant(self):
        cfg = NetworkConfig.full(6, 0.7, 1e4)
        lib = random_library(6, 40, seed=1)
        with pytest.raises(ConfigMismatch):
            run_soft(cfg, lib, DemandVector((1,) * 6))

    def test_payload_not_divisible(self):
        cfg = _soft_cfg()
        lib = random_library(6, 42, seed=1)
        with pytest.raises(ConfigMismatch):
            run_soft(cfg, lib, DemandVector((1,) * 6))

    def test_demand_length(self):
        cfg = _soft_cfg()
        lib = random_library(6, 40, seed=1)
        with pytest.raises(ConfigMismatch):
            run_soft(cfg, lib, DemandVector((1, 2, 3)))

    def test_demand_range(self):
        cfg = _soft_cfg()
        lib = random_library(6, 40, seed=1)
        with pytest.raises(ConfigMismatch):
            run_soft(cfg, lib, DemandVector((1, 2, 3, 4, 5, 7)))


PLACEMENTS = ("cache_placement_soft", "cache_placement_full")
SCHEDULES = ("delivery_schedule_soft", "delivery_schedule_full")


class TestPlaceOnce:
    """Placement and the schedule build run once per (config, library), not once per trial."""

    @staticmethod
    def _count(monkeypatch, *names, module=pipeline):
        calls = []
        for name in names:
            real = getattr(module, name)

            def counted(*args, _real=real):
                calls.append(args)
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(config=_soft_cfg()),
            dict(config=NetworkConfig.full(6, 0.5, 1e4)),
            dict(config=_soft_cfg(power=100.0), backend="mc"),
            dict(config=_soft_cfg(), prop1_extra_bits=10),
        ],
    )
    def test_one_placement_per_experiment(self, monkeypatch, kwargs):
        placements = self._count(monkeypatch, *PLACEMENTS)
        schedules = self._count(monkeypatch, *SCHEDULES)
        checks = self._count(monkeypatch, "verify_schedule")
        assert run_experiment(ExperimentSpec(**kwargs, trials=5, master_seed=90210)).trials == 5
        assert len(placements) == 1
        assert len(schedules) == 1
        assert len(checks) == 1

    def test_each_file_split_once(self, monkeypatch):
        splits = [
            self._count(monkeypatch, "split_soft", "split_full", module=module)
            for module in (pipeline, placement)
        ]
        spec = ExperimentSpec(config=_soft_cfg(), trials=5, master_seed=90212)
        assert run_experiment(spec).trials == 5
        assert sum(map(len, splits)) == 6  # D=6 files

    def test_round_robin_places_each_rotation_once(self, monkeypatch):
        placements = self._count(monkeypatch, *PLACEMENTS)
        schedules = self._count(monkeypatch, *SCHEDULES)
        checks = self._count(monkeypatch, "verify_schedule")
        spec = ExperimentSpec(config=_soft_cfg(k=7), round_robin=True, trials=5, master_seed=90211)
        assert run_experiment(spec).trials == 5
        assert len(placements) == 7
        assert len(schedules) == 7
        assert len(checks) == 7

    def test_invalid_schedule_rejected_at_placement(self, monkeypatch):
        # a template whose rx-2 plan cancels part 5, which rx 2 (class 2: parts 3, 4)
        # does not cache; Tx 1 and rx 1 are changed to match, so that is the only violation
        real = pipeline.delivery_schedule_soft

        def broken(k, demands):
            schedule = copy.deepcopy(real(k, demands))
            per = schedule.periods[0]
            per.tx_actions[1] = Direct(1, 5)
            per.rx_plans[1] = DecodePlan(1, (), None, (1, 5))
            per.rx_plans[2] = dataclasses.replace(per.rx_plans[2], cancel=((1, 1, 5),))
            return schedule

        monkeypatch.setattr(pipeline, "delivery_schedule_soft", broken)
        pipeline._scheme.cache_clear()
        lib = random_library(6, 40, seed=5)
        with pytest.raises(InvalidSchedule, match=r"^1 violation\(s\), first cancel_key: Rx 2 lacks"):
            run_soft(_soft_cfg(), lib, DemandVector((1, 2, 3, 4, 5, 6)))


def _resolve(template, demands):
    """``template`` with every file reference j replaced by the demand of receiver j."""
    d = demands.for_rx

    def action(a):
        if isinstance(a, Direct):
            return Direct(d(a.file), a.part)
        if isinstance(a, XorPair):
            return XorPair(d(a.file_a), a.part_a, d(a.file_b), a.part_b)
        return a

    def plan(p):
        if p is None:
            return None
        return DecodePlan(
            p.source,
            tuple((tx, d(f), part) for tx, f, part in p.cancel),
            None if p.strip is None else (d(p.strip[0]), p.strip[1]),
            (d(p.target[0]), p.target[1]),
        )

    periods = tuple(
        PeriodSchedule(
            per.index,
            per.silent_class,
            {tx: action(a) for tx, a in per.tx_actions.items()},
            {rx: plan(p) for rx, p in per.rx_plans.items()},
        )
        for per in template.periods
    )
    return DeliverySchedule(template.variant, template.k, demands, periods)


class TestPlacedSchedule:
    """The placed schedule, with file j read as receiver j's demand, is the per-demand schedule."""

    @pytest.mark.parametrize(
        "variant, k", [("soft", k) for k in range(5, 13)] + [("full", k) for k in (4, 6, 8, 10)]
    )
    def test_template_maps_to_builder(self, variant, k):
        if variant == "soft":
            cfg, payload_bits, build = _soft_cfg(k=k), 40, delivery_schedule_soft
        else:
            cfg, payload_bits, build = NetworkConfig.full(k, 0.5, 1e4), 16, delivery_schedule_full
        num_files = k + 3  # random demands reach file ids above K
        lib = random_library(num_files, payload_bits, seed=k, allow_small_d=True)
        template = pipeline._scheme(cfg, lib).schedule
        rng = np.random.default_rng(k)
        vectors = [tuple(range(1, k + 1)), (num_files,) * k] + [
            tuple(int(x) for x in rng.integers(1, num_files + 1, size=k)) for _ in range(20)
        ]
        for entries in vectors:
            demands = DemandVector(entries)
            assert _resolve(template, demands) == build(k, demands)


_GAIN = st.builds(lambda sign, g: sign * g, st.sampled_from([-1.0, 1.0]), st.floats(0.05, 4.0))


@st.composite
def _ideal_configs(draw):
    power = 10.0 ** draw(st.floats(-1.0, 10.0))
    eps = draw(st.floats(1e-9, 0.5, exclude_max=True))
    assume(eps < power)
    if draw(st.booleans()):
        k = draw(st.integers(5, 12))
        return NetworkConfig.soft_handoff(k, draw(st.lists(_GAIN, min_size=k, max_size=k)), power, eps)
    return NetworkConfig.full(2 * draw(st.integers(2, 6)), draw(_GAIN), power, eps)


class TestIdealRateCheck:
    """One check of the scheme rate against the weakest link replaces a test on every link."""

    @settings(max_examples=150, deadline=None)
    @given(_ideal_configs())
    def test_check_passes_iff_every_link_does(self, cfg):
        soft = cfg.variant is Variant.SOFT_HANDOFF
        rate = rate_soft(cfg) if soft else rate_full(cfg)
        try:
            assert check_ideal_rate(cfg) == rate
        except InfeasibleRate:
            assert rate < 0
            return
        assert rate >= 0
        # the per-link rule the delivery loop used to apply, as the reference
        scheme = pipeline._scheme(cfg, random_library(6, 40, seed=1))
        link_rate = len(scheme.schedule.periods) * rate / scheme.needed
        for per in scheme.schedule.periods:
            for rx, plan in per.rx_plans.items():
                if plan is not None:
                    gain = 1.0 if plan.source == rx else cfg.gain_at(rx)
                    assert ideal_link(LinkBudget(gain, link_rate, cfg.power - cfg.epsilon))

    @pytest.mark.parametrize(
        "run, cfg",
        [
            (run_soft, _soft_cfg(eps=1e-16)),
            (run_soft, _soft_cfg(alpha=(1, 0.5, 1, 1, 1, 1), eps=1e-16)),
            (round_robin_soft, _soft_cfg(eps=1e-16)),
            (run_full, NetworkConfig.full(6, 1.0, 1e4, 1e-16)),
        ],
    )
    def test_back_off_lost_to_rounding_rejected_by_direct_runs(self, run, cfg):
        lib = random_library(6, 160, seed=2)
        with pytest.raises(InfeasibleRate, match="lost to rounding"):
            run(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6)))

    @pytest.mark.parametrize(
        "kwargs, delivers",
        [
            (dict(config=_soft_cfg(k=60), num_files=60), 5),
            (dict(config=NetworkConfig.full(6, 0.5, 1e4)), 5),
            (dict(config=_soft_cfg(k=7), round_robin=True), 5 * 7),
        ],
    )
    def test_one_link_check_per_delivery(self, monkeypatch, kwargs, delivers):
        checks = []
        real = points.ideal_link

        def counted(link):
            checks.append(link)
            return real(link)

        monkeypatch.setattr(points, "ideal_link", counted)
        report = run_experiment(ExperimentSpec(**kwargs, trials=5, master_seed=7))
        assert report.link_error_rate == 0.0
        assert len(checks) == delivers + 1  # one per _deliver, one in validate
