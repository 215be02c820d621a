import math
from fractions import Fraction

import numpy as np
import pytest

from gainoracle import alpha_min
from wynercache.model import DemandVector, NetworkConfig, SimError, Variant, random_library
from wynercache.schemes import (
    SchemePoint,
    augment_prop1,
    check_ideal_rate,
    rate_full,
    rate_soft,
    run_soft_prop1,
    time_share,
)
from wynercache.schemes.pipeline import skeleton


class TestRateFormulas:
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("power", [1e2, 1e4, 1e8])
    def test_soft_rate(self, alpha, power):
        cfg = NetworkConfig.soft_handoff(6, alpha, power, 0.05)
        oracle = (5 / 3) * 0.5 * math.log2(1 + alpha**2 * (power - 0.05)) - 5 * 0.05
        assert rate_soft(cfg, alpha) == pytest.approx(oracle, abs=1e-12)
        assert type(rate_soft(cfg, np.float64(alpha))) is float

    @pytest.mark.parametrize("power", [1e2, 1e4, 1e8])
    def test_full_rate(self, power):
        cfg = NetworkConfig.full(6, 0.7, power, 0.05)
        oracle = 2 * (0.5 * math.log2(1 + power - 0.05) - 0.05)
        assert rate_full(cfg) == pytest.approx(oracle, abs=1e-12)

    def test_alpha_min_includes_one(self):
        # gains above 1 do not help: the own link has unit gain
        strong = NetworkConfig.soft_handoff(6, 3.0, 1e4, 0.05)
        unit = NetworkConfig.soft_handoff(6, 1.0, 1e4, 0.05)
        assert check_ideal_rate(strong, skeleton(strong)) == check_ideal_rate(unit, skeleton(unit))


class TestAugmentProp1:
    def test_exact_arithmetic_reaches_full_caching_point(self):
        # (5/3, 2D/3) plus delta = D/3 must land exactly on (2, D)
        d_files = 6
        base = SchemePoint(Fraction(5, 3), Fraction(2, 3) * d_files)
        out = augment_prop1(base, Fraction(1, 3) * d_files, d_files)
        assert out.rate == Fraction(2) and out.memory == Fraction(d_files)

    def test_zero_delta_is_identity(self):
        base = SchemePoint(1.25, 3.0)
        out = augment_prop1(base, 0.0, 6)
        assert (out.rate, out.memory) == (1.25, 3.0)

    def test_negative_delta_rejected(self):
        with pytest.raises(SimError):
            augment_prop1(SchemePoint(1.0, 1.0), -0.5, 6)

    def test_traces_achievable_curve_beyond_corner(self):
        # lifting the soft corner point by any delta stays on the 1 + x branch
        from wynercache.tradeoff import achievable

        d_files = 6
        corner = SchemePoint(Fraction(5, 3), Fraction(2, 3) * d_files)
        for delta in (Fraction(0), Fraction(1, 2), Fraction(d_files, 3), Fraction(2 * d_files)):
            lifted = augment_prop1(corner, delta, d_files)
            x = Fraction(lifted.memory) / d_files
            assert x >= Fraction(2, 3)
            assert Fraction(lifted.rate) == achievable(Variant.SOFT_HANDOFF, x)

    def test_simulated_augmentation(self):
        cfg = NetworkConfig.soft_handoff(6, 1.0, 1e4)
        extra = 10
        lib = random_library(6, 40 + extra, seed=6)
        res = run_soft_prop1(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6)), extra)
        assert all(res.success[rx] for rx in range(2, 6))
        for rx in range(2, 6):
            assert res.decoded[rx] == lib.payload(DemandVector((1, 2, 3, 4, 5, 6)).for_rx(rx))
        # delivered bits grow from 40 to 50, so the rate scales by 50/40
        assert res.rate_per_user == pytest.approx(rate_soft(cfg, alpha_min(cfg)) * 50 / 40)
        assert res.memory_bits_per_receiver == 2 * 6 * 8 + 6 * extra


class TestTimeShare:
    def test_endpoints(self):
        a = SchemePoint(2.0, 4.0)
        b = SchemePoint(1.0, 0.0)
        assert time_share(a, b, 1.0) == SchemePoint(2.0, 4.0)
        assert time_share(a, b, 0.0).rate == 1.0

    def test_midpoint_on_soft_line(self):
        # anchors (2/3, 0) and (5/3, 2D/3) in MG units; the midpoint must sit
        # on the line 2/3 + (3/2) x with x = mu/D
        d_files = Fraction(6)
        a = SchemePoint(Fraction(2, 3), Fraction(0))
        b = SchemePoint(Fraction(5, 3), Fraction(2, 3) * d_files)
        mid = time_share(b, a, Fraction(1, 2))
        x = mid.memory / d_files
        assert mid.rate == Fraction(2, 3) + Fraction(3, 2) * x
        assert (mid.rate, x) == (Fraction(7, 6), Fraction(1, 3))

    def test_midpoint_on_full_line(self):
        d_files = Fraction(6)
        a = SchemePoint(Fraction(2, 3), Fraction(0))
        b = SchemePoint(Fraction(2), d_files)
        mid = time_share(b, a, Fraction(1, 2))
        x = mid.memory / d_files
        assert mid.rate == Fraction(2, 3) + Fraction(4, 3) * x
        assert (mid.rate, x) == (Fraction(4, 3), Fraction(1, 2))

    def test_lambda_out_of_range(self):
        with pytest.raises(SimError):
            time_share(SchemePoint(1, 1), SchemePoint(1, 1), 1.5)


class TestPointConstructors:
    def test_negative_point_rejected(self):
        with pytest.raises(SimError):
            SchemePoint(-1.0, 0.0)
