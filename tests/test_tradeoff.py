import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wynercache.model import SimError, Variant
from wynercache.tradeoff import (
    ACHIEVABLE,
    UPPER_BOUND,
    NegativeRatio,
    TradeoffCurve,
    achievable,
    breakpoints,
    curve,
    empirical_mg,
    upper_bound,
)


# each curve by name, through achievable and upper_bound
def s_soft_ach(x):
    return achievable(Variant.SOFT_HANDOFF, x)


def s_soft_ub(x):
    return upper_bound(Variant.SOFT_HANDOFF, x)


def s_full_ach(x):
    return achievable(Variant.FULL, x)


def s_full_ub(x):
    return upper_bound(Variant.FULL, x)


def _crossing(intercept_a, slope_a, intercept_b, slope_b):
    # oracle: solve intercept_a + slope_a*x = intercept_b + slope_b*x exactly
    x = (Fraction(intercept_b) - Fraction(intercept_a)) / (Fraction(slope_a) - Fraction(slope_b))
    return x, Fraction(intercept_a) + Fraction(slope_a) * x


class TestSoftCurves:
    def test_achievable_values(self):
        assert s_soft_ach(0) == Fraction(2, 3)
        assert s_soft_ach(Fraction(2, 3)) == Fraction(5, 3)
        assert s_soft_ach(2) == 3

    def test_upper_bound_values(self):
        assert s_soft_ub(0) == Fraction(2, 3)
        x_cross, value = _crossing(Fraction(2, 3), 3, 1, 1)
        assert x_cross == Fraction(1, 6) and value == Fraction(7, 6)
        assert s_soft_ub(x_cross) == value
        assert s_soft_ub(1) == 2

    def test_gap_at_half(self):
        # direct evaluation oracle at x = 1/2
        x = Fraction(1, 2)
        ub = min(Fraction(2, 3) + 3 * x, 1 + x)
        ach = Fraction(2, 3) + Fraction(3, 2) * x
        assert ub - ach == Fraction(1, 12)
        assert s_soft_ub(x) - s_soft_ach(x) == Fraction(1, 12)

    def test_negative_rejected(self):
        with pytest.raises(NegativeRatio):
            s_soft_ach(-0.1)
        with pytest.raises(NegativeRatio):
            s_soft_ub(Fraction(-1, 3))


class TestFullCurves:
    def test_achievable_values(self):
        assert s_full_ach(0) == Fraction(2, 3)
        assert s_full_ach(1) == 2
        assert s_full_ach(3) == 4

    def test_upper_bound_values(self):
        assert s_full_ub(0) == Fraction(2, 3)
        x_cross, value = _crossing(Fraction(2, 3), 6, 1, 1)
        assert x_cross == Fraction(1, 15) and value == Fraction(16, 15)
        assert s_full_ub(x_cross) == value


class TestBoundOrdering:
    @pytest.mark.parametrize(
        "variant,ach,ub,tight_from",
        [
            (Variant.SOFT_HANDOFF, s_soft_ach, s_soft_ub, Fraction(2, 3)),
            (Variant.FULL, s_full_ach, s_full_ub, Fraction(1)),
        ],
    )
    def test_grid(self, variant, ach, ub, tight_from):
        for x in np.linspace(0.0, 4.0, 2001)[1:]:
            gap = float(ub(float(x))) - float(ach(float(x)))
            assert gap >= -1e-12
            if x >= float(tight_from):
                assert abs(gap) <= 1e-12
            else:
                assert gap > 1e-12

    def test_slopes_concave(self):
        # achievable curves are concave piecewise linear with the stated slopes
        for fn, slopes in ((s_soft_ach, (Fraction(3, 2), 1)), (s_full_ach, (Fraction(4, 3), 1))):
            eps = Fraction(1, 1000)
            early = (fn(eps) - fn(0)) / eps
            late = (fn(3 + eps) - fn(3)) / eps
            assert (early, late) == slopes
            assert early >= late


class TestEmpiricalMg:
    def test_unit(self):
        power = 1e4
        assert empirical_mg(0.5 * math.log2(1 + power), power) == pytest.approx(1.0)

    def test_zero(self):
        assert empirical_mg(0.0, 123.0) == 0.0

    def test_soft_rate_at_high_power(self):
        # configured soft rate at P = 1e8, alpha_min = 1, eps = 0.05: the MG
        # equals 5/3 - 5*eps/(0.5*log2(1+P)) up to a vanishing correction
        power, eps = 1e8, 0.05
        rate = (5 / 3) * 0.5 * math.log2(1 + power - eps) - 5 * eps
        oracle = 5 / 3 - 5 * eps / (0.5 * math.log2(1 + power))
        assert empirical_mg(rate, power) == pytest.approx(oracle, abs=1e-6)
        assert empirical_mg(rate, power) == pytest.approx(1.6479, abs=2e-4)

    def test_bad_power(self):
        with pytest.raises(Exception):
            empirical_mg(1.0, 0.0)


class TestCurveSampling:
    def test_soft_achievable_breakpoints(self):
        pts = breakpoints(Variant.SOFT_HANDOFF, ACHIEVABLE)
        assert pts == ((Fraction(0), Fraction(2, 3)), (Fraction(2, 3), Fraction(5, 3)))

    def test_full_achievable_breakpoints(self):
        pts = breakpoints(Variant.FULL, ACHIEVABLE)
        assert pts == ((Fraction(0), Fraction(2, 3)), (Fraction(1), Fraction(2)))

    def test_unknown_curve_kind(self):
        with pytest.raises(SimError, match="^unknown curve kind 'lower'$"):
            breakpoints(Variant.SOFT_HANDOFF, "lower")

    def test_samples_must_be_sorted(self):
        with pytest.raises(SimError, match="^curve samples must be sorted by x$"):
            TradeoffCurve(Variant.FULL, ACHIEVABLE, ((0.5, 1.0), (0.0, 2 / 3)))

    def test_upper_bound_breakpoints(self):
        assert breakpoints(Variant.SOFT_HANDOFF, UPPER_BOUND)[1][0] == Fraction(1, 6)
        assert breakpoints(Variant.FULL, UPPER_BOUND)[1][0] == Fraction(1, 15)

    def test_samples_include_breakpoints(self):
        c = curve(Variant.SOFT_HANDOFF, ACHIEVABLE, 50, 2)
        xs = [x for x, _ in c.samples]
        assert float(Fraction(2, 3)) in xs
        values = dict(c.samples)
        assert values[float(Fraction(2, 3))] == pytest.approx(5 / 3)

    def test_ub_at_least_ach_everywhere(self):
        c = curve(Variant.FULL, ACHIEVABLE, 200, 3)
        for x, s in c.samples:
            assert float(upper_bound(Variant.FULL, x)) >= s - 1e-12
            assert float(achievable(Variant.FULL, x)) == pytest.approx(s)

    def test_too_few_points(self):
        with pytest.raises(Exception):
            curve(Variant.SOFT_HANDOFF, ACHIEVABLE, 1, 2)


# --- oracle: the four curves as hand-written formulas with hard-coded corners -------


def _soft_ach(r):
    if r <= Fraction(2, 3):
        return Fraction(2, 3) + Fraction(3, 2) * r
    return 1 + r


def _full_ach(r):
    if r <= 1:
        return Fraction(2, 3) + Fraction(4, 3) * r
    return 1 + r


_FORMULAS = {
    (Variant.SOFT_HANDOFF, ACHIEVABLE): (s_soft_ach, _soft_ach, Fraction(2, 3)),
    (Variant.SOFT_HANDOFF, UPPER_BOUND): (s_soft_ub, lambda r: min(Fraction(2, 3) + 3 * r, 1 + r), Fraction(1, 6)),
    (Variant.FULL, ACHIEVABLE): (s_full_ach, _full_ach, Fraction(1)),
    (Variant.FULL, UPPER_BOUND): (s_full_ub, lambda r: min(Fraction(2, 3) + 6 * r, 1 + r), Fraction(1, 15)),
}


class TestSlopeTable:
    """Every curve computed from its slope gives the hand-written formula's value, type and corners."""

    @given(
        st.sampled_from(sorted(_FORMULAS, key=str)),
        st.fractions(min_value=0, max_value=3, max_denominator=1000),
    )
    def test_curves_match_the_formulas(self, curve_key, x):
        variant, kind = curve_key
        named, formula, corner = _FORMULAS[curve_key]
        by_kind = achievable if kind == ACHIEVABLE else upper_bound
        want = formula(x)
        for got in (named(x), by_kind(variant, x)):
            assert got == want and type(got) is type(want) is Fraction
        assert breakpoints(variant, kind) == ((Fraction(0), Fraction(2, 3)), (corner, 1 + corner))
        assert formula(corner) == named(corner)
