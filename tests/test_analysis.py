import math
from fractions import Fraction as F

import numpy as np
import pytest

from pwperiod import (
    HypothesisNotMet,
    NotACenter,
    PiecewiseSystem,
    combined_period_series,
    cross_validate,
    find_witness,
    half_equals_half_full_check,
    monotonicity_profile,
    numeric_period,
    predicted_profiles,
)
from pwperiod.analysis import (
    CONSTANT,
    DECREASING,
    INCREASING_UNBOUNDED,
    MIN_CRITICAL,
    UNDETERMINED,
    crosscheck_rows,
)
from pwperiod.flow import DRIFT_BOUND

from conftest import CENTER_SUITE, hp, zero

X2Y_Y3 = CENTER_SUITE["x2y/y3"][0]


class TestFindWitness:
    def test_finds_witness_for_canonical_center(self):
        out = find_witness(X2Y_Y3, tol=1e-6)
        assert out.witness is not None
        r0, period, dev = out.witness
        assert dev > 1e-6
        assert abs(period - numeric_period(X2Y_Y3, r0)) < 1e-12
        assert abs(dev - abs(period - 2 * math.pi)) < 1e-15
        assert out.evaluations >= 1

    def test_rejects_noncenter(self):
        bad = PiecewiseSystem(hp(3, 1, 0, 0, 0), hp(3, 0, 0, 0, 1))
        with pytest.raises(NotACenter):
            find_witness(bad)

    def test_zero_system_constant_without_tension(self):
        sys = PiecewiseSystem(zero(3), zero(3))
        out = find_witness(sys, tol=1e-6)
        assert out.witness is None
        assert out.anomalies == []

    def test_quadratic_pair_reports_tension(self):
        sys = PiecewiseSystem(hp(2, F(3, 2), 0, 0), zero(2))
        out = find_witness(sys, tol=1e-6)
        assert out.witness is None
        assert len(out.anomalies) == 1
        assert "constant" in out.anomalies[0]
        assert "tension" in out.anomalies[0]

    def test_r_max_clips_search(self):
        out = find_witness(X2Y_Y3, tol=1e-6, r_max=0.02)
        assert out.witness is not None
        assert out.witness[0] <= 0.02

    def test_budget_exhaustion_is_reported(self):
        # a huge tolerance cannot be beaten inside the annulus: honest no-find
        out = find_witness(X2Y_Y3, tol=100.0)
        assert out.witness is None
        assert out.evaluations == 3
        assert len(out.anomalies) == 1
        assert out.anomalies[0].startswith("no witness found: |period - 2*pi| <= 100 "
                                           "at the probe radii r0 = ")

    def test_quadratic_side_without_a_witness_is_reported(self):
        # no series for a quadratic side, and none needed: the probes decide
        out = find_witness(CENTER_SUITE["x2y2/x2:2"][0], tol=100.0)
        assert out.witness is None
        assert out.evaluations == 3
        assert len(out.anomalies) == 1
        assert out.anomalies[0].startswith("no witness found")

    def test_degraded_probes_are_no_constant_period(self):
        # at r0 ~ 1e-27 the 10^150 forms leave the ODE clock's energy drift
        # far past its bound: the probes' equal periods are not a finding
        big = 10**150
        sys = PiecewiseSystem(hp(4, 0, 0, big, 0, 0), hp(4, 0, 0, 0, 0, big))
        out = find_witness(sys, r_max=6.55e-27)
        assert out.witness is None
        assert out.evaluations == 3
        assert len(out.anomalies) == 1
        assert out.anomalies[0].startswith(
            "ODE clock degraded at the probe radii up to r0 = 6.55e-27 (energy drift ")
        assert "constant" not in out.anomalies[0]


class TestCrossValidate:
    def test_zero_system_noise_floor(self):
        sys = PiecewiseSystem(zero(3), zero(3))
        assert cross_validate(sys, 4, [0.1, 0.3]) < 1e-10

    def test_canonical_center_small_radius(self):
        worst = cross_validate(X2Y_Y3, 8, np.linspace(0.005, 0.02, 4))
        assert worst < 1e-9

    def test_contraction_when_grid_halves(self):
        order = 6
        hi = cross_validate(X2Y_Y3, order, [0.08])
        lo = cross_validate(X2Y_Y3, order, [0.04])
        # the first dropped term has exponent 7
        assert hi / lo > 2.0 ** (order) * 0.7

    def test_series_beyond_float_range_is_the_worst_deviation(self):
        # at r0 = 1e100 the series' powers overflow and it evaluates to nan,
        # which max() alone would drop; the ODE clock still gives T ~ 1e-50
        sys = CENTER_SUITE["x2y2/y4"][0]
        series = combined_period_series(sys, jmax=4)
        assert math.isnan(series(1e100)) and math.isfinite(series(0.1))
        assert cross_validate(sys, 8, [0.1, 1e100]) == math.inf

    def test_rows_list_the_drift_of_each_degraded_row(self):
        # x^2 y^2 over y^4 at 10^150: every transit behind these rows drifts
        # past the bound, the upper one at the largest radius by 5.6e18; each
        # row still sums its two transits, bit for bit as numeric_period does
        big = 10**150
        sys = PiecewiseSystem(hp(4, 0, 0, big, 0, 0), hp(4, 0, 0, 0, 0, big))
        grid = [6.55e-27, 1.64e-27, 4.09e-28]
        rows, drifts = crosscheck_rows(sys, None, grid)
        assert [row[:2] for row in rows] == [(r0, numeric_period(sys, r0)) for r0 in grid]
        assert len(drifts) == 3 and min(drifts) > DRIFT_BOUND and max(drifts) > 1e18
        assert crosscheck_rows(X2Y_Y3, None, grid)[1] == []

    def test_rows_need_a_center(self):
        with pytest.raises(NotACenter):
            crosscheck_rows(PiecewiseSystem(hp(3, 1, 0, 0, 0), hp(3, 0, 0, 0, 1)), None, [0.1])


class TestMonotonicityProfile:
    def test_decreasing_for_nonnegative_odd_profile(self):
        sys = CENTER_SUITE["x2y2/y4"][0]
        assert monotonicity_profile(sys, "upper") == DECREASING
        assert monotonicity_profile(sys, "lower") == DECREASING

    def test_increasing_for_even_exponent(self):
        assert monotonicity_profile(X2Y_Y3, "upper") == INCREASING_UNBOUNDED
        assert monotonicity_profile(X2Y_Y3, "lower") == INCREASING_UNBOUNDED

    def test_zero_side_constant(self):
        sys = PiecewiseSystem(zero(3), zero(3))
        assert monotonicity_profile(sys, "upper") == CONSTANT

    def test_quadratic_side_constant(self):
        # the angular speed 1 + 2 g of a quadratic side is radius free
        sys = PiecewiseSystem(hp(2, 1, 0, 0), zero(2))
        assert monotonicity_profile(sys, "upper") == CONSTANT

    def test_late_minimum_is_min_critical(self):
        # the lower side's period falls to 4.649 at 0.8 of its cap and rises
        # to 4.862 at 0.9: samples stopping at 0.8 saw only the decrease
        sys = PiecewiseSystem(hp(3, 0, 2, 0, 0), hp(4, 1, 0, F(-1, 2), 0, 0))
        assert monotonicity_profile(sys, "lower") == MIN_CRITICAL
        assert MIN_CRITICAL in predicted_profiles(sys, "lower")

    def test_suite_tags_fall_in_predicted_sets(self, center_suite):
        for name, (sys, _) in center_suite.items():
            for side in ("upper", "lower"):
                p = sys.side(side)
                if p.is_zero() or p.degree == 2:
                    continue
                tag = monotonicity_profile(sys, side)
                assert tag in predicted_profiles(sys, side), (name, side, tag)


class TestPredictedProfiles:
    def test_zero_and_quadratic(self):
        sys = PiecewiseSystem(zero(3), hp(2, 1, 0, 0))
        assert predicted_profiles(sys, "upper") == {CONSTANT}
        assert predicted_profiles(sys, "lower") == {CONSTANT}

    def test_parity_rules(self):
        sys = CENTER_SUITE["x2y2/y4"][0]
        assert predicted_profiles(sys, "upper") == {DECREASING}
        assert predicted_profiles(X2Y_Y3, "upper") == {INCREASING_UNBOUNDED}
        dipped = PiecewiseSystem(hp(4, 0, 0, 1, 0, 0), hp(4, 0, 0, 0, 0, F(-1, 3)))
        assert predicted_profiles(dipped, "lower") == {INCREASING_UNBOUNDED, MIN_CRITICAL}


class TestHalfEqualsHalfFull:
    def test_odd_exponent_sides(self):
        sys = CENTER_SUITE["x2y2/y4"][0]
        grid = np.linspace(0.05, 0.4, 5)
        assert half_equals_half_full_check(sys, "upper", grid)
        assert half_equals_half_full_check(sys, "lower", grid)

    def test_even_exponent_with_vanishing_moments(self):
        # x y^2 has n = 2 but every odd half-range moment is exactly zero
        sys = PiecewiseSystem(hp(3, 0, 0, 1, 0), zero(3))
        assert half_equals_half_full_check(sys, "upper", [0.05, 0.15])
        # x^3 likewise: odd powers of cos integrate to zero on [0, pi]
        sys3 = PiecewiseSystem(hp(3, 1, 0, 0, 0), zero(3))
        assert half_equals_half_full_check(sys3, "upper", [0.05, 0.1])

    def test_even_exponent_with_first_moment_raises(self):
        with pytest.raises(HypothesisNotMet):
            half_equals_half_full_check(X2Y_Y3, "upper", [0.05])

    def test_zero_side_trivially_true(self):
        sys = PiecewiseSystem(zero(3), zero(3))
        assert half_equals_half_full_check(sys, "upper", [0.1])
