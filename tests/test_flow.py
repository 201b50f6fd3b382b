import math
from fractions import Fraction as F

import pytest
from scipy.optimize import brentq

from pwperiod import (
    EscapedAnnulus,
    NotACenter,
    PiecewiseSystem,
    RootBracketFailure,
    correspondence_gap,
    combined_period_series,
    h_monotonicity_check,
    half_orbit,
    numeric_period,
    quadrature_period,
    smooth_period,
)
from pwperiod.flow import MonotonicityCheck

from conftest import CENTER_SUITE, NONCENTER_SUITE, hp, zero


X3_Y3 = PiecewiseSystem(hp(3, 1, 0, 0, 0), hp(3, 0, 0, 0, 1))
X2Y_Y3 = CENTER_SUITE["x2y/y3"][0]


class TestHalfOrbit:
    def test_zero_system_is_harmonic(self):
        sys = PiecewiseSystem(zero(3), zero(3))
        res = half_orbit(sys, "upper", 0.3)
        assert abs(res.r_end - 0.3) < 1e-10
        assert abs(res.time - math.pi) < 1e-10
        assert res.energy_drift <= 1e-10
        assert not res.degraded
        low = half_orbit(sys, "lower", 0.3)
        assert abs(low.r_end - 0.3) < 1e-10
        assert abs(low.time - math.pi) < 1e-10

    def test_x_symmetric_side_returns_to_same_radius(self):
        res = half_orbit(X2Y_Y3, "upper", 0.07)
        assert abs(res.r_end - 0.07) < 1e-10

    def test_x3_endpoint_solves_energy_equation(self):
        # energy at (0.1, 0) is 0.006; the endpoint (-s, 0) satisfies
        # s^2/2 - s^3 = 0.006 with s below the fold at 1/3
        res = half_orbit(X3_Y3, "upper", 0.1)
        s = brentq(lambda t: t * t / 2 - t**3 - 0.006, 1e-9, 1 / 3)
        assert abs(res.r_end - s) < 1e-10
        assert res.steps > 0
        assert res.time > 0

    def test_lower_side_has_positive_duration(self):
        res = half_orbit(X3_Y3, "lower", 0.1)
        assert res.time > 0
        # y^3 vanishes on the axis, so the endpoint radius matches the start
        assert abs(res.r_end - 0.1) < 1e-10

    def test_escape_outside_annulus_bound(self):
        with pytest.raises(EscapedAnnulus):
            half_orbit(X3_Y3, "upper", 0.5)  # beyond r* = 1/3, pre-check

    def test_escape_between_cap_and_bound(self):
        # 1/6 < 0.25 < 1/3: passes the pre-check but the level curve opens up
        with pytest.raises(EscapedAnnulus):
            half_orbit(X3_Y3, "upper", 0.25)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            half_orbit(X3_Y3, "upper", 0.0)

    def test_drift_within_bound_across_suite(self):
        for name, (sys, _) in CENTER_SUITE.items():
            for side in ("upper", "lower"):
                res = half_orbit(sys, side, 0.05)
                assert res.energy_drift <= 1e-10, (name, side)
                assert not res.degraded, (name, side)


class TestCorrespondenceGap:
    def test_center_gap_is_tiny(self):
        assert correspondence_gap(X2Y_Y3, 0.05) < 1e-11

    def test_noncenter_gap_is_visible(self):
        gap = correspondence_gap(X3_Y3, 0.13)
        assert abs(gap) > 1e-3

    def test_gap_sign_tracks_endpoint_order(self):
        # upper x^3 overshoots (endpoint further out), lower y^3 returns even
        gap = correspondence_gap(X3_Y3, 0.1)
        assert gap > 0


class TestNumericPeriod:
    def test_zero_system(self):
        sys = PiecewiseSystem(zero(3), zero(3))
        assert abs(numeric_period(sys, 0.4) - 2 * math.pi) < 1e-10

    def test_rejects_noncenter(self):
        with pytest.raises(NotACenter):
            numeric_period(X3_Y3, 0.05)

    def test_matches_series_at_small_radius(self):
        series = combined_period_series(X2Y_Y3, jmax=10)
        r0 = 0.01
        assert abs(numeric_period(X2Y_Y3, r0) - series(r0)) < 1e-11


class TestQuadratureRoute:
    def test_agrees_with_ode_route(self):
        cases = [
            (X3_Y3, "upper", 0.1),
            (X3_Y3, "lower", 0.1),
            (X2Y_Y3, "upper", 0.05),
            (X2Y_Y3, "lower", 0.05),
            (CENTER_SUITE["x2y2/y4"][0], "upper", 0.3),
        ]
        for sys, side, r0 in cases:
            ode = half_orbit(sys, side, r0).time
            quad_t = quadrature_period(sys, side, r0)
            assert abs(ode - quad_t) < 1e-9, (side, r0)

    def test_zero_side_is_exact_pi(self):
        sys = PiecewiseSystem(zero(3), zero(3))
        assert quadrature_period(sys, "upper", 0.2) == math.pi

    def test_pre_check_raises_outside_bound(self):
        with pytest.raises(EscapedAnnulus):
            quadrature_period(X3_Y3, "upper", 0.4)

    def test_start_checked_against_the_side_own_half_circle(self):
        # upper 2x^2 y is negative only below the axis: its whole-circle
        # bound 0.433 does not limit the upper transit, which holds r0 = 0.598
        sys = PiecewiseSystem(hp(3, 0, 2, 0, 0), hp(4, 1, 0, F(-1, 2), 0, 0))
        r0 = 0.598
        ode = half_orbit(sys, "upper", r0).time
        assert abs(ode - quadrature_period(sys, "upper", r0)) < 1e-9

    def test_level_curve_gap_raises_bracket_failure(self):
        # inside r* but beyond the start cap: no level radius at theta = pi
        with pytest.raises(RootBracketFailure):
            quadrature_period(X3_Y3, "upper", 0.2)


class TestSmoothPeriod:
    def test_equals_two_sided_transit_of_cloned_system(self):
        p = hp(3, 0, 1, 0, 0)  # x^2 y
        cloned = PiecewiseSystem(p, p)
        sys = PiecewiseSystem(p, zero(3))
        r0 = 0.2
        assert abs(smooth_period(sys, "upper", r0) - numeric_period(cloned, r0)) < 1e-9

    def test_zero_side_gives_two_pi(self):
        sys = PiecewiseSystem(zero(3), zero(3))
        assert smooth_period(sys, "upper", 0.7) == 2 * math.pi

    def test_quadratic_side_closed_form(self):
        # speed 1 + 2g is radius free; for (3/2)x^2 the full period is
        # int dt/(1 + 3cos^2) = 2pi/sqrt(1*4) = pi
        sys = PiecewiseSystem(hp(2, F(3, 2), 0, 0), zero(2))
        assert abs(smooth_period(sys, "upper", 0.3) - math.pi) < 1e-12
        assert abs(smooth_period(sys, "upper", 0.9) - math.pi) < 1e-12


class TestHMonotonicity:
    def test_passes_inside_cap(self):
        check = h_monotonicity_check(X3_Y3, "upper", [0.01, 0.05, 0.1, 0.16])
        assert check.ok
        assert check.failure_r0 is None
        assert bool(check)

    def test_fails_past_turning_point_for_negative_axis(self):
        sys = PiecewiseSystem(hp(3, -1, 0, 0, 0), zero(3))  # -x^3
        check = h_monotonicity_check(sys, "upper", [0.1, 0.2, 0.34])
        assert not check.ok
        assert check.failure_r0 == 0.34
        assert not bool(check)

    def test_rejects_nonpositive_grid_point(self):
        check = h_monotonicity_check(X3_Y3, "upper", [0.1, -0.2])
        assert not check.ok
        assert check.failure_r0 == -0.2

    def test_namedtuple_shape(self):
        check = MonotonicityCheck(True, None)
        assert check == (True, None)
