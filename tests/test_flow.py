import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from pwperiod import (
    EscapedAnnulus,
    NotACenter,
    PiecewiseSystem,
    QuadratureFailure,
    RootBracketFailure,
    correspondence_gap,
    combined_period_series,
    half_orbit,
    min_start_cap,
    numeric_period,
    quadrature_period,
    smooth_period,
    start_radius_cap,
)
from pwperiod.flow import _level_radii
from pwperiod.systems import profile_min

from conftest import CENTER_SUITE, KNOWN_OBSTRUCTIONS, NONCENTER_SUITE, hp, zero


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

    def test_unresolved_peak_raises_instead_of_returning(self):
        # 1e-9 below the start cap the orbit grazes the fold of the level
        # curve; its time spike is too narrow for the node cap of either rule
        for rng, period in (("transit", quadrature_period), ("full", smooth_period)):
            cap = start_radius_cap(X2Y_Y3, "lower", rng)
            with pytest.raises(QuadratureFailure, match="did not converge"):
                period(X2Y_Y3, "lower", cap * (1.0 - 1e-9))


def _mp_level_time(p, r0, lo, hi):
    """30-digit integral of dtheta / angular speed along the level curve.

    The radius comes from Newton on r^2 + 2 g r^d = h^2 started at h; a
    positive speed at the result shows it is the root before the fold.  The
    range is split where g is least, where the integrand peaks.
    """
    d = p.degree
    cs = [mpmath.mpf(c.numerator) / c.denominator for c in p.coeffs]
    r0 = mpmath.mpf(r0)
    h2 = r0 * r0 + 2 * cs[0] * r0 ** d

    def integrand(theta):
        c, s = mpmath.cos(theta), mpmath.sin(theta)
        g = mpmath.fsum(cs[i] * c ** (d - i) * s ** i for i in range(d + 1))
        r = mpmath.sqrt(h2)
        for _ in range(200):
            step = (r * r + 2 * g * r ** d - h2) / (2 * r + 2 * d * g * r ** (d - 1))
            r -= step
            if abs(step) <= mpmath.mpf(10) ** -28 * r:
                break
        else:
            raise AssertionError("30-digit level radius did not converge")
        speed = 1 + d * g * r ** (d - 2)
        assert r > 0 and speed > 0
        return 1 / speed

    peak = profile_min(p, float(lo), float(hi))[1]
    value, error = mpmath.quad(integrand, sorted({lo, mpmath.mpf(peak), hi}), error=True)
    assert error <= 1e-20 * abs(value)
    return value


class TestThirtyDigitClock:
    """Both float quadratures against mpmath at 30 digits, up to 0.95 of the cap."""

    @pytest.mark.parametrize("name", ["x3/x3", "x2y/y3", "x3-x2y/x3+y3", "x4/x4y"])
    def test_quadratures_match_mpmath(self, name):
        system = CENTER_SUITE[name][0]
        with mpmath.workdps(30):
            for side in ("upper", "lower"):
                p = system.side(side)
                half = (0, mpmath.pi) if side == "upper" else (mpmath.pi, 2 * mpmath.pi)
                for rng, period, (lo, hi) in (("transit", quadrature_period, half),
                                              ("full", smooth_period, (0, 2 * mpmath.pi))):
                    cap = start_radius_cap(system, side, rng)
                    if not math.isfinite(cap):
                        continue
                    for fraction in (0.3, 0.95):
                        r0 = fraction * cap
                        reference = _mp_level_time(p, r0, lo, hi)
                        value = period(system, side, r0)
                        assert abs(value - reference) <= 1e-12 * abs(reference), (
                            side, rng, fraction, value, reference)


# per KNOWN_OBSTRUCTIONS entry, a radius where the next term of T(r0) is
# below 1e-4 of the frozen one, so a coefficient off by one part in 10^3
# dominates the remainder there
OBSTRUCTION_RADII = {"x2y/y3": 1e-5, "x2y/y3:2": 1e-4, "x2y2/y4": 2e-3, "x2y2/-y4:3": 5e-3,
                     "x4/x2y": 1e-5, "x4/xy2": 1e-3, "x4/x4y": 1e-4, "x3/x3": 2e-5}


@pytest.mark.parametrize("name", sorted(KNOWN_OBSTRUCTIONS))
def test_thirty_digit_clock_confirms_frozen_obstruction(name):
    # R = T - 2 pi - c r0^e shrinks by 2^-(e+1) or faster when r0 halves
    # only if c r0^e is the leading term; a wrong c leaves R ~ r0^e
    e, q, qpi = KNOWN_OBSTRUCTIONS[name]
    system = CENTER_SUITE[name][0]
    assert OBSTRUCTION_RADII[name] < 0.1 * min_start_cap(system)
    with mpmath.workdps(30):
        c = mpmath.mpf(q.numerator) / q.denominator + qpi.numerator * mpmath.pi / qpi.denominator

        def remainder(r0):
            period = (_mp_level_time(system.upper, r0, 0, mpmath.pi)
                      + _mp_level_time(system.lower, r0, mpmath.pi, 2 * mpmath.pi))
            return period - 2 * mpmath.pi - c * r0 ** e

        rho = mpmath.mpf(OBSTRUCTION_RADII[name])
        outer, inner = remainder(rho), remainder(rho / 2)
        assert abs(inner) <= 0.75 * 2.0 ** -e * abs(outer), (name, inner, outer)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(3, 7),
       g=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 3.0), st.floats(-3.0, -1e-6)),
                  min_size=1, max_size=24),
       level=st.floats(0.01, 0.999),
       scale=st.floats(0.05, 2.0))
def test_level_radii_match_brentq(d, g, level, scale):
    # h^2 is `level` times the critical energy of the most negative lane,
    # so the level curve reaches every angle; brentq brackets each lane as
    # the scalar route did
    g = np.array(g)
    critical = [(d * -v) ** (-2.0 / (d - 2)) * (d - 2) / d for v in g if v < 0.0]
    h2 = level * min(critical) if critical else scale * scale
    radii = _level_radii(g, d, h2, np.zeros_like(g))
    for gv, r in zip(g, radii):
        if gv > 0.0:
            hi = math.sqrt(h2) * (1.0 + 1e-12)
        else:
            fold = (d * -gv) ** (-1.0 / (d - 2)) if gv < 0.0 else math.inf
            hi = min(fold, math.sqrt(3.0 * h2))
        expected = brentq(lambda t: t * t + 2.0 * gv * t ** d - h2, 0.0, hi,
                          xtol=1e-16, rtol=8.9e-16, maxiter=200)
        assert abs(r - expected) <= 1e-12 * expected, (gv, r, expected)


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

    def test_vanishing_angular_speed_raises(self):
        # 1 + 2 g = 1e-13 at theta = 0: the quadratic side barely turns there,
        # so the rotation time has no finite value to trust.  Gauss-Legendre
        # nodes crowd toward theta = 0 as the count doubles, and one lands
        # where the speed is below the stall threshold before two estimates agree
        sys = PiecewiseSystem(hp(2, F(-1, 2) + F(1, 2 * 10**13), 0, 0), zero(2))
        with pytest.raises(RootBracketFailure, match="angular speed vanished"):
            smooth_period(sys, "upper", 0.3)

    def test_quadratic_side_closed_form(self):
        # speed 1 + 2g is radius free; for (3/2)x^2 the full period is
        # int dt/(1 + 3cos^2) = 2pi/sqrt(1*4) = pi
        sys = PiecewiseSystem(hp(2, F(3, 2), 0, 0), zero(2))
        assert abs(smooth_period(sys, "upper", 0.3) - math.pi) < 1e-12
        assert abs(smooth_period(sys, "upper", 0.9) - math.pi) < 1e-12
