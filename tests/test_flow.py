import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from pwperiod import (
    EscapedAnnulus,
    NotACenter,
    PiecewiseSystem,
    QuadratureFailure,
    RootBracketFailure,
    StepFailure,
    correspondence_gap,
    combined_period_series,
    half_orbit,
    min_start_cap,
    numeric_period,
    quadrature_period,
    smooth_period,
    start_radius_cap,
)
from pwperiod import flow
from pwperiod.flow import (
    MAX_NODES,
    _clenshaw_curtis_estimates,
    _clenshaw_curtis_weights,
    _FloatDOP853,
    _level_radii,
)

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
        # 1/6 < 0.2 < 1/3: inside the annulus bound of x^3 but beyond its start
        # cap, so both transit clocks refuse the start before they run
        for clock in (half_orbit, quadrature_period):
            with pytest.raises(EscapedAnnulus, match="start cap 0.166667"):
                clock(X3_Y3, "upper", 0.2)

    def test_start_just_below_the_cap_fails_instead_of_returning(self):
        # at the cap the orbit runs into the saddle (-1/3, 0) of x^3; 1e-14
        # below it neither clock can follow the orbit, and neither returns a time
        r0 = start_radius_cap(X3_Y3, "upper") * (1.0 - 1e-14)
        with pytest.raises((EscapedAnnulus, StepFailure)):
            half_orbit(X3_Y3, "upper", r0)
        with pytest.raises(QuadratureFailure):
            quadrature_period(X3_Y3, "upper", r0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            half_orbit(X3_Y3, "upper", 0.0)

    def test_nan_on_the_interpolant_is_a_step_failure(self):
        # x^2 y^2 / y^4 at 1e150: the stages overflow, the crossing's
        # interpolant holds NaN and brentq refuses it with a ValueError
        big = 10**150
        system = PiecewiseSystem(hp(4, 0, 0, big, 0, 0), hp(4, 0, 0, 0, 0, big))
        with np.errstate(all="ignore"), pytest.raises(StepFailure, match="event location"):
            half_orbit(system, "upper", 1e-26)

    def test_nonfinite_crossing_is_a_step_failure(self):
        # x^2 y^2 / y^4 at 1e160: the interpolant's root is found, but the
        # crossing point it gives is NaN; it used to come back as a NaN time
        # and radius with degraded False
        big = 10**160
        system = PiecewiseSystem(hp(4, 0, 0, big, 0, 0), hp(4, 0, 0, 0, 0, big))
        with np.errstate(all="ignore"), pytest.raises(StepFailure, match="non-finite"):
            half_orbit(system, "upper", 1e10)

    def test_field_overflow_at_the_start_is_a_step_failure(self):
        # at r0 = 1e200 the field overflows one step from the start, so
        # scipy's initial step is NaN; the float step fails it instead of
        # looping
        system = CENTER_SUITE["x2y2/y4"][0]
        for side in ("upper", "lower"):
            with np.errstate(all="ignore"), pytest.raises(StepFailure, match="integrator failed"):
                half_orbit(system, side, 1e200)

    def test_rejects_nonfinite_radius(self):
        for r0 in (math.inf, math.nan):
            with pytest.raises(ValueError):
                half_orbit(X2Y_Y3, "upper", r0)

    def test_start_whose_square_underflows_is_refused(self):
        # below about 1.5e-154 the start energy has no precision left; both
        # clocks refuse the start with an error the CLI maps to exit 3
        for clock in (half_orbit, quadrature_period, smooth_period):
            with pytest.raises(StepFailure, match="too small"):
                clock(X2Y_Y3, "upper", 1e-160)

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

    @pytest.mark.parametrize("name", ["x2y/y3", "x4y/x2y", "x2y2/y4"])
    def test_matches_quadrature_at_tiny_radii(self, name):
        # the absolute tolerance follows the start radius, so the relative
        # accuracy and the drift check hold however small the orbit; with a
        # fixed 1e-14 the error grew to 3e-7 at r0 = 5e-8, and at 1e-50 the
        # period came out 2.3, not flagged
        system = CENTER_SUITE[name][0]
        for r0 in (1e-4, 1e-8, 1e-12, 1e-50, 1e-150):
            quad = quadrature_period(system, "upper", r0) + quadrature_period(system, "lower", r0)
            assert abs(numeric_period(system, r0) - quad) <= 1e-9, (r0,)
            for side in ("upper", "lower"):
                assert not half_orbit(system, side, r0).degraded, (r0, side)


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
        # inside r* but beyond the start cap: no level radius at theta = pi.
        # The start check refuses it first, so the bracket check is called
        # directly, with the start's energy r0^2 + 2 r0^3 and g(pi) = -1
        with pytest.raises(EscapedAnnulus, match="start cap"):
            quadrature_period(X3_Y3, "upper", 0.2)
        with pytest.raises(RootBracketFailure, match="does not reach angle 3.14"):
            _level_radii(np.array([-1.0]), 3, 0.2 ** 2 + 2 * 0.2 ** 3, np.array([math.pi]))

    def test_level_energy_beyond_float_range_raises_bracket_failure(self):
        # r0^4 overflows at r0 = 1e100, which used to escape as OverflowError;
        # a negative energy used to be a math domain error of its square root
        with pytest.raises(RootBracketFailure, match="level energy inf is not positive"):
            quadrature_period(CENTER_SUITE["x2y2/y4"][0], "upper", 1e100)
        with pytest.raises(RootBracketFailure, match="overflows the float range"):
            _level_radii(np.array([0.0, 1.0]), 4, 1e200, np.array([0.0, 1.0]))
        for h2 in (-1.0, math.inf, math.nan):
            with pytest.raises(RootBracketFailure, match="not positive and finite"):
                _level_radii(np.array([1.0]), 3, h2, np.array([0.0]))

    def test_unresolved_peak_raises_instead_of_returning(self):
        # 1e-9 below the start cap the orbit grazes the fold of the level
        # curve; its time spike is too narrow for the node cap of either rule
        for rng, period in (("transit", quadrature_period), ("full", smooth_period)):
            cap = start_radius_cap(X2Y_Y3, "lower", rng)
            with pytest.raises(QuadratureFailure, match="did not converge"):
                period(X2Y_Y3, "lower", cap * (1.0 - 1e-9))


# interval counts of the quadrature clock's rules, 32 through MAX_NODES
RULE_SIZES = [2 ** i for i in range(5, MAX_NODES.bit_length())]


class TestClenshawCurtis:
    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_weights_integrate_even_monomials(self, n):
        w = _clenshaw_curtis_weights(n)
        assert len(w) == n + 1
        assert abs(w.sum() - 2.0) <= 1e-14
        # |x|^k at the exact node cos(j pi / n), as exp(k log|x|) with
        # log|x| = log1p(-2 sin^2(theta / 2)) for theta folded into [0, pi/2]:
        # the double nearest the node would move x^k by up to k 2^-53
        j = np.arange(n + 1)
        theta = np.minimum(j, n - j) * (math.pi / n)
        with np.errstate(divide="ignore"):
            log_x = np.log1p(-2.0 * np.sin(0.5 * theta) ** 2)
        for k in range(2, n + 1, 2):
            exact = 2.0 / (k + 1)
            value = np.dot(w, np.exp(k * log_x))
            assert abs(value - exact) <= 1e-14 * exact, (k, value, exact)

    def test_nested_estimates_equal_fresh_rules(self):
        # the doubling keeps the values of the even nodes and evaluates only
        # the odd ones; every estimate must be the fresh rule's to the bit
        lo, hi = 0.3, 2.9
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        sizes = []

        def f(x):
            sizes.append(len(x))
            return 1.0 / (1.0 + 25.0 * (x - 1.0) ** 2) + x ** 3

        estimates = list(_clenshaw_curtis_estimates(f, lo, hi, 32))
        assert sizes == [33] + RULE_SIZES[:-1]
        assert len(estimates) == len(RULE_SIZES)
        for n, estimate in zip(RULE_SIZES, estimates):
            nodes = mid + half * np.cos(np.arange(n + 1) * (math.pi / n))
            assert estimate == half * np.dot(_clenshaw_curtis_weights(n), f(nodes)), n


def _mp_profile_minima(p):
    """Angles in [0, 2 pi) of the local minima of g, sorted, at working precision.

    g'(theta) = q(cos theta, sin theta) with q = -y p_x + x p_y, so the
    critical angles are arctan of the real roots of q(1, t), plus pi/2 and
    3 pi/2 when q(1, t) has lower degree than q; a critical angle is a
    minimum where g' changes sign from - to +.  Nothing here comes from the
    package's own profile search.
    """
    d, c = p.degree, [F(0), *p.coeffs, F(0)]
    # coefficient of x^(d-k) y^k in q
    q = [(k + 1) * c[k + 2] - (d - k + 1) * c[k] for k in range(d + 1)]
    while q and q[-1] == 0:
        q.pop()
    if not q:
        return []
    mp_q = [mpmath.mpf(v.numerator) / v.denominator for v in q]
    angles = [mpmath.pi / 2, 3 * mpmath.pi / 2] if len(q) <= d else []
    if len(q) > 1:
        roots = mpmath.polyroots(mp_q[::-1], maxsteps=200, extraprec=100)
        for t in roots:
            if abs(mpmath.im(t)) <= mpmath.mpf(10) ** -20 * (1 + abs(t)):
                theta = mpmath.atan(mpmath.re(t)) % mpmath.pi
                angles += [theta, theta + mpmath.pi]
    angles.sort()

    def slope(theta):
        cos, sin = mpmath.cos(theta), mpmath.sin(theta)
        return mpmath.fsum(v * cos ** (d - k) * sin ** k for k, v in enumerate(mp_q))

    ends = [angles[-1] - 2 * mpmath.pi, *angles, angles[0] + 2 * mpmath.pi]
    return [theta for before, theta, after in zip(ends, ends[1:], ends[2:])
            if slope((before + theta) / 2) < 0 < slope((theta + after) / 2)]


def _mp_level_time(p, r0, lo, hi):
    """30-digit integral of dtheta / angular speed along the level curve.

    The radius comes from Newton on r^2 + 2 g r^d = h^2 started at h; a
    positive speed at the result shows it is the root before the fold.  The
    range is split at every local minimum of g, where the integrand peaks.
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

    splits = [lo, *(theta for theta in _mp_profile_minima(p) if lo < theta < hi), hi]
    value, error = mpmath.quad(integrand, splits, error=True)
    assert error <= 1e-20 * abs(value)
    return value


class TestThirtyDigitClock:
    """The float clocks against mpmath at 30 digits, up to 0.95 of the cap.

    Both quadratures, and the ODE clock over each transit.
    """

    @pytest.mark.parametrize("name", ["x3/x3", "x2y/y3", "x3-x2y/x3+y3", "x4/x4y"])
    def test_quadratures_match_mpmath(self, name):
        system = CENTER_SUITE[name][0]
        with mpmath.workdps(30):
            for side in ("upper", "lower"):
                p = system.side(side)
                # the ODE clock shares the transit references of the quadrature
                references = {}
                half = (0, mpmath.pi) if side == "upper" else (mpmath.pi, 2 * mpmath.pi)
                for rng, period, (lo, hi) in (("transit", quadrature_period, half),
                                              ("full", smooth_period, (0, 2 * mpmath.pi)),
                                              ("transit", _ode_time, half)):
                    cap = start_radius_cap(system, side, rng)
                    if not math.isfinite(cap):
                        continue
                    for fraction in (0.3, 0.95):
                        r0 = fraction * cap
                        if (rng, fraction) not in references:
                            references[rng, fraction] = _mp_level_time(p, r0, lo, hi)
                        reference = references[rng, fraction]
                        value = period(system, side, r0)
                        assert abs(value - reference) <= 1e-12 * abs(reference), (
                            side, rng, fraction, value, reference)


def _ode_time(system, side, r0):
    return half_orbit(system, side, r0).time


def _stock_transit(system, side, r0):
    """(time, r_end, steps, nfev) of a transit by scipy's own DOP853.

    Same field, tolerances and crossing event as ``half_orbit``, with the
    field written out from the polynomial's gradient and no Newton polish.
    """
    p = system.side(side)
    sign = -1.0 if side == "lower" else 1.0

    def rhs(t, s):
        gx, gy = p.gradient(float(s[0]), float(s[1]))
        return sign * (-s[1] - gy), sign * (s[0] + gx)

    def crossing(t, s):
        return s[1]

    crossing.terminal = True
    crossing.direction = -1.0 if side == "upper" else 1.0
    sol = solve_ivp(rhs, (0.0, flow.MAX_TIME), (r0, 0.0), method="DOP853",
                    rtol=flow.RTOL, atol=min(flow.ATOL, flow.RTOL * r0), events=crossing)
    assert sol.status == 1 and len(sol.t_events[0]) == 1
    x, y = sol.y_events[0][0]
    return float(sol.t_events[0][0]), math.hypot(x, y), len(sol.t) - 1, sol.nfev


SUITE_SIDES = {f"{name}:{side}": (entry[0] if isinstance(entry, tuple) else entry, side)
               for suite in (CENTER_SUITE, NONCENTER_SUITE)
               for name, entry in suite.items()
               for side in ("upper", "lower")}


@pytest.mark.parametrize("system, side", SUITE_SIDES.values(), ids=SUITE_SIDES.keys())
def test_float_step_matches_stock_dop853(system, side, monkeypatch):
    # the float kernel takes scipy's steps: the same accepted steps, the same
    # crossing to rounding, and evaluation counts apart by at most one
    # rejected step (12 evaluations) where an acceptance test sits on 1
    solutions = []

    def recorded(*args, **kwargs):
        solutions.append(solve_ivp(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(flow, "solve_ivp", recorded)
    cap = start_radius_cap(system, side, "transit")
    top = 0.8 * cap if math.isfinite(cap) else 0.5
    for fraction in (0.05, 0.25, 0.5, 0.75, 1.0):
        r0 = fraction * top
        time, r_end, steps, nfev = _stock_transit(system, side, r0)
        res = half_orbit(system, side, r0)
        assert res.steps == steps, (r0, res.steps, steps)
        assert abs(res.time - time) <= 1e-13 * time, (r0, res.time, time)
        assert abs(res.r_end - r_end) <= 1e-13 * r_end, (r0, res.r_end, r_end)
        assert abs(solutions[-1].nfev - nfev) <= 12, (r0, solutions[-1].nfev, nfev)


def test_float_step_on_a_zero_error_grows_like_scipy():
    # a zero field has error sums of exactly 0: the step grows by the full
    # factor 10 each time, as in scipy, instead of raising 0.0 ** -0.125
    ours = solve_ivp(lambda t, s: (0.0, 0.0), (0.0, 50.0), (1.0, 0.0), method=_FloatDOP853,
                     field=lambda t, x, y: (0.0, 0.0), rtol=1e-12, atol=1e-14)
    stock = solve_ivp(lambda t, s: (0.0, 0.0), (0.0, 50.0), (1.0, 0.0), method="DOP853",
                      rtol=1e-12, atol=1e-14)
    assert ours.status == stock.status == 0
    assert ours.t.tolist() == stock.t.tolist() and ours.nfev == stock.nfev
    assert ours.y[:, -1].tolist() == [1.0, 0.0]


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



@pytest.mark.parametrize("r0", [1e2, 1e4, 1e6, 1e8])
def test_x4_transit_obeys_the_high_energy_law(r0):
    # both annuli of x^4 / x^2 y^2 are unbounded, so no start is refused.  On
    # the x^4 side x' = -y, so with x = r0 u the transit is r0 T =
    # int_{-1}^{1} du / sqrt((1 - u^2) (r0^-2 + 2 (1 + u^2))), which tends to
    # the lemniscate law Gamma(1/4)^2 / (4 sqrt(pi)) with a relative gap of
    # about -0.1821 / r0^2.  On the x^2 y^2 side y' = x (1 + 2 y^2) and
    # y = -r0 sin(phi) give T = 2 K(m = -2 r0^2)
    system = CENTER_SUITE["x4/x2y2"][0]
    up, lo = half_orbit(system, "upper", r0), half_orbit(system, "lower", r0)
    assert not (up.degraded or lo.degraded)
    with mpmath.workdps(30):
        limit = mpmath.gamma(0.25) ** 2 / (4 * mpmath.sqrt(mpmath.pi))
        eps = mpmath.mpf(r0) ** -2
        exact = mpmath.quad(lambda u: 1 / mpmath.sqrt((1 - u * u) * (eps + 2 * (1 + u * u))),
                            [-1, 0, 1])
        lower = 2 * mpmath.ellipk(-2 / eps)
    assert abs(r0 * up.time - exact) <= 1e-12 * exact, (r0 * up.time, exact)
    assert abs(r0 * up.time / limit - 1) <= 0.2 / r0 ** 2 + 1e-12, (r0 * up.time, limit)
    assert abs(lo.time - lower) <= 1e-12 * lower, (lo.time, lower)


@pytest.mark.parametrize("p", [hp(3, 0, 0, 0, 1), hp(3, 1, 0, 0, 0), hp(3, 1, -1, 0, 0),
                               hp(3, 0, 0, 0, F(1, 2)), hp(5, 1, 0, 0, 0, 0, 0)],
                         ids=["y3", "x3", "x3-x2y", "y3/2", "x5"])
def test_smooth_period_near_the_cap_of_a_single_minimum(p):
    # the whole-circle rule starts at the profile minimum, so the spike that
    # grows there as r0 nears the cap sits on the clustered end nodes
    system = PiecewiseSystem(p, zero(3))
    r0 = 0.99999 * start_radius_cap(system, "upper", "full")
    with mpmath.workdps(30):
        reference = _mp_level_time(p, r0, 0, 2 * mpmath.pi)
    value = smooth_period(system, "upper", r0)
    assert abs(value - reference) <= 1e-12 * abs(reference), (value, reference)

def test_reference_minima_of_x2y():
    # g = cos^2 sin has g' = cos (cos^2 - 2 sin^2): minima where tan = 1/sqrt(2)
    # on the lower half circle, and the zero at pi/2
    with mpmath.workdps(30):
        t = mpmath.atan(1 / mpmath.sqrt(2))
        expected = [mpmath.pi / 2, mpmath.pi + t, 2 * mpmath.pi - t]
        minima = _mp_profile_minima(hp(3, 0, 1, 0, 0))
        assert len(minima) == 3
        assert all(abs(a - b) <= mpmath.mpf(10) ** -28 for a, b in zip(minima, expected))


# x^2 y has two minima on the lower half circle; the reference must split at
# both.  Each case: system, side, range, clock, and its angles in units of pi
TWO_MINIMA_CASES = {
    "x5/x2y:lower:transit": (NONCENTER_SUITE["x5/x2y"], "lower", "transit",
                             quadrature_period, (1, 2)),
    "x2y/y3:upper:full": (CENTER_SUITE["x2y/y3"][0], "upper", "full", smooth_period, (0, 2)),
}


@pytest.mark.parametrize("system, side, rng, period, span", TWO_MINIMA_CASES.values(),
                         ids=TWO_MINIMA_CASES.keys())
def test_quadrature_near_the_cap_of_two_minima(system, side, rng, period, span):
    r0 = 0.999 * start_radius_cap(system, side, rng)
    with mpmath.workdps(30):
        lo, hi = (k * mpmath.pi for k in span)
        reference = _mp_level_time(system.side(side), r0, lo, hi)
    value = period(system, side, r0)
    assert abs(value - reference) <= 1e-12 * abs(reference), (value, reference)


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

    def test_empty_quadratic_annulus_refuses_every_clock(self):
        # -x^2: the speed 1 + 2 g is -1 at theta = 0 whatever the radius, so
        # the start cap is 0 and every start is refused up front
        system = PiecewiseSystem(hp(2, -1, 0, 0), hp(2, -1, 0, 0))
        for clock in (half_orbit, quadrature_period, smooth_period):
            with pytest.raises(EscapedAnnulus, match="start cap 0"):
                clock(system, "upper", 0.3)

    def test_quadratic_side_closed_form(self):
        # speed 1 + 2g is radius free; for (3/2)x^2 the full period is
        # int dt/(1 + 3cos^2) = 2pi/sqrt(1*4) = pi
        sys = PiecewiseSystem(hp(2, F(3, 2), 0, 0), zero(2))
        assert abs(smooth_period(sys, "upper", 0.3) - math.pi) < 1e-12
        assert abs(smooth_period(sys, "upper", 0.9) - math.pi) < 1e-12
