import hashlib
import math
from fractions import Fraction as F

import mpmath
import pytest

from pwperiod import (
    ENERGY,
    RADIUS,
    DegreeTooLow,
    HomogeneousPoly,
    NotACenter,
    PeriodSeries,
    PiecewiseSystem,
    TrigValue,
    build_coefficient_table,
    combined_period_series,
    first_obstruction,
    full_period_energy_series,
    half_period_energy_series,
    half_period_radius_series,
)
from pwperiod.periodseries import jmax_for_order
from pwperiod.trigmoments import PI, TRIG_ZERO, TWO_PI

from conftest import CENTER_SUITE, KNOWN_OBSTRUCTIONS, hp, zero


class TestPeriodSeries:
    def test_basic_accessors(self):
        s = PeriodSeries(PI, {2: TrigValue(1), 4: TrigValue(0, 1)}, ENERGY, 5)
        assert s.exponents == (2, 4)
        assert s.coefficient(2) == TrigValue(1)
        assert s.coefficient(3) == TrigValue(0)
        assert s.truncation_order == 5
        assert list(s.items()) == [(2, TrigValue(1)), (4, TrigValue(0, 1))]

    def test_zero_terms_dropped(self):
        s = PeriodSeries(PI, {1: TrigValue(0), 3: TrigValue(2)}, RADIUS, 4)
        assert s.exponents == (3,)

    def test_call_is_float_polynomial(self):
        s = PeriodSeries(TrigValue(0, 2), {1: TrigValue(2), 2: TrigValue(0, F(9, 2))}, RADIUS, 2)
        r = 0.03
        want = 2 * math.pi + 2 * r + 4.5 * math.pi * r * r
        assert math.isclose(s(r), want, rel_tol=1e-15)

    def test_truncate(self):
        s = PeriodSeries(PI, {1: TrigValue(1), 2: TrigValue(2), 5: TrigValue(3)}, RADIUS, 6)
        t = s.truncate(2)
        assert t.exponents == (1, 2)
        assert t.truncation_order == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodSeries(PI, {}, "radius", None)
        with pytest.raises(ValueError):
            PeriodSeries(PI, {7: TrigValue(1)}, RADIUS, 5)
        with pytest.raises(ValueError):
            PeriodSeries(PI, {0: TrigValue(1)}, RADIUS, 5)


def test_half_energy_series_x2y_upper():
    # g = cos^2 sin: c_1 = 2/3, c_2 = pi/16; rows at n=2 give -3 and 12
    s = half_period_energy_series(hp(3, 0, 1, 0, 0), "upper", jmax=4)
    assert s.constant == PI
    assert s.variable_tag == ENERGY
    assert s.truncation_order == 4
    assert s.coefficient(1) == TrigValue(-2)
    assert s.coefficient(2) == TrigValue(0, F(3, 4))


def test_half_energy_series_zero_side_is_exact():
    s = half_period_energy_series(zero(3), "upper")
    assert s.constant == PI
    assert s.exponents == ()
    assert s.truncation_order is None


def test_series_refuses_a_name_that_is_no_side():
    # "full" is a range tag but no side; a zero side, which needs no moment, is refused too
    for p in (hp(3, 0, 1, 0, 0), zero(3)):
        for name in ("full", "left"):
            with pytest.raises(ValueError):
                half_period_energy_series(p, name)
            with pytest.raises(ValueError):
                half_period_radius_series(p, name)


def test_quadratic_side_is_refused():
    with pytest.raises(DegreeTooLow):
        half_period_energy_series(hp(2, 1, 0, 0), "upper")
    with pytest.raises(DegreeTooLow):
        half_period_radius_series(hp(2, 0, 0, 1), "lower")


def test_full_energy_series_x3():
    # full moments of cos^3 vanish at odd powers; c_2 = 5 pi/8
    s = full_period_energy_series(hp(3, 1, 0, 0, 0), jmax=4)
    assert s.constant == TWO_PI
    assert s.coefficient(1) == TrigValue(0)
    assert s.coefficient(2) == TrigValue(0, F(15, 2))


def test_radius_series_reduces_to_energy_series_when_a0_zero():
    p = hp(3, 0, 1, 0, 0)
    in_h = half_period_energy_series(p, "upper", jmax=6)
    in_r = half_period_radius_series(p, "upper", jmax=6)
    assert in_r.variable_tag == RADIUS
    assert dict(in_r.items()) == dict(in_h.items())


def test_radius_series_weight_route_duality():
    """The binomial substitution must equal the CoefficientTable weight rows.

    mu_k = sum_i weight(k, i)(n) * a0^(k-i) * c_i, on the (n-1) grid.
    Checked on sides with a0 != 0 so the substitution actually mixes terms.
    """
    from pwperiod import profile_power_integral

    table = build_coefficient_table(6)
    cases = [
        (hp(3, 1, 0, 0, 0), "upper"),          # x^3
        (hp(3, 1, -1, 0, 0), "upper"),         # x^3 - x^2 y
        (hp(3, 1, 0, 0, 1), "lower"),          # x^3 + y^3
        (hp(4, F(1, 2), 0, 1, 0, 0), "upper"),  # x^4/2 + x^2 y^2
    ]
    for p, side in cases:
        n = p.degree - 1
        rng = "upper" if side == "upper" else "lower"
        series = half_period_radius_series(p, side, jmax=6)
        moments = [profile_power_integral(p, i, rng) for i in range(1, 7)]
        for k in range(1, 7):
            expected = sum(
                (moments[i - 1] * (table.weight(k, i)(n) * p.axis_value ** (k - i))
                 for i in range(1, k + 1)),
                TrigValue(0),
            )
            assert series.coefficient(k * (n - 1)) == expected, (p, k)


def _mp_value(series, x):
    """The truncated series at x, each coefficient q0 + q1 pi taken at mpmath precision."""
    def mp(c):
        return (mpmath.mpf(c.rat_part.numerator) / c.rat_part.denominator
                + mpmath.pi * c.pi_part.numerator / c.pi_part.denominator)
    return mp(series.constant) + mpmath.fsum(mp(c) * x ** e for e, c in series.items())


def test_radius_series_is_the_energy_series_at_h_of_r0():
    """The r0 series is the h series at h(r0) = r0 sqrt(1 + 2 a0 r0^(n-1)).

    Both truncated after J grid steps, D(r0) = S_h(h(r0)) - S_r(r0) starts
    at r0^((J+1) step), so it shrinks by 2^-((J+1) step) when r0 halves; a
    wrong coefficient through r0^(J step) leaves a lower power that shrinks
    by 2^-(J step) or less.  h(r0) is computed directly, not from a series.
    """
    jmax = 6
    cases = [
        (hp(3, 1, 0, 0, 0), "upper"),                      # x^3
        (hp(3, 1, -1, 0, 0), "upper"),                     # x^3 - x^2 y
        (hp(3, 1, 0, 0, 1), "lower"),                      # x^3 + y^3
        (hp(4, F(1, 2), 0, 1, 0, 0), "upper"),             # x^4/2 + x^2 y^2
        (hp(4, -1, 0, 0, 1, 0), "lower"),                  # -x^4 + x y^3
        (hp(5, F(-2, 3), 1, 0, 0, 0, 1), "upper"),         # -2x^5/3 + x^4 y + y^5
        (hp(6, F(3, 2), 0, 0, -1, 0, 0, F(1, 4)), "lower"),  # 3x^6/2 - x^3 y^3 + y^6/4
    ]
    with mpmath.workdps(60):
        for p, side in cases:
            step = p.degree - 2
            in_h = half_period_energy_series(p, side, jmax)
            in_r = half_period_radius_series(p, side, jmax)
            two_a0 = 2 * mpmath.mpf(p.axis_value.numerator) / p.axis_value.denominator

            def gap(r0):
                h = r0 * mpmath.sqrt(1 + two_a0 * r0 ** step)
                return _mp_value(in_h, h) - _mp_value(in_r, r0)

            rho = mpmath.mpf(10) ** (mpmath.mpf(-4) / step)
            outer, inner = gap(rho), gap(rho / 2)
            assert abs(inner) <= 0.75 * 2.0 ** (-jmax * step) * abs(outer), (p, inner, outer)


def test_radius_series_scaling_law():
    # replacing p by s*p scales the exponent-k(n-1) coefficient by s^k
    p = hp(3, 1, 0, 0, 0)
    s = F(1, 2)
    base = half_period_radius_series(p, "upper", jmax=6)
    scaled = half_period_radius_series(p.scaled(s), "upper", jmax=6)
    for k in range(1, 7):
        assert scaled.coefficient(k) == base.coefficient(k) * s**k


def test_combined_series_x2y_y3():
    sys = CENTER_SUITE["x2y/y3"][0]
    series = combined_period_series(sys, jmax=4)
    assert series.constant == TWO_PI
    assert series.coefficient(1) == TrigValue(2)
    assert series.coefficient(2) == TrigValue(0, F(9, 2))
    assert series.coefficient(3) == TrigValue(F(118, 3))
    assert series.coefficient(4) == TrigValue(0, F(1785, 32))
    assert series.truncation_order == 4


def test_combined_series_truncates_at_coarser_grid():
    # x2y (step 1) with y4 (step 2): complete only through jmax * 1
    sys = CENTER_SUITE["x2y/y4"][0]
    series = combined_period_series(sys, jmax=5)
    assert series.truncation_order == 5


def test_combined_series_equals_both_sides_at_full_jmax():
    # each side is expanded only to ceil(order / step); cutting both sides
    # built to the full jmax at the combined order must give the same series
    unequal = {name: sys for name, (sys, _) in CENTER_SUITE.items()
               if not any(p.is_zero() or p.degree == 2 for p in (sys.upper, sys.lower))
               and sys.upper.degree != sys.lower.degree}
    assert len(unequal) == 7
    for name, sys in unequal.items():
        for jmax in range(1, 13):
            order = jmax * (min(sys.upper.degree, sys.lower.degree) - 2)
            upper = half_period_radius_series(sys.upper, "upper", jmax)
            lower = half_period_radius_series(sys.lower, "lower", jmax)
            terms = {}
            for e, c in [*upper.items(), *lower.items()]:
                if e <= order:
                    terms[e] = terms.get(e, TRIG_ZERO) + c
            expected = PeriodSeries(upper.constant + lower.constant, terms, RADIUS, order)
            assert combined_period_series(sys, jmax=jmax) == expected, (name, jmax)


def test_combined_series_rejects_noncenter():
    bad = PiecewiseSystem(hp(3, 1, 0, 0, 0), hp(3, 0, 0, 0, 1))
    with pytest.raises(NotACenter):
        combined_period_series(bad)
    with pytest.raises(NotACenter):
        first_obstruction(bad)


def test_combined_series_zero_system():
    sys = PiecewiseSystem(zero(3), zero(3))
    series = combined_period_series(sys)
    assert series.constant == TWO_PI
    assert series.exponents == ()
    assert series.truncation_order is None
    assert first_obstruction(sys) is None


def test_known_first_obstructions():
    for name, (e, q, qpi) in KNOWN_OBSTRUCTIONS.items():
        sys = CENTER_SUITE[name][0]
        got = first_obstruction(sys, jmax=8)
        assert got is not None, name
        assert got[0] == e, name
        assert got[1] == TrigValue(q, qpi), name


def test_series_agrees_between_jmax_levels():
    # raising jmax must not change already-computed coefficients
    sys = CENTER_SUITE["x2y/y3"][0]
    low = combined_period_series(sys, jmax=4)
    high = combined_period_series(sys, jmax=8)
    for e, c in low.items():
        assert high.coefficient(e) == c


def test_jmax_for_order_is_complete_through_the_order():
    # one more j adds nothing at or below the order: cross_validate, which
    # used jmax + 1, and run_report, which used jmax, truncate to one series
    for name, (sys, _) in CENTER_SUITE.items():
        if any(p.degree == 2 and not p.is_zero() for p in (sys.upper, sys.lower)):
            with pytest.raises(DegreeTooLow):
                combined_period_series(sys, jmax=jmax_for_order(sys, 1))
            continue
        by_jmax = {}
        for order in range(1, 11):
            jmax = jmax_for_order(sys, order)
            for j in (jmax, jmax + 1):
                if j not in by_jmax:
                    by_jmax[j] = combined_period_series(sys, jmax=j)
            series = by_jmax[jmax].truncate(order)
            assert series.truncation_order == order, (name, order)
            assert series == by_jmax[jmax + 1].truncate(order), (name, order)
    assert jmax_for_order(PiecewiseSystem(zero(3), zero(4)), 5) == 1


def _fresh(sys):
    """The same system on new polynomials, whose memos are empty."""
    return PiecewiseSystem(*(HomogeneousPoly(p.degree, p.coeffs) for p in (sys.upper, sys.lower)))


def _series_line(name, jmax, series):
    def q(f):  # hex: no int-to-str digit limit
        return f"{f.numerator:x}/{f.denominator:x}"

    terms = ";".join(f"{e}:{q(c.rat_part)}:{q(c.pi_part)}" for e, c in series.items())
    constant = f"{q(series.constant.rat_part)}:{q(series.constant.pi_part)}"
    return f"{name}|{jmax}|{series.truncation_order}|{constant}|{terms}\n"


SERIES_CENTERS = sorted(name for name, (s, _) in CENTER_SUITE.items()
                        if s.upper.degree > 2 and s.lower.degree > 2)
# SHA-256 of the lines below, computed with the Fraction-per-term series
# (convolution of Fraction powers, one TrigValue per moment and per
# binomial term) that the integer one replaced
SERIES_DIGEST = "34a1c655ee492362a19bf47eb2548bc37f251d607b0928e4d70bf59cc76e3baa"


def test_combined_series_match_the_frozen_digest():
    # the 14 centers without a quadratic side at jmax 1-24, each jmax on the
    # same fresh system so the memo grows step by step, then two at 128
    digest = hashlib.sha256()
    for name in SERIES_CENTERS:
        sys = _fresh(CENTER_SUITE[name][0])
        for jmax in range(1, 25):
            digest.update(_series_line(name, jmax, combined_period_series(sys, jmax)).encode())
    for name in ("x3-x2y/x3+y3", "x2y/y3"):
        series = combined_period_series(_fresh(CENTER_SUITE[name][0]), 128)
        digest.update(_series_line(name, 128, series).encode())
    assert len(SERIES_CENTERS) == 14
    assert digest.hexdigest() == SERIES_DIGEST


@pytest.mark.parametrize("name", SERIES_CENTERS)
def test_series_read_back_from_the_memo_equal_fresh_ones(name):
    # after one series at jmax 12, every lower jmax comes from the memo
    sys = _fresh(CENTER_SUITE[name][0])
    combined_period_series(sys, 12)
    full_period_energy_series(sys.upper, 12)
    for jmax in range(1, 12):
        fresh = _fresh(sys)
        assert combined_period_series(sys, jmax) == combined_period_series(fresh, jmax)
        for side in ("upper", "lower"):
            p, q = sys.side(side), fresh.side(side)
            assert half_period_energy_series(p, side, jmax) == half_period_energy_series(q, side, jmax)
        assert full_period_energy_series(sys.upper, jmax) == full_period_energy_series(fresh.upper, jmax)
