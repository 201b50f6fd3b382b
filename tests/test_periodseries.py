import math
from fractions import Fraction as F

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
    energy_from_radius_series,
    first_obstruction,
    full_period_energy_series,
    half_period_energy_series,
    half_period_radius_series,
)
from pwperiod.periodseries import jmax_for_order
from pwperiod.trigmoments import PI, TWO_PI

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


def test_bracket_coefficients():
    got = energy_from_radius_series(1, 2, 4)
    assert got == {0: F(1), 1: F(1), 2: F(-1, 2), 3: F(1, 2), 4: F(-5, 8)}
    # scale law: a0 enters as a0^k at step k
    got3 = energy_from_radius_series(F(1, 3), 3, 8)
    assert got3 == {0: F(1), 2: F(1, 3), 4: F(-1, 18), 6: F(1, 54), 8: F(-5, 648)}
    with pytest.raises(ValueError):
        energy_from_radius_series(1, 1, 4)


def test_radius_series_reduces_to_energy_series_when_a0_zero():
    p = hp(3, 0, 1, 0, 0)
    in_h = half_period_energy_series(p, "upper", jmax=6)
    in_r = half_period_radius_series(p, "upper", jmax=6)
    assert in_r.variable_tag == RADIUS
    assert dict(in_r.items()) == dict(in_h.items())


def test_radius_series_weight_route_duality():
    """Composition route must equal the closed-form weight rows.

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
