import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwperiod import (
    DegreeTooLow,
    PiecewiseSystem,
    annulus_bound,
    classify,
    hamiltonian,
    min_annulus_radius,
    min_start_cap,
    normalize,
    numeric_period,
    start_radius_cap,
    vector_field,
)
from pwperiod.systems import profile_min

from conftest import CENTER_SUITE, NONCENTER_SUITE, hp, zero


def test_system_properties():
    sys = PiecewiseSystem(hp(3, 2, 1, 0, 0), hp(4, 0, 0, 0, 0, 1))
    assert sys.n == 2
    assert sys.m == 3
    assert sys.a0_plus == 2
    assert sys.a0_minus == 0
    assert sys.side("upper") is sys.upper
    assert sys.side("lower") is sys.lower
    with pytest.raises(ValueError):
        sys.side("left")


class TestClassify:
    def test_suite_cases(self, center_suite, noncenter_suite):
        for name, (sys, tag) in center_suite.items():
            c = classify(sys)
            assert c.verdict == "SigmaCenter", name
            assert c.case_tag == tag, name
            assert c.is_center
            assert c.reason
        for name, sys in noncenter_suite.items():
            c = classify(sys)
            assert c.verdict == "NotCenter", name
            assert c.case_tag is None
            assert not c.is_center

    def test_exact_rational_boundary(self):
        # case V hinges on exact equality of the axis coefficients
        a = F(1, 3)
        sysv = PiecewiseSystem(hp(3, a, 0, 0, 0), hp(3, a, 0, 0, 0))
        assert classify(sysv).case_tag == "V"
        off = PiecewiseSystem(hp(3, a, 0, 0, 0), hp(3, a + F(1, 10**12), 0, 0, 0))
        assert classify(off).verdict == "NotCenter"

    def test_both_quadratic_is_case_one(self):
        sys = PiecewiseSystem(hp(2, F(3, 2), 0, 0), zero(2))
        c = classify(sys)
        assert c.verdict == "SigmaCenter"
        assert c.case_tag == "I"


class TestNormalize:
    def test_identity_when_ordered(self):
        sys = CENTER_SUITE["x4y/x2y"][0]
        assert normalize(sys) is sys

    def test_swap_reflects_coefficients(self):
        sys = CENTER_SUITE["x2y/x4y"][0]  # n=2, m=4
        out = normalize(sys)
        assert out.n == 4 and out.m == 2
        # both degrees odd here, so every coefficient flips sign
        assert out.upper == hp(5, 0, -1, 0, 0, 0, 0)
        assert out.lower == hp(3, 0, -1, 0, 0)
        assert normalize(out) is out

    def test_verdict_preserved(self):
        for name, (sys, tag) in CENTER_SUITE.items():
            assert classify(normalize(sys)).verdict == "SigmaCenter", name
        for name, sys in NONCENTER_SUITE.items():
            assert classify(normalize(sys)).verdict == "NotCenter", name

    def test_period_preserved_for_symmetric_center(self):
        sys = CENTER_SUITE["x2y/x4y"][0]
        r0 = 0.05
        assert abs(numeric_period(sys, r0) - numeric_period(normalize(sys), r0)) < 1e-10


def test_vector_field_values():
    sys = PiecewiseSystem(hp(3, 0, 1, 0, 0), hp(3, 0, 0, 0, 1))  # x^2 y / y^3
    # upper: xdot = -y - x^2, ydot = x + 2xy
    xd, yd = vector_field(sys, 0.5, 0.2)
    assert math.isclose(xd, -0.2 - 0.25, rel_tol=1e-15)
    assert math.isclose(yd, 0.5 + 2 * 0.5 * 0.2, rel_tol=1e-15)
    # lower: xdot = -y - 3y^2, ydot = x
    xd, yd = vector_field(sys, 0.5, -0.2)
    assert math.isclose(xd, 0.2 - 3 * 0.04, rel_tol=1e-14)
    assert math.isclose(yd, 0.5, rel_tol=1e-15)
    # rotation is counterclockwise near the origin: at (r, 0+) ydot > 0
    assert vector_field(sys, 0.01, 0.0)[1] > 0


def test_hamiltonian_values():
    sys = PiecewiseSystem(hp(3, 1, 0, 0, 0), hp(3, 0, 0, 0, 1))  # x^3 / y^3
    assert math.isclose(hamiltonian(sys, 0.1, 0.0), 0.005 + 0.001, rel_tol=1e-15)
    assert math.isclose(hamiltonian(sys, 0.0, -0.2), 0.02 - 0.008, rel_tol=1e-15)


class TestAnnulusBound:
    def test_known_bounds(self):
        sys = PiecewiseSystem(hp(3, 0, 1, 0, 0), hp(3, 0, 0, 0, 1))  # x^2 y / y^3
        up = annulus_bound(sys, "upper")
        assert up.bounded
        assert abs(up.r_star - math.sqrt(3) / 2) < 1e-9
        # worst angle: sin(theta) = -1/sqrt(3) in the third quadrant
        assert abs(up.theta_star - (math.pi + math.asin(1 / math.sqrt(3)))) < 1e-6
        lo = annulus_bound(sys, "lower")
        assert abs(lo.r_star - 1 / 3) < 1e-12
        assert abs(lo.theta_star - 3 * math.pi / 2) < 1e-6

    def test_nonnegative_profile_is_unbounded(self):
        sys = PiecewiseSystem(hp(4, 0, 0, 1, 0, 0), zero(4))  # x^2 y^2
        est = annulus_bound(sys, "upper")
        assert not est.bounded
        assert est.r_star == math.inf
        assert not annulus_bound(sys, "lower").bounded

    def test_quadratic_side_raises(self):
        sys = PiecewiseSystem(hp(2, 1, 0, 0), zero(2))
        with pytest.raises(DegreeTooLow):
            annulus_bound(sys, "upper")

    def test_min_annulus_radius(self):
        sys = PiecewiseSystem(hp(3, 0, 1, 0, 0), hp(3, 0, 0, 0, 1))
        assert abs(min_annulus_radius(sys) - 1 / 3) < 1e-12
        both_free = PiecewiseSystem(hp(4, 0, 0, 1, 0, 0), zero(4))
        assert min_annulus_radius(both_free) == math.inf


class TestProfileMin:
    def test_x2y_critical_angle_is_exact(self):
        value, theta = profile_min(hp(3, 0, 1, 0, 0), 0.0, 2 * math.pi)
        # two equal minima at sin(theta) = -1/sqrt(3); the smaller angle wins
        assert abs(theta - (math.pi + math.asin(1 / math.sqrt(3)))) < 1e-12
        assert abs(value + 2 / (3 * math.sqrt(3))) < 1e-15

    def test_y3_minimum_on_lower_range(self):
        value, theta = profile_min(hp(3, 0, 0, 0, 1), math.pi, 2 * math.pi)
        assert value == -1.0
        assert abs(theta - 3 * math.pi / 2) < 1e-12
        sys = PiecewiseSystem(zero(3), hp(3, 0, 0, 0, 1))
        assert abs(annulus_bound(sys, "lower").r_star - 1 / 3) < 1e-15

    def test_tied_minima_go_to_smallest_angle(self):
        # -y^4/3 is smallest at pi/2 and 3pi/2 alike
        value, theta = profile_min(hp(4, 0, 0, 0, 0, F(-1, 3)), 0.0, 2 * math.pi)
        assert value == -1 / 3
        assert theta == math.pi / 2


small_rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def forms(draw):
    degree = draw(st.integers(3, 7))
    return hp(degree, *draw(st.lists(small_rational, min_size=degree + 1,
                                     max_size=degree + 1)))


@given(p=forms())
@settings(max_examples=80, deadline=None)
def test_profile_min_is_below_a_dense_grid(p):
    scale = max(1.0, float(sum(abs(c) for c in p.coeffs)))
    for lo, hi in ((0.0, math.pi), (math.pi, 2 * math.pi), (0.0, 2 * math.pi)):
        value, theta = profile_min(p, lo, hi)
        assert lo <= theta <= hi
        assert value == p.profile(theta)
        grid_min = min(p.profile(t) for t in np.linspace(lo, hi, 4096))
        assert value <= grid_min + 1e-15 * scale, (lo, hi)


class TestStartRadiusCap:
    def test_x3_transit_cap_is_exact(self):
        # critical level 1/27; r^2 + 2r^3 = 1/27 has the rational root 1/6
        sys = PiecewiseSystem(hp(3, 1, 0, 0, 0), hp(3, 0, 0, 0, 1))
        assert abs(start_radius_cap(sys, "upper", "transit") - F(1, 6)) < 1e-9
        assert abs(start_radius_cap(sys, "lower", "transit") - 27**-0.5) < 1e-9
        assert abs(min_start_cap(sys) - F(1, 6)) < 1e-9

    def test_scaled_axis_coefficient(self):
        # 2x^3: critical level 1/108, cap solves r^2 + 4r^3 = 1/108 -> 1/12
        sys = PiecewiseSystem(hp(3, 2, 0, 0, 0), zero(3))
        assert abs(start_radius_cap(sys, "upper", "transit") - F(1, 12)) < 1e-9

    def test_transit_vs_full_ranges(self):
        sys = PiecewiseSystem(hp(3, 0, 1, 0, 0), zero(3))  # x^2 y
        assert start_radius_cap(sys, "upper", "transit") == math.inf
        assert abs(start_radius_cap(sys, "upper", "full") - 0.5) < 1e-9

    def test_quadratic_and_zero_sides(self):
        mild = PiecewiseSystem(hp(2, F(3, 2), 0, 0), zero(2))
        assert start_radius_cap(mild, "upper", "transit") == math.inf
        assert start_radius_cap(mild, "lower", "transit") == math.inf
        harsh = PiecewiseSystem(hp(2, -1, 0, 0), zero(2))
        assert start_radius_cap(harsh, "upper", "transit") == 0.0

    def test_bad_range_tag(self):
        sys = PiecewiseSystem(hp(3, 1, 0, 0, 0), zero(3))
        with pytest.raises(ValueError):
            start_radius_cap(sys, "upper", "half")

    def test_cap_never_exceeds_annulus(self, center_suite, noncenter_suite):
        for name, entry in center_suite.items():
            sys = entry[0]
            for side in ("upper", "lower"):
                p = sys.side(side)
                if p.is_zero() or p.degree == 2:
                    continue
                cap = start_radius_cap(sys, side, "full")
                est = annulus_bound(sys, side)
                if est.bounded:
                    assert cap <= est.r_star + 1e-12, (name, side)
