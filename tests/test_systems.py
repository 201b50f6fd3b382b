import math
import random
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwperiod import (
    PiecewiseSystem,
    annulus_bound,
    classify,
    min_start_cap,
    normalize,
    numeric_period,
    positive_definite,
    start_radius_cap,
)
from pwperiod.flow import _make_field
from pwperiod.systems import _scaled_floats, profile_min

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

    @pytest.mark.parametrize("coeffs, center", [
        ((F(-3, 2), 0, 0), False),  # saddle (-2x^2 + y^2)/2
        ((0, 1, 0), False),  # degenerate (x + y)^2/2
        ((0, 0, F(-1, 2)), False),  # degenerate x^2/2
        ((-1, 0, -1), False),  # negative definite
        ((0, F(99, 100), 0), True),
        ((F(3, 2), 0, 0), True),
    ])
    def test_quadratic_side_needs_a_positive_definite_form(self, coeffs, center):
        # a quadratic side turns its half plane's Hamiltonian into a form;
        # unless it is positive definite no orbit returns to the axis
        for sys in (PiecewiseSystem(hp(2, *coeffs), hp(3, 0, 0, 0, 1)),
                    PiecewiseSystem(hp(3, 0, 1, 0, 0), hp(2, *coeffs))):
            c = classify(sys)
            assert c.is_center == center
            assert ("not positive definite" in c.reason) == (not center)
        assert positive_definite(*coeffs) == center


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
    # the field the ODE clock integrates on each side, (-dH/dy, dH/dx)
    sys = PiecewiseSystem(hp(3, 0, 1, 0, 0), hp(3, 0, 0, 0, 1))  # x^2 y / y^3
    upper, lower = (_make_field(p, reverse=False) for p in (sys.upper, sys.lower))
    # upper: xdot = -y - x^2, ydot = x + 2xy
    xd, yd = upper(0.0, 0.5, 0.2)
    assert math.isclose(xd, -0.2 - 0.25, rel_tol=1e-15)
    assert math.isclose(yd, 0.5 + 2 * 0.5 * 0.2, rel_tol=1e-15)
    # lower: xdot = -y - 3y^2, ydot = x
    xd, yd = lower(0.0, 0.5, -0.2)
    assert math.isclose(xd, 0.2 - 3 * 0.04, rel_tol=1e-14)
    assert math.isclose(yd, 0.5, rel_tol=1e-15)
    # the lower transit runs the reversed field
    assert _make_field(sys.lower, reverse=True)(0.0, 0.5, -0.2) == (-xd, -yd)
    # rotation is counterclockwise near the origin: at (r, 0+) ydot > 0
    assert upper(0.0, 0.01, 0.0)[1] > 0


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

    def test_quadratic_side_is_all_or_nothing(self):
        # the speed 1 + 2 g is radius free: positive everywhere, or the
        # annulus is empty from the angle of the minimum on
        sys = PiecewiseSystem(hp(2, 1, 0, 0), hp(2, -1, 0, 0))
        up = annulus_bound(sys, "upper")
        assert not up.bounded and up.theta_star is None
        lo = annulus_bound(sys, "lower")
        assert lo.r_star == 0.0
        assert lo.theta_star == profile_min(sys.lower, 0.0, 2 * math.pi)[1]
        assert start_radius_cap(sys, "upper") == math.inf
        assert start_radius_cap(sys, "lower") == 0.0


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

    @pytest.mark.parametrize("seed", range(3))
    def test_root_input_is_the_floats_times_one_power_of_two(self, seed):
        # np.roots reads ratios to the leading coefficient only, so inputs in
        # the normal float range give the roots of the unscaled floats
        rng = random.Random(seed)
        for _ in range(100):
            cs = [F(rng.randint(-9, 9), rng.randint(1, 9)) * F(10) ** rng.randint(-150, 150)
                  for _ in range(rng.randint(2, 8))]
            plain, scaled = [float(c) for c in cs], _scaled_floats(cs)
            top = max(map(abs, scaled))
            if not top:
                assert not any(cs)
                continue
            assert 0.5 <= top < 2.0
            shift = math.frexp(top)[1] - math.frexp(max(map(abs, plain)))[1]
            assert scaled == [math.ldexp(v, shift) for v in plain]

    def test_root_input_drops_what_leaves_the_float_range(self):
        assert _scaled_floats([F(10) ** 200, 0, 0, F(10) ** -200]) == [
            float(F(10) ** 200 / 2 ** 664), 0.0, 0.0, 0.0]


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

    def test_cap_solves_the_axis_energy_equation(self, center_suite, noncenter_suite):
        # the root of r^2 + 2 a0 r^d = rc^2 (d - 2) / d below rc, to 1 ulp
        # of a 40-digit root for the same rc
        systems = [entry[0] for entry in center_suite.values()] + list(noncenter_suite.values())
        checked = 0
        for sys in systems:
            for side in ("upper", "lower"):
                p = sys.side(side)
                if p.degree == 2 or p.is_zero():
                    continue
                d, a0 = p.degree, mpmath.mpf(p.axis_value.numerator) / p.axis_value.denominator
                for rng in ("transit", "full"):
                    cap = start_radius_cap(sys, side, rng)
                    if not math.isfinite(cap):
                        continue
                    rc = annulus_bound(sys, side, rng).r_star
                    with mpmath.workdps(40):
                        h2 = mpmath.mpf(rc * rc * (d - 2) / d)
                        root = mpmath.findroot(lambda r: r * r + 2 * a0 * r ** d - h2, cap)
                        assert 0 < root < rc
                    assert abs(cap - root) <= 2.3e-16 * root, (sys, side, rng, cap, root)
                    checked += 1
        assert checked == 50

    @pytest.mark.parametrize("p", [hp(3, -1, 0, 0, 0), hp(4, -1, 0, 0, 0, 0),
                                   hp(5, -2, 0, 1, 0, 0, 0)], ids=["-x3", "-x4", "-2x5+x3y2"])
    def test_cap_at_a_profile_minimum_on_the_axis_is_the_bound(self, p):
        # the profile is least at angle 0 (2 pi on the lower half circle),
        # where it is a0: the level equation has a double root at rc, which
        # the cap returns exactly instead of a root blurred by rounding
        for sys, side in ((PiecewiseSystem(p, zero(3)), "upper"),
                          (PiecewiseSystem(zero(3), p), "lower")):
            for rng in ("transit", "full"):
                assert start_radius_cap(sys, side, rng) == annulus_bound(sys, side, rng).r_star

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
