import copy
import math
import pickle
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import pwperiod

from pwperiod import (
    FULL,
    LOWER,
    PI,
    TRIG_ZERO,
    TWO_PI,
    UPPER,
    HomogeneousPoly,
    PiecewiseSystem,
    TrigValue,
    as_fraction,
    first_obstruction,
    profile_power_integral,
    trig_moment,
)
from pwperiod.systems import annulus_bound
from pwperiod.trigmoments import _compiled_form

from conftest import CENTER_SUITE, NONCENTER_SUITE, hp


def test_as_fraction_accepts_exact_inputs():
    assert as_fraction(3) == F(3)
    assert as_fraction("2/7") == F(2, 7)
    assert as_fraction(F(5, 2)) == F(5, 2)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)


class TestTrigValue:
    def test_parts_and_equality(self):
        v = TrigValue(F(1, 3), F(2, 5))
        assert v.rat_part == F(1, 3)
        assert v.pi_part == F(2, 5)
        assert v == TrigValue("1/3", "2/5")
        assert TrigValue(4) == 4
        assert TrigValue(0, 1) != 0

    def test_arithmetic(self):
        a = TrigValue(1, 2)
        b = TrigValue(F(1, 2), -1)
        assert a + b == TrigValue(F(3, 2), 1)
        assert a - b == TrigValue(F(1, 2), 3)
        assert -a == TrigValue(-1, -2)
        assert 1 + a == TrigValue(2, 2)
        assert 1 - a == TrigValue(0, -2)
        assert a * F(1, 2) == TrigValue(F(1, 2), 1)
        assert F(3) * a == TrigValue(3, 6)
        assert a / 2 == TrigValue(F(1, 2), 1)

    def test_rational_trigvalue_products_allowed(self):
        rat = TrigValue(F(2, 3))
        assert rat * PI == TrigValue(0, F(2, 3))
        assert PI * rat == TrigValue(0, F(2, 3))

    def test_pi_squared_is_refused(self):
        with pytest.raises(TypeError):
            PI * PI
        with pytest.raises(TypeError):
            TrigValue(1, 1) * TrigValue(0, 2)

    def test_float_and_str(self):
        v = TrigValue(F(1, 2), F(3, 4))
        assert math.isclose(float(v), 0.5 + 0.75 * math.pi, rel_tol=1e-15)
        assert str(v) == "1/2 + 3/4*pi"
        assert str(TRIG_ZERO) == "0 + 0*pi"
        assert float(TWO_PI) == 2 * math.pi

    def test_str_prints_past_the_int_digit_limit(self):
        # 5000 digits, past the interpreter's default limit of 4300
        n = 7 ** 5916
        value = TrigValue(F(-n, 3), F(1, n))
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            expected = f"{F(-n, 3)} + {F(1, n)}*pi"
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        assert len(expected) > 10000
        assert str(value) == expected

    def test_hashable(self):
        assert len({TrigValue(1, 2), TrigValue(1, 2), TrigValue(2, 1)}) == 2


# hand-computed moments; upper means [0, pi], lower [pi, 2pi]
KNOWN_MOMENTS = [
    (0, 0, FULL, TrigValue(0, 2)),
    (0, 0, UPPER, TrigValue(0, 1)),
    (2, 0, FULL, TrigValue(0, 1)),
    (0, 2, FULL, TrigValue(0, 1)),
    (1, 0, FULL, TRIG_ZERO),
    (1, 1, FULL, TRIG_ZERO),
    (2, 2, FULL, TrigValue(0, F(1, 4))),
    (4, 0, FULL, TrigValue(0, F(3, 4))),
    (6, 0, FULL, TrigValue(0, F(5, 8))),
    (4, 4, FULL, TrigValue(0, F(3, 64))),
    (0, 1, UPPER, TrigValue(2)),
    (0, 1, LOWER, TrigValue(-2)),
    (2, 1, UPPER, TrigValue(F(2, 3))),
    (2, 1, LOWER, TrigValue(F(-2, 3))),
    (0, 3, UPPER, TrigValue(F(4, 3))),
    (1, 0, UPPER, TRIG_ZERO),
    (1, 2, UPPER, TRIG_ZERO),
    (4, 1, UPPER, TrigValue(F(2, 5))),
    (2, 3, UPPER, TrigValue(F(4, 15))),
    (2, 0, UPPER, TrigValue(0, F(1, 2))),
    (2, 0, LOWER, TrigValue(0, F(1, 2))),
]


@pytest.mark.parametrize("a,b,rng,expected", KNOWN_MOMENTS)
def test_trig_moment_known_values(a, b, rng, expected):
    assert trig_moment(a, b, rng) == expected


def test_trig_moment_range_consistency():
    # exhaustive over a small grid: the three ranges must agree exactly
    for a in range(13):
        for b in range(13):
            full = trig_moment(a, b, FULL)
            upper = trig_moment(a, b, UPPER)
            lower = trig_moment(a, b, LOWER)
            assert upper + lower == full
            if a % 2 or b % 2:
                assert full == TRIG_ZERO
            if b % 2 == 0:
                # the integrand is pi-periodic up to sign of cos^a
                assert lower == upper
                if a % 2:
                    assert upper == TRIG_ZERO
            else:
                assert lower == -upper


def test_trig_moment_against_quadrature():
    for a in range(0, 17, 2):
        for b in range(0, 18):
            exact = float(trig_moment(a, b, UPPER))
            num, _ = quad(lambda t: math.cos(t) ** a * math.sin(t) ** b, 0, math.pi)
            assert abs(exact - num) < 1e-12


def test_trig_moment_rejects_bad_input():
    with pytest.raises(ValueError):
        trig_moment(-1, 0)
    with pytest.raises(ValueError):
        trig_moment(0, 0, "half")


class TestHomogeneousPoly:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            HomogeneousPoly(1, (1, 1))
        with pytest.raises(ValueError):
            HomogeneousPoly(3, (1, 2))
        with pytest.raises(TypeError):
            HomogeneousPoly(2, (0.5, 0, 0))

    def test_axis_value_and_zero(self):
        p = hp(3, "1/2", 0, 0, 0)
        assert p.axis_value == F(1, 2)
        assert p(1.0, 0.0) == 0.5
        assert not p.is_zero()
        assert HomogeneousPoly.zero(4).is_zero()
        assert HomogeneousPoly.zero(4).degree == 4

    def test_evaluation_matches_monomials(self):
        p = hp(3, 2, -1, 0, 3)  # 2x^3 - x^2 y + 3y^3
        x, y = 1.7, -0.6
        direct = 2 * x**3 - x**2 * y + 3 * y**3
        assert math.isclose(p(x, y), direct, rel_tol=1e-14)
        t = 2.31
        assert math.isclose(p.profile(t), p(math.cos(t), math.sin(t)), rel_tol=1e-14)

    def test_power_matches_float_power(self):
        p = hp(3, 1, 0, -2, 1)
        cubed = p.power(3)
        assert len(cubed) == 10
        x, y = 0.8, 0.55
        val = sum(float(c) * x ** (9 - i) * y**i for i, c in enumerate(cubed))
        assert math.isclose(val, p(x, y) ** 3, rel_tol=1e-13)
        assert p.power(0) == (F(1),)

    def test_moments_far_beyond_the_recursion_limit_keep_one_power(self, monkeypatch):
        # c_j up to j = 2000 is a loop of 2000 integer convolutions, and the
        # memo keeps the moments and the last power x^4000 only
        times = pwperiod.trigmoments._times
        calls = []
        monkeypatch.setattr(pwperiod.trigmoments, "_times",
                            lambda a, b: calls.append(1) or times(a, b))
        p = hp(2, 1, 0, 0)
        c = profile_power_integral(p, 2000, FULL)
        assert len(calls) == 2000
        # the full moment of cos^4000 is 2 pi 3999!!/4000!!
        assert c == TrigValue(0, 2 * F(math.prod(range(1, 4000, 2)), math.prod(range(2, 4001, 2))))
        assert list(p._memo) == ["moments"]
        moments, last = p._memo["moments"]
        assert len(moments) == 2001 and last == (1,) + (0,) * 4000
        assert profile_power_integral(p, 1999, UPPER) == TrigValue(0, moments[1999])
        assert len(calls) == 2000

    def test_partials_are_exact(self):
        p = hp(4, 1, 2, 3, 4, 5)
        # d/dx sum c_i x^(4-i) y^i = sum (4-i) c_i x^(3-i) y^i
        assert p.partial_x_coeffs() == (F(4), F(6), F(6), F(4))
        assert p.partial_y_coeffs() == (F(2), F(6), F(12), F(20))

    def test_scaled(self):
        p = hp(3, 0, 1, 0, 0)
        assert p.scaled(F(1, 2)).coeffs == (0, F(1, 2), 0, 0)
        assert p.scaled(0).is_zero()

    def test_coefficient_beyond_float_range_keeps_the_exact_layer(self):
        # the float coefficients are built on first numeric use only
        p = HomogeneousPoly(2, [F(10**400), 0, 0])
        assert profile_power_integral(p, 1, FULL) == TrigValue(0, F(10**400))
        q = HomogeneousPoly(3, [0, F(10**400), 0, 0])
        system = PiecewiseSystem(q, hp(3, 0, 0, 0, 1))
        assert first_obstruction(system, 4) == (1, TrigValue(-2 * 10**400 + 4))
        for poly in (p, q):
            with pytest.raises(OverflowError):
                poly(0.5, 0.5)
            with pytest.raises(OverflowError):
                poly.gradient(0.5, 0.5)

    def test_gradient_beyond_float_range_raises_on_first_use(self):
        # 1e308 fits a float, its x-derivative coefficient 2e308 does not
        p = hp(3, 0, F(10**308), 0, 0)
        assert p.power(2)[2] == F(10**616)
        for evaluate in (p, p.gradient):
            with pytest.raises(OverflowError):
                evaluate(0.5, 0.5)


def test_profile_power_integral_known():
    x2y = hp(3, 0, 1, 0, 0)
    assert profile_power_integral(x2y, 1, UPPER) == TrigValue(F(2, 3))
    assert profile_power_integral(x2y, 1, FULL) == TRIG_ZERO
    x4 = hp(4, 1, 0, 0, 0, 0)
    assert profile_power_integral(x4, 1, FULL) == TrigValue(0, F(3, 4))
    assert profile_power_integral(x4, 1, UPPER) == TrigValue(0, F(3, 8))
    y3 = hp(3, 0, 0, 0, 1)
    assert profile_power_integral(y3, 2, FULL) == TrigValue(0, F(5, 8))
    # power zero integrates the constant 1
    assert profile_power_integral(x2y, 0, FULL) == TWO_PI
    assert profile_power_integral(x2y, 0, UPPER) == PI
    assert profile_power_integral(HomogeneousPoly.zero(3), 2, FULL) == TRIG_ZERO


def _times_fractions(a, b):
    """Fraction convolution: the route the integer moments replaced."""
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for k, bk in enumerate(b):
            out[i + k] += ai * bk
    return out


def _oracle_sides():
    systems = {name: s for name, (s, _) in CENTER_SUITE.items()} | NONCENTER_SUITE
    sides = {
        "dense-quintic": hp(5, F(1, 2), F(-2, 3), 3, F(5, 7), F(-1, 4), F(9, 11)),
        "1e400x2": HomogeneousPoly(2, [F(10**400), 0, 0]),
        "1e400x2y": HomogeneousPoly(3, [0, F(10**400), 0, 0]),
        "1e308x2y": hp(3, 0, F(10**308), 0, 0),
    }
    for name, s in systems.items():
        for side in ("upper", "lower"):
            if s.side(side) not in sides.values():
                sides[f"{name}-{side}"] = s.side(side)
    return sides


ORACLE_SIDES = _oracle_sides()


@pytest.mark.parametrize("name", ORACLE_SIDES)
def test_profile_power_integral_matches_the_fraction_oracle(name):
    # c_j as the sum of trig_moment over the Fraction coefficients of p^j,
    # on every range; a half-range c_j is rational for odd j*d, a multiple
    # of pi for even j*d
    p = ORACLE_SIDES[name]
    power = [F(1)]
    for j in range(31):
        big_d = j * p.degree
        for rng in (FULL, UPPER, LOWER):
            want = TRIG_ZERO
            for i, c in enumerate(power):
                if c:
                    want = want + trig_moment(big_d - i, i, rng) * c
            got = profile_power_integral(p, j, rng)
            assert got == want, (j, rng)
            assert (got.pi_part if big_d % 2 else got.rat_part) == 0
        power = _times_fractions(power, p.coeffs)


def test_profile_power_integral_against_quadrature():
    p = hp(3, 1, -1, F(1, 2), 2)
    for j in range(1, 5):
        exact = float(profile_power_integral(p, j, UPPER))
        num, _ = quad(lambda t: p.profile(t) ** j, 0, math.pi, limit=100)
        assert abs(exact - num) < 1e-10


def reference_form(coeffs, x, y):
    """The loop the generated forms replaced, kept as their reference."""
    d = len(coeffs) - 1
    xs = [1.0] * (d + 1)
    for i in range(1, d + 1):
        xs[i] = xs[i - 1] * x
    total = 0.0
    yp = 1.0
    for i, c in enumerate(coeffs):
        if c:
            total += c * xs[d - i] * yp
        yp *= y
    return total


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    both_nan = np.isnan(a) & np.isnan(b)
    return a.shape == b.shape and bool(np.all(both_nan | (a.view(np.uint64) == b.view(np.uint64))))


_coeff_float = st.one_of(st.just(0.0), st.floats(-1e6, 1e6))
_point = st.floats(-4.0, 4.0)


@st.composite
def float_form(draw):
    degree = draw(st.integers(2, 12))
    return tuple(draw(st.lists(_coeff_float, min_size=degree + 1, max_size=degree + 1)))


class TestCompiledForms:
    @given(coeffs=float_form(), x=_point, y=_point,
           xs=st.lists(_point, min_size=1, max_size=8), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_the_reference_loop(self, coeffs, x, y, xs, data):
        form = _compiled_form(coeffs)
        assert same_bits(form(x, y), reference_form(coeffs, x, y))
        assert same_bits(form(np.float64(x), np.float64(y)), reference_form(coeffs, x, y))
        ys = data.draw(st.lists(_point, min_size=len(xs), max_size=len(xs)))
        xa, ya = np.array(xs), np.array(ys)
        got = form(xa, ya)
        assert same_bits(got, reference_form(coeffs, xa, ya))
        # an all-zero form gives the scalar 0.0, as the loop did
        got = np.broadcast_to(got, xa.shape)
        assert same_bits(got, [reference_form(coeffs, u, v) for u, v in zip(xs, ys)])
        # HomogeneousPoly evaluates through the same forms
        p = HomogeneousPoly(len(coeffs) - 1, [F(c) for c in coeffs])
        values, px, py = p.float_coeffs()
        assert values == coeffs
        assert same_bits(p(x, y), reference_form(coeffs, x, y))
        assert same_bits(p.gradient(x, y), (reference_form(px, x, y), reference_form(py, x, y)))

    def test_all_zero_form(self):
        form = _compiled_form((0.0, 0.0, 0.0))
        assert same_bits(form(0.3, -0.2), 0.0)
        assert same_bits(HomogeneousPoly.zero(4).gradient(1.5, 2.0), (0.0, 0.0))

    def test_degree_1000_evaluates(self):
        p = HomogeneousPoly(1000, [F((-1) ** i, i + 1) for i in range(1001)])
        x, y = 0.75, -0.5
        values, px, py = p.float_coeffs()
        assert same_bits(p(x, y), reference_form(values, x, y))
        assert same_bits(p.gradient(x, y), (reference_form(px, x, y), reference_form(py, x, y)))
        xa, ya = np.array([x, 0.5, 1.0]), np.array([y, 0.25, 0.0])
        assert same_bits(p(xa, ya), reference_form(values, xa, ya))

    def test_pickle_and_deepcopy_after_numeric_use(self):
        p = hp(3, 0, 1, 0, 0)
        system = PiecewiseSystem(p, hp(3, 0, 0, 0, 1))
        value, grad = p(0.3, 0.4), p.gradient(0.3, 0.4)
        bound = annulus_bound(system, "upper")  # fills the profile memo
        for clone in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert clone == p
            assert same_bits(clone(0.3, 0.4), value)
            assert same_bits(clone.gradient(0.3, 0.4), grad)
        again = pickle.loads(pickle.dumps(system))
        assert annulus_bound(again, "upper") == bound

    def test_reference_loop_is_gone_from_the_package(self):
        sources = Path(pwperiod.__file__).parent.glob("*.py")
        assert not [f.name for f in sources if "_eval_form" in f.read_text(encoding="utf-8")]
