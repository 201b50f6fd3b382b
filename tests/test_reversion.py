import math
from fractions import Fraction as F

import pytest

from pwperiod import (
    CoefficientTable,
    ParamPoly,
    build_coefficient_table,
    check_sparsity,
    period_coefficient,
    reversion_oracle,
)
from pwperiod.reversion import binom_linear


class TestParamPoly:
    def test_trimming_and_degree(self):
        assert ParamPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert ParamPoly((0, 0)).is_zero()
        assert ParamPoly().degree() == -1
        assert ParamPoly((0, 0, F(1, 3))).degree() == 2
        assert ParamPoly().leading_coefficient() == 0

    def test_evaluation_is_horner(self):
        p = ParamPoly((1, -2, 3))  # 1 - 2n + 3n^2
        assert p(0) == 1
        assert p(2) == 9
        assert p(F(1, 2)) == F(3, 4)

    def test_arithmetic(self):
        a = ParamPoly((1, 1))
        b = ParamPoly((0, 2, 1))
        assert a + b == ParamPoly((1, 3, 1))
        assert b - a == ParamPoly((-1, 1, 1))
        assert a * b == ParamPoly((0, 2, 3, 1))
        assert a * 0 == ParamPoly()
        assert 3 * a == ParamPoly((3, 3))
        assert a - a == ParamPoly()
        assert ParamPoly((5,)) == 5

    def test_constant_and_variable(self):
        n = ParamPoly.variable()
        assert (n * n + ParamPoly.constant(1))(3) == 10


def test_binom_linear_matches_comb():
    # C(a n + b, k) at integer points
    for k in range(6):
        p = binom_linear(1, 1, k)  # C(n+1, k)
        for n in range(2, 9):
            assert p(n) == math.comb(n + 1, k)
    assert binom_linear(2, -1, 0) == 1
    assert binom_linear(1, 0, 2) == ParamPoly((0, F(-1, 2), F(1, 2)))


# frozen radius-series coefficient polynomials, lowest power of n first
GOLDEN_RADIUS = {
    1: ParamPoly((-1,)),
    2: ParamPoly((F(1, 2), 1)),
    3: ParamPoly((0, -1, F(-3, 2))),
    4: ParamPoly((F(-1, 8), F(-1, 6), 2, F(8, 3))),
}

# frozen half-period coefficient polynomials
GOLDEN_PERIOD = {
    1: ParamPoly((-1, -1)),
    2: ParamPoly((0, 2, 2)),
    3: ParamPoly((F(1, 2), F(1, 2), F(-9, 2), F(-9, 2))),
    4: ParamPoly((0, F(-8, 3), F(-8, 3), F(32, 3), F(32, 3))),
}


def test_golden_radius_rows():
    table = build_coefficient_table(4)
    for j, expected in GOLDEN_RADIUS.items():
        assert table.radius(j) == expected


def test_golden_period_rows():
    table = build_coefficient_table(4)
    for j, expected in GOLDEN_PERIOD.items():
        assert table.period(j) == expected


def test_radius_against_oracle_small():
    table = build_coefficient_table(6)
    for n in (2, 3, 4):
        oracle = reversion_oracle(6, n)
        for j in range(1, 7):
            assert table.radius(j)(n) == oracle[j - 1], (n, j)


def test_oracle_spot_values():
    # beta_2 for n=3 solves the quartic level equation by hand: 7/2 at j=2
    assert reversion_oracle(2, 3) == [F(-1), F(7, 2)]
    # lambda_4(2) from the printed closed form
    assert reversion_oracle(4, 2)[3] == F(231, 8)
    assert GOLDEN_RADIUS[4](2) == F(231, 8)


def test_sparsity_holds():
    for n in range(2, 7):
        assert check_sparsity(6, n)


def test_defining_equation_is_satisfied():
    """Substitute the table back into 2S + S^2 + 2u(1+S)^(n+1) = 0.

    Completely independent reconstruction: plain Fraction series arithmetic
    in the scaled variable u, truncated at jmax.
    """
    jmax = 8
    table = build_coefficient_table(jmax)

    def series_mul(a, b):
        out = [F(0)] * (jmax + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for k, bk in enumerate(b):
                if i + k <= jmax and bk:
                    out[i + k] += ai * bk
        return out

    for n in range(2, 7):
        s = [F(0)] * (jmax + 1)
        for j in range(1, jmax + 1):
            s[j] = table.radius(j)(n)
        one_plus_s = [F(1)] + s[1:]
        power = [F(1)] + [F(0)] * jmax
        for _ in range(n + 1):
            power = series_mul(power, one_plus_s)
        residue = [2 * c for c in s]
        for i, c in enumerate(series_mul(s, s)):
            residue[i] += c
        for i in range(jmax):
            residue[i + 1] += 2 * power[i]
        assert residue[1:] == [F(0)] * jmax, f"n={n}"


def test_degree_and_sign_law():
    jmax = 10
    table = build_coefficient_table(jmax)
    for j in range(1, jmax + 1):
        lam = table.radius(j)
        assert lam.degree() == j - 1
        lead = lam.leading_coefficient()
        assert (lead > 0) == (j % 2 == 0), f"j={j}: leading {lead}"
        # the period row is one degree higher with leading coefficient j*lead
        per = table.period(j)
        assert per.degree() == j
        assert per.leading_coefficient() == j * lead


def test_closed_form_against_oracle_deep():
    """period_coefficient and the radius rows against the undetermined-coefficient
    solve, through j = 16: period_j = ((j(n-1)+2)/2) (2 beta_j + sum beta_i beta_(j-i))."""
    jmax = 16
    table = build_coefficient_table(jmax)
    for n in range(2, 12):
        beta = reversion_oracle(jmax, n)
        for j in range(1, jmax + 1):
            square = sum((beta[i - 1] * beta[j - i - 1] for i in range(1, j)), F(0))
            expected = F(j * (n - 1) + 2, 2) * (2 * beta[j - 1] + square)
            assert period_coefficient(j, n) == expected, (n, j)
            assert table.radius(j)(n) == beta[j - 1], (n, j)


def test_weight_table_structure():
    table = build_coefficient_table(5)
    for j in range(1, 6):
        # the a0-free weight is the period coefficient itself
        assert table.weight(j, j) == table.period(j)
    # first full row beyond the diagonal
    assert table.weight(2, 1) == ParamPoly((1, 0, -1))  # -(n+1)(n-1)
    assert table.weight(3, 2) == ParamPoly((0, -4, 0, 4))  # 4n(n-1)(n+1)


def test_table_index_errors():
    table = build_coefficient_table(3)
    with pytest.raises(IndexError):
        table.radius(0)
    with pytest.raises(IndexError):
        table.period(4)
    with pytest.raises(IndexError):
        table.weight(2, 3)


def test_input_validation():
    with pytest.raises(ValueError):
        build_coefficient_table(0)
    with pytest.raises(ValueError):
        reversion_oracle(4, 1)
    with pytest.raises(ValueError):
        reversion_oracle(0, 3)
    with pytest.raises(ValueError):
        binom_linear(1, 1, -1)
