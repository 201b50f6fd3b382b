"""Closed-form coefficients of the level-curve radius and the half period.

The level curve of the side with nonlinearity p of degree n + 1 through the
energy parameter h is h^2 = r^2 + 2 a r^(n+1), where a = g(theta) is the
circle profile.  With u = a h^(n-1) and w = r / h it reads

    w^2 + 2 u w^(n+1) = 1,   i.e.   V = 1 + z V^t  for  V = w^(-2),

with z = 2u and t = (1 - n)/2.  The root with V(0) = 1 is the generalized
binomial series B_t(z), whose powers have the closed form

    B_t(z)^s = sum_k  C(t k + s, k) * s / (t k + s) * z^k

(Graham, Knuth & Patashnik, *Concrete Mathematics*, section 5.4).  Taking
s = -1/2 gives the radius series r = h (1 + sum_j lam_j u^j) with

    lam_j(n) = (-2)^j / (2 j) * C((j(n+1) - 1)/2, j - 1),

and s = -1 gives w^2 = 1 + sum_j e_j u^j.  The half period is the energy
derivative of the enclosed area, int r^2 / 2 dtheta, divided by h, so the
coefficient of c_j h^(j(n-1)), c_j = int g^j, is

    period_j(n) = ((j(n-1) + 2) / 2) * e_j = (-2)^j * C(j(n+1)/2, j),

a product of j factors linear in n.  Substituting the axis relation
h(r0) = r0 (1 + 2 a0 r0^(n-1))^(1/2) stays on the same exponent grid, and the
weight of a0^(j-i) c_i in the coefficient of r0^(j(n-1)) is

    period_i(n) * 2^(j-i) * C(i(n-1)/2, j-i).

``period_coefficient`` evaluates period_j at a concrete n in O(j) rational
operations; ``CoefficientTable`` returns the same coefficients, and lam_j and
the weights, as polynomials in n.  ``reversion_oracle`` solves the level
equation at a concrete n by undetermined coefficients, a route that shares
nothing with the closed form, so each can check the other.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .trigmoments import Rational, as_fraction

__all__ = [
    "ParamPoly",
    "CoefficientTable",
    "build_coefficient_table",
    "build_lambda_table",
    "period_coefficient",
    "reversion_oracle",
    "check_sparsity",
]


class ParamPoly:
    """Polynomial in the integer degree parameter, with rational coefficients.

    Coefficients are stored lowest power first and trailing zeros are
    trimmed, so equality is structural.  The zero polynomial has degree -1.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[Rational] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def constant(cls, value: Rational) -> "ParamPoly":
        return cls((as_fraction(value),))

    @classmethod
    def variable(cls) -> "ParamPoly":
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        return len(self._coeffs) - 1

    def leading_coefficient(self) -> Fraction:
        return self._coeffs[-1] if self._coeffs else Fraction(0)

    def __call__(self, n: Rational) -> Fraction:
        n = as_fraction(n)
        out = Fraction(0)
        for c in reversed(self._coeffs):
            out = out * n + c
        return out

    def __add__(self, other) -> "ParamPoly":
        other = _as_poly(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ParamPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "ParamPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "ParamPoly":
        return _as_poly(other) + (-self)

    def __neg__(self) -> "ParamPoly":
        return ParamPoly(tuple(-c for c in self._coeffs))

    def __mul__(self, other) -> "ParamPoly":
        if isinstance(other, (int, Fraction)):
            return ParamPoly(tuple(c * other for c in self._coeffs))
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return ParamPoly()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                if b:
                    out[i + j] += a * b
        return ParamPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, ParamPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == ParamPoly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"ParamPoly({list(self._coeffs)!r})"


def _as_poly(value) -> ParamPoly:
    if isinstance(value, ParamPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return ParamPoly((value,))
    raise TypeError(f"cannot coerce {type(value).__name__} to ParamPoly")


_Factors = tuple[Fraction, list[tuple[Fraction, Fraction]]]  # scalar, (const, slope) pairs


def _linear_factors(a: Rational, b: Rational, k: int) -> _Factors:
    """C(a*n + b, k) as 1/k! and the k factors (b - t) + a*n."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    a, b = as_fraction(a), as_fraction(b)
    return Fraction(1, factorial(k)), [(b - t, a) for t in range(k)]


def _expand(scalar: Fraction, factors: list[tuple[Fraction, Fraction]]) -> ParamPoly:
    out = ParamPoly((scalar,))
    for const, slope in factors:
        out = out * ParamPoly((const, slope))
    return out


def binom_linear(a: Rational, b: Rational, k: int) -> ParamPoly:
    """Generalized binomial C(a*n + b, k) as a ParamPoly of degree k."""
    return _expand(*_linear_factors(a, b, k))


def _period_factors(j: int) -> _Factors:
    """period_j(n) = (-2)^j C(j(n+1)/2, j) as a scalar and j linear factors."""
    if j < 1:
        raise ValueError("reduced index must be at least 1")
    scalar, factors = _linear_factors(Fraction(j, 2), Fraction(j, 2), j)
    return (-2) ** j * scalar, factors


def period_coefficient(j: int, n: Rational) -> Fraction:
    """Coefficient of c_j h^(j(n-1)) in the half-period series, at concrete n."""
    n = as_fraction(n)
    out, factors = _period_factors(j)
    for const, slope in factors:
        out *= const + slope * n
    return out


class CoefficientTable:
    """Coefficient polynomials in n for the level-radius and period series.

    ``radius(j)`` is the polynomial multiplying a^j h^(j(n-1)) in the
    reverted radius series, ``period(j)`` the one multiplying c_j h^(j(n-1))
    in the half-period series in h, and ``weight(j, i)`` the one multiplying
    a0^(j-i) c_i in the coefficient of r0^(j(n-1)) after substituting h(r0).
    Indices are the reduced index j, starting at 1.  Each entry is expanded
    from its closed form when asked for.
    """

    def __init__(self, jmax: int):
        if jmax < 1:
            raise ValueError("jmax must be at least 1")
        self.jmax = jmax

    def _check_index(self, j: int) -> None:
        if not 1 <= j <= self.jmax:
            raise IndexError(f"reduced index {j} outside 1..{self.jmax}")

    def radius(self, j: int) -> ParamPoly:
        self._check_index(j)
        return binom_linear(Fraction(j, 2), Fraction(j - 1, 2), j - 1) * Fraction((-2) ** j, 2 * j)

    def period(self, j: int) -> ParamPoly:
        self._check_index(j)
        return _expand(*_period_factors(j))

    def weight(self, j: int, i: int) -> ParamPoly:
        self._check_index(j)
        if not 1 <= i <= j:
            raise IndexError(f"weight index {i} outside 1..{j}")
        return self.period(i) * binom_linear(Fraction(i, 2), Fraction(-i, 2), j - i) * 2 ** (j - i)


def build_coefficient_table(jmax: int = 8) -> CoefficientTable:
    """Coefficient tables up to reduced index jmax."""
    return CoefficientTable(jmax)


def _dict_mul(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            key = pa + pb
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def _check_oracle_args(jmax: int, n: int) -> None:
    if n < 2:
        raise ValueError("n must be at least 2")
    if jmax < 1:
        raise ValueError("jmax must be at least 1")


def _revert_concrete(jmax: int, n: int) -> list[dict[int, Fraction]]:
    """Solve the level equation at concrete n by undetermined coefficients.

    The axis coefficient is kept formal: series coefficients are polynomials
    in a, represented as dicts {power of a: Fraction}.  Entry k-1 of the
    returned list is the coefficient of h^(k+1) in r(h), i.e. beta_k.
    Nothing here assumes the sparsity pattern; it comes out of the solve.
    """
    _check_oracle_args(jmax, n)
    klimit = jmax * (n - 1)
    c = n + 1
    betas: list[dict[int, Fraction]] = []                # beta_1 .. beta_klimit
    powers: list[dict[int, Fraction]] = [{0: Fraction(1)}]  # (1+S)^(n+1), coeff of h^k
    for k in range(1, klimit + 1):
        idx = k - (n - 1)
        if idx >= 0 and idx >= len(powers):
            # extend the power series via the logarithmic-derivative recurrence
            for kk in range(len(powers), idx + 1):
                acc: dict[int, Fraction] = {}
                for i in range(1, kk + 1):
                    scale = Fraction((c + 1) * i - kk, kk)
                    for pw, cf in _dict_mul(betas[i - 1], powers[kk - i]).items():
                        acc[pw] = acc.get(pw, Fraction(0)) + scale * cf
                powers.append({p: v for p, v in acc.items() if v != 0})
        rhs: dict[int, Fraction] = {}
        for i in range(1, k):
            for pw, cf in _dict_mul(betas[i - 1], betas[k - i - 1]).items():
                rhs[pw] = rhs.get(pw, Fraction(0)) + cf
        if idx >= 0:
            for pw, cf in powers[idx].items():
                # the 2 a h^(n-1) factor shifts the a power up by one
                rhs[pw + 1] = rhs.get(pw + 1, Fraction(0)) + 2 * cf
        betas.append({pw: -cf / 2 for pw, cf in rhs.items() if cf != 0})
    return betas


def reversion_oracle(jmax: int, n: int) -> list[Fraction]:
    """Independent reversion at concrete n; entry j-1 is beta_{j(n-1)} / a^j.

    Raises ValueError if the solve produces any coefficient off the
    (n-1)-grid, or a grid coefficient whose a-power is not exactly j.
    """
    betas = _revert_concrete(jmax, n)
    out: list[Fraction] = []
    for k, poly in enumerate(betas, start=1):
        if k % (n - 1) != 0:
            if poly:
                raise ValueError(
                    f"reversion produced unexpected off-grid coefficient at h^{k + 1}"
                )
            continue
        j = k // (n - 1)
        stray = [pw for pw in poly if pw != j]
        if stray:
            raise ValueError(
                f"coefficient at h^{k + 1} carries a-powers {sorted(stray)}, expected only {j}"
            )
        out.append(poly.get(j, Fraction(0)))
    return out


def check_sparsity(jmax: int, n: int) -> bool:
    """True when every off-grid coefficient of the reverted series vanishes."""
    _check_oracle_args(jmax, n)
    try:
        reversion_oracle(jmax, n)
    except ValueError:
        return False
    return True


# symbol-style alias for the same operation
build_lambda_table = build_coefficient_table
