"""Exact trigonometric moments of homogeneous polynomials on the unit circle.

Every quantity in this module is a rational linear combination q0 + q1*pi,
held exactly as a pair of ``Fraction`` values.  The downstream series algebra
only ever adds such values and scales them by rationals, so a pi^2 term can
never legitimately appear; ``TrigValue`` enforces this by refusing to multiply
two values that both carry a pi part.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence, TypeVar, Union

Rational = Union[int, Fraction, str]
T = TypeVar("T")

FULL = "full"
UPPER = "upper"
LOWER = "lower"
RANGES = (FULL, UPPER, LOWER)


def as_fraction(value: Rational) -> Fraction:
    """Coerce an exact input to Fraction.  Floats are rejected on purpose."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__!s}")


class TrigValue:
    """Exact number of the form ``rat_part + pi_part * pi``.

    Supports addition, subtraction, negation, scaling by rationals and
    division by rationals.  Multiplying two TrigValues is allowed only when
    at least one of them is purely rational; anything that would produce a
    pi^2 term raises ``TypeError`` loudly instead of silently losing
    exactness.
    """

    __slots__ = ("_rat", "_pi")

    def __init__(self, rat_part: Rational = 0, pi_part: Rational = 0):
        self._rat = as_fraction(rat_part)
        self._pi = as_fraction(pi_part)

    @property
    def rat_part(self) -> Fraction:
        return self._rat

    @property
    def pi_part(self) -> Fraction:
        return self._pi

    def is_zero(self) -> bool:
        return self._rat == 0 and self._pi == 0

    def __add__(self, other: "TrigValue | Rational") -> "TrigValue":
        other = _as_trig(other)
        return TrigValue(self._rat + other._rat, self._pi + other._pi)

    __radd__ = __add__

    def __sub__(self, other: "TrigValue | Rational") -> "TrigValue":
        other = _as_trig(other)
        return TrigValue(self._rat - other._rat, self._pi - other._pi)

    def __rsub__(self, other: "TrigValue | Rational") -> "TrigValue":
        return _as_trig(other) - self

    def __neg__(self) -> "TrigValue":
        return TrigValue(-self._rat, -self._pi)

    def __mul__(self, other) -> "TrigValue":
        if isinstance(other, TrigValue):
            if other._pi == 0:
                other = other._rat
            elif self._pi == 0:
                return TrigValue(self._rat * other._rat, self._rat * other._pi)
            else:
                raise TypeError(
                    "product of two pi-carrying TrigValues would introduce pi^2; "
                    "this has no representation here and indicates a logic error"
                )
        q = as_fraction(other)
        return TrigValue(self._rat * q, self._pi * q)

    __rmul__ = __mul__

    def __truediv__(self, other: Rational) -> "TrigValue":
        q = as_fraction(other)
        return TrigValue(self._rat / q, self._pi / q)

    def __eq__(self, other) -> bool:
        if isinstance(other, TrigValue):
            return self._rat == other._rat and self._pi == other._pi
        if isinstance(other, (int, Fraction)):
            return self._pi == 0 and self._rat == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._rat, self._pi))

    def __float__(self) -> float:
        return float(self._rat) + float(self._pi) * math.pi

    def __repr__(self) -> str:
        return f"TrigValue({self._rat!r}, {self._pi!r})"

    def __str__(self) -> str:
        return f"{self._rat} + {self._pi}*pi"


def _as_trig(value) -> TrigValue:
    if isinstance(value, TrigValue):
        return value
    return TrigValue(as_fraction(value), 0)


TRIG_ZERO = TrigValue(0, 0)
PI = TrigValue(0, 1)
TWO_PI = TrigValue(0, 2)


class HomogeneousPoly:
    """Homogeneous bivariate polynomial sum(coeffs[i] * x^(d-i) * y^i).

    ``coeffs[0]`` is the coefficient of x^d, so ``p(1, 0) == coeffs[0]``.
    Degree must be at least 2; the all-zero polynomial is permitted and can
    be detected through :meth:`is_zero`.
    """

    __slots__ = ("_degree", "_coeffs", "_floats", "_memo")

    def __init__(self, degree: int, coeffs: Sequence[Rational]):
        if not isinstance(degree, int) or degree < 2:
            raise ValueError(f"degree must be an integer >= 2, got {degree!r}")
        coeffs = tuple(as_fraction(c) for c in coeffs)
        if len(coeffs) != degree + 1:
            raise ValueError(
                f"degree {degree} needs {degree + 1} coefficients, got {len(coeffs)}"
            )
        self._degree = degree
        self._coeffs = coeffs
        self._floats = None
        self._memo = {}

    @classmethod
    def zero(cls, degree: int = 2) -> "HomogeneousPoly":
        return cls(degree, (0,) * (degree + 1))

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def axis_value(self) -> Fraction:
        """Value on the positive x-axis direction, p(1, 0)."""
        return self._coeffs[0]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self._coeffs)

    def float_coeffs(self) -> tuple[tuple[float, ...], ...]:
        """Float coefficients of p, dp/dx and dp/dy, built on first use.

        Raises OverflowError when one of them is beyond float range; the
        exact series never needs them.
        """
        if self._floats is None:
            self._floats = tuple(tuple(float(c) for c in cs) for cs in (
                self._coeffs, self.partial_x_coeffs(), self.partial_y_coeffs()))
        return self._floats

    def memo(self, key, compute: Callable[[], T]) -> T:
        """``compute()``, computed once per polynomial and ``key``.

        Holds values that depend on the polynomial alone, such as the
        minimum of its circle profile over an angle range.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def __call__(self, x: float, y: float) -> float:
        return _eval_form((self._floats or self.float_coeffs())[0], x, y)

    def gradient(self, x: float, y: float) -> tuple[float, float]:
        """Float value of (dp/dx, dp/dy) at (x, y)."""
        _, px, py = self._floats or self.float_coeffs()
        return _eval_form(px, x, y), _eval_form(py, x, y)

    def profile(self, theta: float) -> float:
        """Restriction to the unit circle, p(cos(theta), sin(theta))."""
        return self(math.cos(theta), math.sin(theta))

    def power(self, j: int) -> tuple[Fraction, ...]:
        """Coefficients of p^j in the same x^(D-i) y^i layout, D = j*degree."""
        if j < 0:
            raise ValueError("power must be nonnegative")
        out = (Fraction(1),)
        for _ in range(j):
            out = _convolve(out, self._coeffs)
        return out

    def partial_x_coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients of dp/dx, homogeneous of degree d-1."""
        d = self._degree
        return tuple((d - i) * self._coeffs[i] for i in range(d))

    def partial_y_coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients of dp/dy, homogeneous of degree d-1."""
        d = self._degree
        return tuple((i + 1) * self._coeffs[i + 1] for i in range(d))

    def scaled(self, s: Rational) -> "HomogeneousPoly":
        q = as_fraction(s)
        return HomogeneousPoly(self._degree, tuple(q * c for c in self._coeffs))

    def __eq__(self, other) -> bool:
        if isinstance(other, HomogeneousPoly):
            return self._degree == other._degree and self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._degree, self._coeffs))

    def __repr__(self) -> str:
        return f"HomogeneousPoly({self._degree}, {list(self._coeffs)!r})"


def _eval_form(coeffs: tuple[float, ...], x: float, y: float) -> float:
    """Float value of sum(coeffs[i] * x^(d-i) * y^i), skipping zero terms.

    Terms are added in index order; the ODE clock's times depend on that
    order to the last bit.
    """
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


def _convolve(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return tuple(out)


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _check_range(rng: str) -> None:
    if rng not in RANGES:
        raise ValueError(f"range must be one of {RANGES}, got {rng!r}")


@lru_cache(maxsize=None)
def trig_moment(a: int, b: int, rng: str = FULL) -> TrigValue:
    """Exact integral of cos^a(t) sin^b(t) over the requested range.

    Ranges: ``full`` is [0, 2pi], ``upper`` is [0, pi], ``lower`` is
    [pi, 2pi].  Full-range moments vanish unless both exponents are even,
    in which case the classical double-factorial formula applies.  Upper
    moments with odd sine exponent reduce through the standard recurrence
    on b down to the elementary b = 1 integral; with even sine exponent the
    upper range carries exactly half the full moment (zero when a is odd).
    Lower moments are full - upper, which keeps the three ranges exactly
    consistent.
    """
    if a < 0 or b < 0:
        raise ValueError("exponents must be nonnegative")
    _check_range(rng)
    if rng == FULL:
        if a % 2 or b % 2:
            return TRIG_ZERO
        num = _double_factorial(a - 1) * _double_factorial(b - 1)
        return TrigValue(0, Fraction(2 * num, _double_factorial(a + b)))
    if rng == LOWER:
        return trig_moment(a, b, FULL) - trig_moment(a, b, UPPER)
    # upper range
    if b % 2 == 0:
        if a % 2:
            return TRIG_ZERO
        return trig_moment(a, b, FULL) / 2
    # odd b: peel two sine powers at a time, then integrate cos^a sin.
    value = Fraction(2, a + 1) if a % 2 == 0 else Fraction(0)
    k = 3
    while k <= b:
        value *= Fraction(k - 1, a + k)
        k += 2
    return TrigValue(value, 0)


def profile_power_integral(p: HomogeneousPoly, j: int, rng: str = FULL) -> TrigValue:
    """Exact integral of p(cos t, sin t)^j over the requested range."""
    _check_range(rng)
    if j < 0:
        raise ValueError("power must be nonnegative")
    if j == 0:
        if rng == FULL:
            return TWO_PI
        return PI
    coeffs = p.power(j)
    big_d = j * p.degree
    total = TRIG_ZERO
    for i, c in enumerate(coeffs):
        if c:
            total = total + trig_moment(big_d - i, i, rng) * c
    return total


# symbol-style alias for the same operation
g_power_integral = profile_power_integral
