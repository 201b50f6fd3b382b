"""Exact trigonometric moments of homogeneous polynomials on the unit circle.

Every quantity in this module is a rational linear combination q0 + q1*pi,
held exactly as a pair of ``Fraction`` values.  The downstream series algebra
only ever adds such values and scales them by rationals, so a pi^2 term can
never legitimately appear; ``TrigValue`` enforces this by refusing to multiply
two values that both carry a pi part.

The moments of a profile's powers run on integers.  With p = P/L for an
integer form P of degree d, the integral of g^j over [0, pi] is

    sum over i = D (mod 2) of  P^j_i (D - i - 1)!! (i - 1)!!  /  (L^j D!!)

times pi for even D = j*d, or times 2 for odd D, since only cos^(D-i) sin^i
with D - i even survives there.  So each moment is one integer sum over one
double-factorial table and one ``Fraction``; P^j comes from P^(j-1) by
integer convolution, and a polynomial keeps its moments and the last power
only (:meth:`HomogeneousPoly.half_moments`).  The lower half and the full
circle follow from the upper half by parity (:func:`profile_power_integral`).

Float evaluation is separate: ``HomogeneousPoly`` evaluates p, dp/dx and
dp/dy through generated forms.  For each float coefficient tuple one
straight-line Python function is written and compiled once, then cached:
it builds the powers ``x1 = x``, ``x2 = x1 * x``, ..., ``y1 = y``, ...,
sets ``total = 0.0`` and adds ``c_i * x_(d-i) * y_i`` for each nonzero
coefficient in index order.  The terms stay in that fixed order, with
each power built by repeated multiplication, because the ODE clock's
times depend on the exact sequence of float operations to the last bit.
Each form takes floats or numpy arrays alike.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from decimal import Decimal
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


def rational_str(q: Fraction) -> str:
    """``str(q)`` without the int-to-str digit limit, which ``Decimal`` does not apply."""
    text = str(Decimal(q.numerator))
    return text if q.denominator == 1 else f"{text}/{Decimal(q.denominator)}"


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
        return f"{rational_str(self._rat)} + {rational_str(self._pi)}*pi"


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

    __slots__ = ("_degree", "_coeffs", "_memo")

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
        """Float coefficients of p, dp/dx and dp/dy, built once in ``memo``.

        Raises OverflowError when one of them is beyond float range, and
        keeps nothing then; the exact series never needs them.
        """
        return self.memo("floats", lambda: tuple(tuple(float(c) for c in cs) for cs in (
            self._coeffs, self.partial_x_coeffs(), self.partial_y_coeffs())))

    def memo(self, key, compute: Callable[[], T]) -> T:
        """``compute()``, computed once per polynomial and ``key``.

        Holds values that depend on the polynomial alone, such as the
        minimum of its circle profile over an angle range.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def forms(self) -> tuple[Callable, Callable, Callable]:
        """Compiled float evaluators ``f(x, y)`` of p, dp/dx and dp/dy.

        Each takes floats or numpy arrays.  They are compiled from
        ``float_coeffs()`` and live in a module-level cache keyed on those
        coefficients, not in ``memo``: a HomogeneousPoly stays picklable, and
        a fresh polynomial equal to one seen before reuses its forms.
        """
        return tuple(_compiled_form(cs) for cs in self.float_coeffs())

    def __call__(self, x: float, y: float) -> float:
        return _compiled_form(self.float_coeffs()[0])(x, y)

    def gradient(self, x: float, y: float) -> tuple[float, float]:
        """Float value of (dp/dx, dp/dy) at (x, y)."""
        _, px, py = self.float_coeffs()
        return _compiled_form(px)(x, y), _compiled_form(py)(x, y)

    def profile(self, theta: float) -> float:
        """Restriction to the unit circle, p(cos(theta), sin(theta))."""
        return self(math.cos(theta), math.sin(theta))

    def _integer_coeffs(self) -> tuple[tuple[int, ...], int]:
        """Integer coefficients P and the positive integer L with p = P / L."""
        scale = math.lcm(*(c.denominator for c in self._coeffs))
        return tuple(c.numerator * (scale // c.denominator) for c in self._coeffs), scale

    def power(self, j: int) -> tuple[Fraction, ...]:
        """Coefficients of p^j in the same x^(D-i) y^i layout, D = j*degree.

        P^j is built by integer convolution and divided by L^j once; no
        power is kept.
        """
        if j < 0:
            raise ValueError("power must be nonnegative")
        coeffs, scale = self._integer_coeffs()
        out: Sequence[int] = (1,)
        for _ in range(j):
            out = _times(out, coeffs)
        return tuple(Fraction(c, scale ** j) for c in out)

    def half_moments(self, jmax: int) -> tuple[Fraction, ...]:
        """m_0, ..., m_jmax: the circle moments of p^j as one rational each.

        With D = j*degree, the integral of p(cos t, sin t)^j over [0, pi] is
        m_j * pi when D is even and m_j when D is odd; the other ranges
        follow by parity (:func:`profile_power_integral`).  The list and
        the last integer power P^j behind it are kept in ``memo``, and a
        larger jmax extends them, one convolution per step.
        """
        held, last = self._memo.get("moments", ((Fraction(1),), (1,)))
        if len(held) > jmax:
            return held
        coeffs, scale = self._integer_coeffs()
        d = self._degree
        # dfac[k] = (k - 1)!!, so that (D - i - 1)!! (i - 1)!! / D!! is
        # dfac[D - i] * dfac[i] / dfac[D + 1]
        dfac = [1, 1]
        for k in range(2, jmax * d + 2):
            dfac.append((k - 1) * dfac[k - 2])
        moments = list(held)
        for j in range(len(held), jmax + 1):
            last = _times(last, coeffs)
            big_d = j * d
            # only cos^(D-i) sin^i with D - i even survives on [0, pi]: the
            # integral is pi R for even i and 2 R for odd i
            total = sum(last[i] * dfac[i] * dfac[big_d - i]
                        for i in range(big_d % 2, big_d + 1, 2) if last[i])
            moments.append(Fraction(total << (big_d % 2), scale ** j * dfac[big_d + 1]))
        held = tuple(moments)
        self._memo["moments"] = (held, tuple(last))
        return held

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


# Bounded so that a long session building many polynomials keeps a bounded
# number of compiled functions; a live polynomial rebuilds an evicted one.
@lru_cache(maxsize=1024)
def _compiled_form(coeffs: tuple[float, ...]) -> Callable:
    """Straight-line evaluator of sum(coeffs[i] * x^(d-i) * y^i).

    The function is written as one statement per power and per nonzero
    term, not as one nested expression, so a degree in the thousands
    compiles.  It runs the float operations of a plain loop over the
    coefficients, in the same order: powers by repeated multiplication,
    ``total = 0.0``, then ``total += c_i * x_(d-i) * y_i`` for each nonzero
    term in index order (a power 0, the factor 1.0, is left out, which is
    exact).  The coefficients enter the namespace of ``exec`` as values;
    the source holds generated names only.
    """
    d = len(coeffs) - 1
    terms = [(i, c) for i, c in enumerate(coeffs) if c]
    namespace = {f"c{i}": c for i, c in terms}
    lines = ["def form(x, y):"]
    if terms:
        lines += [f"    x{k} = x{k - 1} * x" if k > 1 else "    x1 = x"
                  for k in range(1, d - terms[0][0] + 1)]
        lines += [f"    y{k} = y{k - 1} * y" if k > 1 else "    y1 = y"
                  for k in range(1, terms[-1][0] + 1)]
    lines.append("    total = 0.0")
    for i, _ in terms:
        # a * b * c groups as (a * b) * c
        factors = [f"c{i}"] + [f"x{d - i}"] * (i < d) + [f"y{i}"] * (i > 0)
        lines.append("    total += " + " * ".join(factors))
    lines.append("    return total")
    exec(compile("\n".join(lines), "<homogeneous form>", "exec"), namespace)
    return namespace["form"]


def _times(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Integer convolution: the coefficients of the product of two forms."""
    out = [0] * (len(a) + len(b) - 1)
    b_terms = [(k, bk) for k, bk in enumerate(b) if bk]
    for i, ai in enumerate(a):
        if ai:
            for k, bk in b_terms:
                out[i + k] += ai * bk
    return out


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
    [pi, 2pi].  With R = (a-1)!! (b-1)!! / (a+b)!!, the full moment is
    2 pi R and the upper one is pi R for even b, or 2 R for odd b.  Odd a
    gives zero on every range, and odd b gives zero on the full range.
    Lower moments are full - upper, which keeps the three ranges exactly
    consistent.
    """
    if a < 0 or b < 0:
        raise ValueError("exponents must be nonnegative")
    _check_range(rng)
    if a % 2 or (rng == FULL and b % 2):
        return TRIG_ZERO
    if rng == LOWER:
        return trig_moment(a, b, FULL) - trig_moment(a, b, UPPER)
    ratio = Fraction(_double_factorial(a - 1) * _double_factorial(b - 1),
                     _double_factorial(a + b))
    if b % 2:
        return TrigValue(2 * ratio, 0)
    return TrigValue(0, ratio if rng == UPPER else 2 * ratio)


def profile_power_integral(p: HomogeneousPoly, j: int, rng: str = FULL) -> TrigValue:
    """Exact integral of p(cos t, sin t)^j over the requested range.

    The upper-half moment comes from :meth:`HomogeneousPoly.half_moments`;
    the lower half and the full circle follow from it by the parity of
    j * degree.
    """
    _check_range(rng)
    if j < 0:
        raise ValueError("power must be nonnegative")
    return _on_range(p.half_moments(j)[j], j * p.degree, rng)


def _on_range(m: Fraction, big_d: int, rng: str) -> TrigValue:
    """The integral over ``rng`` of a form of degree ``big_d`` whose half moment is m.

    For even D the integrand is pi-periodic, so the upper and lower values
    are m * pi and the full one 2 m * pi; for odd D it changes sign under
    t -> t + pi, so the upper value is m, the lower -m and the full 0.
    """
    if big_d % 2:
        return TrigValue({UPPER: m, LOWER: -m}.get(rng, 0))
    return TrigValue(0, 2 * m if rng == FULL else m)


# symbol-style alias for the same operation
g_power_integral = profile_power_integral
