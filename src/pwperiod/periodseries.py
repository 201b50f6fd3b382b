"""Truncated period series for half systems and their concatenation.

The half period of the side with nonlinearity p of degree d = n + 1 is, in
the energy parameter h,

    pi + sum_j  period_j(n) * c_j * h^(j(n-1)),       c_j = int g^j

with g the circle profile of p integrated over the side's angular range.
The coefficients period_j(n) have a closed form, see
:mod:`pwperiod.reversion`.  Substituting the axis relation
h = r0 (1 + 2 a0 r0^(n-1))^(1/2) produces the series in the crossing radius
r0.  The substitution here is a truncated power-series composition over
exact coefficients; the tests compare it with the weighted moment sums
built from the weight polynomials of :class:`~pwperiod.reversion.CoefficientTable`.

Coefficients are :class:`~pwperiod.trigmoments.TrigValue`; composing never
multiplies two pi-carrying values because the substitution series is purely
rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .errors import DegreeTooLow, NotACenter
from .reversion import period_coefficient
from .trigmoments import (
    FULL,
    LOWER,
    PI,
    TRIG_ZERO,
    TWO_PI,
    UPPER,
    HomogeneousPoly,
    Rational,
    TrigValue,
    as_fraction,
    profile_power_integral,
)

ENERGY = "energy_h"
RADIUS = "radius_r0"

__all__ = [
    "PeriodSeries",
    "half_period_energy_series",
    "energy_from_radius_series",
    "half_period_radius_series",
    "half_period_series_r0",
    "full_period_energy_series",
    "combined_period_series",
    "first_obstruction",
    "jmax_for_order",
]


class PeriodSeries:
    """Sparse truncated series constant + sum(terms[e] * var^e).

    ``variable_tag`` records whether the expansion variable is the energy
    parameter or the axis crossing radius.  ``truncation_order`` is the
    largest exponent through which the stored terms are complete; ``None``
    marks an exact series (a linear side has no correction terms at all).
    """

    __slots__ = ("constant", "_terms", "variable_tag", "truncation_order")

    def __init__(self, constant: TrigValue, terms: dict[int, TrigValue],
                 variable_tag: str, truncation_order: int | None):
        if variable_tag not in (ENERGY, RADIUS):
            raise ValueError(f"unknown variable tag {variable_tag!r}")
        self.constant = constant
        self._terms = {e: c for e, c in sorted(terms.items()) if not c.is_zero()}
        self.variable_tag = variable_tag
        self.truncation_order = truncation_order
        if truncation_order is not None and any(e > truncation_order for e in self._terms):
            raise ValueError("term exponent beyond the truncation order")
        if any(e < 1 for e in self._terms):
            raise ValueError("term exponents must be positive")

    def coefficient(self, exponent: int) -> TrigValue:
        return self._terms.get(exponent, TRIG_ZERO)

    def items(self) -> Iterator[tuple[int, TrigValue]]:
        return iter(sorted(self._terms.items()))

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def __call__(self, value: float) -> float:
        total = float(self.constant)
        for e, c in self._terms.items():
            total += float(c) * value ** e
        return total

    def truncate(self, order: int) -> "PeriodSeries":
        terms = {e: c for e, c in self._terms.items() if e <= order}
        cap = order if self.truncation_order is None else min(order, self.truncation_order)
        return PeriodSeries(self.constant, terms, self.variable_tag, cap)

    def __eq__(self, other) -> bool:
        if isinstance(other, PeriodSeries):
            return (self.constant == other.constant and self._terms == other._terms
                    and self.variable_tag == other.variable_tag
                    and self.truncation_order == other.truncation_order)
        return NotImplemented

    def __repr__(self) -> str:
        head = ", ".join(f"{e}: {c}" for e, c in list(self._terms.items())[:4])
        more = ", ..." if len(self._terms) > 4 else ""
        return (f"PeriodSeries({self.constant}, {{{head}{more}}}, "
                f"{self.variable_tag!r}, order={self.truncation_order})")


def _require_series_side(p: HomogeneousPoly) -> None:
    if p.degree == 2 and not p.is_zero():
        raise DegreeTooLow(
            "series expansion needs nonlinearity degree >= 3; a quadratic side "
            "has a degenerate exponent grid and is handled numerically"
        )


def _side_range(side: str) -> str:
    if side == "upper":
        return UPPER
    if side == "lower":
        return LOWER
    raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")


def _energy_series(p: HomogeneousPoly, rng: str, jmax: int) -> PeriodSeries:
    """Period over the angular range ``rng`` as a series in h."""
    constant = TWO_PI if rng == FULL else PI
    if p.is_zero():
        return PeriodSeries(constant, {}, ENERGY, None)
    _require_series_side(p)
    n = p.degree - 1
    terms: dict[int, TrigValue] = {}
    for j in range(1, jmax + 1):
        c_j = profile_power_integral(p, j, rng)
        if c_j.is_zero():
            continue
        terms[j * (n - 1)] = c_j * period_coefficient(j, n)
    return PeriodSeries(constant, terms, ENERGY, jmax * (n - 1))


def half_period_energy_series(p: HomogeneousPoly, side: str, jmax: int = 8) -> PeriodSeries:
    """Half period of one side as a series in the energy parameter h."""
    return _energy_series(p, _side_range(side), jmax)


def full_period_energy_series(p: HomogeneousPoly, jmax: int = 8) -> PeriodSeries:
    """Whole-circle period of one side viewed as a smooth system, in h."""
    return _energy_series(p, FULL, jmax)


def energy_from_radius_series(a0: Rational, n: int, order: int) -> dict[int, Fraction]:
    """Bracket coefficients of h = r0 * sqrt(1 + 2 a0 r0^(n-1)), through r0^order.

    Returns {exponent: coefficient} for the square-root bracket, exponents on
    the (n-1)-grid starting at 0.  First bracket coefficients are
    1, a0, -a0^2/2, a0^3/2, -5 a0^4/8.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    a0 = as_fraction(a0)
    out: dict[int, Fraction] = {}
    coeff = Fraction(1)  # C(1/2, k) * 2^k * a0^k, built incrementally
    k = 0
    while k * (n - 1) <= order:
        if coeff != 0:
            out[k * (n - 1)] = coeff
        coeff *= Fraction(1 - 2 * k, 2 * (k + 1)) * 2 * a0
        k += 1
    return out


def _sparse_mul(a: dict[int, Fraction], b: dict[int, Fraction],
                limit: int) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e <= limit:
                out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _sparse_pow(base: dict[int, Fraction], exponent: int,
                limit: int) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {0: Fraction(1)}
    acc = dict(base)
    e = exponent
    while e:
        if e & 1:
            out = _sparse_mul(out, acc, limit)
        e >>= 1
        if e:
            acc = _sparse_mul(acc, acc, limit)
    return out


def half_period_radius_series(p: HomogeneousPoly, side: str, jmax: int = 8) -> PeriodSeries:
    """Half period of one side as a series in the axis crossing radius r0.

    Composes the energy series with the bracket expansion of h(r0) by
    truncated power-series multiplication; all arithmetic is exact.
    """
    energy = half_period_energy_series(p, side, jmax)
    if p.is_zero():
        return PeriodSeries(PI, {}, RADIUS, None)
    n = p.degree - 1
    order = jmax * (n - 1)
    bracket = energy_from_radius_series(p.axis_value, n, order)
    terms: dict[int, TrigValue] = {}
    for e_h, tau in energy.items():
        # h^e_h = r0^e_h * bracket^e_h, expanded through the global order
        power = _sparse_pow(bracket, e_h, order - e_h)
        for e_r, q in power.items():
            e = e_h + e_r
            terms[e] = terms.get(e, TRIG_ZERO) + tau * q
    return PeriodSeries(PI, terms, RADIUS, order)


def _grid_step(p: HomogeneousPoly) -> int | None:
    """Exponent spacing of the side's radius series; None for a zero side."""
    if p.is_zero():
        return None
    return p.degree - 2


def combined_period_series(sys, jmax: int = 8) -> PeriodSeries:
    """Full crossing period as a series in r0, valid for centers only.

    The two half series live on different exponent grids when the degrees
    differ; the result is truncated at jmax * min(grid step), the largest
    exponent through which both sides are complete.
    """
    from .systems import SIGMA_CENTER, classify  # local import avoids a cycle

    verdict = classify(sys)
    if verdict.verdict != SIGMA_CENTER:
        raise NotACenter(f"period series requires a center, got: {verdict.reason}")
    step_up = _grid_step(sys.upper)
    step_lo = _grid_step(sys.lower)
    for p in (sys.upper, sys.lower):
        _require_series_side(p)
    steps = [s for s in (step_up, step_lo) if s is not None]
    if not steps:
        return PeriodSeries(TWO_PI, {}, RADIUS, None)
    order = jmax * min(steps)
    upper = half_period_radius_series(sys.upper, "upper", jmax)
    lower = half_period_radius_series(sys.lower, "lower", jmax)
    terms: dict[int, TrigValue] = {}
    for series in (upper, lower):
        for e, c in series.items():
            if e <= order:
                terms[e] = terms.get(e, TRIG_ZERO) + c
    return PeriodSeries(upper.constant + lower.constant, terms, RADIUS, order)


def jmax_for_order(sys, order: int) -> int:
    """Smallest jmax whose combined series is complete through r0^order.

    Each side of grid step s is complete through jmax * s, so jmax is the
    largest ceil(order / s), and at least 1.
    """
    steps = [s for s in map(_grid_step, (sys.upper, sys.lower)) if s]
    return max([1, *(-(-order // s) for s in steps)])


def first_obstruction(sys, jmax: int = 8) -> tuple[int, TrigValue] | None:
    """Smallest exponent with a nonvanishing combined coefficient, if any.

    Returns None when every coefficient through the truncation order is
    zero; callers must treat that as "nothing found at this order", never
    as a proof of isochronicity.
    """
    return next(combined_period_series(sys, jmax).items(), None)


# symbol-style alias for the same operation
half_period_series_r0 = half_period_radius_series
