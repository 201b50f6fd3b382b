"""Truncated period series for half systems and their concatenation.

The half period of the side with nonlinearity p of degree d = n + 1 is, in
the energy parameter h,

    pi + sum_j  period_j(n) * c_j * h^(j(n-1)),       c_j = int g^j

with g the circle profile of p integrated over the side's angular range.
The coefficients period_j(n) have a closed form, see
:mod:`pwperiod.reversion`.  Substituting the axis relation
h = r0 (1 + 2 a0 r0^(n-1))^(1/2) produces the series in the crossing radius
r0: each power h^e is r0^e times a generalized binomial series in
2 a0 r0^(n-1).  For a0 = A/B each binomial weight C(e/2, k) (2 a0)^k is an
integer over B^k k!, so every coefficient in r0 is one integer sum over a
common denominator and one ``Fraction`` per part (:func:`_substitute`).
The tests compare the result with the weighted moment sums of
:class:`~pwperiod.reversion.CoefficientTable` and, at 60 digits, with the
energy series evaluated at h(r0).

Each polynomial's memo keeps its moments c_j (see
:meth:`~pwperiod.trigmoments.HomogeneousPoly.half_moments`) and, per side,
the radius coefficients computed so far, so a second radius series of the
same side at the same or a lower jmax reads them back.

Coefficients are :class:`~pwperiod.trigmoments.TrigValue`; on a half
circle each c_j is rational or a rational multiple of pi, and the binomial
weights are rational, so no pi^2 term arises.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .errors import DegreeTooLow, NotACenter
from .reversion import period_coefficient
from .systems import LOWER_SIDE, UPPER_SIDE, _angle_range, classify
from .trigmoments import (
    FULL,
    PI,
    TRIG_ZERO,
    TWO_PI,
    HomogeneousPoly,
    TrigValue,
    _on_range,
)

ENERGY = "energy_h"
RADIUS = "radius_r0"

__all__ = [
    "PeriodSeries",
    "half_period_energy_series",
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
        """The truncated sum at ``value``; nan once a term leaves float range.

        A series evaluated that far out is outside its range, so the value
        says only that, instead of raising OverflowError.
        """
        total = float(self.constant)
        for e, c in self._terms.items():
            try:
                total += float(c) * value ** e
            except OverflowError:
                return math.nan
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


def _energy_coefficients(p: HomogeneousPoly, rng: str, jmax: int) -> dict[int, TrigValue]:
    """tau_j = c_j * period_j(n) for j = 1..jmax, with c_j the moment of g^j."""
    moments = p.half_moments(jmax)
    n = p.degree - 1
    return {j: _on_range(moments[j] * period_coefficient(j, n), j * p.degree, rng)
            for j in range(1, jmax + 1)}


def _energy_series(p: HomogeneousPoly, rng: str, jmax: int) -> PeriodSeries:
    """Period over the angular range ``rng`` as a series in h."""
    constant = TWO_PI if rng == FULL else PI
    if p.is_zero():
        return PeriodSeries(constant, {}, ENERGY, None)
    _require_series_side(p)
    step = p.degree - 2
    terms = {j * step: tau for j, tau in _energy_coefficients(p, rng, jmax).items()}
    return PeriodSeries(constant, terms, ENERGY, jmax * step)


def half_period_energy_series(p: HomogeneousPoly, side: str, jmax: int = 8) -> PeriodSeries:
    """Half period of one side as a series in the energy parameter h.

    A side name is also the range tag of its half circle.
    """
    _angle_range(side, "transit")  # refuses any other name
    return _energy_series(p, side, jmax)


def full_period_energy_series(p: HomogeneousPoly, jmax: int = 8) -> PeriodSeries:
    """Whole-circle period of one side viewed as a smooth system, in h."""
    return _energy_series(p, FULL, jmax)


def half_period_radius_series(p: HomogeneousPoly, side: str, jmax: int = 8) -> PeriodSeries:
    """Half period of one side as a series in the axis crossing radius r0.

    With n + 1 the side degree, each energy term tau_j h^e, e = j(n-1), of
    the series in h becomes, through h = r0 (1 + 2 a0 r0^(n-1))^(1/2), the
    binomial series

        tau_j h^e = sum_k  tau_j * C(e/2, k) (2 a0)^k * r0^(e + k(n-1)),

    kept through r0^(jmax(n-1)); see :func:`_substitute`.  The coefficients
    are kept in the polynomial's memo per side, and a larger jmax computes
    them afresh.
    """
    _angle_range(side, "transit")  # refuses any other name
    if p.is_zero():
        return PeriodSeries(PI, {}, RADIUS, None)
    _require_series_side(p)
    step = p.degree - 2
    coeffs = p.memo(("radius", side), dict)
    if jmax not in coeffs:
        coeffs.update(_substitute(_energy_coefficients(p, side, jmax), p.axis_value, step, jmax))
    return PeriodSeries(PI, {m * step: coeffs[m] for m in range(1, jmax + 1)},
                        RADIUS, jmax * step)


def _substitute(taus: dict[int, TrigValue], a0: Fraction, step: int,
                jmax: int) -> dict[int, TrigValue]:
    """Coefficient m of r0^(m * step), m = 1..jmax, from tau_j of h^(j * step).

    For a0 = A/B the weight C(e/2, k) (2 a0)^k of r0^(e + k * step) in h^e
    is the integer W_jk = prod_{i<k} (e - 2i) * A^k over B^k k!, a
    denominator that depends on k alone; W_jk is zero from k = e/2 + 1 on
    for an even e, and from k = 1 on for a0 = 0.  Over one common
    denominator, U B^J J! with U the least common denominator of the tau_j
    and J = jmax, each coefficient is one integer sum per part, and one
    division.
    """
    a, b = a0.numerator, a0.denominator
    common = math.lcm(*(part.denominator for j in range(1, jmax + 1)
                        for part in (taus[j].rat_part, taus[j].pi_part)))
    # scale[k] = B^(J-k) J!/k! turns 1/(B^k k!) into 1/(B^J J!)
    scale = [1] * (jmax + 1)
    for k in range(jmax - 1, -1, -1):
        scale[k] = scale[k + 1] * b * (k + 1)
    rat, pi = [0] * (jmax + 1), [0] * (jmax + 1)
    for j in range(1, jmax + 1):
        e = j * step
        for acc, part in ((rat, taus[j].rat_part), (pi, taus[j].pi_part)):
            term = part.numerator * (common // part.denominator)  # U tau_j W_j0
            for k in range(jmax - j + 1):
                if not term:
                    break
                acc[j + k] += term * scale[k]
                term *= (e - 2 * k) * a
    denominator = common * scale[0]
    return {m: TrigValue(Fraction(rat[m], denominator), Fraction(pi[m], denominator))
            for m in range(1, jmax + 1)}


def _grid_step(p: HomogeneousPoly) -> int | None:
    """Exponent spacing of the side's radius series; None for a zero side."""
    if p.is_zero():
        return None
    return p.degree - 2


def combined_period_series(sys, jmax: int = 8) -> PeriodSeries:
    """Full crossing period as a series in r0, valid for centers only.

    The two half series live on different exponent grids when the degrees
    differ; the result is truncated at jmax * min(grid step), the largest
    exponent through which both sides are complete.  A side of grid step s
    is expanded only to ceil(order / s), the first jmax that reaches the
    order.
    """
    verdict = classify(sys)
    if not verdict.is_center:
        raise NotACenter(f"period series requires a center, got: {verdict.reason}")
    step_up = _grid_step(sys.upper)
    step_lo = _grid_step(sys.lower)
    for p in (sys.upper, sys.lower):
        _require_series_side(p)
    steps = [s for s in (step_up, step_lo) if s is not None]
    if not steps:
        return PeriodSeries(TWO_PI, {}, RADIUS, None)
    order = jmax * min(steps)
    upper = half_period_radius_series(sys.upper, UPPER_SIDE, -(-order // step_up) if step_up else 1)
    lower = half_period_radius_series(sys.lower, LOWER_SIDE, -(-order // step_lo) if step_lo else 1)
    terms: dict[int, TrigValue] = {}
    for series in (upper, lower):
        # ceil(order / s) * s can pass the order
        for e, c in series.items():
            if e <= order:
                terms[e] = terms[e] + c if e in terms else c
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
