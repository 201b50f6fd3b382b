"""Piecewise Hamiltonian systems split along the horizontal axis.

A system is a pair of homogeneous nonlinearities: the upper Hamiltonian
(x^2 + y^2)/2 + upper(x, y) drives the flow for y >= 0, the lower one for
y < 0.  The flow is x' = -dH/dy, y' = dH/dx, counterclockwise rotation at
lowest order.  Whether the origin is a center depends only on the two degree
exponents and the two axis coefficients; ``classify`` decides it exactly
over the rationals.

Every radius bound here is an extremum of the circle profile
g(theta) = p(cos theta, sin theta) of a side.  ``profile_min`` finds it in
closed form, from the range ends and the critical angles of g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

from .errors import DegreeTooLow
from .trigmoments import HomogeneousPoly

SIGMA_CENTER = "SigmaCenter"
NOT_CENTER = "NotCenter"

UPPER_SIDE = "upper"
LOWER_SIDE = "lower"
SIDES = (UPPER_SIDE, LOWER_SIDE)

__all__ = [
    "PiecewiseSystem",
    "CenterClass",
    "AnnulusEstimate",
    "classify",
    "normalize",
    "profile_min",
    "annulus_bound",
    "start_radius_cap",
    "min_start_cap",
    "SIGMA_CENTER",
    "NOT_CENTER",
    "SIDES",
]


@dataclass(frozen=True)
class PiecewiseSystem:
    """Pair of homogeneous nonlinearities, one per half plane."""

    upper: HomogeneousPoly
    lower: HomogeneousPoly

    @property
    def n(self) -> int:
        """Degree exponent of the upper side (degree minus one)."""
        return self.upper.degree - 1

    @property
    def m(self) -> int:
        """Degree exponent of the lower side (degree minus one)."""
        return self.lower.degree - 1

    @property
    def a0_plus(self) -> Fraction:
        return self.upper.axis_value

    @property
    def a0_minus(self) -> Fraction:
        return self.lower.axis_value

    def side(self, side: str) -> HomogeneousPoly:
        if side == UPPER_SIDE:
            return self.upper
        if side == LOWER_SIDE:
            return self.lower
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


@dataclass(frozen=True)
class CenterClass:
    """Classification verdict with the matching case tag and a reason."""

    verdict: str
    case_tag: str | None
    reason: str

    @property
    def is_center(self) -> bool:
        return self.verdict == SIGMA_CENTER


@dataclass(frozen=True)
class AnnulusEstimate:
    """Outer radius bound of the period annulus for one side."""

    side: str
    r_star: float
    theta_star: float | None

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.r_star)


def classify(sys: PiecewiseSystem) -> CenterClass:
    """Decide, exactly, whether the origin is a crossing center.

    Both half orbits return to the axis at a radius fixed by the energy
    match with the axis coefficient alone; the orbits close if and only if
    the two return radii agree.  The five cases below enumerate exactly when
    that happens.
    """
    n, m = sys.n, sys.m
    ap, am = sys.a0_plus, sys.a0_minus
    n_odd = n % 2 == 1
    m_odd = m % 2 == 1
    if n_odd and m_odd:
        return CenterClass(SIGMA_CENTER, "I", "both exponents odd")
    if (not n_odd) and m_odd:
        if ap == 0:
            return CenterClass(SIGMA_CENTER, "II",
                               "upper exponent even with vanishing upper axis coefficient")
        return CenterClass(NOT_CENTER, None,
                           f"upper exponent even requires zero upper axis coefficient, got {ap}")
    if n_odd and not m_odd:
        if am == 0:
            return CenterClass(SIGMA_CENTER, "III",
                               "lower exponent even with vanishing lower axis coefficient")
        return CenterClass(NOT_CENTER, None,
                           f"lower exponent even requires zero lower axis coefficient, got {am}")
    # both even
    if n != m:
        if ap == 0 and am == 0:
            return CenterClass(SIGMA_CENTER, "IV",
                               "both exponents even, distinct, both axis coefficients zero")
        return CenterClass(NOT_CENTER, None,
                           "distinct even exponents require both axis coefficients zero, "
                           f"got {ap} and {am}")
    if ap == am:
        return CenterClass(SIGMA_CENTER, "V",
                           "equal even exponents with equal axis coefficients")
    return CenterClass(NOT_CENTER, None,
                       f"equal even exponents require equal axis coefficients, got {ap} != {am}")


def normalize(sys: PiecewiseSystem) -> PiecewiseSystem:
    """Swap the half planes through (x, y) -> (-x, -y) when m > n.

    The point reflection maps each side's nonlinearity to the other half
    plane with every coefficient picking up (-1)^degree; applying the map
    twice is the identity, and the classification verdict is unchanged.
    """
    if sys.m <= sys.n:
        return sys
    return PiecewiseSystem(upper=_reflect(sys.lower), lower=_reflect(sys.upper))


def _reflect(p: HomogeneousPoly) -> HomogeneousPoly:
    sign = -1 if p.degree % 2 else 1
    return HomogeneousPoly(p.degree, tuple(sign * c for c in p.coeffs))


def _angle_range(side: str, rng: str) -> tuple[float, float]:
    """Angles a side's orbit pieces cross: its own half circle or all of it.

    The one map from a side name to angles.  A side name is also the exact
    range tag of its half circle in :mod:`pwperiod.trigmoments`.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    if rng == "transit":
        return (0.0, math.pi) if side == UPPER_SIDE else (math.pi, 2.0 * math.pi)
    if rng == "full":
        return 0.0, 2.0 * math.pi
    raise ValueError(f"rng must be 'transit' or 'full', got {rng!r}")


def _coeff_scale(p: HomogeneousPoly) -> float:
    """Bound on |g|, at least 1; sets the zero and tie thresholds of g."""
    return max(1.0, float(sum(abs(c) for c in p.coeffs)))


def profile_min(p: HomogeneousPoly, lo: float, hi: float) -> tuple[float, float]:
    """Minimum of the circle profile g over [lo, hi] and the angle where it occurs.

    The minimum sits at an end of the range or at a critical angle of g.
    Since g' = q(cos theta, sin theta) with q = -y p_x + x p_y, a form of
    the same degree, the critical angles are the direction x = 0 and
    atan(t) for the roots t of q(1, t).  Every root contributes its real
    part, so a double root that rounding split off the real axis still
    yields its angle.  g is evaluated at these candidates only; values tied
    within rounding go to the smallest angle.  Computed once per polynomial
    and range.
    """
    return p.memo(("profile_min", lo, hi), lambda: _profile_min(p, lo, hi))


def _profile_min(p: HomogeneousPoly, lo: float, hi: float) -> tuple[float, float]:
    c, d = p.coeffs, p.degree
    q = [(k + 1) * c[k + 1] if k < d else 0 for k in range(d + 1)]
    for k in range(1, d + 1):
        q[k] -= (d - k + 1) * c[k - 1]
    candidates = {lo, hi, 0.5 * math.pi, 1.5 * math.pi}
    for t in np.roots([float(v) for v in reversed(q)]).real:
        base = math.atan(t)
        candidates.update((base, base + math.pi, base + 2.0 * math.pi))
    thetas = sorted(t for t in candidates if lo <= t <= hi)
    values = [p.profile(t) for t in thetas]
    tie = min(values) + 4.0 * math.ulp(_coeff_scale(p))
    return next((v, t) for t, v in zip(thetas, values) if v <= tie)


def annulus_bound(sys: PiecewiseSystem, side: str, rng: str = "full") -> AnnulusEstimate:
    """Outer radius of the side's period annulus over the angles ``rng`` spans.

    The annulus ends where the angular speed 1 + (degree) g(theta) r^(degree-2)
    first vanishes, so r_star = ((degree) * max(-g))^(-1/(degree-2)) whenever
    the profile g takes negative values on the range, and the annulus is
    unbounded otherwise.  The extremum comes from ``profile_min``.  ``rng``
    is "full" for the whole circle or "transit" for the side's own half
    circle, the angles a crossing orbit's piece on that side passes.
    """
    p = sys.side(side)
    lo, hi = _angle_range(side, rng)
    if p.is_zero():
        return AnnulusEstimate(side, math.inf, None)
    if p.degree == 2:
        raise DegreeTooLow("annulus bound is defined for nonlinearity degree >= 3")
    d = p.degree
    gmin, theta = profile_min(p, lo, hi)
    if gmin >= -1e-13 * _coeff_scale(p):
        return AnnulusEstimate(side, math.inf, None)
    r_star = (d * (-gmin)) ** (-1.0 / (d - 2))
    return AnnulusEstimate(side, r_star, theta)


def start_radius_cap(sys: PiecewiseSystem, side: str, rng: str = "transit") -> float:
    """Largest axis start radius whose orbit piece stays inside the annulus.

    The level curve through (r0, 0) reaches every angle of the range only
    while its energy stays below the critical level at the range's worst
    angle, where the angular speed first vanishes.  With q = max(-g) over
    the range and d the side degree, the critical passage radius is
    rc = (d q)^(-1/(d-2)), the critical squared energy rc^2 (d-2)/d, and the
    cap is the start radius whose energy matches it.  Unlimited (inf) when
    g is nonnegative on the range.  ``rng`` is "transit" for the side's own
    half circle or "full" for the whole circle (smooth sub-system orbits).
    """
    p = sys.side(side)
    lo, hi = _angle_range(side, rng)
    if p.is_zero():
        return math.inf
    d = p.degree
    q = -profile_min(p, lo, hi)[0]
    if q <= 1e-13 * _coeff_scale(p):
        return math.inf
    if d == 2:
        # angular speed 1 + 2 g is radius independent
        return math.inf if 2.0 * q < 1.0 else 0.0
    rc = (d * q) ** (-1.0 / (d - 2))
    h2_cap = rc * rc * (d - 2) / d
    a0 = float(p.axis_value)

    def energy_gap(r0: float) -> float:
        return r0 * r0 + 2.0 * a0 * r0 ** d - h2_cap

    # the cap lies in (0, rc]: the axis energy at rc is >= the critical level
    if energy_gap(rc) <= 0.0:
        return rc
    return brentq(energy_gap, 1e-300, rc, xtol=1e-15, rtol=8.9e-16, maxiter=200)


def min_start_cap(sys: PiecewiseSystem) -> float:
    """Start radius below which both half-plane transits exist."""
    return min(start_radius_cap(sys, UPPER_SIDE, "transit"),
               start_radius_cap(sys, LOWER_SIDE, "transit"))
