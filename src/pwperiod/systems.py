"""Piecewise Hamiltonian systems split along the horizontal axis.

A system is a pair of homogeneous nonlinearities: the upper Hamiltonian
(x^2 + y^2)/2 + upper(x, y) drives the flow for y >= 0, the lower one for
y < 0.  The flow is x' = -dH/dy, y' = dH/dx, counterclockwise rotation at
lowest order.  Whether the origin is a center depends on the two degree
exponents and the two axis coefficients, and for a quadratic side on whether
its Hamiltonian is positive definite; ``classify`` decides it exactly over
the rationals.

Every radius bound here is an extremum of the circle profile
g(theta) = p(cos theta, sin theta) of a side.  ``profile_min`` finds it in
closed form, from the range ends and the critical angles of g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from sys import float_info

import numpy as np

from .errors import RootBracketFailure
from .trigmoments import HomogeneousPoly, rational_str

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
    "positive_definite",
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

    r_star: float
    theta_star: float | None

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.r_star)


def classify(sys: PiecewiseSystem) -> CenterClass:
    """Decide, exactly, whether the origin is a crossing center.

    A quadratic side c0 x^2 + c1 xy + c2 y^2 makes its half plane's
    Hamiltonian a quadratic form; unless it is positive definite, no orbit
    from the axis returns to it.  Otherwise both half orbits return at a
    radius fixed by the energy match with the axis coefficient alone; the
    orbits close if and only if the two return radii agree.  The five cases
    below enumerate exactly when that happens.
    """
    for side in SIDES:
        p = sys.side(side)
        if not positive_definite(*(p.coeffs if p.degree == 2 else (0, 0, 0))):
            return CenterClass(NOT_CENTER, None, f"the {side} Hamiltonian is a quadratic form "
                               "that is not positive definite, so no orbit crosses back")
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
        return CenterClass(NOT_CENTER, None, "upper exponent even requires zero upper axis "
                           f"coefficient, got {rational_str(ap)}")
    if n_odd and not m_odd:
        if am == 0:
            return CenterClass(SIGMA_CENTER, "III",
                               "lower exponent even with vanishing lower axis coefficient")
        return CenterClass(NOT_CENTER, None, "lower exponent even requires zero lower axis "
                           f"coefficient, got {rational_str(am)}")
    # both even
    if n != m:
        if ap == 0 and am == 0:
            return CenterClass(SIGMA_CENTER, "IV",
                               "both exponents even, distinct, both axis coefficients zero")
        return CenterClass(NOT_CENTER, None,
                           "distinct even exponents require both axis coefficients zero, "
                           f"got {rational_str(ap)} and {rational_str(am)}")
    if ap == am:
        return CenterClass(SIGMA_CENTER, "V",
                           "equal even exponents with equal axis coefficients")
    return CenterClass(NOT_CENTER, None, "equal even exponents require equal axis coefficients, "
                       f"got {rational_str(ap)} != {rational_str(am)}")


def positive_definite(c0, c1, c2) -> bool:
    """Whether the quadratic part of H with side c0 x^2 + c1 xy + c2 y^2 is positive definite.

    That part is ((1 + 2 c0) x^2 + 2 c1 xy + (1 + 2 c2) y^2)/2.  The one
    center test of a quadratic side; exact on Fractions.
    """
    return 1 + 2 * c0 > 0 and (1 + 2 * c0) * (1 + 2 * c2) > c1 * c1


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
    """Bound on |g|, at least 1; sets the zero and tie thresholds of g.

    Computed once per polynomial.
    """
    return p.memo("coeff_scale", lambda: max(1.0, float(sum(abs(c) for c in p.coeffs))))


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
    for t in np.roots(_scaled_floats(q[::-1])).real:
        base = math.atan(t)
        candidates.update((base, base + math.pi, base + 2.0 * math.pi))
    thetas = sorted(t for t in candidates if lo <= t <= hi)
    values = [p.profile(t) for t in thetas]
    tie = min(values) + 4.0 * math.ulp(_coeff_scale(p))
    return next((v, t) for t, v in zip(thetas, values) if v <= tie)


def _scaled_floats(coeffs: list[Fraction]) -> list[float]:
    """Floats of the exact coeffs times the power of two that brings the largest near 1.

    ``np.roots`` reads only ratios to the leading coefficient, which a power
    of two leaves exact, so coefficients in the normal float range give
    bit-identical roots; coefficients far outside it no longer overflow to
    inf.  A scaled value below ``float_info.min`` becomes 0: it drops roots
    near t = 0 or t = inf, whose angles are candidates already.
    """
    top = max(abs(v) for v in coeffs)
    if not top:
        return [0.0] * len(coeffs)
    scale = Fraction(2) ** (top.denominator.bit_length() - top.numerator.bit_length())
    scaled = [float(v * scale) for v in coeffs]
    return [v if abs(v) >= float_info.min else 0.0 for v in scaled]


def annulus_bound(sys: PiecewiseSystem, side: str, rng: str = "full") -> AnnulusEstimate:
    """Outer radius of the side's period annulus over the angles ``rng`` spans.

    The annulus ends where the angular speed 1 + (degree) g(theta) r^(degree-2)
    first vanishes, so r_star = ((degree) * max(-g))^(-1/(degree-2)) whenever
    the profile g takes negative values on the range, and the annulus is
    unbounded otherwise; a zero side is unbounded.  A quadratic side's speed
    1 + 2 g does not depend on the radius, so its annulus is all or nothing:
    unbounded when 2 max(-g) < 1, else empty (r_star = 0 at the angle of
    the minimum).  The extremum comes from ``profile_min``.  ``rng`` is
    "full" for the whole circle or "transit" for the side's own half circle,
    the angles a crossing orbit's piece on that side passes.
    """
    p = sys.side(side)
    d = p.degree
    gmin, theta = profile_min(p, *_angle_range(side, rng))
    if d == 2 and 2.0 * -gmin >= 1.0:
        return AnnulusEstimate(0.0, theta)
    if d == 2 or gmin >= -1e-13 * _coeff_scale(p):
        return AnnulusEstimate(math.inf, None)
    return AnnulusEstimate((d * (-gmin)) ** (-1.0 / (d - 2)), theta)


def _level_radii(g: np.ndarray, d: int, h2: float, theta: np.ndarray) -> np.ndarray:
    """Radius of the level curve r^2 + 2 g r^d = h2 at every angle, d >= 3.

    ``g`` holds the profile at the angles ``theta``, which only name the
    angle in an error.  One safeguarded Newton iteration runs on all angles
    at once: a step that leaves the sign-change bracket, or does not halve
    the previous one, is replaced by bisection, and each lane stops once
    its step is within 1e-16 + 8.9e-16 r.  The quadrature clock calls it on
    its nodes, ``start_radius_cap`` on the one angle 0.
    """
    if not 0.0 < h2 < math.inf:
        raise RootBracketFailure(
            f"level energy {h2:.6g} is not positive and finite; start radius is "
            "outside the period annulus or the float range"
        )
    root = math.sqrt(h2)
    negative = g < 0.0
    fold = np.full_like(g, math.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the level function peaks at the fold radius and falls after it; the
        # orbit radius is the root before the fold, if any.  At that root
        # 1 - 2|g| r^(d-2) > (d-2)/d, so r^2 < 3 h2 always, which caps the
        # bracket when the fold is far away (tiny |g|).
        fold[negative] = (d * -g[negative]) ** (-1.0 / (d - 2))
        # for g > 0 the root sits at or below sqrt(h2); the tiny inflation keeps
        # the endpoint sign positive when 2 g h2^(d/2) is below the rounding
        # error of sqrt(h2)**2 - h2
        hi = np.where(g > 0.0, root * (1.0 + 1e-12), np.minimum(fold, math.sqrt(3.0 * h2)))
        top = hi * hi + 2.0 * g * hi ** d - h2
        rp0 = np.float64(root) ** (d - 2)
    if not (np.isfinite(top).all() and np.isfinite(rp0)):
        raise RootBracketFailure(
            f"level curve at energy {h2:.6g} overflows the float range; start "
            "radius is too large for floating-point evaluation"
        )
    short = (g <= 0.0) & (top <= 0.0)
    if short.any():
        raise RootBracketFailure(
            f"level curve does not reach angle {theta[short][0]:.6f}; start "
            "radius is outside the period annulus"
        )
    lo = np.zeros_like(g)
    last = hi
    done = np.zeros(g.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # start from the reversion series r / sqrt(h2) = 1 - u + (2d - 1) u^2 / 2
        # + O(u^3), u = g h2^((d-2)/2), kept inside the bracket, which also
        # bounds a u * u that overflows
        u = g * rp0
        r = np.clip(root * (1.0 - u + (d - 0.5) * u * u), lo, hi)
        for _ in range(100):
            rp = r ** (d - 2)
            value = r * r + 2.0 * g * rp * r * r - h2
            lo = np.where(value < 0.0, r, lo)
            hi = np.where(value > 0.0, r, hi)
            newton = r - value / (2.0 * r * (1.0 + d * g * rp))
            # bisect where Newton leaves the bracket or fails to halve the
            # last step, as it does on the rounding noise next to the fold
            step = np.where((newton >= lo) & (newton <= hi)
                            & (np.abs(newton - r) <= 0.5 * np.abs(last)),
                            newton, 0.5 * (lo + hi)) - r
            r = np.where(done, r, r + step)
            done |= np.abs(step) <= 1e-16 + 8.9e-16 * r
            if done.all():
                return r
            last = step
    raise RootBracketFailure(
        f"level-curve radius did not converge at angle {theta[~done][0]:.6f}"
    )


def start_radius_cap(sys: PiecewiseSystem, side: str, rng: str = "transit") -> float:
    """Largest axis start radius whose orbit piece stays inside the annulus.

    The level curve through (r0, 0) reaches every angle of the range only
    while its energy stays below the critical level at the range's worst
    angle, where the angular speed first vanishes.  The critical passage
    radius rc is the annulus bound of ``annulus_bound``, the critical
    squared energy is h2 = rc^2 (d-2)/d for the side degree d, and the cap
    is the start radius whose energy matches it: the root of
    r0^2 + 2 a0 r0^d = h2, which is the level curve at angle 0, where the
    profile is a0.  ``_level_radii`` solves it.  When the annulus is
    unbounded (inf) or empty (0, a quadratic side), the cap is the bound
    itself.  ``rng`` is "transit" for the side's own half circle or "full"
    for the whole circle (smooth sub-system orbits).  Computed once per
    polynomial and range.
    """
    p = sys.side(side)
    key = ("start_radius_cap", *_angle_range(side, rng))
    return p.memo(key, lambda: _start_radius_cap(sys, side, rng))


def _start_radius_cap(sys: PiecewiseSystem, side: str, rng: str) -> float:
    p = sys.side(side)
    d = p.degree
    rc = annulus_bound(sys, side, rng).r_star
    if not 0.0 < rc < math.inf:
        return rc
    h2_cap = rc * rc * (d - 2) / d
    a0 = float(p.axis_value)
    # The cap lies in (0, rc].  The axis energy at rc exceeds the critical
    # level by rc^2 (2/d) (a0 - gmin) / -gmin, so it is at or below it only
    # when the profile is least at angle 0, tied within rounding.  The cap
    # is then rc itself: a double root of the level equation, which no
    # bracket holds and which rounding blurs over about 1e-8 rc.
    gmin = profile_min(p, *_angle_range(side, rng))[0]
    if (a0 <= gmin + 4.0 * math.ulp(_coeff_scale(p))
            or rc * rc + 2.0 * a0 * rc ** d <= h2_cap):
        return rc
    return float(_level_radii(np.array([a0]), d, h2_cap, np.zeros(1))[0])


def min_start_cap(sys: PiecewiseSystem) -> float:
    """Start radius below which both half-plane transits exist."""
    return min(start_radius_cap(sys, UPPER_SIDE, "transit"),
               start_radius_cap(sys, LOWER_SIDE, "transit"))
