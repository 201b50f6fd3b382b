"""Numerical half orbits and period evaluation.

Two independent routes compute the same times: event-driven integration of
the piecewise field with an explicit high-order embedded pair, and direct
quadrature of dtheta / (angular speed) along the exact level curve.  The
pair must agree to tight tolerance; tests rely on both routes staying
separate, so neither should ever call the other.

Functions are pure; evaluating many radii concurrently is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .errors import EscapedAnnulus, NotACenter, RootBracketFailure, StepFailure
from .systems import (
    LOWER_SIDE,
    SIGMA_CENTER,
    UPPER_SIDE,
    PiecewiseSystem,
    annulus_bound,
    classify,
)
from .trigmoments import HomogeneousPoly

DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-14
DRIFT_BOUND = 1e-10

__all__ = [
    "HalfOrbitResult",
    "MonotonicityCheck",
    "half_orbit",
    "correspondence_gap",
    "numeric_period",
    "quadrature_period",
    "smooth_period",
    "h_monotonicity_check",
]


@dataclass(frozen=True)
class HalfOrbitResult:
    """Outcome of one half-plane transit between the two axis rays."""

    r_end: float
    time: float
    energy_drift: float
    steps: int
    degraded: bool


class MonotonicityCheck(NamedTuple):
    """Result of the energy-versus-radius monotonicity scan."""

    ok: bool
    failure_r0: float | None

    def __bool__(self) -> bool:  # truthiness mirrors the verdict
        return self.ok


def _check_start(sys: PiecewiseSystem, side: str, r0: float, rng: str) -> None:
    """Refuse a start radius the side's annulus over ``rng`` does not hold.

    A crossing orbit's piece passes only the side's own half circle
    ("transit"); a smooth sub-system orbit passes the whole circle ("full").
    """
    if r0 <= 0.0:
        raise ValueError("start radius must be positive")
    p = sys.side(side)
    if p.is_zero() or p.degree == 2:
        return
    bound = annulus_bound(sys, side, rng).r_star
    if r0 >= bound:
        raise EscapedAnnulus(
            f"start radius {r0} is outside the {side} annulus bound {bound:.6g}"
        )


def _make_rhs(p: HomogeneousPoly, reverse: bool) -> Callable:
    gradient = p.gradient
    sign = -1.0 if reverse else 1.0

    def rhs(t, s):
        x, y = s
        px, py = gradient(x, y)
        return (sign * (-y - py), sign * (x + px))

    return rhs


def half_orbit(sys: PiecewiseSystem, side: str, r_start: float, *,
               rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
               max_time: float = 400.0) -> HalfOrbitResult:
    """Transit from (r_start, 0) through one half plane to the opposite ray.

    The upper side is integrated forward in time; the lower side is
    integrated with the reversed field so that the trajectory traverses
    y < 0 while the reported time stays the positive transit duration.
    The axis crossing is event-located and then polished with a Newton
    correction on the true field, leaving |y| at roundoff level.
    """
    _check_start(sys, side, r_start, "transit")
    p = sys.side(side)
    reverse = side == LOWER_SIDE
    rhs = _make_rhs(p, reverse)
    direction = -1.0 if side == UPPER_SIDE else 1.0

    def crossing(t, s):
        return s[1]

    crossing.terminal = True
    crossing.direction = direction

    escape_radius = 25.0 * (r_start + 1.0)

    def escape(t, s):
        return s[0] * s[0] + s[1] * s[1] - escape_radius ** 2

    escape.terminal = True
    escape.direction = 1.0

    sol = solve_ivp(rhs, (0.0, max_time), (r_start, 0.0), method="DOP853",
                    rtol=rtol, atol=atol, events=(crossing, escape),
                    dense_output=False)
    if sol.status == -1:
        raise StepFailure(f"integrator failed on the {side} side: {sol.message}")
    if len(sol.t_events[1]):
        raise EscapedAnnulus(f"{side} orbit escaped beyond radius {escape_radius:.3g}")
    if not len(sol.t_events[0]):
        raise EscapedAnnulus(
            f"{side} orbit produced no axis crossing within time {max_time}"
        )
    t_cross = float(sol.t_events[0][0])
    x, y = (float(v) for v in sol.y_events[0][0])
    # Newton polish in time on the true field
    for _ in range(3):
        if y == 0.0:
            break
        dx, dy = rhs(t_cross, (x, y))
        if dy == 0.0:
            break
        dt = -y / dy
        x += dx * dt
        y += dy * dt
        t_cross += dt
    if x >= 0.0:
        raise EscapedAnnulus(
            f"{side} transit ended on the starting ray; the orbit is not a crossing orbit"
        )

    def energy(u: float, v: float) -> float:
        return 0.5 * (u * u + v * v) + p(u, v)

    h0 = energy(r_start, 0.0)
    scale = max(abs(h0), 1e-30)
    drift = 0.0
    for xi, yi in zip(sol.y[0], sol.y[1]):
        drift = max(drift, abs(energy(float(xi), float(yi)) - h0))
    drift = max(drift, abs(energy(x, y) - h0)) / scale
    return HalfOrbitResult(
        r_end=math.hypot(x, y),
        time=t_cross,
        energy_drift=drift,
        steps=max(len(sol.t) - 1, 0),
        degraded=drift > DRIFT_BOUND,
    )


def correspondence_gap(sys: PiecewiseSystem, r0: float, **kwargs) -> float:
    """Difference of the upper and lower return radii at the same start.

    Zero (to solver precision) exactly when the orbit through (r0, 0)
    closes; the sign says which side lands farther out.
    """
    up = half_orbit(sys, UPPER_SIDE, r0, **kwargs)
    lo = half_orbit(sys, LOWER_SIDE, r0, **kwargs)
    return up.r_end - lo.r_end


def numeric_period(sys: PiecewiseSystem, r0: float, **kwargs) -> float:
    """Period of the closed crossing orbit through (r0, 0), by the ODE route."""
    verdict = classify(sys)
    if verdict.verdict != SIGMA_CENTER:
        raise NotACenter(f"periods need a center: {verdict.reason}")
    up = half_orbit(sys, UPPER_SIDE, r0, **kwargs)
    lo = half_orbit(sys, LOWER_SIDE, r0, **kwargs)
    return up.time + lo.time


def _angular_range(side: str) -> tuple[float, float]:
    if side == UPPER_SIDE:
        return 0.0, math.pi
    return math.pi, 2.0 * math.pi


def _level_time_integral(p: HomogeneousPoly, r0: float, lo: float, hi: float) -> float:
    """Quadrature of dtheta / angular speed along the level curve through (r0, 0)."""
    if p.is_zero():
        return hi - lo
    d = p.degree
    a0 = float(p.axis_value)
    h2 = r0 * r0 + 2.0 * a0 * r0 ** d

    def radius_at(theta: float) -> float:
        g = p.profile(theta)
        if g == 0.0:
            return math.sqrt(h2)
        if d == 2:
            denom = 1.0 + 2.0 * g
            if denom <= 0.0:
                raise RootBracketFailure(
                    f"level curve is unbounded at angle {theta:.6f}; the "
                    "quadratic profile overwhelms the rotation"
                )
            return math.sqrt(h2 / denom)

        def level(r: float) -> float:
            return r * r + 2.0 * g * r ** d - h2

        if g > 0.0:
            # the root sits at or below sqrt(h2); the tiny inflation keeps
            # the endpoint sign positive when 2 g h2^(d/2) is below the
            # rounding error of sqrt(h2)**2 - h2
            hi_r = math.sqrt(h2) * (1.0 + 1e-12)
        else:
            # the level function peaks at the fold radius and falls after it;
            # the orbit radius is the root before the fold, if any.  At that
            # root 1 - 2|g| r^(d-2) > (d-2)/d, so r^2 < 3 h2 always, which
            # caps the bracket when the fold is far away (tiny |g|).
            prod = d * -g
            fold = prod ** (-1.0 / (d - 2)) if prod > 0.0 else math.inf
            hi_r = min(fold, math.sqrt(3.0 * h2))
            if level(hi_r) <= 0.0:
                raise RootBracketFailure(
                    f"level curve does not reach angle {theta:.6f}; start "
                    "radius is outside the period annulus"
                )
        return brentq(level, 0.0, hi_r, xtol=1e-16, rtol=8.9e-16, maxiter=200)

    def integrand(theta: float) -> float:
        r = radius_at(theta)
        g = p.profile(theta)
        speed = 1.0 + d * g * r ** (d - 2)
        if speed <= 1e-12:
            raise RootBracketFailure(
                f"angular speed vanished at angle {theta:.6f}; start radius is "
                "outside the period annulus"
            )
        return 1.0 / speed

    value, _ = quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
    return value


def quadrature_period(sys: PiecewiseSystem, side: str, r0: float) -> float:
    """Half period of one side by direct quadrature along the level curve."""
    _check_start(sys, side, r0, "transit")
    lo, hi = _angular_range(side)
    return _level_time_integral(sys.side(side), r0, lo, hi)


def smooth_period(sys: PiecewiseSystem, side: str, r0: float) -> float:
    """Whole-circle period of one side treated as a smooth system."""
    _check_start(sys, side, r0, "full")
    return _level_time_integral(sys.side(side), r0, 0.0, 2.0 * math.pi)


def h_monotonicity_check(sys: PiecewiseSystem, side: str,
                         grid) -> MonotonicityCheck:
    """Verify dh/dr0 > 0 across the grid for the side's axis relation.

    With h^2 = r0^2 + 2 a0 r0^degree the derivative is
    (r0 + degree * a0 * r0^(degree-1)) / h; it stays positive inside the
    period annulus and fails exactly where the annulus ends on the axis ray.
    """
    p = sys.side(side)
    d = p.degree
    a0 = float(p.axis_value)
    for r0 in grid:
        r0 = float(r0)
        if r0 <= 0.0:
            return MonotonicityCheck(False, r0)
        radicand = r0 * r0 + 2.0 * a0 * r0 ** d
        numerator = r0 + d * a0 * r0 ** (d - 1)
        if radicand <= 0.0 or numerator <= 0.0:
            return MonotonicityCheck(False, r0)
    return MonotonicityCheck(True, None)
