"""Numerical half orbits and period evaluation.

Two independent routes compute the same times: event-driven integration of
the piecewise field with an explicit high-order embedded pair, and direct
quadrature of dtheta / (angular speed) along the exact level curve.  The
pair must agree to tight tolerance; tests rely on both routes staying
separate, so neither should ever call the other.

The quadrature works on arrays of angles with one rule, Gauss-Legendre,
on a half circle and on the whole circle alike; the nodes are cached per
count.  The node count doubles until two successive estimates agree, and
the level-curve radius at all nodes comes from one safeguarded Newton
iteration.

Functions are pure; evaluating many radii concurrently is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    EscapedAnnulus,
    NotACenter,
    QuadratureFailure,
    RootBracketFailure,
    StepFailure,
)
from .systems import (
    LOWER_SIDE,
    SIGMA_CENTER,
    UPPER_SIDE,
    PiecewiseSystem,
    _angle_range,
    annulus_bound,
    classify,
)
from .trigmoments import HomogeneousPoly

RTOL = 1e-12
ATOL = 1e-14
# a transit still running at this time has no crossing to find
MAX_TIME = 400.0
DRIFT_BOUND = 1e-10

__all__ = [
    "HalfOrbitResult",
    "half_orbit",
    "correspondence_gap",
    "numeric_period",
    "quadrature_period",
    "smooth_period",
]


@dataclass(frozen=True)
class HalfOrbitResult:
    """Outcome of one half-plane transit between the two axis rays."""

    r_end: float
    time: float
    energy_drift: float
    steps: int
    degraded: bool


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
    """Field (-dH/dy, dH/dx) of the side with nonlinearity p, negated if reverse."""
    _, form_x, form_y = p.forms()
    sign = -1.0 if reverse else 1.0

    def rhs(t, s):
        # Python floats: scalar arithmetic on numpy scalars costs several times more
        x = float(s[0])
        y = float(s[1])
        return (sign * (-y - form_y(x, y)), sign * (x + form_x(x, y)))

    return rhs


def half_orbit(sys: PiecewiseSystem, side: str, r_start: float) -> HalfOrbitResult:
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

    sol = solve_ivp(rhs, (0.0, MAX_TIME), (r_start, 0.0), method="DOP853",
                    rtol=RTOL, atol=ATOL, events=(crossing, escape),
                    dense_output=False)
    if sol.status == -1:
        raise StepFailure(f"integrator failed on the {side} side: {sol.message}")
    if len(sol.t_events[1]):
        raise EscapedAnnulus(f"{side} orbit escaped beyond radius {escape_radius:.3g}")
    if not len(sol.t_events[0]):
        raise EscapedAnnulus(
            f"{side} orbit produced no axis crossing within time {MAX_TIME}"
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

    def energy(u, v):
        return 0.5 * (u * u + v * v) + p(u, v)

    h0 = energy(r_start, 0.0)
    scale = max(abs(h0), 1e-30)
    drift = float(np.abs(energy(sol.y[0], sol.y[1]) - h0).max())
    drift = max(drift, abs(energy(x, y) - h0)) / scale
    return HalfOrbitResult(
        r_end=math.hypot(x, y),
        time=t_cross,
        energy_drift=drift,
        steps=max(len(sol.t) - 1, 0),
        degraded=drift > DRIFT_BOUND,
    )


def correspondence_gap(sys: PiecewiseSystem, r0: float) -> float:
    """Difference of the upper and lower return radii at the same start.

    Zero (to solver precision) exactly when the orbit through (r0, 0)
    closes; the sign says which side lands farther out.
    """
    up = half_orbit(sys, UPPER_SIDE, r0)
    lo = half_orbit(sys, LOWER_SIDE, r0)
    return up.r_end - lo.r_end


def numeric_period(sys: PiecewiseSystem, r0: float) -> float:
    """Period of the closed crossing orbit through (r0, 0), by the ODE route."""
    verdict = classify(sys)
    if verdict.verdict != SIGMA_CENTER:
        raise NotACenter(f"periods need a center: {verdict.reason}")
    up = half_orbit(sys, UPPER_SIDE, r0)
    lo = half_orbit(sys, LOWER_SIDE, r0)
    return up.time + lo.time


# Node cap of the rule.  An integral that has not converged by then has a
# spike too narrow to resolve (a start radius at the edge of the annulus).
MAX_NODES = 8192
# Successive estimates agree to these bounds once the rule has converged.
QUAD_ATOL = 1e-13
QUAD_RTOL = 1e-12

_GAUSS_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], n even.

    Newton on P_n from the Tricomi guesses cos(pi (k - 1/4) / (n + 1/2))
    finds the positive nodes; the rule is symmetric.  Cached per n.
    """
    rule = _GAUSS_RULES.get(n)
    if rule is None:
        x = np.cos(math.pi * (np.arange(1, n // 2 + 1) - 0.25) / (n + 0.5))
        for _ in range(100):
            pn, dpn = _legendre(n, x)
            step = pn / dpn
            x = x - step
            if np.abs(step).max() <= 1e-15:
                break
        dpn = _legendre(n, x)[1]
        w = 2.0 / ((1.0 - x * x) * dpn * dpn)
        rule = (np.concatenate((-x, x[::-1])), np.concatenate((w, w[::-1])))
        _GAUSS_RULES[n] = rule
    return rule


def _gauss_estimates(f: Callable, lo: float, hi: float, n: int):
    """Gauss-Legendre sums of f over [lo, hi] on n, 2n, 4n, ... nodes."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    while n <= MAX_NODES:
        x, w = _gauss_legendre(n)
        yield half * np.dot(w, f(mid + half * x))
        n *= 2


def _level_radii(g: np.ndarray, d: int, h2: float, theta: np.ndarray) -> np.ndarray:
    """Radius of the level curve r^2 + 2 g r^d = h2 at every angle, d >= 3.

    One safeguarded Newton iteration runs on all angles at once: a step
    that leaves the sign-change bracket, or does not halve the previous
    one, is replaced by bisection, and each lane stops once its step is
    within brentq's tolerance, 1e-16 + 8.9e-16 r.
    """
    root = math.sqrt(h2)
    negative = g < 0.0
    fold = np.full_like(g, math.inf)
    # the level function peaks at the fold radius and falls after it; the
    # orbit radius is the root before the fold, if any.  At that root
    # 1 - 2|g| r^(d-2) > (d-2)/d, so r^2 < 3 h2 always, which caps the
    # bracket when the fold is far away (tiny |g|).
    fold[negative] = (d * -g[negative]) ** (-1.0 / (d - 2))
    # for g > 0 the root sits at or below sqrt(h2); the tiny inflation keeps
    # the endpoint sign positive when 2 g h2^(d/2) is below the rounding
    # error of sqrt(h2)**2 - h2
    hi = np.where(g > 0.0, root * (1.0 + 1e-12), np.minimum(fold, math.sqrt(3.0 * h2)))
    short = (g <= 0.0) & (hi * hi + 2.0 * g * hi ** d - h2 <= 0.0)
    if short.any():
        raise RootBracketFailure(
            f"level curve does not reach angle {theta[short][0]:.6f}; start "
            "radius is outside the period annulus"
        )
    lo = np.zeros_like(g)
    # start from the reversion series r / sqrt(h2) = 1 - u + (2d - 1) u^2 / 2
    # + O(u^3), u = g h2^((d-2)/2), kept inside the bracket
    u = g * root ** (d - 2)
    r = np.clip(root * (1.0 - u + (d - 0.5) * u * u), lo, hi)
    last = hi
    done = np.zeros(g.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
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


def _level_time_integral(p: HomogeneousPoly, r0: float, lo: float, hi: float) -> float:
    """Integral of dtheta / angular speed along the level curve through (r0, 0).

    Gauss-Legendre on [lo, hi], a half circle or the whole circle.  The
    node count doubles until two successive estimates agree to QUAD_ATOL or
    QUAD_RTOL, and an integral still moving at MAX_NODES raises
    QuadratureFailure.
    """
    if p.is_zero():
        return hi - lo
    d = p.degree
    a0 = float(p.axis_value)
    h2 = r0 * r0 + 2.0 * a0 * r0 ** d

    def integrand(theta: np.ndarray) -> np.ndarray:
        g = p(np.cos(theta), np.sin(theta))
        if d == 2:
            # the speed 1 + 2 g is radius free; the level curve is bounded
            # only where it is positive
            speed = 1.0 + 2.0 * g
            unbounded = speed <= 0.0
            if unbounded.any():
                raise RootBracketFailure(
                    f"level curve is unbounded at angle {theta[unbounded][0]:.6f}; "
                    "the quadratic profile overwhelms the rotation"
                )
        else:
            speed = 1.0 + d * g * _level_radii(g, d, h2, theta) ** (d - 2)
        stalled = speed <= 1e-12
        if stalled.any():
            raise RootBracketFailure(
                f"angular speed vanished at angle {theta[stalled][0]:.6f}; start "
                "radius is outside the period annulus"
            )
        return 1.0 / speed

    # start above twice the degree, so that the first rule already resolves
    # the profile's harmonics and two coarse estimates cannot agree by chance
    n = 32
    while n <= 2 * d:
        n *= 2
    previous = None
    for value in _gauss_estimates(integrand, lo, hi, n):
        if previous is not None and abs(value - previous) <= max(QUAD_ATOL, QUAD_RTOL * abs(value)):
            return float(value)
        previous = value
    raise QuadratureFailure(
        f"level-curve quadrature did not converge on {MAX_NODES} nodes at start "
        f"radius {r0}; the integrand is too sharply peaked this close to the "
        "edge of the period annulus"
    )


def quadrature_period(sys: PiecewiseSystem, side: str, r0: float) -> float:
    """Half period of one side by direct quadrature along the level curve."""
    _check_start(sys, side, r0, "transit")
    lo, hi = _angle_range(side, "transit")
    return _level_time_integral(sys.side(side), r0, lo, hi)


def smooth_period(sys: PiecewiseSystem, side: str, r0: float) -> float:
    """Whole-circle period of one side treated as a smooth system."""
    _check_start(sys, side, r0, "full")
    lo, hi = _angle_range(side, "full")
    return _level_time_integral(sys.side(side), r0, lo, hi)
