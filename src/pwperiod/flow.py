"""Numerical half orbits and period evaluation.

Two independent routes compute the same times: event-driven integration of
the piecewise field with an explicit high-order embedded pair, and direct
quadrature of dtheta / (angular speed) along the exact level curve.  The
pair must agree to tight tolerance; tests rely on both routes staying
separate, so neither should ever call the other.

The integration is scipy's ``solve_ivp`` driving a subclass of its DOP853
that takes each step on Python floats: the 12 stages, the 8th-order update
and the two error sums are one straight-line function written out from the
solver's own tableau, and the stages call the side's field on floats.
scipy keeps the initial step, the event checks, the root search on the
step's interpolant and the interpolant itself.

The quadrature works on arrays of angles with one rule, Clenshaw-Curtis,
on a half circle and on the whole circle alike.  Its nodes are closed form
and include both ends of the range, its weights come from one FFT and are
cached per interval count, and its rules are nested: the interval count
doubles until two successive estimates agree, and each doubling evaluates
the integrand only on the new nodes.  The level-curve radius at all nodes
comes from one safeguarded Newton iteration, ``systems._level_radii``.

Functions are pure; evaluating many radii concurrently is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from sys import float_info
from typing import Callable

import numpy as np
from scipy.integrate import DOP853, solve_ivp

from .errors import (
    EscapedAnnulus,
    NotACenter,
    QuadratureFailure,
    RootBracketFailure,
    StepFailure,
)
from .systems import (
    LOWER_SIDE,
    UPPER_SIDE,
    PiecewiseSystem,
    _angle_range,
    _level_radii,
    annulus_bound,
    classify,
    profile_min,
    start_radius_cap,
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
    "annulus_bound",  # unused here; perfbench's tracer test reads this binding
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
    """Refuse a start radius whose orbit piece leaves the side's annulus over ``rng``.

    A crossing orbit's piece passes only the side's own half circle
    ("transit"); a smooth sub-system orbit passes the whole circle ("full").
    The limit is ``start_radius_cap``, the one reach check of all three
    clocks, so an empty quadratic annulus (cap 0) refuses every start.  A
    start whose square underflows (r0 below about 1.5e-154) is refused too:
    its energy, and the drift measured against it, have no precision left.
    """
    if not 0.0 < r0 < math.inf:
        raise ValueError("start radius must be positive and finite")
    if r0 * r0 < float_info.min:
        raise StepFailure(
            f"start radius {r0} is too small: its square underflows the float range"
        )
    cap = start_radius_cap(sys, side, rng)
    if r0 >= cap:
        raise EscapedAnnulus(f"start radius {r0} is not below the {side} start cap {cap:.6g}")


def _make_field(p: HomogeneousPoly, reverse: bool) -> Callable:
    """Field (-dH/dy, dH/dx) of the side with nonlinearity p, negated if reverse.

    ``field(t, x, y) -> (dx, dy)`` on Python floats: scalar arithmetic on
    numpy scalars costs several times more.
    """
    _, form_x, form_y = p.forms()
    sign = -1.0 if reverse else 1.0

    def field(t, x, y):
        return (sign * (-y - form_y(x, y)), sign * (x + form_x(x, y)))

    return field


def _compile_step(solver: type) -> Callable:
    """One explicit Runge-Kutta step of ``solver``'s tableau, on Python floats.

    Written out as ``step(field, t, x, y, kx0, ky0, h)``: stage s is
    ``field(t + C[s] h, x + (sum_j A[s, j] kx_j) h, ...)``, the update is
    ``x + h sum_j B[j] kx_j``, and the last stage is the field at the new
    point, as in scipy's ``rk_step``.  It returns the new point, the last
    stage, the sums of E5 and E3 over all stages (per coordinate) and the
    stages flattened as (kx0, ky0, kx1, ...).  Zero coefficients are left
    out.  The coefficients enter the namespace of ``exec`` as values; the
    source holds generated names only.
    """
    a, b, c, e5, e3 = (np.asarray(getattr(solver, name)).tolist()
                       for name in ("A", "B", "C", "E5", "E3"))
    n = solver.n_stages
    namespace = {}

    def weighted(name, weights, k):
        terms = []
        for j, w in enumerate(weights):
            if w:
                namespace[f"{name}_{j}"] = w
                terms.append(f"{name}_{j} * {k}{j}")
        return " + ".join(terms)

    lines = ["def step(field, t, x, y, kx0, ky0, h):"]
    for s in range(1, n):
        namespace[f"c{s}"] = c[s]
        lines.append(f"    kx{s}, ky{s} = field(t + c{s} * h, "
                     f"x + ({weighted(f'a{s}', a[s][:s], 'kx')}) * h, "
                     f"y + ({weighted(f'a{s}', a[s][:s], 'ky')}) * h)")
    lines.append(f"    xn = x + h * ({weighted('b', b, 'kx')})")
    lines.append(f"    yn = y + h * ({weighted('b', b, 'ky')})")
    lines.append(f"    kx{n}, ky{n} = field(t + h, xn, yn)")
    stages = ", ".join(f"kx{j}, ky{j}" for j in range(n + 1))
    sums = ", ".join(weighted(name, e, k) for name, e in (("e5", e5), ("e3", e3))
                     for k in ("kx", "ky"))
    lines.append(f"    return xn, yn, kx{n}, ky{n}, {sums}, ({stages})")
    exec(compile("\n".join(lines), "<dop853 step>", "exec"), namespace)
    return namespace["step"]


class _FloatDOP853(DOP853):
    """scipy's DOP853 with ``_step_impl`` taken on Python floats.

    ``solve_ivp`` passes ``field``, the float right-hand side
    ``(t, x, y) -> (dx, dy)`` the stages call, as a solver option; the array
    ``fun`` serves the evaluations scipy makes itself (the first derivative,
    the initial step, the extra stages of the interpolant).  The step-size
    rule is scipy's on floats: safety 0.9, factors 0.2 and 10, exponent
    -1/8, and a zero error norm grows the step by the full factor.  ``nfev``
    counts 12 evaluations per attempted step.  The stages reach ``K``, and
    the last of them ``f``, only when the interpolant is asked for.
    """

    SAFETY = 0.9
    MIN_FACTOR = 0.2
    MAX_FACTOR = 10.0

    def __init__(self, fun, t0, y0, t_bound, field, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self._field = field
        self._tolerances = (float(self.rtol), float(self.atol))
        self.h_abs = float(self.h_abs)
        self._state = (*self.y.tolist(), *self.f.tolist())
        self._stages = ()

    def _step_impl(self):
        t, t_bound = self.t, self.t_bound
        x, y, fx, fy = self._state
        rtol, atol = self._tolerances
        direction = float(self.direction)
        step, field, exponent = self._step, self._field, self.error_exponent
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = self.max_step if self.h_abs > self.max_step else max(self.h_abs, min_step)
        rejected = False
        while True:
            # also fails a NaN step, which scipy's initial step gives when the
            # field overflows next to the start; its own rule would loop on it
            if not h_abs >= min_step:
                return False, self.TOO_SMALL_STEP
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            xn, yn, fxn, fyn, e5x, e5y, e3x, e3y, stages = step(field, t, x, y, fx, fy, h)
            self.nfev += 12
            # max(new, old) keeps a NaN of the new point, as np.maximum does
            sx = atol + max(abs(xn), abs(x)) * rtol
            sy = atol + max(abs(yn), abs(y)) * rtol
            e5x, e5y, e3x, e3y = e5x / sx, e5y / sy, e3x / sx, e3y / sy
            norm5 = e5x * e5x + e5y * e5y
            denom = norm5 + 0.01 * (e3x * e3x + e3y * e3y)
            # denom is 0 when both sums are, where scipy's norm is 0 too; the
            # test also keeps a 0 / 0 from raising when the E3 term underflows
            error = h_abs * norm5 / math.sqrt(denom * 2) if denom else 0.0
            if error < 1:
                factor = (self.MAX_FACTOR if error == 0
                          else min(self.MAX_FACTOR, self.SAFETY * error ** exponent))
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(self.MIN_FACTOR, self.SAFETY * error ** exponent)
            rejected = True

        self.h_previous = h
        self.y_old = self.y
        self.t = t_new
        self.y = np.array((xn, yn))
        self.h_abs = h_abs
        self._state = (xn, yn, fxn, fyn)
        self._stages = stages
        return True, None

    def _dense_output_impl(self):
        self.K[:] = np.reshape(self._stages, self.K.shape)
        self.f = self.K[-1]
        return super()._dense_output_impl()


_FloatDOP853._step = staticmethod(_compile_step(_FloatDOP853))


def half_orbit(sys: PiecewiseSystem, side: str, r_start: float) -> HalfOrbitResult:
    """Transit from (r_start, 0) through one half plane to the opposite ray.

    The upper side is integrated forward in time; the lower side is
    integrated with the reversed field so that the trajectory traverses
    y < 0 while the reported time stays the positive transit duration.
    The absolute tolerance is ATOL capped at RTOL r_start, so the relative
    accuracy holds at any start radius.  The axis crossing is event-located
    and then polished with a Newton correction on the true field, leaving
    |y| at roundoff level.  The start cap has decided, before integrating,
    that the orbit reaches the opposite ray.
    """
    _check_start(sys, side, r_start, "transit")
    p = sys.side(side)
    reverse = side == LOWER_SIDE
    field = _make_field(p, reverse)

    def rhs(t, s):
        return field(t, *s.tolist())

    direction = -1.0 if side == UPPER_SIDE else 1.0

    def crossing(t, s):
        return s[1]

    crossing.terminal = True
    crossing.direction = direction

    try:
        # an overflowing field leaves inf or nan in the stages, and scipy's
        # interpolant warns on them; the checks below turn them into errors
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_ivp(rhs, (0.0, MAX_TIME), (r_start, 0.0), method=_FloatDOP853,
                            rtol=RTOL, atol=min(ATOL, RTOL * r_start),
                            events=crossing,
                            dense_output=False, field=field)
    except ValueError as exc:
        # scipy's event root search refuses a NaN on the step's interpolant
        raise StepFailure(f"event location failed on the {side} side: {exc}") from exc
    if sol.status == -1:
        raise StepFailure(f"integrator failed on the {side} side: {sol.message}")
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
        dx, dy = field(t_cross, x, y)
        if dy == 0.0:
            break
        dt = -y / dy
        x += dx * dt
        y += dy * dt
        t_cross += dt
    if not (math.isfinite(x) and math.isfinite(y)):
        raise StepFailure(f"the {side} transit reached a non-finite crossing point")
    if x >= 0.0:
        raise EscapedAnnulus(
            f"{side} transit ended on the starting ray; the orbit is not a crossing orbit"
        )

    def energy(u, v):
        return 0.5 * (u * u + v * v) + p(u, v)

    # inside the annulus h0 is of the order of r_start^2 / 2, which
    # _check_start keeps above underflow
    h0 = energy(r_start, 0.0)
    drift = float(np.abs(energy(sol.y[0], sol.y[1]) - h0).max())
    drift = max(drift, abs(energy(x, y) - h0)) / abs(h0)
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
    if not verdict.is_center:
        raise NotACenter(f"periods need a center: {verdict.reason}")
    up = half_orbit(sys, UPPER_SIDE, r0)
    lo = half_orbit(sys, LOWER_SIDE, r0)
    return up.time + lo.time


# Interval cap of the rule, whose last estimate uses MAX_NODES + 1 nodes.  An
# integral that has not converged by then has a spike too narrow to resolve
# (a start radius at the edge of the annulus).
MAX_NODES = 8192
# Successive estimates agree to these bounds once the rule has converged.
QUAD_ATOL = 1e-13
QUAD_RTOL = 1e-12


# keyed on the nested rules' interval counts, 32 ... MAX_NODES, so it stays small
@cache
def _clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Weights of the Clenshaw-Curtis rule on [-1, 1] with n intervals, n even.

    Entry k weighs the node cos(k pi / n), k = 0..n.  One inverse FFT gives
    them (Waldvogel, BIT 46, 2006): its input is the vector whose transform
    is Fejer's second rule, built from the integrals 2 / (1 - j^2) of the
    even Chebyshev polynomials T_j, plus Waldvogel's correction g, which
    turns that rule into Clenshaw-Curtis.  Cached per n.
    """
    odd = np.arange(1.0, n, 2.0)
    v = np.concatenate((2.0 / (odd * (odd - 2.0)), [1.0 / odd[-1]], np.zeros(n // 2)))
    g = np.full(n, -1.0)
    g[n // 2] += 2.0 * n
    w = np.fft.ifft(g / (n * n - 1.0) - v[:-1] - v[:0:-1]).real
    return np.append(w, w[0])


def _clenshaw_curtis_estimates(f: Callable, lo: float, hi: float, n: int):
    """Clenshaw-Curtis sums of f over [lo, hi] on n, 2n, 4n, ... intervals.

    The nodes of n intervals are mid + half cos(k pi / n), k = 0..n, and
    they are the even nodes of 2n intervals, to the bit: pi / 2n is half
    of pi / n exactly.  So each doubling keeps the values it has and calls
    f only on the n new odd nodes.
    """
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def nodes(k: np.ndarray, n: int) -> np.ndarray:
        return mid + half * np.cos(k * (math.pi / n))

    values = f(nodes(np.arange(n + 1), n))
    while True:
        yield half * np.dot(_clenshaw_curtis_weights(n), values)
        n *= 2
        if n > MAX_NODES:
            return
        both = np.empty(n + 1)
        both[0::2] = values
        both[1::2] = f(nodes(np.arange(1, n, 2), n))
        values = both


def _level_time_integral(p: HomogeneousPoly, r0: float, lo: float, hi: float) -> float:
    """Integral of dtheta / angular speed along the level curve through (r0, 0).

    Clenshaw-Curtis on [lo, hi], a half circle or the whole circle; both
    ends are nodes.  The interval count doubles until two successive
    estimates agree to QUAD_ATOL or QUAD_RTOL, and an integral still moving
    at MAX_NODES intervals (MAX_NODES + 1 nodes) raises QuadratureFailure.
    """
    if p.is_zero():
        return hi - lo
    d = p.degree
    a0 = float(p.axis_value)
    try:
        h2 = r0 * r0 + 2.0 * a0 * r0 ** d
    except OverflowError:
        # r0^d is beyond float range, and so is the level curve: _level_radii
        # refuses an energy or bracket that is not finite
        h2 = math.inf

    def integrand(theta: np.ndarray) -> np.ndarray:
        g = p(np.cos(theta), np.sin(theta))
        if d == 2:
            # the speed 1 + 2 g is radius free
            speed = 1.0 + 2.0 * g
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
    for value in _clenshaw_curtis_estimates(integrand, lo, hi, n):
        if previous is not None and abs(value - previous) <= max(QUAD_ATOL, QUAD_RTOL * abs(value)):
            return float(value)
        previous = value
    raise QuadratureFailure(
        f"level-curve quadrature did not converge on {MAX_NODES + 1} nodes at start "
        f"radius {r0}; the integrand is too sharply peaked this close to the "
        "edge of the period annulus"
    )


def quadrature_period(sys: PiecewiseSystem, side: str, r0: float) -> float:
    """Half period of one side by direct quadrature along the level curve."""
    _check_start(sys, side, r0, "transit")
    lo, hi = _angle_range(side, "transit")
    return _level_time_integral(sys.side(side), r0, lo, hi)


def smooth_period(sys: PiecewiseSystem, side: str, r0: float) -> float:
    """Whole-circle period of one side treated as a smooth system.

    The integrand has period 2 pi, so the rule runs over [theta*, theta* +
    2 pi] with theta* the angle where the profile is least.  The integrand
    peaks there, and the peak is itself a node, the end node of the rule,
    where Clenshaw-Curtis crowds its nodes, instead of falling between
    sparse mid-range nodes.
    """
    _check_start(sys, side, r0, "full")
    p = sys.side(side)
    start = profile_min(p, *_angle_range(side, "full"))[1]
    return _level_time_integral(p, r0, start, start + 2.0 * math.pi)
