"""Higher-level analysis: witnesses, cross-validation, period profiles.

Everything here reports what was measured; the witness rests on measured
periods alone.  A missing witness is returned as None together with an
explanatory anomaly string.  No step hard-codes a theorem's conclusion:
the constant-period case in particular is detected from the data and
flagged as being in tension with the expected non-isochronicity, not
suppressed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisNotMet, NotACenter
from .flow import HalfOrbitResult, half_orbit, quadrature_period, smooth_period
from .periodseries import PeriodSeries, combined_period_series, jmax_for_order
from .systems import (
    LOWER_SIDE,
    UPPER_SIDE,
    CenterClass,
    PiecewiseSystem,
    annulus_bound,
    classify,
    min_start_cap,
    start_radius_cap,
)
from .trigmoments import TrigValue, profile_power_integral

TWO_PI = 2.0 * math.pi
# radii at which the monotonicity tag samples a side's whole-circle period
PROFILE_POINTS = 9
# fraction of the whole-circle start cap they reach; nearer the cap the
# quadrature clock stops converging on some sides
PROFILE_REACH = 0.95
# odd powers of the profile whose half-range moments must vanish before an
# even exponent side may use the half-period identity
MOMENT_BOUND = 15

DECREASING = "decreasing"
INCREASING_UNBOUNDED = "increasing_unbounded"
MIN_CRITICAL = "min_critical"
CONSTANT = "constant"
UNDETERMINED = "undetermined"

__all__ = [
    "AnalysisReport",
    "WitnessSearch",
    "find_witness",
    "cross_validate",
    "crosscheck_rows",
    "worst_deviation",
    "monotonicity_profile",
    "predicted_profiles",
    "half_equals_half_full_check",
    "DECREASING",
    "INCREASING_UNBOUNDED",
    "MIN_CRITICAL",
    "CONSTANT",
    "UNDETERMINED",
]


@dataclass
class WitnessSearch:
    """Outcome of the non-isochronicity witness search."""

    witness: tuple[float, float, float] | None  # (r0, period, |period - 2 pi|)
    anomalies: list[str] = field(default_factory=list)
    evaluations: int = 0


@dataclass
class AnalysisReport:
    """Everything the pipeline establishes about one system."""

    classification: CenterClass
    series: PeriodSeries | None
    obstruction: tuple[int, TrigValue] | None
    witness: tuple[float, float, float] | None
    crosscheck: float | None
    anomalies: list[str]


def find_witness(sys: PiecewiseSystem, tol: float = 1e-6,
                 r_max: float | None = None) -> WitnessSearch:
    """Search for a radius whose period differs from 2 pi by more than tol.

    The ODE clock measures the period once at each probe radius r_hi, r_hi/4
    and r_hi/16, where r_hi is 0.8 of the start cap (0.5 when unlimited) and
    at most r_max; the witness is the largest probe off 2 pi by more than
    tol.  Equal periods at all probes away from 2 pi are a constant profile,
    an anomaly and not a witness; near 2 pi they end the search quietly only
    when no side is nonlinear, since a nonlinear side's variation can fall
    below the clocks' agreement.  A degraded probe transit, or no probe
    beyond tol, is an anomaly without a witness.
    """
    verdict = classify(sys)
    if not verdict.is_center:
        raise NotACenter(f"witness search needs a center: {verdict.reason}")
    cap = min_start_cap(sys)
    r_hi = 0.8 * cap if math.isfinite(cap) else 0.5
    if r_max is not None:
        r_hi = min(r_hi, r_max)
    probes = [r_hi, r_hi / 4.0, r_hi / 16.0]
    transits = _transits(sys, probes)
    out = WitnessSearch(witness=None, evaluations=len(probes))
    if any(t.degraded for pair in transits for t in pair):
        drift = max(t.energy_drift for pair in transits for t in pair)
        out.anomalies.append(
            f"ODE clock degraded at the probe radii up to r0 = {r_hi:.6g} (energy drift "
            f"{drift:.3g}); the witness search reads no period from them")
        return out
    values = [up.time + lo.time for up, lo in transits]
    spread = max(values) - min(values)
    mean = sum(values) / len(values)
    if spread <= max(1e-9, 1e-12 * abs(mean)):
        if abs(mean - TWO_PI) > tol:
            out.anomalies.append(
                f"period is constant at {mean:.12g} but differs from 2*pi; "
                "apparently isochronous center, in tension with the expected "
                "non-isochronicity of nonlinear crossing centers"
            )
            return out
        if all(p.is_zero() or p.degree == 2 for p in (sys.upper, sys.lower)):
            return out
    for r, value in zip(probes, values):
        dev = abs(value - TWO_PI)
        if dev > tol:
            out.witness = (r, value, dev)
            return out
    out.anomalies.append(
        f"no witness found: |period - 2*pi| <= {tol:g} at the probe radii "
        f"r0 = {probes[0]:.6g}, {probes[1]:.6g} and {probes[2]:.6g}")
    return out


def _transits(sys: PiecewiseSystem, radii) -> list[tuple[HalfOrbitResult, HalfOrbitResult]]:
    """The upper and lower ODE transits from each radius; their times sum to the period."""
    return [(half_orbit(sys, UPPER_SIDE, float(r)), half_orbit(sys, LOWER_SIDE, float(r)))
            for r in radii]


def crosscheck_rows(sys: PiecewiseSystem, series: PeriodSeries | None, grid
                    ) -> tuple[list[tuple[float, float, float, float]], list[float]]:
    """Rows (r0, T_numeric, T_series, deviation) over the grid, and degraded rows' drifts.

    T_numeric sums the two transit times, as ``numeric_period`` does.  A
    row with a degraded transit keeps its period, and the larger energy
    drift of its transits is listed, so the caller can flag it.  Without a
    series the last two columns are nan.
    """
    verdict = classify(sys)
    if not verdict.is_center:
        raise NotACenter(f"periods need a center: {verdict.reason}")
    rows, drifts = [], []
    for r0, (up, lo) in zip(grid, _transits(sys, grid)):
        r0, t_num = float(r0), up.time + lo.time
        t_ser = series(r0) if series is not None else math.nan
        rows.append((r0, t_num, t_ser, abs(t_num - t_ser)))
        if up.degraded or lo.degraded:
            drifts.append(max(up.energy_drift, lo.energy_drift))
    return rows, drifts


def worst_deviation(rows) -> float:
    """Largest deviation among crosscheck rows, 0 for no rows.

    A series value beyond float range (nan or inf) fits worst of all, so a
    non-finite deviation counts as +inf; max() alone would keep or drop a
    nan depending on the order.
    """
    return max((dev if math.isfinite(dev) else math.inf for *_, dev in rows), default=0.0)


def cross_validate(sys: PiecewiseSystem, order: int, grid) -> float:
    """Largest deviation between the ODE period and the truncated series.

    The series is truncated at the requested r0 exponent; the deviation must
    shrink like the first dropped exponent when the grid is scaled down,
    which the acceptance tests check by halving the grid.
    """
    series = combined_period_series(sys, jmax=jmax_for_order(sys, order)).truncate(order)
    return worst_deviation(crosscheck_rows(sys, series, grid)[0])


def monotonicity_profile(sys: PiecewiseSystem, side: str) -> str:
    """Tag the sampled whole-circle period profile of one side.

    Samples the side as a smooth system on PROFILE_POINTS radii up to
    PROFILE_REACH of its whole-circle start cap (up to 1 when the cap is
    unlimited) and classifies the shape: constant, decreasing, increasing
    (reported as unbounded growth when the annulus is bounded, which is what
    forces the increase to continue), or a single interior minimum.  A
    minimum closer to the cap than PROFILE_REACH is missed.  A zero or
    quadratic side is CONSTANT without sampling: its angular speed does not
    depend on the radius.
    """
    p = sys.side(side)
    if p.is_zero() or p.degree == 2:
        return CONSTANT
    cap = start_radius_cap(sys, side, "full")
    top = PROFILE_REACH * cap if math.isfinite(cap) else 1.0
    values = [smooth_period(sys, side, float(r))
              for r in np.linspace(0.05 * top, top, PROFILE_POINTS)]
    scale = max(abs(v) for v in values)
    tol = 1e-9 * scale
    if max(values) - min(values) <= tol:
        return CONSTANT
    diffs = [b - a for a, b in zip(values, values[1:])]
    if all(d <= tol for d in diffs):
        return DECREASING
    if all(d >= -tol for d in diffs):
        bounded = annulus_bound(sys, side).bounded
        return INCREASING_UNBOUNDED if bounded else UNDETERMINED
    signs = [d > 0 for d in diffs]
    switches = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    if switches == 1 and not signs[0] and signs[-1]:
        return MIN_CRITICAL
    return UNDETERMINED


def predicted_profiles(sys: PiecewiseSystem, side: str) -> set[str]:
    """Profile tags consistent with the side's exponent parity and sign of g."""
    p = sys.side(side)
    if p.is_zero() or p.degree == 2:
        return {CONSTANT}
    n = p.degree - 1
    if n % 2 == 0:
        return {INCREASING_UNBOUNDED}
    if not annulus_bound(sys, side).bounded:
        return {DECREASING}
    return {INCREASING_UNBOUNDED, MIN_CRITICAL}


def half_equals_half_full_check(sys: PiecewiseSystem, side: str, grid,
                                tol: float = 1e-8) -> bool:
    """Check T_half == T_full / 2 for one side across the grid.

    The identity requires either an odd exponent or vanishing odd half-range
    moments of the profile; both conditions are tested exactly before any
    numerics run, and HypothesisNotMet is raised when neither holds.
    """
    p = sys.side(side)
    if p.is_zero():
        return True
    n = p.degree - 1
    if n % 2 == 0:
        # a side name is also the range tag of its half circle
        for j in range(1, MOMENT_BOUND + 1, 2):
            if not profile_power_integral(p, j, side).is_zero():
                raise HypothesisNotMet(
                    f"even exponent side with nonvanishing odd moment at power {j}; "
                    "the half-period identity does not apply"
                )
    for r0 in grid:
        r0 = float(r0)
        half = quadrature_period(sys, side, r0)
        full = smooth_period(sys, side, r0)
        if abs(half - 0.5 * full) > tol:
            return False
    return True
