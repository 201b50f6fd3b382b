"""The analyze pipeline and the analyses it runs: witness, cross-check, profiles.

``run_report`` is the pipeline behind ``analyze``.  It classifies the
system, draws the seeded sample grid, and writes each report line and
anomaly where it decides the fact: a non-center gets its correspondence
gaps; a center its exact series, a witness, the profile tags and the
crosscheck of the series against measured periods.  Every ODE transit it
reads comes from ``_transits``, and a degraded one is an anomaly.

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

from .errors import DegreeTooLow, EscapedAnnulus, HypothesisNotMet, NotACenter
from .flow import HalfOrbitResult, half_orbit, quadrature_period, smooth_period
from .periodseries import PeriodSeries, combined_period_series, jmax_for_order
from .systems import (
    LOWER_SIDE,
    SIDES,
    UPPER_SIDE,
    CenterClass,
    PiecewiseSystem,
    annulus_bound,
    classify,
    min_start_cap,
    start_radius_cap,
)
from .trigmoments import TrigValue, profile_power_integral, rational_str

TWO_PI = 2.0 * math.pi
# the two clocks' acceptance agreement: periods closer than this are equal
CLOCK_AGREEMENT = 1e-9
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
    "AnalysisOptions",
    "AnalysisReport",
    "ReportBundle",
    "WitnessSearch",
    "run_report",
    "find_witness",
    "cross_validate",
    "crosscheck_rows",
    "worst_deviation",
    "monotonicity_profile",
    "predicted_profiles",
    "half_equals_half_full_check",
    "CLOCK_AGREEMENT",
    "DECREASING",
    "INCREASING_UNBOUNDED",
    "MIN_CRITICAL",
    "CONSTANT",
    "UNDETERMINED",
]


@dataclass(frozen=True)
class AnalysisOptions:
    order: int = 8
    rmax: float = 0.2
    samples: int = 64
    tol: float = 1e-6
    seed: int = 0


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


@dataclass
class ReportBundle:
    report: AnalysisReport
    lines: list[str]
    period_rows: list[tuple[float, float, float, float]] | None
    gap_rows: list[tuple[float, float]] | None
    warnings: list[str] = field(default_factory=list)


def run_report(system: PiecewiseSystem, options: AnalysisOptions) -> ReportBundle:
    """Run the full pipeline: classify, series, witness, profiles, CSV rows.

    Each report line is written here, in order, where its fact is decided.
    """
    classification = classify(system)
    anomalies: list[str] = []
    warnings: list[str] = []
    case = f" (case {classification.case_tag})" if classification.case_tag else ""
    lines = [f"classification: {classification.verdict}{case}",
             f"  reason: {classification.reason}"]
    for side in SIDES:
        p = system.side(side)
        coeffs = ", ".join(map(rational_str, p.coeffs))
        lines.append(f"{side}: degree {p.degree}, coeffs [{coeffs}]")
        est = annulus_bound(system, side)
        lines.append(f"  annulus: r* = {est.r_star:.12g} at theta = {est.theta_star:.12g}"
                     if est.bounded else "  annulus: unbounded")
    if system.upper.is_zero() and system.lower.is_zero():
        lines.append("verdict: isochronous (trivial linear system, period 2*pi)")
    r_cap = 0.8 * min_start_cap(system)
    if not r_cap > 0.0:
        if classification.is_center:
            raise EscapedAnnulus("no closed crossing orbits exist near the origin")
        warnings.append("no crossing orbits exist near the origin, so no correspondence gaps")
        report = AnalysisReport(classification, None, None, None, None, anomalies)
        return ReportBundle(report, lines, None, None, warnings)
    grid, clamped = _sample_grid(options, r_cap)
    if clamped:
        warnings.append(
            f"sample grid clamped to r0 <= {grid[-1]:.6g} (period annulus bound)")

    if not classification.is_center:
        transits = _transits(system, grid)
        # each gap is correspondence_gap's: upper minus lower return radius
        gap_rows = [(float(r0), up.r_end - lo.r_end) for r0, (up, lo) in zip(grid, transits)]
        lines.append("correspondence gap table (r0, gap):")
        lines += [f"  {_fmt(r0)}  {_fmt(gap)}" for r0, gap in gap_rows]
        anomalies += _degraded_rows(_drifts(transits), len(gap_rows), "gap", "gaps are")
        report = AnalysisReport(classification, None, None, None, None, anomalies)
        return ReportBundle(report, lines, None, gap_rows, warnings)

    try:
        full = combined_period_series(system, jmax=jmax_for_order(system, options.order))
        series = full.truncate(options.order)
        obstruction = next(full.items(), None)
        lines.append(f"period series in r0, truncated at exponent {series.truncation_order}:")
        lines.append(f"  constant: {series.constant}")
        lines += [f"  r0^{e}: {c}" for e, c in series.items()]
        if not series.exponents:
            lines.append("  (no correction terms through the truncation order)")
        lines.append("first obstruction: none through the truncation order" if obstruction is None
                     else "first obstruction: exponent %d, coefficient %s" % obstruction)
    except DegreeTooLow:
        series = obstruction = None
        anomalies.append("series unavailable: a quadratic side has no expansion grid")

    search = find_witness(system, tol=options.tol, r_max=float(grid[-1]))
    anomalies.extend(search.anomalies)
    if search.witness is None:
        lines.append("witness: none found")
    else:
        r0, period, dev = search.witness
        lines.append(f"witness: r0 = {_fmt(r0)}, period = {_fmt(period)}, "
                     f"|period - 2*pi| = {_fmt(dev)}")

    tags = []
    for side in SIDES:
        tag = monotonicity_profile(system, side)
        tags.append(f"{side} {tag}")
        allowed = predicted_profiles(system, side)
        if tag not in allowed:
            anomalies.append(
                f"{side} profile {tag} disagrees with the predicted {sorted(allowed)}")
    lines.append(f"monotonicity: {', '.join(tags)}")

    rows, drifts = crosscheck_rows(system, series, grid)
    anomalies += _degraded_rows(drifts, len(rows), "crosscheck", "T_numeric is")
    worst = None
    if series is not None:
        worst = worst_deviation(rows)
        lines.append(f"series crosscheck, max |T_numeric - T_series|: {_fmt(worst)}")
        # A series with terms that fits the numeric periods no better than the
        # constant 2*pi alone is being evaluated outside the range where it
        # means anything.  A series without terms is the constant itself, and
        # periods within CLOCK_AGREEMENT of 2*pi leave only clock noise.
        baseline = max(abs(t_num - TWO_PI) for _, t_num, _, _ in rows)
        if series.exponents and worst >= baseline > CLOCK_AGREEMENT:
            anomalies.append(
                "series evaluated outside its range: the crosscheck is no better than "
                f"the constant term alone, max |T_numeric - 2*pi|: {_fmt(baseline)}")

    report = AnalysisReport(classification, series, obstruction, search.witness, worst,
                            anomalies)
    return ReportBundle(report, lines, rows, None, warnings)


def _sample_grid(options: AnalysisOptions, r_cap: float) -> tuple[np.ndarray, bool]:
    rng = np.random.default_rng(options.seed)
    top = options.rmax
    clamped = False
    if math.isfinite(r_cap) and top > r_cap:
        top = r_cap
        clamped = True
    grid = np.sort(rng.uniform(0.05 * top, top, options.samples))
    return grid, clamped


def _degraded_rows(drifts: list[float], total: int, table: str, values: str) -> list[str]:
    """One anomaly for a table with ``drifts`` degraded rows of ``total``, none without."""
    if not drifts:
        return []
    return [f"ODE clock degraded on {len(drifts)} of {total} {table} rows (energy drift "
            f"up to {max(drifts):.3g}); their {values} not trustworthy"]


def _fmt(value: float) -> str:
    return "%.17g" % value


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
    drifts = _drifts(transits)
    if drifts:
        out.anomalies.append(
            f"ODE clock degraded at the probe radii up to r0 = {r_hi:.6g} (energy drift "
            f"{max(drifts):.3g}); the witness search reads no period from them")
        return out
    values = [up.time + lo.time for up, lo in transits]
    spread = max(values) - min(values)
    mean = sum(values) / len(values)
    if spread <= max(CLOCK_AGREEMENT, 1e-12 * abs(mean)):
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


def _drifts(transits) -> list[float]:
    """The larger energy drift of each transit pair with a degraded transit."""
    return [max(up.energy_drift, lo.energy_drift) for up, lo in transits
            if up.degraded or lo.degraded]


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
    transits = _transits(sys, grid)
    rows = []
    for r0, (up, lo) in zip(grid, transits):
        r0, t_num = float(r0), up.time + lo.time
        t_ser = series(r0) if series is not None else math.nan
        rows.append((r0, t_num, t_ser, abs(t_num - t_ser)))
    return rows, _drifts(transits)


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
