"""Command line front end: parse a system file, analyze it, emit report + CSV.

File format, line oriented, '#' starts a comment anywhere:

    [upper]
    degree = 3
    coeffs = 0, 1, 0, 0

    [lower]
    degree = 3
    coeffs = 0, 0, 0, 1

    [options]          # optional section, keys below with their defaults
    order = 8
    rmax = 0.2
    samples = 64
    tol = 1e-6
    seed = 0

Coefficients are exact rationals ("2", "-1/3", "1e-3", exponent within
+-4300) whose floats are finite, and nonzero for nonzero ones.  Option ranges:
1 <= order <= 128, 1 <= samples <= 100000, rmax and tol positive and
finite, seed >= 0.  The upper bounds keep every run finite in time and
memory: the exact series at order 128 takes seconds to minutes and about
100 MB, and each sample radius holds one table row.  Exit codes: 0
analysis completed (whatever the verdict), 2 bad input file, option or CSV
path, 3 numerical failure during analysis.
"""

from __future__ import annotations

import argparse
import math
import re
import sys as _sys
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from .analysis import (
    AnalysisReport,
    crosscheck_rows,
    find_witness,
    monotonicity_profile,
    predicted_profiles,
    worst_deviation,
)
from .errors import (
    DegreeMismatch,
    DegreeTooLow,
    EscapedAnnulus,
    ParseError,
    PwPeriodError,
    QuadratureFailure,
    RootBracketFailure,
    StepFailure,
)
from .flow import correspondence_gap
from .periodseries import combined_period_series, jmax_for_order
from .systems import (
    SIDES,
    HomogeneousPoly,
    PiecewiseSystem,
    annulus_bound,
    classify,
    min_start_cap,
)

__all__ = [
    "AnalysisOptions",
    "ParsedSpec",
    "ReportBundle",
    "parse_spec",
    "format_spec",
    "run_report",
    "render_report",
    "write_csv",
    "main",
]

CSV_HEADER = "r0,T_numeric,T_series,deviation"
MAX_ORDER = 128
MAX_SAMPLES = 100_000
# the two clocks' acceptance agreement: periods closer than this are equal
CLOCK_AGREEMENT = 1e-9
# Fraction builds 10^|exponent| exactly, which takes seconds from 10^7 on;
# a coefficient written with a larger exponent is far outside float range
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?0*(\d+)$", re.IGNORECASE)


@dataclass(frozen=True)
class AnalysisOptions:
    order: int = 8
    rmax: float = 0.2
    samples: int = 64
    tol: float = 1e-6
    seed: int = 0


OPTION_NAMES = tuple(f.name for f in fields(AnalysisOptions))


@dataclass
class ParsedSpec:
    system: PiecewiseSystem
    options: AnalysisOptions
    warnings: list[str] = field(default_factory=list)


@dataclass
class ReportBundle:
    system: PiecewiseSystem
    report: AnalysisReport
    period_rows: list[tuple[float, float, float, float]] | None
    gap_rows: list[tuple[float, float]] | None
    warnings: list[str] = field(default_factory=list)


_SECTION_KEYS = {
    "upper": {"degree", "coeffs"},
    "lower": {"degree", "coeffs"},
    "options": set(OPTION_NAMES),
}


def _fail(msg: str, line_no: int, line: str, token: str | None = None):
    column = None
    if token is not None:
        pos = line.find(token)
        if pos >= 0:
            column = pos + 1
    raise ParseError(msg, line_no, column)


def _bad_option(options: AnalysisOptions) -> str | None:
    """Name of the first option outside its range, or None if all are valid."""
    checks = (("order", 1 <= options.order <= MAX_ORDER),
              ("rmax", 0.0 < options.rmax < math.inf),
              ("samples", 1 <= options.samples <= MAX_SAMPLES),
              ("tol", 0.0 < options.tol < math.inf),
              ("seed", options.seed >= 0))
    return next((key for key, ok in checks if not ok), None)


def parse_spec(text: str) -> ParsedSpec:
    """Strict parse of the system description format."""
    sections: dict[str, dict[str, tuple[str, int, str]]] = {}
    current: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                _fail("unterminated section header", line_no, raw)
            name = line[1:-1].strip().lower()
            if name not in _SECTION_KEYS:
                _fail(f"unknown section [{name}]", line_no, raw, name)
            if name in sections:
                _fail(f"duplicate section [{name}]", line_no, raw, name)
            sections[name] = {}
            current = name
            continue
        if current is None:
            _fail("content before any section header", line_no, raw)
        if "=" not in line:
            _fail("expected 'key = value'", line_no, raw)
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _SECTION_KEYS[current]:
            _fail(f"unknown key {key!r} in section [{current}]", line_no, raw, key)
        if key in sections[current]:
            _fail(f"duplicate key {key!r} in section [{current}]", line_no, raw, key)
        if not value:
            _fail(f"empty value for {key!r}", line_no, raw)
        sections[current][key] = (value, line_no, raw)

    for side in ("upper", "lower"):
        if side not in sections:
            raise ParseError(f"missing required section [{side}]")

    polys = {}
    for side in ("upper", "lower"):
        body = sections[side]
        if "degree" not in body:
            raise ParseError(f"section [{side}] is missing 'degree'")
        if "coeffs" not in body:
            raise ParseError(f"section [{side}] is missing 'coeffs'")
        dval, dline, draw = body["degree"]
        try:
            degree = int(dval)
        except ValueError:
            _fail(f"degree must be an integer, got {dval!r}", dline, draw, dval)
        if degree < 2:
            _fail(f"degree must be >= 2, got {degree}", dline, draw, dval)
        cval, cline, craw = body["coeffs"]
        tokens = [tok.strip() for tok in cval.split(",")]
        coeffs = []
        for tok in tokens:
            if not tok:
                _fail("empty coefficient entry", cline, craw)
            exponent = _EXPONENT.search(tok.replace("_", ""))  # it may have millions of digits
            if exponent and int(exponent[1][:5]) > MAX_EXPONENT:
                _fail(f"coefficient exponent beyond +-{MAX_EXPONENT}", cline, craw, tok)
            try:
                coeffs.append(Fraction(tok))
            except ZeroDivisionError:
                _fail(f"zero denominator in coefficient {tok!r}", cline, craw, tok)
            except ValueError:
                _fail(f"coefficient {tok!r} is not an exact rational", cline, craw, tok)
        if len(coeffs) != degree + 1:
            raise DegreeMismatch(
                f"section [{side}] declares degree {degree} but lists "
                f"{len(coeffs)} coefficients (need {degree + 1})", cline)
        polys[side] = HomogeneousPoly(degree, coeffs)
        try:
            floats = polys[side].float_coeffs()[0]  # the numeric clocks need them
        except OverflowError:
            _fail("coefficient too large for floating-point evaluation", cline, craw)
        if any(c and not f for c, f in zip(coeffs, floats)):
            _fail("coefficient too small for floating-point evaluation", cline, craw)

    options = AnalysisOptions()
    if "options" in sections:
        body = sections["options"]
        parsed = {}
        for key, (value, line_no, raw) in body.items():
            try:
                parsed[key] = type(getattr(options, key))(value)
            except ValueError:
                _fail(f"invalid value for {key!r}: {value!r}", line_no, raw, value)
        options = replace(options, **parsed)
        key = _bad_option(options)
        if key is not None:
            value, line_no, raw = body[key]
            _fail(f"{key} out of range: {value}", line_no, raw, value)

    system = PiecewiseSystem(upper=polys["upper"], lower=polys["lower"])
    warnings = []
    if system.upper.is_zero() and system.lower.is_zero():
        warnings.append("EmptySystem: both nonlinearities vanish; the system is linear")
    return ParsedSpec(system, options, warnings)


def format_spec(system: PiecewiseSystem, options: AnalysisOptions) -> str:
    """Canonical text form; parse_spec(format_spec(s, o)) reproduces (s, o)."""
    lines = []
    for side in ("upper", "lower"):
        p = system.side(side)
        lines.append(f"[{side}]")
        lines.append(f"degree = {p.degree}")
        lines.append("coeffs = " + ", ".join(str(c) for c in p.coeffs))
        lines.append("")
    lines.append("[options]")
    lines += [f"{key} = {getattr(options, key)!r}" for key in OPTION_NAMES]
    return "\n".join(lines) + "\n"


def _sample_grid(options: AnalysisOptions, r_cap: float) -> tuple[np.ndarray, bool]:
    rng = np.random.default_rng(options.seed)
    top = options.rmax
    clamped = False
    if math.isfinite(r_cap) and top > r_cap:
        top = r_cap
        clamped = True
    grid = np.sort(rng.uniform(0.05 * top, top, options.samples))
    return grid, clamped


def run_report(system: PiecewiseSystem, options: AnalysisOptions) -> ReportBundle:
    """Run the full pipeline: classify, series, witness, profiles, CSV rows."""
    classification = classify(system)
    anomalies: list[str] = []
    warnings: list[str] = []
    r_cap = 0.8 * min_start_cap(system)
    if not r_cap > 0.0:
        raise EscapedAnnulus("no closed crossing orbits exist near the origin")
    grid, clamped = _sample_grid(options, r_cap)
    if clamped:
        warnings.append(
            f"sample grid clamped to r0 <= {grid[-1]:.6g} (period annulus bound)")

    if not classification.is_center:
        gap_rows = [(float(r0), correspondence_gap(system, float(r0))) for r0 in grid]
        report = AnalysisReport(classification, None, None, None, {}, None, anomalies)
        return ReportBundle(system, report, None, gap_rows, warnings)

    series = None
    obstruction = None
    try:
        full = combined_period_series(system, jmax=jmax_for_order(system, options.order))
        series = full.truncate(options.order)
        obstruction = next(full.items(), None)
    except DegreeTooLow:
        anomalies.append("series unavailable: a quadratic side has no expansion grid")

    search = find_witness(system, tol=options.tol, r_max=float(grid[-1]))
    anomalies.extend(search.anomalies)

    monotonicity: dict[str, str] = {}
    for side in SIDES:
        monotonicity[side] = tag = monotonicity_profile(system, side)
        allowed = predicted_profiles(system, side)
        if tag not in allowed:
            anomalies.append(
                f"{side} profile {tag} disagrees with the predicted {sorted(allowed)}")

    rows = crosscheck_rows(system, series, grid)
    worst = worst_deviation(rows) if series is not None else None
    # A series with terms that fits the numeric periods no better than the
    # constant 2*pi alone is being evaluated outside the range where it means
    # anything.  A series without terms is the constant itself, and numeric
    # periods within CLOCK_AGREEMENT of 2*pi leave only clock noise to compare.
    if series is not None and series.exponents:
        baseline = max(abs(t_num - 2 * math.pi) for _, t_num, _, _ in rows)
        if worst >= baseline > CLOCK_AGREEMENT:
            anomalies.append(
                "series evaluated outside its range: the crosscheck is no better than "
                f"the constant term alone, max |T_numeric - 2*pi|: {_fmt(baseline)}")

    report = AnalysisReport(classification, series, obstruction, search.witness,
                            monotonicity, worst, anomalies)
    return ReportBundle(system, report, rows, None, warnings)


def _fmt(value: float) -> str:
    return "%.17g" % value


def render_report(bundle: ReportBundle) -> str:
    """Human readable summary of a ReportBundle."""
    rep = bundle.report
    sys_ = bundle.system
    lines = []
    tag = f" (case {rep.classification.case_tag})" if rep.classification.case_tag else ""
    lines.append(f"classification: {rep.classification.verdict}{tag}")
    lines.append(f"  reason: {rep.classification.reason}")
    for side in SIDES:
        p = sys_.side(side)
        desc = ", ".join(str(c) for c in p.coeffs)
        lines.append(f"{side}: degree {p.degree}, coeffs [{desc}]")
        est = annulus_bound(sys_, side)
        if est.bounded:
            lines.append(f"  annulus: r* = {est.r_star:.12g} at theta = {est.theta_star:.12g}")
        else:
            lines.append("  annulus: unbounded")
    if sys_.upper.is_zero() and sys_.lower.is_zero():
        lines.append("verdict: isochronous (trivial linear system, period 2*pi)")
    if rep.series is not None:
        lines.append(f"period series in r0, truncated at exponent {rep.series.truncation_order}:")
        lines.append(f"  constant: {rep.series.constant}")
        for e, c in rep.series.items():
            lines.append(f"  r0^{e}: {c}")
        if not rep.series.exponents:
            lines.append("  (no correction terms through the truncation order)")
    if rep.obstruction is not None:
        e, c = rep.obstruction
        lines.append(f"first obstruction: exponent {e}, coefficient {c}")
    elif rep.series is not None:
        lines.append("first obstruction: none through the truncation order")
    if rep.witness is not None:
        r0, period, dev = rep.witness
        lines.append(f"witness: r0 = {_fmt(r0)}, period = {_fmt(period)}, "
                     f"|period - 2*pi| = {_fmt(dev)}")
    elif rep.classification.is_center:
        lines.append("witness: none found")
    if rep.monotonicity:
        pieces = ", ".join(f"{side} {tag}" for side, tag in rep.monotonicity.items())
        lines.append(f"monotonicity: {pieces}")
    if rep.crosscheck is not None:
        lines.append(f"series crosscheck, max |T_numeric - T_series|: {_fmt(rep.crosscheck)}")
    if bundle.gap_rows is not None:
        lines.append("correspondence gap table (r0, gap):")
        for r0, gap in bundle.gap_rows:
            lines.append(f"  {_fmt(r0)}  {_fmt(gap)}")
    for note in bundle.warnings:
        lines.append(f"warning: {note}")
    if rep.anomalies:
        for note in rep.anomalies:
            lines.append(f"anomaly: {note}")
    else:
        lines.append("anomalies: none")
    return "\n".join(lines) + "\n"


def write_csv(rows, path: str, timestamp: bool = True) -> None:
    """Write period rows as CSV with 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if timestamp:
            stamp = datetime.now(timezone.utc).isoformat()
            fh.write(f"# generated {stamp}\n")
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="analyze",
        description="Analyze a piecewise Hamiltonian system description file.")
    parser.add_argument("specfile", help="path to the system description")
    parser.add_argument("--order", type=int, help="series truncation exponent in r0")
    parser.add_argument("--rmax", type=float, help="largest sample radius")
    parser.add_argument("--samples", type=int, help="number of sample radii")
    parser.add_argument("--tol", type=float, help="witness threshold on |T - 2*pi|")
    parser.add_argument("--csv", metavar="PATH", help="write the sample table to PATH")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp comment from the CSV")
    parser.add_argument("--seed", type=int, help="sample grid seed")
    args = parser.parse_args(argv)

    try:
        with open(args.specfile, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.specfile}: {exc}", file=_sys.stderr)
        return 2

    try:
        parsed = parse_spec(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=_sys.stderr)
        return 2

    overrides = {key: getattr(args, key) for key in OPTION_NAMES
                 if getattr(args, key) is not None}
    options = replace(parsed.options, **overrides)
    key = _bad_option(options)
    if key is not None:
        # the file's own options passed parse_spec, so the override is at fault
        print(f"error: --{key} out of range: {overrides[key]}", file=_sys.stderr)
        return 2

    # a valid file's exact coefficients can pass the int-to-str digit limit of
    # Python >= 3.10.7; the limit stays on for parsing, which reads outside input
    digit_limit = getattr(_sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        _sys.set_int_max_str_digits(0)
    try:
        bundle = run_report(parsed.system, options)
        bundle.warnings = parsed.warnings + bundle.warnings
        rendered = render_report(bundle)
    except (EscapedAnnulus, StepFailure, RootBracketFailure, QuadratureFailure) as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 3
    except PwPeriodError as exc:
        print(f"analysis failure: {exc}", file=_sys.stderr)
        return 3
    finally:
        if digit_limit:
            _sys.set_int_max_str_digits(digit_limit)

    _sys.stdout.write(rendered)
    if args.csv:
        rows = bundle.period_rows if bundle.period_rows is not None else []
        try:
            write_csv(rows, args.csv, timestamp=not args.no_timestamp)
        except OSError as exc:
            print(f"error: cannot write {args.csv}: {exc}", file=_sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
