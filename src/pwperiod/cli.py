"""Command line front end: parse a system file, run the pipeline, print and write.

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
+-4300) whose floats are finite, and nonzero for nonzero ones; a quadratic
side's floats must also agree with its exact coefficients on whether the
side's Hamiltonian is positive definite.  Option ranges:
1 <= order <= 128, 1 <= samples <= 100000, rmax and tol positive and
finite, seed >= 0.  The upper bounds keep every run finite in time and
memory: the exact series at order 128 takes seconds to minutes and about
100 MB, and each sample radius holds one table row.

This module only parses, renders and writes: ``main`` reads the file and
the overrides, ``analysis.run_report`` decides every report line and
anomaly, ``render_report`` joins them, and ``write_csv`` writes the rows.
Exit codes: 0 analysis completed (whatever the verdict), 2 bad input file,
option or CSV path, 3 numerical failure during analysis.
"""

from __future__ import annotations

import argparse
import math
import re
import sys as _sys
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from fractions import Fraction

from .analysis import AnalysisOptions, ReportBundle, _fmt, run_report
from .errors import (
    DegreeMismatch,
    EscapedAnnulus,
    ParseError,
    PwPeriodError,
    QuadratureFailure,
    RootBracketFailure,
    StepFailure,
)
from .systems import (
    HomogeneousPoly,
    PiecewiseSystem,
    annulus_bound,
    positive_definite,
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
    "annulus_bound",  # unused here; perfbench's tracer test reads this binding
]

CSV_HEADER = "r0,T_numeric,T_series,deviation"
MAX_ORDER = 128
MAX_SAMPLES = 100_000
# Fraction builds 10^|exponent| exactly, which takes seconds from 10^7 on;
# a coefficient written with a larger exponent is far outside float range
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?0*(\d+)$", re.IGNORECASE)


OPTION_NAMES = tuple(f.name for f in fields(AnalysisOptions))


@dataclass
class ParsedSpec:
    system: PiecewiseSystem
    options: AnalysisOptions
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
        # the center test on the floats' exact values: the clocks integrate those
        if degree == 2 and positive_definite(*coeffs) != positive_definite(*map(Fraction, floats)):
            _fail("coefficients whose floats flip whether the quadratic form is positive "
                  "definite", cline, craw)

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


def render_report(bundle: ReportBundle) -> str:
    """The lines ``run_report`` wrote, then one line per warning and per anomaly."""
    lines = bundle.lines + [f"warning: {note}" for note in bundle.warnings]
    lines += [f"anomaly: {note}" for note in bundle.report.anomalies] or ["anomalies: none"]
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
