"""Output checks, run after the timed phase.

Each check compares what pwperiod returned with a value computed apart from
it (``reference``) or with a property the method must have, never with a
stored copy of earlier output.  Checks return a list of problems; an empty
list means the output is correct.  ``operation_failed`` decides which
operations count as failed rather than wrong.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import reference
from inputs import coeffs

PERIOD_TOL = 1e-9       # float clocks against the 20-digit mpmath period
CLOCK_TOL = 1e-9        # ODE clock against the quadrature clock
SERIES_EVAL_TOL = 1e-12  # printed T_series against the exact series
CLOCK_MPMATH_SAMPLE = 6  # clock_sweep operations checked against mpmath per run
DEFAULT_TOL = 1e-6      # analyze's default witness threshold
DEFAULT_ORDER = 8
DEFAULT_SAMPLES = 64
CSV_HEADER = "r0,T_numeric,T_series,deviation"
TWO_PI = 2.0 * math.pi


def operation_failed(workload: str, op: dict, record: dict) -> bool:
    """An operation fails when it raises or analyze prints a traceback.

    A timed analyze must exit 0; the untimed ``--rmax inf`` operation may
    also end with the CLI's input or numerical failure codes, 2 and 3.
    """
    if "error" in record:
        return True
    if workload == "analyze_cold":
        allowed = (0,) if op["timed"] else (0, 2, 3)
        return record["rc"] not in allowed or "Traceback" in record["stderr"]
    return False


# -- exact series -----------------------------------------------------------

def parse_trig(text: str) -> tuple[Fraction, Fraction]:
    rat, pi = text.strip().split(" + ", 1)
    if not pi.endswith("*pi"):
        raise ValueError(f"not a rational-plus-pi value: {text!r}")
    return Fraction(rat), Fraction(pi[:-3])


def check_series(system: dict, constant, terms: dict, truncation: int,
                 jmax: int, obstruction, known=None) -> list[str]:
    """Series and first obstruction against the closed-form recomputation."""
    problems = []
    up, lo = coeffs(system["upper"]), coeffs(system["lower"])
    if tuple(constant) != (0, 2):
        problems.append(f"constant term {constant} is not exactly 2*pi")
    expected = reference.combined_series(up, lo, truncation)
    if terms != expected:
        wrong = sorted(e for e in set(terms) | set(expected) if terms.get(e) != expected.get(e))
        problems.append(f"series coefficients differ from the closed form at exponents {wrong}")
    full = reference.combined_series(up, lo, reference.series_order(up, lo, jmax))
    want = reference.first_term(full)
    if known is not None:
        want_known = (known[0], Fraction(known[1]), Fraction(known[2]))
        if want != want_known:
            problems.append(f"closed form gives obstruction {want}, frozen value {want_known}")
        want = want_known
    got = None if obstruction is None else tuple(obstruction)
    if got != want:
        problems.append(f"first obstruction {got}, expected {want}")
    return problems


def check_period_coefficients(n: int, jmax: int, oracle_lams) -> list[str]:
    """Closed-form period coefficients against ``reversion_oracle``."""
    closed = [reference.period_coefficient(j, n) for j in range(1, jmax + 1)]
    oracle = reference.period_from_radius_coefficients(list(oracle_lams), n)
    bad = [j for j, (a, b) in enumerate(zip(closed, oracle), start=1) if a != b]
    return [f"n={n}: closed-form period coefficients differ from the oracle at j={bad}"] if bad else []


def check_series_op(system: dict, op: dict, record: dict) -> list[str]:
    terms = {e: (Fraction(r), Fraction(p)) for e, r, p in record["terms"]}
    problems = []
    if record["truncation"] != op["order"]:
        problems.append(f"truncation {record['truncation']}, asked for {op['order']}")
    obstruction = record["obstruction"]
    if obstruction is not None:
        obstruction = (obstruction[0], Fraction(obstruction[1]), Fraction(obstruction[2]))
    constant = tuple(Fraction(v) for v in record["constant"])
    problems += check_series(system, constant, terms, op["order"], op["order"], obstruction,
                             system.get("obstruction"))
    return problems


# -- numeric periods ----------------------------------------------------------

def check_period(system: dict, r0: float, value: float, what: str) -> list[str]:
    ref = reference.mp_period(coeffs(system["upper"]), coeffs(system["lower"]), r0)
    if not abs(value - ref) <= PERIOD_TOL:
        return [f"{what} at r0={r0!r}: {value!r} differs from the mpmath period {ref!r} "
                f"by {abs(value - ref):.3g}"]
    return []


def check_clocks(ode: float, quad: float, r0: float) -> list[str]:
    if not abs(ode - quad) <= CLOCK_TOL:
        return [f"clocks disagree at r0={r0!r}: ODE {ode!r}, quadrature {quad!r}"]
    return []


def check_clock_records(plan: dict, passes: list[list[dict]]) -> list[str]:
    """Every operation: the clocks agree and repeats match; a sample: mpmath."""
    problems = []
    first = passes[0]
    for i, (op, record) in enumerate(zip(plan["ops"], first)):
        if "error" in record:
            continue
        problems += check_clocks(record["ode"], record["quad_upper"] + record["quad_lower"], op["r0"])
        for again in passes[1:]:
            other = again[i]
            if "error" not in other and other["ode"] != record["ode"]:
                problems.append(f"{op['system']} r0={op['r0']!r}: ODE period changed between passes")
    ok = [i for i, r in enumerate(first) if "error" not in r]
    for i in random.Random(f"check:{plan['seed']}").sample(ok, min(CLOCK_MPMATH_SAMPLE, len(ok))):
        op = plan["ops"][i]
        problems += check_period(plan["systems"][op["system"]], op["r0"], first[i]["ode"],
                                 f"{op['system']} ODE period")
    return problems


def check_case_labels(plan: dict, classify) -> list[str]:
    """Generated centers: the case they were built to is the verdict."""
    problems = []
    for name, system in plan["systems"].items():
        verdict = classify(system)
        if verdict != ("SigmaCenter", system["case"]):
            problems.append(f"{name}: built as case {system['case']}, classified {verdict}")
    return problems


# -- analyze ----------------------------------------------------------------

def parse_report(text: str) -> dict:
    out = {"series": None, "obstruction": None, "witness": None, "gaps": None, "case": None}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("classification: "):
            head = line[len("classification: "):]
            out["verdict"] = head.split(" ", 1)[0]
            if "(case " in head:
                out["case"] = head.split("(case ", 1)[1].rstrip(")")
        elif line.startswith("period series in r0, truncated at exponent "):
            out["truncation"] = int(line.rsplit(" ", 1)[1].rstrip(":"))
            out["series"] = {}
            while i + 1 < len(lines) and lines[i + 1].startswith("  "):
                i += 1
                key, value = lines[i].strip().split(": ", 1)
                if key == "constant":
                    out["constant"] = parse_trig(value)
                elif key.startswith("r0^"):
                    out["series"][int(key[3:])] = parse_trig(value)
        elif line.startswith("first obstruction: exponent "):
            exp, coeff = line[len("first obstruction: exponent "):].split(", coefficient ")
            out["obstruction"] = (int(exp), *parse_trig(coeff))
        elif line.startswith("witness: r0 = "):
            parts = [p.split(" = ")[1] for p in line[len("witness: "):].split(", ")]
            out["witness"] = tuple(float(p) for p in parts)
        elif line.startswith("correspondence gap table"):
            out["gaps"] = []
            while i + 1 < len(lines) and lines[i + 1].startswith("  "):
                i += 1
                r0, gap = lines[i].split()
                out["gaps"].append((float(r0), float(gap)))
        i += 1
    return out


def parse_csv(text: str) -> list[tuple[float, ...]]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("CSV header missing")
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def cli_jmax(system: dict, order: int) -> int:
    steps = [len(c) - 3 for c in (system["upper"], system["lower"])
             if any(Fraction(v) for v in c) and len(c) >= 4]
    return max([-(-order // s) for s in steps] + [1])


def check_analyze_center(system: dict, report: dict, rows) -> list[str]:
    problems = []
    up, lo = coeffs(system["upper"]), coeffs(system["lower"])
    quadratic = any(len(c) == 3 and any(c) for c in (up, lo))
    if report.get("verdict") != "SigmaCenter" or report["case"] != system["case"]:
        problems.append(f"classified {report.get('verdict')} case {report['case']}, "
                        f"labelled case {system['case']}")
    if quadratic:
        if report["series"] is not None or report["obstruction"] is not None:
            problems.append("series printed for a system with a quadratic side")
    elif report["series"] is None:
        problems.append("no period series in the report")
    else:
        if report["truncation"] != DEFAULT_ORDER:
            problems.append(f"series truncated at {report['truncation']}, not {DEFAULT_ORDER}")
        problems += check_series(system, report["constant"], report["series"],
                                 report["truncation"], cli_jmax(system, DEFAULT_ORDER),
                                 report["obstruction"], system.get("obstruction"))
    witness = report["witness"]
    if witness is None:
        problems.append("no witness found")
    else:
        r0, period, dev = witness
        if not abs(period - TWO_PI) > DEFAULT_TOL or dev != abs(period - TWO_PI):
            problems.append(f"witness {witness} does not satisfy |period - 2*pi| > {DEFAULT_TOL}")
        problems += check_period(system, r0, period, "witness period")
    if len(rows) != DEFAULT_SAMPLES:
        problems.append(f"{len(rows)} CSV rows, expected {DEFAULT_SAMPLES}")
        return problems
    if [r[0] for r in rows] != sorted(r[0] for r in rows):
        problems.append("CSV radii are not sorted")
    series = None if quadratic else reference.combined_series(up, lo, DEFAULT_ORDER)
    for r0, t_num, t_ser, dev in rows:
        if series is None:
            if not (math.isnan(t_ser) and math.isnan(dev)):
                problems.append(f"r0={r0!r}: T_series {t_ser!r} without a series")
            continue
        if dev != abs(t_num - t_ser):
            problems.append(f"r0={r0!r}: deviation {dev!r} is not |T_numeric - T_series|")
        exact = TWO_PI + sum((float(rat) + float(pi) * math.pi) * r0 ** e
                             for e, (rat, pi) in series.items())
        if not abs(t_ser - exact) <= SERIES_EVAL_TOL:
            problems.append(f"r0={r0!r}: T_series {t_ser!r}, exact series gives {exact!r}")
    for row in (rows[0], rows[-1]):
        problems += check_period(system, row[0], row[1], "CSV T_numeric")
    return problems


def check_analyze_noncenter(system: dict, report: dict, rows) -> list[str]:
    problems = []
    if report.get("verdict") != "NotCenter" or report["case"] is not None:
        problems.append(f"non-center classified {report.get('verdict')} case {report['case']}")
    gaps = report["gaps"] or []
    if len(gaps) != DEFAULT_SAMPLES:
        problems.append(f"{len(gaps)} correspondence gaps, expected {DEFAULT_SAMPLES}")
        return problems
    if rows:
        problems.append("CSV holds period rows for a non-center")
    if any(gap == 0.0 for _, gap in gaps):
        problems.append("zero correspondence gap for a non-center")
    for r0, gap in (gaps[0], gaps[-1]):
        problems += check_gap(system, r0, gap)
    return problems


def check_gap(system: dict, r0: float, gap: float) -> list[str]:
    ref = reference.mp_gap(coeffs(system["upper"]), coeffs(system["lower"]), r0)
    if not abs(gap - ref) <= PERIOD_TOL:
        return [f"r0={r0!r}: gap {gap!r}, energy matching gives {ref!r}"]
    return []


def check_analyze_records(plan: dict, passes: list[list[dict]]) -> list[str]:
    """Check each distinct input once; its repeats must be byte-identical."""
    problems = []
    seen: dict[tuple, dict] = {}
    for records in passes:
        for op, record in zip(plan["ops"], records):
            if operation_failed("analyze_cold", op, record) or record["rc"]:
                continue
            key = (op["system"], tuple(op["args"]))
            first = seen.get(key)
            if first is not None:
                if (record["stdout"], record["csv"]) != (first["stdout"], first["csv"]):
                    problems.append(f"{op['system']}: report or CSV differs between repeats")
                continue
            seen[key] = record
            system = plan["systems"][op["system"]]
            try:
                report = parse_report(record["stdout"])
                rows = parse_csv(record["csv"] or "")
            except ValueError as exc:
                problems.append(f"{op['system']}: unreadable output: {exc}")
                continue
            if op["args"]:
                continue  # the --rmax inf operation: exit code and no traceback are its checks
            if system["case"] is None:
                problems += check_analyze_noncenter(system, report, rows)
            else:
                problems += check_analyze_center(system, report, rows)
    return problems
