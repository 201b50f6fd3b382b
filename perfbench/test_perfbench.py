"""Quick tests of the benchmark's own parts.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the repository root.  Each output check must reject a wrong
answer, the reference computations must agree with pwperiod where both
are exact, and the input generator must be a function of the seed.
"""

import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import pwperiod  # noqa: E402


@pytest.fixture(scope="module")
def suite():
    return inputs.load_suite(ROOT)


def as_system(entry):
    return inputs.to_system(pwperiod, entry)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_plan_depends_only_on_the_seed(suite, workload):
    first = inputs.build_plan(workload, 7, 25, suite)
    assert first == inputs.build_plan(workload, 7, 25, suite)
    assert first != inputs.build_plan(workload, 8, 25, suite)
    assert all(op["timed"] for op in first["ops"]) == (workload != "analyze_cold")


def test_analyze_plan_keeps_one_untimed_operation(suite):
    plan = inputs.build_plan("analyze_cold", 3, 25, suite)
    untimed = [op for op in plan["ops"] if not op["timed"]]
    assert [op["args"] for op in untimed] == [["--rmax", "inf"]]
    assert sum(op["system"] == "x2y/y3" for op in plan["ops"]) == 2


def test_generated_centers_have_their_case(suite):
    plan = inputs.build_plan("clock_sweep", 11, 25, suite)

    def classify(entry):
        verdict = pwperiod.classify(as_system(entry))
        return verdict.verdict, verdict.case_tag

    assert checks.check_case_labels(plan, classify) == []
    wrong = dict(plan, systems={"bad": dict(plan["systems"]["gen0"], case="none")})
    assert checks.check_case_labels(wrong, classify)


def test_start_cap_matches_the_program(suite):
    for name, entry in suite.items():
        if entry["case"]:
            ours, theirs = inputs.start_cap(entry), pwperiod.min_start_cap(as_system(entry))
            assert ours == theirs or abs(ours - theirs) <= 1e-5 * theirs, name


def test_moments_match_the_program():
    for a in range(7):
        for b in range(7):
            for rng in ("upper", "lower", "full"):
                got = pwperiod.trig_moment(a, b, rng)
                assert reference.moment(a, b, rng) == (got.rat_part, got.pi_part)


def test_closed_form_matches_table_and_oracle():
    table = pwperiod.build_coefficient_table(8)
    for n in range(2, 8):
        assert [reference.period_coefficient(j, n) for j in range(1, 9)] == \
            [table.period(j)(n) for j in range(1, 9)]
        assert checks.check_period_coefficients(n, 8, pwperiod.reversion_oracle(8, n)) == []
    lams = list(pwperiod.reversion_oracle(8, 3))
    lams[4] += Fraction(1, 10 ** 12)
    assert checks.check_period_coefficients(3, 8, lams)


def _series_output(entry, jmax):
    series = pwperiod.combined_period_series(as_system(entry), jmax).truncate(jmax)
    terms = {e: (c.rat_part, c.pi_part) for e, c in series.items()}
    constant = (series.constant.rat_part, series.constant.pi_part)
    return constant, terms


def test_series_check_rejects_wrong_coefficient_and_obstruction(suite):
    entry = suite["x2y/y3"]
    constant, terms = _series_output(entry, 10)
    known = entry["obstruction"]
    right = (known[0], Fraction(known[1]), Fraction(known[2]))
    assert checks.check_series(entry, constant, terms, 10, 10, right, known) == []
    assert checks.check_series(entry, constant, terms, 10, 10, (1, Fraction(3), Fraction(0)), known)
    assert checks.check_series(entry, constant, terms, 10, 10, (2, Fraction(0), Fraction(1)), None)
    bumped = dict(terms)
    rat, pi = bumped[6]
    bumped[6] = (rat, pi + Fraction(1, 10 ** 9))
    assert checks.check_series(entry, constant, bumped, 10, 10, right, known)
    assert checks.check_series(entry, (Fraction(1, 10 ** 9), Fraction(2)), terms, 10, 10, right, known)


def test_period_check_rejects_a_1e_8_error(suite):
    entry = suite["x4/x2y"]
    r0 = 0.2
    period = pwperiod.numeric_period(as_system(entry), r0)
    assert checks.check_period(entry, r0, period, "T") == []
    assert checks.check_period(entry, r0, period + 1e-8, "T")
    assert checks.check_period(entry, r0, period - 1e-8, "T")


def test_clock_check_rejects_a_1e_8_gap():
    assert checks.check_clocks(6.3, 6.3 + 1e-12, 0.1) == []
    assert checks.check_clocks(6.3, 6.3 + 1e-8, 0.1)
    assert checks.check_clocks(6.3, math.nan, 0.1)


def test_gap_reference_matches_the_ode_gap(suite):
    entry = suite["x4/x3"]
    r0 = 0.1
    gap = pwperiod.correspondence_gap(as_system(entry), r0)
    assert checks.check_gap(entry, r0, gap) == []
    assert checks.check_gap(entry, r0, gap + 1e-8)


@pytest.mark.parametrize("trace", (False, True))
def test_a_run_where_every_operation_fails_still_reports(suite, trace):
    plan = inputs.build_plan("analyze_cold", 5, 25, suite)
    failed = [{"error": "Traceback (most recent call last): ...", "wall_s": 0.1}
              for _ in plan["ops"]]
    result = {"passes": [failed], "peak_kb": 80000, "import_s": 0.9}
    if trace:
        result["traced"] = failed
    line, printed = run.result_line("analyze_cold", plan, result, [1.0, 1.1, 1.2], trace)
    ops = len(plan["ops"]) * (2 if trace else 1)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, ops, ops)
    assert "op_p50_s" not in line["metrics"] and "wrong: no timed operation succeeded" in printed
    assert ("setup.import_s" if trace else "setup_s") in line["metrics"]


def test_report_parser_reads_the_rendered_fields():
    text = "\n".join([
        "classification: SigmaCenter (case V)",
        "period series in r0, truncated at exponent 2:",
        "  constant: 0 + 2*pi",
        "  r0^1: 2 + 0*pi",
        "  r0^2: -1/3 + 5/4*pi",
        "first obstruction: exponent 1, coefficient 2 + 0*pi",
        "witness: r0 = 0.125, period = 6.5, |period - 2*pi| = 0.2168",
        "anomalies: none",
    ])
    report = checks.parse_report(text)
    assert (report["verdict"], report["case"], report["truncation"]) == ("SigmaCenter", "V", 2)
    assert report["series"] == {1: (2, 0), 2: (Fraction(-1, 3), Fraction(5, 4))}
    assert report["obstruction"] == (1, 2, 0)
    assert report["witness"] == (0.125, 6.5, 0.2168)


def test_tracer_wraps_every_binding_and_counts_self_time():
    script = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import pwperiod, pwperiod.systems, pwperiod.flow, pwperiod.analysis, pwperiod.cli
from tracing import Tracer
t = Tracer()
t.install()
bound = {m.annulus_bound for m in (pwperiod.systems, pwperiod.flow, pwperiod.analysis, pwperiod.cli, pwperiod)}
assert len(bound) == 1 and hasattr(bound.pop(), "__wrapped__")
s = pwperiod.PiecewiseSystem(pwperiod.HomogeneousPoly(3, [0, 1, 0, 0]), pwperiod.HomogeneousPoly(3, [0, 0, 0, 1]))
pwperiod.numeric_period(s, 0.05)
out = t.summary()
spans = out["spans"]
assert spans["flow.half_orbit"][0] == 2 and spans["systems.annulus_bound"][0] == 2, spans
assert out["counts"]["flow.solve_ivp.calls"] == 2 and out["counts"]["trigmoments.profile.calls"] > 0
total = sum(self_s for _, self_s in spans.values())
root = [sp for sp in t.spans if sp[1] == -1]
assert [sp[0] for sp in root] == ["flow.numeric_period"], root
assert abs(total - (root[0][3] - root[0][2])) < 1e-6
"""
    subprocess.run([sys.executable, "-c", script, str(HERE), str(ROOT / "src")], check=True,
                   timeout=120)
