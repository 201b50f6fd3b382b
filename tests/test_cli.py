import math
import sys as _sys
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwperiod import (
    DegreeTooLow,
    EscapedAnnulus,
    ParseError,
    PiecewiseSystem,
    QuadratureFailure,
    cross_validate,
    quadrature_period,
)
from pwperiod import cli
from pwperiod.cli import (
    CSV_HEADER,
    AnalysisOptions,
    format_spec,
    main,
    parse_spec,
    render_report,
    run_report,
    write_csv,
)
from pwperiod.errors import DegreeMismatch

from conftest import CENTER_SUITE, hp, zero

GOOD = """\
[upper]                # comments may trail anything
degree = 3
coeffs = 0, 1, 0, 0

[lower]
degree = 3
coeffs = 0, 0, 0, 1

[options]
order = 6
rmax = 0.1
samples = 4
tol = 1e-6
seed = 7
"""


class TestParseSpec:
    def test_full_example(self):
        parsed = parse_spec(GOOD)
        assert parsed.system.upper == hp(3, 0, 1, 0, 0)
        assert parsed.system.lower == hp(3, 0, 0, 0, 1)
        assert parsed.options == AnalysisOptions(6, 0.1, 4, 1e-6, 7)
        assert parsed.warnings == []

    def test_options_section_optional(self):
        text = "[upper]\ndegree=2\ncoeffs=1,0,0\n[lower]\ndegree=2\ncoeffs=0,0,1\n"
        parsed = parse_spec(text)
        assert parsed.options == AnalysisOptions()

    def test_rational_coefficients(self):
        text = "[upper]\ndegree=2\ncoeffs=-1/3, 2, 0\n[lower]\ndegree=2\ncoeffs=0,0,0\n"
        assert parse_spec(text).system.upper.coeffs == (F(-1, 3), F(2), F(0))

    def test_empty_system_warning(self):
        text = "[upper]\ndegree=3\ncoeffs=0,0,0,0\n[lower]\ndegree=2\ncoeffs=0,0,0\n"
        warnings = parse_spec(text).warnings
        assert len(warnings) == 1
        assert warnings[0].startswith("EmptySystem")

    @pytest.mark.parametrize("mangle, fragment", [
        (lambda t: t.replace("[lower]", "[middle]"), "unknown section"),
        (lambda t: t.replace("[lower]", "[upper]"), "duplicate section"),
        (lambda t: t.replace("order = 6", "order = 6\norder = 9"), "duplicate key"),
        (lambda t: t.replace("rmax", "radius"), "unknown key"),
        (lambda t: "degree = 3\n" + t, "before any section"),
        (lambda t: t.replace("[upper]", "[upper"), "unterminated"),
        (lambda t: t.replace("order = 6", "order"), "key = value"),
        (lambda t: t.replace("tol = 1e-6", "tol ="), "empty value"),
        (lambda t: t.replace("degree = 3", "degree = x", 1), "integer"),
        (lambda t: t.replace("degree = 3", "degree = 1", 1), ">= 2"),
        (lambda t: t.replace("0, 1, 0, 0", "0, , 0, 0"), "empty coefficient"),
        (lambda t: t.replace("0, 1, 0, 0", "0, 1/0, 0, 0"), "zero denominator"),
        (lambda t: t.replace("0, 1, 0, 0", "0, abc, 0, 0"), "not an exact rational"),
        (lambda t: t.replace("0, 1, 0, 0", "0, 1e400, 0, 0"), "floating-point"),
        pytest.param(lambda t: t.replace("0, 1, 0, 0", "0, 1e308, 0, 0"), "floating-point",
                     id="<lambda>-floating-point-near-max"),
        (lambda t: t.replace("order = 6", "order = 0"), "out of range"),
        (lambda t: t.replace("rmax = 0.1", "rmax = -2"), "out of range"),
        (lambda t: t.replace("rmax = 0.1", "rmax = inf"), "out of range"),
        (lambda t: t.replace("tol = 1e-6", "tol = 0"), "out of range"),
        (lambda t: t.replace("samples = 4", "samples = nine"), "invalid value"),
    ])
    def test_rejects_malformed(self, mangle, fragment):
        with pytest.raises(ParseError) as exc:
            parse_spec(mangle(GOOD))
        assert fragment in str(exc.value)

    def test_missing_section(self):
        with pytest.raises(ParseError, match="missing required section"):
            parse_spec("[upper]\ndegree=2\ncoeffs=1,0,0\n")

    def test_missing_key(self):
        with pytest.raises(ParseError, match="missing 'coeffs'"):
            parse_spec("[upper]\ndegree=2\n[lower]\ndegree=2\ncoeffs=0,0,0\n")

    def test_coefficient_count_mismatch(self):
        bad = GOOD.replace("0, 1, 0, 0", "0, 1, 0")
        with pytest.raises(DegreeMismatch, match="need 4"):
            parse_spec(bad)

    def test_error_carries_position(self):
        bad = GOOD.replace("0, 0, 0, 1", "0, 1/0, 0, 1")
        with pytest.raises(ParseError) as exc:
            parse_spec(bad)
        assert exc.value.line == 7
        assert exc.value.column == 13


coeff_st = st.fractions(min_value=-50, max_value=50, max_denominator=9)


@st.composite
def poly_text_system(draw):
    upper_d = draw(st.integers(2, 5))
    lower_d = draw(st.integers(2, 5))
    upper = draw(st.lists(coeff_st, min_size=upper_d + 1, max_size=upper_d + 1))
    lower = draw(st.lists(coeff_st, min_size=lower_d + 1, max_size=lower_d + 1))
    return PiecewiseSystem(hp(upper_d, *upper), hp(lower_d, *lower))


@given(system=poly_text_system(),
       order=st.integers(1, 20),
       rmax=st.floats(1e-6, 10.0, allow_nan=False),
       samples=st.integers(1, 500),
       tol=st.floats(1e-12, 1.0, allow_nan=False),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_format_parse_round_trip(system, order, rmax, samples, tol, seed):
    options = AnalysisOptions(order, rmax, samples, tol, seed)
    parsed = parse_spec(format_spec(system, options))
    assert parsed.system == system
    assert parsed.options == options


_MALFORMED = ["1/0", "nan", "inf", "1e400", "-1e400", "1_0", "1__0", "9" * 5000, "0x10",
              "1/2/3", "100000", "-7"]
_value = st.one_of(st.sampled_from(_MALFORMED), coeff_st.map(str), st.integers().map(str),
                   st.text(max_size=12))
_key_line = st.builds(lambda key, values: f"{key} = {', '.join(values)}",
                      st.sampled_from(["degree", "coeffs", "order", "rmax", "samples", "tol",
                                       "seed", "radius"]),
                      st.lists(_value, min_size=1, max_size=6))
_spec_line = st.one_of(_key_line, st.text(max_size=30),
                       st.sampled_from(["[upper]", "[lower]", "[options]", "[middle]", "[upper",
                                        "degree = 100000", "=", ""]))


@st.composite
def mangled_spec_text(draw):
    """A valid spec with one value, or whole lines, replaced by generated ones."""
    options = AnalysisOptions(draw(st.integers(1, 20)), 0.1, 4, 1e-6, draw(st.integers(0, 99)))
    lines = format_spec(draw(poly_text_system()), options).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        how = draw(st.sampled_from(["value", "line", "insert"]))
        if i < len(lines) and how == "value" and "=" in lines[i]:
            key, values = lines[i].split("=", 1)
            values = values.split(",")
            values[draw(st.integers(0, len(values) - 1))] = draw(_value)
            lines[i] = f"{key}={','.join(values)}"
        elif i < len(lines) and how == "line":
            lines[i] = draw(_spec_line)
        else:
            lines.insert(i, draw(_spec_line))
    return "\n".join(lines)


@given(text=mangled_spec_text())
@settings(max_examples=60, deadline=None)
def test_parse_spec_raises_only_parse_error(text):
    try:
        parse_spec(text)
    except ParseError:
        pass


class TestRunReport:
    def test_center_bundle(self):
        sys = PiecewiseSystem(hp(3, 0, 1, 0, 0), hp(3, 0, 0, 0, 1))
        options = AnalysisOptions(order=8, rmax=0.2, samples=6, tol=1e-6, seed=3)
        bundle = run_report(sys, options)
        rep = bundle.report
        assert rep.classification.verdict == "SigmaCenter"
        assert rep.series is not None and rep.series.truncation_order == 8
        assert rep.obstruction == (1, F(2))
        assert rep.witness is not None and rep.witness[2] > 1e-6
        assert bundle.gap_rows is None
        assert len(bundle.period_rows) == 6
        assert rep.crosscheck is not None and rep.crosscheck < 1e-2
        # rmax 0.2 exceeds the orbit-existence cap for this pair
        assert any("clamped" in w for w in bundle.warnings)
        for r0, t_num, t_ser, dev in bundle.period_rows:
            assert 0 < r0 <= 0.2 and t_num > 0 and dev == abs(t_num - t_ser)

    def test_noncenter_bundle(self):
        sys = PiecewiseSystem(hp(3, 1, 0, 0, 0), hp(3, 0, 0, 0, 1))
        bundle = run_report(sys, AnalysisOptions(samples=4, rmax=0.1, seed=1))
        assert bundle.report.classification.verdict == "NotCenter"
        assert bundle.period_rows is None
        assert bundle.report.witness is None
        assert len(bundle.gap_rows) == 4
        assert all(gap > 0 for _, gap in bundle.gap_rows)

    def test_linear_system(self):
        bundle = run_report(PiecewiseSystem(zero(3), zero(3)),
                            AnalysisOptions(samples=3, seed=0))
        assert float(bundle.report.series.constant) == 2 * math.pi
        assert bundle.report.series.exponents == ()
        assert bundle.report.witness is None
        for _, t_num, t_ser, dev in bundle.period_rows:
            assert abs(t_num - 2 * math.pi) < 1e-11
            assert t_ser == 2 * math.pi

    def test_no_orbits_raises(self):
        # a quadratic side this negative swallows every crossing orbit
        sys = PiecewiseSystem(hp(2, F(-3, 2), 0, 0), zero(2))
        with pytest.raises(EscapedAnnulus):
            run_report(sys, AnalysisOptions())

    @pytest.mark.parametrize("name", ["x2y/y3", "x4/xy2", "x2y2/x2:2"])
    def test_crosscheck_is_cross_validate(self, name):
        sys = CENTER_SUITE[name][0]
        options = AnalysisOptions(order=8, rmax=0.1, samples=5, seed=4)
        bundle = run_report(sys, options)
        grid = [r0 for r0, *_ in bundle.period_rows]
        if bundle.report.series is None:
            assert bundle.report.crosscheck is None
            with pytest.raises(DegreeTooLow):
                cross_validate(sys, options.order, grid)
        else:
            assert bundle.report.crosscheck == cross_validate(sys, options.order, grid)

    def test_tiny_rmax_reports_no_false_witness(self):
        # near r0 = 1e-9 the period is 2 pi + 2e-9; the ODE clock used to
        # err by 4e-6 there and report its own error as a witness
        sys = PiecewiseSystem(hp(3, 0, 1, 0, 0), hp(3, 0, 0, 0, 1))
        rep = run_report(sys, AnalysisOptions(rmax=1e-9)).report
        if rep.witness is not None:
            r0, _, dev = rep.witness
            quad = quadrature_period(sys, "upper", r0) + quadrature_period(sys, "lower", r0)
            assert abs(dev - abs(quad - 2 * math.pi)) <= 1e-9
        assert rep.crosscheck <= 1e-9

    def test_constant_profile_on_a_nonlinear_side_is_an_anomaly(self, monkeypatch):
        # cubic sides predict a varying profile, so a flat sampled one disagrees
        monkeypatch.setattr("pwperiod.analysis.smooth_period", lambda *args: 6.0)
        sys = PiecewiseSystem(hp(3, 0, 1, 0, 0), hp(3, 0, 0, 0, 1))
        anomalies = run_report(sys, AnalysisOptions(samples=2)).report.anomalies
        assert [a for a in anomalies if "profile constant disagrees" in a] == [
            "upper profile constant disagrees with the predicted ['increasing_unbounded']",
            "lower profile constant disagrees with the predicted ['increasing_unbounded']"]

    def test_same_seed_same_rows(self):
        sys = PiecewiseSystem(hp(3, 0, 1, 0, 0), hp(3, 0, 0, 0, 1))
        options = AnalysisOptions(samples=5, rmax=0.1, seed=11)
        a = run_report(sys, options)
        b = run_report(sys, options)
        assert a.period_rows == b.period_rows


class TestRender:
    def test_center_report_text(self):
        sys = PiecewiseSystem(hp(3, 0, 1, 0, 0), hp(3, 0, 0, 0, 1))
        text = render_report(run_report(sys, AnalysisOptions(samples=4, seed=2)))
        assert "classification: SigmaCenter (case V)" in text
        assert "first obstruction: exponent 1, coefficient 2" in text
        assert "witness: r0 = " in text
        assert "monotonicity: upper increasing_unbounded" in text

    def test_series_outside_its_range_is_an_anomaly(self):
        # both annuli unbounded: the grid reaches r0 ~ 1e6, where the series
        # is off by ~1e49 while the constant 2*pi alone is off by ~6.3
        sys = PiecewiseSystem(hp(4, 0, 0, 1, 0, 0), hp(4, 0, 0, 0, 0, 1))
        text = render_report(run_report(sys, AnalysisOptions(rmax=1e6, samples=4)))
        assert "anomaly: series evaluated outside its range" in text
        assert "anomalies: none" not in text
        text = render_report(run_report(sys, AnalysisOptions(samples=4)))
        assert "anomalies: none" in text

    def test_clock_noise_is_not_a_series_outside_its_range(self):
        # at r0 <= 1e-20 the period is 2 pi to within the ODE clock's own
        # 1e-12 error, so the series and the constant 2*pi fit equally well
        sys = PiecewiseSystem(hp(3, 0, 1, 0, 0), hp(3, 0, 0, 0, 1))
        bundle = run_report(sys, AnalysisOptions(rmax=1e-20, samples=8))
        text = render_report(bundle)
        assert "outside its range" not in text
        assert "anomalies: none" in text
        assert bundle.report.crosscheck <= 1e-9

    def test_quadratic_pair_renders_constant_anomaly(self):
        sys = PiecewiseSystem(hp(2, F(3, 2), 0, 0), zero(2))
        text = render_report(run_report(sys, AnalysisOptions(samples=4, seed=2)))
        assert "anomaly:" in text and "tension" in text
        assert "series unavailable" in text


class TestCsvAndMain:
    def test_csv_format(self, tmp_path):
        rows = [(0.1, 6.3, 6.2, 0.1), (0.2, 6.5, 6.4, 0.1)]
        path = tmp_path / "out.csv"
        write_csv(rows, str(path), timestamp=False)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert [float(v) for v in lines[1].split(",")] == [0.1, 6.3, 6.2, 0.1]

    def test_csv_timestamp_header(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([], str(path), timestamp=True)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# generated ")
        assert lines[1] == CSV_HEADER

    def test_main_success(self, tmp_path, capsys):
        spec = tmp_path / "sys.txt"
        spec.write_text(GOOD)
        assert main([str(spec)]) == 0
        out = capsys.readouterr().out
        assert "classification: SigmaCenter" in out

    def test_main_missing_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.txt")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_main_parse_failure(self, tmp_path, capsys):
        spec = tmp_path / "sys.txt"
        spec.write_text(GOOD.replace("0, 1, 0, 0", "0, 1, 0"))
        assert main([str(spec)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_main_numerical_failure(self, tmp_path, capsys):
        spec = tmp_path / "sys.txt"
        spec.write_text("[upper]\ndegree=2\ncoeffs=-3/2,0,0\n[lower]\ndegree=2\ncoeffs=0,0,0\n")
        assert main([str(spec)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_main_start_radius_below_underflow_is_a_numerical_failure(self, tmp_path,
                                                                      capsys):
        spec = tmp_path / "sys.txt"
        spec.write_text(GOOD)
        assert main([str(spec), "--rmax", "1e-300"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: start radius") and "too small" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_main_nan_during_event_location_is_a_numerical_failure(self, tmp_path, capsys):
        # 10^150 coefficients at rmax 1e-25: brentq meets a NaN on the upper
        # transit's interpolant, which used to escape as scipy's ValueError
        big = "1" + "0" * 150
        spec = tmp_path / "sys.txt"
        spec.write_text(f"[upper]\ndegree = 4\ncoeffs = 0, 0, {big}, 0, 0\n"
                        f"[lower]\ndegree = 4\ncoeffs = 0, 0, 0, 0, {big}\n")
        assert main([str(spec), "--rmax", "1e-25", "--samples", "1"]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "event location failed" in err

    def test_main_ode_clock_failure_prints_no_numpy_warning(self, tmp_path, capsys):
        # the same NaN on the interpolant: scipy's interpolant used to warn
        # ("invalid value encountered in dot") before the failure line
        big = "1" + "0" * 150
        spec = tmp_path / "sys.txt"
        spec.write_text(f"[upper]\ndegree = 4\ncoeffs = 0, 0, {big}, 0, 0\n"
                        f"[lower]\ndegree = 4\ncoeffs = 0, 0, 0, 0, {big}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([str(spec), "--rmax", "1e-25", "--samples", "1"])
        assert code == 3
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: "), err
        assert "event location failed" in err[0]

    def test_main_series_beyond_float_range_is_an_anomaly(self, tmp_path, capsys):
        # x^2 y^2 / y^4 has unbounded annuli; at r0 near 1e100 the powers of
        # the series overflow while the ODE clock still measures T ~ 1e-50
        spec = tmp_path / "sys.txt"
        spec.write_text("[upper]\ndegree = 4\ncoeffs = 0, 0, 1, 0, 0\n"
                        "[lower]\ndegree = 4\ncoeffs = 0, 0, 0, 0, 1\n")
        csv = tmp_path / "out.csv"
        assert main([str(spec), "--rmax", "1e100", "--samples", "4",
                     "--csv", str(csv), "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert "series crosscheck, max |T_numeric - T_series|: inf" in out
        assert "anomaly: series evaluated outside its range" in out
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        assert len(rows) == 4
        for r0, t_numeric, t_series, deviation in rows:
            assert 0.0 < float(t_numeric) < 1e-40
            assert math.isnan(float(t_series)) and math.isnan(float(deviation))

    @pytest.mark.parametrize("coeff", ["1e400", "1e308"])
    def test_main_coefficient_beyond_float_range(self, tmp_path, capsys, coeff):
        spec = tmp_path / "sys.txt"
        spec.write_text(GOOD.replace("0, 1, 0, 0", f"0, {coeff}, 0, 0"))
        assert main([str(spec)]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err and "floating-point" in err

    @pytest.mark.parametrize("coeff", ["1e-400", "1e-4000", "1e-5000"])
    def test_main_coefficient_below_float_range(self, tmp_path, capsys, coeff):
        # a float 0.0 would let the clocks integrate another system than the
        # exact layer classifies; at 1e-5000 the reason's denominator also
        # passed the interpreter's int-to-str digit limit
        spec = tmp_path / "sys.txt"
        spec.write_text(GOOD.replace("0, 1, 0, 0", f"{coeff}, 1, 0, 0"))
        assert main([str(spec)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("parse error: coefficient "), err

    @pytest.mark.parametrize("coeff", ["1e10000000", "-1E+10_000_000", "1e-99999"])
    def test_main_refuses_a_huge_exponent_before_building_it(self, tmp_path, capsys,
                                                             monkeypatch, coeff):
        def exact(token):
            # Fraction("1e10000000") builds 10^(10^7), which takes seconds
            assert token != coeff, "the exponent reached Fraction"
            return F(token)

        monkeypatch.setattr(cli, "Fraction", exact)
        spec = tmp_path / "sys.txt"
        spec.write_text(GOOD.replace("0, 1, 0, 0", f"{coeff}, 1, 0, 0"))
        assert main([str(spec)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["parse error: coefficient exponent beyond +-4300 (line 3, column 10)"]

    def test_main_prints_series_past_the_int_digit_limit(self, tmp_path, capsys):
        # a valid file whose order-128 series has coefficients of more than
        # 4300 digits, the interpreter's default int-to-str limit
        spec = tmp_path / "sys.txt"
        spec.write_text(GOOD.replace(
            "0, 1, 0, 0", "0, 1234567890123456789012345678901234567890123"
            "/9876543210987654321098765432109876543211, 0, 0").replace(
            "order = 6", "order = 128"))
        limit = getattr(_sys, "get_int_max_str_digits", lambda: None)()
        assert main([str(spec)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert any(line.startswith("first obstruction: exponent 1, coefficient -")
                   for line in out)
        assert max(len(line) for line in out) > 4300
        assert getattr(_sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_main_unwritable_csv_path(self, tmp_path, capsys):
        spec = tmp_path / "sys.txt"
        spec.write_text(GOOD)
        assert main([str(spec), "--csv", str(tmp_path / "missing" / "out.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write "), err

    def test_main_undecodable_spec(self, tmp_path, capsys):
        spec = tmp_path / "sys.txt"
        spec.write_bytes(GOOD.replace("comments may trail anything",
                                      "caf\xff").encode("latin-1"))
        assert main([str(spec)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot read "), err

    def test_main_unconverged_quadrature_is_a_numerical_failure(self, tmp_path, capsys,
                                                               monkeypatch):
        def unconverged(system, options):
            raise QuadratureFailure("level-curve quadrature did not converge")

        monkeypatch.setattr(cli, "run_report", unconverged)
        spec = tmp_path / "sys.txt"
        spec.write_text(GOOD)
        assert main([str(spec)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: level-curve quadrature" in err

    def test_main_cli_overrides(self, tmp_path, capsys):
        spec = tmp_path / "sys.txt"
        spec.write_text(GOOD)
        assert main([str(spec), "--order", "4", "--samples", "3"]) == 0
        assert "truncated at exponent 4" in capsys.readouterr().out

    @pytest.mark.parametrize("override", [
        ["--samples", "0"], ["--rmax", "-1"], ["--rmax", "nan"], ["--rmax", "inf"],
        ["--order", "0"], ["--tol", "0"], ["--tol", "inf"],
        ["--samples", "1000000000000"], ["--order", "1000000000"],
    ], ids=" ".join)
    def test_main_rejects_out_of_range_override(self, tmp_path, capsys, monkeypatch,
                                                override):
        def builds_nothing(system, options):
            raise AssertionError("an out-of-range option reached the grid and the series")

        # the check runs before any grid or series exists
        monkeypatch.setattr(cli, "run_report", builds_nothing)
        spec = tmp_path / "sys.txt"
        spec.write_text(GOOD)
        assert main([str(spec), *override]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{override[0]} out of range" in err

    def test_csv_deterministic_for_seed(self, tmp_path, capsys):
        spec = tmp_path / "sys.txt"
        spec.write_text(GOOD)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main([str(spec), "--csv", str(first), "--no-timestamp", "--seed", "5"]) == 0
        assert main([str(spec), "--csv", str(second), "--no-timestamp", "--seed", "5"]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()


@pytest.fixture(scope="module")
def good_spec(tmp_path_factory):
    spec = tmp_path_factory.mktemp("spec") / "sys.txt"
    spec.write_text(GOOD)
    return str(spec)


_out_of_range_float = st.one_of(st.floats(max_value=0.0), st.just(math.inf), st.just(math.nan))
OUT_OF_RANGE = {
    "order": st.one_of(st.integers(max_value=0), st.integers(min_value=cli.MAX_ORDER + 1)),
    "rmax": _out_of_range_float,
    "samples": st.one_of(st.integers(max_value=0),
                         st.integers(min_value=cli.MAX_SAMPLES + 1)),
    "tol": _out_of_range_float,
    "seed": st.integers(max_value=-1),
}


@given(overrides=st.lists(st.sampled_from(sorted(OUT_OF_RANGE)), min_size=1, unique=True)
       .flatmap(lambda keys: st.fixed_dictionaries({k: OUT_OF_RANGE[k] for k in keys})))
@settings(max_examples=60, deadline=None)
def test_main_exits_cleanly_on_out_of_range_overrides(good_spec, overrides):
    # "--key=value" keeps argparse from reading "-inf" as an option name
    argv = [good_spec] + [f"--{key}={value}" for key, value in overrides.items()]
    assert main(argv) == 2


@st.composite
def valid_spec_text(draw):
    """A spec that parse_spec accepts: any small system, in-range options."""
    options = AnalysisOptions(order=draw(st.integers(1, 12)),
                              rmax=draw(st.floats(1e-3, 2.0)),
                              samples=draw(st.integers(1, 4)),
                              tol=draw(st.floats(1e-12, 1.0)),
                              seed=draw(st.integers(0, 2**32)))
    return format_spec(draw(poly_text_system()), options)


@given(text=valid_spec_text())
@settings(max_examples=25, deadline=None)
def test_main_exits_cleanly_on_valid_specs(good_spec, text):
    # the module-scoped directory of good_spec; each example overwrites one file
    spec = good_spec + ".valid"
    with open(spec, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert main([spec]) in (0, 2, 3)
