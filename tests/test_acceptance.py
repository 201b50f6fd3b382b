"""End to end acceptance gate.

Each test pins one promise the package makes, at its stated tolerance:
exact coefficient tables, oracle agreement, classification versus flow,
agreement of the independent numeric routes, series versus measurement,
non-isochronicity witnesses, the half-period identity, the monotonicity
trichotomy, the quadratic edge pair, and CLI determinism.
"""

import math
import shutil
import subprocess
import sys as _pysys
import time
from fractions import Fraction as F

import numpy as np
import pytest

from pwperiod import (
    AnalysisOptions,
    ParamPoly,
    PiecewiseSystem,
    build_lambda_table,
    check_sparsity,
    correspondence_gap,
    cross_validate,
    find_witness,
    first_obstruction,
    g_power_integral,
    half_equals_half_full_check,
    half_orbit,
    half_period_series_r0,
    min_start_cap,
    monotonicity_profile,
    numeric_period,
    predicted_profiles,
    quadrature_period,
    run_report,
    reversion_oracle,
    start_radius_cap,
)
from pwperiod.analysis import DECREASING, INCREASING_UNBOUNDED

from conftest import CENTER_SUITE, NONCENTER_SUITE, hp, zero

X2Y_Y3 = CENTER_SUITE["x2y/y3"][0]


def test_radius_coefficient_closed_forms_and_fourth_row():
    """First three radius coefficients as exact polynomial identities in n,
    fourth row cross-checked against the independent oracle at n = 2..8."""
    start = time.monotonic()
    table = build_lambda_table(4)
    assert table.radius(1) == ParamPoly((F(-1),))
    assert table.radius(2) == ParamPoly((F(1, 2), F(1)))
    assert table.radius(3) == ParamPoly((F(0), F(-1), F(-3, 2)))

    fourth = table.radius(4)
    closed_form = ParamPoly((F(-1, 8), F(-1, 6), F(2), F(8, 3)))
    oracle_hits = [fourth(n) == reversion_oracle(4, n)[3] for n in range(2, 9)]
    verdict = "confirmed" if fourth == closed_form and all(oracle_hits) else "discrepant"
    assert verdict == "confirmed"
    assert time.monotonic() - start < 1.0


def test_oracle_equivalence_and_sparsity():
    """The concrete reversion oracle reproduces every table entry exactly for
    n = 2..8, j <= 8, and its intermediate series stays on the (n-1) grid."""
    start = time.monotonic()
    table = build_lambda_table(8)
    for n in range(2, 9):
        values = reversion_oracle(8, n)
        assert values == [table.radius(j)(n) for j in range(1, 9)]
        assert check_sparsity(8, n)
    assert time.monotonic() - start < 5.0


def test_degree_and_leading_sign_law():
    """degree(lambda_j) = j - 1, leading sign + for even j and - for odd j."""
    table = build_lambda_table(10)
    for j in range(1, 11):
        poly = table.radius(j)
        assert poly.degree() == j - 1
        assert (poly.leading_coefficient() > 0) == (j % 2 == 0)


WEIGHT_ROWS = {
    (1, 1): ParamPoly((F(-1), F(-1))),
    (2, 1): ParamPoly((F(1), F(0), F(-1))),
    (2, 2): ParamPoly((F(0), F(2), F(2))),
    (3, 1): ParamPoly((F(-3, 2), F(1, 2), F(3, 2), F(-1, 2))),
    (3, 2): ParamPoly((F(0), F(-4), F(0), F(4))),
    (3, 3): ParamPoly((F(1, 2), F(1, 2), F(-9, 2), F(-9, 2))),
    (4, 1): ParamPoly((F(5, 2), F(-4, 3), F(-7, 3), F(4, 3), F(-1, 6))),
    (4, 2): ParamPoly((F(0), F(8), F(-4), F(-8), F(4))),
    (4, 3): ParamPoly((F(-3, 2), F(0), F(15), F(0), F(-27, 2))),
    (4, 4): ParamPoly((F(0), F(-8, 3), F(-8, 3), F(32, 3), F(32, 3))),
}


def _weight_route(p, side, table, kmax=4):
    """Period rows written as weighted moment sums, keyed by r0 exponent."""
    n = p.degree - 1
    a0 = p.coeffs[0]
    moments = {i: g_power_integral(p, i, side) for i in range(1, kmax + 1)}
    rows = {}
    for k in range(1, kmax + 1):
        total = sum((moments[i] * (table.weight(k, i)(n) * a0 ** (k - i))
                     for i in range(1, k + 1)), start=moments[1] * 0)
        if not total.is_zero():
            rows[k * (n - 1)] = total
    return rows


def test_weight_rows_and_second_obstruction_positivity():
    """All four period rows hold as exact identities: the frozen weight table,
    agreement of the direct composition with the weighted moment sums over
    varied degrees and axis coefficients, the first-row law -(n+1)c1, and
    positivity of the surviving second-row obstruction when the first cancels."""
    table = build_lambda_table(4)
    for (k, i), expected in WEIGHT_ROWS.items():
        assert table.weight(k, i) == expected

    probes = [
        (hp(3, 1, 1, 0, 0), "upper"),
        (hp(3, 1, 0, 0, F(-1, 2)), "lower"),
        (hp(4, F(1, 2), 0, 1, 0, 0), "upper"),
        (hp(5, 1, 0, -1, 0, 0, 0), "lower"),
        (hp(6, 1, 0, 0, 0, 0, 0, F(1, 3)), "upper"),
        (hp(4, 0, 0, 1, 0, 0), "lower"),
    ]
    for p, side in probes:
        composed = half_period_series_r0(p, side, jmax=4)
        assert dict(composed.items()) == _weight_route(p, side, table)
        n = p.degree - 1
        c1 = g_power_integral(p, 1, side)
        assert composed.coefficient(n - 1) == c1 * (-(n + 1))

    cancelling = [
        PiecewiseSystem(hp(3, 0, 1, 0, 0), hp(3, 0, 1, 0, 0)),
        PiecewiseSystem(hp(3, 0, 1, 0, 0), hp(3, 0, 0, 0, F(1, 2))),
        PiecewiseSystem(hp(3, 1, 1, 0, 0), hp(3, 1, 0, 0, F(1, 2))),
    ]
    for sys_ in cancelling:
        n = sys_.upper.degree - 1
        quad_sum = (g_power_integral(sys_.upper, 2, "upper")
                    + g_power_integral(sys_.lower, 2, "lower"))
        predicted = quad_sum * (2 * n * (n + 1))
        obstruction = first_obstruction(sys_, jmax=4)
        assert obstruction == (2 * (n - 1), predicted)
        assert float(predicted) > 0


def test_classification_matches_flow_on_suite(center_suite, noncenter_suite):
    """Exact classification agrees with measured return behavior: centers
    close up to 1e-9 at r0 in {0.01, 0.05}, violations miss by at least
    1e-4 at the largest safe radius up to 0.2."""
    start = time.monotonic()
    assert len(center_suite) >= 12
    assert {tag for _, tag in center_suite.values()} == {"I", "II", "III", "IV", "V"}
    assert len(noncenter_suite) >= 5

    for name, (sys_, _) in center_suite.items():
        for r0 in (0.01, 0.05):
            assert abs(correspondence_gap(sys_, r0)) <= 1e-9, (name, r0)
    for name, sys_ in noncenter_suite.items():
        r0 = min(0.2, 0.8 * min_start_cap(sys_))
        assert abs(correspondence_gap(sys_, r0)) >= 1e-4, name
    assert time.monotonic() - start < 60.0


def test_ode_and_quadrature_agree_across_suite(center_suite, noncenter_suite):
    """The two independent half-orbit clocks agree to 1e-9 on every suite
    side, with energy drift at most 1e-10 per half orbit."""
    everything = [sys_ for sys_, _ in center_suite.values()]
    everything += list(noncenter_suite.values())
    for sys_ in everything:
        for side in ("upper", "lower"):
            cap = start_radius_cap(sys_, side, "transit")
            r0 = min(0.05, 0.5 * cap) if math.isfinite(cap) else 0.05
            orbit = half_orbit(sys_, side, r0)
            assert abs(orbit.time - quadrature_period(sys_, side, r0)) <= 1e-9
            assert orbit.energy_drift <= 1e-10
            assert not orbit.degraded


def test_series_matches_numeric_and_contracts():
    """Truncated series tracks the measured period to 1e-8 below r0 = 0.05,
    and the worst deviation shrinks by the predicted power when r0 halves."""
    assert cross_validate(X2Y_Y3, 12, np.linspace(0.01, 0.05, 5)) <= 1e-8

    order = 8
    coarse = cross_validate(X2Y_Y3, order, [0.05])
    fine = cross_validate(X2Y_Y3, order, [0.025])
    assert coarse > 1e-7  # truncation, not solver noise, dominates here
    predicted_ratio = 2.0 ** (order + 1)
    assert 0.75 * predicted_ratio < coarse / fine < 1.5 * predicted_ratio


REGIMES = {
    "even upper exponent": ("x2y/y3", (1, F(2), F(0))),
    "odd upper, even lower, resonant": ("x4/x2y", (1, F(2), F(0))),
    "odd upper, even lower, non-resonant": ("x4/x4y", (2, F(0), F(-3, 2))),
    "both odd": ("x2y2/y4", (2, F(0), F(-2))),
}


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_nonisochronicity_witness_per_regime(regime):
    """Each crossing-center regime yields a radius where the period visibly
    leaves 2*pi, and the measured deviation matches the first-obstruction
    prediction within 25% at small radius (checked at two radii)."""
    name, (exponent, rat, pi_part) = REGIMES[regime]
    sys_, _ = CENTER_SUITE[name]
    if regime == "odd upper, even lower, resonant":
        n = sys_.upper.degree - 1
        m = sys_.lower.degree - 1
        assert n - 1 == 2 * (m - 1)

    search = find_witness(sys_, tol=1e-6)
    assert search.witness is not None
    assert search.witness[2] > 1e-6

    obstruction = first_obstruction(sys_, jmax=6)
    assert obstruction is not None
    e, coeff = obstruction
    assert e == exponent
    assert coeff.rat_part == rat and coeff.pi_part == pi_part

    scale = abs(float(coeff))
    r1 = 1e-4 if e == 1 else 1e-3
    r2 = r1 / 2
    dev1 = abs(numeric_period(sys_, r1) - 2 * math.pi)
    dev2 = abs(numeric_period(sys_, r2) - 2 * math.pi)
    assert abs(dev1 / (scale * r1 ** e) - 1) <= 0.25
    assert abs(dev2 / (scale * r2 ** e) - 1) <= 0.25
    assert abs(dev1 / dev2 / 2 ** e - 1) <= 0.25


def test_half_period_is_half_full_period_for_odd_sides():
    """On sides with odd exponent the one-side transit time equals half the
    full smooth period, to 1e-8 on a 10 point grid."""
    cases = [
        (CENTER_SUITE["x2y2/y4"][0], "upper", 0.3),
        (CENTER_SUITE["x2y2/y4"][0], "lower", 0.3),
        (CENTER_SUITE["x4/x2y"][0], "upper", 0.3),
        (CENTER_SUITE["x2y2/-y4:3"][0], "lower", 0.3),
    ]
    for sys_, side, top in cases:
        assert (sys_.side(side).degree - 1) % 2 == 1
        grid = np.linspace(0.03, top, 10)
        assert half_equals_half_full_check(sys_, side, grid, tol=1e-8)


def test_period_monotonicity_trichotomy(center_suite, noncenter_suite):
    """Measured per-side period profiles obey the parity trichotomy:
    decreasing for odd exponent with nonnegative profile, increasing toward
    an unbounded period for even exponent."""
    everything = [sys_ for sys_, _ in center_suite.values()]
    everything += list(noncenter_suite.values())
    seen = set()
    for sys_ in everything:
        for side in ("upper", "lower"):
            p = sys_.side(side)
            if p.is_zero() or p.degree == 2:
                continue
            tag = monotonicity_profile(sys_, side)
            allowed = predicted_profiles(sys_, side)
            assert tag in allowed
            n = p.degree - 1
            if n % 2 == 0:
                assert tag == INCREASING_UNBOUNDED
            elif allowed == {DECREASING}:
                assert tag == DECREASING
            seen.add(tag)
    assert {DECREASING, INCREASING_UNBOUNDED} <= seen


def test_quadratic_edge_pair_constant_period():
    """The degree-2 pair (3/2)x^2 over zero runs at the constant period
    pi + pi/2 and the report flags the tension with the nonlinear picture."""
    edge = PiecewiseSystem(hp(2, F(3, 2), 0, 0), zero(2))
    expected = math.pi + math.pi / 2
    for r0 in np.linspace(0.05, 0.5, 10):
        assert abs(numeric_period(edge, float(r0)) - expected) <= 1e-9

    bundle = run_report(edge, AnalysisOptions(samples=8, seed=0))
    assert any("tension" in note for note in bundle.report.anomalies)
    assert bundle.report.witness is None


def test_cli_output_deterministic(tmp_path):
    """Same description file and seed produce bit-identical CSV output."""
    spec = tmp_path / "system.txt"
    spec.write_text(
        "[upper]\ndegree = 3\ncoeffs = 0, 1, 0, 0\n"
        "[lower]\ndegree = 3\ncoeffs = 0, 0, 0, 1\n"
        "[options]\norder = 8\nrmax = 0.1\nsamples = 24\ntol = 1e-6\nseed = 9\n")
    script = shutil.which("analyze")
    base = [script] if script else [_pysys.executable, "-m", "pwperiod"]

    outputs = []
    for stem in ("first", "second"):
        csv_path = tmp_path / f"{stem}.csv"
        proc = subprocess.run(base + [str(spec), "--csv", str(csv_path),
                                      "--no-timestamp"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(csv_path.read_bytes())

    assert outputs[0] == outputs[1]
    lines = outputs[0].decode().splitlines()
    assert lines[0] == "r0,T_numeric,T_series,deviation"
    assert len(lines) == 25
