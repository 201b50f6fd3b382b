"""Symbolic-numeric analysis of planar piecewise Hamiltonian centers.

The toolkit studies systems whose Hamiltonian is (x^2 + y^2)/2 plus one
homogeneous nonlinearity per half plane, split along the horizontal axis.
It classifies crossing centers exactly, expands the period function of the
crossing orbits as an exact truncated series, integrates orbits numerically
by two independent routes, and searches for radii witnessing that the
period is not identically 2*pi.
"""

from .analysis import (
    AnalysisReport,
    WitnessSearch,
    cross_validate,
    find_witness,
    half_equals_half_full_check,
    monotonicity_profile,
    predicted_profiles,
)
from .cli import (
    AnalysisOptions,
    ParsedSpec,
    format_spec,
    main,
    parse_spec,
    run_report,
)
from .errors import (
    DegreeMismatch,
    DegreeTooLow,
    EscapedAnnulus,
    HypothesisNotMet,
    NotACenter,
    ParseError,
    PwPeriodError,
    QuadratureFailure,
    RootBracketFailure,
    StepFailure,
)
from .flow import (
    HalfOrbitResult,
    MonotonicityCheck,
    correspondence_gap,
    h_monotonicity_check,
    half_orbit,
    numeric_period,
    quadrature_period,
    smooth_period,
)
from .periodseries import (
    ENERGY,
    RADIUS,
    PeriodSeries,
    combined_period_series,
    energy_from_radius_series,
    first_obstruction,
    full_period_energy_series,
    half_period_energy_series,
    half_period_radius_series,
    half_period_series_r0,
)
from .reversion import (
    CoefficientTable,
    ParamPoly,
    build_coefficient_table,
    build_lambda_table,
    check_sparsity,
    period_coefficient,
    reversion_oracle,
)
from .systems import (
    AnnulusEstimate,
    CenterClass,
    PiecewiseSystem,
    annulus_bound,
    classify,
    hamiltonian,
    min_annulus_radius,
    min_start_cap,
    normalize,
    start_radius_cap,
    vector_field,
)
from .trigmoments import (
    FULL,
    LOWER,
    PI,
    TRIG_ZERO,
    TWO_PI,
    UPPER,
    HomogeneousPoly,
    TrigValue,
    as_fraction,
    g_power_integral,
    profile_power_integral,
    trig_moment,
)

__version__ = "0.1.0"
