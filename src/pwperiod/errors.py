"""Exception types shared across the toolkit."""


class PwPeriodError(Exception):
    """Base class for all toolkit errors."""


class DegreeTooLow(PwPeriodError):
    """Operation requires a nonlinearity of degree >= 3 on the given side."""


class NotACenter(PwPeriodError):
    """Requested quantity only exists for systems classified as centers."""


class EscapedAnnulus(PwPeriodError):
    """Orbit left the region where closed crossing orbits exist."""


class StepFailure(PwPeriodError):
    """The ODE integrator failed to complete a step within tolerances."""


class RootBracketFailure(PwPeriodError):
    """Could not bracket the level-curve radius during quadrature."""


class QuadratureFailure(PwPeriodError):
    """The level-curve quadrature did not converge within its node cap."""


class HypothesisNotMet(PwPeriodError):
    """Side does not satisfy the conditions of the half-period identity."""


class ParseError(PwPeriodError):
    """Malformed system description file."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class DegreeMismatch(ParseError):
    """Coefficient count does not match the declared degree."""
