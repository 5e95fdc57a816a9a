"""Exception types shared across the package."""


class NullplaneError(Exception):
    """Base class for all package-specific errors."""


class ExprSyntaxError(NullplaneError):
    """Malformed expression text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExprSyntaxError):
    """Identifier outside the coordinate/function vocabulary."""


class DomainError(NullplaneError):
    """Evaluation left the domain (division by ~0, log of non-positive, overflow)."""

    def __init__(self, message: str, expr=None):
        self.expr = expr
        if expr is not None:
            message = f"{message} in subexpression '{expr}'"
        super().__init__(message)


class NotPolynomial(NullplaneError):
    """Expression is not polynomial in the requested variable."""


class SingularMetric(NullplaneError):
    """Metric not invertible, or signature is not (+,+,-,-), at a sampled point."""


class KindError(NullplaneError):
    """Operation requires a walker-family metric kind."""


class CalibrationFailure(NullplaneError):
    """Orientation or component calibration did not produce a consistent constant."""


class DegenerateParam(NullplaneError):
    """Projective parameter has both components ~0 at a sampled point."""


class RankDeficient(NullplaneError):
    """Distribution generators do not have full rank at a sampled point."""


class ConstraintViolated(NullplaneError):
    """Family builder constraint failed its symbolic check."""


class CoefficientDependsOnUV(ConstraintViolated):
    """Family coefficient must be a function of (x, y) only."""


class ObstructionPresent(NullplaneError):
    """The mixed second derivative of the off-diagonal component does not vanish."""


class NotMultipleWPS(NullplaneError):
    """The off-diagonal component is not linear in v (double principal direction missing)."""


class ConfigError(NullplaneError):
    """Bad analysis configuration or spec file."""
