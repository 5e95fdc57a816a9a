"""Exception types shared across the package, and the one way a per-point
check names the point it fails at."""

import numpy as np


class NullplaneError(Exception):
    """Base class for all package-specific errors."""

    row = None  # the batch row a per-point check failed at (see at_point)


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


def at_point(error: type, reason: str, pts, row: int, *args) -> NullplaneError:
    """error(reason, *args), naming pts[row] by its coordinates (the row if
    pts is None).  It keeps the row and its reason, so that a caller that
    knows the batch can name the sample too."""
    err = error(reason, *args)
    err.row, err.reason = int(row), str(err)
    err.args = (f"{err.reason} [at {f'row {row}' if pts is None else f'point {pts[row].tolist()}'}]",)
    return err


def require(ok: np.ndarray, error: type, reason: str, pts, *args) -> None:
    """Raise at_point(error, reason, pts, row, *args) at the first row (the
    last axis of ok) where ok is False on any leading axis."""
    if not ok.all():
        raise at_point(error, reason, pts, np.argmin(ok.reshape(-1, ok.shape[-1]).all(axis=0)), *args)


def require_finite(reason: str, pts, *values: np.ndarray) -> None:
    """Raise a DomainError at the first point (the last axis of every value)
    where a value is not finite."""
    require(np.concatenate([np.isfinite(v).reshape(-1, v.shape[-1]) for v in values]), DomainError, reason, pts)
