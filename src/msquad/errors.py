"""Exception types shared across the package."""

from __future__ import annotations


class MsquadError(Exception):
    """Base class for all msquad errors."""


class EvaluationError(MsquadError):
    """An integrand (or one of its derivatives) could not be evaluated.

    Carries the offending abscissa so callers can report exactly where
    the evaluation broke down (non-finite value, log of a non-positive
    argument, division by zero, ...).
    """

    def __init__(self, message: str, abscissa: float | None = None):
        if abscissa is not None:
            message = f"{message} (at x = {abscissa!r})"
        super().__init__(message)
        self.abscissa = abscissa


class DerivativeUnavailableError(MsquadError):
    """A derivative order was requested that the integrand cannot supply."""

    def __init__(self, order: int, max_order: int):
        super().__init__(
            f"derivative of order {order} requested, but only orders "
            f"0..{max_order} are available"
        )
        self.order = order
        self.max_order = max_order


class ParseError(MsquadError):
    """Expression text could not be parsed at ``offset``, a character index.

    ``text`` is the expression that failed, so a caller that parses more
    than one can tell which.
    """

    def __init__(self, message: str, offset: int, text: str | None = None):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.text = text


class InvalidRangeError(MsquadError):
    """A derivative range with lower bound above its upper bound."""


class SlopeInconsistencyError(MsquadError):
    """A secant slope lies outside the derivative range it must average."""


class ReferenceConvergenceError(MsquadError):
    """The adaptive reference integrator hit its subdivision limit.

    ``best_value``/``est_abs_error`` hold the best result obtained.
    """

    def __init__(self, message: str, best_value: float, est_abs_error: float):
        super().__init__(message)
        self.best_value = best_value
        self.est_abs_error = est_abs_error
