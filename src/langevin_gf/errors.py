"""Exception hierarchy shared by all langevin_gf modules."""

from __future__ import annotations


class Error(Exception):
    """Base class for all errors raised by this package.

    ``row`` is the index of the first row of a batch that a check refused, and
    ``step`` the step k that the stepping loop ``integrators._iterate`` named
    ``step k: ``; else each is None.
    """

    def __init__(self, message: str = "", row: int | None = None) -> None:
        super().__init__(message)
        self.row = row
        self.step: int | None = None


class ArgumentError(Error):
    """An argument violates a documented precondition."""


class EvaluationError(Error):
    """A model or integrand evaluation left its numeric domain."""


class StepSizeError(Error):
    """The implicit step matrix is too ill-conditioned for the requested h."""


class CapabilityError(Error):
    """The request falls outside a closed catalog of supported cases."""


class RangeError(Error):
    """An intermediate quantity overflowed its floating-point range."""


class EstimationError(Error):
    """A Monte Carlo estimate could not be formed (e.g. trajectory blow-up).

    ``where`` locates a trajectory failure as (step, 0 for a refused step or
    1 for a non-finite state after it, realization), which orders failures;
    the realization is the task's first plus the step kernel's ``row``.  It
    is None for other failures.
    """

    def __init__(self, message: str = "", where: tuple[int, int, int] | None = None) -> None:
        super().__init__(message)
        self.where = where


class DegenerateDensityError(Error):
    """A density normalization integral is numerically zero."""


class ConfigError(Error):
    """An experiment configuration failed validation."""
