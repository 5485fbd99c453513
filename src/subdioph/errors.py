"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SubdiophError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(SubdiophError):
    """Matrix or vector dimensions do not match the requested operation."""


class DegenerateBasisError(SubdiophError):
    """A basis matrix does not have full column rank."""


class NotDecomposableError(SubdiophError):
    """A coordinate vector does not come from any subspace of the requested dimension."""


class NumericalRankLossError(SubdiophError):
    """A column collapsed during orthonormalization at the working precision."""


class PrecisionExhaustedError(SubdiophError):
    """Adaptive refinement hit the precision cap before reaching the target accuracy."""


class DimensionCollapseError(SubdiophError):
    """A linear map crushed a subspace to lower dimension."""


class ParameterError(SubdiophError):
    """Construction parameters are outside the admissible range."""


class CertificationFailure(SubdiophError):
    """A certified inequality failed; carries the check name and the index N."""

    def __init__(self, check: str, n_index: int, detail: str = "") -> None:
        self.check = check
        self.n_index = n_index
        msg = f"check {check!r} failed at N={n_index}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class StrategyMismatchError(SubdiophError):
    """The enumeration strategy does not support the requested dimensions."""


class InsufficientRecordsError(SubdiophError):
    """Too few usable record points remain to fit an approximation exponent."""


class IrrationalityViolationError(SubdiophError):
    """An enumerated subspace meets the target: a sine of an exact pair is
    exactly zero, or one from the mpmath engine or an evaluator target is
    indistinguishable from zero at the precision cap."""


class SerializationError(SubdiophError):
    """A report row cannot be represented in the requested output format."""
