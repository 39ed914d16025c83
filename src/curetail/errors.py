"""Exception hierarchy.

Two branches: ValidationError for malformed inputs (bad shapes, domains,
file formats) and NumericalError for data that admits no usable fit or
trips a compute-time guard.  The CLI maps them to exit codes 2 and 3.
``check_int`` and ``check_real`` are the one rule for numeric inputs: numpy
numbers count, bools do not, and a real must be finite.
"""
import math
import numbers


class CuretailError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CuretailError):
    """Input violates a documented precondition."""


class NumericalError(CuretailError):
    """Computation cannot proceed on this data."""


class EmptySampleError(ValidationError):
    """Sample contains no observations."""


class InvalidKError(ValidationError):
    """Tail size k outside the range the sample supports."""


class DatasetFormatError(ValidationError):
    """CSV input does not follow the time,status layout."""


class KTooSmallForStressError(ValidationError):
    """Stress sweep requested fractions the tail size cannot cover."""


class TransformDomainError(NumericalError):
    """Transform argument outside its open domain."""


class NonPositiveThresholdError(NumericalError):
    """Log-scale construction needs a strictly positive threshold."""


class InfeasiblePError(NumericalError):
    """Cure level p outside the admissible interval."""


class InfeasiblePiError(NumericalError):
    """Conditional level pi outside the admissible interval."""


class DegenerateRegressorError(NumericalError):
    """All regressor values vanish; no slope is identifiable."""


class DegenerateExceedancesError(NumericalError):
    """Exceedance sample carries no usable information."""


def check_int(value, what, lower, upper=None, error=ValidationError) -> None:
    """Raise ``error(f"{what}, got {value!r}")`` unless value is an integer in [lower, upper]."""
    if (type(value) is bool or not isinstance(value, numbers.Integral)
            or value < lower or (upper is not None and value > upper)):
        raise error(f"{what}, got {value!r}")


def check_real(value, what, inside=None, error=ValidationError) -> None:
    """Raise ``error(f"{what}, got {value!r}")`` unless value is a real that ``inside`` admits."""
    try:  # math.isfinite overflows on an integer beyond the float range
        ok = type(value) is not bool and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:
        ok = False
    if not ok or (inside is not None and not inside(value)):
        raise error(f"{what}, got {value!r}")
