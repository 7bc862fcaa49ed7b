"""Exception types shared across the toolkit, and the one rule for numeric parameters."""

import math
import numbers


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class InvalidMatrix(ToolkitError, ValueError):
    """Input is not a usable symmetric matrix (non-square, non-finite, or too asymmetric)."""


class DimMismatch(ToolkitError, ValueError):
    """Operands have incompatible dimensions."""


class BadArgument(ToolkitError, ValueError):
    """A scalar argument is outside its documented range."""


class BadParams(ToolkitError, ValueError):
    """Operator or witness family parameters are invalid."""


class NonFiniteValue(ToolkitError, ArithmeticError):
    """An evaluation on finite input overflowed to a non-finite value."""


class OutOfDomain(ToolkitError):
    """Evaluation was attempted outside an operator's or witness's domain."""


class NotInClassM(ToolkitError):
    """The requested witness family provably does not exist."""


class SamplingExhausted(ToolkitError):
    """Rejection sampling hit its retry cap without an admissible draw."""


class SlackTooLarge(ToolkitError):
    """Requested slack breaks the lower matrix bound of the two-sided block inequality."""


class NonConvergent(ToolkitError):
    """Schedule tail failed its Cauchy test; no limit was extracted."""

    def __init__(self, message, oscillation=None):
        super().__init__(message)
        self.oscillation = oscillation


def _integer(name: str, value, lo: int, error=BadParams) -> int:
    """``value`` as an int: any integer but a bool, numpy's included, that is >= lo."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo:
        raise error(f"{name} must be an integer >= {lo}, got {value!r}")
    return int(value)


def _real(name: str, value, ok, what: str, error=BadParams) -> float:
    """``value`` as a float if ``ok`` holds of it: any real number but a bool, an int past
    the float range counting as +-inf; else ``error("{name} must be {what}, got ...")``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        out = math.nan
    else:
        try:
            out = float(value)
        except OverflowError:
            out = math.inf if value > 0 else -math.inf
    if not ok(out):
        raise error(f"{name} must be {what}, got {value!r}")
    return out


def _positive(name: str, value, error=BadParams) -> float:
    """``value`` as a float: any real number but a bool that is finite and > 0 as a float."""
    return _real(name, value, lambda v: 0.0 < v < math.inf, "finite and > 0", error)
