"""Exception types shared across the toolkit."""


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
