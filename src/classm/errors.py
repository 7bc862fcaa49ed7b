"""Exception types shared across the toolkit, the one rule each for numeric parameters, for
vector and matrix arguments and for typed objects, and the reading of integral floats in JSON."""

import math
import numbers

import numpy as np


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


def _integer(name: str, value, lo: int, error=BadParams, hi=None, odd=False) -> int:
    """``value`` as an int: any integer but a bool, numpy's included, in lo..hi (no top when hi
    is None) and odd when ``odd`` is set; else ``error("{name} must be an integer ...")``."""
    if type(value) is int or not isinstance(value, bool) and isinstance(value, numbers.Integral):
        if lo <= value and (hi is None or value <= hi) and (not odd or value % 2):
            return int(value)
    span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    raise error(f"{name} must be an {'odd ' if odd else ''}integer {span}, got {value!r}")


def _real(name: str, value, ok, what: str, error=BadParams) -> float:
    """``value`` as a float if ``ok`` holds of it: any real number but a bool, an int past
    the float range counting as +-inf; else ``error("{name} must be {what}, got ...")``."""
    if type(value) is float:
        out = value
    elif type(value) is int or not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            out = float(value)
        except OverflowError:
            out = math.inf if value > 0 else -math.inf
    else:
        out = math.nan
    if not ok(out):
        raise error(f"{name} must be {what}, got {value!r}")
    return out


def _positive(name: str, value, error=BadParams) -> float:
    """``value`` as a float: any real number but a bool that is finite and > 0 as a float."""
    return _real(name, value, lambda v: 0.0 < v < math.inf, "finite and > 0", error)


def _instance(name: str, value, cls, error=InvalidMatrix):
    """``value`` if it is a ``cls``, else ``error("{name} must be a {cls}, not {its type}")``."""
    if isinstance(value, cls):
        return value
    raise error(f"{name} must be a {cls.__name__}, not {type(value).__name__}")


def _exact_reals(name: str, values, error=BadArgument) -> list:
    """The entries of ``values`` as a list, kept as given: each an integer but a bool, exact at
    any size, or a real number that ``_real`` finds finite; else ``error("{name} must ...")``."""
    vals = list(values)
    for v in vals:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            _real(name, v, math.isfinite, "finite real numbers", error)
    return vals


def _array(name: str, value, ndim: int, error=BadParams) -> np.ndarray:
    """``value`` as a new float array with ``ndim`` nonempty axes and finite entries: a numpy
    array of integers or floats, or sequences nested ``ndim`` deep of any real number but a
    bool; else one line, ``error("{name} must be a nonempty vector ..., got ...")``."""
    fast = type(value) is np.ndarray and value.dtype.kind in "fiu"
    out = value.astype(float) if fast else _real_entries(value)
    if isinstance(out, str):
        got = out
    elif out.ndim != ndim or not out.size:
        got = f"shape {out.shape}"
    else:
        flat = out.ravel().tolist()
        # a sum of floats is finite only if every term is; all() decides a sum that overflowed
        if math.isfinite(sum(flat)) or all(map(math.isfinite, flat)):
            return out
        got = "a non-finite entry"
    kind = "vector" if ndim == 1 else "matrix"
    raise error(f"{name} must be a nonempty {kind} of finite real numbers, got {got}")


def _real_entries(value):
    """The entries of ``value`` as a float array when each is a real number but a bool, else
    the text that says why not."""
    try:
        obj = np.array(value, dtype=object)
    except ValueError:  # numpy arrays of different shapes side by side
        return "ragged nesting"
    for v in obj.flat:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            return f"a {type(v).__name__} entry"
    try:
        return obj.astype(float)
    except OverflowError:  # an int past the float range
        return "a non-finite entry"


def _integer_field(value):
    """An integral float such as 2.0 as that int, else the value as given, for its rule."""
    return int(value) if isinstance(value, float) and value.is_integer() else value
