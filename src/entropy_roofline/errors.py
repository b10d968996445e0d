"""Exception hierarchy shared by all entropy-roofline modules."""

import math
import numbers
import sys
from typing import Optional

_FLOAT_MAX = sys.float_info.max


class EntropyRooflineError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EntropyRooflineError, ValueError):
    """A parameter or argument lies outside its admissible domain; ``name``
    is the parameter when a ``require_*`` check rejected it."""

    def __init__(self, message: str, name: Optional[str] = None):
        self.name = name
        super().__init__(message)


def require_int(name: str, value, lo=-math.inf, hi=math.inf) -> None:
    """Raise DomainError unless ``value`` is a non-bool integer in [``lo``, ``hi``].

    A bool is no count, though True would pass as 1.  Traces build a record
    per distinct line, so the Integral ABC is only asked about a non-int.
    """
    if not (value.__class__ is int or isinstance(value, numbers.Integral)
            and value.__class__ is not bool) or not lo <= value <= hi:
        bound = "" if lo == -math.inf else f" >= {lo}" if hi == math.inf else f" in [{lo}, {hi!r}]"
        raise DomainError(f"{name} must be an integer{bound}, got {value!r}", name)


def require_bool(name: str, value) -> None:
    """Raise DomainError unless ``value`` is a bool, where a flag's ``"no"``
    would read as true and ``0`` as false."""
    if value.__class__ is not bool:
        raise DomainError(f"{name} must be true or false, got {value!r}", name)


def _real(value) -> float:
    """``value`` as a float; NaN for a bool, a non-real or a too large real."""
    if value.__class__ is bool or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.nan


def require_finite(name: str, value, lo: float = -math.inf, hi: float = math.inf,
                   ends: str = "[]") -> None:
    """Raise DomainError unless ``value`` is a finite non-bool real number in
    the interval from ``lo`` to ``hi``.

    ``ends`` writes the interval as in mathematics: ``"[]"`` closed, ``"()"``
    open, ``"[)"`` or ``"(]"`` half-open; an infinite end is open whatever it
    says, since NaN and +-inf never pass.  A bool is no number, though True
    would pass as 1.  A ``DistributionSpec`` is built on every cell read and
    write, so the Real ABC is only asked about a value that is neither float
    nor int.
    """
    cls = value.__class__
    x = value if cls is float or cls is int else _real(value)
    if -_FLOAT_MAX <= x <= _FLOAT_MAX and (
            lo <= x <= hi if ends == "[]" else
            (lo < x if ends[0] == "(" else lo <= x) and (x < hi if ends[1] == ")" else x <= hi)):
        return
    left = "(" if lo == -math.inf else ends[0]
    right = ")" if hi == math.inf else ends[1]
    raise DomainError(
        f"{name} must be a finite number in {left}{lo!r}, {hi!r}{right}, got {value!r}", name
    )


def parse_number(text: str, kind: type = int, signed: bool = False):
    """``text`` as this package's CSV writers write an ``int`` (ASCII digits
    alone, after one ``-`` if ``signed``) or a ``float`` (ASCII, no underscore
    or surrounding space), where ``int()`` and ``float()`` also take
    underscores, spaces and other digits.  ``signed`` is the package's one
    signed integer form, for a seed or a cells-CSV address.  Text ``kind``
    rejects, such as ``1.0.0`` or more digits than ``int()`` converts, raises
    DomainError too, echoing at most its first 40 characters."""
    digits = text[1:] if signed and text[:1] == "-" else text
    if text.isascii() and (digits.isdigit() if kind is int else
                           "_" not in text and text == text.strip()):
        try:
            return kind(text)
        except ValueError:
            pass
    too_long = kind is int and text.isascii() and digits.isdigit()  # digits int() refused
    what = f"no more than {sys.get_int_max_str_digits():,} digits" if too_long else (
        "a number" if kind is not int else
        "ASCII digits after an optional '-'" if signed else "unsigned ASCII digits")
    shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text):,} characters)"
    raise DomainError(f"expected {what}, got {shown}")


class AddressError(EntropyRooflineError, IndexError):
    """A cell address falls outside the array bounds."""


class CellTypeError(EntropyRooflineError, TypeError):
    """An operation was applied to a cell family that does not support it."""


class VarianceRangeError(EntropyRooflineError):
    """SET_VARIANCE rejected by a coupled backend.

    Carries the achievable standard-deviation window [lo, hi] so a caller
    (e.g. a hardware-aware trainer) can clamp or re-plan.
    """

    def __init__(self, requested: float, lo: float, hi: float):
        self.requested = requested
        self.lo = lo
        self.hi = hi
        super().__init__(
            f"sigma={requested!r} outside achievable range [{lo!r}, {hi!r}]"
        )


class TraceParseError(EntropyRooflineError, ValueError):
    """A trace file line failed to parse; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class ConfigError(EntropyRooflineError, ValueError):
    """A configuration document failed validation; carries the key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class DegenerateWorkloadError(EntropyRooflineError, ValueError):
    """A workload with no data accesses cannot be characterized or run."""
