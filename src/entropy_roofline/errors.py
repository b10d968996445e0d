"""Exception hierarchy shared by all entropy-roofline modules."""

import numbers


class EntropyRooflineError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EntropyRooflineError, ValueError):
    """A parameter or argument lies outside its admissible domain."""


def require_int(name: str, value, lo: int) -> None:
    """Raise DomainError unless ``value`` is a non-bool integer >= ``lo``.

    A bool is no count, though True would pass as 1.  Sweeps build configs
    per point, so the Integral ABC is only asked about a non-int.
    """
    if not (value.__class__ is int or isinstance(value, numbers.Integral)
            and value.__class__ is not bool) or value < lo:
        raise DomainError(f"{name} must be an integer >= {lo}, got {value!r}")


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
