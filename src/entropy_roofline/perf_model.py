"""Closed-form throughput model for mixed deterministic/stochastic data access.

A workload is characterized by its arithmetic intensity ``ai`` (operations
per data access, counting both deterministic accesses and stochastic
samples) and its probabilistic data ratio ``alpha`` (fraction of accesses
that are stochastic samples).  The two access streams compose serially, so
the effective access rate is the alpha-weighted harmonic mean of the
deterministic rate and the entropy rate:

    1 / beta_eff = alpha / beta_rand + (1 - alpha) / beta_data

System throughput is the roofline minimum of the compute rate and the
access-fed operation rate:

    phi = min(pi, ai * beta_eff)

All rates are per-second quantities: ``pi`` in operations/s, ``beta_data``
and ``beta_rand`` in element-accesses/s and samples/s respectively (one
sample counts as one element-access so the two rates compose in a common
unit; ``bytes_per_element`` converts byte-rate specs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DomainError, require_finite, require_int


class RegimeLabel(str, Enum):
    """Which resource bounds throughput at an operating point."""

    COMPUTE_BOUND = "ComputeBound"
    DATA_BOUND = "DataBound"
    ENTROPY_BOUND = "EntropyBound"

    def __str__(self) -> str:  # CSV/JSON friendly
        return self.value


@dataclass(frozen=True)
class ArchParams:
    """Peak rates of an architecture.

    pi:
        Compute throughput, operations/second.
    beta_data:
        Deterministic access throughput, element-accesses/second.
    beta_rand:
        Entropy (sampling) throughput, samples/second.
    bytes_per_element:
        Element width used only to convert byte-rate specs.
    """

    pi: float
    beta_data: float
    beta_rand: float
    bytes_per_element: int = 4

    def __post_init__(self) -> None:
        require_finite("pi", self.pi, 0.0, math.inf, "()")
        require_finite("beta_data", self.beta_data, 0.0, math.inf, "()")
        require_finite("beta_rand", self.beta_rand, 0.0, math.inf, "()")
        require_int("bytes_per_element", self.bytes_per_element, 1)

    @classmethod
    def from_byte_bandwidth(
        cls,
        pi: float,
        beta_data_bytes: float,
        beta_rand: float,
        bytes_per_element: int = 4,
    ) -> "ArchParams":
        """Build params from a byte-denominated memory bandwidth."""
        return cls(
            pi=pi,
            beta_data=beta_data_bytes / bytes_per_element,
            beta_rand=beta_rand,
            bytes_per_element=bytes_per_element,
        )

    @classmethod
    def default(cls) -> "ArchParams":
        """Per-mm^2 scaling-era defaults: 10 TOPS, 100 GB/s, 1 GSa/s."""
        return cls.from_byte_bandwidth(
            pi=1e13, beta_data_bytes=1e11, beta_rand=1e9, bytes_per_element=4
        )


@dataclass(frozen=True, eq=False)
class RooflineCurve:
    """A roofline sampled at one ``alpha``: one ``ai``, ``phi`` and ``regime``
    (RegimeLabel) per point; ``phi`` is float64, or objects for an int ``pi``."""

    alpha: float
    beta_eff: float
    ai: np.ndarray
    phi: np.ndarray
    regime: np.ndarray

    def __len__(self) -> int:
        return len(self.ai)


def _check_alpha(alpha: float) -> None:
    require_finite("alpha", alpha, 0.0, 1.0)


def _check_ai(ai: float) -> None:
    require_finite("ai", ai, 0.0, math.inf, "()")


def effective_beta(alpha: float, arch: ArchParams) -> float:
    """Effective access rate at stochastic fraction ``alpha``.

    Exact at the endpoints: returns ``beta_data`` at alpha=0 and
    ``beta_rand`` at alpha=1 without round-off.
    """
    _check_alpha(alpha)
    if alpha == 0.0:
        return arch.beta_data
    if alpha == 1.0:
        return arch.beta_rand
    return 1.0 / (alpha / arch.beta_rand + (1.0 - alpha) / arch.beta_data)


def system_throughput(ai: float, alpha: float, arch: ArchParams) -> float:
    """Roofline throughput min(pi, ai * beta_eff), operations/second."""
    _check_ai(ai)
    return min(arch.pi, ai * effective_beta(alpha, arch))


def classify_regime(ai: float, alpha: float, arch: ArchParams) -> RegimeLabel:
    """Label the binding resource at (ai, alpha) from the per-access times
    ai / pi, (1 - alpha) / beta_data and alpha / beta_rand.  ``ai`` counts
    shaping ops too: ``shaping_ops_per_sample * alpha`` on a shaping backend."""
    _check_ai(ai)
    _check_alpha(alpha)
    t_data, t_entropy = (1.0 - alpha) / arch.beta_data, alpha / arch.beta_rand
    return _REGIMES[_regime_codes(ai / arch.pi, t_data + t_entropy, t_data, t_entropy)]


_REGIMES = np.array(list(RegimeLabel), dtype=object)  # by code: 0 compute, 1 data, 2 entropy


def _regime_codes(t_compute, t_access, t_data, t_entropy) -> np.ndarray:
    """The one label rule, over time columns: 0 (ComputeBound) where ``t_compute
    >= t_access``, elapsed's other term, else 2 (EntropyBound) where ``t_entropy
    >= t_data``, else 1 (DataBound).  Ties go to compute, then to entropy."""
    return np.where(t_compute >= t_access, 0, np.where(t_entropy >= t_data, 2, 1))


def crossover_alpha(ai: float, arch: ArchParams) -> Optional[float]:
    """Stochastic fraction at which the access roof meets the compute roof.

    Solves ai * effective_beta(alpha) == pi for alpha.  Returns None when no
    solution lies in [0, 1], or when beta_rand == beta_data (beta_eff is then
    constant in alpha and no transition exists).
    """
    _check_ai(ai)
    if arch.beta_rand == arch.beta_data:
        return None
    alpha = (ai / arch.pi - 1.0 / arch.beta_data) / (
        1.0 / arch.beta_rand - 1.0 / arch.beta_data
    )
    if 0.0 <= alpha <= 1.0:
        return alpha
    return None


def bandwidth_compression(alpha: float, arch: ArchParams) -> float:
    """Factor by which stochastic demand shrinks the effective access rate.

    Defined as beta_data / effective_beta(alpha); >= 1 whenever
    beta_rand <= beta_data.
    """
    return arch.beta_data / effective_beta(alpha, arch)


def roofline_curve(
    arch: ArchParams,
    alpha: float,
    ai_min: float,
    ai_max: float,
    n_points: int,
) -> RooflineCurve:
    """Sample the throughput roofline on a log-spaced AI grid as columns; the
    arguments are checked once per curve.  Each ``ai`` is a Python ``**``,
    whose last ulp ``np.power`` does not always match."""
    require_finite("ai_min", ai_min, 0.0, math.inf, "()")
    require_finite("ai_max", ai_max, ai_min, math.inf, "()")
    require_int("n_points", n_points, 2)
    beta_eff = effective_beta(alpha, arch)
    ratio = ai_max / ai_min
    if ratio == math.inf:
        raise DomainError(f"ai_max / ai_min overflows: {ai_max!r} / {ai_min!r}", "ai_max")
    ai = np.array([ai_min * ratio ** (i / (n_points - 1)) for i in range(n_points)])
    t_data, t_entropy = (1.0 - alpha) / arch.beta_data, alpha / arch.beta_rand
    with np.errstate(over="ignore"):  # past the float range is inf, as for Python floats
        roof = ai * beta_eff
        code = _regime_codes(ai / arch.pi, t_data + t_entropy, t_data, t_entropy)
    # phi is pi itself where compute binds, so a pi given as an int stays one
    pi = arch.pi if isinstance(arch.pi, float) else np.array(arch.pi, dtype=object)
    return RooflineCurve(alpha=alpha, beta_eff=beta_eff, ai=ai, phi=np.where(code == 0, pi, roof),
                         regime=_REGIMES[code])
