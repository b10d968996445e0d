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
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from .errors import DomainError


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
        for name in ("pi", "beta_data", "beta_rand"):
            value = getattr(self, name)
            if value.__class__ is bool or not 0.0 < value < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {value!r}")
        bpe = self.bytes_per_element
        if not (bpe.__class__ is int or isinstance(bpe, numbers.Integral)
                and bpe.__class__ is not bool) or bpe < 1:
            raise DomainError(f"bytes_per_element must be an integer >= 1, got {bpe!r}")

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


@dataclass(frozen=True)
class RooflinePoint:
    """One sampled point of a roofline curve."""

    ai: float
    alpha: float
    beta_eff: float
    phi: float
    regime: RegimeLabel


def _check_alpha(alpha: float) -> None:
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"alpha must lie in [0, 1], got {alpha!r}")


def _check_ai(ai: float) -> None:
    if not (ai > 0.0):
        raise DomainError(f"ai must be positive, got {ai!r}")


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
    """Label the binding resource at (ai, alpha).

    Ties break toward ComputeBound (pi == ai * beta_eff) and toward
    EntropyBound (equal access terms); both choices are deterministic and
    conservative toward the entropy-limited reading of an operating point.
    """
    _check_ai(ai)
    _check_alpha(alpha)
    if arch.pi <= ai * effective_beta(alpha, arch):
        return RegimeLabel.COMPUTE_BOUND
    if alpha / arch.beta_rand >= (1.0 - alpha) / arch.beta_data:
        return RegimeLabel.ENTROPY_BOUND
    return RegimeLabel.DATA_BOUND


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
) -> List[RooflinePoint]:
    """Sample the throughput roofline on a log-spaced AI grid."""
    if not (0.0 < ai_min < ai_max):
        raise DomainError(
            f"need 0 < ai_min < ai_max, got ai_min={ai_min!r} ai_max={ai_max!r}"
        )
    if n_points < 2:
        raise DomainError(f"n_points must be >= 2, got {n_points!r}")
    _check_alpha(alpha)
    beta_eff = effective_beta(alpha, arch)
    ratio = ai_max / ai_min
    points = []
    for i in range(n_points):
        ai = ai_min * ratio ** (i / (n_points - 1))
        phi = min(arch.pi, ai * beta_eff)
        points.append(
            RooflinePoint(
                ai=ai,
                alpha=alpha,
                beta_eff=beta_eff,
                phi=phi,
                regime=classify_regime(ai, alpha, arch),
            )
        )
    return points
