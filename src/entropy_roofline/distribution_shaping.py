"""Shaping of raw uniform entropy into target distributions.

Covers the three shaping classes a sampler pipeline can use: arithmetic
transforms (Box-Muller), lookup tables (piecewise-linear inverse CDF), and
accumulation (central-limit sums), plus Bernoulli thresholding and the
reparameterization map ``x = mu + sigma * eps`` (``PMemArray`` computes that
map inline, on every backend kind).

Each pipeline carries a per-output-sample operation cost consumed by the
cost accounting; the defaults are documented knobs, not measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, require_finite, require_int

METHOD_BOX_MULLER = "box_muller"
METHOD_INVERSE_CDF = "inverse_cdf_table"
METHOD_CLT = "clt_accumulate"
METHOD_BERNOULLI = "bernoulli_threshold"

SHAPING_METHODS = (
    METHOD_BOX_MULLER,
    METHOD_INVERSE_CDF,
    METHOD_CLT,
    METHOD_BERNOULLI,
)

# shaping operations per output sample (configurable via ShapingPipelineSpec.cost)
DEFAULT_COSTS = {
    METHOD_BOX_MULLER: 8,
    METHOD_INVERSE_CDF: 2,
    METHOD_BERNOULLI: 1,
    # clt_accumulate defaults to its accumulation count k
}

_STD_NORMAL = NormalDist()

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class ShapingPipelineSpec:
    """Configuration of one shaping pipeline.

    method-specific parameters: ``n_entries`` and ``family`` for the inverse
    CDF table, ``k`` for CLT accumulation, ``p`` for Bernoulli thresholding.
    """

    method: str
    n_entries: int = 257
    family: str = "normal"
    k: int = 12
    p: float = 0.5
    cost: Optional[int] = None

    def __post_init__(self) -> None:
        if self.method not in SHAPING_METHODS:
            raise DomainError(f"unknown shaping method {self.method!r}")
        require_int("n_entries", self.n_entries, 2)
        require_int("k", self.k, 1)
        require_finite("p", self.p, 0.0, 1.0)
        if self.cost is not None:
            require_int("cost", self.cost, 0)

    @property
    def ops_per_sample(self) -> int:
        if self.cost is not None:
            return self.cost
        if self.method == METHOD_CLT:
            return self.k
        return DEFAULT_COSTS[self.method]


# ------------------------------------------------------------------------
# Elementary transforms
# ------------------------------------------------------------------------


def box_muller(u1: ArrayLike, u2: ArrayLike):
    """Standard-normal pair from uniforms u1 in (0, 1], u2 in [0, 1).

    z1 = sqrt(-2 ln u1) cos(2 pi u2), z2 = sqrt(-2 ln u1) sin(2 pi u2).
    Callers must keep u1 away from 0 (map u <- 1 - u upstream).  Two scalars
    go through ``math``, anything else through ``box_muller_block``; both are
    libm, so they agree bit for bit.
    """
    if np.isscalar(u1) and np.isscalar(u2):
        if not (0.0 < u1 <= 1.0):
            raise DomainError("u1 must lie in (0, 1]")
        if not (0.0 <= u2 < 1.0):
            raise DomainError("u2 must lie in [0, 1)")
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        return r * math.cos(theta), r * math.sin(theta)
    u1a = np.asarray(u1, dtype=np.float64)
    u2a = np.asarray(u2, dtype=np.float64)
    if np.any(u1a <= 0.0) or np.any(u1a > 1.0):
        raise DomainError("u1 must lie in (0, 1]")
    if np.any(u2a < 0.0) or np.any(u2a >= 1.0):
        raise DomainError("u2 must lie in [0, 1)")
    return box_muller_block(u1a, u2a)


def box_muller_block(u1: np.ndarray, u2: np.ndarray, sine: bool = True):
    """``box_muller`` over float64 arrays in its domain, unchecked; z2 is None
    without ``sine``.  Every array Box-Muller runs here, on libm alone, so no
    byte depends on the CPU: ``xlogy(1.0, u1)`` is libm's ``log`` in a scalar
    C loop, where numpy's AVX-512 ``log`` differs in the last bit, and numpy's
    ``cos`` and ``sin`` equal libm under every dispatch.  ``scipy.special``
    is imported here, at the first draw, so commands that draw no normals
    never load it."""
    from scipy.special import xlogy

    r = np.sqrt(-2.0 * xlogy(1.0, u1))
    theta = 2.0 * math.pi * u2
    return r * np.cos(theta), r * np.sin(theta) if sine else None


def bernoulli_from_uniform(u: ArrayLike, p: float):
    """Threshold a uniform into a bit: 1 if u < p else 0."""
    require_finite("p", p, 0.0, 1.0)
    ua = np.asarray(u, dtype=np.float64)
    bits = (ua < p).astype(np.int64)
    if np.isscalar(u):
        return int(bits)
    return bits


def clt_accumulate(uniforms: np.ndarray, k: int) -> np.ndarray:
    """Approximate normals by summing k uniforms and standardizing.

    Consumes the input in groups of k: output_j = (sum of group j - k/2) /
    sqrt(k/12).  Exactly unit variance and zero mean for ideal uniforms.
    """
    require_int("k", k, 1)
    u = np.asarray(uniforms, dtype=np.float64)
    if u.ndim != 1 or u.shape[0] % k != 0:
        raise DomainError(
            f"uniform count must be a positive multiple of k={k}, got {u.shape}"
        )
    groups = u.reshape(-1, k)
    return (groups.sum(axis=1) - k / 2.0) / math.sqrt(k / 12.0)


# ------------------------------------------------------------------------
# Inverse-CDF tables
# ------------------------------------------------------------------------


class InverseCdfTable:
    """Piecewise-linear quantile table over n_entries knots.

    Interior knots sit at probabilities i/(n-1); the two end knots are
    pulled in to 0.5/(n-1) and 1 - 0.5/(n-1) so heavy-tailed targets stay
    finite.  Draws outside the end-knot probabilities clamp to the end
    knots; the clamped per-side probability mass is reported as
    ``tail_truncation`` so truncation is observable, never silent.
    """

    def __init__(self, quantile: Callable[[float], float], n_entries: int):
        require_int("n_entries", n_entries, 2)
        half = 0.5 / (n_entries - 1)
        probs = np.arange(n_entries, dtype=np.float64) / (n_entries - 1)
        probs[0] = half
        probs[-1] = 1.0 - half
        values = np.array([float(quantile(float(q))) for q in probs])
        if np.any(np.diff(values) < 0.0):
            raise DomainError("table quantiles are not monotone")
        self.n_entries = n_entries
        self.probs = probs
        self.values = values
        self.probs.setflags(write=False)
        self.values.setflags(write=False)

    @property
    def tail_truncation(self) -> float:
        """Probability mass clamped to each end knot."""
        return 0.5 / (self.n_entries - 1)

    @classmethod
    def for_family(cls, family: str, n_entries: int) -> "InverseCdfTable":
        if family == "normal":
            return cls(_STD_NORMAL.inv_cdf, n_entries)
        if family == "uniform":
            return cls(lambda q: q, n_entries)
        raise DomainError(f"no quantile table for family {family!r}")

    def sample(self, u: ArrayLike):
        ua = np.asarray(u, dtype=np.float64)
        if np.any(ua < 0.0) or np.any(ua >= 1.0):
            raise DomainError("u must lie in [0, 1)")
        out = np.interp(np.clip(ua, self.probs[0], self.probs[-1]),
                        self.probs, self.values)
        if np.isscalar(u):
            return float(out)
        return out


# ------------------------------------------------------------------------
# Pipeline execution
# ------------------------------------------------------------------------


def uniforms_needed(spec: ShapingPipelineSpec, n_out: int) -> int:
    """Raw uniforms required to produce at least ``n_out`` samples."""
    require_int("n_out", n_out, 0)
    if spec.method == METHOD_BOX_MULLER:
        return 2 * ((n_out + 1) // 2)
    if spec.method == METHOD_CLT:
        return spec.k * n_out
    return n_out


def run_pipeline(spec: ShapingPipelineSpec, uniforms: np.ndarray) -> np.ndarray:
    """Shape a block of uniforms; may emit one extra sample for odd
    Box-Muller requests (callers slice to length)."""
    u = np.asarray(uniforms, dtype=np.float64)
    if u.ndim != 1:
        raise DomainError("uniforms must be a 1-d array")
    if spec.method == METHOD_BOX_MULLER:
        if u.shape[0] % 2 != 0:
            raise DomainError("box_muller consumes uniforms in pairs")
        return np.column_stack(box_muller(1.0 - u[0::2], u[1::2])).ravel()  # z1, z2 interleaved
    if spec.method == METHOD_INVERSE_CDF:
        table = InverseCdfTable.for_family(spec.family, spec.n_entries)
        return np.asarray(table.sample(u), dtype=np.float64)
    if spec.method == METHOD_CLT:
        return clt_accumulate(u, spec.k)
    # bernoulli_threshold
    return np.asarray(bernoulli_from_uniform(u, spec.p), dtype=np.float64)
