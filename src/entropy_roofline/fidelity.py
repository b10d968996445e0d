"""Statistical test battery for sample streams.

Quantifies how faithful a stream is to its target distribution: sample
moments, one-sample Kolmogorov-Smirnov distance, autocorrelation profile,
and a most-common-value min-entropy estimate, composed into a
FidelityReport.  All estimators are deterministic functions of the sample
vector; degenerate inputs produce flagged None fields, never silent NaNs.

A report makes one probability integral transform: it sorts the sample
once, evaluates the target CDF once on the sorted values, and feeds those
values to both the KS statistic and the symbol quantizer.  It stays equal,
field for field, to composing the public estimators.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from .distribution_shaping import (
    METHOD_INVERSE_CDF,
    InverseCdfTable,
    ShapingPipelineSpec,
    run_pipeline,
    uniforms_needed,
)
from .entropy_sources import (
    NonidealitySpec,
    NonidealityState,
    SourceHandle,
    SourceSpec,
    _apply_nonidealities_block,
    create_source,
)
from .errors import DomainError, require_finite, require_int
from .probabilistic_memory import (
    FAMILY_BERNOULLI,
    FAMILY_GAUSSIAN,
    FAMILY_POINT_MASS,
    DistributionSpec,
)

# 99% two-sided normal quantile used for the min-entropy confidence bound
_MCV_Z = 2.576

# How far, in ulps of F, the KS check lets a target CDF step down between
# sorted samples before calling it not monotone
_CDF_ROUNDING_ULPS = 64

# The sample counts a report accepts, for the library and the CLI alike
N_MIN = 1_000
N_MAX = 100_000_000

# A target is a DistributionSpec, or this string for raw uniform streams.
UNIFORM_TARGET = "uniform"
Target = Union[DistributionSpec, str]


def normal_cdf(x, mu: float = 0.0, sigma: float = 1.0):
    """Gaussian CDF, ``scipy.special.ndtr`` of the standardized value
    (independent of every sampler in the package).  Array input gets one
    new array, which is also the result.  ``scipy.special`` is imported
    here, at the first call, so commands that judge no gaussian never load
    it."""
    from scipy.special import ndtr

    require_finite("sigma", sigma, 0.0, math.inf, "()")
    z = np.array(x, dtype=np.float64)
    z -= mu
    z /= sigma
    out = ndtr(z, out=z)
    return float(out) if np.isscalar(x) else out


def uniform_cdf(x):
    xa = np.asarray(x, dtype=np.float64)
    out = np.clip(xa, 0.0, 1.0)
    return float(out) if np.isscalar(x) else out


def target_cdf(target: Target) -> Optional[Callable]:
    """CDF callable for continuous targets; None for discrete/degenerate."""
    if target == UNIFORM_TARGET:
        return uniform_cdf
    if target.family == FAMILY_GAUSSIAN and target.sigma > 0.0:
        return lambda x: normal_cdf(x, target.mu, target.sigma)
    return None


# ------------------------------------------------------------------------
# Estimators
# ------------------------------------------------------------------------


def moments(samples: np.ndarray):
    """(mean, variance, skewness, excess_kurtosis).

    Mean and variance are the standard unbiased estimators; skewness and
    kurtosis are standardized central moments, taken from one array of
    squared deviations (no per-element pow).  Every sum is a numpy pairwise
    reduction, not a BLAS dot, so the result does not depend on the BLAS
    thread count.  Zero-variance input flags skew/kurtosis as None; kurtosis
    also needs n >= 4.
    """
    x = np.asarray(samples, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise DomainError(f"moments need n >= 2, got {n}")
    mean = float(x.mean())
    d = x - mean
    d2 = d * d
    ss = np.add.reduce(d2)
    variance = float(ss / (n - 1))
    if variance == 0.0:
        return mean, 0.0, None, None
    m2 = ss / n
    d *= d2
    skew = float(d.mean() / m2**1.5)
    d2 *= d2
    kurt = float(d2.mean() / m2**2 - 3.0) if n >= 4 else None
    return mean, variance, skew, kurt


def ks_critical_value(n: int, significance: float) -> float:
    """Asymptotic one-sample KS critical D: sqrt(-ln(a/2) / (2n))."""
    require_finite("significance", significance, 0.0, 1.0, "()")
    require_int("n", n, 1)
    return math.sqrt(-math.log(significance / 2.0) / (2.0 * n))


def ks_test(samples: np.ndarray, cdf: Callable, significance: float = 0.01):
    """(D, pass) for one-sample KS against a continuous target CDF.

    D = sup_i max(|i/n - F(x_(i))|, |F(x_(i)) - (i-1)/n|) over the sorted
    sample; passes when D is below the asymptotic critical value.  A CDF
    that steps down between sorted samples by more than rounding raises
    DomainError.
    """
    return _ks_sorted_cdf(_sorted_cdf(samples, cdf), significance)


def _sorted_cdf(samples: np.ndarray, cdf: Callable) -> np.ndarray:
    """F(x_(i)), the target CDF at the sorted sample."""
    return np.asarray(cdf(np.sort(np.asarray(samples, dtype=np.float64))), dtype=np.float64)


def _ks_sorted_cdf(f: np.ndarray, significance: float):
    """``ks_test`` given F(x_(i)), the target CDF at the sorted sample."""
    n = f.shape[0]
    if n < 10:
        raise DomainError(f"ks_test needs n >= 10, got {n}")
    crit = ks_critical_value(n, significance)
    # A step down of a few ulps is rounding, not a decreasing CDF: ndtr
    # drops by up to 12 ulps between nearby inputs around x = -1.4.
    down = np.flatnonzero(f[1:] < f[:-1])
    if down.size and np.any(
        f[down + 1] < f[down] - _CDF_ROUNDING_ULPS * np.abs(np.spacing(f[down]))
    ):
        raise DomainError("target CDF is not monotone on the sample range")
    # i/n - F, then F - (i-1)/n, in one scratch array at a time
    t = np.arange(1, n + 1, dtype=np.float64)
    t /= n
    t -= f
    d_plus = t.max()
    del t
    t = np.arange(n, dtype=np.float64)
    t /= n
    np.subtract(f, t, out=t)
    d_minus = t.max()
    d = float(max(d_plus, d_minus))
    return d, d < crit


def autocorrelation(samples: np.ndarray, max_lag: int) -> Optional[np.ndarray]:
    """rho(1..max_lag); None (flagged undefined) on a zero-variance stream.

    rho(l) = sum (x_t - m)(x_{t+l} - m) / sum (x_t - m)^2, each sum a numpy
    pairwise reduction over one product buffer reused across the lags.
    """
    x = np.asarray(samples, dtype=np.float64)
    n = x.shape[0]
    require_int("max_lag", max_lag, 1)
    if n <= 4 * max_lag:
        raise DomainError(f"need n > 4*max_lag, got n={n} max_lag={max_lag}")
    d = x - x.mean()
    buf = d * d
    denom = float(np.add.reduce(buf))
    if denom == 0.0:
        return None
    rho = np.empty(max_lag)
    for l in range(1, max_lag + 1):
        m = n - l
        rho[l - 1] = float(np.add.reduce(np.multiply(d[:m], d[l:], out=buf[:m])) / denom)
    return rho


def min_entropy(symbols: np.ndarray) -> float:
    """Most-common-value min-entropy estimate, bits per symbol.

    -log2(p_up) with p_up = min(1, p_hat + 2.576 * sqrt(p_hat(1-p_hat)/n)),
    a 99% upper confidence bound on the most likely symbol's probability.
    """
    s = np.asarray(symbols)
    n = s.shape[0]
    if n < 1000:
        raise DomainError(f"min_entropy needs n >= 1000, got {n}")
    _, counts = np.unique(s, return_counts=True)
    p_hat = counts.max() / n
    p_up = min(1.0, p_hat + _MCV_Z * math.sqrt(p_hat * (1.0 - p_hat) / n))
    return -math.log2(p_up)


def symbolize(samples: np.ndarray, target: Target, symbol_bits: int = 8) -> np.ndarray:
    """Map a stream to integer symbols for min-entropy estimation.

    Bernoulli streams pass through as bits and point masses give one symbol;
    continuous streams go through the target's CDF (the identity on [0, 1]
    for the "uniform" target) and quantize to 2**symbol_bits bins (ideal
    streams then look uniform over symbols).
    """
    x = np.asarray(samples, dtype=np.float64)
    if target != UNIFORM_TARGET:
        if target.family == FAMILY_BERNOULLI:
            return x.astype(np.int64)
        if target.family == FAMILY_POINT_MASS:
            return np.zeros(x.shape[0], dtype=np.int64)
    return _quantize(target_cdf(target)(x), symbol_bits)


def _quantize(u: np.ndarray, symbol_bits: int) -> np.ndarray:
    """Symbols of CDF values ``u`` in [0, 1]: 2**symbol_bits equal bins."""
    levels = 1 << symbol_bits
    q = (u * levels).astype(np.int64)
    return np.minimum(q, levels - 1, out=q)


# ------------------------------------------------------------------------
# Report composition
# ------------------------------------------------------------------------


@dataclass(frozen=True)
class FidelityConfig:
    significance: float = 0.01
    max_lag: int = 8
    symbol_bits: int = 8
    seed: int = 0
    stream_id: int = 0
    nonideality: NonidealitySpec = field(default_factory=NonidealitySpec)

    def __post_init__(self) -> None:
        require_finite("significance", self.significance, 0.0, 1.0, "()")
        require_int("max_lag", self.max_lag, 1)
        require_int("symbol_bits", self.symbol_bits, 1)
        require_int("seed", self.seed)
        require_int("stream_id", self.stream_id)


@dataclass(frozen=True)
class FidelityReport:
    n: int
    mean: float
    variance: float
    skewness: Optional[float]
    excess_kurtosis: Optional[float]
    ks_statistic: Optional[float]
    ks_critical: Optional[float]
    ks_pass: Optional[bool]
    autocorr: Optional[List[float]]
    min_entropy_per_sample: float
    tail_truncation: Optional[float]
    degenerate: bool

    def to_dict(self) -> Dict:
        return asdict(self)


Subject = Union[SourceSpec, SourceHandle, ShapingPipelineSpec]


def _pipeline_samples(spec: ShapingPipelineSpec, n: int, config: FidelityConfig) -> np.ndarray:
    source = create_source(
        SourceSpec.pseudo_uniform(seed=config.seed, stream_id=config.stream_id)
    )
    u = source.draw(uniforms_needed(spec, n))
    return _apply_nonidealities_block(run_pipeline(spec, u)[:n], NonidealityState(), config.nonideality)


def fidelity_report(
    subject: Subject,
    n: int,
    target: Target,
    config: FidelityConfig = FidelityConfig(),
) -> FidelityReport:
    """Run the full battery over ``n`` samples of a source or pipeline.

    ``target`` is a DistributionSpec, or the string "uniform" for raw
    uniform streams.  Deterministic given the config seed.
    """
    if not (N_MIN <= n <= N_MAX):
        raise DomainError(f"n must lie in [{N_MIN}, {N_MAX}], got {n}")
    # loaded before any sample array exists, so its memory does not add to their peak
    import scipy.special  # noqa: F401

    tail = None
    if isinstance(subject, ShapingPipelineSpec):
        samples = _pipeline_samples(subject, n, config)
        if subject.method == METHOD_INVERSE_CDF:
            tail = InverseCdfTable.for_family(subject.family, subject.n_entries).tail_truncation
    elif isinstance(subject, SourceSpec):
        samples = create_source(subject).draw(n)
    elif isinstance(subject, SourceHandle):
        samples = subject.draw(n)
    else:
        raise DomainError(f"cannot build samples from {type(subject).__name__}")

    if isinstance(target, str) and target != UNIFORM_TARGET:
        raise DomainError(f"unknown target {target!r}")

    mean, variance, skew, kurt = moments(samples)
    degenerate = variance == 0.0

    # One CDF pass over the sorted sample serves KS and the symbols;
    # min-entropy counts symbols, so their order does not matter.
    cdf = target_cdf(target)
    ks_d = ks_crit = ks_ok = None
    if cdf is None:
        symbols = symbolize(samples, target, config.symbol_bits)
    else:
        f = _sorted_cdf(samples, cdf)
        if not degenerate:
            ks_d, ks_ok = _ks_sorted_cdf(f, config.significance)
            ks_crit = ks_critical_value(n, config.significance)
        symbols = _quantize(f, config.symbol_bits)
        del f  # one array per sample fewer for the estimators below

    rho = autocorrelation(samples, config.max_lag)
    h_min = min_entropy(symbols)

    return FidelityReport(
        n=n,
        mean=mean,
        variance=variance,
        skewness=skew,
        excess_kurtosis=kurt,
        ks_statistic=ks_d,
        ks_critical=ks_crit,
        ks_pass=ks_ok,
        autocorr=None if rho is None else [float(v) for v in rho],
        min_entropy_per_sample=h_min,
        tail_truncation=tail,
        degenerate=degenerate,
    )
