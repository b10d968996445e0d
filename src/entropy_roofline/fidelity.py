"""Statistical test battery for sample streams.

Quantifies how faithful a stream is to its target distribution: sample
moments, one-sample Kolmogorov-Smirnov distance, autocorrelation profile,
and a most-common-value min-entropy estimate, composed into a
FidelityReport.  All estimators are deterministic functions of the sample
vector; degenerate inputs produce flagged None fields, never silent NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .errors import DomainError
from .probabilistic_memory import (
    FAMILY_BERNOULLI,
    FAMILY_GAUSSIAN,
    FAMILY_POINT_MASS,
    DistributionSpec,
)

_SQRT2 = math.sqrt(2.0)

# 99% two-sided normal quantile used for the min-entropy confidence bound
_MCV_Z = 2.576

# A target is a DistributionSpec, or this string for raw uniform streams.
UNIFORM_TARGET = "uniform"
Target = Union[DistributionSpec, str]


def normal_cdf(x, mu: float = 0.0, sigma: float = 1.0):
    """Gaussian CDF via erf (independent of every sampler in the package)."""
    if not (sigma > 0.0):
        raise DomainError(f"sigma must be > 0, got {sigma!r}")
    xa = np.asarray(x, dtype=np.float64)
    out = 0.5 * (1.0 + np.vectorize(math.erf)((xa - mu) / (sigma * _SQRT2)))
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
    kurtosis are standardized central moments.  Zero-variance input flags
    skew/kurtosis as None; kurtosis also needs n >= 4.
    """
    x = np.asarray(samples, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise DomainError(f"moments need n >= 2, got {n}")
    mean = float(x.mean())
    d = x - mean
    variance = float(np.dot(d, d) / (n - 1))
    if variance == 0.0:
        return mean, 0.0, None, None
    m2 = np.dot(d, d) / n
    skew = float(np.mean(d**3) / m2**1.5)
    kurt = float(np.mean(d**4) / m2**2 - 3.0) if n >= 4 else None
    return mean, variance, skew, kurt


def ks_critical_value(n: int, significance: float) -> float:
    """Asymptotic one-sample KS critical D: sqrt(-ln(a/2) / (2n))."""
    if not (0.0 < significance < 1.0):
        raise DomainError(f"significance must lie in (0, 1), got {significance!r}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return math.sqrt(-math.log(significance / 2.0) / (2.0 * n))


def ks_test(samples: np.ndarray, cdf: Callable, significance: float = 0.01):
    """(D, pass) for one-sample KS against a continuous target CDF.

    D = sup_i max(|i/n - F(x_(i))|, |F(x_(i)) - (i-1)/n|) over the sorted
    sample; passes when D is below the asymptotic critical value.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.shape[0]
    if n < 10:
        raise DomainError(f"ks_test needs n >= 10, got {n}")
    crit = ks_critical_value(n, significance)
    f = np.asarray(cdf(x), dtype=np.float64)
    if np.any(np.diff(f) < 0.0):
        raise DomainError("target CDF is not monotone on the sample range")
    i = np.arange(1, n + 1, dtype=np.float64)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1.0) / n)
    d = float(max(d_plus, d_minus))
    return d, d < crit


def autocorrelation(samples: np.ndarray, max_lag: int) -> Optional[np.ndarray]:
    """rho(1..max_lag); None (flagged undefined) on a zero-variance stream.

    rho(l) = sum (x_t - m)(x_{t+l} - m) / sum (x_t - m)^2.
    """
    x = np.asarray(samples, dtype=np.float64)
    n = x.shape[0]
    if max_lag < 1:
        raise DomainError(f"max_lag must be >= 1, got {max_lag!r}")
    if n <= 4 * max_lag:
        raise DomainError(f"need n > 4*max_lag, got n={n} max_lag={max_lag}")
    d = x - x.mean()
    denom = float(np.dot(d, d))
    if denom == 0.0:
        return None
    return np.array([float(np.dot(d[:-l], d[l:]) / denom) for l in range(1, max_lag + 1)])


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
    levels = 1 << symbol_bits
    if target != UNIFORM_TARGET:
        if target.family == FAMILY_BERNOULLI:
            return x.astype(np.int64)
        if target.family == FAMILY_POINT_MASS:
            return np.zeros(x.shape[0], dtype=np.int64)
    u = target_cdf(target)(x)
    return np.minimum((u * levels).astype(np.int64), levels - 1)


# ------------------------------------------------------------------------
# Report composition
# ------------------------------------------------------------------------


@dataclass(frozen=True)
class FidelityConfig:
    significance: float = 0.01
    max_lag: int = 8
    symbol_bits: int = 8
    n_min: int = 1000
    n_max: int = 100_000_000
    seed: int = 0
    stream_id: int = 0
    nonideality: NonidealitySpec = field(default_factory=NonidealitySpec)


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
        return {
            "n": self.n,
            "mean": self.mean,
            "variance": self.variance,
            "skewness": self.skewness,
            "excess_kurtosis": self.excess_kurtosis,
            "ks_statistic": self.ks_statistic,
            "ks_critical": self.ks_critical,
            "ks_pass": self.ks_pass,
            "autocorr": self.autocorr,
            "min_entropy_per_sample": self.min_entropy_per_sample,
            "tail_truncation": self.tail_truncation,
            "degenerate": self.degenerate,
        }


Subject = Union[SourceSpec, SourceHandle, ShapingPipelineSpec]


def _pipeline_samples(spec: ShapingPipelineSpec, n: int, config: FidelityConfig) -> np.ndarray:
    source = create_source(
        SourceSpec.pseudo_uniform(seed=config.seed, stream_id=config.stream_id)
    )
    u = source.draw(uniforms_needed(spec, n))
    shaped = run_pipeline(spec, u)[:n]
    if config.nonideality.is_identity:
        return shaped
    return _apply_nonidealities_block(shaped, NonidealityState(), config.nonideality)


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
    if not (config.n_min <= n <= config.n_max):
        raise DomainError(
            f"n must lie in [{config.n_min}, {config.n_max}], got {n}"
        )

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

    cdf = target_cdf(target)
    ks_d = ks_crit = ks_ok = None
    if cdf is not None and not degenerate:
        ks_d, ks_ok = ks_test(samples, cdf, config.significance)
        ks_crit = ks_critical_value(n, config.significance)

    rho = autocorrelation(samples, config.max_lag)

    h_min = min_entropy(symbolize(samples, target, config.symbol_bits))

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
