"""Statistical test battery for sample streams.

Quantifies how faithful a stream is to its target distribution: sample
moments, one-sample Kolmogorov-Smirnov distance, autocorrelation profile,
and a most-common-value min-entropy estimate, composed into a
FidelityReport.  All estimators are deterministic functions of the sample
vector; degenerate inputs produce flagged None fields, never silent NaNs.

A report holds one float64 array per sample and nothing else: it draws
and shapes into that array a block of at most ``_BLOCK`` words at a time
(the streams are counter-based, so blocks equal one long draw), takes moments
and autocorrelation over it, sorts it in place and overwrites it with the
target CDF, block by block, for the KS statistic and the symbol counts.
Every sum is numpy's own pairwise tree (``np.add.reduce``), rebuilt one
block at a time by ``_tree_sum``, so a report stays equal, field for
field, to composing the public estimators on the whole array.
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

# Symbols a report counts in a table of 2**symbol_bits int64 entries
# (512 KiB at the largest)
_MAX_SYMBOL_BITS = 16

# Samples per block of every sum, and words per block of every draw and
# shaping step (one sample at least): the scratch a report needs besides its
# sample array
_BLOCK = 2**16

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


def _tree_sum(leaf: Callable, lo: int, hi: int):
    """``np.add.reduce`` of a length ``hi - lo`` array whose pieces
    ``leaf(lo', hi')`` sums, at most ``_BLOCK`` elements each.

    numpy sums a contiguous float64 array by a fixed pairwise tree: above
    128 elements it splits at ``n2 = n // 2`` rounded down to a multiple of
    8 and adds the two halves' sums.  This rebuilds the splits above
    ``_BLOCK``, and each leaf's own ``np.add.reduce`` does the rest, so the
    sum is numpy's to the last bit.  A leaf keeps numpy's identity, +0.0,
    as the whole-array reduce adds it once: a zero sum is +0.0 either way.
    ``leaf`` may return several sums at once (an array); they add
    elementwise.  A module-level recursion, so no closure refers to itself
    and keeps the caller's arrays alive until ``gc`` runs.
    """
    n = hi - lo
    if n <= _BLOCK:
        return leaf(lo, hi)
    n2 = n // 2
    n2 -= n2 % 8
    return _tree_sum(leaf, lo, lo + n2) + _tree_sum(leaf, lo + n2, hi)


def moments(samples: np.ndarray):
    """(mean, variance, skewness, excess_kurtosis).

    Mean and variance are the standard unbiased estimators; skewness and
    kurtosis are standardized central moments.  The deviations, their
    powers and the three sums of them are taken a block at a time in one
    pass (``_tree_sum``), each sum numpy's pairwise ``np.add.reduce`` of
    the whole column, never a BLAS dot, so the result does not depend on
    the BLAS thread count.  Zero-variance input flags skew/kurtosis as
    None; kurtosis also needs n >= 4.
    """
    x = np.asarray(samples, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise DomainError(f"moments need n >= 2, got {n}")
    mean = float(x.mean())
    d = np.empty(min(n, _BLOCK))
    d2 = np.empty_like(d)

    def central(lo, hi):
        dk = np.subtract(x[lo:hi], mean, out=d[:hi - lo])
        d2k = np.multiply(dk, dk, out=d2[:hi - lo])
        ss = np.add.reduce(d2k)
        dk *= d2k
        d2k *= d2k
        return np.array([ss, np.add.reduce(dk), np.add.reduce(d2k)])

    ss, s3, s4 = _tree_sum(central, 0, n)
    variance = float(ss / (n - 1))
    if variance == 0.0:
        return mean, 0.0, None, None
    m2 = ss / n
    skew = float((s3 / n) / m2**1.5)
    kurt = float((s4 / n) / m2**2 - 3.0) if n >= 4 else None
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
    DomainError.  Works on a sorted copy of ``samples``.
    """
    f = np.sort(np.asarray(samples, dtype=np.float64))
    _cdf_in_place(f, cdf)
    return _ks_sorted_cdf(f, significance)


def _cdf_in_place(x: np.ndarray, cdf: Callable) -> None:
    """Overwrite ``x`` with ``cdf(x)``, a block at a time."""
    for lo in range(0, x.shape[0], _BLOCK):
        x[lo:lo + _BLOCK] = cdf(x[lo:lo + _BLOCK])


def _ks_sorted_cdf(f: np.ndarray, significance: float):
    """``ks_test`` given F(x_(i)), the target CDF at the sorted sample.
    Each block gives its two maxima; a max is exact in any order."""
    n = f.shape[0]
    if n < 10:
        raise DomainError(f"ks_test needs n >= 10, got {n}")
    crit = ks_critical_value(n, significance)
    d_plus, d_minus = [], []
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        # A step down of a few ulps is rounding, not a decreasing CDF: ndtr
        # drops by up to 12 ulps between nearby inputs around x = -1.4.
        # The pairs include the one across the block's start.
        g = f[max(lo - 1, 0):hi]
        down = np.flatnonzero(g[1:] < g[:-1])
        if down.size and np.any(
            g[down + 1] < g[down] - _CDF_ROUNDING_ULPS * np.abs(np.spacing(g[down]))
        ):
            raise DomainError("target CDF is not monotone on the sample range")
        # i/n - F, then F - (i-1)/n, in one scratch array at a time
        t = np.arange(lo + 1, hi + 1, dtype=np.float64)
        t /= n
        t -= f[lo:hi]
        d_plus.append(t.max())
        t = np.arange(lo, hi, dtype=np.float64)
        t /= n
        np.subtract(f[lo:hi], t, out=t)
        d_minus.append(t.max())
    d = float(max(np.max(d_plus), np.max(d_minus)))
    return d, d < crit


def autocorrelation(samples: np.ndarray, max_lag: int) -> Optional[np.ndarray]:
    """rho(1..max_lag); None (flagged undefined) on a zero-variance stream.

    rho(l) = sum (x_t - m)(x_{t+l} - m) / sum (x_t - m)^2.  Each sum is
    numpy's pairwise ``np.add.reduce`` of the whole product column, taken a
    block at a time (``_tree_sum``) from deviations made per block in one
    scratch buffer.
    """
    x = np.asarray(samples, dtype=np.float64)
    n = x.shape[0]
    require_int("max_lag", max_lag, 1)
    if n <= 4 * max_lag:
        raise DomainError(f"need n > 4*max_lag, got n={n} max_lag={max_lag}")
    mean = x.mean()
    d = np.empty(min(n, _BLOCK) + max_lag)
    prod = np.empty(min(n, _BLOCK))

    def lag_sum(lag):
        def leaf(lo, hi):
            dk = np.subtract(x[lo:hi + lag], mean, out=d[:hi + lag - lo])
            return np.add.reduce(np.multiply(dk[:hi - lo], dk[lag:], out=prod[:hi - lo]))

        return _tree_sum(leaf, 0, n - lag)

    denom = float(lag_sum(0))
    if denom == 0.0:
        return None
    rho = np.empty(max_lag)
    for lag in range(1, max_lag + 1):
        rho[lag - 1] = float(lag_sum(lag) / denom)
    return rho


def _mcv_min_entropy(max_count: int, n: int) -> float:
    """-log2 of a 99% upper bound on the most common value's probability,
    from its count among ``n`` symbols."""
    p_hat = max_count / n
    p_up = min(1.0, p_hat + _MCV_Z * math.sqrt(p_hat * (1.0 - p_hat) / n))
    return 0.0 - math.log2(p_up)  # +0.0 for one symbol, where -log2 gives -0.0


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
    return _mcv_min_entropy(int(counts.max()), n)


def symbolize(samples: np.ndarray, target: Target, symbol_bits: int = 8) -> np.ndarray:
    """Map a stream to integer-valued symbols for min-entropy estimation.

    Bernoulli streams pass through as bits and point masses give one symbol;
    continuous streams go through the target's CDF (the identity on [0, 1]
    for the "uniform" target) and quantize to 2**symbol_bits bins (ideal
    streams then look uniform over symbols).
    """
    x = np.asarray(samples, dtype=np.float64)
    if target != UNIFORM_TARGET:
        if target.family == FAMILY_BERNOULLI:
            return np.trunc(x)  # float symbols: a biased sample past int64 must not collapse to INT_MIN
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
    """Battery settings.  ``seed``, ``stream_id`` and ``nonideality`` make
    a pipeline subject's stream; a source subject has its own, and a report
    rejects a value set here that differs from the source's."""

    significance: float = 0.01
    max_lag: int = 8
    symbol_bits: int = 8
    seed: int = 0
    stream_id: int = 0
    nonideality: NonidealitySpec = field(default_factory=NonidealitySpec)

    def __post_init__(self) -> None:
        require_finite("significance", self.significance, 0.0, 1.0, "()")
        require_int("max_lag", self.max_lag, 1)
        require_int("symbol_bits", self.symbol_bits, 1, _MAX_SYMBOL_BITS)
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


def _filled(n: int, draw: Callable[[int], np.ndarray], block: int = _BLOCK) -> np.ndarray:
    """One array of ``n`` samples, ``draw(k)`` giving the next ``k <= block``."""
    out = np.empty(n)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        out[lo:hi] = draw(hi - lo)
    return out


def _pipeline_samples(spec: ShapingPipelineSpec, n: int, config: FidelityConfig) -> np.ndarray:
    source = create_source(
        SourceSpec.pseudo_uniform(seed=config.seed, stream_id=config.stream_id)
    )
    state = NonidealityState()

    def draw(k):
        y = run_pipeline(spec, source.draw(uniforms_needed(spec, k)))[:k]
        return _apply_nonidealities_block(y, state, config.nonideality)

    # _BLOCK words a block: k per clt_accumulate sample, one per other sample,
    # Box–Muller pairs included, since _BLOCK is even and no pair is split
    words_per_sample = uniforms_needed(spec, _BLOCK) // _BLOCK
    return _filled(n, draw, max(1, _BLOCK // words_per_sample))


def _check_source_config(subject: Union[SourceSpec, SourceHandle], config: FidelityConfig) -> None:
    """A config field set away from its default must be the source's own."""
    default = FidelityConfig()
    for name in ("seed", "stream_id", "nonideality"):
        value = getattr(config, name)
        if value == getattr(default, name):
            continue
        own = getattr(subject if isinstance(subject, SourceSpec) else subject.spec, name)
        if value != own:
            raise DomainError(
                f"config {name} {value!r} differs from the source's {own!r};"
                f" a source subject draws its own stream", name)


def fidelity_report(
    subject: Subject,
    n: int,
    target: Target,
    config: FidelityConfig = FidelityConfig(),
) -> FidelityReport:
    """Run the full battery over ``n`` samples of a source or pipeline.

    ``target`` is a DistributionSpec, or the string "uniform" for raw
    uniform streams.  Deterministic given the config seed.  Samples whose
    moments pass the float range raise DomainError naming ``nonideality``.
    """
    if not (N_MIN <= n <= N_MAX):
        raise DomainError(f"n must lie in [{N_MIN}, {N_MAX}], got {n}")
    # loaded before any sample array exists, so its memory does not add to their peak
    import scipy.special  # noqa: F401

    tail = None
    # A non-ideality can carry samples past the float range; their moments
    # then are inf or NaN, which the check below turns into an error, so the
    # overflow needs no warning on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(subject, ShapingPipelineSpec):
            samples = _pipeline_samples(subject, n, config)
            if subject.method == METHOD_INVERSE_CDF:
                tail = InverseCdfTable.for_family(subject.family, subject.n_entries).tail_truncation
        elif isinstance(subject, (SourceSpec, SourceHandle)):
            _check_source_config(subject, config)
            handle = create_source(subject) if isinstance(subject, SourceSpec) else subject
            samples = _filled(n, handle.draw)
        else:
            raise DomainError(f"cannot build samples from {type(subject).__name__}")

        if isinstance(target, str) and target != UNIFORM_TARGET:
            raise DomainError(f"unknown target {target!r}")

        mean, variance, skew, kurt = moments(samples)
    try:  # finite moments mean finite samples, and every later sum is bounded by them
        for name, value in zip(("mean", "variance", "skewness", "excess_kurtosis"), (mean, variance, skew, kurt)):
            if value is not None:
                require_finite(name, value)
    except DomainError as exc:
        raise DomainError(f"{exc}: the nonideality, or the source's scale, carries the samples past the"
                          " float range", "nonideality") from None
    degenerate = variance == 0.0
    rho = autocorrelation(samples, config.max_lag)

    # Nothing below needs the sample's order: it becomes, in place, the
    # target CDF at the sorted sample, which serves KS and the symbol counts.
    cdf = target_cdf(target)
    ks_d = ks_crit = ks_ok = None
    if cdf is None:
        # each block's symbols counted, then the counts merged: a symbol may
        # be negative or large, so there is no table to count them in
        symbols, counts = zip(*(np.unique(symbolize(samples[lo:lo + _BLOCK], target, config.symbol_bits),
                                          return_counts=True) for lo in range(0, n, _BLOCK)))
        _, which = np.unique(np.concatenate(symbols), return_inverse=True)
        h_min = _mcv_min_entropy(int(np.bincount(which, np.concatenate(counts)).max()), n)
    else:
        samples.sort()
        _cdf_in_place(samples, cdf)
        if not degenerate:
            ks_d, ks_ok = _ks_sorted_cdf(samples, config.significance)
            ks_crit = ks_critical_value(n, config.significance)
        counts = np.zeros(1 << config.symbol_bits, dtype=np.int64)
        for lo in range(0, n, _BLOCK):
            counts += np.bincount(_quantize(samples[lo:lo + _BLOCK], config.symbol_bits),
                                  minlength=counts.shape[0])
        h_min = _mcv_min_entropy(int(counts.max()), n)

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
