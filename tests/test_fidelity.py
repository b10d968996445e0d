"""Tests for the statistical fidelity battery."""

import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import entropy_roofline
from entropy_roofline.distribution_shaping import (
    SHAPING_METHODS,
    ShapingPipelineSpec,
    run_pipeline,
    uniforms_needed,
)
from entropy_roofline.entropy_sources import (
    NonidealitySpec,
    NonidealityState,
    SourceHandle,
    SourceSpec,
    _apply_nonidealities_block,
    create_source,
)
from entropy_roofline.errors import DomainError
from entropy_roofline.fidelity import (
    _BLOCK,
    N_MAX,
    N_MIN,
    FidelityConfig,
    _pipeline_samples,
    _tree_sum,
    autocorrelation,
    fidelity_report,
    ks_critical_value,
    ks_test,
    min_entropy,
    moments,
    normal_cdf,
    symbolize,
    target_cdf,
    uniform_cdf,
)
from entropy_roofline.probabilistic_memory import DistributionSpec


def normals(n, seed=0):
    return create_source(SourceSpec.thermal_gaussian(sigma=1.0, seed=seed)).draw(n)


class _FixedSamples(SourceHandle):
    """A source handle that draws a given sample, in order."""

    def __init__(self, x):
        self._x = x

    def draw(self, n):
        head, self._x = self._x[:n], self._x[n:]
        return head


# Lengths a tree sum meets: short leaves, numpy's 8- and 128-element
# steps, and a few blocks with the block edges either side
_LENGTHS = st.one_of(
    st.integers(1, 8),
    st.integers(1, 128),
    st.builds(lambda k, e: max(1, k * _BLOCK + e), st.integers(1, 3), st.integers(-1, 1)),
    st.integers(1, 3 * _BLOCK + 7),
)


class TestTreeSum:
    """``_tree_sum`` over leaves of a column is ``np.add.reduce`` of it."""

    @staticmethod
    def tree(x):
        return _tree_sum(lambda lo, hi: np.add.reduce(x[lo:hi]), 0, x.shape[0])

    @given(n=_LENGTHS, seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["normal", "wide", "cancel", "zeros", "negative-zeros"]))
    def test_equals_add_reduce(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "normal":
            x = rng.standard_normal(n)
        elif kind == "wide":  # magnitudes over 40 decades, so the order of adds shows
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        elif kind == "cancel":
            x = np.repeat(rng.standard_normal((n + 1) // 2), 2)[:n]
            x[1::2] *= -1.0
        elif kind == "zeros":
            x = rng.choice([0.0, -0.0], n)
        else:  # numpy's reduce adds its +0.0 identity: the sum is +0.0
            x = np.full(n, -0.0)
        assert self.tree(x).tobytes() == np.add.reduce(x).tobytes()


def _whole_array_moments(x):
    """Reference: ``moments`` as whole-array numpy reductions."""
    n = x.shape[0]
    mean = float(x.mean())
    d = x - mean
    d2 = d * d
    ss = np.add.reduce(d2)
    m2 = ss / n
    return mean, float(ss / (n - 1)), float((d * d2).mean() / m2**1.5), float((d2 * d2).mean() / m2**2 - 3.0)


def _whole_array_autocorrelation(x, max_lag):
    """Reference: ``autocorrelation`` as whole-array numpy reductions."""
    d = x - x.mean()
    denom = float(np.add.reduce(d * d))
    return [float(np.add.reduce(d[:-lag] * d[lag:]) / denom) for lag in range(1, max_lag + 1)]


@pytest.mark.parametrize("n", [1_000, _BLOCK + 1, 3 * _BLOCK + 5])
@pytest.mark.parametrize("shape", ["normal", "lognormal", "offset"])
def test_block_sums_equal_whole_array_sums(n, shape):
    """Taken a block at a time, every sum is the whole-array reduction's."""
    x = normals(n, seed=n)
    if shape == "lognormal":
        x = np.exp(2.0 * x)
    elif shape == "offset":
        x = 1e6 + x
    assert moments(x) == _whole_array_moments(x)
    assert autocorrelation(x, 8).tolist() == _whole_array_autocorrelation(x, 8)


class TestMoments:
    def test_constant_stream_flagged(self):
        mean, var, skew, kurt = moments(np.full(100, 2.5))
        assert (mean, var) == (2.5, 0.0)
        assert skew is None and kurt is None

    def test_two_point_unbiased_variance(self):
        mean, var, _, _ = moments(np.array([-1.0, 1.0]))
        assert mean == 0.0
        assert var == 2.0  # sum of squares over n-1 = 2/1

    def test_ideal_normal_bounds(self):
        x = normals(1_000_000, seed=1)
        mean, var, skew, kurt = moments(x)
        assert abs(mean) <= 0.004          # 4 / sqrt(n)
        assert abs(var - 1.0) <= 0.006     # 4 * sqrt(2/n)
        assert abs(skew) <= 0.01
        assert abs(kurt) <= 0.02

    def test_insufficient_n(self):
        with pytest.raises(DomainError):
            moments(np.array([1.0]))

    def test_kurtosis_needs_four(self):
        mean, var, skew, kurt = moments(np.array([0.0, 1.0, 2.0]))
        assert kurt is None and skew is not None

    @pytest.mark.parametrize("shape", ["normal", "squared", "exponential"])
    def test_higher_moments_match_exact_sums(self, shape):
        x = normals(100_000, seed=3)
        if shape == "squared":
            x = x * x  # chi-square(1): skewness ~2.8, excess kurtosis ~12
        elif shape == "exponential":
            x = np.exp(0.5 * x)  # lognormal, heavier right tail
        _, _, skew, kurt = moments(x)
        n = x.shape[0]
        mean = math.fsum(x) / n
        d = [v - mean for v in x.tolist()]
        m2 = math.fsum(v * v for v in d) / n
        m3 = math.fsum(v * v * v for v in d) / n
        m4 = math.fsum((v * v) * (v * v) for v in d) / n
        assert skew == pytest.approx(m3 / m2**1.5, abs=1e-12)
        assert kurt == pytest.approx(m4 / m2**2 - 3.0, abs=1e-12)


class TestKsTest:
    def test_critical_value_formula(self):
        assert ks_critical_value(100_000, 0.01) == pytest.approx(
            0.005146997846583986, rel=1e-12
        )

    def test_quantile_grid_passes(self):
        # points at exact plug-in quantiles i/(n+1) have D <= 1/(n+1) + gap
        from statistics import NormalDist
        n = 1000
        nd = NormalDist()
        x = np.array([nd.inv_cdf(i / (n + 1)) for i in range(1, n + 1)])
        d, ok = ks_test(x, normal_cdf, 0.01)
        assert d <= 1.0 / (n + 1) + 0.001
        assert ok

    def test_uniform_against_normal_fails(self):
        u = create_source(SourceSpec.pseudo_uniform(seed=2)).draw(10_000)
        d, ok = ks_test(u, normal_cdf, 0.01)
        assert not ok
        assert d > 0.3  # CDF gap at 0 alone is ~0.5

    def test_normal_stream_passes(self):
        d, ok = ks_test(normals(100_000, seed=3), normal_cdf, 0.01)
        assert ok

    def test_significance_domain(self):
        x = normals(100, seed=4)
        with pytest.raises(DomainError):
            ks_test(x, normal_cdf, 0.0)
        with pytest.raises(DomainError):
            ks_test(x, normal_cdf, 1.0)

    def test_decreasing_cdf_rejected(self):
        x = normals(1_000, seed=4)
        with pytest.raises(DomainError, match="not monotone"):
            ks_test(x, lambda v: 1.0 - normal_cdf(v), 0.01)

    def test_step_down_at_a_block_edge_rejected(self):
        # monotone within each block of the CDF pass, down across the edge
        x = np.sort(normals(2 * _BLOCK, seed=4))
        edge = x[_BLOCK]
        with pytest.raises(DomainError, match="not monotone"):
            ks_test(x, lambda v: normal_cdf(v) - 0.1 * (v >= edge), 0.01)

    def test_rounding_step_down_accepted(self):
        # ndtr is not monotone in the last ulps: find two adjacent doubles
        # where it steps down, and hold both in an otherwise normal sample
        grid = np.linspace(-1.5, -1.3, 100_000)
        up = np.nextafter(grid, np.inf)
        i = np.flatnonzero(normal_cdf(up) < normal_cdf(grid))[0]
        x = np.concatenate([normals(1_000, seed=4), [grid[i], up[i]]])
        assert np.any(np.diff(normal_cdf(np.sort(x))) < 0.0)

        ks_d, ks_ok = ks_test(x, normal_cdf, 0.01)
        report = fidelity_report(_FixedSamples(x), x.shape[0], DistributionSpec.gaussian(0.0, 1.0))
        assert (report.ks_statistic, report.ks_pass) == (ks_d, ks_ok)

    def test_needs_ten_samples(self):
        with pytest.raises(DomainError):
            ks_test(np.zeros(5), normal_cdf)

    def test_rejection_rate_near_significance(self):
        # brute-force check of the critical-value formula: i.i.d.-from-target
        # runs at n = 1e4 should reject at roughly the 1% significance
        rejections = 0
        runs = 1000
        n = 10_000
        src = create_source(SourceSpec.thermal_gaussian(sigma=1.0, seed=5))
        for _ in range(runs):
            _, ok = ks_test(src.draw(n), normal_cdf, 0.01)
            rejections += not ok
        assert 0.002 <= rejections / runs <= 0.025


class TestAutocorrelation:
    def test_iid_small(self):
        rho = autocorrelation(normals(100_000, seed=6), 3)
        assert np.all(np.abs(rho) < 0.013)  # 4 / sqrt(n)

    def test_ar1_recovery(self):
        spec = SourceSpec.thermal_gaussian(
            sigma=1.0, seed=7, nonideality=NonidealitySpec(rho=0.5)
        )
        x = create_source(spec).draw(100_000)
        rho = autocorrelation(x, 2)
        assert rho[0] == pytest.approx(0.5, abs=0.05)
        assert rho[1] == pytest.approx(0.25, abs=0.05)

    def test_constant_stream_flagged(self):
        assert autocorrelation(np.full(1000, 3.0), 2) is None

    def test_max_lag_bounds(self):
        with pytest.raises(DomainError):
            autocorrelation(np.zeros(100), 25)
        with pytest.raises(DomainError):
            autocorrelation(np.zeros(100), 0)


class TestMinEntropy:
    def test_all_zero_stream(self):
        assert min_entropy(np.zeros(10_000, dtype=np.int64)) == 0.0

    def test_ideal_uniform_bytes(self):
        u = create_source(SourceSpec.pseudo_uniform(seed=8)).draw(1_000_000)
        symbols = (u * 256).astype(np.int64)
        assert min_entropy(symbols) >= 7.8

    def test_biased_bit_stream(self):
        n = 1_000_000
        bits = create_source(SourceSpec.stochastic_switch(p=0.75, seed=9)).draw(n)
        h = min_entropy(bits.astype(np.int64))
        p_hat = bits.mean()
        expected = -math.log2(p_hat + 2.576 * math.sqrt(p_hat * (1 - p_hat) / n))
        assert h == pytest.approx(expected, rel=1e-12)
        assert h == pytest.approx(0.41, abs=0.02)

    def test_antitone_in_pmax(self):
        # raising the most-common-symbol share never raises the estimate
        n = 10_000
        prev = math.inf
        for ones in (5000, 6000, 7500, 9000, 9900):
            symbols = np.concatenate([np.ones(ones), np.zeros(n - ones)]).astype(np.int64)
            h = min_entropy(symbols)
            assert h <= prev
            prev = h

    def test_insufficient_n(self):
        with pytest.raises(DomainError):
            min_entropy(np.zeros(999, dtype=np.int64))

    def test_one_symbol_is_positive_zero(self):
        assert math.copysign(1.0, min_entropy(np.zeros(1000, dtype=np.int64))) == 1.0


class TestSymbolize:
    def test_bernoulli_passthrough(self):
        x = np.array([0.0, 1.0, 1.0, 0.0])
        s = symbolize(x, DistributionSpec.bernoulli(0.5))
        assert np.array_equal(s, np.array([0, 1, 1, 0]))

    def test_gaussian_pit_uniformizes(self):
        x = normals(100_000, seed=10)
        s = symbolize(x, DistributionSpec.gaussian(0.0, 1.0), symbol_bits=4)
        counts = np.bincount(s, minlength=16)
        assert counts.min() > 0.8 * 100_000 / 16

    def test_uniform_target_quantizes_the_unit_interval(self):
        x = np.array([-0.5, 0.0, 0.2, 0.5, 0.999, 1.0, 3.0])
        s = symbolize(x, "uniform", symbol_bits=3)
        assert s.tolist() == [0, 0, 1, 4, 7, 7, 7]
        assert target_cdf("uniform") is uniform_cdf

    def test_point_mass_is_one_symbol(self):
        s = symbolize(np.full(5, 2.0), DistributionSpec.point_mass(2.0))
        assert s.tolist() == [0] * 5

    def test_bernoulli_symbols_past_int64_stay_distinct(self):
        # an int64 cast sends all three to INT_MIN, with a RuntimeWarning
        x = np.array([1e19, 1e19 + 4096.0, -3e19])
        s = symbolize(x, DistributionSpec.bernoulli(0.5))
        assert s.tolist() == x.tolist()
        assert symbolize(np.array([0.7, -0.7, 1.5]), DistributionSpec.bernoulli(0.5)).tolist() == [0, 0, 1]


class TestFidelityReport:
    def test_ideal_box_muller_pipeline(self):
        spec = ShapingPipelineSpec(method="box_muller")
        report = fidelity_report(
            spec, 100_000, DistributionSpec.gaussian(0.0, 1.0),
            FidelityConfig(seed=11),
        )
        assert report.ks_pass
        assert abs(report.mean) <= 0.0127
        assert abs(report.variance - 1.0) <= 0.018
        assert report.min_entropy_per_sample >= 7.5
        assert not report.degenerate
        assert report.tail_truncation is None

    def test_bias_shifts_mean_and_fails_ks(self):
        spec = ShapingPipelineSpec(method="box_muller")
        config = FidelityConfig(seed=12, nonideality=NonidealitySpec(bias=0.1))
        report = fidelity_report(spec, 100_000, DistributionSpec.gaussian(0.0, 1.0), config)
        assert report.mean == pytest.approx(0.1, abs=0.013)
        assert not report.ks_pass

    def test_correlated_stream_keeps_marginal(self):
        spec = ShapingPipelineSpec(method="box_muller")
        config = FidelityConfig(seed=13, nonideality=NonidealitySpec(rho=0.5))
        report = fidelity_report(spec, 100_000, DistributionSpec.gaussian(0.0, 1.0), config)
        assert report.autocorr[0] == pytest.approx(0.5, abs=0.05)
        assert report.ks_pass  # AR(1) preserves the stationary marginal

    def test_source_subject(self):
        spec = SourceSpec.thermal_gaussian(sigma=2.0, seed=14)
        report = fidelity_report(spec, 50_000, DistributionSpec.gaussian(0.0, 2.0))
        assert report.ks_pass

    def test_uniform_target(self):
        spec = SourceSpec.pseudo_uniform(seed=15)
        report = fidelity_report(spec, 50_000, "uniform")
        assert report.ks_pass
        assert report.mean == pytest.approx(0.5, abs=0.01)

    def test_inverse_cdf_reports_tail_truncation(self):
        spec = ShapingPipelineSpec(method="inverse_cdf_table", n_entries=257)
        report = fidelity_report(spec, 10_000, DistributionSpec.gaussian(0.0, 1.0))
        assert report.tail_truncation == pytest.approx(0.5 / 256)

    def test_deterministic_given_seed(self):
        spec = ShapingPipelineSpec(method="box_muller")
        config = FidelityConfig(seed=16)
        a = fidelity_report(spec, 10_000, DistributionSpec.gaussian(0.0, 1.0), config)
        b = fidelity_report(spec, 10_000, DistributionSpec.gaussian(0.0, 1.0), config)
        assert a == b

    def test_point_mass_subject_degenerate(self):
        spec = SourceSpec.thermal_gaussian(sigma=0.0, seed=17)
        report = fidelity_report(spec, 10_000, DistributionSpec.point_mass(0.0))
        assert report.degenerate
        assert report.ks_statistic is None
        assert report.autocorr is None
        assert math.copysign(1.0, report.min_entropy_per_sample) == 1.0  # +0.0, not -0.0
        assert json.dumps(report.to_dict()["min_entropy_per_sample"]) == "0.0"

    @pytest.mark.parametrize("n", [10, N_MIN - 1, N_MAX + 1])  # N_MAX + 1 fails before any draw
    def test_sample_count_bounds(self, n):
        spec = ShapingPipelineSpec(method="box_muller")
        with pytest.raises(DomainError, match=rf"n must lie in \[{N_MIN}, {N_MAX}\], got {n}"):
            fidelity_report(spec, n, DistributionSpec.gaussian(0.0, 1.0))

    def test_bernoulli_stream_entropy(self):
        spec = SourceSpec.stochastic_switch(p=0.5, seed=18)
        report = fidelity_report(spec, 100_000, DistributionSpec.bernoulli(0.5))
        assert report.ks_statistic is None  # discrete target: KS flagged off
        assert report.min_entropy_per_sample == pytest.approx(1.0, abs=0.02)


NONIDEAL = NonidealitySpec(rho=0.3, bias=0.1)
CONTINUOUS_METHODS = [m for m in SHAPING_METHODS if m != "bernoulli_threshold"]


class TestReportEqualsEstimators:
    """A report is the public estimators composed, to the last bit."""

    @pytest.mark.parametrize("n", [20_000, 3 * _BLOCK + 5], ids=["one-block", "four-blocks"])
    @pytest.mark.parametrize("target", [DistributionSpec.gaussian(0.0, 1.0), "uniform"],
                             ids=["gaussian", "uniform"])
    @pytest.mark.parametrize("nonideality", [NonidealitySpec(), NONIDEAL], ids=["ideal", "nonideal"])
    @pytest.mark.parametrize("subject", CONTINUOUS_METHODS + ["source"])
    def test_fields_equal_composition(self, subject, nonideality, target, n):
        config = FidelityConfig(seed=21, nonideality=nonideality)
        if subject == "source":
            spec = SourceSpec.thermal_gaussian(sigma=1.0, seed=21)
            if nonideality != spec.nonideality:  # the config's would be ignored
                with pytest.raises(DomainError, match="nonideality"):
                    fidelity_report(spec, n, target, config)
                return
            x = create_source(spec).draw(n)
        else:
            spec = ShapingPipelineSpec(method=subject)
            x = _pipeline_samples(spec, n, config)
        report = fidelity_report(spec, n, target, config)

        mean, variance, skew, kurt = moments(x)
        ks_d, ks_ok = ks_test(x, target_cdf(target), config.significance)
        rho = autocorrelation(x, config.max_lag)
        h_min = min_entropy(symbolize(x, target, config.symbol_bits))
        assert (report.mean, report.variance, report.skewness, report.excess_kurtosis) == (
            mean, variance, skew, kurt)
        assert (report.ks_statistic, report.ks_pass) == (ks_d, ks_ok)
        assert report.ks_critical == ks_critical_value(n, config.significance)
        assert report.autocorr == rho.tolist()
        assert report.min_entropy_per_sample == h_min

    @pytest.mark.parametrize("method", CONTINUOUS_METHODS + ["bernoulli_threshold"])
    def test_blocks_equal_one_draw(self, method):
        """Drawn and shaped a block at a time, a pipeline's sample is the
        one long draw shaped at once, non-idealities and all."""
        spec = ShapingPipelineSpec(method=method)
        n = 2 * _BLOCK + 3
        config = FidelityConfig(seed=5, nonideality=NonidealitySpec(rho=0.3, bias=0.1, drift=2.0))
        u = create_source(SourceSpec.pseudo_uniform(seed=5)).draw(uniforms_needed(spec, n))
        whole = _apply_nonidealities_block(run_pipeline(spec, u)[:n], NonidealityState(), config.nonideality)
        assert _pipeline_samples(spec, n, config).tobytes() == whole.tobytes()


class TestNonFiniteSamples:
    """A non-ideality that carries samples, or their moments, past the float
    range is an error naming it: no report of inf and NaN fields, and no
    RuntimeWarning on the way (the suite turns warnings into errors)."""

    @pytest.mark.parametrize("nonideality", [
        NonidealitySpec(bias=1.79e308, drift=1e308),  # samples overflow to inf
        NonidealitySpec(bias=1.79e308, drift=-1e308),  # inf, then NaN
        NonidealitySpec(bias=1e200),  # finite samples, overflowing moments
    ], ids=["inf", "nan", "moments"])
    @pytest.mark.parametrize("subject", ["source", "pipeline"])
    def test_rejected_naming_the_nonideality(self, subject, nonideality):
        if subject == "source":
            args = (SourceSpec.pseudo_uniform(nonideality=nonideality), 20_000, "uniform")
        else:
            args = (ShapingPipelineSpec("box_muller"), 20_000, DistributionSpec.gaussian(0.0, 1.0),
                    FidelityConfig(nonideality=nonideality))
        with pytest.raises(DomainError, match="carries the samples past the float range") as info:
            fidelity_report(*args)
        assert info.value.name == "nonideality"

    def test_large_finite_bias_still_reports(self):
        report = fidelity_report(SourceSpec.pseudo_uniform(nonideality=NonidealitySpec(bias=1e3, drift=1e6)),
                                 20_000, "uniform")
        assert report.mean == pytest.approx(1e3 + 1e4, rel=1e-3)
        assert report.ks_pass is False


class TestDiscreteTargetSymbols:
    """Bernoulli and point-mass targets count symbols a block at a time and
    get the min-entropy of the whole stream's symbols."""

    @pytest.mark.parametrize("nonideality", [
        NonidealitySpec(),
        NonidealitySpec(bias=-3.5, drift=4e7),  # negative and large symbols, most of them distinct
        NonidealitySpec(rho=0.3, bias=0.6),
    ], ids=["ideal", "drift", "ar1"])
    @pytest.mark.parametrize("target", [DistributionSpec.bernoulli(0.3), DistributionSpec.point_mass(0.0)],
                             ids=["bernoulli", "point_mass"])
    @pytest.mark.parametrize("n", [20_000, 3 * _BLOCK + 5], ids=["one-block", "four-blocks"])
    def test_min_entropy_equals_whole_stream(self, n, target, nonideality):
        spec = SourceSpec.stochastic_switch(p=0.3, seed=4, nonideality=nonideality)
        x = create_source(spec).draw(n)
        report = fidelity_report(spec, n, target)
        assert report.min_entropy_per_sample == min_entropy(symbolize(x, target))

    @pytest.mark.parametrize("shift", [1e15, 1e19], ids=["in-int64", "past-int64"])
    def test_symbols_past_int64_count_as_distinct(self, shift):
        """Bias and drift past the int64 range leave 20,000 distinct samples
        20,000 distinct symbols, as they do inside it."""
        spec = SourceSpec.stochastic_switch(p=0.3, nonideality=NonidealitySpec(bias=shift, drift=shift))
        report = fidelity_report(spec, 20_000, DistributionSpec.bernoulli(0.3))
        assert report.min_entropy_per_sample == 12.449391625007712


class TestSourceConfig:
    """A source subject draws its own stream; a config that says otherwise
    is an error, not ignored."""

    SPEC = SourceSpec.pseudo_uniform(seed=3, stream_id=2, nonideality=NonidealitySpec(bias=0.5))

    @pytest.mark.parametrize("field, value", [
        ("seed", 99), ("stream_id", 7), ("nonideality", NonidealitySpec(rho=0.2)),
    ])
    @pytest.mark.parametrize("handle", [False, True], ids=["spec", "handle"])
    def test_disagreeing_field_rejected(self, field, value, handle):
        subject = create_source(self.SPEC) if handle else self.SPEC
        with pytest.raises(DomainError, match=field) as info:
            fidelity_report(subject, 10_000, "uniform", FidelityConfig(**{field: value}))
        assert info.value.name == field

    @pytest.mark.parametrize("config", [
        FidelityConfig(),
        FidelityConfig(seed=3, stream_id=2, nonideality=NonidealitySpec(bias=0.5)),
        FidelityConfig(seed=3),
    ], ids=["defaults", "all-agree", "seed-agrees"])
    def test_default_or_agreeing_fields_accepted(self, config):
        report = fidelity_report(self.SPEC, 10_000, "uniform", config)
        assert report == fidelity_report(self.SPEC, 10_000, "uniform")


@pytest.mark.parametrize("subject, target", [
    (ShapingPipelineSpec("box_muller"), DistributionSpec.gaussian(0.0, 1.0)),
    (SourceSpec.pseudo_uniform(seed=1), "uniform"),
    (SourceSpec.stochastic_switch(p=0.3, seed=1), DistributionSpec.bernoulli(0.3)),
    (SourceSpec.thermal_gaussian(sigma=0.0, seed=1), DistributionSpec.point_mass(0.0)),
], ids=["box_muller", "uniform", "bernoulli", "point_mass"])
def test_report_memory_budget(subject, target):
    """The battery keeps one float64 array per sample and block-sized
    scratch: at most 12 B/sample at 1e6 samples."""
    n = 1_000_000
    fidelity_report(subject, 1_000, target)  # first-call imports and caches
    tracemalloc.start()
    try:
        fidelity_report(subject, n, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 12.0


def test_clt_scratch_is_bounded_in_words():
    """A block held _BLOCK samples, so k words each: about 96 MiB of scratch
    at k = 96 and 1e5 samples, and some 10 GiB at k = 10,000.  A block now
    holds at most _BLOCK words, and the sample is still one whole draw."""
    n, peaks = 20_000, {}
    for k in (12, 96):
        spec, config = ShapingPipelineSpec(method="clt_accumulate", k=k), FidelityConfig(seed=5)
        _pipeline_samples(spec, 1_000, config)  # first-call imports and caches
        tracemalloc.start()
        try:
            x = _pipeline_samples(spec, n, config)
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        u = create_source(SourceSpec.pseudo_uniform(seed=5)).draw(uniforms_needed(spec, n))
        assert x.tobytes() == run_pipeline(spec, u).tobytes()
    assert peaks[96] <= 2 * peaks[12]


def test_report_leaves_nothing_alive():
    """With the cycle collector off, a report frees all it allocated: no
    reference cycle (a closure that calls itself) holds the sample."""
    spec = ShapingPipelineSpec("box_muller")
    target = DistributionSpec.gaussian(0.0, 1.0)
    fidelity_report(spec, 1_000, target)  # first-call imports and caches
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fidelity_report(spec, 1_000_000, target)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert after - before <= 2**20


@pytest.mark.parametrize("target", ["normal", "uniform"])
def test_report_bytes_do_not_depend_on_blas_threads(target, tmp_path):
    """Every sum is a numpy reduction: one and two BLAS threads write the
    same bytes (a BLAS dot orders its partial sums by thread count)."""
    src = os.path.dirname(os.path.dirname(entropy_roofline.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"report-{threads}.json"
        subprocess.run([sys.executable, "-m", "entropy_roofline.cli", "fidelity", "--samples", "1000000",
                        "--seed", "3", "--target", target, "--out", str(out)], env=env, check=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
