"""Tests for shaping transforms: Box-Muller, tables, CLT, thresholding."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entropy_roofline.distribution_shaping import (
    InverseCdfTable,
    ShapingPipelineSpec,
    bernoulli_from_uniform,
    box_muller,
    box_muller_block,
    clt_accumulate,
    run_pipeline,
    uniforms_needed,
)
from entropy_roofline.entropy_sources import SourceSpec, create_source
from entropy_roofline.errors import DomainError
from entropy_roofline.fidelity import ks_test, moments, normal_cdf

_ND = NormalDist()


def _uniforms(n, seed=0, stream_id=0):
    return create_source(SourceSpec.pseudo_uniform(seed=seed, stream_id=stream_id)).draw(n)


class TestBoxMuller:
    def test_u1_one_gives_zero_pair(self):
        z1, z2 = box_muller(1.0, 0.73)
        assert z1 == 0.0 and z2 == 0.0

    def test_quarter_turn(self):
        z1, z2 = box_muller(0.5, 0.25)
        assert z1 == pytest.approx(0.0, abs=1e-12)
        assert z2 == pytest.approx(1.1774100225154747, rel=1e-12)

    def test_radius_identity(self):
        rng = np.random.default_rng(1)
        u1 = rng.uniform(1e-12, 1.0, size=1000)
        u2 = rng.uniform(0.0, 1.0, size=1000)
        z1, z2 = box_muller(u1, u2)
        np.testing.assert_allclose(z1**2 + z2**2, -2.0 * np.log(u1), rtol=1e-9, atol=1e-9)

    def test_u1_zero_rejected(self):
        with pytest.raises(DomainError):
            box_muller(0.0, 0.5)
        with pytest.raises(DomainError):
            box_muller(np.array([0.5, 0.0]), np.array([0.1, 0.2]))

    def test_marginals_pass_ks(self):
        u = _uniforms(200_000, seed=3)
        z1, z2 = box_muller(1.0 - u[0::2], u[1::2])
        for z in (z1, z2):
            _, ok = ks_test(z, normal_cdf, 0.01)
            assert ok

    @given(st.integers(0, 2**32), st.lists(st.tuples(st.floats(0.0, 1.0, exclude_min=True),
                                                     st.floats(0.0, 1.0, exclude_max=True)), max_size=20))
    def test_block_equals_scalar_bit_for_bit(self, seed, edges):
        """The array kernel and the scalar ``math`` branch are one transform,
        on a stream's uniforms (where numpy's AVX-512 log would differ on
        about 0.4%) and on edge values alike."""
        u = _uniforms(2000, seed=seed)
        pairs = list(zip((1.0 - u[0::2]).tolist(), u[1::2].tolist())) + edges
        u1, u2 = (np.array(column) for column in zip(*pairs))
        z1, z2 = box_muller_block(u1, u2)
        cosine_only, none = box_muller_block(u1, u2, sine=False)
        want = np.array([box_muller(a, b) for a, b in pairs])
        assert z1.tobytes() == cosine_only.tobytes() == want[:, 0].tobytes()
        assert z2.tobytes() == want[:, 1].tobytes() and none is None

    def test_pair_independence(self):
        u = _uniforms(200_000, seed=4)
        z1, z2 = box_muller(1.0 - u[0::2], u[1::2])
        n = z1.shape[0]
        corr = float(np.corrcoef(z1, z2)[0, 1])
        assert abs(corr) <= 4.0 / math.sqrt(n)


class TestBernoulliThreshold:
    def test_degenerate(self):
        u = _uniforms(1000, seed=5)
        assert np.all(bernoulli_from_uniform(u, 0.0) == 0)
        assert np.all(bernoulli_from_uniform(u, 1.0) == 1)

    def test_frequency(self):
        u = _uniforms(1_000_000, seed=6)
        bits = bernoulli_from_uniform(u, 0.3)
        assert bits.mean() == pytest.approx(0.3, abs=0.002)

    def test_probability_domain(self):
        with pytest.raises(DomainError):
            bernoulli_from_uniform(0.5, -0.01)
        with pytest.raises(DomainError):
            bernoulli_from_uniform(0.5, 1.01)

    def test_scalar_form(self):
        assert bernoulli_from_uniform(0.2, 0.3) == 1
        assert bernoulli_from_uniform(0.4, 0.3) == 0


class TestCltAccumulate:
    def test_k1_range_and_variance(self):
        u = _uniforms(1_000_000, seed=7)
        x = clt_accumulate(u, 1)
        assert np.all(np.abs(x) <= math.sqrt(3.0) + 1e-12)
        assert x.var() == pytest.approx(1.0, abs=0.01)

    def test_k12_sum_form_and_variance(self):
        u = _uniforms(1_200_000, seed=8)
        x = clt_accumulate(u, 12)
        # k=12 normalization reduces to the classic sum-of-12 minus 6
        direct = u.reshape(-1, 12).sum(axis=1) - 6.0
        np.testing.assert_allclose(x, direct, rtol=0, atol=1e-12)
        assert x.var() == pytest.approx(1.0, abs=0.01)

    def test_kurtosis_flattens_with_k(self):
        # uniform excess kurtosis is -1.2; sums of k have -1.2/k
        kurts = {}
        for k in (1, 4, 12):
            u = _uniforms(600_000 * k, seed=40 + k)
            _, _, _, kurt = moments(clt_accumulate(u, k))
            kurts[k] = kurt
            assert kurt == pytest.approx(-1.2 / k, abs=0.03)
        assert abs(kurts[12]) < abs(kurts[4]) < abs(kurts[1])

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            clt_accumulate(np.ones(10), 0)
        with pytest.raises(DomainError):
            clt_accumulate(np.ones(10), 3)  # not a multiple


class TestInverseCdfTable:
    def test_median_exact_for_odd_entries(self):
        table = InverseCdfTable.for_family("normal", 257)
        assert table.sample(0.5) == 0.0

    def test_phi_of_one_quantile(self):
        # Phi(1) = 0.841345 via erf; a dense table must invert it to ~1.0
        table = InverseCdfTable.for_family("normal", 4097)
        assert table.sample(0.841345) == pytest.approx(1.0, abs=0.01)

    def test_uniform_family_is_identity_in_the_interior(self):
        table = InverseCdfTable.for_family("uniform", 257)
        u = np.linspace(0.05, 0.95, 37)
        np.testing.assert_allclose(table.sample(u), u, rtol=0, atol=1e-15)

    def test_tails_clamp_to_end_knots(self):
        table = InverseCdfTable.for_family("normal", 65)
        lo = table.values[0]
        hi = table.values[-1]
        assert table.sample(0.0) == lo
        assert table.sample(1.0 - 1e-12) == hi
        assert table.tail_truncation == pytest.approx(0.5 / 64)

    def test_convergence_is_monotone_in_table_size(self):
        us = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        errors = []
        for n in (65, 129, 257, 513, 1025, 2049, 4097):
            table = InverseCdfTable.for_family("normal", n)
            errors.append(
                max(abs(table.sample(u) - _ND.inv_cdf(u)) for u in us)
            )
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_non_monotone_quantile_rejected(self):
        with pytest.raises(DomainError):
            InverseCdfTable(lambda p: math.sin(20 * p), 33)

    def test_sample_domain(self):
        table = InverseCdfTable.for_family("uniform", 17)
        with pytest.raises(DomainError):
            table.sample(1.0)
        with pytest.raises(DomainError):
            table.sample(-0.1)

    def test_needs_two_entries(self):
        with pytest.raises(DomainError):
            InverseCdfTable(lambda p: p, 1)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            InverseCdfTable.for_family("cauchy", 65)


class TestPipelines:
    def test_spec_validation(self):
        with pytest.raises(DomainError):
            ShapingPipelineSpec(method="ziggurat")
        with pytest.raises(DomainError):
            ShapingPipelineSpec(method="clt_accumulate", k=0)
        with pytest.raises(DomainError):
            ShapingPipelineSpec(method="bernoulli_threshold", p=2.0)
        with pytest.raises(DomainError):
            ShapingPipelineSpec(method="box_muller", cost=-1)
        # per-sample op counts are integers: batch charges multiply them
        with pytest.raises(DomainError):
            ShapingPipelineSpec(method="box_muller", cost=2.5)
        with pytest.raises(DomainError):
            ShapingPipelineSpec(method="clt_accumulate", k=2.5)
        # a bool is no count, though True would pass as 1
        with pytest.raises(DomainError, match="k must be an integer"):
            ShapingPipelineSpec(method="clt_accumulate", k=True)
        with pytest.raises(DomainError, match="cost must be an integer"):
            ShapingPipelineSpec(method="box_muller", cost=True)

    def test_default_costs(self):
        assert ShapingPipelineSpec(method="box_muller").ops_per_sample == 8
        assert ShapingPipelineSpec(method="inverse_cdf_table").ops_per_sample == 2
        assert ShapingPipelineSpec(method="clt_accumulate", k=5).ops_per_sample == 5
        assert ShapingPipelineSpec(method="bernoulli_threshold").ops_per_sample == 1
        assert ShapingPipelineSpec(method="box_muller", cost=3).ops_per_sample == 3

    def test_uniform_budget(self):
        assert uniforms_needed(ShapingPipelineSpec(method="box_muller"), 5) == 6
        assert uniforms_needed(ShapingPipelineSpec(method="clt_accumulate", k=4), 10) == 40
        assert uniforms_needed(ShapingPipelineSpec(method="bernoulli_threshold"), 10) == 10

    def test_box_muller_pipeline_interleaves_pairs(self):
        spec = ShapingPipelineSpec(method="box_muller")
        u = _uniforms(8, seed=9)
        out = run_pipeline(spec, u)
        z1, z2 = box_muller(1.0 - u[0::2], u[1::2])
        assert np.array_equal(out[0::2], z1)
        assert np.array_equal(out[1::2], z2)

    def test_inverse_cdf_pipeline_matches_table(self):
        spec = ShapingPipelineSpec(method="inverse_cdf_table", n_entries=513)
        u = _uniforms(1000, seed=10)
        table = InverseCdfTable.for_family("normal", 513)
        np.testing.assert_array_equal(run_pipeline(spec, u), table.sample(u))

    def test_bernoulli_pipeline_bits(self):
        spec = ShapingPipelineSpec(method="bernoulli_threshold", p=0.25)
        out = run_pipeline(spec, _uniforms(10_000, seed=11))
        assert set(np.unique(out)) <= {0.0, 1.0}
        assert out.mean() == pytest.approx(0.25, abs=0.02)

    def test_odd_box_muller_block_rejected(self):
        with pytest.raises(DomainError):
            run_pipeline(ShapingPipelineSpec(method="box_muller"), np.ones(3) * 0.5)
