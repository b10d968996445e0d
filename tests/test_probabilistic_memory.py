"""Tests for the unified memory primitives and backend cost models."""

import csv
import inspect
import io
import math
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entropy_roofline.distribution_shaping import ShapingPipelineSpec
from entropy_roofline.entropy_sources import EntropyStream
from entropy_roofline.errors import (
    AddressError,
    CellTypeError,
    DomainError,
    EntropyRooflineError,
    VarianceRangeError,
)
from entropy_roofline.fidelity import ks_test, normal_cdf
from entropy_roofline.probabilistic_memory import (
    BACKEND_KINDS,
    BackendConfig,
    CostReport,
    DistributionSpec,
    PMemArray,
    load_array_csv,
    save_array_csv,
)
from stream_reference import ref_normal, ref_uniform

ALL_BACKENDS = {
    "von_neumann": BackendConfig.von_neumann(),
    "coupled_pcim": BackendConfig.coupled_pcim(),
    "decoupled_near_memory": BackendConfig.decoupled_near_memory(),
    "decoupled_in_memory": BackendConfig.decoupled_in_memory(parallelism=8),
}


def fresh(backend="decoupled_in_memory", rows=4, cols=4, **kw):
    return PMemArray(rows, cols, ALL_BACKENDS[backend], **kw)


class TestDistributionSpec:
    def test_zero_sigma_gaussian_is_point_mass(self):
        spec = DistributionSpec.gaussian(3.5, 0.0)
        assert spec.family == "point_mass"
        assert spec == DistributionSpec.point_mass(3.5)

    def test_bernoulli_mean_is_p(self):
        spec = DistributionSpec.bernoulli(0.7)
        assert spec.mean == 0.7
        assert spec.sigma_or_p == 0.7

    def test_validation(self):
        with pytest.raises(DomainError):
            DistributionSpec.gaussian(0.0, -1.0)
        with pytest.raises(DomainError):
            DistributionSpec.bernoulli(1.5)
        with pytest.raises(DomainError):
            DistributionSpec(family="beta")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "3"])
    @pytest.mark.parametrize("field", ["mu", "sigma"])
    @pytest.mark.parametrize("family", ["gaussian", "bernoulli", "point_mass"])
    def test_non_finite_field_rejected(self, family, field, value):
        with pytest.raises(DomainError):
            DistributionSpec(family=family, **{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "3", -0.5, 1.5])
    def test_bernoulli_p_is_its_checked_mu(self, value):
        with pytest.raises(DomainError, match="^p must be a finite number in \\[0.0, 1.0\\]") as info:
            DistributionSpec.bernoulli(value)
        assert info.value.name == "p"

    def test_fields_are_family_mean_and_spread(self):
        assert [f.name for f in fields(DistributionSpec)] == ["family", "mu", "sigma"]
        assert not hasattr(PMemArray(1, 1, ALL_BACKENDS["von_neumann"]), "_p")

    def test_positional_bernoulli_mean_is_its_p(self):
        """``DistributionSpec("bernoulli", 0.9)`` was p = 0.5, its default."""
        spec = DistributionSpec("bernoulli", 0.9)
        assert spec == DistributionSpec.bernoulli(0.9)
        assert (spec.mu, spec.sigma, spec.sigma_or_p) == (0.9, 0.0, 0.9)

    @pytest.mark.parametrize("family", ["bernoulli", "point_mass"])
    @pytest.mark.parametrize("sigma", [0.7, -0.5, 1e-300])
    def test_only_a_gaussian_has_a_sigma(self, family, sigma):
        """A bernoulli kept a sigma nothing read, and a point mass zeroed it."""
        with pytest.raises(DomainError, match="^sigma must be a finite number in \\[0.0, 0.0\\]") as info:
            DistributionSpec(family, 0.3, sigma)
        assert info.value.name == "sigma"

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli", "point_mass"])
    def test_zero_sigma_is_stored_as_plus_zero(self, family):
        for sigma in (0, -0.0, np.float64(0.0)):
            spec = DistributionSpec(family, 0.5, sigma)
            assert repr(spec.sigma) == "0.0" and type(spec.sigma) is float
            assert spec.family == ("point_mass" if family == "gaussian" else family)

    def test_entropy_consumption_flags(self):
        assert DistributionSpec.gaussian(0.0, 1.0).consumes_entropy
        assert not DistributionSpec.point_mass(2.0).consumes_entropy
        assert not DistributionSpec.bernoulli(0.0).consumes_entropy
        assert not DistributionSpec.bernoulli(1.0).consumes_entropy
        assert DistributionSpec.bernoulli(0.5).consumes_entropy
        assert type(DistributionSpec.bernoulli(0.5).consumes_entropy) is bool

    def test_batch_draws_exactly_the_cells_that_consume_entropy(self):
        """The batch path's draw rule is the scalar one: one stream word per
        bernoulli draw, two per gaussian, none for any other cell."""
        specs = [DistributionSpec.gaussian(0.0, 1.0), DistributionSpec.gaussian(1.0, 0.0),
                 DistributionSpec.bernoulli(0.0), DistributionSpec.bernoulli(1.0),
                 DistributionSpec.bernoulli(0.5), DistributionSpec.point_mass(2.0)]
        arr = PMemArray(1, len(specs), ALL_BACKENDS["decoupled_near_memory"])
        for c, spec in enumerate(specs):
            arr.write((0, c), spec)
        for c, spec in enumerate(specs):
            stream = EntropyStream(3)
            arr.batch_sample([(0, c)], stream)
            words = 2 if spec.family == "gaussian" else 1
            assert stream.position == (words if spec.consumes_entropy else 0), spec


class TestBackendConfig:
    def test_kind_validation(self):
        with pytest.raises(DomainError):
            BackendConfig(kind="quantum")

    def test_variance_window_fractions(self):
        with pytest.raises(DomainError):
            BackendConfig.coupled_pcim(sigma_min_frac=0.0)
        with pytest.raises(DomainError):
            BackendConfig.coupled_pcim(sigma_min_frac=1.2, sigma_max_frac=2.0)

    def test_sigma_dev_model(self):
        be = BackendConfig.coupled_pcim(sigma0=0.1, gamma=0.5)
        assert be.sigma_dev(0.0) == pytest.approx(0.1)
        assert be.sigma_dev(-2.0) == pytest.approx(0.1 * 2.0)

    def test_von_neumann_default_shaping(self):
        assert BackendConfig.von_neumann().shaping_ops_per_sample == 8
        assert BackendConfig(kind="von_neumann").shaping_ops_per_sample == 8
        assert BackendConfig.coupled_pcim().shaping_ops_per_sample == 0

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_kind_constructor_is_the_kind_defaults(self, kind):
        assert BackendConfig(kind=kind) == getattr(BackendConfig, kind)()
        assert BackendConfig(kind=kind).shaping == ShapingPipelineSpec(method="box_muller")

    @pytest.mark.parametrize("shaping", [None, "box_muller"])
    def test_shaping_must_be_a_pipeline(self, shaping):
        with pytest.raises(DomainError, match="shaping") as info:
            BackendConfig.von_neumann(shaping=shaping)
        assert info.value.name == "shaping"

    @pytest.mark.parametrize("base", [
        BackendConfig.von_neumann(transport_bytes_per_sample=2.0, parallelism=8),
        BackendConfig.coupled_pcim(sigma0=0.2),
        BackendConfig.decoupled_near_memory(writeback_bytes_per_sample=8.0),
        BackendConfig.decoupled_in_memory(parallelism=16,
                                          shaping=ShapingPipelineSpec(method="clt_accumulate", k=4)),
    ])
    def test_for_kind_carries_lanes_and_shaping(self, base):
        expected = {
            "von_neumann": BackendConfig.von_neumann(shaping=base.shaping),
            "coupled_pcim": BackendConfig.coupled_pcim(),
            "decoupled_near_memory": BackendConfig.decoupled_near_memory(),
            "decoupled_in_memory": BackendConfig.decoupled_in_memory(parallelism=base.parallelism),
        }
        expected[base.kind] = base
        for kind in BACKEND_KINDS:
            assert BackendConfig.for_kind(kind, base) == expected[kind]
        assert BackendConfig.for_kind(base.kind, base) is base
        with pytest.raises(DomainError):
            BackendConfig.for_kind("quantum", base)

    @pytest.mark.parametrize("kind, expected", [
        ("von_neumann", 3e9),
        ("coupled_pcim", 25e9),  # samples on the data path
        ("decoupled_near_memory", 3e9),
        ("decoupled_in_memory", 8 * 3e9),  # one beta_rand per lane
    ])
    def test_raw_entropy_rate_reads_the_arch_rate(self, kind, expected):
        assert ALL_BACKENDS[kind].raw_entropy_rate(25e9, 3e9) == expected

    # a backend has no entropy rate of its own: ArchParams.beta_rand is the one
    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_constructors_take_no_rate(self, kind):
        with pytest.raises(TypeError, match="rng_rate"):
            getattr(BackendConfig, kind)(rng_rate=1e9)


class TestWriteRead:
    def test_round_trip_distribution(self):
        arr = fresh()
        spec = DistributionSpec.gaussian(1.0, 2.0)
        arr.write((1, 2), spec)
        assert arr.read_distribution((1, 2)) == spec

    def test_deterministic_write_reports_point_mass(self):
        arr = fresh()
        arr.write((0, 0), 7.0)
        assert arr.read_distribution((0, 0)) == DistributionSpec.point_mass(7.0)

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_value_rejected(self, value):
        arr = fresh()
        with pytest.raises(DomainError, match="value"):
            arr.write((0, 0), value)
        assert arr.cost_report().total_writes == 0

    def test_write_increments_endurance_once(self):
        arr = fresh()
        before = arr.write_count((2, 2))
        arr.write((2, 2), 1.25)
        assert arr.write_count((2, 2)) == before + 1

    def test_read_of_deterministic(self):
        arr = fresh()
        arr.write((0, 1), 3.5)
        assert arr.read((0, 1)) == 3.5

    def test_read_of_gaussian_is_mu(self):
        arr = fresh()
        arr.write((0, 1), DistributionSpec.gaussian(1.0, 2.0))
        assert arr.read((0, 1)) == 1.0

    def test_read_of_bernoulli_is_p(self):
        arr = fresh()
        arr.write((0, 1), DistributionSpec.bernoulli(0.25))
        assert arr.read((0, 1)) == 0.25

    def test_read_traffic_is_one_element(self):
        arr = fresh()
        before = arr.cost_report().bytes_moved
        arr.read((0, 0))
        assert arr.cost_report().bytes_moved == before + arr.bytes_per_element

    def test_read_distribution_traffic_gaussian_two_elements(self):
        arr = fresh()
        arr.write((0, 0), DistributionSpec.gaussian(1.0, 2.0))
        before = arr.cost_report().bytes_moved
        arr.read_distribution((0, 0))
        assert arr.cost_report().bytes_moved == before + 2 * arr.bytes_per_element

    def test_out_of_bounds(self):
        arr = fresh(rows=2, cols=3)
        for op in (
            lambda: arr.read((2, 0)),
            lambda: arr.write((0, 3), 1.0),
            lambda: arr.sample((-1, 0), EntropyStream(0)),
            lambda: arr.read_distribution((5, 5)),
            lambda: arr.set_variance((2, 2), 0.1),
        ):
            with pytest.raises(AddressError):
                op()


class TestAddresses:
    BAD = [(0.5, 0), (0, 1.0), (np.float64(1.0), 0), ("0", 0), (None, 0), (0,), (0, 0, 0), 3, (2**63, 0)]

    @pytest.mark.parametrize("addr", BAD)
    def test_bad_address_rejected_before_any_charge(self, addr):
        arr = PMemArray(2, 2, BackendConfig.coupled_pcim(write_based_sampling=True))
        arr.write((0, 0), DistributionSpec.gaussian(0.0, 0.1))
        stream = EntropyStream(1)
        before, wear = arr.cost_report(), arr.endurance_map
        for op in (
            lambda: arr.read(addr),
            lambda: arr.write(addr, 1.0),
            lambda: arr.sample(addr, stream),
            lambda: arr.read_distribution(addr),
            lambda: arr.set_variance(addr, 0.1),
            lambda: arr.write_count(addr),
            lambda: arr.cell(addr),
        ):
            with pytest.raises(AddressError):
                op()
        assert arr.cost_report() == before
        assert np.array_equal(arr.endurance_map, wear)
        assert stream.position == 0

    def test_numpy_integers_accepted(self):
        arr = fresh(rows=3, cols=3)
        arr.write((np.int64(1), np.int32(2)), 4.0)
        assert arr.read((np.uint8(1), np.int16(2))) == 4.0
        stream = EntropyStream(1)
        assert arr.batch_sample([(np.int64(1), 2)], stream)[0] == [4.0]
        assert arr.batch_sample(np.array([[1, 2], [0, 0]]), stream)[0] == [4.0, 0.0]


class TestSample:
    def test_deterministic_cell_exact(self):
        for name in ALL_BACKENDS:
            arr = fresh(name)
            arr.write((0, 0), 2.5)
            assert arr.sample((0, 0), EntropyStream(1)) == 2.5

    def test_point_mass_consumes_no_entropy(self):
        for name in ALL_BACKENDS:
            arr = fresh(name)
            arr.write((0, 0), DistributionSpec.point_mass(2.5))
            stream = EntropyStream(1)
            for _ in range(10):
                assert arr.sample((0, 0), stream) == 2.5
            assert arr.cost_report().entropy_bits_consumed == 0
            assert stream.position == 0

    def test_degenerate_bernoulli_consumes_no_entropy(self):
        arr = fresh()
        arr.write((0, 0), DistributionSpec.bernoulli(1.0))
        arr.write((0, 1), DistributionSpec.bernoulli(0.0))
        stream = EntropyStream(2)
        assert arr.sample((0, 0), stream) == 1.0
        assert arr.sample((0, 1), stream) == 0.0
        assert arr.cost_report().entropy_bits_consumed == 0

    def test_gaussian_sample_mean(self):
        arr = fresh()
        arr.write((0, 0), DistributionSpec.gaussian(0.0, 1.0))
        stream = EntropyStream(3)
        n = 100_000
        vals = np.array(arr.batch_sample([(0, 0)] * n, stream)[0])
        assert abs(vals.mean()) <= 4.0 / math.sqrt(n)

    def test_gaussian_sample_matches_reparameterization(self):
        arr = fresh()
        arr.write((0, 0), DistributionSpec.gaussian(5.0, 3.0))
        stream = EntropyStream(4)
        value = arr.sample((0, 0), stream)
        eps = ref_normal(4, 0, 0)
        assert value == 5.0 + 3.0 * eps

    def test_bernoulli_sample_frequency(self):
        arr = fresh()
        arr.write((0, 0), DistributionSpec.bernoulli(0.3))
        stream = EntropyStream(5)
        vals = np.array(arr.batch_sample([(0, 0)] * 100_000, stream)[0])
        assert vals.mean() == pytest.approx(0.3, abs=0.006)

    def test_statistical_correctness_all_backends(self):
        # 1e5 samples of N(1, 0.15) pass KS at significance 0.01 on every
        # backend (sigma inside the coupled window [0.05, 0.2])
        n = 100_000
        for name in ALL_BACKENDS:
            arr = fresh(name)
            arr.write((0, 0), DistributionSpec.gaussian(1.0, 0.15))
            stream = EntropyStream(6)
            vals = np.array(arr.batch_sample([(0, 0)] * n, stream)[0])
            _, ok = ks_test(vals, lambda x: normal_cdf(x, 1.0, 0.15), 0.01)
            assert ok, name

    def test_backend_value_equivalence(self):
        cells = [  # sigmas inside the coupled window [0.05, 0.2]
            DistributionSpec.gaussian(0.0, 0.1),
            DistributionSpec.point_mass(4.0),
            DistributionSpec.bernoulli(0.4),
            DistributionSpec.gaussian(-2.0, 0.05),
    ]
        traces = {}
        for name in ALL_BACKENDS:
            arr = fresh(name)
            for i, spec in enumerate(cells):
                arr.write((0, i), spec)
            stream = EntropyStream(7)
            traces[name] = [
                arr.sample((0, i % 4), stream) for i in range(64)
            ]
        baseline = traces.pop("von_neumann")
        for name, vals in traces.items():
            assert vals == baseline, name

    def test_entropy_bits_accounting(self):
        arr = fresh("von_neumann")
        arr.write((0, 0), DistributionSpec.gaussian(0.0, 1.0))
        stream = EntropyStream(8)
        k = 25
        for _ in range(k):
            arr.sample((0, 0), stream)
        assert arr.cost_report().entropy_bits_consumed == k * 32

    def test_von_neumann_sample_charges_transport_and_shaping(self):
        be = BackendConfig.von_neumann(transport_bytes_per_sample=4.0)
        arr = PMemArray(2, 2, be)
        arr.write((0, 0), DistributionSpec.gaussian(0.0, 1.0))
        base = arr.cost_report()
        arr.sample((0, 0), EntropyStream(9))
        cost = arr.cost_report()
        assert cost.bytes_moved - base.bytes_moved == 4.0
        assert cost.shaping_ops - base.shaping_ops == 8

    def test_decoupled_sample_charges_parameter_reads(self):
        arr = fresh("decoupled_in_memory")
        arr.write((0, 0), DistributionSpec.gaussian(0.0, 1.0))
        base = arr.cost_report().bytes_moved
        arr.sample((0, 0), EntropyStream(10))
        assert arr.cost_report().bytes_moved - base == 2 * arr.bytes_per_element

    def test_near_memory_adds_writeback(self):
        be = BackendConfig.decoupled_near_memory(writeback_bytes_per_sample=16.0)
        arr = PMemArray(2, 2, be)
        arr.write((0, 0), DistributionSpec.gaussian(0.0, 1.0))
        base = arr.cost_report().bytes_moved
        arr.sample((0, 0), EntropyStream(11))
        assert arr.cost_report().bytes_moved - base == 2 * arr.bytes_per_element + 16.0


class TestEndurance:
    def test_write_based_sampling_wears_cell(self):
        be = BackendConfig.coupled_pcim(write_based_sampling=True)
        arr = PMemArray(2, 2, be)
        arr.write((1, 1), DistributionSpec.gaussian(0.0, 0.1))
        base = arr.write_count((1, 1))
        stream = EntropyStream(12)
        n = 1000
        for _ in range(n):
            arr.sample((1, 1), stream)
        assert arr.write_count((1, 1)) == base + n

    def test_read_based_coupled_sampling_does_not_wear(self):
        be = BackendConfig.coupled_pcim(write_based_sampling=False)
        arr = PMemArray(2, 2, be)
        arr.write((1, 1), DistributionSpec.gaussian(0.0, 0.1))
        base = arr.write_count((1, 1))
        stream = EntropyStream(13)
        for _ in range(100):
            arr.sample((1, 1), stream)
        assert arr.write_count((1, 1)) == base

    def test_counts_never_decrease(self):
        arr = fresh()
        seen = 0
        for _ in range(5):
            arr.write((0, 0), 1.0)
            now = arr.write_count((0, 0))
            assert now >= seen
            seen = now


class TestSetVariance:
    def test_decoupled_accepts_zero(self):
        arr = fresh("decoupled_near_memory")
        arr.write((0, 0), DistributionSpec.gaussian(3.0, 1.0))
        arr.set_variance((0, 0), 0.0)
        stream = EntropyStream(14)
        assert arr.sample((0, 0), stream) == 3.0
        assert stream.position == 0

    def test_von_neumann_accepts_any(self):
        arr = fresh("von_neumann")
        arr.write((0, 0), DistributionSpec.gaussian(0.0, 1.0))
        arr.set_variance((0, 0), 123.0)
        assert arr.read_distribution((0, 0)).sigma == 123.0

    def test_coupled_window_example(self):
        be = BackendConfig.coupled_pcim(sigma0=0.1, gamma=0.0,
                                        sigma_min_frac=0.5, sigma_max_frac=2.0)
        arr = PMemArray(2, 2, be)
        arr.write((0, 0), DistributionSpec.gaussian(0.7, 0.1))
        arr.set_variance((0, 0), 0.05)  # at the low edge: accepted
        with pytest.raises(VarianceRangeError) as info:
            arr.set_variance((0, 0), 0.3)
        assert info.value.lo == pytest.approx(0.05)
        assert info.value.hi == pytest.approx(0.2)
        assert info.value.requested == 0.3

    def test_coupled_boundary_inclusion(self):
        be = BackendConfig.coupled_pcim(sigma0=0.1, gamma=0.0)
        arr = PMemArray(2, 2, be)
        arr.write((0, 0), DistributionSpec.gaussian(0.0, 0.1))
        arr.set_variance((0, 0), be.sigma_dev(0.0))
        assert arr.read_distribution((0, 0)).sigma == pytest.approx(0.1)

    @pytest.mark.parametrize("sigma", [0.01, 0.0999, 0.1, 0.3, 0.4, 0.4001, 100.0])
    def test_every_write_path_keeps_the_coupled_window(self, sigma, tmp_path):
        # at mu = 2 and gamma = 0.5 the window is [0.5, 2] * 0.1 * (1 + 0.5 * 2) = [0.1, 0.4]
        be = BackendConfig.coupled_pcim(sigma0=0.1, gamma=0.5)
        inside = 0.1 <= sigma <= 0.4
        path = tmp_path / "cells.csv"
        path.write_text(f"addr_row,addr_col,family,mu,sigma_or_p\n0,0,point_mass,1.0,0.0\n0,1,gaussian,2.0,{sigma!r}\n")
        outcomes = []
        for op in (lambda arr: arr.set_variance((0, 1), sigma),
                   lambda arr: arr.write((0, 1), DistributionSpec.gaussian(2.0, sigma)),
                   lambda arr: load_array_csv(str(path), be)):
            arr = PMemArray(2, 2, be)
            arr.write((0, 1), DistributionSpec.gaussian(2.0, 0.2))
            before, cell = arr.cost_report(), arr.cell((0, 1))
            try:
                op(arr)
                outcomes.append(None)
            except (VarianceRangeError, DomainError) as exc:
                window = exc if isinstance(exc, VarianceRangeError) else exc.__cause__
                outcomes.append((window.requested, window.lo, window.hi))
                assert arr.cost_report() == before and arr.cell((0, 1)) == cell
        assert outcomes == [None if inside else (sigma, 0.1, 0.4)] * 3

    def test_coupled_window_rejection_in_cells_csv_names_its_line(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("addr_row,addr_col,family,mu,sigma_or_p\n0,0,point_mass,1.0,0.0\n\n0,1,gaussian,1.0,100.0\n")
        with pytest.raises(DomainError) as info:
            load_array_csv(str(path), ALL_BACKENDS["coupled_pcim"])
        assert str(info.value) == f"line 4 of {str(path)!r}: sigma=100.0 outside achievable range [0.05, 0.2]"
        assert isinstance(info.value.__cause__, VarianceRangeError)

    def test_coupled_write_takes_values_and_non_gaussians(self):
        arr = fresh("coupled_pcim")
        before = arr.cost_report().total_writes
        for k, state in enumerate([7.0, 3, DistributionSpec.point_mass(100.0), DistributionSpec.gaussian(5.0, 0.0),
                                   DistributionSpec.bernoulli(0.3)]):
            arr.write(divmod(k, 4), state)
        assert arr.cost_report().total_writes == before + 5
        assert arr.cell((0, 3)) == DistributionSpec.point_mass(5.0)
        with pytest.raises(VarianceRangeError):  # a point mass is written, not programmed
            arr.set_variance((0, 3), 0.0)

    def test_bernoulli_cell_rejected(self):
        arr = fresh()
        arr.write((0, 0), DistributionSpec.bernoulli(0.5))
        with pytest.raises(CellTypeError):
            arr.set_variance((0, 0), 0.1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        for name in ALL_BACKENDS:
            arr = fresh(name)
            arr.write((0, 0), DistributionSpec.gaussian(0.0, 0.1))
            before = arr.cost_report()
            with pytest.raises(DomainError):
                arr.set_variance((0, 0), sigma)
            assert arr.cost_report() == before
            assert arr.cell((0, 0)) == DistributionSpec.gaussian(0.0, 0.1)

    def test_negative_sigma_rejected(self):
        arr = fresh()
        arr.write((0, 0), DistributionSpec.gaussian(0.0, 1.0))
        with pytest.raises(DomainError):
            arr.set_variance((0, 0), -0.5)


class TestBatchSample:
    def test_values_match_sequential(self):
        arr = fresh("coupled_pcim", rows=2, cols=8)
        addrs = [(0, i) for i in range(8)]
        for i in range(8):
            arr.write((0, i), DistributionSpec.gaussian(float(i), 0.1))
        batch_vals, _ = arr.batch_sample(addrs, EntropyStream(15))
        arr2 = fresh("coupled_pcim", rows=2, cols=8)
        for i in range(8):
            arr2.write((0, i), DistributionSpec.gaussian(float(i), 0.1))
        stream = EntropyStream(15)
        seq_vals = [arr2.sample(a, stream) for a in addrs]
        assert batch_vals == seq_vals

    def test_coupled_full_row_is_one_access(self):
        arr = fresh("coupled_pcim", rows=2, cols=8)
        addrs = [(0, i) for i in range(8)]
        _, cycles = arr.batch_sample(addrs, EntropyStream(16))
        assert cycles == arr.backend.latency_cycles

    def test_von_neumann_is_serial(self):
        arr = fresh("von_neumann", rows=2, cols=8)
        addrs = [(0, i) for i in range(8)]
        _, cycles = arr.batch_sample(addrs, EntropyStream(17))
        assert cycles == 8 * arr.backend.latency_cycles

    def test_in_memory_parallelism(self):
        be = BackendConfig.decoupled_in_memory(parallelism=4)
        arr = PMemArray(2, 8, be)
        addrs = [(0, i) for i in range(7)]
        _, cycles = arr.batch_sample(addrs, EntropyStream(18))
        assert cycles == math.ceil(7 / 4) * be.latency_cycles

    def test_bad_address_charges_nothing(self):
        arr = fresh(rows=2, cols=2)
        before = arr.cost_report()
        with pytest.raises(AddressError):
            arr.batch_sample([(0, 0), (9, 9)], EntropyStream(19))
        assert arr.cost_report() == before

    @pytest.mark.parametrize("bad", [(-1, 0), (0, -1), (2, 0), (0, 2), (0.5, 0), (1, 1.0), (0,), "ab"])
    @pytest.mark.parametrize("at", [0, 2, 4])  # first, middle, last
    def test_bad_address_anywhere_charges_nothing(self, at, bad):
        arr = PMemArray(2, 2, BackendConfig.coupled_pcim(write_based_sampling=True))
        for k in range(4):
            arr.write(divmod(k, 2), DistributionSpec.gaussian(0.0, 0.1))
        addrs = [(0, 0), (1, 1), (0, 1), (1, 0)]
        addrs.insert(at, bad)
        stream = EntropyStream(19)
        stream.position = 5
        before, wear = arr.cost_report(), arr.endurance_map
        with pytest.raises(AddressError):
            arr.batch_sample(addrs, stream)
        assert arr.cost_report() == before
        assert np.array_equal(arr.endurance_map, wear)
        assert stream.position == 5

    def test_empty_batch(self):
        arr = fresh()
        before = arr.cost_report()
        stream = EntropyStream(3)
        assert arr.batch_sample([], stream) == ([], 0)
        assert arr.cost_report() == before
        assert stream.position == 0


_finite = st.floats(-1e6, 1e6)
_energy = st.one_of(st.sampled_from([0.3, 0.7]), st.floats(1e-3, 10.0))
_bytes = st.one_of(st.sampled_from([1.3, 3.3]), st.floats(0.0, 10.0))


def _cell_states_with(sigmas):
    """Cell states whose gaussians draw their sigma from ``sigmas`` (or are 0)."""
    return st.one_of(
        st.builds(DistributionSpec.gaussian, _finite, st.one_of(st.just(0.0), sigmas)),
        st.builds(DistributionSpec.bernoulli, st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        st.builds(DistributionSpec.point_mass, _finite),
        _finite,  # raw numbers
        st.integers(-5, 5),
    )


_cell_states = _cell_states_with(st.floats(1e-3, 5.0))


@st.composite
def _backends(draw):
    kind = draw(st.sampled_from(BACKEND_KINDS))
    kw = dict(read_energy_pj=draw(_energy), write_energy_pj=draw(_energy),
              sample_energy_pj=draw(_energy), latency_cycles=draw(st.integers(1, 4)))
    if kind == "von_neumann":
        shaping = ShapingPipelineSpec(method="box_muller", cost=draw(st.integers(0, 20)))
        return BackendConfig.von_neumann(transport_bytes_per_sample=draw(_bytes), shaping=shaping, **kw)
    if kind == "coupled_pcim":
        return BackendConfig.coupled_pcim(write_based_sampling=draw(st.booleans()), **kw)
    if kind == "decoupled_near_memory":
        return BackendConfig.decoupled_near_memory(writeback_bytes_per_sample=draw(_bytes), **kw)
    return BackendConfig.decoupled_in_memory(parallelism=draw(st.integers(1, 16)), **kw)


class TestBatchEqualsSequential:
    @given(data=st.data())
    def test_batch_sample_is_a_loop_of_sample(self, data):
        backend = data.draw(_backends())
        rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
        bpe = data.draw(st.integers(1, 8))
        # a coupled array holds only sigmas in its window (gamma 0: the same at every mu)
        cell_states = (_cell_states_with(st.floats(*backend.variance_window(0.0)))
                       if backend.kind == "coupled_pcim" else _cell_states)
        states = data.draw(st.lists(cell_states, min_size=rows * cols, max_size=rows * cols))
        addr = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        addrs = data.draw(st.lists(addr, max_size=40))
        seed, start = data.draw(st.integers(0, 2**32)), data.draw(st.integers(0, 10**6))
        twins = []
        for _ in range(2):
            arr = PMemArray(rows, cols, backend, bytes_per_element=bpe)
            for k, state in enumerate(states):
                arr.write(divmod(k, cols), state)
            stream = EntropyStream(seed)
            stream.position = start
            twins.append((arr, stream))
        (batch, batch_stream), (seq, seq_stream) = twins

        values, cycles = batch.batch_sample(addrs, batch_stream)
        expected = [seq.sample(a, seq_stream) for a in addrs]
        assert list(map(float.hex, values)) == list(map(float.hex, expected))
        # and each value is its cell's draw at its stream position, by the word reference
        pos, drawn = start, []
        for a in addrs:
            spec = batch.cell(a)
            if spec.family == "gaussian":
                drawn.append(spec.mu + spec.sigma * ref_normal(seed, 0, pos))
                pos += 2
            elif spec.consumes_entropy:
                drawn.append(float(ref_uniform(seed, 0, pos) < spec.mu))
                pos += 1
            else:
                drawn.append(spec.mu)  # a point mass, or a bernoulli of p == mu in {0, 1}
        assert list(map(float.hex, values)) == list(map(float.hex, drawn))
        assert batch_stream.position == pos
        got, want = batch.cost_report(), seq.cost_report()
        for f in fields(CostReport):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
        assert np.array_equal(batch.endurance_map, seq.endurance_map)
        assert batch_stream.position == seq_stream.position
        lanes = {"coupled_pcim": cols, "decoupled_in_memory": backend.parallelism}.get(backend.kind, 1)
        assert cycles == math.ceil(len(addrs) / lanes) * backend.latency_cycles

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_long_batch_with_fractional_charges(self, kind):
        # long folds of non-integer charges: merging near-memory's parameter
        # and write-back bytes into one addition is off by an ulp here
        kw = dict(read_energy_pj=0.3, sample_energy_pj=0.7)
        backend = {
            "von_neumann": BackendConfig.von_neumann(transport_bytes_per_sample=3.3, **kw),
            "coupled_pcim": BackendConfig.coupled_pcim(write_based_sampling=True, **kw),
            "decoupled_near_memory": BackendConfig.decoupled_near_memory(writeback_bytes_per_sample=3.3, **kw),
            "decoupled_in_memory": BackendConfig.decoupled_in_memory(parallelism=3, **kw),
        }[kind]
        rng = np.random.default_rng(6)
        cells = [DistributionSpec.gaussian(0.5, 0.1), DistributionSpec.bernoulli(0.3),
                 DistributionSpec.bernoulli(1.0), 2.5]
        arrays = []
        for _ in range(2):
            arr = PMemArray(2, 2, backend)
            for k, state in enumerate(cells):
                arr.write(divmod(k, 2), state)
            arrays.append(arr)
        addrs = [divmod(int(k), 2) for k in rng.integers(0, 4, 4000)]
        batch_stream, seq_stream = EntropyStream(9), EntropyStream(9)
        values, _ = arrays[0].batch_sample(addrs, batch_stream)
        assert values == [arrays[1].sample(a, seq_stream) for a in addrs]
        assert arrays[0].cost_report().to_dict() == arrays[1].cost_report().to_dict()
        assert np.array_equal(arrays[0].endurance_map, arrays[1].endurance_map)
        assert batch_stream.position == seq_stream.position

    # Every CostReport field (float.hex, in field order), the endurance map and
    # the batch's cycles after one fixed mixed batch, then after the same
    # addresses through scalar sample(); recorded before the per-draw charges
    # moved into BackendConfig.  A drift written the same way into both paths
    # passes the batch == loop test above but not this one.
    PINNED = {
        "von_neumann": (66, (
            ("0x0.0p+0", "0x1.0000000000000p+2", "0x1.0800000000000p+5", "0x1.f200000000000p+6",
             "0x1.5000000000000p+9", "0x1.6b33333333332p+4", "0x1.a400000000000p+6"),
            [[1, 1], [1, 1]],
        ), (
            ("0x0.0p+0", "0x1.0000000000000p+2", "0x1.0800000000000p+6", "0x1.d400000000000p+7",
             "0x1.5000000000000p+10", "0x1.4800000000001p+5", "0x1.a400000000000p+7"),
            [[1, 1], [1, 1]],
        )),
        "coupled_pcim": (34, (
            ("0x0.0p+0", "0x1.0000000000000p+2", "0x1.0800000000000p+5", "0x1.9800000000000p+5",
             "0x1.5000000000000p+9", "0x1.6b33333333332p+4", "0x0.0p+0"),
            [[13, 10], [1, 1]],
        ), (
            ("0x0.0p+0", "0x1.0000000000000p+2", "0x1.0800000000000p+6", "0x1.5c00000000000p+6",
             "0x1.5000000000000p+10", "0x1.4800000000001p+5", "0x0.0p+0"),
            [[25, 19], [1, 1]],
        )),
        "decoupled_near_memory": (66, (
            ("0x0.0p+0", "0x1.0000000000000p+2", "0x1.0800000000000p+5", "0x1.1940000000000p+8",
             "0x1.5000000000000p+9", "0x1.6b33333333332p+4", "0x0.0p+0"),
            [[1, 1], [1, 1]],
        ), (
            ("0x0.0p+0", "0x1.0000000000000p+2", "0x1.0800000000000p+6", "0x1.11c0000000000p+9",
             "0x1.5000000000000p+10", "0x1.4800000000001p+5", "0x0.0p+0"),
            [[1, 1], [1, 1]],
        )),
        "decoupled_in_memory": (22, (
            ("0x0.0p+0", "0x1.0000000000000p+2", "0x1.0800000000000p+5", "0x1.2c00000000000p+7",
             "0x1.5000000000000p+9", "0x1.6b33333333332p+4", "0x0.0p+0"),
            [[1, 1], [1, 1]],
        ), (
            ("0x0.0p+0", "0x1.0000000000000p+2", "0x1.0800000000000p+6", "0x1.1d00000000000p+8",
             "0x1.5000000000000p+10", "0x1.4800000000001p+5", "0x0.0p+0"),
            [[1, 1], [1, 1]],
        )),
    }

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_pinned_charges(self, kind):
        kw = dict(read_energy_pj=0.3, write_energy_pj=1.1, sample_energy_pj=0.7, latency_cycles=2)
        backend = {
            "von_neumann": BackendConfig.von_neumann(
                transport_bytes_per_sample=3.5,
                shaping=ShapingPipelineSpec(method="clt_accumulate", k=5), **kw),
            "coupled_pcim": BackendConfig.coupled_pcim(write_based_sampling=True, **kw),
            "decoupled_near_memory": BackendConfig.decoupled_near_memory(
                writeback_bytes_per_sample=6.25, **kw),
            "decoupled_in_memory": BackendConfig.decoupled_in_memory(parallelism=3, **kw),
        }[kind]
        arr = PMemArray(2, 2, backend, bytes_per_element=3)
        cells = [DistributionSpec.gaussian(0.5, 0.1), DistributionSpec.bernoulli(0.3),
                 DistributionSpec.bernoulli(1.0), DistributionSpec.point_mass(2.5)]
        for k, state in enumerate(cells):
            arr.write(divmod(k, 2), state)
        addrs = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 0), (0, 1), (0, 0), (1, 1), (1, 0), (0, 0), (0, 1)] * 3

        def charges():
            cost = arr.cost_report()
            hexes = tuple(float.hex(float(getattr(cost, f.name))) for f in fields(CostReport))
            return hexes, arr.endurance_map.tolist()

        cycles, after_batch, after_scalar = self.PINNED[kind]
        stream = EntropyStream(5)
        assert arr.batch_sample(addrs, stream)[1] == cycles
        assert charges() == after_batch
        for addr in addrs:
            arr.sample(addr, stream)
        assert charges() == after_scalar

    @given(
        spec=st.one_of(
            st.builds(DistributionSpec, family=st.just("gaussian"), mu=_finite, sigma=st.floats(0.0, 5.0)),
            st.builds(DistributionSpec, family=st.just("bernoulli"), mu=st.floats(0.0, 1.0)),
            st.builds(DistributionSpec, family=st.just("point_mass"), mu=_finite, sigma=st.just(-0.0)),
            _cell_states,
        )
    )
    def test_read_back_equals_written(self, spec):
        arr = fresh(rows=2, cols=2)
        arr.write((1, 0), spec)
        written = spec if isinstance(spec, DistributionSpec) else DistributionSpec.point_mass(float(spec))
        # dataclass == compares every field: family, mu and sigma
        assert arr.cell((1, 0)) == written
        assert arr.read_distribution((1, 0)) == written


class TestCostReport:
    def test_fresh_array_all_zero(self):
        report = fresh().cost_report()
        assert report.to_dict() == {
            "total_reads": 0, "total_writes": 0, "total_samples": 0,
            "bytes_moved": 0.0, "entropy_bits_consumed": 0,
            "energy_pj": 0.0, "shaping_ops": 0,
        }

    def test_bits_per_draw_is_fixed(self):
        # perfbench converts entropy bits to draws through this attribute
        assert PMemArray(2, 2, ALL_BACKENDS["von_neumann"]).bits_per_raw_sample == 32
        for fn in (PMemArray, load_array_csv):
            assert "bits_per_raw_sample" not in inspect.signature(fn).parameters
        with pytest.raises(TypeError):
            PMemArray(2, 2, ALL_BACKENDS["von_neumann"], bits_per_raw_sample=32)

    @pytest.mark.parametrize("field", ["rows", "cols", "bytes_per_element"])
    @pytest.mark.parametrize("value", [1.5, True, math.nan, math.inf, "3", -1])
    def test_shape_and_element_size_must_be_integers(self, field, value):
        args = {"rows": 2, "cols": 2, "bytes_per_element": 4, field: value}
        with pytest.raises(DomainError, match=field):
            PMemArray(args["rows"], args["cols"], ALL_BACKENDS["von_neumann"],
                      bytes_per_element=args["bytes_per_element"])

    def test_integral_shape_accepted(self):
        arr = PMemArray(np.int64(2), 3, ALL_BACKENDS["von_neumann"], bytes_per_element=np.int32(2))
        arr.read((1, 2))
        assert arr.cost_report().bytes_moved == 2.0

    def test_reads_counted(self):
        arr = fresh()
        for _ in range(7):
            arr.read((0, 0))
        assert arr.cost_report().total_reads == 7

    def test_additivity(self):
        arr = fresh("von_neumann")
        arr.write((0, 0), DistributionSpec.gaussian(0.0, 1.0))
        mid = arr.cost_report()
        stream = EntropyStream(20)
        arr.sample((0, 0), stream)
        arr.read((0, 0))
        end = arr.cost_report()
        be = arr.backend
        assert end.total_samples == mid.total_samples + 1
        assert end.total_reads == mid.total_reads + 1
        assert end.bytes_moved == mid.bytes_moved + be.transport_bytes_per_sample + arr.bytes_per_element
        assert end.energy_pj == pytest.approx(
            mid.energy_pj + be.sample_energy_pj + be.read_energy_pj
        )

    def test_snapshot_is_isolated(self):
        arr = fresh()
        snap = arr.cost_report()
        arr.read((0, 0))
        assert snap.total_reads == 0


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        arr = fresh(rows=2, cols=3)
        arr.write((0, 0), DistributionSpec.gaussian(1.0, 2.0))
        arr.write((0, 1), DistributionSpec.bernoulli(0.25))
        arr.write((1, 2), 9.5)
        path = tmp_path / "cells.csv"
        save_array_csv(arr, str(path))
        loaded = load_array_csv(str(path), ALL_BACKENDS["decoupled_in_memory"])
        assert loaded.rows == 2 and loaded.cols == 3
        for r in range(2):
            for c in range(3):
                assert loaded.cell((r, c)) == arr.cell((r, c))
        assert loaded.cost_report().total_writes == 0

    def test_negative_address_rejected(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("addr_row,addr_col,family,mu,sigma_or_p\n1,1,point_mass,2.0,0.0\n-1,0,point_mass,1.0,0.0\n")
        with pytest.raises(AddressError):
            load_array_csv(str(path), ALL_BACKENDS["von_neumann"])

    @pytest.mark.parametrize("line", [
        "0,1_0,point_mass,1_0.5,0",  # int() and float() take underscores
        "0,0,point_mass,1_0.5,0",
        "\u0663,0,point_mass,1.0,0",  # an Arabic-Indic digit three
        "0,0,point_mass,\u0661.5,0",
        "0,0,gaussian,1.0, 0.5",
        "0, 1,point_mass,1.0,0",
        "0,0,point_mass,1.0",  # a short row
        "0,0,point_mass,1.0,0.0,",  # long rows
        "0,0,point_mass,1.0,0.0,extra",
        '"0",0,point_mass,1.0,0.0',  # a quoted field is no number or family
        '0,0,"point_mass",1.0,0.0',
        "  ",  # a whitespace-only line is a one-field row
        "0,0,point_mass,,0.0",  # text float() rejects
        "0,0,point_mass,1.0.0,0.0",
    ])
    def test_fields_parse_as_save_writes_them(self, tmp_path, line):
        path = tmp_path / "cells.csv"
        path.write_text(f"addr_row,addr_col,family,mu,sigma_or_p\n{line}\n", encoding="utf-8")
        with pytest.raises(DomainError):
            load_array_csv(str(path), ALL_BACKENDS["von_neumann"])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DomainError):
            load_array_csv(str(path), ALL_BACKENDS["von_neumann"])

    @pytest.mark.parametrize("text", ["", "\n", "addr_row,addr_col,family,mu,sigma_or_p\n"])
    def test_empty_file_rejected(self, tmp_path, text):
        path = tmp_path / "cells.csv"
        path.write_text(text)
        with pytest.raises(DomainError):
            load_array_csv(str(path), ALL_BACKENDS["von_neumann"])

    def test_save_writes_what_csv_writer_writes(self, tmp_path):
        arr = fresh(rows=3, cols=2)
        arr.write((0, 0), DistributionSpec.gaussian(-1e-300, 2.5e10))
        arr.write((0, 1), DistributionSpec.bernoulli(1 / 3))
        arr.write((1, 0), -0.0)
        arr.write((2, 1), 123456789.125)
        path = tmp_path / "cells.csv"
        save_array_csv(arr, str(path))
        oracle = io.StringIO(newline="")
        writer = csv.writer(oracle)
        writer.writerow(("addr_row", "addr_col", "family", "mu", "sigma_or_p"))
        for r in range(arr.rows):
            for c in range(arr.cols):
                spec = arr.cell((r, c))
                writer.writerow([r, c, spec.family, repr(spec.mu), repr(spec.sigma_or_p)])
        assert path.read_bytes() == oracle.getvalue().encode()

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("addr_row,addr_col,family,mu,sigma_or_p\r\n0,0,point_mass,1.0,0.0\r\n"
                        "\r\n0,1,point_mass\r\n", newline="")
        with pytest.raises(DomainError, match="^line 4 of .*: expected 5 fields, got 3$"):
            load_array_csv(str(path), ALL_BACKENDS["von_neumann"])

    @pytest.mark.parametrize("line, message", [
        ("0,1,point_mass,1.0.0,0.0", "expected a number, got '1.0.0'"),
        ("0,x,point_mass,1.0,0.0", "expected ASCII digits after an optional '-', got 'x'"),
        ("0,1,poisson,1.0,0.0", "unknown distribution family 'poisson'"),
        ("0,1,gaussian,1.0,-0.5", "sigma must be a finite number in [0.0, inf), got -0.5"),
        ("0,1,bernoulli,0.0,1.5", "p must be a finite number in [0.0, 1.0], got 1.5"),
        # a bernoulli's p is its mu, written in both columns; it loaded the last as p
        ("0,1,bernoulli,0.9,0.3", "a bernoulli's mu is its p, got mu 0.9 and p 0.3"),
        ("0,1,bernoulli,-0.0,0.0", "a bernoulli's mu is its p, got mu -0.0 and p 0.0"),
        ("0,1,point_mass,1.0,0.5", "sigma must be a finite number in [0.0, 0.0], got 0.5"),
    ])
    def test_row_error_names_line(self, tmp_path, line, message):
        path = tmp_path / "cells.csv"
        path.write_text(f"addr_row,addr_col,family,mu,sigma_or_p\n0,0,point_mass,1.0,0.0\n\n{line}\n")
        with pytest.raises(DomainError) as info:
            load_array_csv(str(path), ALL_BACKENDS["von_neumann"])
        assert str(info.value) == f"line 4 of {str(path)!r}: {message}"

    @pytest.mark.parametrize("line, message", [
        (b"0,1,point_mass,1.\xff,0.0", "expected a number, got '1.\\udcff'"),
        (b"0,1,gauss\xffian,1.0,0.5", "unknown distribution family 'gauss\\udcffian'"),
    ], ids=["number", "family"])
    def test_undecodable_byte_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "cells.csv"
        path.write_bytes(b"addr_row,addr_col,family,mu,sigma_or_p\n0,0,point_mass,1.0,0.0\n\n" + line + b"\n")
        with pytest.raises(DomainError) as info:
            load_array_csv(str(path), ALL_BACKENDS["von_neumann"])
        assert str(info.value) == f"line 4 of {str(path)!r}: {message}"

    def test_empty_lines_skipped(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("addr_row,addr_col,family,mu,sigma_or_p\r\n\r\n0,1,point_mass,2.0,0.0\n\n",
                        newline="")
        loaded = load_array_csv(str(path), ALL_BACKENDS["von_neumann"])
        assert (loaded.rows, loaded.cols) == (1, 2) and loaded.cell((0, 1)).mu == 2.0


# ------------------------------------------------------------------------
# A cell is checked once, when written: what the scalar primitives hand back
# equals a spec built with validation, and every rejection is the one the
# validated path makes.
# ------------------------------------------------------------------------

_WINDOW = st.floats(*BackendConfig.coupled_pcim().variance_window(0.0))  # gamma 0: one window at every mu

# Every number type a cell takes, and specs of every family with their edge parameters
_written_states = st.one_of(
    st.integers(-5, 5),
    _finite,
    st.just(-0.0),
    st.builds(np.float64, _finite),
    st.builds(np.float32, st.floats(-1e6, 1e6, width=32)),
    st.builds(DistributionSpec.gaussian, _finite, st.one_of(st.just(0.0), _WINDOW, st.floats(0.0, 5.0))),
    st.builds(lambda mu, sigma: DistributionSpec("gaussian", mu, sigma),  # an int or -0.0 sigma
              _finite, st.one_of(st.sampled_from([0, -0.0]), st.integers(0, 3))),
    st.builds(DistributionSpec.bernoulli, st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
    st.builds(DistributionSpec.point_mass, st.one_of(_finite, st.integers(-5, 5))),  # an int field reads back a float
)
_new_sigmas = st.one_of(st.sampled_from([0.0, -0.0]), st.integers(0, 3), _WINDOW, st.floats(0.0, 5.0),
                        st.builds(np.float64, _WINDOW))


def _reference_write(backend, state):
    """The spec a cell holds after ``write(state)``, built with validation
    from the canonical fields the array stores (float64 each)."""
    if not isinstance(state, DistributionSpec):
        return DistributionSpec("point_mass", float(state))
    spec = DistributionSpec(state.family, float(state.mu), float(state.sigma))
    if spec.family == "gaussian":
        backend.check_sigma(spec.mu, spec.sigma)
    return spec


def _reference_set_variance(backend, cell, sigma):
    """The spec a cell holds after ``set_variance(sigma)``, with the checks
    in the order SET_VARIANCE makes them."""
    if cell.family == "bernoulli":
        raise CellTypeError("set_variance needs a gaussian cell, got bernoulli")
    DistributionSpec("gaussian", cell.mu, sigma)  # DomainError unless finite and >= 0
    backend.check_sigma(cell.mu, sigma)
    return DistributionSpec("gaussian", cell.mu, float(sigma))


def _assert_same_spec(got, want):
    """Equal field by field in value and type, and in repr (which tells -0.0 from 0.0)."""
    assert type(got) is DistributionSpec
    for f in fields(DistributionSpec):
        g, w = getattr(got, f.name), getattr(want, f.name)
        assert (type(g), g) == (type(w), w), f.name
    assert repr(got) == repr(want)


def _state(arr):
    return arr.cost_report(), arr.endurance_map, [arr.cell(divmod(k, arr.cols)) for k in range(arr.rows * arr.cols)]


def _assert_untouched(arr, before):
    """No counter, endurance count or cell moved since ``before = _state(arr)``."""
    cost, wear, cells = _state(arr)
    assert cost == before[0] and np.array_equal(wear, before[1]) and cells == before[2]


class TestScalarPrimitivesMatchAValidatedReference:
    @given(data=st.data())
    def test_cells_read_back_as_validated_specs(self, data):
        backend = ALL_BACKENDS[data.draw(st.sampled_from(BACKEND_KINDS))]
        arr = PMemArray(2, 2, backend)
        held = {divmod(k, 2): DistributionSpec("point_mass", 0.0) for k in range(4)}
        for _ in range(data.draw(st.integers(1, 8))):
            addr = data.draw(st.sampled_from(sorted(held)))
            if data.draw(st.booleans()):
                state = data.draw(_written_states)
                op, reference = (lambda: arr.write(addr, state)), (lambda: _reference_write(backend, state))
            else:
                sigma = data.draw(_new_sigmas)
                op = lambda: arr.set_variance(addr, sigma)
                reference = lambda: _reference_set_variance(backend, held[addr], sigma)
            try:
                held[addr] = reference()
            except EntropyRooflineError as exc:
                before = _state(arr)
                with pytest.raises(type(exc)) as info:
                    op()
                assert str(info.value) == str(exc)
                _assert_untouched(arr, before)
            else:
                op()
            for a, want in held.items():
                _assert_same_spec(arr.cell(a), want)
                _assert_same_spec(arr.read_distribution(a), want)


class TestRejectionsChargeNothing:
    """Each rejection keeps its exception type, message and check order."""

    GAUSSIAN = DistributionSpec.gaussian(0.0, 0.1)
    CASES = [
        # (backend, the cell at (0, 0), primitive, address, value, error, message)
        ("decoupled_in_memory", GAUSSIAN, "write", (0, 0), True, DomainError,
         "value must be a finite number in (-inf, inf), got True"),
        ("decoupled_in_memory", GAUSSIAN, "write", (0, 0), False, DomainError,
         "value must be a finite number in (-inf, inf), got False"),
        ("decoupled_in_memory", GAUSSIAN, "write", (0, 0), math.nan, DomainError,
         "value must be a finite number in (-inf, inf), got nan"),
        ("von_neumann", GAUSSIAN, "set_variance", (0, 0), math.nan, DomainError,
         "sigma must be a finite number in [0.0, inf), got nan"),
        ("von_neumann", GAUSSIAN, "set_variance", (0, 0), math.inf, DomainError,
         "sigma must be a finite number in [0.0, inf), got inf"),
        ("von_neumann", GAUSSIAN, "set_variance", (0, 0), -0.5, DomainError,
         "sigma must be a finite number in [0.0, inf), got -0.5"),
        ("von_neumann", GAUSSIAN, "set_variance", (0, 0), True, DomainError,
         "sigma must be a finite number in [0.0, inf), got True"),
        # the cell's family is asked before the sigma
        ("decoupled_near_memory", DistributionSpec.bernoulli(0.3), "set_variance", (0, 0), 0.1, CellTypeError,
         "set_variance needs a gaussian cell, got bernoulli"),
        ("decoupled_near_memory", DistributionSpec.bernoulli(0.3), "set_variance", (0, 0), math.nan,
         CellTypeError, "set_variance needs a gaussian cell, got bernoulli"),
        # finiteness before the coupled window, which starts above 0
        ("coupled_pcim", GAUSSIAN, "set_variance", (0, 0), 0.3, VarianceRangeError,
         "sigma=0.3 outside achievable range [0.05, 0.2]"),
        ("coupled_pcim", GAUSSIAN, "set_variance", (0, 0), 0, VarianceRangeError,
         "sigma=0 outside achievable range [0.05, 0.2]"),
        ("coupled_pcim", GAUSSIAN, "set_variance", (0, 0), -math.inf, DomainError,
         "sigma must be a finite number in [0.0, inf), got -inf"),
        ("coupled_pcim", GAUSSIAN, "write", (0, 0), DistributionSpec.gaussian(1.0, 0.3), VarianceRangeError,
         "sigma=0.3 outside achievable range [0.05, 0.2]"),
        # the address before the value
        ("coupled_pcim", GAUSSIAN, "write", (9, 9), True, AddressError,
         "address (9, 9) out of bounds for 2x2 array"),
        ("coupled_pcim", GAUSSIAN, "write", (0.5, 0), DistributionSpec.gaussian(1.0, 0.3), AddressError,
         "address (0.5, 0) is not a pair of integers"),
        ("coupled_pcim", GAUSSIAN, "set_variance", (0, 2), math.nan, AddressError,
         "address (0, 2) out of bounds for 2x2 array"),
        ("decoupled_near_memory", DistributionSpec.bernoulli(0.3), "set_variance", (0,), -1.0, AddressError,
         "address (0,) is not a pair of integers"),
    ]

    @pytest.mark.parametrize("kind, cell, primitive, addr, value, error, message", CASES)
    def test_rejection(self, kind, cell, primitive, addr, value, error, message):
        arr = PMemArray(2, 2, ALL_BACKENDS[kind])
        arr.write((0, 0), cell)
        before = _state(arr)
        with pytest.raises(error) as info:
            getattr(arr, primitive)(addr, value)
        assert type(info.value) is error
        assert str(info.value) == message
        _assert_untouched(arr, before)


class TestBatchAddressesMatchCheckAddr:
    """``batch_sample`` takes exactly the addresses ``_check_addr`` takes,
    and refuses a batch naming its first address ``_check_addr`` refuses."""

    INTS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
    ACCEPTED = ([(t(1), t(0)) for t in INTS] + [(1, t(1)) for t in INTS]
                + [(True, 0), (0, True), (np.array(1), 0), (0, np.array(1, dtype=np.uint8))])

    @staticmethod
    def twins():
        arrays = []
        for _ in range(2):
            arr = PMemArray(2, 2, BackendConfig.coupled_pcim(write_based_sampling=True))
            for k, state in enumerate([DistributionSpec.gaussian(0.5, 0.1), DistributionSpec.bernoulli(0.3),
                                       DistributionSpec.gaussian(-1.0, 0.15), 2.5]):
                arr.write(divmod(k, 2), state)
            stream = EntropyStream(8)
            stream.position = 3
            arrays.append((arr, stream))
        return arrays

    def assert_same_batch(self, addrs, plain):
        (arr, stream), (ref, ref_stream) = self.twins()
        values, cycles = arr.batch_sample(addrs, stream)
        want, want_cycles = ref.batch_sample(plain, ref_stream)
        assert list(map(float.hex, values)) == list(map(float.hex, want)) and cycles == want_cycles
        assert arr.cost_report() == ref.cost_report()
        assert np.array_equal(arr.endurance_map, ref.endurance_map)
        assert stream.position == ref_stream.position

    @pytest.mark.parametrize("addr", ACCEPTED, ids=repr)
    def test_accepted_as_check_addr_reads_it(self, addr):
        arr = self.twins()[0][0]
        self.assert_same_batch([(0, 0), addr, (1, 1), addr], [(0, 0), arr._check_addr(addr), (1, 1),
                                                               arr._check_addr(addr)])

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.intp])
    def test_integer_array_of_pairs(self, dtype):
        plain = [(1, 0), (0, 1), (1, 1), (0, 0), (1, 0)]
        self.assert_same_batch(np.array(plain, dtype=dtype), plain)

    BAD_COORDS = [1.0, np.float64(1.0), "0", None, 2**63, 2**70, -1, np.uint64(2**63), np.array(1.0)]

    def assert_refused(self, addrs, first_bad):
        (arr, stream), _ = self.twins()
        with pytest.raises(AddressError) as want:
            arr._check_addr(first_bad)
        before = _state(arr)
        with pytest.raises(AddressError) as info:
            arr.batch_sample(addrs, stream)
        assert str(info.value) == str(want.value)
        _assert_untouched(arr, before)
        assert stream.position == 3

    @pytest.mark.parametrize("bad", BAD_COORDS, ids=repr)
    @pytest.mark.parametrize("at", ["row", "col"])
    def test_bad_coordinate_names_the_first_bad_address(self, bad, at):
        first = (bad, 0) if at == "row" else (0, bad)
        # a second bad address of another kind follows; the first is named
        self.assert_refused([(0, 0), (1, 1), first, (1, 0), (0, 1.5), (5, 0)], first)

    @pytest.mark.parametrize("bad", [(0,), (0, 0, 0), (), 3, "ab"], ids=repr)
    def test_not_a_pair(self, bad):
        self.assert_refused([(0, 0), bad, (1, 1)], bad)

    def test_flat_count_of_a_pair_per_address(self):
        """Two addresses of three and one coordinates flatten to 2n integers,
        yet neither is a pair."""
        self.assert_refused([(0, 0, 0), (0,)], (0, 0, 0))


class TestChargesPastTheFloatRange:
    """A charge that carries a cost total past the float range raises
    DomainError naming the total, and charges, wears, stores and draws
    nothing: every primitive computes its new totals before it commits."""

    GAUSSIAN = DistributionSpec.gaussian(0.0, 0.1)
    BIG = int(sys.float_info.max)  # the widest element an array takes

    @pytest.mark.parametrize("primitive, charges, bpe, name", [
        ("write", {"write_energy_pj": 1e308}, 4, "energy_pj"),
        ("set_variance", {"write_energy_pj": 1e308}, 4, "energy_pj"),
        ("read", {"read_energy_pj": 1e308}, 4, "energy_pj"),
        ("read", {}, BIG, "bytes_moved"),
        ("read_distribution", {"read_energy_pj": 1e308}, 4, "energy_pj"),
        ("read_distribution", {}, BIG, "bytes_moved"),
        ("sample", {"sample_energy_pj": 1e308}, 4, "energy_pj"),
        ("batch_sample", {"sample_energy_pj": 1e308}, 4, "energy_pj"),
        ("batch_sample", {}, BIG, "bytes_moved"),
    ])
    def test_second_charge_changes_nothing(self, primitive, charges, bpe, name):
        arr = PMemArray(2, 2, BackendConfig.coupled_pcim(write_based_sampling=True, **charges),
                        bytes_per_element=bpe)
        arr._store(0, 0, 0, 0.0, 0.1)  # a gaussian, stored at no charge
        stream = EntropyStream(3)
        op = {
            "write": lambda: arr.write((0, 1), self.GAUSSIAN),
            "set_variance": lambda: arr.set_variance((0, 1), 0.1),
            "read": lambda: arr.read((0, 0)),
            "read_distribution": lambda: arr.read_distribution((1, 1)),  # a point mass: one element
            "sample": lambda: arr.sample((0, 0), stream),
            "batch_sample": lambda: arr.batch_sample([(0, 1)] if bpe == self.BIG else [(0, 0)], stream),
        }[primitive]
        op()  # the first charge reaches the float maximum's order
        before, position = _state(arr), stream.position
        with pytest.raises(DomainError, match=f"^the cost report's {name} is past the float range$") as info:
            op()
        assert info.value.name == name
        _assert_untouched(arr, before)
        assert stream.position == position

    def test_two_draws_in_one_batch(self):
        """Two draws at 1e308 pJ emitted an overflow warning, an error under
        this suite, after charging the samples and bytes and drawing."""
        arr = PMemArray(1, 1, BackendConfig.decoupled_in_memory(sample_energy_pj=1e308))
        arr.write((0, 0), self.GAUSSIAN)
        stream = EntropyStream(3)
        before = _state(arr)
        with pytest.raises(DomainError, match="energy_pj") as info:
            arr.batch_sample([(0, 0), (0, 0)], stream)
        assert info.value.name == "energy_pj"
        _assert_untouched(arr, before)
        assert stream.position == 0

    @pytest.mark.parametrize("bpe", [BIG + 2**971, 10**400])
    def test_element_width_past_the_float_range_rejected(self, bpe):
        """A width of 401 digits failed with an OverflowError at its first charge."""
        with pytest.raises(DomainError, match="^bytes_per_element must be an integer in \\[1, ") as info:
            PMemArray(2, 2, BackendConfig.von_neumann(), bytes_per_element=bpe)
        assert info.value.name == "bytes_per_element"
