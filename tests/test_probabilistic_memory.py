"""Tests for the unified memory primitives and backend cost models."""

import math
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mu", "sigma", "p"])
    @pytest.mark.parametrize("family", ["gaussian", "bernoulli", "point_mass"])
    def test_non_finite_field_rejected(self, family, field, value):
        with pytest.raises(DomainError):
            DistributionSpec(family=family, **{field: value})

    def test_entropy_consumption_flags(self):
        assert DistributionSpec.gaussian(0.0, 1.0).consumes_entropy
        assert not DistributionSpec.point_mass(2.0).consumes_entropy
        assert not DistributionSpec.bernoulli(0.0).consumes_entropy
        assert not DistributionSpec.bernoulli(1.0).consumes_entropy
        assert DistributionSpec.bernoulli(0.5).consumes_entropy


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
        assert BackendConfig.coupled_pcim().shaping_ops_per_sample == 0

    @pytest.mark.parametrize("base", [
        BackendConfig.von_neumann(rng_rate=3e9, transport_bytes_per_sample=2.0, parallelism=8),
        BackendConfig.coupled_pcim(sigma0=0.2),
        BackendConfig.decoupled_near_memory(rng_rate=5e8, writeback_bytes_per_sample=8.0),
        BackendConfig.decoupled_in_memory(rng_rate=2e9, parallelism=16),
    ])
    def test_for_kind_carries_rate_and_lanes(self, base):
        expected = {
            "von_neumann": BackendConfig.von_neumann(rng_rate=base.rng_rate),
            "coupled_pcim": BackendConfig.coupled_pcim(),
            "decoupled_near_memory": BackendConfig.decoupled_near_memory(rng_rate=base.rng_rate),
            "decoupled_in_memory": BackendConfig.decoupled_in_memory(
                rng_rate=base.rng_rate, parallelism=base.parallelism),
        }
        expected[base.kind] = base
        for kind in BACKEND_KINDS:
            assert BackendConfig.for_kind(kind, base) == expected[kind]
        assert BackendConfig.for_kind(base.kind, base) is base
        with pytest.raises(DomainError):
            BackendConfig.for_kind("quantum", base)


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
        vals = np.array([arr.sample((0, 0), stream) for _ in range(n)])
        assert abs(vals.mean()) <= 4.0 / math.sqrt(n)

    def test_gaussian_sample_matches_reparameterization(self):
        arr = fresh()
        arr.write((0, 0), DistributionSpec.gaussian(5.0, 3.0))
        stream = EntropyStream(4)
        value = arr.sample((0, 0), stream)
        eps = EntropyStream(4).next_normal()
        assert value == 5.0 + 3.0 * eps

    def test_bernoulli_sample_frequency(self):
        arr = fresh()
        arr.write((0, 0), DistributionSpec.bernoulli(0.3))
        stream = EntropyStream(5)
        vals = np.array([arr.sample((0, 0), stream) for _ in range(100_000)])
        assert vals.mean() == pytest.approx(0.3, abs=0.006)

    def test_statistical_correctness_all_backends(self):
        # 1e5 samples of N(1, 2) pass KS at significance 0.01 on every backend
        n = 100_000
        for name in ALL_BACKENDS:
            arr = fresh(name)
            arr.write((0, 0), DistributionSpec.gaussian(1.0, 2.0))
            stream = EntropyStream(6)
            vals = np.array([arr.sample((0, 0), stream) for _ in range(n)])
            _, ok = ks_test(vals, lambda x: normal_cdf(x, 1.0, 2.0), 0.01)
            assert ok, name

    def test_backend_value_equivalence(self):
        cells = [
            DistributionSpec.gaussian(0.0, 1.0),
            DistributionSpec.point_mass(4.0),
            DistributionSpec.bernoulli(0.4),
            DistributionSpec.gaussian(-2.0, 0.5),
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
            arr.write((0, i), DistributionSpec.gaussian(float(i), 1.0))
        batch_vals, _ = arr.batch_sample(addrs, EntropyStream(15))
        arr2 = fresh("coupled_pcim", rows=2, cols=8)
        for i in range(8):
            arr2.write((0, i), DistributionSpec.gaussian(float(i), 1.0))
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
_cell_states = st.one_of(
    st.builds(DistributionSpec.gaussian, _finite, st.one_of(st.just(0.0), st.floats(1e-3, 5.0))),
    st.builds(DistributionSpec.bernoulli, st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
    st.builds(DistributionSpec.point_mass, _finite),
    _finite,  # raw numbers
    st.integers(-5, 5),
)


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
        bpe, bits = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 64))
        states = data.draw(st.lists(_cell_states, min_size=rows * cols, max_size=rows * cols))
        addr = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        addrs = data.draw(st.lists(addr, max_size=40))
        seed, start = data.draw(st.integers(0, 2**32)), data.draw(st.integers(0, 10**6))
        twins = []
        for _ in range(2):
            arr = PMemArray(rows, cols, backend, bytes_per_element=bpe, bits_per_raw_sample=bits)
            for k, state in enumerate(states):
                arr.write(divmod(k, cols), state)
            stream = EntropyStream(seed)
            stream.position = start
            twins.append((arr, stream))
        (batch, batch_stream), (seq, seq_stream) = twins

        values, cycles = batch.batch_sample(addrs, batch_stream)
        expected = [seq.sample(a, seq_stream) for a in addrs]
        assert list(map(float.hex, values)) == list(map(float.hex, expected))
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
            st.builds(DistributionSpec, family=st.sampled_from(["gaussian", "bernoulli", "point_mass"]),
                      mu=_finite, sigma=st.floats(0.0, 5.0), p=st.floats(0.0, 1.0)),
            _cell_states,
        )
    )
    def test_read_back_equals_written(self, spec):
        arr = fresh(rows=2, cols=2)
        arr.write((1, 0), spec)
        written = spec if isinstance(spec, DistributionSpec) else DistributionSpec.point_mass(float(spec))
        # dataclass == compares every field: family, mu, sigma and p
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

    def test_bits_per_raw_sample_must_be_integer(self):
        with pytest.raises(DomainError):
            PMemArray(2, 2, ALL_BACKENDS["von_neumann"], bits_per_raw_sample=32.5)
        assert PMemArray(2, 2, ALL_BACKENDS["von_neumann"], bits_per_raw_sample=np.int64(16)).bits_per_raw_sample == 16

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

    def test_bad_header(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DomainError):
            load_array_csv(str(path), ALL_BACKENDS["von_neumann"])
