"""Tests for the counter-based streams and hardware source models."""

import math
from dataclasses import replace

import numpy as np
import pytest

from entropy_roofline.entropy_sources import (
    BOLTZMANN_K,
    KIND_MISMATCH_STATIC,
    KIND_PSEUDO_UNIFORM,
    KIND_STOCHASTIC_SWITCH,
    KIND_THERMAL_GAUSSIAN,
    SOURCE_KINDS,
    EntropyStream,
    NonidealitySpec,
    NonidealityState,
    SourceSpec,
    create_source,
    _apply_nonidealities_block,
    derive_stream_key,
    mismatch_array,
    pelgrom_sigma,
    raw_u64,
    thermal_sigma,
)
from entropy_roofline.errors import DomainError
from entropy_roofline.fidelity import autocorrelation
from stream_reference import ref_draws, ref_normal

# Frozen outputs of the counter generator; any change to the mixing
# function is a breaking change to every seeded experiment.
GOLDEN = {
    (0, 0): (0x51A1440D912C57B6, 0x229871F6D8FA207A, 0xF1F83C8124F53B20, 0xAAEB242778E3137C),
    (1, 0): (0x3125F6D208C52D48, 0x76F9A5B069FA59A1, 0xA0C0C3C28B182EAF, 0xF53794C615FF38A9),
    (0, 1): (0x14BC80EC5C412F37, 0xB51B66EE561C47DB, 0x75D4D20044A736D9, 0x898B7DBA29370EFB),
    (12345, 678): (0x2BC656118CAC1CEC, 0xBEDBFFDB21093D37, 0xF6A31ED75EA5332F, 0x0B2841E8AFC51939),
}


def reference_splitmix64(seed, count):
    """Independent SplitMix64 written from the published algorithm."""
    mask = (1 << 64) - 1
    out = []
    state = seed & mask
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestCounterGenerator:
    def test_golden_vectors(self):
        for (seed, sid), words in GOLDEN.items():
            got = tuple(raw_u64(seed, sid, i) for i in range(4))
            assert got == words

    def test_stream_is_canonical_splitmix64_of_its_key(self):
        for seed, sid in [(0, 0), (7, 3), (2**63, 2**40)]:
            key = derive_stream_key(seed, sid)
            ref = reference_splitmix64(key, 8)
            got = [raw_u64(seed, sid, i) for i in range(8)]
            assert got == ref

    def test_published_splitmix64_known_answer(self):
        # first output of SplitMix64 seeded at 0, cross-checked against
        # independent public test vectors
        assert reference_splitmix64(0, 1)[0] == 0xE220A8397B1DCDAF

    def test_vectorized_matches_scalar(self):
        src = create_source(SourceSpec.pseudo_uniform(seed=9, stream_id=2))
        block = src.draw(64)
        expect = [(raw_u64(9, 2, i) >> 11) * 2.0**-53 for i in range(64)]
        assert np.array_equal(block, np.array(expect))


class TestDeterminismAndSplitting:
    def test_same_spec_identical_first_1000(self):
        spec = SourceSpec.thermal_gaussian(sigma=1.0, seed=5, stream_id=1)
        a = create_source(spec).draw(1000)
        b = create_source(spec).draw(1000)
        assert np.array_equal(a, b)

    def test_stream_id_changes_early_outputs(self):
        for seed in range(20):
            a = create_source(SourceSpec.pseudo_uniform(seed=seed, stream_id=0)).draw(16)
            b = create_source(SourceSpec.pseudo_uniform(seed=seed, stream_id=1)).draw(16)
            assert np.any(a != b)

    def test_block_boundaries_do_not_shift_streams(self):
        spec = SourceSpec.thermal_gaussian(sigma=2.0, seed=17)
        one = create_source(spec).draw(101)
        other = create_source(spec)
        parts = np.concatenate([other.draw(1), other.draw(49), other.draw(51)])
        assert np.array_equal(one, parts)

    def test_interleaved_construction_does_not_perturb_streams(self):
        spec = SourceSpec.thermal_gaussian(sigma=1.0, seed=55)
        reference = create_source(spec).draw(32)
        src = create_source(spec)
        head = src.draw(16)
        create_source(SourceSpec.pseudo_uniform(seed=99)).draw(100)  # unrelated
        tail = src.draw(16)
        assert np.array_equal(np.concatenate([head, tail]), reference)


class TestOneStream:
    """A source reads its words through the EntropyStream of its (seed, stream_id)."""

    @pytest.mark.parametrize("spec, words", [
        (SourceSpec.pseudo_uniform(seed=3, stream_id=1), 1),
        (SourceSpec.thermal_gaussian(sigma=0.25, seed=4, stream_id=1), 2),
        (SourceSpec.mismatch_static(0.02, 4.0, seed=5), 2),
        (SourceSpec.stochastic_switch(0.3, seed=3, stream_id=2), 1),
    ], ids=SOURCE_KINDS)
    def test_draw_equals_the_stream_s_words(self, spec, words):
        n = 1_001
        src = create_source(spec)
        got = src.draw(n)
        stream = EntropyStream(spec.seed, spec.stream_id)
        if spec.kind == KIND_PSEUDO_UNIFORM:
            want = stream._uniforms(n)
        elif spec.kind == KIND_STOCHASTIC_SWITCH:
            want = (stream._uniforms(n) < spec.p).astype(np.float64)
        else:
            z = stream._normals(n)
            assert np.array_equal(z, [ref_normal(spec.seed, spec.stream_id, 2 * i) for i in range(n)])
            want = spec.ideal_sigma() * z
        assert np.array_equal(got, want)
        assert src._stream.position == stream.position == words * n

    @pytest.mark.parametrize("nonideality", [NonidealitySpec(), NonidealitySpec(rho=0.6, bias=0.1, drift=3.0)])
    def test_uneven_pieces_keep_word_pairs_aligned(self, nonideality):
        spec = SourceSpec.thermal_gaussian(sigma=1.5, seed=8, stream_id=2, nonideality=nonideality)
        pieces = [1, 3, 65_537, 0, 2, 1, 4_095]
        src = create_source(spec)
        parts = np.concatenate([src.draw(k) for k in pieces])
        assert np.array_equal(parts, create_source(spec).draw(sum(pieces)))
        assert src._stream.position == 2 * sum(pieces)


class TestSourceKinds:
    def test_pseudo_uniform_range(self):
        u = create_source(SourceSpec.pseudo_uniform(seed=1)).draw(100_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_switch_degenerate_all_ones(self):
        bits = create_source(SourceSpec.stochastic_switch(p=1.0, seed=2)).draw(1000)
        assert np.all(bits == 1.0)

    def test_switch_degenerate_all_zeros(self):
        bits = create_source(SourceSpec.stochastic_switch(p=0.0, seed=2)).draw(1000)
        assert np.all(bits == 0.0)

    def test_switch_frequency(self):
        # 4 * sqrt(p(1-p)/n) ~= 0.0018 at n = 1e6
        bits = create_source(SourceSpec.stochastic_switch(p=0.3, seed=4)).draw(1_000_000)
        assert bits.mean() == pytest.approx(0.3, abs=0.002)

    def test_thermal_gaussian_mean_clt_bound(self):
        sigma = 2.5
        x = create_source(SourceSpec.thermal_gaussian(sigma=sigma, seed=6)).draw(1_000_000)
        assert abs(x.mean()) <= 4.0 * sigma / 1000.0

    def test_thermal_gaussian_from_kt_over_c(self):
        spec = SourceSpec.thermal_gaussian(temperature=300.0, capacitance=1e-15, seed=8)
        assert spec.ideal_sigma() == pytest.approx(2.0351773878460816e-3, rel=1e-12)

    def test_invalid_specs(self):
        with pytest.raises(DomainError):
            SourceSpec(kind="nope")
        with pytest.raises(DomainError):
            SourceSpec.stochastic_switch(p=1.5)
        with pytest.raises(DomainError):
            SourceSpec.thermal_gaussian()  # no sigma, no T/C
        with pytest.raises(DomainError):
            SourceSpec.mismatch_static(sigma0=0.01, area_wl=0.0)

    @pytest.mark.parametrize("make, args, kw, fields", [
        (SourceSpec.pseudo_uniform, (), {}, {"kind": KIND_PSEUDO_UNIFORM}),
        # a thermal spec builds only with a sigma, or a temperature and capacitance
        (SourceSpec.thermal_gaussian, (), {"sigma": 1.0}, {"kind": KIND_THERMAL_GAUSSIAN, "sigma": 1.0}),
        (SourceSpec.mismatch_static, (0.01,), {}, {"kind": KIND_MISMATCH_STATIC, "sigma0": 0.01}),
        (SourceSpec.stochastic_switch, (0.3,), {}, {"kind": KIND_STOCHASTIC_SWITCH, "p": 0.3}),
    ])
    def test_constructor_takes_the_dataclass_defaults(self, make, args, kw, fields):
        """Given only its required arguments, a per-kind constructor builds the
        bare dataclass of its kind."""
        assert make(*args, **kw) == SourceSpec(**fields)


class TestScalingLaws:
    def test_pelgrom_values(self):
        assert pelgrom_sigma(10e-3, 1.0) == 10e-3
        assert pelgrom_sigma(10e-3, 4.0) == pytest.approx(5e-3, rel=1e-12)
        assert pelgrom_sigma(0.0, 7.0) == 0.0

    def test_pelgrom_ratio_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s0 = rng.uniform(1e-4, 1e-1)
            a = rng.uniform(0.1, 100.0)
            k = rng.uniform(0.1, 100.0)
            ratio = pelgrom_sigma(s0, a * k) / pelgrom_sigma(s0, a)
            assert abs(ratio - 1.0 / math.sqrt(k)) <= 1e-12 / math.sqrt(k) + 1e-15

    def test_pelgrom_domain(self):
        with pytest.raises(DomainError):
            pelgrom_sigma(1e-3, -1.0)
        with pytest.raises(DomainError):
            pelgrom_sigma(-1e-3, 1.0)

    def test_thermal_sigma_values(self):
        assert thermal_sigma(300.0, 1e-15) == pytest.approx(2.0351773878460816e-3, rel=1e-12)
        assert thermal_sigma(300.0, 4e-15) == pytest.approx(1.0175886939230408e-3, rel=1e-12)

    def test_thermal_sigma_quadruple_temperature_doubles(self):
        assert thermal_sigma(1200.0, 1e-15) == pytest.approx(
            2.0 * thermal_sigma(300.0, 1e-15), rel=1e-12
        )

    def test_thermal_sigma_domain(self):
        with pytest.raises(DomainError):
            thermal_sigma(0.0, 1e-15)
        with pytest.raises(DomainError):
            thermal_sigma(300.0, 0.0)

    def test_boltzmann_constant_value(self):
        assert BOLTZMANN_K == 1.380649e-23


class TestNonidealities:
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_identity_returns_its_input_and_advances(self, n):
        x = np.arange(n, dtype=np.float64)
        state = NonidealityState(prev=-1.0, t=7)
        assert _apply_nonidealities_block(x, state, NonidealitySpec()) is x
        assert (state.prev, state.t) == (x[-1] if n else -1.0, 7 + n)

    def test_empty_draw_with_rho_changes_nothing(self):
        spec = SourceSpec.thermal_gaussian(sigma=1.0, seed=25, nonideality=NonidealitySpec(rho=0.5))
        src = create_source(spec)
        assert src.draw(0).shape == (0,)
        assert np.array_equal(src.draw(8), create_source(spec).draw(8))

    def test_rho_validation(self):
        with pytest.raises(DomainError):
            NonidealitySpec(rho=1.0)
        with pytest.raises(DomainError):
            NonidealitySpec(rho=-1.0)

    @pytest.mark.parametrize("field", ["bias", "drift"])
    @pytest.mark.parametrize("value", ["0.1", None, float("nan"), float("inf"), True])
    def test_bias_and_drift_must_be_finite_numbers(self, field, value):
        with pytest.raises(DomainError, match=field):
            NonidealitySpec(**{field: value})

    def test_ar1_preserves_unit_variance(self):
        spec = SourceSpec.thermal_gaussian(
            sigma=1.0, seed=21, nonideality=NonidealitySpec(rho=0.5)
        )
        x = create_source(spec).draw(1_000_000)
        assert x.var() == pytest.approx(1.0, abs=0.01)

    def test_bias_recovered_in_mean(self):
        spec = SourceSpec.thermal_gaussian(
            sigma=1.0, seed=22, nonideality=NonidealitySpec(bias=0.1)
        )
        x = create_source(spec).draw(1_000_000)
        assert x.mean() == pytest.approx(0.1, abs=0.004)  # 4 sigma / sqrt(n)

    def test_injected_rho_recovered_by_autocorrelation(self):
        spec = SourceSpec.thermal_gaussian(
            sigma=1.0, seed=23, nonideality=NonidealitySpec(rho=0.5)
        )
        x = create_source(spec).draw(100_000)
        rho = autocorrelation(x, 3)
        assert rho[0] == pytest.approx(0.5, abs=0.05)
        assert rho[1] == pytest.approx(0.25, abs=0.05)
        assert rho[2] == pytest.approx(0.125, abs=0.05)

    def test_drift_window_means(self):
        # mean difference between first and last 1e5-sample windows of a
        # 1e6 run is drift * 0.9 (drift expressed per million samples)
        sigma, drift = 1.0, 2.0
        spec = SourceSpec.thermal_gaussian(
            sigma=sigma, seed=24, nonideality=NonidealitySpec(drift=drift)
        )
        x = create_source(spec).draw(1_000_000)
        delta = x[-100_000:].mean() - x[:100_000].mean()
        assert delta == pytest.approx(drift * 0.9, abs=0.01 * sigma)

    def test_scalar_op_updates_state(self):
        """The AR(1) state carries from one one-sample block to the next."""
        spec = NonidealitySpec(rho=0.5)
        state = NonidealityState()
        (y0,) = _apply_nonidealities_block(np.array([1.0]), state, spec)
        assert y0 == pytest.approx(math.sqrt(0.75))
        (y1,) = _apply_nonidealities_block(np.array([0.0]), state, spec)
        assert y1 == pytest.approx(0.5 * y0)
        assert state.t == 2


class TestMismatchArrays:
    def test_requires_mismatch_kind(self):
        with pytest.raises(DomainError):
            mismatch_array(SourceSpec.pseudo_uniform(), 4, 4)

    @pytest.mark.parametrize("nonideality", [
        NonidealitySpec(bias=1.0, rho=0.5), NonidealitySpec(bias=1.0), NonidealitySpec(rho=0.5),
        NonidealitySpec(drift=1e-3),
    ])
    def test_nonideality_rejected(self, nonideality):
        """Cells are independent, so no correlation, bias or drift applies to
        them; an ideal spec draws the stream's first rows * cols values."""
        spec = SourceSpec.mismatch_static(10e-3, 2.0, seed=37)
        with pytest.raises(DomainError, match="independent cells"):
            mismatch_array(replace(spec, nonideality=nonideality), 4, 4)
        assert np.array_equal(mismatch_array(spec, 4, 4).offsets.ravel(), create_source(spec).draw(16))

    def test_same_seed_identical(self):
        spec = SourceSpec.mismatch_static(sigma0=10e-3, area_wl=2.0, seed=31)
        a = mismatch_array(spec, 64, 64)
        b = mismatch_array(spec, 64, 64)
        assert np.array_equal(a.offsets, b.offsets)

    def test_zero_sigma0_all_zero(self):
        spec = SourceSpec.mismatch_static(sigma0=0.0, area_wl=1.0, seed=32)
        assert np.all(mismatch_array(spec, 16, 16).offsets == 0.0)

    def test_empirical_sigma_tracks_pelgrom(self):
        # >= 1e4 cells within 5% of the law
        spec = SourceSpec.mismatch_static(sigma0=10e-3, area_wl=2.0, seed=33)
        arr = mismatch_array(spec, 100, 100)
        expected = pelgrom_sigma(10e-3, 2.0)
        assert arr.offsets.std() == pytest.approx(expected, rel=0.05)

    def test_area_quadrupled_halves_sigma(self):
        a1 = mismatch_array(SourceSpec.mismatch_static(10e-3, 1.0, seed=34), 1000, 1000)
        a4 = mismatch_array(SourceSpec.mismatch_static(10e-3, 4.0, seed=35), 1000, 1000)
        ratio = a4.offsets.std() / a1.offsets.std()
        assert ratio == pytest.approx(0.5, rel=0.02)

    def test_offsets_frozen(self):
        spec = SourceSpec.mismatch_static(sigma0=1e-3, area_wl=1.0, seed=36)
        arr = mismatch_array(spec, 4, 4)
        with pytest.raises(ValueError):
            arr.offsets[0, 0] = 1.0


class TestEntropyStream:
    def test_deterministic(self):
        normal, p = np.array([True, False, False, True]), np.array([0.5, 0.4, 0.9, 0.5])
        a = EntropyStream(seed=5, stream_id=7)
        b = EntropyStream(seed=5, stream_id=7)
        assert a.next_block(normal, p).tolist() == b.next_block(normal, p).tolist()
        assert a.position == b.position == 6

    def test_position_replay(self):
        s = EntropyStream(seed=5)
        first = s.next_block(np.array([True]), np.array([0.0]))
        s.position = 0
        assert np.array_equal(s.next_block(np.array([True]), np.array([0.0])), first)

    def test_next_block_normals_equal_the_word_reference(self):
        # one libm Box-Muller behind both: numpy's AVX-512 log differs in the last bit
        n = 100_000
        block = EntropyStream(seed=21, stream_id=3)
        block.position = 7
        got = block.next_block(np.ones(n, dtype=bool), np.zeros(n))
        want, end = ref_draws(21, 3, 7, np.ones(n, dtype=bool), np.zeros(n))
        assert np.array_equal(got, want)
        assert block.position == end == 7 + 2 * n

    def test_next_block_mixed_equals_the_word_reference(self):
        rng = np.random.default_rng(0)
        normal = rng.random(5_000) < 0.5
        p = rng.choice([0.0, 1.0, 0.3, 0.999], normal.size)
        block = EntropyStream(seed=4)
        got = block.next_block(normal, p)
        want, end = ref_draws(4, 0, 0, normal, p)
        assert got.tolist() == want
        assert block.position == end

    def test_next_block_empty_and_domain(self):
        s = EntropyStream(seed=1)
        assert s.next_block(np.zeros(0, dtype=bool), np.zeros(0)).size == 0
        assert s.position == 0
        for p in (1.5, -0.1, math.nan):
            with pytest.raises(DomainError):
                s.next_block(np.array([True, False]), np.array([0.5, p]))
        # a normal's p is unused
        s.next_block(np.array([True]), np.array([math.nan]))
        assert s.position == 2
