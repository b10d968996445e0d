"""Tests for the rate-based simulator and its agreement with the model."""

import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from entropy_roofline.distribution_shaping import ShapingPipelineSpec
from entropy_roofline.entropy_sources import EntropyStream
from entropy_roofline.errors import DegenerateWorkloadError, DomainError
from entropy_roofline.perf_model import ArchParams, RegimeLabel, classify_regime, system_throughput
from entropy_roofline.probabilistic_memory import (
    BACKEND_KINDS,
    BackendConfig,
    CostReport,
    DistributionSpec,
    PMemArray,
)
from entropy_roofline.simulator import (
    MODE_OVERLAPPED,
    MODE_SERIALIZED,
    MODES,
    SimConfig,
    backend_effective_rates,
    run,
    sweep,
)
from entropy_roofline.workload import WorkloadSpec, bnn_layer, conv_layer, mc_estimator

ARCH = ArchParams.default()

BACKENDS = [
    BackendConfig.von_neumann(),
    BackendConfig.coupled_pcim(),
    BackendConfig.decoupled_near_memory(),
    BackendConfig.decoupled_in_memory(parallelism=32),
]

WORKLOADS = [
    bnn_layer(128, 128, 1),
    conv_layer(64, 64, 3, 32, 32, 1),
    conv_layer(64, 64, 3, 32, 32, 1, stochastic_weights=True),
    mc_estimator(1_000_000, 4),
]


def analytic_phi(workload, config):
    bd, br = backend_effective_rates(config)
    arch_eff = ArchParams(pi=config.arch.pi, beta_data=bd, beta_rand=br,
                          bytes_per_element=config.arch.bytes_per_element)
    return system_throughput(workload.ai(), workload.alpha(), arch_eff)


class TestBackendEffectiveRates:
    def test_coupled_rand_rate_is_data_rate(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.coupled_pcim())
        bd, br = backend_effective_rates(cfg)
        assert br == ARCH.beta_data and bd == ARCH.beta_data

    def test_in_memory_scales_with_parallelism(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.decoupled_in_memory(parallelism=32))
        _, br = backend_effective_rates(cfg)
        assert br == 32 * ARCH.beta_rand == 32e9

    def test_int_rate_stays_int_in_range_and_is_inf_past_it(self):
        """parallelism times an int beta_rand is that int while a float can
        hold it; past the float range it is inf, as the float product is."""
        lanes = BackendConfig.decoupled_in_memory(parallelism=2)
        in_range = SimConfig(arch=replace(ARCH, beta_rand=10**9), backend=lanes)
        assert backend_effective_rates(in_range)[1] == 2 * 10**9
        assert type(backend_effective_rates(in_range)[1]) is int
        results = []
        for rate in (10**308, 1e308):
            cfg = SimConfig(arch=replace(ARCH, beta_rand=rate), backend=lanes)
            assert backend_effective_rates(cfg)[1] == math.inf
            results.append(run(mc_estimator(1000, 4), cfg))
        assert results[0] == results[1]

    def test_unit_parallelism_equals_near_memory_without_writeback(self):
        im = SimConfig(arch=ARCH, backend=BackendConfig.decoupled_in_memory(parallelism=1))
        nm = SimConfig(arch=ARCH, backend=BackendConfig.decoupled_near_memory(
            writeback_bytes_per_sample=0.0))
        assert backend_effective_rates(im) == backend_effective_rates(nm)

    def test_von_neumann_folds_transport(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann(
            transport_bytes_per_sample=4.0))
        _, br = backend_effective_rates(cfg)
        # one element of bus traffic per sample, composed serially
        assert br == pytest.approx(1.0 / (1.0 / 1e9 + 1.0 / ARCH.beta_data), rel=1e-12)

    def test_von_neumann_transport_bytes_accounting(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann(
            transport_bytes_per_sample=4.0))
        wl = mc_estimator(1_000_000, 4)
        res = run(wl, cfg)
        sampling_bytes = res.cost.bytes_moved - wl.det_accesses * ARCH.bytes_per_element
        assert sampling_bytes == pytest.approx(4e6)


class TestRun:
    def test_alpha_zero_reduces_to_classical_roofline(self):
        wl = conv_layer(64, 64, 3, 32, 32, 1)
        for backend in BACKENDS:
            res = run(wl, SimConfig(arch=ARCH, backend=backend))
            expect = min(ARCH.pi, wl.ai() * ARCH.beta_data)
            assert abs(res.achieved_phi - expect) / expect <= 1e-9

    def test_bnn_matches_model_within_one_percent(self):
        wl = bnn_layer(128, 128, 1)
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann())
        res = run(wl, cfg)
        phi = analytic_phi(wl, cfg)
        assert abs(res.achieved_phi - phi) / phi <= 0.01

    def test_model_agreement_all_backends_and_workloads(self):
        for backend in BACKENDS:
            for wl in WORKLOADS:
                cfg = SimConfig(arch=ARCH, backend=backend)
                res = run(wl, cfg)
                phi = analytic_phi(wl, cfg)
                assert abs(res.achieved_phi - phi) / phi <= 0.01, (backend.kind, wl.name)

    def test_overlapped_never_slower(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            arch = ArchParams(
                pi=10.0 ** rng.uniform(9, 14),
                beta_data=10.0 ** rng.uniform(8, 12),
                beta_rand=10.0 ** rng.uniform(6, 10),
            )
            backend = BACKENDS[rng.integers(0, len(BACKENDS))]
            wl = WorkloadSpec(
                name="r",
                n_ops=int(rng.integers(1, 10**9)),
                det_accesses=int(rng.integers(0, 10**7)),
                stoch_accesses=int(rng.integers(1, 10**7)),
            )
            ser = run(wl, SimConfig(arch=arch, backend=backend, mode=MODE_SERIALIZED))
            ovl = run(wl, SimConfig(arch=arch, backend=backend, mode=MODE_OVERLAPPED))
            assert ovl.achieved_phi >= ser.achieved_phi * (1 - 1e-12)

    def test_regime_agreement_with_classifier(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            arch = ArchParams(
                pi=10.0 ** rng.uniform(9, 14),
                beta_data=10.0 ** rng.uniform(8, 12),
                beta_rand=10.0 ** rng.uniform(6, 10),
            )
            backend = BACKENDS[rng.integers(0, len(BACKENDS))]
            wl = WorkloadSpec(
                name="r",
                n_ops=int(rng.integers(1, 10**9)),
                det_accesses=int(rng.integers(0, 10**7)),
                stoch_accesses=int(rng.integers(0, 10**7)),
            )
            if wl.total_accesses == 0:
                continue
            cfg = SimConfig(arch=arch, backend=backend, mode=MODE_SERIALIZED)
            res = run(wl, cfg)
            bd, br = backend_effective_rates(cfg)
            arch_eff = ArchParams(pi=arch.pi, beta_data=bd, beta_rand=br)
            ai = wl.ai() + backend.shaping_ops_per_sample * wl.alpha()  # shaping as ops per access
            assert res.regime_observed is classify_regime(ai, wl.alpha(), arch_eff)

    def test_deterministic(self):
        wl = bnn_layer(64, 64, 2)
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann())
        assert run(wl, cfg) == run(wl, cfg)

    def test_zero_access_workload_rejected(self):
        wl = WorkloadSpec(name="none", n_ops=10, det_accesses=0, stoch_accesses=0)
        with pytest.raises(DegenerateWorkloadError):
            run(wl, SimConfig(arch=ARCH, backend=BACKENDS[0]))

    def test_result_identities(self):
        wl = mc_estimator(1000, 5)
        res = run(wl, SimConfig(arch=ARCH, backend=BackendConfig.coupled_pcim()))
        assert res.achieved_phi == pytest.approx(wl.n_ops / res.elapsed_time, rel=1e-12)
        assert res.achieved_beta == pytest.approx(
            wl.total_accesses / res.elapsed_time, rel=1e-12
        )

    @pytest.mark.parametrize("backend", [BackendConfig(kind="von_neumann"), BackendConfig.von_neumann()],
                             ids=["field-defaults", "constructor"])
    def test_von_neumann_default_pipeline_either_way(self, backend):
        """A von Neumann backend shapes its draws whichever way it is built: at
        pi = 5e9 the bnn layer's 131,072 shaping ops make it compute-bound."""
        res = run(bnn_layer(128, 128, 1), SimConfig(arch=replace(ARCH, pi=5e9), backend=backend))
        assert res.elapsed_time == 3.2768e-05
        assert res.regime_observed is RegimeLabel.COMPUTE_BOUND
        assert res.cost.shaping_ops == 131_072

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_bits_per_draw_equal_the_arrays(self, kind):
        backend = BackendConfig(kind=kind)
        wl = mc_estimator(1000, 5)
        bits = run(wl, SimConfig(arch=ARCH, backend=backend)).cost.entropy_bits_consumed
        assert bits == wl.stoch_accesses * PMemArray(1, 1, backend).bits_per_raw_sample == wl.stoch_accesses * 32

    def test_config_shaping_overrides_backend_pipeline(self):
        wl = mc_estimator(1_000_000, 4)
        heavy = ShapingPipelineSpec(method="box_muller", cost=800_000)
        base = run(wl, SimConfig(arch=ARCH, backend=BackendConfig.von_neumann()))  # 8 ops/sample
        slow = run(wl, SimConfig(arch=ARCH, backend=BackendConfig.von_neumann(shaping=heavy)))
        assert slow.cost.shaping_ops == wl.stoch_accesses * 800_000
        assert slow.elapsed_time > base.elapsed_time  # shaping moved it compute-bound
        # shaping arithmetic never applies to in-memory sampling backends
        coupled = run(wl, SimConfig(arch=ARCH, backend=BackendConfig.coupled_pcim(shaping=heavy)))
        assert coupled.cost.shaping_ops == 0


def reference_point(wl, cfg):
    """One point of the model in Python ints and floats, term by term: what
    the columns must reproduce bit for bit, then the terms the label compares.
    Transport rides with the term elapsed adds it to: the entropy side when
    serialized, the data side when overlapped."""
    arch, backend = cfg.arch, cfg.backend
    det, stoch = wl.det_accesses, wl.stoch_accesses
    extra = backend.side_bytes_per_sample / arch.bytes_per_element
    t_compute = (wl.n_ops + backend.shaping_ops_per_sample * stoch) / arch.pi
    t_data = det / arch.beta_data
    t_transport = stoch * extra / arch.beta_data
    t_entropy = stoch / backend.raw_entropy_rate(arch.beta_data, arch.beta_rand)
    if cfg.mode == MODE_SERIALIZED:
        data, entropy = t_data, t_entropy + t_transport
        t_access = t_data + t_transport + t_entropy
    else:
        data, entropy = t_data + t_transport, t_entropy
        t_access = max(data, entropy)
    elapsed = max(t_compute, t_access)
    if t_compute >= t_access:
        regime = RegimeLabel.COMPUTE_BOUND
    elif entropy >= data:
        regime = RegimeLabel.ENTROPY_BOUND
    else:
        regime = RegimeLabel.DATA_BOUND
    terms = {RegimeLabel.COMPUTE_BOUND: t_compute, RegimeLabel.ENTROPY_BOUND: entropy,
             RegimeLabel.DATA_BOUND: data}
    return elapsed, wl.n_ops / elapsed, wl.total_accesses / elapsed, regime, terms


class TestColumnsMatchReference:
    """Counts beyond 2**53 and odd shaping costs are where float64 columns
    could round where Python's integers do not."""

    @given(
        n_ops=st.integers(0, 2**64), det=st.integers(0, 2**64), stoch=st.integers(0, 2**64),
        cost=st.integers(0, 9), backend=st.sampled_from(BACKENDS),
        mode=st.sampled_from([MODE_SERIALIZED, MODE_OVERLAPPED]),
        rates=st.tuples(*[st.floats(1e-3, 1e15)] * 3),
    )
    # float(2**53 + 1) + 1.0 rounds twice, to 2**53; the exact sum is a float
    @example(n_ops=2**53 + 1, det=0, stoch=1, cost=1, backend=BACKENDS[0], mode=MODE_SERIALIZED,
             rates=(1e13, 2.5e10, 1e9))
    def test_run(self, n_ops, det, stoch, cost, backend, mode, rates):
        assume(det + stoch > 0)
        wl = WorkloadSpec(name="w", n_ops=n_ops, det_accesses=det, stoch_accesses=stoch)
        cfg = SimConfig(arch=ArchParams(*rates), mode=mode, backend=replace(
            backend, shaping=ShapingPipelineSpec(method="box_muller", cost=cost)))
        res = run(wl, cfg)
        *expected, terms = reference_point(wl, cfg)
        assert [res.elapsed_time, res.achieved_phi, res.achieved_beta, res.regime_observed] == expected
        # the label is the argmax of the terms elapsed uses: compute where it sets
        # elapsed, else the larger access side, ties going to entropy
        t_compute = terms.pop(RegimeLabel.COMPUTE_BOUND)
        assert res.regime_observed is (RegimeLabel.COMPUTE_BOUND if t_compute == res.elapsed_time
                                       else max(terms, key=terms.get))

    def test_sweep(self):
        base = 1_000_000
        shaping = ShapingPipelineSpec(method="box_muller", cost=7)
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann(shaping=shaping))
        alphas = [0.0, 0.123456789, 0.5, 0.999, 1.0]
        ais = [1e-3, 0.7, 2.0, 3.3e4, 9.007199254740993e9, 1e12]
        table = sweep(cfg, {"alpha": alphas, "ai": ais, "backend": list(BACKEND_KINDS),
                            "mode": [MODE_SERIALIZED, MODE_OVERLAPPED]}, base_accesses=base)
        assert len(table) == len(alphas) * len(ais) * len(BACKEND_KINDS) * 2
        row = 0
        for alpha in alphas:
            for ai in ais:
                stoch = round(alpha * base)
                wl = WorkloadSpec(name="w", n_ops=max(1, round(ai * base)),
                                  det_accesses=base - stoch, stoch_accesses=stoch)
                for kind in BACKEND_KINDS:
                    for mode in (MODE_SERIALIZED, MODE_OVERLAPPED):
                        point = SimConfig(arch=ARCH, backend=BackendConfig.for_kind(kind, cfg.backend),
                                          mode=mode)
                        got = tuple(table[name][row] for name in (
                            "elapsed_time", "achieved_phi", "achieved_beta", "regime"))
                        assert got == reference_point(wl, point)[:4]
                        assert (table["alpha"][row], table["ai"][row]) == (wl.alpha(), wl.ai())
                        row += 1


class TestSweep:
    def test_alpha_sweep_beta_strictly_decreasing(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann())
        table = sweep(cfg, {"alpha": [0.0, 0.01, 0.1, 0.5, 1.0], "ai": [2.0]})
        betas = table["achieved_beta"].tolist()
        assert len(table) == 5
        assert all(b2 < b1 for b1, b2 in zip(betas, betas[1:]))

    def test_backend_sweep_includes_coupled_definition(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann())
        table = sweep(cfg, {"backend": ["von_neumann", "coupled_pcim"]},
                      workload=mc_estimator(1_000_000, 4))
        by_kind = dict(zip(table["backend"], table["beta_rand_eff"]))
        assert by_kind["coupled_pcim"] == ARCH.beta_data

    def test_parallel_sampling_speedup_bounded_by_compute_roof(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann())
        table = sweep(
            cfg,
            {"backend": ["von_neumann",
                         BackendConfig.decoupled_in_memory(parallelism=32)]},
            workload=mc_estimator(1_000_000, 4),
        )
        vn, im = table["achieved_phi"]
        assert im >= 32 * vn
        assert im <= ARCH.pi

    def test_rows_carry_full_parameter_tuples(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann())
        table = sweep(cfg, {"alpha": [0.5], "mode": [MODE_SERIALIZED, MODE_OVERLAPPED]})
        assert list(table.columns) == [
            "alpha", "ai", "beta_rand", "backend", "mode",
            "beta_data_eff", "beta_rand_eff",
            "elapsed_time", "achieved_phi", "achieved_beta", "regime",
        ]
        assert all(len(table[name]) == len(table) == 2 for name in table.columns)

    def test_empty_dimension_named_in_error(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann())
        with pytest.raises(DomainError, match="alpha"):
            sweep(cfg, {"alpha": []})

    @pytest.mark.parametrize("grid, message", [
        ({"mode": "serialized"}, "sweep dimension 'mode' must be a non-empty list or tuple, got 'serialized'"),
        ({"alpha": 0.5}, "sweep dimension 'alpha' must be a non-empty list or tuple, got 0.5"),
    ])
    def test_dimension_must_be_a_list_or_tuple(self, grid, message):
        # a string would be swept character by character, a number has no len()
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann())
        with pytest.raises(DomainError) as info:
            sweep(cfg, grid)
        assert str(info.value) == message

    def test_unknown_dimension_rejected(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann())
        with pytest.raises(DomainError, match="voltage"):
            sweep(cfg, {"voltage": [1.0]})

    def test_invalid_value_names_offender(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann())
        with pytest.raises(DomainError, match="1.5"):
            sweep(cfg, {"alpha": [1.5]})
        with pytest.raises(DomainError, match="warp"):
            sweep(cfg, {"backend": ["warp"]})
        with pytest.raises(DomainError, match="True"):
            sweep(cfg, {"alpha": [True]})
        with pytest.raises(DomainError, match="inf"):
            sweep(cfg, {"ai": [math.inf]})
        with pytest.raises(DomainError, match="'1e9'"):
            sweep(cfg, {"beta_rand": ["1e9"]})
        # finite, but ai * base_accesses is not
        with pytest.raises(DomainError) as info:
            sweep(cfg, {"alpha": [0.5], "ai": [1e303]})
        assert info.value.name == "ai"

    def test_time_overflow_names_the_largest_term_s_rate(self):
        """Each term is finite and their sum is not: the rate of the largest
        term is named, and no point is returned with an infinite time."""
        wl = WorkloadSpec("w", n_ops=1, det_accesses=1, stoch_accesses=2)
        arch = replace(ARCH, beta_data=1.0 / sys.float_info.max, beta_rand=2.0 / sys.float_info.max)
        cfg = SimConfig(arch=arch, backend=BackendConfig.von_neumann(transport_bytes_per_sample=0.0))
        with pytest.raises(DomainError, match="overflows the float range at beta_data = ") as info:
            run(wl, cfg)
        assert info.value.name == "beta_data"
        with pytest.raises(DomainError) as info:  # only a point that draws overflows
            sweep(replace(cfg, arch=ARCH), {"alpha": [0.0, 0.5], "beta_rand": [1e9, 1e-310]})
        assert info.value.name == "beta_rand"
        coupled = SimConfig(arch=replace(ARCH, beta_data=1e-303), backend=BackendConfig.coupled_pcim())
        with pytest.raises(DomainError) as info:  # coupled cells draw at beta_data: 1e6 draws overflow, 1 read not
            run(mc_estimator(10**6, 1), coupled)
        assert info.value.name == "beta_data"

    @pytest.mark.parametrize("counts, name, what", [
        ((int("9" * 320) * 4, 1, int("9" * 320)), "n_ops", "n_ops"),
        ((1, 10**400, 0), "det_accesses", "det_accesses"),
        ((1, 0, 10**400), "stoch_accesses", "stoch_accesses"),
        # each count converts, the operation demand of a shaping backend does not
        ((int(1.7e308), 1, int(1e307)), "n_ops", "the operation demand"),
    ])
    def test_count_past_the_float_range_is_named(self, counts, name, what):
        wl = WorkloadSpec("w", *counts)
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann())
        assert cfg.backend.shaping_ops_per_sample * int(1e307) > 1e307
        for call in (lambda: run(wl, cfg), lambda: sweep(cfg, {"mode": [MODE_SERIALIZED]}, workload=wl)):
            with pytest.raises(DomainError, match=f"^{what} .*is past the float range") as info:
                call()
            assert info.value.name == name

    @pytest.mark.parametrize("backend, name", [
        (BackendConfig.coupled_pcim(), "energy_pj"),  # 10**308 draws at 5 pJ each
        (BackendConfig.decoupled_near_memory(), "bytes_moved"),  # and 4 write-back bytes each
    ])
    def test_cost_past_the_float_range_is_named(self, backend, name):
        """Every count and time is finite, a cost product is not: it gave
        ``energy_pj`` (or ``bytes_moved``) inf, which JSON cannot hold."""
        with pytest.raises(DomainError, match=f"^the cost report's {name} is past the float range") as info:
            run(mc_estimator(10**308, 1), SimConfig(arch=ARCH, backend=backend))
        assert info.value.name == name

    @pytest.mark.parametrize("backend, bpe, counts, charge, name", [
        (BackendConfig.decoupled_in_memory(sample_energy_pj=1e308), 4, (1, 0, 10), "sample_energy_pj", "energy_pj"),
        (BackendConfig.von_neumann(read_energy_pj=1e308), 4, (1, 10, 0), "read_energy_pj", "energy_pj"),
        (BackendConfig.von_neumann(transport_bytes_per_sample=4e307), 4, (1, 1, 10),
         "transport_bytes_per_sample", "bytes_moved"),
        (BackendConfig.decoupled_near_memory(writeback_bytes_per_sample=4e307), 4, (1, 1, 10),
         "writeback_bytes_per_sample", "bytes_moved"),
        (BackendConfig.coupled_pcim(), 10**308, (1, 10, 0), "bytes_per_element", "bytes_moved"),
        # the larger of two raised charges is named
        (BackendConfig.coupled_pcim(read_energy_pj=1e307, sample_energy_pj=1e308), 4, (1, 10, 10),
         "sample_energy_pj", "energy_pj"),
    ])
    def test_cost_past_the_float_range_names_the_charge(self, backend, bpe, counts, charge, name):
        """Ten draws at 1e308 pJ blamed the counts, which are finite at every default charge."""
        cfg = SimConfig(arch=replace(ARCH, bytes_per_element=bpe), backend=backend)
        with pytest.raises(DomainError, match=f"^the cost report's {name} is past the float range at {charge} = ") as info:
            run(WorkloadSpec("w", *counts), cfg)
        assert info.value.name == charge

    def test_counts_past_the_float_range_at_default_charges_are_named(self):
        """A raised charge is not named where the default charges overflow the same counts."""
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.coupled_pcim(sample_energy_pj=50.0))
        with pytest.raises(DomainError, match="^the cost report's energy_pj is past the float range$") as info:
            run(mc_estimator(10**308, 1), cfg)
        assert info.value.name == "energy_pj"

    @pytest.mark.parametrize("bpe", [int(sys.float_info.max) + 2**971, 10**400])
    def test_element_width_past_the_float_range_rejected(self, bpe):
        """A width of 401 digits failed with an OverflowError in the simulator."""
        with pytest.raises(DomainError, match=r"^bytes_per_element must be an integer in \[1, ") as info:
            replace(ARCH, bytes_per_element=bpe)
        assert info.value.name == "bytes_per_element"

    def test_base_accesses_past_the_float_range_is_named(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann())
        with pytest.raises(DomainError, match="^base_accesses is past the float range") as info:
            sweep(cfg, {"alpha": [0.5]}, base_accesses=10**400)  # an OverflowError
        assert info.value.name == "base_accesses"

    def test_configs_built_once_per_grid_value(self, monkeypatch):
        built = {}
        for cls in (ArchParams, BackendConfig):
            def counting(self, check=cls.__post_init__, name=cls.__name__):
                built[name] = built.get(name, 0) + 1
                check(self)
            monkeypatch.setattr(cls, "__post_init__", counting)
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann())
        beta_rands, kinds = [1e8, 1e9, 1e10], list(BACKEND_KINDS)
        built.clear()
        table = sweep(cfg, {"alpha": [0.1, 0.5, 0.9], "ai": [0.5, 4.0], "beta_rand": beta_rands,
                            "backend": kinds, "mode": [MODE_SERIALIZED, MODE_OVERLAPPED]})
        assert len(table) == 3 * 2 * 3 * 4 * 2
        assert built["ArchParams"] == len(beta_rands)
        assert built["BackendConfig"] <= 1 + len(kinds)

    def test_beta_rand_dimension_applies_to_both_sides(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann(
            transport_bytes_per_sample=0.0))
        table = sweep(cfg, {"beta_rand": [1e8, 1e9], "alpha": [1.0]})
        r0, r1 = table["beta_rand_eff"]
        assert r0 == pytest.approx(1e8)
        assert r1 == pytest.approx(1e9)
        b0, b1 = table["achieved_beta"]
        assert b1 > b0


class TestOneEntropyRate:
    """``ArchParams.beta_rand`` is the one entropy rate: a sweep row is timed
    at the ``beta_rand`` it prints, as ``run`` times that arch."""

    @given(
        rates=st.tuples(*[st.floats(1e-3, 1e15)] * 3),
        base=st.sampled_from(BACKENDS),
        mode=st.sampled_from(MODES),
        alpha=st.floats(0.0, 1.0),
        ai=st.floats(1e-3, 1e6),
        beta_rands=st.none() | st.lists(st.floats(1e-3, 1e15), min_size=1, max_size=3),
        kinds=st.none() | st.lists(st.sampled_from(BACKEND_KINDS), min_size=1, max_size=4),
        modes=st.none() | st.lists(st.sampled_from(MODES), min_size=1, max_size=2),
    )
    def test_each_row_is_timed_at_its_beta_rand(self, rates, base, mode, alpha, ai,
                                                 beta_rands, kinds, modes):
        cfg = SimConfig(arch=ArchParams(*rates), backend=base, mode=mode)
        grid = {"alpha": [alpha], "ai": [ai]}
        for dim, values in (("beta_rand", beta_rands), ("backend", kinds), ("mode", modes)):
            if values is not None:
                grid[dim] = values
        table = sweep(cfg, grid, base_accesses=1000)
        stoch = round(alpha * 1000)
        wl = WorkloadSpec(name="w", n_ops=max(1, round(ai * 1000)),
                          det_accesses=1000 - stoch, stoch_accesses=stoch)
        assert len(table) == math.prod(len(v) for v in grid.values())
        for row in range(len(table)):
            point = SimConfig(arch=replace(cfg.arch, beta_rand=table["beta_rand"][row]),
                              backend=BackendConfig.for_kind(table["backend"][row], base),
                              mode=table["mode"][row])
            res = run(wl, point)
            assert (table["elapsed_time"][row], table["regime"][row]) == (
                res.elapsed_time, res.regime_observed)
            assert (table["beta_data_eff"][row], table["beta_rand_eff"][row]) == \
                backend_effective_rates(point)


EPS = np.finfo(float).eps


class TestAgreementToTheUlp:
    """Serialized ``run`` and ``sweep`` against the closed form at
    ``backend_effective_rates``, with shaping counted as operations: ``ai +
    shaping * alpha`` operations per access, so ``system_throughput`` is every
    operation over ``elapsed_time``.

    Throughput agrees within 8 eps, relative.  The label equals
    ``classify_regime`` wherever the terms it compares, compute against access
    and then entropy against data, differ by more than 8 eps.  The closed form
    takes alpha as one rounded float, so its data term ``(1 - alpha) /
    beta_data`` may be off by up to ``stoch / beta_data * eps / 2`` of the
    workload's time, and both bounds allow that much more.  Near alpha = 1
    that is far more than 8 eps: the second example below is 54 eps apart in
    throughput.  ``near_tie`` puts the compute rate that many eps from where
    compute ties access."""

    @staticmethod
    def check(wl, cfg, elapsed, regime):
        bd, br = backend_effective_rates(cfg)
        k = cfg.backend.shaping_ops_per_sample
        ai, alpha = wl.ai() + k * wl.alpha(), wl.alpha()
        closed = ArchParams(pi=cfg.arch.pi, beta_data=bd, beta_rand=br)
        slack = wl.stoch_accesses / bd * EPS / 2
        phi = system_throughput(ai, alpha, closed)
        assert abs((wl.n_ops + k * wl.stoch_accesses) / elapsed - phi) <= (8 * EPS + slack / elapsed) * phi

        *_, terms = reference_point(wl, cfg)
        compute = RegimeLabel.COMPUTE_BOUND
        t_compute, t_data, t_entropy = (terms[name] for name in (
            compute, RegimeLabel.DATA_BOUND, RegimeLabel.ENTROPY_BOUND))

        def apart(x, y):
            return abs(x - y) > 8 * EPS * max(x, y) + slack

        label = classify_regime(ai, alpha, closed)
        if apart(t_compute, t_data + t_entropy):
            assert (label is compute) == (regime is compute)
        if apart(t_entropy, t_data) and compute not in (label, regime):
            assert label is regime

    @staticmethod
    def near_tie(wl, cfg, ulps):
        """``cfg`` with ``pi`` ``ulps`` eps from where compute ties access."""
        *_, terms = reference_point(wl, cfg)
        ops = wl.n_ops + cfg.backend.shaping_ops_per_sample * wl.stoch_accesses
        t_access = terms[RegimeLabel.DATA_BOUND] + terms[RegimeLabel.ENTROPY_BOUND]
        return replace(cfg, arch=replace(cfg.arch, pi=ops / t_access * (1.0 + ulps * EPS)))

    @given(
        rates=st.tuples(st.floats(1e9, 1e14), st.floats(1e8, 1e12), st.floats(1e6, 1e10)),
        backend=st.sampled_from(BACKENDS), cost=st.integers(0, 20),
        n_ops=st.integers(1, 10**12), det=st.integers(0, 10**9), stoch=st.integers(0, 10**9),
        near_tie=st.none() | st.integers(-32, 32),
    )
    # compute and access 0.9 eps apart: the two evaluators' labels differ
    @example(rates=(1.33e12, 4.67e10, 1.41e8), backend=BACKENDS[2], cost=5, n_ops=142583096,
             det=2916339, stoch=1221753, near_tie=1)
    # alpha near 1: entropy and data 105 eps apart, inside the 265 eps that
    # alpha's rounding moves the closed form's data term; the labels differ
    @example(rates=(1e14, 2.6e8, 4303135608.203577), backend=BACKENDS[3], cost=0, n_ops=1,
             det=1414, stoch=748878, near_tie=None)
    def test_run(self, rates, backend, cost, n_ops, det, stoch, near_tie):
        assume(det + stoch > 0)
        wl = WorkloadSpec(name="w", n_ops=n_ops, det_accesses=det, stoch_accesses=stoch)
        cfg = SimConfig(arch=ArchParams(*rates), backend=replace(
            backend, shaping=ShapingPipelineSpec(method="box_muller", cost=cost)))
        if near_tie is not None:
            cfg = self.near_tie(wl, cfg, near_tie)
        res = run(wl, cfg)
        self.check(wl, cfg, res.elapsed_time, res.regime_observed)

    @given(
        rates=st.tuples(st.floats(1e9, 1e14), st.floats(1e8, 1e12), st.floats(1e6, 1e10)),
        base=st.sampled_from(BACKENDS), cost=st.integers(0, 20),
        alphas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        ais=st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=4),
        kinds=st.lists(st.sampled_from(BACKEND_KINDS), min_size=1, max_size=4),
    )
    def test_sweep(self, rates, base, cost, alphas, ais, kinds):
        base = replace(base, shaping=ShapingPipelineSpec(method="box_muller", cost=cost))
        cfg = SimConfig(arch=ArchParams(*rates), backend=base)
        table = sweep(cfg, {"alpha": alphas, "ai": ais, "backend": kinds}, base_accesses=10**6)
        assert set(table["mode"]) == {MODE_SERIALIZED}
        rows = ((alpha, ai, kind) for alpha in alphas for ai in ais for kind in kinds)
        for row, (alpha, ai, kind) in enumerate(rows):
            stoch = round(alpha * 10**6)
            wl = WorkloadSpec(name="w", n_ops=max(1, round(ai * 10**6)),
                              det_accesses=10**6 - stoch, stoch_accesses=stoch)
            point = replace(cfg, backend=BackendConfig.for_kind(kind, base))
            self.check(wl, point, table["elapsed_time"][row], table["regime"][row])


class TestReplayAgreement:
    """``simulator.run`` on (m, n) counts against m reads and n gaussian draws
    replayed on a ``PMemArray``.

    They agree on every count and on energy.  The one disagreement left is
    bytes: a decoupled draw reads the cell's (mu, sigma) on the array and not
    in the simulator, 2 elements per draw.  Side bytes are multiples of 1/4
    and elements a power of two wide, so every byte total is exact in float64
    and the difference is compared exactly.
    """

    @given(
        kind=st.sampled_from(BACKEND_KINDS),
        side=st.tuples(st.integers(0, 64), st.integers(0, 64)).map(lambda t: (t[0] / 4, t[1] / 4)),
        lanes=st.integers(1, 16),
        shaping_cost=st.integers(0, 50),
        wear=st.booleans(),
        energy=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
        bpe=st.sampled_from([1, 2, 4, 8]),
        m=st.integers(0, 40),
        n=st.integers(0, 40),
    )
    def test_counts_agree_and_bytes_differ_by_parameter_reads(
            self, kind, side, lanes, shaping_cost, wear, energy, bpe, m, n):
        assume(m + n > 0)
        backend = BackendConfig(
            kind=kind, transport_bytes_per_sample=side[0], writeback_bytes_per_sample=side[1],
            parallelism=lanes, shaping=ShapingPipelineSpec(method="box_muller", cost=shaping_cost),
            write_based_sampling=wear, read_energy_pj=energy[0], sample_energy_pj=energy[1],
        )
        arr = PMemArray(1, 1, backend, bytes_per_element=bpe)
        arr.write((0, 0), DistributionSpec.gaussian(0.5, 0.125))  # inside the coupled window
        before = arr.cost_report()
        stream = EntropyStream(1)
        for _ in range(m):
            arr.read((0, 0))
        for _ in range(n):
            arr.sample((0, 0), stream)
        after = arr.cost_report()
        replayed = {f.name: getattr(after, f.name) - getattr(before, f.name) for f in fields(CostReport)}

        arch = replace(ArchParams.default(), bytes_per_element=bpe)
        sim = run(WorkloadSpec(name="replay", n_ops=1, det_accesses=m, stoch_accesses=n),
                  SimConfig(arch=arch, backend=backend)).cost.to_dict()

        for name in ("total_reads", "total_writes", "total_samples", "entropy_bits_consumed",
                     "shaping_ops"):
            assert replayed[name] == sim[name], name
        assert replayed["energy_pj"] == pytest.approx(sim["energy_pj"], rel=1e-9)
        parameter_reads = n * 2 * bpe if kind.startswith("decoupled") else 0
        assert replayed["bytes_moved"] - sim["bytes_moved"] == parameter_reads
