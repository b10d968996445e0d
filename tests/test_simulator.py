"""Tests for the rate-based simulator and its agreement with the model."""

import math
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
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.decoupled_in_memory(
            rng_rate=1e9, parallelism=32))
        _, br = backend_effective_rates(cfg)
        assert br == 32e9

    def test_unit_parallelism_equals_near_memory_without_writeback(self):
        im = SimConfig(arch=ARCH, backend=BackendConfig.decoupled_in_memory(
            rng_rate=1e9, parallelism=1))
        nm = SimConfig(arch=ARCH, backend=BackendConfig.decoupled_near_memory(
            rng_rate=1e9, writeback_bytes_per_sample=0.0))
        assert backend_effective_rates(im) == backend_effective_rates(nm)

    def test_von_neumann_folds_transport(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann(
            rng_rate=1e9, transport_bytes_per_sample=4.0))
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
    t_entropy = stoch / backend.raw_entropy_rate(arch.beta_data)
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
        assert built["BackendConfig"] <= len(beta_rands) * (1 + len(kinds))

    def test_beta_rand_dimension_applies_to_both_sides(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann(
            transport_bytes_per_sample=0.0))
        table = sweep(cfg, {"beta_rand": [1e8, 1e9], "alpha": [1.0]})
        r0, r1 = table["beta_rand_eff"]
        assert r0 == pytest.approx(1e8)
        assert r1 == pytest.approx(1e9)
        b0, b1 = table["achieved_beta"]
        assert b1 > b0


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
        arr.write((0, 0), DistributionSpec.gaussian(0.5, 0.25))
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
