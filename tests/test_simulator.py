"""Tests for the rate-based simulator and its agreement with the model."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from entropy_roofline.distribution_shaping import ShapingPipelineSpec
from entropy_roofline.entropy_sources import EntropyStream
from entropy_roofline.errors import DegenerateWorkloadError, DomainError
from entropy_roofline.perf_model import ArchParams, classify_regime, system_throughput
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
            assert res.regime_observed is classify_regime(wl.ai(), wl.alpha(), arch_eff)

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


class TestSweep:
    def test_alpha_sweep_beta_strictly_decreasing(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann())
        rows = sweep(cfg, {"alpha": [0.0, 0.01, 0.1, 0.5, 1.0], "ai": [2.0]})
        betas = [r.result.achieved_beta for r in rows]
        assert len(rows) == 5
        assert all(b2 < b1 for b1, b2 in zip(betas, betas[1:]))

    def test_backend_sweep_includes_coupled_definition(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann())
        rows = sweep(cfg, {"backend": ["von_neumann", "coupled_pcim"]},
                     workload=mc_estimator(1_000_000, 4))
        by_kind = {r.params["backend"]: r for r in rows}
        assert by_kind["coupled_pcim"].params["beta_rand_eff"] == ARCH.beta_data

    def test_parallel_sampling_speedup_bounded_by_compute_roof(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann())
        rows = sweep(
            cfg,
            {"backend": ["von_neumann",
                         BackendConfig.decoupled_in_memory(parallelism=32)]},
            workload=mc_estimator(1_000_000, 4),
        )
        vn, im = rows[0].result, rows[1].result
        assert im.achieved_phi >= 32 * vn.achieved_phi
        assert im.achieved_phi <= ARCH.pi

    def test_rows_carry_full_parameter_tuples(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann())
        rows = sweep(cfg, {"alpha": [0.5], "mode": [MODE_SERIALIZED, MODE_OVERLAPPED]})
        for row in rows:
            assert set(row.params) == {
                "alpha", "ai", "beta_rand", "backend", "mode",
                "beta_data_eff", "beta_rand_eff",
            }

    def test_empty_dimension_named_in_error(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann())
        with pytest.raises(DomainError, match="alpha"):
            sweep(cfg, {"alpha": []})

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

    def test_beta_rand_dimension_applies_to_both_sides(self):
        cfg = SimConfig(arch=ARCH, backend=BackendConfig.von_neumann(
            transport_bytes_per_sample=0.0))
        rows = sweep(cfg, {"beta_rand": [1e8, 1e9], "alpha": [1.0]})
        r0, r1 = rows
        assert r0.params["beta_rand_eff"] == pytest.approx(1e8)
        assert r1.params["beta_rand_eff"] == pytest.approx(1e9)
        assert r1.result.achieved_beta > r0.result.achieved_beta


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
