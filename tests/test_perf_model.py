"""Tests for the closed-form throughput model."""

import math

import numpy as np
import pytest

from entropy_roofline.errors import DomainError
from entropy_roofline.perf_model import (
    ArchParams,
    RegimeLabel,
    bandwidth_compression,
    classify_regime,
    crossover_alpha,
    effective_beta,
    roofline_curve,
    system_throughput,
)


def arch(pi=10.0, beta_data=100.0, beta_rand=1.0, bpe=4):
    return ArchParams(pi=pi, beta_data=beta_data, beta_rand=beta_rand, bytes_per_element=bpe)


def bisect_crossover(ai, a, iters=100):
    """Independent oracle: bisection on ai * beta_eff(alpha) - pi over [0, 1]."""
    f = lambda x: ai * effective_beta(x, a) - a.pi
    lo, hi = 0.0, 1.0
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return 0.0
    if fhi == 0.0:
        return 1.0
    if flo * fhi > 0.0:
        return None
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestEffectiveBeta:
    def test_alpha_zero_endpoint_exact(self):
        a = arch(beta_data=100.0, beta_rand=1.0)
        assert effective_beta(0.0, a) == 100.0

    def test_alpha_one_endpoint_exact(self):
        a = arch(beta_data=100.0, beta_rand=1.0)
        assert effective_beta(1.0, a) == 1.0

    def test_one_percent_stochastic(self):
        # direct arithmetic: 1 / (0.01/1 + 0.99/100) = 1/0.0199
        a = arch(beta_data=100.0, beta_rand=1.0)
        assert effective_beta(0.01, a) == pytest.approx(50.25125628140703, rel=1e-12)

    def test_large_gap_compression(self):
        # gap 1e4 with alpha 1%: beta collapses to ~99 elements/s
        a = arch(beta_data=10_000.0, beta_rand=1.0)
        assert effective_beta(0.01, a) == pytest.approx(99.01970492127933, rel=1e-12)
        assert bandwidth_compression(0.01, a) == pytest.approx(100.99, rel=1e-12)

    def test_alpha_out_of_range(self):
        a = arch()
        with pytest.raises(DomainError):
            effective_beta(-0.1, a)
        with pytest.raises(DomainError):
            effective_beta(1.1, a)

    def test_invalid_rates_rejected_at_construction(self):
        with pytest.raises(DomainError):
            ArchParams(pi=0.0, beta_data=1.0, beta_rand=1.0)
        with pytest.raises(DomainError):
            ArchParams(pi=1.0, beta_data=-1.0, beta_rand=1.0)
        with pytest.raises(DomainError):
            ArchParams(pi=1.0, beta_data=1.0, beta_rand=1.0, bytes_per_element=0)

    def test_strictly_decreasing_and_bounded(self):
        # over >= 1000 random parameter draws with beta_rand < beta_data
        rng = np.random.default_rng(42)
        for _ in range(1000):
            br = 10.0 ** rng.uniform(0, 6)
            bd = br * 10.0 ** rng.uniform(0.1, 6)
            a = arch(pi=1e12, beta_data=bd, beta_rand=br)
            alphas = np.sort(rng.uniform(0.0, 1.0, size=8))
            betas = [effective_beta(x, a) for x in alphas]
            assert all(b2 < b1 for b1, b2 in zip(betas, betas[1:]))
            assert all(br <= b <= bd for b in betas)

    def test_harmonic_mean_bound_both_orderings(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            br = 10.0 ** rng.uniform(0, 6)
            bd = 10.0 ** rng.uniform(0, 6)
            a = arch(pi=1e12, beta_data=bd, beta_rand=br)
            x = rng.uniform(0.0, 1.0)
            b = effective_beta(x, a)
            assert min(br, bd) - 1e-12 <= b <= max(br, bd) + 1e-12


class TestSystemThroughput:
    def test_compute_bound_branch(self):
        a = arch(pi=10.0, beta_data=100.0, beta_rand=1.0)
        assert system_throughput(1.0, 0.0, a) == 10.0

    def test_access_bound_branch(self):
        a = arch(pi=10.0, beta_data=100.0, beta_rand=1.0)
        assert system_throughput(0.01, 0.0, a) == pytest.approx(1.0, rel=1e-12)

    def test_entropy_bound_branch(self):
        a = arch(pi=10.0, beta_data=100.0, beta_rand=1.0)
        assert system_throughput(2.0, 1.0, a) == pytest.approx(2.0, rel=1e-12)

    def test_ai_must_be_positive(self):
        a = arch()
        with pytest.raises(DomainError):
            system_throughput(0.0, 0.5, a)
        with pytest.raises(DomainError):
            system_throughput(-1.0, 0.5, a)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = arch(
                pi=10.0 ** rng.uniform(3, 9),
                beta_data=10.0 ** rng.uniform(1, 6),
                beta_rand=10.0 ** rng.uniform(0, 4),
            )
            k = 10.0 ** rng.uniform(-3, 3)
            scaled = arch(pi=a.pi * k, beta_data=a.beta_data * k, beta_rand=a.beta_rand * k)
            ai = 10.0 ** rng.uniform(-2, 3)
            alpha = rng.uniform(0.0, 1.0)
            lhs = system_throughput(ai, alpha, scaled)
            rhs = k * system_throughput(ai, alpha, a)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestClassifyRegime:
    def test_compute_bound(self):
        a = arch(pi=1.0, beta_data=100.0, beta_rand=1.0)
        assert classify_regime(10.0, 0.0, a) is RegimeLabel.COMPUTE_BOUND

    def test_data_bound(self):
        a = arch(pi=1e6, beta_data=100.0, beta_rand=1.0)
        assert classify_regime(0.1, 0.0, a) is RegimeLabel.DATA_BOUND

    def test_entropy_bound(self):
        # 0.5/1 > 0.5/100: entropy term dominates the access time
        a = arch(pi=1e6, beta_data=100.0, beta_rand=1.0)
        assert classify_regime(0.1, 0.5, a) is RegimeLabel.ENTROPY_BOUND

    def test_compute_tie_goes_compute(self):
        a = arch(pi=100.0, beta_data=100.0, beta_rand=1.0)
        assert classify_regime(1.0, 0.0, a) is RegimeLabel.COMPUTE_BOUND

    def test_access_tie_goes_entropy(self):
        # alpha chosen so alpha/beta_rand == (1-alpha)/beta_data
        a = arch(pi=1e9, beta_data=100.0, beta_rand=1.0)
        alpha = 1.0 / 101.0
        assert alpha / a.beta_rand == pytest.approx((1 - alpha) / a.beta_data, rel=1e-14)
        assert classify_regime(0.001, alpha, a) is RegimeLabel.ENTROPY_BOUND


class TestCrossoverAlpha:
    def test_algebraic_example(self):
        a = arch(pi=50.0, beta_data=100.0, beta_rand=1.0)
        assert crossover_alpha(1.0, a) == pytest.approx(0.010101010101010102, abs=1e-12)

    def test_no_crossover_when_always_compute_bound_never(self):
        # ai * beta(0) = 1000 < pi for all alpha -> none
        a = arch(pi=1e4, beta_data=100.0, beta_rand=1.0)
        assert crossover_alpha(10.0, a) is None

    def test_boundary_equality_at_zero(self):
        a = arch(pi=100.0, beta_data=100.0, beta_rand=1.0)
        assert crossover_alpha(1.0, a) == 0.0

    def test_degenerate_equal_rates(self):
        a = arch(pi=50.0, beta_data=10.0, beta_rand=10.0)
        assert crossover_alpha(5.0, a) is None

    def test_throughput_at_crossover_equals_pi(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            br = 10.0 ** rng.uniform(0, 4)
            bd = br * 10.0 ** rng.uniform(0.5, 5)
            pi = 10.0 ** rng.uniform(2, 10)
            ai = 10.0 ** rng.uniform(-2, 4)
            a = arch(pi=pi, beta_data=bd, beta_rand=br)
            star = crossover_alpha(ai, a)
            if star is None:
                continue
            checked += 1
            phi = system_throughput(ai, star, a)
            assert abs(phi - pi) / pi <= 1e-9

    def test_agrees_with_bisection_oracle(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 200:
            br = 10.0 ** rng.uniform(0, 4)
            bd = br * 10.0 ** rng.uniform(0.5, 5)
            pi = 10.0 ** rng.uniform(2, 10)
            ai = 10.0 ** rng.uniform(-2, 4)
            a = arch(pi=pi, beta_data=bd, beta_rand=br)
            star = crossover_alpha(ai, a)
            oracle = bisect_crossover(ai, a)
            if star is None:
                # oracle may still find a sign change only at an exact endpoint
                assert oracle is None or oracle in (0.0, 1.0)
                continue
            checked += 1
            assert oracle is not None
            assert abs(star - oracle) <= 1e-9


class TestRooflineCurve:
    def test_alpha_zero_is_classical_roofline(self):
        a = arch(pi=1e4, beta_data=100.0, beta_rand=1.0)
        curve = roofline_curve(a, 0.0, 0.01, 100.0, 32)
        assert len(curve) == 32
        assert curve.beta_eff == a.beta_data
        for ai, phi in zip(curve.ai.tolist(), curve.phi.tolist()):
            assert phi == min(a.pi, ai * a.beta_data)

    def test_alpha_one_slope_is_beta_rand(self):
        a = arch(pi=1e4, beta_data=100.0, beta_rand=1.0)
        curve = roofline_curve(a, 1.0, 0.01, 10.0, 16)
        for ai, phi in zip(curve.ai.tolist(), curve.phi.tolist()):
            assert phi == min(a.pi, ai * 1.0)

    def test_plateau_position(self):
        # beta(0.5) = 1/0.505; compute roof reached at ai = pi / beta = 5050
        a = arch(pi=1e4, beta_data=100.0, beta_rand=1.0)
        beta = effective_beta(0.5, a)
        assert a.pi / beta == pytest.approx(5050.0, rel=1e-12)
        curve = roofline_curve(a, 0.5, 5050.0, 50_500.0, 8)
        assert all(phi == pytest.approx(1e4, rel=1e-12) for phi in curve.phi.tolist())
        assert curve.regime[0] is RegimeLabel.COMPUTE_BOUND

    def test_phi_non_decreasing_and_consistent(self):
        a = arch(pi=1e6, beta_data=2500.0, beta_rand=10.0)
        curve = roofline_curve(a, 0.3, 0.01, 1e5, 200)
        phis = curve.phi.tolist()
        assert all(b >= a_ for a_, b in zip(phis, phis[1:]))
        for ai, phi, regime in zip(curve.ai.tolist(), phis, curve.regime):
            assert phi == min(a.pi, ai * curve.beta_eff)
            assert regime is classify_regime(ai, 0.3, a)

    def test_invalid_ranges(self):
        a = arch()
        with pytest.raises(DomainError):
            roofline_curve(a, 0.0, 1.0, 1.0, 10)
        with pytest.raises(DomainError):
            roofline_curve(a, 0.0, -1.0, 1.0, 10)
        with pytest.raises(DomainError):
            roofline_curve(a, 0.0, 0.1, 1.0, 1)
        for ai_min, ai_max, n_points in ((0.1, math.inf, 10), (math.nan, 1.0, 10),
                                         (0.1, 1.0, 2.5), (0.1, 1.0, True)):
            with pytest.raises(DomainError):
                roofline_curve(a, 0.0, ai_min, ai_max, n_points)
        # a finite range whose ratio overflows would make every ai but the first inf
        with pytest.raises(DomainError) as info:
            roofline_curve(a, 0.0, 1e-300, 1e300, 3)
        assert info.value.name == "ai_max"


class TestBandwidthCompression:
    def test_alpha_zero_is_unity(self):
        assert bandwidth_compression(0.0, arch()) == 1.0

    def test_alpha_one_is_rate_ratio(self):
        a = arch(beta_data=100.0, beta_rand=1.0)
        assert bandwidth_compression(1.0, a) == pytest.approx(100.0, rel=1e-12)

    def test_small_alpha_large_gap(self):
        a = arch(beta_data=1e4, beta_rand=1.0)
        assert bandwidth_compression(0.01, a) == pytest.approx(100.99, rel=1e-12)

    def test_at_least_one_when_rand_slower(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            br = 10.0 ** rng.uniform(0, 3)
            bd = br * 10.0 ** rng.uniform(0, 5)
            a = arch(beta_data=bd, beta_rand=br)
            assert bandwidth_compression(rng.uniform(0, 1), a) >= 1.0 - 1e-12


class TestDefaults:
    def test_default_arch_matches_scaling_figures(self):
        a = ArchParams.default()
        assert a.pi == 1e13
        assert a.beta_data == 2.5e10  # 1e11 bytes/s over 4-byte elements
        assert a.beta_rand == 1e9
        assert a.bytes_per_element == 4

    def test_byte_bandwidth_conversion(self):
        a = ArchParams.from_byte_bandwidth(1e12, 8e10, 1e9, bytes_per_element=8)
        assert a.beta_data == 1e10
