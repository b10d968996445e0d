"""Tests for the closed-form throughput model."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from entropy_roofline.errors import DomainError
from entropy_roofline.perf_model import (
    ArchParams,
    RegimeLabel,
    _regime_codes,
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

    def test_ridge_tie_follows_the_label(self):
        """Where the label calls compute, ``pi`` binds, though ``ai * beta_eff``
        rounds one ulp under it."""
        a = arch(pi=68.0, beta_data=4.0, beta_rand=14.0)
        assert 6.071428571428571 * effective_beta(0.9, a) < 68.0
        assert classify_regime(6.071428571428571, 0.9, a) is RegimeLabel.COMPUTE_BOUND
        assert system_throughput(6.071428571428571, 0.9, a) == 68.0

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


_TIME = st.one_of(st.sampled_from([0.0, 1.0, 2.0, math.inf, math.nan]), st.floats(allow_nan=True))


class TestRegimeCodes:
    """The one label rule gives the codes of its ``np.where`` form, on Python
    floats as an int and on columns as an int array, ties and NaN included."""

    @staticmethod
    def where(t_compute, t_access, t_data, t_entropy):
        return np.where(t_compute >= t_access, 0, np.where(t_entropy >= t_data, 2, 1))

    @given(st.lists(st.tuples(_TIME, _TIME, _TIME, _TIME), min_size=1, max_size=16))
    def test_matches_np_where(self, rows):
        columns = [np.array(column) for column in zip(*rows)]
        codes = _regime_codes(*columns)
        assert codes.dtype.kind == "i" and codes.tolist() == self.where(*columns).tolist()
        for row, code in zip(rows, codes.tolist()):
            scalar = _regime_codes(*row)
            assert scalar.__class__ is int and scalar == code == self.where(*row)

    def test_ties_and_nan(self):
        nan = math.nan
        for row, code in [((1.0, 1.0, 2.0, 1.0), 0), ((1.0, 2.0, 1.0, 1.0), 2), ((1.0, 2.0, 2.0, 1.0), 1),
                          ((nan, 1.0, 1.0, 2.0), 2), ((1.0, nan, 2.0, 1.0), 1), ((nan, nan, nan, nan), 1)]:
            assert _regime_codes(*row) == self.where(*row) == code


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


def curve(a, alpha, ai_min, ai_max, n_points):
    """Row 0 of a one-alpha roofline table: its beta_eff and its ai, phi and regime rows."""
    table = roofline_curve(a, [alpha], ai_min, ai_max, n_points)
    return table["beta_eff"][0], table["ai"], table["phi"], table["regime"]


def exact(values):
    """Each value's type and repr, in row order: equal for equal bits, NaN aside."""
    return [(type(v), repr(v)) for v in values.tolist()]


class TestRooflineCurve:
    def test_alpha_zero_is_classical_roofline(self):
        a = arch(pi=1e4, beta_data=100.0, beta_rand=1.0)
        beta_eff, ais, phis, _ = curve(a, 0.0, 0.01, 100.0, 32)
        assert len(ais) == 32
        assert beta_eff == a.beta_data
        for ai, phi in zip(ais.tolist(), phis.tolist()):
            assert phi == min(a.pi, ai * a.beta_data)

    def test_alpha_one_slope_is_beta_rand(self):
        a = arch(pi=1e4, beta_data=100.0, beta_rand=1.0)
        _, ais, phis, _ = curve(a, 1.0, 0.01, 10.0, 16)
        for ai, phi in zip(ais.tolist(), phis.tolist()):
            assert phi == min(a.pi, ai * 1.0)

    def test_plateau_position(self):
        # beta(0.5) = 1/0.505; compute roof reached at ai = pi / beta = 5050
        a = arch(pi=1e4, beta_data=100.0, beta_rand=1.0)
        beta = effective_beta(0.5, a)
        assert a.pi / beta == pytest.approx(5050.0, rel=1e-12)
        _, _, phis, regimes = curve(a, 0.5, 5050.0, 50_500.0, 8)
        assert all(phi == pytest.approx(1e4, rel=1e-12) for phi in phis.tolist())
        assert regimes[0] is RegimeLabel.COMPUTE_BOUND

    def test_phi_non_decreasing_and_consistent(self):
        a = arch(pi=1e6, beta_data=2500.0, beta_rand=10.0)
        beta_eff, ais, phis, regimes = curve(a, 0.3, 0.01, 1e5, 200)
        phis = phis.tolist()
        assert all(b >= a_ for a_, b in zip(phis, phis[1:]))
        for ai, phi, regime in zip(ais.tolist(), phis, regimes):
            assert phi == min(a.pi, ai * beta_eff)
            assert regime is classify_regime(ai, 0.3, a)

    @given(st.tuples(*[st.floats(1e-3, 1e12)] * 3), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
           st.floats(1e-6, 1e6), st.floats(1.0, 1e8, exclude_min=True), st.integers(2, 64))
    def test_alphas_together_equal_alphas_apart(self, rates, alphas, ai_min, span, n_points):
        """One ai row serves every alpha, and row i of a table over several
        alphas is the one-alpha table at alphas[i], bit for bit."""
        ai_max = ai_min * span
        assume(ai_max > ai_min)
        a = arch(*rates)
        table = roofline_curve(a, alphas, ai_min, ai_max, n_points)
        assert table.shape == (len(alphas), n_points) and len(table) == len(alphas) * n_points
        assert table.columns["ai"].shape == (1, n_points)
        for i, alpha in enumerate(alphas):
            apart = roofline_curve(a, [alpha], ai_min, ai_max, n_points)
            for name in table.columns:
                row = table[name].reshape(table.shape)[i]
                assert row.dtype == apart[name].dtype and exact(row) == exact(apart[name])

    @given(st.tuples(*[st.floats(1e-3, 1e15)] * 3), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
           st.floats(1e-6, 1e6), st.floats(1.0, 1e8, exclude_min=True), st.integers(2, 16),
           st.none() | st.integers(-64, 64))
    # a ridge tie: the label calls compute while 6.071428571428571 * beta_eff rounds under pi;
    # the row and system_throughput both give pi
    @example((68.0, 4.0, 14.0), [0.9], 6.071428571428571, 2.0, 2, None)
    def test_rows_equal_the_scalar_model(self, rates, alphas, ai_min, span, n_points, ridge_ulps):
        """Every row equals ``system_throughput`` and ``classify_regime`` at its
        (alpha, ai), bit for bit, at the ridge too: one rule decides which roof
        binds.  ``ridge_ulps`` puts ``ai_min`` that many ulps from the first
        alpha's ridge."""
        a = arch(*rates)
        if ridge_ulps is not None:
            t_access = (1.0 - alphas[0]) / a.beta_data + alphas[0] / a.beta_rand
            ai_min = a.pi * t_access * (1.0 + ridge_ulps * np.finfo(float).eps)
            span = 1.0 + 64 * np.finfo(float).eps
        ai_max = ai_min * span
        assume(0.0 < ai_min < ai_max < math.inf)
        table = roofline_curve(a, alphas, ai_min, ai_max, n_points)
        for alpha, ai, phi, regime in zip(*(table[name].tolist() for name in ("alpha", "ai", "phi", "regime"))):
            assert regime is classify_regime(ai, alpha, a)
            assert phi == system_throughput(ai, alpha, a)

    def test_invalid_ranges(self):
        a = arch()
        with pytest.raises(DomainError):
            roofline_curve(a, [0.0], 1.0, 1.0, 10)
        with pytest.raises(DomainError):
            roofline_curve(a, [0.0], -1.0, 1.0, 10)
        with pytest.raises(DomainError):
            roofline_curve(a, [0.0], 0.1, 1.0, 1)
        for ai_min, ai_max, n_points in ((0.1, math.inf, 10), (math.nan, 1.0, 10),
                                         (0.1, 1.0, 2.5), (0.1, 1.0, True)):
            with pytest.raises(DomainError):
                roofline_curve(a, [0.0], ai_min, ai_max, n_points)
        # a finite range whose ratio overflows would make every ai but the first inf
        with pytest.raises(DomainError) as info:
            roofline_curve(a, [0.0], 1e-300, 1e300, 3)
        assert info.value.name == "ai_max"

    @pytest.mark.parametrize("alphas, ai_min, ai_max, n_points, name", [
        ([0.5, 2.0], 0.0, 1.0, 1, "ai_min"),  # the range first
        ([0.5, 2.0], 0.1, 0.01, 1, "ai_max"),
        ([0.5, 2.0], 0.1, 1.0, 1, "n_points"),
        ([0.5, math.nan], 1e-300, 1e300, 3, "alpha"),  # then each alpha, before the ratio
        ([0.5, 1.0], 1e-300, 1e300, 3, "ai_max"),
    ])
    def test_checks_keep_their_order(self, alphas, ai_min, ai_max, n_points, name):
        with pytest.raises(DomainError) as info:
            roofline_curve(arch(), alphas, ai_min, ai_max, n_points)
        assert info.value.name == name


class TestTimeOverflow:
    """A rate so small that a time per access is past the float range is named,
    as the simulator names it, where it gave a rate of 0 or a wrong answer."""

    @pytest.mark.parametrize("call, name", ids=[
        "roofline-beta_data", "roofline-pi", "compression", "effective-beta", "classify", "throughput",
        "crossover-beta_rand", "crossover-beta_data"], argvalues=[
        (lambda: roofline_curve(arch(beta_data=5e-324), [0.5], 0.01, 1e4, 2), "beta_data"),  # phi 0.0, DataBound
        (lambda: roofline_curve(arch(pi=5e-324), [0.0], 0.01, 1e4, 2), "pi"),
        (lambda: bandwidth_compression(0.5, arch(beta_data=5e-324)), "beta_data"),  # ZeroDivisionError
        (lambda: effective_beta(0.5, arch(beta_rand=5e-324)), "beta_rand"),
        (lambda: classify_regime(2.0, 0.5, arch(beta_rand=5e-324)), "beta_rand"),
        (lambda: system_throughput(2.0, 0.0, arch(pi=5e-324)), "pi"),
        (lambda: crossover_alpha(2.0, arch(1e13, 2.5e10, 5e-324)), "beta_rand"),  # -0.0
        (lambda: crossover_alpha(2.0, arch(1e13, 5e-324, 1e9)), "beta_data"),
    ])
    def test_rate_is_named(self, call, name):
        with pytest.raises(DomainError, match=f"overflows the float range at {name} = 5e-324") as info:
            call()
        assert info.value.name == name

    def test_a_rate_with_finite_times_still_answers(self):
        assert crossover_alpha(2.0, arch(1e13, 2.5e10, 1e-300)) is None
        assert effective_beta(0.0, arch(beta_data=5e-324)) == 5e-324  # no time is computed at the ends

    @pytest.mark.parametrize("alphas, ai_min, ai_max, name", [
        ([0.5, math.nan], 0.01, 1e4, "alpha"),  # each alpha first
        ([0.5], 1e-300, 1e300, "ai_max"),  # then the ratio
    ])
    def test_roofline_checks_the_times_last(self, alphas, ai_min, ai_max, name):
        with pytest.raises(DomainError) as info:
            roofline_curve(arch(beta_data=5e-324), alphas, ai_min, ai_max, 3)
        assert info.value.name == name


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
