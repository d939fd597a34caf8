import math

import numpy as np
import pytest

from qwsnsim.channel import (
    FadingDraw,
    FadingKind,
    FadingSpec,
    LinkBudget,
    TrsGain,
    apply_trs,
    ergodic_capacity,
    faded_capacity,
    faded_capacity_samples,
    sample_fading,
    sample_h_squared,
    shannon_capacity,
)
from qwsnsim.numeric import stable_mean

from oracles import (
    KS_CRIT_1PCT,
    decimal_capacity,
    gauss_laguerre_ergodic,
    ks_statistic_exponential,
)


class TestShannonCapacity:
    def test_unit_snr(self):
        assert shannon_capacity(LinkBudget(1.0, 1.0, 1.0, 0.0)) == 1.0

    def test_snr_three_with_interference(self):
        assert shannon_capacity(LinkBudget(1.0, 3.0, 0.5, 0.5)) == 2.0

    def test_wideband_link_matches_decimal_oracle(self):
        # Frozen from the 60-digit oracle: 2e6 * log2(1001).
        capacity = shannon_capacity(LinkBudget(2e6, 1e-6, 1e-9, 0.0))
        assert capacity == pytest.approx(19934452.517671987, rel=1e-12)
        assert capacity == pytest.approx(decimal_capacity(2e6, 1e-6, 1e-9, 0.0), rel=1e-12)

    def test_random_budgets_match_decimal_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            b = 10.0 ** rng.uniform(0, 9)
            s = 10.0 ** rng.uniform(-12, 2)
            n = 10.0 ** rng.uniform(-12, 2)
            i = 10.0 ** rng.uniform(-12, 2)
            got = shannon_capacity(LinkBudget(b, s, n, i))
            assert got == pytest.approx(decimal_capacity(b, s, n, i), rel=1e-12)

    def test_tiny_snr_uses_full_precision(self):
        # SNR ~ 1e-12: a naive log2(1 + x) would lose most of the digits.
        budget = LinkBudget(1e6, 1e-12, 1.0, 0.0)
        assert shannon_capacity(budget) == pytest.approx(
            decimal_capacity(1e6, 1e-12, 1.0, 0.0), rel=1e-12
        )

    def test_zero_signal_is_exactly_zero(self):
        assert shannon_capacity(LinkBudget(5e6, 0.0, 1e-9, 0.0)) == 0.0

    def test_monotonicity_on_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            b, s, n, i = (float(10.0 ** rng.uniform(-3, 3)) for _ in range(4))
            base = shannon_capacity(LinkBudget(b, s, n, i))
            assert shannon_capacity(LinkBudget(b, s * 1.5, n, i)) > base
            assert shannon_capacity(LinkBudget(b, s, n * 1.5, i)) < base
            assert shannon_capacity(LinkBudget(b, s, n, i + n)) < base

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bandwidth_hz=0.0, signal_power_w=1.0, noise_power_w=1.0),
            dict(bandwidth_hz=-1.0, signal_power_w=1.0, noise_power_w=1.0),
            dict(bandwidth_hz=1.0, signal_power_w=-1.0, noise_power_w=1.0),
            dict(bandwidth_hz=1.0, signal_power_w=1.0, noise_power_w=0.0),
            dict(bandwidth_hz=1.0, signal_power_w=1.0, noise_power_w=1.0, interference_power_w=-2.0),
        ],
    )
    def test_invalid_budget_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LinkBudget(**kwargs)


class TestFadedCapacity:
    def test_zero_draw_kills_the_link(self):
        link = LinkBudget(3.0, 2.0, 1.0, 0.5)
        assert faded_capacity(link, FadingDraw(0.0)) == 0.0

    def test_unit_draw_is_identity(self):
        link = LinkBudget(2e6, 1e-6, 1e-9, 1e-10)
        assert faded_capacity(link, FadingDraw(1.0)) == shannon_capacity(link)

    def test_draw_scales_signal(self):
        assert faded_capacity(LinkBudget(1.0, 1.0, 1.0, 0.0), FadingDraw(3.0)) == 2.0

    def test_negative_draw_rejected(self):
        with pytest.raises(ValueError):
            FadingDraw(-0.1)

    def test_vectorized_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(5)
        link = LinkBudget(2e6, 1e-6, 4e-9, 1e-9)
        h2 = np.concatenate(([0.0, 1.0], rng.exponential(1.0, size=500)))
        caps = faded_capacity_samples(link, h2)
        assert caps.tobytes() == np.array(
            [faded_capacity(link, FadingDraw(float(x))) for x in h2]
        ).tobytes()


class TestStableMean:
    def test_scratch_and_aliased_scratch_match_fresh(self):
        values = np.random.default_rng(6).exponential(3.0, size=1000)
        fresh = stable_mean(values)
        assert stable_mean(values, np.empty_like(values)) == fresh
        alias = values.copy()
        assert stable_mean(alias, alias) == fresh


class TestApplyTrs:
    def test_identity(self):
        assert apply_trs(5.0, TrsGain(1.0)) == 5.0

    def test_scaling(self):
        assert apply_trs(5.0, TrsGain(2.0)) == 10.0

    def test_zero_fixed_point(self):
        assert apply_trs(0.0, TrsGain(3.0)) == 0.0

    def test_exact_linearity_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = float(10.0 ** rng.uniform(-3, 9))
            g = float(rng.uniform(1.0, 8.0))
            assert apply_trs(c, TrsGain(g)) == g * c

    def test_gain_below_one_rejected(self):
        with pytest.raises(ValueError):
            TrsGain(0.5)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            apply_trs(-1.0, TrsGain(2.0))


class TestFadingSpecValidation:
    def test_rician_requires_k_factor(self):
        with pytest.raises(ValueError):
            FadingSpec(FadingKind.RICIAN)

    def test_k_factor_forbidden_outside_rician(self):
        with pytest.raises(ValueError):
            FadingSpec(FadingKind.RAYLEIGH, k_factor=2.0)

    def test_mean_power_must_be_positive(self):
        with pytest.raises(ValueError):
            FadingSpec(FadingKind.RAYLEIGH, mean_power=0.0)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            FadingSpec.rician(k_factor=-1.0)


class TestSampleFading:
    def test_awgn_is_always_unity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert sample_fading(FadingSpec.awgn(), rng).h_squared == 1.0

    def test_rayleigh_mean(self):
        rng = np.random.default_rng(42)
        h2 = sample_h_squared(FadingSpec.rayleigh(2.0), rng, size=1_000_000)
        assert abs(h2.mean() - 2.0) < 3.0 * 2.0 / 1000.0

    def test_rician_mean_for_any_k(self):
        rng = np.random.default_rng(5)
        for k in (0.5, 3.0, 20.0):
            omega = 1.5
            h2 = sample_h_squared(FadingSpec.rician(k, omega), rng, size=1_000_000)
            assert abs(h2.mean() - omega) < 3.0 * omega / 1000.0

    def test_rician_k_zero_collapses_to_rayleigh(self):
        rng = np.random.default_rng(8)
        h2 = sample_h_squared(FadingSpec.rician(0.0, 1.0), rng, size=100_000)
        assert ks_statistic_exponential(h2, 1.0) < KS_CRIT_1PCT / math.sqrt(h2.size)

    def test_rician_large_k_freezes_the_channel(self):
        rng = np.random.default_rng(9)
        omega = 2.0
        h2 = sample_h_squared(FadingSpec.rician(1e6, omega), rng, size=1_000_000)
        assert h2.var() < 1e-4 * omega**2

    def test_identical_seeds_give_identical_sequences(self):
        spec = FadingSpec.rician(2.5, 1.3)
        first = sample_h_squared(spec, np.random.default_rng(123), size=50)
        second = sample_h_squared(spec, np.random.default_rng(123), size=50)
        assert np.array_equal(first, second)
        scalar_a = [sample_fading(spec, np.random.default_rng(7)).h_squared for _ in range(10)]
        scalar_b = [sample_fading(spec, np.random.default_rng(7)).h_squared for _ in range(10)]
        assert scalar_a == scalar_b


class TestErgodicCapacity:
    def test_awgn_equals_shannon_for_any_n(self):
        link = LinkBudget(1.0, 0.1, 1.0, 0.0)
        expected = shannon_capacity(link)
        for n in (1, 3, 7, 1000):
            rng = np.random.default_rng(0)
            assert ergodic_capacity(link, FadingSpec.awgn(), n, rng) == expected

    def test_single_sample_equals_that_draw(self):
        link = LinkBudget(2.0, 1.0, 0.5, 0.0)
        spec = FadingSpec.rayleigh()
        draw = sample_fading(spec, np.random.default_rng(77))
        got = ergodic_capacity(link, spec, 1, np.random.default_rng(77))
        assert got == faded_capacity(link, draw)

    def test_rayleigh_matches_quadrature_oracle(self):
        # SNR = 10 dB, normalized fading.
        link = LinkBudget(1.0, 10.0, 1.0, 0.0)
        oracle = gauss_laguerre_ergodic(10.0)
        got = ergodic_capacity(link, FadingSpec.rayleigh(), 1_000_000, np.random.default_rng(1))
        assert got == pytest.approx(oracle, rel=0.01)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            ergodic_capacity(LinkBudget(1, 1, 1), FadingSpec.awgn(), 0, np.random.default_rng(0))
