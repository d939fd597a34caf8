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
    capacity_reference,
    decimal_capacity,
    gauss_laguerre_ergodic,
    ks_statistic_exponential,
    pivoted_mean,
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
    def test_out_matches_a_fresh_array_bit_for_bit(self):
        link = LinkBudget(2e6, 1e-6, 4e-9, 1e-9)
        h2 = np.concatenate(([0.0, 1.0], np.random.default_rng(4).exponential(1.0, size=500)))
        fresh = faded_capacity_samples(link, h2)
        out = np.empty_like(h2)
        assert faded_capacity_samples(link, h2, out=out) is out
        assert out.tobytes() == fresh.tobytes()
        assert faded_capacity_samples(link, h2, out=h2) is h2
        assert h2.tobytes() == fresh.tobytes()

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


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


# (B, S, N, I) of budgets at the edges of the kernel: zero signal, a
# subnormal and an underflowing product, and an SNR that overflows to inf.
_EDGE_BUDGETS = [
    (5e6, 0.0, 1e-9, 0.0),
    (1.0, 1.0, 1.0, 0.0),
    (2e6, 1e-6, 4e-9, 1e-9),
    (3.0, 5e-324, 1.0, 0.5),
    (1e9, 1e-300, 1e10, 0.0),
    (1.0, 1e300, 1e-10, 0.0),
    (1e300, 1e300, 1e-300, 1e-300),
]
_EDGE_DRAWS = [0.0, 5e-324, 1e-310, 1e-20, 1.0, 3.5, 1e300, 1.7e308]


def _random_budgets(n=400):
    # SNRs spread over [e^-3, e^3], where numpy's log1p and math.log1p
    # round differently for some arguments.
    rng = np.random.default_rng(10)
    return [
        (float(b), float(s), 1.0, float(i))
        for b, s, i in zip(
            10.0 ** rng.uniform(0, 9, n), np.exp(rng.uniform(-3, 3, n)), rng.uniform(0, 0.2, n)
        )
    ]


class TestOneKernel:
    """The scalar functions are the kernel at n = 1 and keep the values of
    the scalar expression they used before, bit for bit."""

    @pytest.mark.parametrize("budget", _EDGE_BUDGETS)
    def test_shannon_capacity_matches_the_reference(self, budget):
        with np.errstate(over="ignore"):
            got = shannon_capacity(LinkBudget(*budget))
            assert _bits(got) == _bits(capacity_reference(*budget))

    def test_random_budgets_match_the_reference(self):
        rng = np.random.default_rng(12)
        for b, s, n, i in _random_budgets():
            link = LinkBudget(b, s, n, i)
            h2 = float(rng.exponential())
            assert _bits(shannon_capacity(link)) == _bits(capacity_reference(b, s, n, i))
            got = faded_capacity(link, FadingDraw(h2))
            assert _bits(got) == _bits(capacity_reference(b, s * h2, n, i))

    @pytest.mark.parametrize("budget", _EDGE_BUDGETS)
    def test_faded_capacity_matches_the_reference(self, budget):
        b, s, n, i = budget
        link = LinkBudget(*budget)
        with np.errstate(over="ignore"):
            for h2 in _EDGE_DRAWS:
                got = faded_capacity(link, FadingDraw(h2))
                assert _bits(got) == _bits(capacity_reference(b, s * h2, n, i)), h2
            caps = faded_capacity_samples(link, np.array(_EDGE_DRAWS))
            want = [capacity_reference(b, s * h2, n, i) for h2 in _EDGE_DRAWS]
            assert _bits(caps) == _bits(want)

    @pytest.mark.parametrize("budget", _EDGE_BUDGETS)
    @pytest.mark.parametrize(
        "spec", [FadingSpec.awgn(), FadingSpec.rayleigh(2.0), FadingSpec.rician(3.0, 1e-300)]
    )
    @pytest.mark.parametrize("n", [1, 2, 999])
    def test_ergodic_capacity_matches_the_reference(self, budget, spec, n):
        b, s, noise, i = budget
        h2 = sample_h_squared(spec, np.random.default_rng(n), size=n)
        with np.errstate(over="ignore", invalid="ignore"):
            got = ergodic_capacity(LinkBudget(*budget), spec, n, np.random.default_rng(n))
            want = pivoted_mean(capacity_reference(b, s * h2, noise, i))
        assert _bits(got) == _bits(want)


class TestStableMean:
    @pytest.mark.parametrize("n", [1, 2, 9, 8193, 100_003])
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_matches_the_pivoted_mean_oracle(self, n, scale):
        values = np.random.default_rng(n).standard_normal(n) * scale
        assert _bits(stable_mean(values)) == _bits(pivoted_mean(values))
        # Every element is reduced, whatever the array's shape.
        assert _bits(stable_mean(values[None, :])) == _bits(stable_mean(values))

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


def _reference_h_squared(spec: FadingSpec, rng: np.random.Generator, size=None):
    """The draws from the out-of-place expressions, a fresh array per step."""
    if spec.kind is FadingKind.AWGN:
        return 1.0 if size is None else np.ones(size)
    if spec.kind is FadingKind.RAYLEIGH:
        out = rng.exponential(spec.mean_power, size=size)
        return float(out) if size is None else out
    k, omega = spec.k_factor, spec.mean_power
    los = math.sqrt(k * omega / (k + 1.0))
    sigma = math.sqrt(omega / (2.0 * (k + 1.0)))
    re = los + sigma * rng.standard_normal(size)
    im = sigma * rng.standard_normal(size)
    out = re * re + im * im
    return float(out) if size is None else out


SPECS = [
    FadingSpec.awgn(),
    FadingSpec.rayleigh(),
    FadingSpec.rayleigh(0.37),
    FadingSpec.rician(0.0, 1.0),
    FadingSpec.rician(2.5, 1.3),
    FadingSpec.rician(1e6, 2.0),
]


class TestSampleInPlace:
    @pytest.mark.parametrize("size", [1, 2, 1000, 80_000])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: f"{spec.kind.value}-{spec.k_factor}")
    def test_out_matches_the_allocating_call_bit_for_bit(self, spec, size):
        reference = _reference_h_squared(spec, np.random.default_rng(size), size)
        fresh = sample_h_squared(spec, np.random.default_rng(size), size)
        out = np.full((2, size), np.nan)
        placed = sample_h_squared(spec, np.random.default_rng(size), size, out=out)
        assert np.shares_memory(placed, out[0]) and placed.shape == (size,)
        assert fresh.tobytes() == reference.tobytes()
        assert placed.tobytes() == reference.tobytes()

    def test_out_rows_can_be_reused(self):
        spec = FadingSpec.rician(2.5, 1.3)
        out = np.empty((2, 100))
        for seed in range(5):
            placed = sample_h_squared(spec, np.random.default_rng(seed), 100, out=out)
            assert placed.tobytes() == _reference_h_squared(
                spec, np.random.default_rng(seed), 100
            ).tobytes()

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: f"{spec.kind.value}-{spec.k_factor}")
    def test_scalar_draws_are_unchanged(self, spec):
        rng, reference_rng = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(50):
            draw = sample_h_squared(spec, rng)
            assert type(draw) is float
            assert draw == _reference_h_squared(spec, reference_rng)

    @pytest.mark.parametrize("shape", [(10,), (1, 10), (2, 9), (3, 10)])
    def test_out_of_the_wrong_shape_rejected(self, shape):
        for spec in (FadingSpec.awgn(), FadingSpec.rayleigh()):
            with pytest.raises(ValueError, match="out must have shape"):
                sample_h_squared(spec, np.random.default_rng(0), 10, out=np.empty(shape))
        with pytest.raises(ValueError, match="out must have shape"):
            sample_h_squared(FadingSpec.rayleigh(), np.random.default_rng(0), out=np.empty((2, 1)))

    def test_exponential_is_scale_times_standard_exponential(self):
        # Rayleigh draws scale rng.standard_exponential in place; a numpy
        # release whose rng.exponential does otherwise must fail here, not
        # shift every Rayleigh draw silently.
        scales = [1.0, 0.37, 2.0, 1e-300, 5e-324, 1e300, math.pi, 0.1]
        for seed in range(60):
            n = 1 + seed * 37
            for scale in scales:
                expected = scale * np.random.default_rng(seed).standard_exponential(n)
                got = np.random.default_rng(seed).exponential(scale, n)
                assert got.tobytes() == expected.tobytes(), (seed, scale)


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
