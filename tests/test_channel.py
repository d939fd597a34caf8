import math
import sys
import warnings

import numpy as np
import pytest

from qwsnsim.channel import (
    FadingDraw,
    FadingKind,
    FadingSpec,
    LinkBudget,
    TrsGain,
    ergodic_capacity,
    faded_capacity_samples,
    received_capacity,
    sample_fading,
    sample_h_squared,
    shannon_capacity,
)
from qwsnsim.network import Link, Node, Topology, TopologyKind
from qwsnsim.numeric import stable_mean
from qwsnsim.optimizer import Deterministic, ErgodicMean, PowerProblem, _Evaluator

from oracles import (
    KS_CRIT_1PCT,
    capacity_reference,
    decimal_capacity,
    gauss_laguerre_ergodic,
    ks_statistic_exponential,
    mgf_ergodic,
    pivoted_mean,
    rayleigh_ergodic,
    rician_cdf,
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
        assert faded_capacity_samples(link, [0.0])[0] == 0.0

    def test_unit_draw_is_identity(self):
        link = LinkBudget(2e6, 1e-6, 1e-9, 1e-10)
        assert faded_capacity_samples(link, [1.0])[0] == shannon_capacity(link)

    def test_draw_scales_signal(self):
        assert faded_capacity_samples(LinkBudget(1.0, 1.0, 1.0, 0.0), [3.0])[0] == 2.0

    def test_negative_draw_rejected(self):
        with pytest.raises(ValueError):
            FadingDraw(-0.1)

    def test_infinite_draw_rejected(self):
        # Refused here, not later as a capacity overflow.
        with pytest.raises(ValueError, match="^h_squared must be"):
            FadingDraw(math.inf)

    def test_vectorized_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(5)
        link = LinkBudget(2e6, 1e-6, 4e-9, 1e-9)
        h2 = np.concatenate(([0.0, 1.0], rng.exponential(1.0, size=500)))
        caps = faded_capacity_samples(link, h2)
        assert caps.tobytes() == np.array(
            [faded_capacity_samples(link, [float(x)])[0] for x in h2]
        ).tobytes()

    @pytest.mark.parametrize(
        "spec", [FadingSpec.awgn(), FadingSpec.rayleigh(), FadingSpec.rician(4.0)]
    )
    def test_overflow_raises_without_a_warning(self, spec):
        # B * log2(1 + 1e300) overflows to inf in the kernel's `* B`.
        link = LinkBudget(1e308, 1.0, 1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="capacity overflows: capacity is inf"):
                shannon_capacity(link)
            with pytest.raises(ValueError, match="capacity overflows: mean capacity is"):
                ergodic_capacity(link, spec, 10, np.random.default_rng(0))


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
            want = capacity_reference(*budget)
        if not math.isfinite(want):
            with pytest.raises(ValueError, match="capacity overflows"):
                shannon_capacity(LinkBudget(*budget))
            return
        assert _bits(shannon_capacity(LinkBudget(*budget))) == _bits(want)

    def test_random_budgets_match_the_reference(self):
        rng = np.random.default_rng(12)
        for b, s, n, i in _random_budgets():
            link = LinkBudget(b, s, n, i)
            h2 = float(rng.exponential())
            assert _bits(shannon_capacity(link)) == _bits(capacity_reference(b, s, n, i))
            got = faded_capacity_samples(link, [h2])[0]
            assert _bits(got) == _bits(capacity_reference(b, s * h2, n, i))

    # N + I = 1, so each power is its SNR: from 0 and subnormals to 1e300,
    # and 2000 in [e^-3, e^3], where numpy's log1p and math.log1p round
    # differently for some arguments.
    @pytest.mark.parametrize("budget", [(1.0, 0.0, 1.0, 0.0), (2e6, 0.0, 0.75, 0.25)])
    def test_received_capacity_of_a_float_is_its_array_branch(self, budget):
        link = LinkBudget(*budget)
        snrs = [0.0, 5e-324, 1e-310, 2.2e-308, 1e-20, 1e-8, 1.0, 3.5, 1e10, 1e300]
        snrs += np.exp(np.random.default_rng(16).uniform(-3.0, 3.0, 2000)).tolist()
        got = [received_capacity(link, p) for p in snrs]
        assert all(type(c) is float for c in got)
        powers = np.array(snrs)
        assert received_capacity(link, powers) is powers
        assert _bits(got) == _bits(powers)

    @pytest.mark.parametrize("budget", _EDGE_BUDGETS)
    def test_faded_capacity_matches_the_reference(self, budget):
        b, s, n, i = budget
        link = LinkBudget(*budget)
        with np.errstate(over="ignore"):
            for h2 in _EDGE_DRAWS:
                got = faded_capacity_samples(link, [h2])[0]
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
            want = pivoted_mean(capacity_reference(b, s * h2, noise, i))
        if not math.isfinite(want):
            with pytest.raises(ValueError, match="capacity overflows"):
                ergodic_capacity(LinkBudget(*budget), spec, n, np.random.default_rng(n))
            return
        got = ergodic_capacity(LinkBudget(*budget), spec, n, np.random.default_rng(n))
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


class TestTrsGain:
    def test_gain_below_one_rejected(self):
        with pytest.raises(ValueError):
            TrsGain(0.5)


# A Python int beyond the float range compares below math.inf; the bound is
# the largest float, so such an int is refused before a float() overflows.
@pytest.mark.parametrize(
    "field, build",
    [
        ("bandwidth_hz", lambda v: LinkBudget(v, 1.0, 1.0)),
        ("signal_power_w", lambda v: LinkBudget(1.0, v, 1.0)),
        ("noise_power_w", lambda v: LinkBudget(1.0, 1.0, v)),
        ("interference_power_w", lambda v: LinkBudget(1.0, 1.0, 1.0, v)),
        ("mean_power", FadingSpec.rayleigh),
        ("k_factor", FadingSpec.rician),
        ("gamma", TrsGain),
        ("h_squared", FadingDraw),
    ],
)
def test_int_beyond_the_float_range_is_refused(field, build):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        build(10**400)
    build(int(sys.float_info.max))


def _annealer_capacity(budget: LinkBudget, fading) -> float:
    nodes = (Node("a", 1.0, 1.0), Node("b", 1.0, 1.0))
    link = Link("a", "b", budget, FadingSpec.rayleigh(), TrsGain(1.0))
    topology = Topology(TopologyKind.CHAIN, nodes, (link,))
    return _Evaluator(PowerProblem(topology, 0.5, 2.0, fading=fading))._capacity(0, 1.0)


# N + I of two ints past the float range is inf, as it is for the floats: a
# link without capacity, never a bare OverflowError.
@pytest.mark.parametrize("power", [10**308, 1e308], ids=["int", "float"])
@pytest.mark.parametrize(
    "capacity",
    [
        shannon_capacity,
        lambda budget: faded_capacity_samples(budget, np.ones(4))[0],
        lambda budget: _annealer_capacity(budget, Deterministic()),
        lambda budget: _annealer_capacity(budget, ErgodicMean(n_samples=4, seed=1)),
    ],
    ids=["shannon_capacity", "faded_capacity_samples", "annealer", "annealer_ergodic"],
)
def test_noise_past_the_float_range_leaves_no_capacity(power, capacity):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert capacity(LinkBudget(1.0, 1.0, power, power)) == 0.0


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

    def test_awgn_mean_power_other_than_one_rejected(self):
        with pytest.raises(ValueError, match=r"^mean_power must be 1 for AWGN fading, got 7\.0$"):
            FadingSpec(FadingKind.AWGN, mean_power=7.0)
        assert FadingSpec(FadingKind.AWGN, mean_power=1) == FadingSpec.awgn()


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
        assert got == faded_capacity_samples(link, [draw.h_squared])[0]

    def test_rayleigh_matches_quadrature_oracle(self):
        # SNR = 10 dB, normalized fading.
        link = LinkBudget(1.0, 10.0, 1.0, 0.0)
        oracle = gauss_laguerre_ergodic(10.0)
        got = ergodic_capacity(link, FadingSpec.rayleigh(), 1_000_000, np.random.default_rng(1))
        assert got == pytest.approx(oracle, rel=0.01)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            ergodic_capacity(LinkBudget(1, 1, 1), FadingSpec.awgn(), 0, np.random.default_rng(0))


class TestRicianDistribution:
    def test_oracle_is_the_exponential_at_k_zero(self):
        for t in (1e-3, 0.1, 1.0, 2.0, 10.0):
            assert rician_cdf(t, 0.0, 1.0) == pytest.approx(-math.expm1(-t), rel=1e-15)
            assert rician_cdf(2.5 * t, 0.0, 2.5) == pytest.approx(-math.expm1(-t), rel=1e-15)

    @pytest.mark.parametrize("omega", [1.0, 2.5])
    @pytest.mark.parametrize("k", [0.0, 1.0, 3.0, 10.0, 30.0])
    def test_counts_below_thresholds_match_the_exact_cdf(self, k, omega):
        # Thresholds at the mean plus c standard deviations of |h|^2,
        # omega * sqrt(2K + 1) / (K + 1), keep every CDF value away from 0 and 1.
        n = 200_000
        h2 = sample_h_squared(FadingSpec.rician(k, omega), np.random.default_rng(31), size=n)
        sd = omega * math.sqrt(2.0 * k + 1.0) / (k + 1.0)
        for c in (-0.9, -0.5, 0.0, 1.0, 2.0):
            t = omega + c * sd
            p = rician_cdf(t, k, omega)
            count = int(np.count_nonzero(h2 <= t))
            assert abs(count - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p)), (t, count, n * p)


class TestRayleighOracle:
    def test_unit_snr_is_gompertz_constant(self):
        # e * E1(1) is Gompertz's constant, 0.596347362323194074341...
        assert rayleigh_ergodic(1.0) == pytest.approx(0.5963473623231940743 / math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("snr_db, rel", [(0, 1e-11), (10, 1e-6)])
    def test_agrees_with_gauss_laguerre(self, snr_db, rel):
        # Quadrature loses digits as the SNR grows: log1p's branch point
        # -1/snr closes in on the weight's support.
        snr = 10 ** (snr_db / 10)
        assert rayleigh_ergodic(snr) == pytest.approx(gauss_laguerre_ergodic(snr), rel=rel)


class TestMgfOracle:
    @pytest.mark.parametrize("omega", [1.0, 2.5])
    @pytest.mark.parametrize("snr_db", range(-10, 41, 10))
    def test_is_the_rayleigh_closed_form_at_k_zero(self, snr_db, omega):
        snr = 10 ** (snr_db / 10)
        assert mgf_ergodic(snr, 0.0, omega) == pytest.approx(rayleigh_ergodic(snr * omega), rel=1e-14)

    @pytest.mark.parametrize("snr_db", [-10, 10, 40])
    def test_tends_to_the_awgn_capacity_as_k_grows(self, snr_db):
        # |h|^2 has variance about 2 omega^2 / K, so the gap to log2(1 + snr * omega)
        # is below 1 / K of it.
        snr, omega = 10 ** (snr_db / 10), 2.5
        awgn = math.log1p(snr * omega) / math.log(2.0)
        assert mgf_ergodic(snr, 1e8, omega) == pytest.approx(awgn, rel=1e-7)
