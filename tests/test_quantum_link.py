import math

import numpy as np
import pytest

from qwsnsim.channel import TrsGain
from qwsnsim.quantum_link import (
    QberCount,
    QkdLinkSpec,
    qber,
    qber_with_trs,
    qkd_received_power,
    qkd_received_power_trs,
)

from oracles import decimal_received_power


class TestQber:
    def test_ratio(self):
        assert qber(QberCount(5, 100)) == 0.05

    def test_error_free(self):
        assert qber(QberCount(0, 1234)) == 0.0

    def test_all_errors(self):
        assert qber(QberCount(77, 77)) == 1.0

    def test_count_validation(self):
        with pytest.raises(ValueError):
            QberCount(5, 0)
        with pytest.raises(ValueError):
            QberCount(-1, 10)
        with pytest.raises(ValueError):
            QberCount(11, 10)


class TestQberWithTrs:
    def test_halving(self):
        assert qber_with_trs(0.1, TrsGain(2.0)) == 0.05

    def test_identity(self):
        assert qber_with_trs(0.1, TrsGain(1.0)) == 0.1

    def test_zero_fixed_point(self):
        assert qber_with_trs(0.0, TrsGain(7.0)) == 0.0

    def test_never_increases(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            q = float(rng.uniform(0.0, 1.0))
            g = float(rng.uniform(1.0, 16.0))
            reduced = qber_with_trs(q, TrsGain(g))
            assert 0.0 <= reduced <= q

    def test_composition_is_exact_for_dyadic_gains(self):
        # Division by powers of two is exact in binary floating point, so the
        # two-step and one-step reductions agree bit for bit.
        rng = np.random.default_rng(1)
        for _ in range(200):
            q = float(rng.uniform(0.0, 1.0))
            g1, g2 = (float(2.0 ** rng.integers(0, 5)) for _ in range(2))
            two_step = qber_with_trs(qber_with_trs(q, TrsGain(g1)), TrsGain(g2))
            assert two_step == qber_with_trs(q, TrsGain(g1 * g2))

    def test_composition_for_general_gains(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            q = float(rng.uniform(0.0, 1.0))
            g1 = float(rng.uniform(1.0, 5.0))
            g2 = float(rng.uniform(1.0, 5.0))
            two_step = qber_with_trs(qber_with_trs(q, TrsGain(g1)), TrsGain(g2))
            assert two_step == pytest.approx(qber_with_trs(q, TrsGain(g1 * g2)), rel=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            qber_with_trs(1.5, TrsGain(1.0))


class TestQkdReceivedPower:
    def test_lossless(self):
        assert qkd_received_power(QkdLinkSpec(0.7, 0.0, 1e6)) == 0.7

    def test_half_life(self):
        spec = QkdLinkSpec(2.0, math.log(2.0), 1.0)
        assert qkd_received_power(spec) == pytest.approx(1.0, rel=1e-15)

    def test_exp_oracle(self):
        # Frozen from the 60-digit oracle: exp(-2).
        spec = QkdLinkSpec(1.0, 0.2, 10.0)
        assert qkd_received_power(spec) == pytest.approx(0.1353352832366127, rel=1e-12)
        assert qkd_received_power(spec) == pytest.approx(
            decimal_received_power(1.0, 0.2, 10.0), rel=1e-12
        )

    def test_monotone_in_loss_and_distance(self):
        base = qkd_received_power(QkdLinkSpec(1.0, 0.3, 5.0))
        assert qkd_received_power(QkdLinkSpec(1.0, 0.4, 5.0)) < base
        assert qkd_received_power(QkdLinkSpec(1.0, 0.3, 6.0)) < base

    def test_zero_distance_is_identity(self):
        assert qkd_received_power(QkdLinkSpec(0.9, 5.0, 0.0)) == 0.9

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QkdLinkSpec(-1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            QkdLinkSpec(1.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            QkdLinkSpec(1.0, 0.1, -1.0)

    @pytest.mark.parametrize("name", ["tx_power_w", "loss_coeff_per_km", "distance_km"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_field_is_named(self, name, value):
        fields = {"tx_power_w": 1.0, "loss_coeff_per_km": 0.0, "distance_km": 1.0, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be >= 0 and finite"):
            QkdLinkSpec(**fields)

    def test_lossless_link_at_infinite_distance_is_refused(self):
        # 0 * inf in the exponent used to make the received power nan.
        with pytest.raises(ValueError, match="distance_km"):
            qkd_received_power(QkdLinkSpec(1.0, 0.0, math.inf))


class TestQkdReceivedPowerTrs:
    def test_identity_gain(self):
        spec = QkdLinkSpec(1.0, 0.2, 10.0)
        assert qkd_received_power_trs(spec, TrsGain(1.0)) == qkd_received_power(spec)

    def test_clamp_boundary(self):
        # gamma * e^{-alpha d} = 2 * 1/2 = 1 exactly: clamp engages at P_tx.
        spec = QkdLinkSpec(3.0, math.log(2.0), 1.0)
        assert qkd_received_power_trs(spec, TrsGain(2.0)) == 3.0

    def test_clamp_inactive(self):
        # Frozen from the oracle: 3*exp(-2) ~ 0.406 < 1.
        spec = QkdLinkSpec(1.0, 0.2, 10.0)
        assert qkd_received_power_trs(spec, TrsGain(3.0)) == pytest.approx(
            0.40600584970983805, rel=1e-12
        )

    def test_clamp_never_exceeds_tx_power(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            spec = QkdLinkSpec(
                float(10.0 ** rng.uniform(-6, 2)),
                float(rng.uniform(0.0, 2.0)),
                float(rng.uniform(0.0, 50.0)),
            )
            gain = TrsGain(float(rng.uniform(1.0, 100.0)))
            recovered = qkd_received_power_trs(spec, gain)
            assert recovered <= spec.tx_power_w
            if gain.gamma * math.exp(-spec.loss_coeff_per_km * spec.distance_km) <= 1.0:
                assert recovered == gain.gamma * qkd_received_power(spec)
